"""Interaction Hamiltonians, driven-gate recipes, and circuit identities.

Each recipe pairs an interaction Hamiltonian with the actuator state that
each period's noisy operations re-prepare, the drive duration that realizes
a target register unitary, and that target.  Durations compensate the noise
rate: a depolarized reset leaves actuator polarization (1 - eps), so gate
times scale like 1/(1 - eps).  ``IDLE_HAMILTONIANS`` holds the schedule's
idle couplings.
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    depolarizing_kraus,
    entanglement_fidelity,
    initialization_kraus,
    kraus_to_superop,
    unitary_channel,
)
from .qcore import (
    I2,
    SX,
    SY,
    SZ,
    embed_operator,
    embed_superop,
    kron,
    pauli_coefficients,
    projector,
    reduce_superop,
    unitary_evolution,
    unvec,
)
from .zeno import NocoResult, NoisyCycleSpec, noco_channel, period_count

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# Qubit order, actuators first: heisenberg (a, q), ising3 (a, q1, q2),
# xy (a, c1, p2), rzz_prime (triangle actuator ta, square actuator sa,
# data dq, ancilla aq).


def _heisenberg_h() -> np.ndarray:
    return kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)


def _ising3_h() -> np.ndarray:
    return kron(SZ, SZ, SZ)


def _xy_h() -> np.ndarray:
    return (kron(SX, SX, I2) + kron(SY, SY, I2)
            + kron(SX, I2, SX) + kron(SY, I2, SY))


def _rzz_prime_h() -> np.ndarray:
    # triangle actuator exchanges with the ancilla, square actuator carries
    # the three-body Ising term with data and ancilla
    h = embed_operator(_heisenberg_h(), (0, 3), 4)
    h += embed_operator(_ising3_h(), (1, 2, 3), 4)
    return h


def noisy_initialization_kraus(eps: float):
    """Reset to |0> followed by a depolarizing error at rate eps."""
    return tuple(
        d @ k for k in initialization_kraus() for d in depolarizing_kraus(eps)
    )


def noisy_hadamard_kraus(eps: float):
    return tuple(d @ HADAMARD for d in depolarizing_kraus(eps))


def noisy_reset(eps: float) -> np.ndarray:
    """Superoperator of the noisy reset at rate eps."""
    return kraus_to_superop(noisy_initialization_kraus(eps))


RZ_TARGET = (I2 - 1j * SZ) / np.sqrt(2.0)
RX_TARGET = (I2 - 1j * SX) / np.sqrt(2.0)
PHASE_Z_TARGET = unitary_evolution(SZ, np.pi / 2.0)
RZZ_TARGET = (np.eye(4, dtype=complex) - 1j * kron(SZ, SZ)) / np.sqrt(2.0)
# phase gate on the ancilla conditioned on the data qubit, on (dq, aq)
RZZ_PRIME_TARGET = unitary_evolution(kron(I2, SZ) + kron(SZ, SZ), np.pi / 4.0)


@dataclass(frozen=True)
class GateRecipe:
    """A driven gate: cycle template, duration rule, and ideal target."""

    name: str
    hamiltonian: np.ndarray
    rho_u: object              # eps -> actuator state one period re-prepares
    duration_rule: object      # eps -> float
    target: np.ndarray

    def duration(self, eps: float) -> float:
        if eps >= 1.0:
            raise ValueError(
                f"{self.name} duration diverges at depolarizing rate "
                f"eps={eps}; rates must be below 1"
            )
        return self.duration_rule(eps)

    def cycle(self, eps: float) -> NoisyCycleSpec:
        return NoisyCycleSpec(self.hamiltonian, self.rho_u(eps))


def _recipes() -> dict:
    # each state is the column for |0><0| of the Kraus-built operations (the
    # 4 x 4 product for rx, not the Hadamard applied to a state): the pinned
    # gate-error rows carry the rounding of exactly these products
    def reset(eps):
        return unvec(noisy_reset(eps)[:, 0], 2)

    def reset_hadamard(eps):
        return unvec((kraus_to_superop(noisy_hadamard_kraus(eps)) @ noisy_reset(eps))[:, 0], 2)

    def reset_both(eps):
        rho = reset(eps)
        return kron(rho, rho)

    heis, ising = _heisenberg_h(), _ising3_h()
    return {
        "rz": GateRecipe(
            "rz", heis, reset, lambda e: np.pi / (4.0 * (1.0 - e)), RZ_TARGET),
        "phase_z": GateRecipe(
            "phase_z", heis, reset,
            lambda e: np.pi / (2.0 * (1.0 - e)), PHASE_Z_TARGET),
        "rx": GateRecipe(
            "rx", heis, reset_hadamard,
            lambda e: np.pi / (4.0 * (1.0 - e) * (1.0 - e)), RX_TARGET),
        "rzz": GateRecipe(
            "rzz", ising, reset, lambda e: np.pi / (4.0 * (1.0 - e)), RZZ_TARGET),
        "rzz_prime": GateRecipe(
            "rzz_prime", _rzz_prime_h(), reset_both,
            lambda e: np.pi / (4.0 * (1.0 - e)), RZZ_PRIME_TARGET),
    }


_RECIPES = _recipes()

GATE_NAMES = tuple(sorted(_RECIPES))


def recipe(name: str) -> GateRecipe:
    if name not in _RECIPES:
        raise ValueError(f"unknown gate {name!r}; known: {', '.join(GATE_NAMES)}")
    return _RECIPES[name]


def realized_channel(name: str, eps: float, freq_over_h: float) -> NocoResult:
    """Finite-frequency register channel of a catalog gate."""
    rec = recipe(name)
    duration = rec.duration(eps)
    period_count(duration, freq_over_h)  # refuse a bad duration before the cycle's rate
    return noco_channel(rec.cycle(eps), duration, freq_over_h)


# the schedule's idle couplings, under the names ``faulttol.SCHEDULE`` gives them
IDLE_HAMILTONIANS = {"heisenberg": _heisenberg_h(), "ising": _ising3_h()}


def infidelity_surface(eps_values, freq_values, gate_name: str):
    """Grid of (1 - entanglement fidelity, period count) for a catalog gate.

    Returns (infidelity, n_periods) arrays of shape (len(eps), len(freq)).
    """
    eps_values = list(eps_values)
    freq_values = list(freq_values)
    infid = np.zeros((len(eps_values), len(freq_values)))
    counts = np.zeros((len(eps_values), len(freq_values)), dtype=int)
    target = recipe(gate_name).target
    for i, eps in enumerate(eps_values):
        for j, f in enumerate(freq_values):
            run = realized_channel(gate_name, eps, f)
            infid[i, j] = 1.0 - entanglement_fidelity(run.superop, target)
            counts[i, j] = run.n_periods
    return infid, counts


SWAP_2Q = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_SWAP_EVOLUTION_TIME = np.pi / (2.0 * np.sqrt(2.0))


@dataclass
class SwapIdentityCheck:
    deviation: float
    halftime_deviation: float


def swap_identity_check() -> SwapIdentityCheck:
    """Free XY-ring evolution versus the phased swap of its outer qubits.

    exp(-i H_xy t) at t = pi/(2 sqrt 2) equals
    (Z_a Z_c1 + Z_a Z_p2 + Z_c1 Z_p2 - 1)/2 * SWAP(c1, p2) exactly; at t/2
    it does not, which guards the check against passing trivially.
    """
    h = _xy_h()
    phase = 0.5 * (
        embed_operator(kron(SZ, SZ), (0, 1), 3)
        + embed_operator(kron(SZ, SZ), (0, 2), 3)
        + embed_operator(kron(SZ, SZ), (1, 2), 3)
        - np.eye(8, dtype=complex)
    )
    rhs = phase @ embed_operator(SWAP_2Q, (1, 2), 3)
    dev = float(np.linalg.norm(unitary_evolution(h, _SWAP_EVOLUTION_TIME) - rhs))
    half = float(np.linalg.norm(unitary_evolution(h, _SWAP_EVOLUTION_TIME / 2.0) - rhs))
    return SwapIdentityCheck(deviation=dev, halftime_deviation=half)


def transfer_cphase_circuit(gate: np.ndarray) -> np.ndarray:
    """Swap-evolve, phase gate, swap-evolve on labels (a, c1, p2, c2).

    The XY ring carries qubit c1 and the passive qubit p2 around actuator a;
    the two-qubit phase gate superoperator ``gate`` (ideal or realized RZZ)
    acts locally on (c2, p2) between the two halves of the ring evolution.
    Reduced to (c1, c2) against fixed a and p2 states, the circuit gives
    the transfer channel, which for the ideal gate is independent of them.
    """
    nq = 4
    ring = unitary_channel(unitary_evolution(_xy_h(), _SWAP_EVOLUTION_TIME))
    s_ring = embed_superop(ring, (0, 1, 2), nq)
    return s_ring @ embed_superop(gate, (3, 2), nq) @ s_ring


TRANSFER_PROBE_STATES = (
    ("0", "+"),
    ("1", "1"),
    ("+", "-"),
    ("mixed", "mixed"),
)


def _probe_state(symbol: str) -> np.ndarray:
    if symbol == "mixed":
        return np.eye(2, dtype=complex) / 2.0
    return projector(symbol)


@dataclass
class TransferIndependenceReport:
    max_pair_distance: float
    max_distance_to_rzz: float


def transfer_independence_report(gate: np.ndarray) -> TransferIndependenceReport:
    """Spread of the (c1, c2) transfer channel over probe initial states.

    ``gate`` is the two-qubit phase-gate superoperator: the exact RZZ, or a
    realized rzz channel.
    """
    circuit = transfer_cphase_circuit(gate)
    chans = [
        reduce_superop(circuit, 4, (1, 3), kron(_probe_state(a), _probe_state(p2)))
        for p2, a in TRANSFER_PROBE_STATES
    ]
    pair = 0.0
    for i in range(len(chans)):
        for j in range(i + 1, len(chans)):
            pair = max(pair, float(np.linalg.norm(chans[i] - chans[j])))
    s_rzz = unitary_channel(RZZ_TARGET)
    to_rzz = max(float(np.linalg.norm(ch - s_rzz)) for ch in chans)
    return TransferIndependenceReport(max_pair_distance=pair, max_distance_to_rzz=to_rzz)


@dataclass
class NoiseAdmissibility:
    """Polarization checks on the frozen actuator states."""

    cross_norm: float
    trz_s: float
    pass_c1: bool
    pass_c2: bool


# smallest cross product norm and z polarization counted as nonzero
NOISE_CONDITION_TOL = 1e-9


def noise_conditions(rho_i, rho_h, rho_s) -> NoiseAdmissibility:
    """Evaluate the two polarization conditions on frozen actuator states.

    The first requires the reset-cycle and the reset+Hadamard-cycle fixed
    states to be polarized in non-parallel directions (nonzero cross
    product of Bloch vectors); the second requires the square-actuator
    fixed state to retain z polarization.
    """
    p_i, p_h = ([pauli_coefficients(rho)[k] for k in "XYZ"] for rho in (rho_i, rho_h))
    cross_norm = float(np.linalg.norm(np.cross(p_i, p_h)))
    trz = float(np.trace(SZ @ np.asarray(rho_s, dtype=complex)).real)
    return NoiseAdmissibility(
        cross_norm=cross_norm,
        trz_s=trz,
        pass_c1=cross_norm > NOISE_CONDITION_TOL,
        pass_c2=abs(trz) > NOISE_CONDITION_TOL,
    )


def depolarizing_fixed_states(eps: float):
    """Frozen actuator states (reset, reset+Hadamard, square reset) at the
    depolarizing rate eps."""
    return tuple(recipe(name).rho_u(eps) for name in ("rz", "rx", "rzz"))
