"""Interaction Hamiltonians, driven-gate recipes, and circuit identities.

Each recipe pairs an interaction Hamiltonian with the noisy operations that
re-prepare its actuators each period (a reset, then a Hadamard for rx), a
rotation angle, and the target register unitary.  A duration is the angle
over the polarization each re-prepared actuator keeps: (1 - eps) after a
depolarized reset, and (1 - eps)^2 after the reset and a noisy Hadamard.
The interaction Hamiltonians, the recipes and the transfer probes are module
constants, built once at import.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    depolarizing_kraus,
    entanglement_fidelity,
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
    vec,
)
from .zeno import NoisyCycleSpec, noco_channel, period_count

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# Qubit order, actuators first: heisenberg (a, q), ising3 (a, q1, q2),
# xy (a, c1, p2), rzz_prime (triangle actuator ta, square actuator sa,
# data dq, ancilla aq).
H_HEISENBERG = kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)
H_ISING3 = kron(SZ, SZ, SZ)
H_XY = (kron(SX, SX, I2) + kron(SY, SY, I2)
        + kron(SX, I2, SX) + kron(SY, I2, SY))
# triangle actuator exchanges with the ancilla, square actuator carries the
# three-body Ising term with data and ancilla
H_RZZ_PRIME = (embed_operator(H_HEISENBERG, (0, 3), 4)
               + embed_operator(H_ISING3, (1, 2, 3), 4))

RZ_TARGET = (I2 - 1j * SZ) / np.sqrt(2.0)
RX_TARGET = (I2 - 1j * SX) / np.sqrt(2.0)
PHASE_Z_TARGET = unitary_evolution(SZ, np.pi / 2.0)
RZZ_TARGET = (np.eye(4, dtype=complex) - 1j * kron(SZ, SZ)) / np.sqrt(2.0)
# phase gate on the ancilla conditioned on the data qubit, on (dq, aq)
RZZ_PRIME_TARGET = unitary_evolution(kron(I2, SZ) + kron(SZ, SZ), np.pi / 4.0)


@dataclass(frozen=True)
class GateRecipe:
    """A driven gate: cycle template, actuator preparation, drive angle, and ideal target."""

    name: str
    hamiltonian: np.ndarray
    hadamard: bool             # each actuator's noisy reset is followed by a noisy Hadamard
    angle: float
    target: np.ndarray

    @property
    def n_actuators(self) -> int:  # the qubits the Hamiltonian acts on beyond the target's
        return (len(self.hamiltonian) // len(self.target)).bit_length() - 1

    def rho_u(self, eps: float) -> np.ndarray:  # the state one period re-prepares
        state = (_reset_hadamard if self.hadamard else _reset)(eps)
        return kron(*[state] * self.n_actuators)

    def polarization(self, eps: float) -> float:  # kept by each re-prepared actuator
        # a product, as the pinned rows round it: (1.0 - eps) ** 2 rounds differently
        return (1.0 - eps) * (1.0 - eps) if self.hadamard else 1.0 - eps

    def duration(self, eps: float) -> float:
        if eps >= 1.0:
            raise ValueError(
                f"{self.name} duration diverges at depolarizing rate "
                f"eps={eps}; rates must be below 1"
            )
        return self.angle / self.polarization(eps)

    def cycle(self, eps: float) -> NoisyCycleSpec:
        return NoisyCycleSpec(self.hamiltonian, self.rho_u(eps))


# each state is the Kraus-built operations' column for |0><0|, rounded as
# kraus_to_superop rounds it (the 4 x 4 product for rx, not the Hadamard
# applied to a state): the pinned gate-error rows carry this rounding
def _reset(eps):
    # the I and Z Kraus terms land on |0><0|, the X and Y terms on |1><1|
    i_term, x_term = depolarizing_kraus(eps)[:2]
    s0, s1 = i_term[0, 0].real, x_term[1, 0].real
    return np.diag([s0 * s0 + s1 * s1, s1 * s1 + s1 * s1]).astype(complex)


def _reset_hadamard(eps):
    hadamard = kraus_to_superop([d @ HADAMARD for d in depolarizing_kraus(eps)])
    replacement = np.outer(vec(_reset(eps)), vec(I2))
    return unvec((hadamard @ replacement)[:, 0], 2)


_RZ = GateRecipe("rz", H_HEISENBERG, False, np.pi / 4.0, RZ_TARGET)
_RECIPES = {
    "rz": _RZ,
    "phase_z": replace(_RZ, name="phase_z", angle=np.pi / 2.0, target=PHASE_Z_TARGET),
    "rx": replace(_RZ, name="rx", hadamard=True, target=RX_TARGET),
    "rzz": GateRecipe("rzz", H_ISING3, False, np.pi / 4.0, RZZ_TARGET),
    "rzz_prime": GateRecipe("rzz_prime", H_RZZ_PRIME, False, np.pi / 4.0, RZZ_PRIME_TARGET),
}

GATE_NAMES = tuple(sorted(_RECIPES))


class UnknownGateError(ValueError):
    """Gate name outside the catalog."""


def recipe(name: str) -> GateRecipe:
    if name not in _RECIPES:
        raise UnknownGateError(f"unknown gate {name!r}; known: {', '.join(GATE_NAMES)}")
    return _RECIPES[name]


def realized_channel(name: str, eps: float, freq_over_h: float) -> np.ndarray:
    """Finite-frequency register superoperator of a catalog gate."""
    rec = recipe(name)
    duration = rec.duration(eps)
    period_count(duration, freq_over_h)  # refuse a bad duration before the cycle's rate
    return noco_channel(rec.cycle(eps), duration, freq_over_h)


def gate_infidelity(name: str, eps: float, freq_over_h: float):
    """(1 - entanglement fidelity against the target, period count) of a catalog gate."""
    rec = recipe(name)
    n = period_count(rec.duration(eps), freq_over_h)
    return 1.0 - entanglement_fidelity(realized_channel(name, eps, freq_over_h), rec.target), n


def infidelity_surface(eps_values, freq_values, gate_name: str):
    """Grid of (1 - entanglement fidelity, period count) for a catalog gate.

    Returns (infidelity, n_periods) arrays of shape (len(eps), len(freq)).
    """
    eps_values = list(eps_values)
    freq_values = list(freq_values)
    infid = np.zeros((len(eps_values), len(freq_values)))
    counts = np.zeros((len(eps_values), len(freq_values)), dtype=int)
    for i, eps in enumerate(eps_values):
        for j, f in enumerate(freq_values):
            infid[i, j], counts[i, j] = gate_infidelity(gate_name, eps, f)
    return infid, counts


SWAP_2Q = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_SWAP_EVOLUTION_TIME = np.pi / (2.0 * np.sqrt(2.0))


def swap_identity_check() -> tuple:
    """Free XY-ring evolution versus the phased swap of its outer qubits.

    exp(-i H_xy t) at t = pi/(2 sqrt 2) equals
    (Z_a Z_c1 + Z_a Z_p2 + Z_c1 Z_p2 - 1)/2 * SWAP(c1, p2) exactly; at t/2
    it does not, which guards the check against passing trivially.
    Returns (deviation, halftime_deviation), the Frobenius distances at t
    and t/2.
    """
    phase = 0.5 * (
        embed_operator(kron(SZ, SZ), (0, 1), 3)
        + embed_operator(kron(SZ, SZ), (0, 2), 3)
        + embed_operator(kron(SZ, SZ), (1, 2), 3)
        - np.eye(8, dtype=complex)
    )
    rhs = phase @ embed_operator(SWAP_2Q, (1, 2), 3)
    dev = float(np.linalg.norm(unitary_evolution(H_XY, _SWAP_EVOLUTION_TIME) - rhs))
    half = float(np.linalg.norm(unitary_evolution(H_XY, _SWAP_EVOLUTION_TIME / 2.0) - rhs))
    return dev, half


def transfer_cphase_circuit(gate: np.ndarray) -> np.ndarray:
    """Swap-evolve, phase gate, swap-evolve on labels (a, c1, p2, c2).

    The XY ring carries qubit c1 and the passive qubit p2 around actuator a;
    the two-qubit phase gate superoperator ``gate`` (ideal or realized RZZ)
    acts locally on (c2, p2) between the two halves of the ring evolution.
    Reduced to (c1, c2) against fixed a and p2 states, the circuit gives
    the transfer channel, which for the ideal gate is independent of them.
    """
    nq = 4
    ring = unitary_channel(unitary_evolution(H_XY, _SWAP_EVOLUTION_TIME))
    s_ring = embed_superop(ring, (0, 1, 2), nq)
    return s_ring @ embed_superop(gate, (3, 2), nq) @ s_ring


# (p2, a) initial states the transfer channel is probed with
TRANSFER_PROBE_STATES = (
    (projector("0"), projector("+")),
    (projector("1"), projector("1")),
    (projector("+"), projector("-")),
    (I2 / 2.0, I2 / 2.0),
)


def transfer_independence_report(gate: np.ndarray) -> tuple:
    """Spread of the (c1, c2) transfer channel over probe initial states.

    ``gate`` is the two-qubit phase-gate superoperator: the exact RZZ, or a
    realized rzz channel.  Returns (max_pair_distance, max_distance_to_rzz):
    the largest distance between two probes' channels, and from any probe's
    channel to the exact RZZ.
    """
    circuit = transfer_cphase_circuit(gate)
    chans = [
        reduce_superop(circuit, 4, (1, 3), kron(a, p2)) for p2, a in TRANSFER_PROBE_STATES
    ]
    pair = 0.0
    for i in range(len(chans)):
        for j in range(i + 1, len(chans)):
            pair = max(pair, float(np.linalg.norm(chans[i] - chans[j])))
    s_rzz = unitary_channel(RZZ_TARGET)
    to_rzz = max(float(np.linalg.norm(ch - s_rzz)) for ch in chans)
    return pair, to_rzz


# smallest cross product norm and z polarization counted as nonzero
NOISE_CONDITION_TOL = 1e-9


def noise_conditions(rho_i, rho_h, rho_s) -> tuple:
    """Evaluate the two polarization conditions on frozen actuator states.

    The first requires the reset-cycle and the reset+Hadamard-cycle fixed
    states to be polarized in non-parallel directions (nonzero cross
    product of Bloch vectors); the second requires the square-actuator
    fixed state to retain z polarization.  Returns (cross_norm, trz_s,
    pass_c1, pass_c2): the cross product's norm, Tr(Z rho_s), and whether
    each condition holds.
    """
    p_i, p_h = ([pauli_coefficients(rho)[k] for k in "XYZ"] for rho in (rho_i, rho_h))
    cross_norm = float(np.linalg.norm(np.cross(p_i, p_h)))
    trz = float(np.trace(SZ @ np.asarray(rho_s, dtype=complex)).real)
    return cross_norm, trz, cross_norm > NOISE_CONDITION_TOL, abs(trz) > NOISE_CONDITION_TOL


def depolarizing_fixed_states(eps: float):
    """Frozen actuator states (reset, reset+Hadamard, square reset) at the
    depolarizing rate eps."""
    return tuple(recipe(name).rho_u(eps) for name in ("rz", "rx", "rzz"))
