"""Interaction Hamiltonians, driven-gate recipes, and circuit identities.

Each recipe pairs an interaction Hamiltonian with the per-period actuator
operations that freeze the actuator, the drive duration that realizes a
target register unitary, and that target.  Durations compensate the noise
rate: a depolarized reset leaves actuator polarization (1 - eps), so gate
times scale like 1/(1 - eps).
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    depolarizing_kraus,
    initialization_kraus,
    superop_to_kraus,
    unitary_channel,
)
from .qcore import (
    I2,
    SX,
    SY,
    SZ,
    SystemLayout,
    bloch_vector,
    embed_operator,
    kron,
    partial_trace,
    projector,
    unitary_evolution,
    unvec,
    vec,
)
from .zeno import NocoResult, NoisyCycleSpec, noco_channel

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

LAYOUTS = {
    "heisenberg": SystemLayout(("a", "q"), actuators=("a",)),
    "ising3": SystemLayout(("a", "q1", "q2"), actuators=("a",)),
    "xy": SystemLayout(("a", "c1", "p2"), actuators=("a",)),
    "rzz_prime": SystemLayout(("ta", "sa", "dq", "aq"), actuators=("ta", "sa")),
    "transfer": SystemLayout(("a", "c1", "p2", "c2"), actuators=("a",)),
}


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


_CATALOG_H = {
    "heisenberg": _heisenberg_h,
    "ising3": _ising3_h,
    "xy": _xy_h,
}


def hamiltonian_catalog(kind: str) -> np.ndarray:
    """Interaction Hamiltonian by name; see LAYOUTS for the label order."""
    if kind not in _CATALOG_H:
        raise ValueError(f"unknown interaction {kind!r}")
    return _CATALOG_H[kind]()


def noisy_initialization_kraus(eps: float):
    """Reset to |0> followed by a depolarizing error at rate eps."""
    return tuple(
        d @ k for k in initialization_kraus() for d in depolarizing_kraus(eps)
    )


def noisy_hadamard_kraus(eps: float):
    return tuple(d @ HADAMARD for d in depolarizing_kraus(eps))


RZ_TARGET = (I2 - 1j * SZ) / np.sqrt(2.0)
RX_TARGET = (I2 - 1j * SX) / np.sqrt(2.0)
PHASE_Z_TARGET = unitary_evolution(SZ, np.pi / 2.0)
RZZ_TARGET = (np.eye(4, dtype=complex) - 1j * kron(SZ, SZ)) / np.sqrt(2.0)
# phase gate on the ancilla conditioned on the data qubit, on labels (dq, aq)
RZZ_PRIME_TARGET = unitary_evolution(kron(I2, SZ) + kron(SZ, SZ), np.pi / 4.0)


@dataclass(frozen=True)
class GateRecipe:
    """A driven gate: cycle template, duration rule, and ideal target."""

    name: str
    layout: SystemLayout
    hamiltonian: np.ndarray
    ops_builder: object        # (eps_i, eps_h) -> period_ops tuple
    duration_rule: object      # (eps_i, eps_h) -> float, or None for decoupling
    target: np.ndarray

    def duration(self, eps: float, eps_h: float | None = None) -> float:
        if self.duration_rule is None:
            raise ValueError(f"{self.name} takes a caller-supplied duration")
        eps_h = eps if eps_h is None else eps_h
        for label, rate in (("eps", eps), ("eps_h", eps_h)):
            if rate >= 1.0:
                raise ValueError(
                    f"{self.name} duration diverges at depolarizing rate "
                    f"{label}={rate}; rates must be below 1"
                )
        return self.duration_rule(eps, eps_h)

    def cycle(self, eps: float, eps_h: float | None = None) -> NoisyCycleSpec:
        ops = self.ops_builder(eps, eps if eps_h is None else eps_h)
        return NoisyCycleSpec(self.layout, self.hamiltonian, ops)


def _recipes() -> dict:
    heis = LAYOUTS["heisenberg"]
    ising = LAYOUTS["ising3"]
    xy = LAYOUTS["xy"]
    rzzp = LAYOUTS["rzz_prime"]
    tw = tuple(depolarizing_kraus(1.0))

    def init_ops(eps, _eps_h):
        return (("a", noisy_initialization_kraus(eps)),)

    def init_hadamard_ops(eps, eps_h):
        return (("a", noisy_initialization_kraus(eps)),
                ("a", noisy_hadamard_kraus(eps_h)))

    def rzzp_ops(eps, _eps_h):
        ni = noisy_initialization_kraus(eps)
        return (("ta", ni), ("sa", ni))

    return {
        "rz": GateRecipe(
            "rz", heis, _heisenberg_h(), init_ops,
            lambda e, _h: np.pi / (4.0 * (1.0 - e)), RZ_TARGET),
        "phase_z": GateRecipe(
            "phase_z", heis, _heisenberg_h(), init_ops,
            lambda e, _h: np.pi / (2.0 * (1.0 - e)), PHASE_Z_TARGET),
        "rx": GateRecipe(
            "rx", heis, _heisenberg_h(), init_hadamard_ops,
            lambda e, h: np.pi / (4.0 * (1.0 - e) * (1.0 - h)), RX_TARGET),
        "rzz": GateRecipe(
            "rzz", ising, _ising3_h(), init_ops,
            lambda e, _h: np.pi / (4.0 * (1.0 - e)), RZZ_TARGET),
        "rzz_prime": GateRecipe(
            "rzz_prime", rzzp, _rzz_prime_h(), rzzp_ops,
            lambda e, _h: np.pi / (4.0 * (1.0 - e)), RZZ_PRIME_TARGET),
        "decouple_heisenberg": GateRecipe(
            "decouple_heisenberg", heis, _heisenberg_h(),
            lambda e, h: (("a", tw),), None, np.eye(2, dtype=complex)),
        "decouple_ising": GateRecipe(
            "decouple_ising", ising, _ising3_h(),
            lambda e, h: (("a", tw),), None, np.eye(4, dtype=complex)),
        "decouple_xy": GateRecipe(
            "decouple_xy", xy, _xy_h(),
            lambda e, h: (("a", tw),), None, np.eye(4, dtype=complex)),
    }


_RECIPES = _recipes()

GATE_NAMES = tuple(sorted(_RECIPES))


def recipe(name: str) -> GateRecipe:
    if name not in _RECIPES:
        raise ValueError(f"unknown gate {name!r}; known: {', '.join(GATE_NAMES)}")
    return _RECIPES[name]


def realized_channel(
    name: str,
    eps: float,
    freq_over_h: float,
    duration: float | None = None,
    eps_h: float | None = None,
) -> NocoResult:
    """Finite-frequency register channel of a catalog gate."""
    rec = recipe(name)
    if duration is None:
        duration = rec.duration(eps, eps_h)
    return noco_channel(rec.cycle(eps, eps_h), duration, freq_over_h)


def gate_error_channel(
    name: str,
    eps: float,
    freq_over_h: float,
    duration: float | None = None,
    eps_h: float | None = None,
) -> Channel:
    """Error channel E with realized = E o ideal."""
    rec = recipe(name)
    run = realized_channel(name, eps, freq_over_h, duration, eps_h)
    s_target = unitary_channel(rec.target).smatrix
    return Channel(run.channel.smatrix @ s_target.conj().T, run.channel.nqubits)


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


def _state_matrix(state) -> np.ndarray:
    m = np.asarray(getattr(state, "matrix", state), dtype=complex)
    if m.ndim == 1:
        m = np.outer(m, m.conj())
    if m.shape != (2, 2):
        raise ValueError("expected a single-qubit state")
    return m


def transfer_cphase_circuit(
    initial_p2,
    initial_a,
    mode: str = "ideal",
    eps: float = 0.0,
    freq_over_h: float | None = None,
) -> Channel:
    """Channel induced on (c1, c2) by swap-evolve, phase gate, swap-evolve.

    The XY ring carries qubit c1 and the passive qubit p2 around actuator a;
    a two-qubit phase gate acts locally on (c2, p2) between the two halves
    of the ring evolution.  In "ideal" mode everything is an exact unitary;
    in "finite_frequency" mode the phase gate is replaced by its realized
    channel at (eps, freq_over_h).  Returns the reduced channel on (c1, c2),
    which in the ideal case is independent of the p2 and a initial states.
    """
    rho_p2 = _state_matrix(initial_p2)
    rho_a = _state_matrix(initial_a)
    nq = 4  # label order (a, c1, p2, c2)
    d = 2 ** nq

    u_ring = embed_operator(
        unitary_evolution(_xy_h(), _SWAP_EVOLUTION_TIME), (0, 1, 2), nq
    )
    s_ring = np.kron(u_ring.conj(), u_ring)

    if mode == "ideal":
        g = embed_operator(RZZ_TARGET, (3, 2), nq)
        s_mid = np.kron(g.conj(), g)
    elif mode == "finite_frequency":
        if freq_over_h is None:
            raise ValueError("finite_frequency mode needs freq_over_h")
        run = realized_channel("rzz", eps, freq_over_h)
        s_mid = np.zeros((d * d, d * d), dtype=complex)
        for k in superop_to_kraus(run.channel.smatrix):
            ke = embed_operator(k, (3, 2), nq)
            s_mid += np.kron(ke.conj(), ke)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    s_tot = s_ring @ s_mid @ s_ring

    # reduce to (c1, c2): lift matrix units against the fixed a and p2 states
    s_out = np.zeros((16, 16), dtype=complex)
    basis = np.eye(16, dtype=complex)
    for col in range(16):
        eij = unvec(basis[:, col], 4)
        full = (
            embed_operator(rho_a, (0,), nq)
            @ embed_operator(eij, (1, 3), nq)
            @ embed_operator(rho_p2, (2,), nq)
        )
        out = unvec(s_tot @ vec(full), d)
        s_out[:, col] = vec(partial_trace(out, nq, (1, 3)))
    return Channel(s_out, 2)


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
    mode: str
    max_pair_distance: float
    max_distance_to_rzz: float


def transfer_independence_report(
    mode: str = "ideal", eps: float = 0.0, freq_over_h: float | None = None
) -> TransferIndependenceReport:
    """Spread of the (c1, c2) transfer channel over probe initial states."""
    chans = [
        transfer_cphase_circuit(
            _probe_state(p2), _probe_state(a), mode, eps, freq_over_h
        )
        for p2, a in TRANSFER_PROBE_STATES
    ]
    pair = 0.0
    for i in range(len(chans)):
        for j in range(i + 1, len(chans)):
            pair = max(pair, float(np.linalg.norm(
                chans[i].smatrix - chans[j].smatrix)))
    s_rzz = unitary_channel(RZZ_TARGET).smatrix
    to_rzz = max(
        float(np.linalg.norm(ch.smatrix - s_rzz)) for ch in chans
    )
    return TransferIndependenceReport(
        mode=mode, max_pair_distance=pair, max_distance_to_rzz=to_rzz
    )


@dataclass
class NoiseAdmissibility:
    """Polarization checks on the frozen actuator states."""

    bloch_i: np.ndarray
    bloch_h: np.ndarray
    cross: np.ndarray
    cross_norm: float
    trz_s: float
    pass_c1: bool
    pass_c2: bool


def noise_conditions(rho_i, rho_h, rho_s, tol: float = 1e-9) -> NoiseAdmissibility:
    """Evaluate the two polarization conditions on frozen actuator states.

    The first requires the reset-cycle and the reset+Hadamard-cycle fixed
    states to be polarized in non-parallel directions (nonzero cross
    product of Bloch vectors); the second requires the square-actuator
    fixed state to retain z polarization.
    """
    bi = bloch_vector(rho_i)
    bh = bloch_vector(rho_h)
    cross = np.cross(bi, bh)
    cross_norm = float(np.linalg.norm(cross))
    rs = np.asarray(getattr(rho_s, "matrix", rho_s), dtype=complex)
    trz = float(np.trace(SZ @ rs).real)
    return NoiseAdmissibility(
        bloch_i=bi,
        bloch_h=bh,
        cross=cross,
        cross_norm=cross_norm,
        trz_s=trz,
        pass_c1=cross_norm > tol,
        pass_c2=abs(trz) > tol,
    )


def depolarizing_fixed_states(eps_i: float, eps_h: float | None = None,
                              eps_s: float | None = None):
    """Frozen actuator states (reset, reset+Hadamard, square reset) at the
    given depolarizing rates."""
    from .zeno import fixed_state

    eps_h = eps_i if eps_h is None else eps_h
    eps_s = eps_i if eps_s is None else eps_s
    rho_i = fixed_state(recipe("rz").cycle(eps_i)).rho
    rho_h = fixed_state(recipe("rx").cycle(eps_i, eps_h)).rho
    rho_s = fixed_state(recipe("rzz").cycle(eps_s)).rho
    return rho_i, rho_h, rho_s
