"""Quantum channels as dense superoperators built from Kraus operators.

All superoperators act on column-stacked density matrices (see qcore.vec),
so a conjugation rho -> A rho B has matrix kron(B.T, A) and a Kraus set
{K_m} has matrix sum_m kron(conj(K_m), K_m).

The Choi matrix, used by the CPTP check, follows the convention
C = sum_ij |i><j| (x) E(|i><j|), which has trace d for a trace-preserving
channel on a d-dimensional system.
"""

from dataclasses import dataclass

import numpy as np

from .qcore import I2, SX, SY, SZ, pauli_string_operator, pauli_strings, unvec, vec


@dataclass
class Channel:
    """A completely positive map stored as a superoperator matrix."""

    smatrix: np.ndarray
    nqubits: int

    def __post_init__(self):
        d = 2 ** self.nqubits
        if self.smatrix.shape != (d * d, d * d):
            raise ValueError(
                f"superoperator shape {self.smatrix.shape} does not match "
                f"{self.nqubits} qubits"
            )

    @property
    def dim(self) -> int:
        return 2 ** self.nqubits

    def validate(self, atol: float = 1e-9) -> None:
        """Check trace preservation and complete positivity; raise if violated."""
        d = self.dim
        ident = vec(np.eye(d, dtype=complex))
        defect = np.linalg.norm(self.smatrix.conj().T @ ident - ident)
        if defect > atol:
            raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
        w = np.linalg.eigvalsh(superop_to_choi(self.smatrix))
        if w.min() < -atol:
            raise ValueError(f"Choi matrix has negative eigenvalue {w.min():.3e}")


def kraus_to_superop(kraus_ops) -> np.ndarray:
    ks = [np.asarray(k, dtype=complex) for k in kraus_ops]
    d = ks[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ks:
        s += np.kron(k.conj(), k)
    return s


def channel_from_kraus(kraus_ops) -> Channel:
    ks = list(kraus_ops)
    d = np.asarray(ks[0]).shape[0]
    return Channel(kraus_to_superop(ks), int(round(np.log2(d))))


def unitary_channel(u) -> Channel:
    um = np.asarray(u, dtype=complex)
    n = int(round(np.log2(um.shape[0])))
    return Channel(np.kron(um.conj(), um), n)


def depolarizing(eps: float) -> Channel:
    """Single-qubit depolarizing map with Kraus weights (1 - 3e/4, e/4, e/4, e/4)."""
    if not 0.0 <= eps <= 4.0 / 3.0:
        raise ValueError(f"depolarizing rate {eps} outside [0, 4/3]")
    return channel_from_kraus(depolarizing_kraus(eps))


def depolarizing_kraus(eps: float) -> list[np.ndarray]:
    return [
        np.sqrt(1.0 - 3.0 * eps / 4.0) * I2,
        np.sqrt(eps / 4.0) * SX,
        np.sqrt(eps / 4.0) * SY,
        np.sqrt(eps / 4.0) * SZ,
    ]


def initialization_kraus() -> list[np.ndarray]:
    # rho -> sum_j |0><j| rho |j><0| = Tr(rho) |0><0|
    k0 = np.zeros((2, 2), dtype=complex)
    k0[0, 0] = 1.0
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = 1.0
    return [k0, k1]


def apply_channel(ch: Channel, rho) -> np.ndarray:
    return unvec(ch.smatrix @ vec(rho), ch.dim)


def superop_to_choi(s: np.ndarray) -> np.ndarray:
    """Reshuffle a superoperator into its Choi matrix (involution)."""
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d2, d2)


def entanglement_fidelity(ch: Channel, target_unitary) -> float:
    """Overlap of the channel with a target unitary.

    Equal to (1/d^2) sum_m |Tr(U^dag K_m)|^2 in any Kraus decomposition.
    """
    u = np.asarray(target_unitary, dtype=complex)
    d = u.shape[0]
    if ch.dim != d:
        raise ValueError("channel and target act on different dimensions")
    su = np.kron(u.conj(), u)
    return float(np.real(np.vdot(su, ch.smatrix)) / d ** 2)


@dataclass
class PauliErrorDistribution:
    """Pauli-twirled channel probabilities keyed by strings over I, X, Y, Z."""

    probs: dict[str, float]
    nqubits: int

    def marginal(self, qubit: int, axis: str) -> float:
        """Probability of a Pauli component that flips eigenstates of ``axis``.

        axis "x" counts strings with Y or Z on ``qubit``; "z" counts X or Y;
        "y" counts X or Z.
        """
        flips = {"x": ("Y", "Z"), "y": ("X", "Z"), "z": ("X", "Y")}
        if axis not in flips:
            raise ValueError(f"unknown axis {axis!r}")
        bad = flips[axis]
        return sum(p for s, p in self.probs.items() if s[qubit] in bad)


def pauli_twirl(ch: Channel) -> PauliErrorDistribution:
    """Project a channel onto the Pauli channel with the same Pauli fidelities.

    p_P = Tr(S_P^dag S) / d^2 where S_P is the superoperator of conjugation
    by the Pauli string P.  For a CPTP channel the probabilities are real
    and sum to one.
    """
    d = ch.dim
    probs = {}
    for s in pauli_strings(ch.nqubits):
        p = pauli_string_operator(s)
        sp = np.kron(p.conj(), p)
        probs[s] = float(np.real(np.vdot(sp, ch.smatrix)) / d ** 2)
    return PauliErrorDistribution(probs, ch.nqubits)
