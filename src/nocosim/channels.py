"""Quantum channels as dense superoperator arrays built from Kraus operators.

A channel on n qubits is a plain d^2 x d^2 numpy array with d = 2^n; the
shape is the only record of n.  Superoperators act on column-stacked
density matrices (see qcore.vec), so a conjugation rho -> A rho B has
matrix kron(B.T, A) and a Kraus set {K_m} has matrix
sum_m kron(conj(K_m), K_m).  ``check_cptp`` tests such an array for trace
preservation and complete positivity.

The Choi matrix, used by the CPTP check, follows the convention
C = sum_ij |i><j| (x) E(|i><j|), which has trace d for a trace-preserving
channel on a d-dimensional system.
"""

from dataclasses import dataclass

import numpy as np

from .qcore import I2, SX, SY, SZ, pauli_string_operator, pauli_strings, unvec, vec


def channel_nqubits(s) -> int:
    """Qubit count n of a 4^n x 4^n superoperator; refuse any other shape."""
    shape = np.shape(s)
    n = int(round(np.log2(shape[0]) / 2.0)) if len(shape) == 2 and shape[0] else 0
    if shape != (4 ** n, 4 ** n):
        raise ValueError(f"superoperator shape {shape} is not d^2 x d^2 with d = 2^n")
    return n


def check_cptp(s, atol: float = 1e-9) -> None:
    """Check trace preservation and complete positivity; raise if violated."""
    d = 2 ** channel_nqubits(s)
    ident = vec(np.eye(d, dtype=complex))
    defect = np.linalg.norm(s.conj().T @ ident - ident)
    if defect > atol:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    w = np.linalg.eigvalsh(superop_to_choi(s))
    if w.min() < -atol:
        raise ValueError(f"Choi matrix has negative eigenvalue {w.min():.3e}")


def kraus_to_superop(kraus_ops) -> np.ndarray:
    ks = [np.asarray(k, dtype=complex) for k in kraus_ops]
    d = ks[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ks:
        s += np.kron(k.conj(), k)
    return s


def unitary_channel(u) -> np.ndarray:
    um = np.asarray(u, dtype=complex)
    return np.kron(um.conj(), um)


def depolarizing(eps: float) -> np.ndarray:
    """Single-qubit depolarizing map with Kraus weights (1 - 3e/4, e/4, e/4, e/4)."""
    if not 0.0 <= eps <= 4.0 / 3.0:
        raise ValueError(f"depolarizing rate {eps} outside [0, 4/3]")
    return kraus_to_superop(depolarizing_kraus(eps))


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


def apply_channel(s: np.ndarray, rho) -> np.ndarray:
    d = 2 ** channel_nqubits(s)
    return unvec(s @ vec(rho), d)


def superop_to_choi(s: np.ndarray) -> np.ndarray:
    """Reshuffle a superoperator into its Choi matrix (involution)."""
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d2, d2)


def entanglement_fidelity(s: np.ndarray, target_unitary) -> float:
    """Overlap of the channel with a target unitary.

    Equal to (1/d^2) sum_m |Tr(U^dag K_m)|^2 in any Kraus decomposition.
    """
    u = np.asarray(target_unitary, dtype=complex)
    d = u.shape[0]
    if 2 ** channel_nqubits(s) != d:
        raise ValueError("channel and target act on different dimensions")
    su = np.kron(u.conj(), u)
    return float(np.real(np.vdot(su, s)) / d ** 2)


@dataclass
class PauliErrorDistribution:
    """Pauli-twirled channel probabilities keyed by strings over I, X, Y, Z."""

    probs: dict[str, float]

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


def pauli_twirl(s: np.ndarray) -> PauliErrorDistribution:
    """Project a channel onto the Pauli channel with the same Pauli fidelities.

    p_P = Tr(S_P^dag S) / d^2 where S_P is the superoperator of conjugation
    by the Pauli string P.  For a CPTP channel the probabilities are real
    and sum to one.
    """
    n = channel_nqubits(s)
    probs = {}
    for string in pauli_strings(n):
        p = pauli_string_operator(string)
        sp = np.kron(p.conj(), p)
        probs[string] = float(np.real(np.vdot(sp, s)) / 4 ** n)
    return PauliErrorDistribution(probs)
