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

import numpy as np

from .qcore import I2, SX, SY, SZ, kron, unvec, vec


def channel_nqubits(s) -> int:
    """Qubit count n of a 4^n x 4^n superoperator; refuse any other shape."""
    shape = np.shape(s)
    n = int(round(np.log2(shape[0]) / 2.0)) if len(shape) == 2 and shape[0] else 0
    if shape != (4 ** n, 4 ** n):
        raise ValueError(f"superoperator shape {shape} is not d^2 x d^2 with d = 2^n")
    return n


# largest trace defect and negative Choi eigenvalue check_cptp lets pass
CPTP_ATOL = 1e-9


def check_cptp(s) -> None:
    """Check trace preservation and complete positivity; raise if violated."""
    d = 2 ** channel_nqubits(s)
    ident = vec(np.eye(d, dtype=complex))
    defect = np.linalg.norm(s.conj().T @ ident - ident)
    if defect > CPTP_ATOL:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    w = np.linalg.eigvalsh(superop_to_choi(s))
    if w.min() < -CPTP_ATOL:
        raise ValueError(f"Choi matrix has negative eigenvalue {w.min():.3e}")


def kraus_to_superop(kraus_ops) -> np.ndarray:
    """sum_m kron(conj(K_m), K_m) of a sequence of d x d Kraus operators.

    One broadcast product forms every term from the stacked set at once.  The
    sum over m runs along the leading axis, one term after another, so the
    result equals the term-by-term sum bit for bit.
    """
    ks = np.asarray(kraus_ops, dtype=complex)
    m, d = ks.shape[:2]
    terms = ks.conj()[:, :, None, :, None] * ks[:, None, :, None, :]
    return terms.reshape(m, d * d, d * d).sum(axis=0)


def unitary_channel(u) -> np.ndarray:
    um = np.asarray(u, dtype=complex)
    return kron(um.conj(), um)


def depolarizing(eps: float) -> np.ndarray:
    """Single-qubit depolarizing map with Kraus weights (1 - 3e/4, e/4, e/4, e/4)."""
    return kraus_to_superop(depolarizing_kraus(eps))


def depolarizing_kraus(eps: float) -> list[np.ndarray]:
    if not 0.0 <= eps <= 4.0 / 3.0:
        raise ValueError(f"depolarizing rate {eps} outside [0, 4/3]")
    return [
        np.sqrt(1.0 - 3.0 * eps / 4.0) * I2,
        np.sqrt(eps / 4.0) * SX,
        np.sqrt(eps / 4.0) * SY,
        np.sqrt(eps / 4.0) * SZ,
    ]


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
    return float(np.real(np.vdot(unitary_channel(u), s)) / d ** 2)
