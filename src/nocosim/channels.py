"""Quantum channels as dense superoperator arrays.

A channel on n qubits is a plain d^2 x d^2 numpy array with d = 2^n; the
shape is the only record of n.  Superoperators act on column-stacked
density matrices (see qcore.vec), so a conjugation rho -> A rho B has
matrix kron(B.T, A) and a Kraus set {K_m} has matrix
sum_m kron(conj(K_m), K_m).  The depolarizing Kraus set and that sum stay
here for the actuator resets in ``gates``, whose pinned rows carry their
term-by-term rounding.
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


def entanglement_fidelity(s: np.ndarray, target_unitary) -> float:
    """Overlap of the channel with a target unitary.

    Equal to (1/d^2) sum_m |Tr(U^dag K_m)|^2 in any Kraus decomposition.
    """
    u = np.asarray(target_unitary, dtype=complex)
    d = u.shape[0]
    if 2 ** channel_nqubits(s) != d:
        raise ValueError("channel and target act on different dimensions")
    return float(np.real(np.vdot(unitary_channel(u), s)) / d ** 2)
