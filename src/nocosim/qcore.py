"""Dense operator algebra for small labeled multi-qubit systems.

Everything works on explicit numpy arrays; dimensions stay small (at most
a handful of qubits), so there is no sparsity or symmetry exploitation.
Internal units set hbar = J = 1.

Conventions used throughout the package:

* Tensor order follows the label order of a ``SystemLayout``; the leftmost
  label is the most significant factor, i.e. ``kron(A, B)`` puts ``A`` on
  the first label.
* Superoperators use column stacking, ``vec(A @ rho @ B) ==
  kron(B.T, A) @ vec(rho)``, with ``vec(rho) = rho.flatten(order="F")``.
* ``bloch_vector`` returns p_k = Tr(sigma_k rho) / 2, so components lie in
  [-1/2, 1/2].  This is half the textbook Bloch vector; an exchange
  coupling sum_k sigma_k (x) sigma_k against a frozen actuator state rho
  then induces sum_k 2 p_k(rho) sigma_k on the register.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
PAULI_NAMES = "IXYZ"

_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}


def ket(spec: str) -> np.ndarray:
    """Product state vector from a character string, e.g. ket("0+1")."""
    out = np.array([1.0], dtype=complex)
    for ch in spec:
        if ch not in _KETS:
            raise ValueError(f"unknown basis symbol {ch!r}")
        out = np.kron(out, _KETS[ch])
    return out


def projector(spec: str) -> np.ndarray:
    v = ket(spec)
    return np.outer(v, v.conj())


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, leftmost most significant."""
    if not ops:
        raise ValueError("kron needs at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


@dataclass(frozen=True)
class SystemLayout:
    """Ordered qubit labels with a designated actuator subset.

    ``labels`` fixes the tensor order; ``actuators`` marks which labels are
    actuator qubits (frozen by the noisy cycle), the rest are register
    qubits.  Contractions in the simulator assume all actuator labels come
    before all register labels.
    """

    labels: tuple[str, ...]
    actuators: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels}")
        for a in self.actuators:
            if a not in self.labels:
                raise ValueError(f"actuator {a!r} not among labels {self.labels}")
        n_act = len(self.actuators)
        if self.labels[:n_act] != tuple(self.actuators):
            raise ValueError("actuator labels must form a prefix of the layout")

    @property
    def nqubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    @property
    def registers(self) -> tuple[str, ...]:
        return tuple(l for l in self.labels if l not in self.actuators)

    def position(self, label: str) -> int:
        return self.labels.index(label)

    def positions(self, labels) -> tuple[int, ...]:
        return tuple(self.position(l) for l in labels)


def _as_matrix(obj) -> np.ndarray:
    m = getattr(obj, "matrix", obj)
    return np.asarray(m, dtype=complex)


class HermitianOperator:
    """Validated Hermitian matrix on an integer number of qubits."""

    def __init__(self, matrix, atol: float = 1e-12):
        m = _as_matrix(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"not a square matrix: shape {m.shape}")
        n = int(round(np.log2(m.shape[0])))
        if 2 ** n != m.shape[0]:
            raise ValueError(f"dimension {m.shape[0]} is not a power of two")
        if np.max(np.abs(m - m.conj().T)) > atol:
            raise ValueError("matrix is not Hermitian")
        self.matrix = m
        self.nqubits = n

    def __array__(self, dtype=None):
        return self.matrix if dtype is None else self.matrix.astype(dtype)


class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    def __init__(self, matrix, atol: float = 1e-9):
        m = _as_matrix(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"not a square matrix: shape {m.shape}")
        n = int(round(np.log2(m.shape[0])))
        if 2 ** n != m.shape[0]:
            raise ValueError(f"dimension {m.shape[0]} is not a power of two")
        if np.max(np.abs(m - m.conj().T)) > atol:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > atol:
            raise ValueError(f"trace is {np.trace(m)}, expected 1")
        if np.linalg.eigvalsh(m).min() < -atol:
            raise ValueError("density matrix has a negative eigenvalue")
        self.matrix = m
        self.nqubits = n

    def __array__(self, dtype=None):
        return self.matrix if dtype is None else self.matrix.astype(dtype)


def partial_trace(mat, nqubits: int, keep) -> np.ndarray:
    """Trace out all qubits except those in ``keep`` (positions, in order).

    ``keep`` need not be sorted; the output tensor order follows ``keep``.
    """
    m = _as_matrix(mat)
    keep = list(keep)
    d = 2 ** nqubits
    if m.shape != (d, d):
        raise ValueError(f"expected shape {(d, d)}, got {m.shape}")
    traced = [q for q in range(nqubits) if q not in keep]
    t = m.reshape([2] * (2 * nqubits))
    # contract row/column indices of each traced qubit pairwise
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    # remaining axes are the kept qubits in original order; reorder to `keep`
    order = sorted(keep)
    perm = [order.index(q) for q in keep]
    k = len(keep)
    t = t.transpose(perm + [p + k for p in perm])
    return t.reshape(2 ** k, 2 ** k)


def unitary_evolution(hamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) through the Hermitian eigendecomposition."""
    h = _as_matrix(hamiltonian)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def bloch_vector(rho) -> np.ndarray:
    """Half-normalized Bloch components p_k = Tr(sigma_k rho) / 2.

    Note the factor 1/2: a pure state has |p| = 1/2, not 1.  This is the
    normalization under which the actuator fixed states come out with
    rational components, e.g. the reset cycle gives p = (0, 0, (1-eps)/2).
    """
    m = _as_matrix(rho)
    if m.shape != (2, 2):
        raise ValueError("bloch_vector is defined for single-qubit operators")
    return np.array([np.trace(s @ m).real / 2.0 for s in (SX, SY, SZ)])


def embed_operator(op, positions, nqubits: int) -> np.ndarray:
    """Embed a k-qubit operator at the given qubit positions of an n-qubit space.

    The operator's own tensor order is mapped onto ``positions`` in order;
    identity acts everywhere else.
    """
    o = _as_matrix(op)
    k = len(positions)
    if o.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {o.shape} does not match {k} positions")
    if len(set(positions)) != k or not all(0 <= p < nqubits for p in positions):
        raise ValueError(f"bad positions {positions} for {nqubits} qubits")
    rest = [q for q in range(nqubits) if q not in positions]
    full = np.kron(o, np.eye(2 ** len(rest), dtype=complex))
    # current axis order is list(positions) + rest; permute into 0..n-1
    current = list(positions) + rest
    perm = [current.index(q) for q in range(nqubits)]
    t = full.reshape([2] * (2 * nqubits))
    t = t.transpose(perm + [p + nqubits for p in perm])
    return t.reshape(2 ** nqubits, 2 ** nqubits)


def vec(mat) -> np.ndarray:
    """Column-stacking vectorization."""
    return _as_matrix(mat).flatten(order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape((dim, dim), order="F")


def matrix_power_int(m: np.ndarray, n: int) -> np.ndarray:
    """m**n for integer n >= 0 by squaring."""
    if n < 0 or n != int(n):
        raise ValueError(f"exponent must be a non-negative integer, got {n}")
    result = np.eye(m.shape[0], dtype=complex)
    base = np.asarray(m, dtype=complex)
    n = int(n)
    while n:
        if n & 1:
            result = result @ base
        n >>= 1
        if n:
            base = base @ base
    return result


def phase_aligned_distance(a, b) -> float:
    """Frobenius distance between matrices minimized over a global phase."""
    am = _as_matrix(a)
    bm = _as_matrix(b)
    na2 = np.linalg.norm(am) ** 2
    nb2 = np.linalg.norm(bm) ** 2
    overlap = abs(np.trace(am.conj().T @ bm))
    return float(np.sqrt(max(na2 + nb2 - 2.0 * overlap, 0.0)))


def pauli_string_operator(string: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by ``string``, e.g. "IXZ"."""
    mats = []
    for ch in string:
        if ch not in PAULIS:
            raise ValueError(f"unknown Pauli symbol {ch!r}")
        mats.append(PAULIS[ch])
    return kron(*mats)


def pauli_strings(nqubits: int):
    """All n-qubit Pauli strings in lexicographic order over "IXYZ"."""
    return ("".join(chars) for chars in product(PAULI_NAMES, repeat=nqubits))


def pauli_coefficients(op, nqubits: int | None = None) -> dict[str, float]:
    """Expansion coefficients of a Hermitian operator in the Pauli basis.

    Returns {string: c} with op = sum_s c_s * P_s and c_s real,
    c_s = Tr(P_s op) / 2**n.
    """
    m = _as_matrix(op)
    if nqubits is None:
        nqubits = int(round(np.log2(m.shape[0])))
    d = 2 ** nqubits
    return {
        s: float(np.trace(pauli_string_operator(s) @ m).real / d)
        for s in pauli_strings(nqubits)
    }
