"""Dense operator algebra for small multi-qubit systems.

Everything works on explicit numpy arrays; dimensions stay small (at most
a handful of qubits).  Internal units set hbar = J = 1.

Conventions used throughout the package:

* Qubit 0 is the most significant tensor factor, i.e. ``kron(A, B)`` puts
  ``A`` on qubit 0; in a driven cycle the actuator qubits come first.
* Superoperators use column stacking, ``vec(A @ rho @ B) ==
  kron(B.T, A) @ vec(rho)``, with ``vec(rho) = rho.flatten(order="F")``.
  The index of ``vec(rho)`` then runs over the column qubits first and the
  row qubits second, so a superoperator on n qubits is an operator on 2n
  qubits: position q < n is the column index of qubit q, position n + q
  its row index.  ``embed_superop`` and ``reduce_superop`` work in that
  doubled space.
* Bloch components are the X/Y/Z entries of ``pauli_coefficients``,
  p_k = Tr(sigma_k rho) / 2 in [-1/2, 1/2]: half the textbook Bloch
  vector.  An exchange coupling sum_k sigma_k (x) sigma_k against a frozen
  actuator state rho then induces sum_k 2 p_k(rho) sigma_k on the register.
"""

from functools import lru_cache
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
        out = kron(out, _KETS[ch])
    return out


def projector(spec: str) -> np.ndarray:
    v = ket(spec)
    return np.outer(v, v.conj())


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, leftmost most significant.

    Operators of equal rank (vectors too).  Each factor is one broadcast
    product, out[i, k, j, l] = a[i, j] * b[k, l]: the same single
    multiplication per entry that ``np.kron`` makes, so the result equals
    it bit for bit, without its shape bookkeeping.
    """
    if not ops:
        raise ValueError("kron needs at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        b = np.asarray(op, dtype=complex)
        if b.ndim != out.ndim:
            raise ValueError(f"kron of rank {out.ndim} and rank {b.ndim} operands")
        prod = out[(slice(None), None) * out.ndim] * b[(None, slice(None)) * b.ndim]
        out = prod.reshape([m * n for m, n in zip(out.shape, b.shape)])
    return out


def _kept_qubits(keep, nqubits: int) -> list:
    """``keep`` as a sorted list of distinct qubits, each a whole number in [0, nqubits)."""
    keep = sorted(set(keep))
    outside = [q for q in keep if q not in range(nqubits)]
    if outside:
        raise ValueError(f"qubit indices {outside} outside [0, {nqubits})")
    return [int(q) for q in keep]


def partial_trace(mat, nqubits: int, keep) -> np.ndarray:
    """Trace out all qubits except those in ``keep``.

    The kept qubits come out in sorted order, as in ``reduce_superop``.
    """
    m = np.asarray(mat, dtype=complex)
    d = 2 ** nqubits
    if m.shape != (d, d):
        raise ValueError(f"expected shape {(d, d)}, got {m.shape}")
    keep = _kept_qubits(keep, nqubits)
    t = m.reshape([2] * (2 * nqubits))
    # contract row/column indices of each traced qubit pairwise
    for q in reversed([q for q in range(nqubits) if q not in keep]):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    k = t.ndim // 2
    return t.reshape(2 ** k, 2 ** k)


def reduce_superop(s, nqubits: int, keep, env) -> np.ndarray:
    """Superoperator of sigma -> Tr_T[S(env (x) sigma)] on the ``keep`` qubits.

    ``s`` acts on ``nqubits`` qubits; T are the qubits outside ``keep``,
    and ``env`` is their input state in position order, interleaved with
    sigma by position.  The kept qubits come out in sorted order.

    ``s`` is read through views only, never copied: the output trace adds
    its 2^|T| diagonal views in turn into one small array, which for a
    non-empty ``keep`` is ``np.trace``'s sum on a C-ordered copy, bit for bit.
    """
    keep = _kept_qubits(keep, nqubits)
    traced = [q for q in range(nqubits) if q not in keep]
    dk, dt = 2 ** len(keep), 2 ** len(traced)

    def axes(block, qubits):
        # blocks: output columns, output rows, input columns, input rows
        return [block * nqubits + q for q in qubits]

    t = np.asarray(s, dtype=complex).reshape([2] * (4 * nqubits)).transpose(
        axes(0, traced) + axes(1, traced) + axes(0, keep) + axes(1, keep)
        + axes(2, traced) + axes(3, traced) + axes(2, keep) + axes(3, keep)
    )
    # trace the output first, then feed env into the traced input columns
    # (j) and rows (i): vec(env (x) sigma) carries env[i, j]
    acc = np.zeros(t.shape[2 * len(traced):], dtype=complex)
    for bits in product((0, 1), repeat=len(traced)):
        acc += t[bits + bits]
    env = np.asarray(env, dtype=complex)
    return np.einsum("ajib,ij->ab", acc.reshape(dk * dk, dt, dt, dk * dk), env)


def unitary_evolution(hamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) through the Hermitian eigendecomposition."""
    w, v = hermitian_eigh(hamiltonian)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def hermitian_eigh(hamiltonian) -> tuple:
    """Read-only (w, v) of ``eigh``, kept for the last 32 distinct Hamiltonians.
    One with a non-finite entry, or off its adjoint (``eigh`` reads one triangle),
    is refused on every call: a refusal is not kept."""
    h = np.asarray(hamiltonian, dtype=complex)
    return _eigh(h.tobytes(), h.shape)


@lru_cache(maxsize=32)  # a threshold sweep evolves under three Hamiltonians
def _eigh(data: bytes, shape: tuple) -> tuple:
    h = np.frombuffer(data, dtype=complex).reshape(shape)
    if not np.isfinite(h).all():
        raise ValueError("hamiltonian has a non-finite entry")
    if not np.array_equal(h, h.conj().T):
        raise ValueError("hamiltonian is not Hermitian")
    w, v = np.linalg.eigh(h)
    w.flags.writeable = v.flags.writeable = False
    return w, v


def embed_operator(op, positions, nqubits: int) -> np.ndarray:
    """Embed a k-qubit operator at the given qubit positions of an n-qubit space.

    The operator's own tensor order is mapped onto ``positions`` in order;
    identity acts everywhere else.
    """
    o = np.asarray(op, dtype=complex)
    k = len(positions)
    if o.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {o.shape} does not match {k} positions")
    if len(set(positions)) != k or not all(p in range(nqubits) for p in positions):
        raise ValueError(f"bad positions {positions} for {nqubits} qubits")
    positions = [int(p) for p in positions]
    rest = [q for q in range(nqubits) if q not in positions]
    full = kron(o, np.eye(2 ** len(rest), dtype=complex))
    # current axis order is list(positions) + rest; permute into 0..n-1
    current = list(positions) + rest
    perm = [current.index(q) for q in range(nqubits)]
    t = full.reshape([2] * (2 * nqubits))
    t = t.transpose(perm + [p + nqubits for p in perm])
    return t.reshape(2 ** nqubits, 2 ** nqubits)


def embed_superop(s, positions, nqubits: int) -> np.ndarray:
    """Embed a k-qubit superoperator at the given positions of an n-qubit space."""
    positions = list(positions)
    return embed_operator(s, positions + [nqubits + p for p in positions], 2 * nqubits)


def vec(mat) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if dim * dim != v.size:
        raise ValueError(f"length {v.size} is not {dim} squared")
    return v.reshape((dim, dim), order="F")


def power_by_squaring(base, n: int, mul):
    """base**n for integer n >= 1 under the associative product ``mul``.

    The squares and products come in one fixed order, so any two forms of
    the same product make the same sequence of multiplications.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"exponent must be a positive integer, got {n}")
    n = int(n)
    # start from the lowest set bit: a product with the identity costs a
    # full multiply and changes no bit
    while not n & 1:
        base = mul(base, base)
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = mul(base, base)
        if n & 1:
            result = mul(result, base)
        n >>= 1
    return result


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


def pauli_coefficients(op) -> dict[str, float]:
    """Expansion coefficients of a Hermitian operator in the Pauli basis.

    Returns {string: c} with op = sum_s c_s * P_s and c_s real,
    c_s = Tr(P_s op) / 2**n.  A non-finite operator is refused, and one farther
    than 1e-12 (entrywise) from its adjoint, whose imaginary coefficients would be lost.
    """
    m = np.asarray(op, dtype=complex)
    d = len(m) if m.ndim else 0
    nqubits = d.bit_length() - 1
    if nqubits < 1 or m.shape != (2 ** nqubits,) * 2:
        raise ValueError(f"operator shape {m.shape} is not 2^n x 2^n with n >= 1")
    if not np.isfinite(m).all():
        raise ValueError("operator has a non-finite entry")
    defect = np.abs(m - m.conj().T).max()
    if defect > 1e-12:
        raise ValueError(f"operator is not Hermitian: max |op - op^dagger| = {defect:.3e}")
    return {
        s: float(np.trace(pauli_string_operator(s) @ m).real / d)
        for s in pauli_strings(nqubits)
    }
