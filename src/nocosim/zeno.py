"""Register dynamics under frequently repeated noisy actuator operations.

A cycle is one period of the drive: noisy operations that re-prepare the
actuator qubits in a fixed state rho_U, whatever they held, then free
evolution of the whole system for the rest of the period.  A cycle is
therefore its Hamiltonian and rho_U (``NoisyCycleSpec``).  The operations'
superoperator is the replacement map vec(rho_U) vec(I)^dag, embedded on
the actuators; the library forms only its d_r^2 images
(``replacement_images``), and the tests keep the dense embedding.
Repeated fast enough, the drive pins the actuator to rho_U and the
register evolves under an effective Hamiltonian obtained by
averaging the interaction over that state.  At finite repetition frequency
the register picks up a residual error channel, which is what this module
computes exactly (for small systems): as a register channel, by powering
the d_r^2 distinct columns of the full-system period map
(``noco_channel``), or as the N-th power of one period's register map
(``noco_state``), which its callers apply to the operators they need.
Both return the plain d_r^2 x d_r^2 superoperator, and both power by
``qcore.power_by_squaring``; the period count is ``period_count``'s.

Units: hbar = J = 1 internally.  User-facing frequencies are quoted in
J/h; since h = 2*pi*hbar, a drive at ``freq_over_h`` J/h has period
2*pi / freq_over_h in internal time.  ``faulttol.ErrorBudget.duration`` is
in internal units; acceptance criterion 10 divides it by 2*pi.
"""

from math import isfinite

import numpy as np

from .qcore import hermitian_eigh, kron, power_by_squaring, reduce_superop, unitary_evolution

# float dust tolerated in t * f at a whole count: a few ulps from ~1.1e6 periods up
_PERIOD_COUNT_NUDGE = 1e-9


def period_count(duration: float, freq_over_h: float) -> int:
    """Number of whole drive periods inside ``duration`` internal time units.

    Raises ValueError for a negative or non-finite duration or a
    non-positive or non-finite frequency, and OverflowError from 2^53
    periods up (an infinite product of finite inputs included), where a
    double no longer holds every whole count exactly.
    """
    if not (isfinite(duration) and isfinite(freq_over_h) and duration >= 0 and freq_over_h > 0):
        raise ValueError(
            f"need a finite duration >= 0 and a finite positive frequency, got "
            f"duration {duration} at freq_over_h {freq_over_h}"
        )
    periods = duration * freq_over_h / (2.0 * np.pi)
    if not periods < 2.0 ** 53:
        raise OverflowError(
            f"duration {duration} at freq_over_h {freq_over_h} spans {periods:.3g} "
            "drive periods; counts from 2^53 up are not exact in a float"
        )
    nudge = max(_PERIOD_COUNT_NUDGE, periods * 2.0 ** -50)
    return int(min(np.floor(periods + nudge), np.ceil(periods)))  # never past the next count


# largest Hermiticity defect, trace defect and negative eigenvalue an actuator
# state may carry
DENSITY_ATOL = 1e-12


class NoisyCycleSpec:
    """One drive period: the actuators re-prepared, then free flight.

    ``rho_u`` is the state of the leading ``n_actuators`` qubits that one
    period's noisy operations re-prepare, whatever the actuators held: the
    operations act as the replacement map vec(rho_U) vec(I)^dag.  The
    Hermitian ``hamiltonian`` acts on all ``nqubits`` qubits, actuators
    first, and generates the free flight for the rest of the period.
    Both are checked when the spec is made.
    """

    __slots__ = ("hamiltonian", "rho_u")

    def __init__(self, hamiltonian: np.ndarray, rho_u: np.ndarray):
        self.hamiltonian = hamiltonian
        self.rho_u = rho_u
        shape = np.shape(self.hamiltonian)
        if len(shape) != 2 or not shape[0] or shape != (2 ** self.nqubits,) * 2:
            raise ValueError(f"hamiltonian shape {shape} is not 2^n x 2^n")
        hermitian_eigh(self.hamiltonian)  # refuses a non-finite or non-Hermitian one
        shape = np.shape(self.rho_u)
        if len(shape) != 2 or shape[0] < 2 or shape != (2 ** self.n_actuators,) * 2:
            raise ValueError(f"actuator state shape {shape} is not 2^k x 2^k with k > 0")
        if self.nqubits <= self.n_actuators:
            raise ValueError(
                f"cycle has no register qubit: {self.n_actuators} actuator qubits "
                f"of {self.nqubits}"
            )
        rho = np.asarray(self.rho_u)
        if not (
            np.abs(rho - rho.conj().T).max() <= DENSITY_ATOL
            and abs(np.trace(rho) - 1.0) <= DENSITY_ATOL
            and np.linalg.eigvalsh(rho).min() >= -DENSITY_ATOL
        ):
            raise ValueError(
                "actuator state is not a density matrix (Hermitian, trace 1, "
                "no negative eigenvalue)"
            )

    @property
    def n_actuators(self) -> int:
        return len(self.rho_u).bit_length() - 1

    @property
    def nqubits(self) -> int:
        return len(self.hamiltonian).bit_length() - 1


def replacement_images(spec: NoisyCycleSpec) -> np.ndarray:
    """The d_r^2 distinct columns of the dense operations map, bit for bit.

    The operations send |a r><a' r'| to delta_aa' rho_U (x) |r><r'|; column
    r + d_r r' is vec(rho_U (x) |r><r'|), the image of |0 r><0 r'|.  Each
    entry is a rho_U entry times an exact 0 or 1, as in the dense embedding.
    """
    da = len(spec.rho_u)
    dr = 2 ** spec.nqubits // da
    # row (a d_r + s) + d (b d_r + s') is the C-order axes (b, s', a, s) and
    # column r + d_r r' the axes (r', r); the entry is rho_U[a, b] times
    # delta[s', s, r', r] = delta_s'r' delta_sr
    delta = np.eye(dr * dr).reshape(dr, dr, dr, dr)
    rho_t = np.asarray(spec.rho_u, dtype=complex).T
    images = rho_t[:, None, :, None, None, None] * delta[None, :, None]
    return images.reshape(da * da * dr * dr, dr * dr)


# largest idempotence defect verify_projector accepts
PROJECTOR_ATOL = 1e-10


def verify_projector(s: np.ndarray):
    """Check that one period's noisy operation, superoperator ``s``, is idempotent.

    Returns (ok, defect) where defect = ||S@S - S||_F.  Idempotence is what
    makes the frozen-actuator picture exact: every period re-projects the
    actuator onto the same state.
    """
    defect = float(np.linalg.norm(s @ s - s))
    return defect <= PROJECTOR_ATOL, defect


def effective_hamiltonian(spec: NoisyCycleSpec) -> np.ndarray:
    """Register Hamiltonian seen once the actuator is frozen.

    Tr_A[(rho_U (x) id_R) H] with rho_U the re-prepared actuator state.
    """
    da = 2 ** spec.n_actuators
    dr = 2 ** spec.nqubits // da
    h4 = np.asarray(spec.hamiltonian, dtype=complex).reshape(da, dr, da, dr)
    return np.einsum("ac,cras->rs", spec.rho_u, h4)


def noco_channel(spec: NoisyCycleSpec, duration: float, freq_over_h: float) -> np.ndarray:
    """Exact register channel after driving the cycle for ``duration``.

    Composes N = ``period_count(duration, freq_over_h)`` whole periods
    (operations then free flight), starting from the maximally mixed
    actuator state, then traces the actuators out, and returns the
    d_r^2 x d_r^2 register superoperator.  Time left over after the last
    whole period is discarded.

    The full-system period map P is powered by squaring, each power held
    as its d_r^2 distinct columns, those of the inputs |0 r><0 r'|: the
    operations output only the ``replacement_images``, so every other
    column is zero or a copy.  Each product rebuilds its full left operand
    and contracts over all d^2 terms: the dot products of the dense
    P^a P^b, at d_r^2 of its d^2 columns.  BLAS computes a column the same
    way whatever the others, so the channel equals the dense chain's bit
    for bit, which the tests assert.
    """
    n = period_count(duration, freq_over_h)
    na, nq = spec.n_actuators, spec.nqubits
    da, dr, d2 = 2 ** na, 2 ** (nq - na), 4 ** nq
    if n == 0:
        # the reduced P^0, exactly; the column form starts at P^1.  No period
        # is built: its 2 pi / f is inf at a subnormal f
        return np.eye(dr * dr, dtype=complex)
    # the d^2 x d^2 flight map is freed before the buffer below exists
    u = unitary_evolution(spec.hamiltonian, 2.0 * np.pi / freq_over_h)
    period = kron(u.conj(), u) @ replacement_images(spec)
    # one column-major buffer holds every left operand: only the columns of
    # the inputs |a r><a r'|, one block per actuator state a, are ever
    # written, each column a contiguous run
    full = np.zeros((d2, d2), dtype=complex, order="F")
    rows = full.T.reshape(da, dr, da, dr, d2)
    blocks = [rows[a, :, a] for a in range(da)]

    def expand(cols):
        cols = cols.T.reshape(dr, dr, d2)
        for block in blocks:
            block[...] = cols
        return full

    cols = power_by_squaring(period, n, lambda x, y: expand(x) @ y)
    return reduce_superop(expand(cols), nq, range(na, nq), np.eye(da, dtype=complex) / da)


def noco_state(spec: NoisyCycleSpec, duration: float, freq_over_h: float) -> np.ndarray:
    """Register map T^N of N whole periods, a d_r^2 x d_r^2 superoperator.

    The same N periods as ``noco_channel``: the actuators are re-prepared
    in rho_U every period, so N periods act on the register as the N-th
    power of one period's register map T(sigma) = Tr_A[U (rho_U (x) sigma) U^dag],
    with sigma any register operator the map acts on linearly (a state, or
    a Pauli string whose Pauli eigenvalue is wanted).
    """
    n = period_count(duration, freq_over_h)
    na, nq = spec.n_actuators, spec.nqubits
    da, dr = 2 ** na, 2 ** (nq - na)
    if n == 0:  # T^0 = I; build no period, whose 2 pi / f is inf at a subnormal f
        return np.eye(dr * dr, dtype=complex)
    u = unitary_evolution(spec.hamiltonian, 2.0 * np.pi / freq_over_h).reshape(da, dr, da, dr)
    # T[i + dr j, k + dr l] = sum_abc U[ai, bk] rho_U[b, c] conj(U[aj, cl]) in two
    # products: W[i, k, ac] = sum_b U[ai, bk] rho_U[b, c], then an einsum over x = ac,
    # whose plain multiply-adds (not BLAS's fused ones) round as the 3-operand einsum
    u = u.transpose(1, 3, 0, 2)
    w = (u.reshape(-1, da) @ spec.rho_u).reshape(dr, dr, da * da)
    t = np.einsum("ikx,jlx->jilk", w, u.conj().reshape(w.shape)).reshape(dr * dr, dr * dr)
    return power_by_squaring(t, n, np.matmul)
