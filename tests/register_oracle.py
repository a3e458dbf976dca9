"""40-digit register-map oracle of the catalog gates, shared by the oracle tests.

Shares no numerics with the float path: a recipe's period unitary at 40
digits, its closed-form actuator state rho_U (a reset to |0>, then
depolarizing at rate eps, and for rx a noisy Hadamard after it), one
period's register map T(sigma) = Tr_A[U (rho_U (x) sigma) U^dag], and its
N-th power by squaring; from these, a gate's infidelity and the noisy
distillation round's outcome rates.  Importing this module skips the
importing test module when mpmath is missing.
"""

import numpy as np
import pytest

from nocosim.gates import recipe
from nocosim.qcore import pauli_string_operator
from nocosim.zeno import period_count

mpmath = pytest.importorskip("mpmath")

DIGITS = 40

# catalog gate -> (Pauli strings summed into the register generator G,
# quarter turns k, polarization power p): the target is exp(-i k pi/4 G), and
# the drive lasts k pi / (4 (1 - eps)^p), the angle over the actuator
# polarization the register sees
GATES = {
    "phase_z": (("Z",), 2, 1),
    "rx": (("X",), 1, 2),
    "rz": (("Z",), 1, 1),
    "rzz": (("ZZ",), 1, 1),
    "rzz_prime": (("IZ", "ZZ"), 1, 1),
}


def power(m, n: int):
    result = mpmath.eye(m.rows)
    while n:
        if n & 1:
            result = result * m
        m = m * m
        n >>= 1
    return result


def integer_matrix(m: np.ndarray):
    assert np.array_equal(m, np.round(m.real))  # integer entries, held exactly
    return mpmath.matrix(m.real.tolist())


def actuator_state(gate: str, e):
    """Closed-form rho_U of a recipe at the rate ``e``, as nested lists."""
    pop = [1 - e / 2, e / 2]  # a reset to |0>, then depolarizing
    if gate == "rx":
        # then a noisy Hadamard: (1 - e)^2 |+><+| + (2 e - e^2) I/2
        half, off = mpmath.mpf(1) / 2, (1 - e) ** 2 / 2
        return [[half, off], [off, half]]
    if gate == "rzz_prime":
        # both actuators reset, qubits (triangle, square)
        return [[pop[b >> 1] * pop[b & 1] if b == c else 0 for c in range(4)] for b in range(4)]
    return [[pop[0], 0], [0, pop[1]]]


def register_map(gate: str, rho_u, freq_over_h: float):
    """One period's register map of a recipe, for the actuator state ``rho_u``."""
    h = recipe(gate).hamiltonian
    da = len(rho_u)
    dr = len(h) // da
    u = mpmath.expm(-1j * (2 * mpmath.pi / freq_over_h) * integer_matrix(h))
    # T[i + dr j, k + dr l] = sum_{a,b,c} rho_u[b][c] U[dr a+i, dr b+k] conj(U[dr a+j, dr c+l])
    t = mpmath.matrix(dr * dr, dr * dr)
    for i, j, k, l in np.ndindex(dr, dr, dr, dr):
        t[i + dr * j, k + dr * l] = mpmath.fsum(
            rho_u[b][c] * u[dr * a + i, dr * b + k] * mpmath.conj(u[dr * a + j, dr * c + l])
            for a, b, c in np.ndindex(da, da, da)
            if rho_u[b][c]
        )
    return t


def periods(gate: str, e, freq_over_h: float) -> int:
    """Whole periods N of the recipe's drive, checked against the float count."""
    _, turns, p = GATES[gate]
    # k pi / (4 (1 - e)^p) at f / (2 pi) periods per unit time
    n = int(mpmath.floor(turns * freq_over_h / (8 * (1 - e) ** p)))
    assert n == period_count(recipe(gate).duration(float(e)), freq_over_h)
    return n


def target(gate: str):
    """The recipe's target unitary exp(-i k pi/4 G), checked against the catalog."""
    strings, turns, _ = GATES[gate]
    g = integer_matrix(sum(pauli_string_operator(s) for s in strings))
    v = mpmath.expm(-1j * turns * mpmath.pi / 4 * g)
    assert np.allclose(np.array(v.tolist(), dtype=complex), recipe(gate).target, rtol=0, atol=1e-15)
    return v


def infidelity(gate: str, eps: float, freq_over_h: float) -> float:
    """1 - F of T^N against the target V, F = Re Tr(S_V^dag T^N) / d^2.

    S_V[i + d j, k + d l] = V[i, k] conj(V[j, l]) is the superoperator of V.
    """
    with mpmath.workdps(DIGITS):
        e = mpmath.mpf(eps)
        t_n = power(register_map(gate, actuator_state(gate, e), freq_over_h),
                    periods(gate, e, freq_over_h))
        v = target(gate)
        d = v.rows
        overlap = mpmath.fsum(
            mpmath.conj(v[i, k] * mpmath.conj(v[j, l])) * t_n[i + d * j, k + d * l]
            for i, j, k, l in np.ndindex(d, d, d, d)
        )
        return float(1 - mpmath.re(overlap) / d ** 2)


def oracle_rates(eps: float, freq_over_h: float) -> np.ndarray:
    """rates[x, o] of one noisy round, o = 0 for "+" and 1 for "-"."""
    with mpmath.workdps(DIGITS):
        e = mpmath.mpf(eps)
        # qubits (triangle actuator, square actuator, data, ancilla)
        t = register_map("rzz_prime", actuator_state("rzz_prime", e), freq_over_h)
        t_n = power(t, periods("rzz_prime", e, freq_over_h))

        def depolarized(p):  # (1 - eps) p + eps I/2 on one qubit
            mixed = [[e / 2, 0], [0, e / 2]]
            return [[(1 - e) * p[r][c] + mixed[r][c] for c in (0, 1)] for r in (0, 1)]

        half = mpmath.mpf(1) / 2
        plus, minus = [[half, half], [half, half]], [[half, -half], [-half, half]]
        anc = depolarized(plus)
        readout = [depolarized(plus), depolarized(minus)]
        rates = np.empty((2, 2))
        for x in (0, 1):
            # vec(|x><x| (x) anc): row 2x + r, column 2x + c holds anc[r][c]
            sigma = mpmath.matrix(16, 1)
            for r, c in np.ndindex(2, 2):
                sigma[(2 * x + r) + 4 * (2 * x + c), 0] = anc[r][c]
            out = t_n * sigma
            # the ancilla block on the data input's |x><x|
            block = [[out[2 * x + r + 4 * (2 * x + c), 0] for c in (0, 1)] for r in (0, 1)]
            for o, p in enumerate(readout):
                trace = mpmath.fsum(p[c][r] * block[r][c] for r, c in np.ndindex(2, 2))
                rates[x, o] = float(mpmath.re(trace))
        return rates
