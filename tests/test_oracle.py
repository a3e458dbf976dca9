"""40-digit oracle for the phase budget's register-map terms.

Recomputes ``faulttol._round_rates`` and ``faulttol._gate_weight`` with
mpmath, sharing no numerics with the float path: a recipe's period unitary
at 40 digits, its closed-form actuator state rho_U (a reset to |0>, then
depolarizing at rate eps, and for rx a noisy Hadamard after it), one
period's register map T(sigma) = Tr_A[U (rho_U (x) sigma) U^dag], and its
N-th power by squaring.  The round rates are the noisy x-basis readout of
the ancilla conditioned on each data bit; a gate weight is (1 - lambda)/2,
with lambda = Re Tr(X_0 T^N(V^dag X_0 V)) / d the Pauli eigenvalue of X on
register qubit 0 of the error channel T^N o V^dag of the target V.
"""

import numpy as np
import pytest

from nocosim.faulttol import DistillationConfig, _gate_weight, _round_rates
from nocosim.gates import recipe
from nocosim.qcore import pauli_string_operator
from nocosim.zeno import period_count

mpmath = pytest.importorskip("mpmath")

DIGITS = 40


def _power(m, n: int):
    result = mpmath.eye(m.rows)
    while n:
        if n & 1:
            result = result * m
        m = m * m
        n >>= 1
    return result


def _integer_matrix(m: np.ndarray):
    assert np.array_equal(m, np.round(m.real))  # integer entries, held exactly
    return mpmath.matrix(m.real.tolist())


def _register_map(gate: str, rho_u, freq_over_h: float):
    """One period's register map of a recipe, for the actuator state ``rho_u``."""
    h = recipe(gate).hamiltonian
    da = len(rho_u)
    dr = len(h) // da
    u = mpmath.expm(-1j * (2 * mpmath.pi / freq_over_h) * _integer_matrix(h))
    # T[i + dr j, k + dr l] = sum_{a,b,c} rho_u[b][c] U[dr a+i, dr b+k] conj(U[dr a+j, dr c+l])
    t = mpmath.matrix(dr * dr, dr * dr)
    for i, j, k, l in np.ndindex(dr, dr, dr, dr):
        t[i + dr * j, k + dr * l] = mpmath.fsum(
            rho_u[b][c] * u[dr * a + i, dr * b + k] * mpmath.conj(u[dr * a + j, dr * c + l])
            for a, b, c in np.ndindex(da, da, da)
            if rho_u[b][c]
        )
    return t


def oracle_rates(eps: float, freq_over_h: float) -> np.ndarray:
    """rates[x, o] of one noisy round, o = 0 for "+" and 1 for "-"."""
    with mpmath.workdps(DIGITS):
        e = mpmath.mpf(eps)
        # qubits (triangle actuator, square actuator, data, ancilla)
        pop = [1 - e / 2, e / 2]
        rho_u = [[pop[b >> 1] * pop[b & 1] if b == c else 0 for c in range(4)] for b in range(4)]
        t = _register_map("rzz_prime", rho_u, freq_over_h)
        # N whole periods of pi / (4 (1 - eps)) at f / (2 pi) periods per unit time
        n = int(mpmath.floor(freq_over_h / (8 * (1 - e))))
        assert n == period_count(recipe("rzz_prime").duration(eps), freq_over_h)
        t_n = _power(t, n)

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


@pytest.mark.parametrize("eps, freq_over_h", [(0.2, 1e4), (0.05, 1e5)])
def test_round_rates_match_the_register_map_oracle(eps, freq_over_h):
    expected = oracle_rates(eps, freq_over_h)
    got = _round_rates(DistillationConfig(rounds=1, eps=eps, freq_over_h=freq_over_h))
    assert np.allclose(got, expected, rtol=1e-9, atol=0), (got, expected)



def oracle_gate_weight(gate: str, eps: float, freq_over_h: float) -> float:
    """(1 - lambda_X0) / 2 of the error channel T^N o V^dag of rx or rzz."""
    with mpmath.workdps(DIGITS):
        e = mpmath.mpf(eps)
        if gate == "rx":
            # a reset, then a noisy Hadamard: (1 - eps)^2 |+><+| + (2 eps - eps^2) I/2
            half, off = mpmath.mpf(1) / 2, (1 - e) ** 2 / 2
            rho_u, pauli, stretch = [[half, off], [off, half]], "X", (1 - e) ** 2
        else:
            rho_u, pauli, stretch = [[1 - e / 2, 0], [0, e / 2]], "ZZ", 1 - e
        t = _register_map(gate, rho_u, freq_over_h)
        # N whole periods of pi / (4 stretch) at f / (2 pi) periods per unit time
        n = int(mpmath.floor(freq_over_h / (8 * stretch)))
        assert n == period_count(recipe(gate).duration(eps), freq_over_h)
        dr = 2 ** len(pauli)
        v = (mpmath.eye(dr) - 1j * _integer_matrix(pauli_string_operator(pauli))) / mpmath.sqrt(2)
        x0 = _integer_matrix(pauli_string_operator("X".ljust(len(pauli), "I")))
        moved = v.H * x0 * v
        sigma = mpmath.matrix(dr * dr, 1)
        for i, j in np.ndindex(dr, dr):
            sigma[i + dr * j, 0] = moved[i, j]
        out = _power(t, n) * sigma
        trace = mpmath.fsum(x0[j, i] * out[i + dr * j, 0] for i, j in np.ndindex(dr, dr))
        return float((1 - mpmath.re(trace) / dr) / 2)


@pytest.mark.parametrize("gate", ["rx", "rzz"])
def test_gate_weights_match_the_register_map_oracle(gate):
    # the float path measured 2.1e-10 off for both gates
    expected = oracle_gate_weight(gate, 0.2, 1e4)
    got = _gate_weight(gate, 0.2, 1e4)
    assert np.isclose(got, expected, rtol=1e-9, atol=0), (got, expected)
