"""40-digit oracle for the distillation round rates.

Recomputes ``faulttol._round_rates`` with mpmath, sharing no numerics with
the float path: the rzz_prime period unitary at 40 digits, the closed-form
actuator state rho_U = diag(1 - eps/2, eps/2)^(x)2 (a reset to |0>, then
depolarizing at rate eps), one period's register map
T(sigma) = Tr_A[U (rho_U (x) sigma) U^dag], its N-th power by squaring, and
the noisy x-basis readout of the ancilla conditioned on each data bit.
"""

import numpy as np
import pytest

from nocosim.faulttol import DistillationConfig, _round_rates
from nocosim.gates import recipe
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


def oracle_rates(eps: float, freq_over_h: float) -> np.ndarray:
    """rates[x, o] of one noisy round, o = 0 for "+" and 1 for "-"."""
    with mpmath.workdps(DIGITS):
        e = mpmath.mpf(eps)
        h = recipe("rzz_prime").hamiltonian
        assert np.array_equal(h, np.round(h.real))  # integer entries, held exactly
        # qubits (triangle actuator, square actuator, data, ancilla)
        dt = 2 * mpmath.pi / freq_over_h
        u = mpmath.expm(-1j * dt * mpmath.matrix(h.real.tolist()))
        pop = [1 - e / 2, e / 2]
        rho_u = [pop[b >> 1] * pop[b & 1] for b in range(4)]  # diagonal
        # T[i + 4j, k + 4l] = sum_{a,b} rho_u[b] U[4a+i, 4b+k] conj(U[4a+j, 4b+l])
        t = mpmath.matrix(16, 16)
        for i, j, k, l in np.ndindex(4, 4, 4, 4):
            t[i + 4 * j, k + 4 * l] = mpmath.fsum(
                rho_u[b] * u[4 * a + i, 4 * b + k] * mpmath.conj(u[4 * a + j, 4 * b + l])
                for a in range(4)
                for b in range(4)
            )
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
