"""40-digit oracle for the register channels and the phase budget's terms.

Recomputes ``gates.realized_channel``'s infidelity, ``faulttol._round_rates``
and ``faulttol._gate_weight`` from the register map of one period powered in
mpmath (``register_oracle``), sharing no numerics with the float path.  The
round rates are the noisy x-basis readout of the ancilla conditioned on each
data bit; a gate weight is (1 - lambda)/2, with
lambda = Re Tr(X_0 T^N(V^dag X_0 V)) / d the Pauli eigenvalue of X on
register qubit 0 of the error channel T^N o V^dag of the target V.
"""

import numpy as np
import pytest
from register_oracle import (
    DIGITS,
    GATES,
    actuator_state,
    infidelity,
    integer_matrix,
    mpmath,
    periods,
    power,
    register_map,
    target,
)

from nocosim.channels import entanglement_fidelity
from nocosim.faulttol import DistillationConfig, _gate_weight, _round_rates
from nocosim.gates import GATE_NAMES, realized_channel, recipe
from nocosim.qcore import pauli_string_operator


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


@pytest.mark.parametrize("eps, freq_over_h", [(0.2, 1e4), (0.05, 1e5)])
def test_round_rates_match_the_register_map_oracle(eps, freq_over_h):
    expected = oracle_rates(eps, freq_over_h)
    got = _round_rates(DistillationConfig(rounds=1, eps=eps, freq_over_h=freq_over_h))
    assert np.allclose(got, expected, rtol=1e-9, atol=0), (got, expected)


def oracle_gate_weight(gate: str, eps: float, freq_over_h: float) -> float:
    """(1 - lambda_X0) / 2 of the error channel T^N o V^dag of rx or rzz."""
    with mpmath.workdps(DIGITS):
        e = mpmath.mpf(eps)
        t = register_map(gate, actuator_state(gate, e), freq_over_h)
        n = periods(gate, e, freq_over_h)
        v = target(gate)
        dr = v.rows
        x0 = integer_matrix(pauli_string_operator("X".ljust(int(np.log2(dr)), "I")))
        moved = v.H * x0 * v
        sigma = mpmath.matrix(dr * dr, 1)
        for i, j in np.ndindex(dr, dr):
            sigma[i + dr * j, 0] = moved[i, j]
        out = power(t, n) * sigma
        trace = mpmath.fsum(x0[j, i] * out[i + dr * j, 0] for i, j in np.ndindex(dr, dr))
        return float((1 - mpmath.re(trace) / dr) / 2)


@pytest.mark.parametrize("gate", ["rx", "rzz"])
def test_gate_weights_match_the_register_map_oracle(gate):
    # the float path measured 2.1e-10 off for both gates
    expected = oracle_gate_weight(gate, 0.2, 1e4)
    got = _gate_weight(gate, 0.2, 1e4)
    assert np.isclose(got, expected, rtol=1e-9, atol=0), (got, expected)


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_gate_errors_match_the_register_map_oracle(gate):
    # the float path measured 5e-11 to 6e-10 relative off at this point
    assert set(GATES) == set(GATE_NAMES)
    expected = infidelity(gate, 0.2, 1e4)
    run = realized_channel(gate, 0.2, 1e4)
    got = 1.0 - entanglement_fidelity(run.superop, recipe(gate).target)
    assert np.isclose(got, expected, rtol=1e-8, atol=0), (got, expected)
