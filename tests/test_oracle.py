"""40-digit oracle for the register channels and the phase budget's terms.

Recomputes ``gates.gate_infidelity``, ``faulttol._round_rates`` and the gate
weights of ``faulttol.vacuum_error_budget`` from the register map of one period
powered in mpmath (``register_oracle``), sharing no numerics with the float path.  The
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
    oracle_rates,
    periods,
    power,
    register_map,
    target,
)

from nocosim.faulttol import _round_rates, vacuum_error_budget
from nocosim.gates import GATE_NAMES, gate_infidelity
from nocosim.qcore import pauli_string_operator


@pytest.mark.parametrize("eps, freq_over_h", [(0.2, 1e4), (0.05, 1e5)])
def test_round_rates_match_the_register_map_oracle(eps, freq_over_h):
    expected = oracle_rates(eps, freq_over_h)
    got = _round_rates(eps, freq_over_h)
    assert np.allclose(got, expected, rtol=1e-9, atol=0), (got, expected)


def oracle_phase_weight(gate: str, eps: float, freq_over_h: float) -> float:
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
    expected = oracle_phase_weight(gate, 0.2, 1e4)
    # the rzz slot counts four phase gates; dividing by 4 is exact
    terms = vacuum_error_budget(0.2, 1e4, 1).terms
    got = {"rx": terms["rx_1", "rx"], "rzz": terms["rzz", "rzz"] / 4}[gate]
    assert np.isclose(got, expected, rtol=1e-9, atol=0), (got, expected)


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_gate_errors_match_the_register_map_oracle(gate):
    # the float path measured 5e-11 to 6e-10 relative off at this point
    assert set(GATES) == set(GATE_NAMES)
    expected = infidelity(gate, 0.2, 1e4)
    got, _ = gate_infidelity(gate, 0.2, 1e4)
    assert np.isclose(got, expected, rtol=1e-8, atol=0), (got, expected)
