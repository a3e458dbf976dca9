import re
from decimal import Context, Decimal, localcontext
from functools import partial
from itertools import product
from math import comb
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_reference import dense_phase_weight, naive_round, naive_round_rates, random_state
from nocosim import faulttol, gates, zeno
from nocosim.cli import _map_tasks, main
from nocosim.faulttol import (
    IDLE_CYCLES,
    MAX_ROUNDS,
    ThresholdError,
    error_rate_mapping,
    distill,
    threshold,
    vacuum_error_budget,
)
from nocosim.gates import realized_channel, recipe
from nocosim.qcore import SX, embed_operator, projector


def binomial_p_fail(n: int, q: float) -> float:
    """Majority vote over n iid flips at rate q; Bayes optimal for iid rounds."""
    return sum(
        comb(n, k) * q ** k * (1 - q) ** (n - k) for k in range(n // 2 + 1, n + 1)
    )


def naive_distill(rounds: int, eps: float, freq_over_h: float, **noise):
    """Leaf-by-leaf enumeration with plain density matrices.

    ``noise`` switches sources off as in ``naive_round``.  Returns (p_fail,
    dict record index -> averaged record probability).
    """
    step = naive_round(eps, freq_over_h, **noise)
    p_fail = 0.0
    record_probs = {}
    for record in product((0, 1), repeat=rounds):
        idx = sum(b << k for k, b in enumerate(record))
        ps = []
        for inp in ("0", "1"):
            rho = projector(inp)
            for bit in record:
                rho = step(rho, bit)
            ps.append(float(np.trace(rho).real))
        p_fail += min(ps)
        record_probs[idx] = 0.5 * (ps[0] + ps[1])
    return 0.5 * p_fail, record_probs


def class_probs(rates, n: int) -> np.ndarray:
    """Probability of any one record with k "-" outcomes, k = 0..n, at per-round rates.

    Under the uniform prior over the two inputs it is
    1/2 (a0^(n-k) b0^k + a1^(n-k) b1^k), with ``rates[x] = (a_x, b_x)``.
    """
    k = np.arange(n + 1)
    (a0, b0), (a1, b1) = rates
    return 0.5 * (a0 ** (n - k) * b0 ** k + a1 ** (n - k) * b1 ** k)


def class_total(rates, n: int) -> float:
    """Total probability of all 2^n records: sum_k C(n, k) times the class probability."""
    sizes = np.array([float(comb(n, k)) for k in range(n + 1)])
    return float(np.dot(sizes, class_probs(rates, n)))


def test_distill_matches_binomial_oracle(monkeypatch):
    # with the gate ideal each round flips the readout iid: at eps/2 from the
    # readout alone, at eps (1 - eps/2) when the init's flips compose with it.
    # The library runs only noisy gates, so the rates come from the dense round
    for noisy_init, q_of in ((False, lambda e: e / 2.0), (True, lambda e: e * (1.0 - e / 2.0))):
        monkeypatch.setattr(faulttol, "_round_rates", partial(
            naive_round_rates, noisy_init=noisy_init, noisy_gate=False))
        for n in (1, 3, 5):
            for eps in (0.1, 0.2):
                got = distill(n, eps, 1e4)
                assert abs(got - binomial_p_fail(n, q_of(eps))) < 1e-12


def test_distill_matches_leaf_enumeration(monkeypatch):
    library = faulttol._round_rates
    for (rounds, eps, f), noise in (
        ((3, 0.25, 1e3), {}),
        ((7, 0.15, 1e3), {"noisy_meas": False}),
        ((9, 0.2, 1e4), {}),
        # the remaining combinations of the three noise sources
        *(
            ((3, 0.2, 1e3), {"noisy_init": init, "noisy_gate": gate, "noisy_meas": meas})
            for init, gate, meas in product((False, True), repeat=3)
            if not (init and gate)
        ),
    ):
        # the library's own rates when every source is noisy, else the dense
        # round's, so the class sum is checked under every combination
        rates = partial(naive_round_rates, **noise) if noise else library
        monkeypatch.setattr(faulttol, "_round_rates", rates)
        p_fail = distill(rounds, eps, f)
        p_naive, probs_naive = naive_distill(rounds, eps, f, **noise)
        assert abs(p_fail - p_naive) < 1e-12
        assert len(probs_naive) == 2 ** rounds
        # a record's probability depends only on its count of "-" outcomes,
        # through the per-round rates that distill scores
        per_class = class_probs(faulttol._round_rates(eps, f), rounds)
        for idx, p in probs_naive.items():
            assert abs(per_class[bin(idx).count("1")] - p) < 1e-12


def decimal_p_fail(rates, n: int) -> float:
    """p_fail of n rounds at the float per-round rates, summed in 60-digit decimal.

    Every C(n, k) is exact and the decimal exponent range reaches far below
    a double's, so no class term underflows.  0 ** 0 is 1, which Decimal
    leaves undefined.
    """
    with localcontext(Context(prec=60, Emin=-999999)):
        (a0, b0), (a1, b1) = ([Decimal(float(r)) for r in row] for row in rates)

        def power(rate, k):
            return rate ** k if k else Decimal(1)

        total = sum(
            comb(n, k) * min(power(a0, n - k) * power(b0, k), power(a1, n - k) * power(b1, k))
            for k in range(n + 1)
        )
        return float(total / 2)


def test_distill_large_rounds_against_decimal_oracle():
    # single class terms underflow a double long before p_fail does
    for n, eps in ((473, 0.05), (757, 0.2), (1029, 0.5)):
        expected = decimal_p_fail(faulttol._round_rates(eps, 1e4), n)
        assert expected > 0.0
        got = distill(n, eps, 1e4)
        assert abs(got - expected) <= 1e-10 * expected, (n, eps, got, expected)


# a rate in [0, 1], exact 0 and 1 included
_RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(
    # each row (a, b) has b <= 1 - a, as a round's outcome rates on one input
    # do, and need not sum to 1; a row summing to near 2 would send p_fail up
    # to 2^(n - 1), past the largest double
    rows=st.lists(st.tuples(_RATE, _RATE).map(lambda r: (r[0], r[1] * (1.0 - r[0]))),
                  min_size=2, max_size=2),
    n=st.integers(0, MAX_ROUNDS // 2).map(lambda j: 2 * j + 1),
)
@example(rows=[(1.0, 0.0), (0.0, 1.0)], n=MAX_ROUNDS)
@example(rows=[(0.0, 0.0), (0.5, 0.0)], n=3)
@example(rows=[(0.3, 0.0), (0.3, 0.7)], n=1)
def test_class_sum_matches_decimal_sum_on_random_rates(rows, n):
    # exact zero rates reach _log_power's zero branch, which no rate of the
    # library's noisy round does; hypothesis refuses monkeypatch, so patch here
    rates = np.array(rows)
    with patch.object(faulttol, "_round_rates", lambda *_: rates):
        got = distill(n, 0.1, 1e4)
    expected = decimal_p_fail(rates, n)
    # below 1e-300 a double keeps too few digits for a relative bound
    assert abs(got - expected) <= 1e-10 * expected + 1e-300, (rows, n, got, expected)


def test_distill_rejects_non_diagonal_round(monkeypatch):
    # an x field on the data qubit (qubit 2) breaks the per-class sum: it
    # no longer commutes with Z on the data qubit, so weight leaves the
    # data input's block
    rec = recipe("rzz_prime")
    tilted = rec._replace(hamiltonian=rec.hamiltonian + embed_operator(SX, (2,), 4))
    monkeypatch.setitem(gates._RECIPES, "rzz_prime", tilted)
    with pytest.raises(ValueError, match="off the data input"):
        distill(3, 0.1, 1e4)


def test_distill_many_rounds_stays_small(monkeypatch):
    # 2^61 records would not fit in memory; the 62 classes do.  The ideal
    # gate keeps each round's trace at 1, so the classes' total is 1
    monkeypatch.setattr(faulttol, "_round_rates", partial(naive_round_rates, noisy_gate=False))
    assert abs(class_total(faulttol._round_rates(0.2, 1e4), 61) - 1.0) < 1e-12
    assert 0.0 < distill(61, 0.2, 1e4) < 1e-6
    # the realized gate's trace drifts by 1e-14 to 1e-11 per round, so
    # its total is checked against the per-round rates, not against 1
    monkeypatch.undo()
    rates = faulttol._round_rates(0.2, 1e4)
    expected = 0.5 * np.sum(rates.sum(axis=1) ** 61)
    assert abs(class_total(rates, 61) - expected) < 1e-12
    assert 0.0 < distill(61, 0.2, 1e4) < 1e-6


def test_distill_bookkeeping():
    p_fail = distill(5, 0.3, 1e3)
    assert type(p_fail) is float
    assert 0.0 <= p_fail <= 0.5
    assert abs(class_total(faulttol._round_rates(0.3, 1e3), 5) - 1.0) < 1e-9


def test_distill_noiseless_classification_is_sharp(monkeypatch):
    # with every source ideal the record determines the input exactly: on
    # each class one input's probability vanishes, so nothing fails
    rates = naive_round_rates(0.0, 1e4, noisy_init=False, noisy_gate=False, noisy_meas=False)
    monkeypatch.setattr(faulttol, "_round_rates", lambda *_args: rates)
    (a0, b0), (a1, b1) = rates
    k = np.arange(4)
    p0, p1 = a0 ** (3 - k) * b0 ** k, a1 ** (3 - k) * b1 ** k
    live = class_probs(rates, 3) > 1e-15
    assert np.all(np.minimum(p0, p1)[live] <= 1e-12 * (p0 + p1)[live])
    assert distill(3, 0.0, 1e4) <= 1e-15


def test_distill_noiseless_sources(monkeypatch):
    # with the gate ideal every record is deterministic and nothing fails
    monkeypatch.setattr(faulttol, "_round_rates", partial(naive_round_rates, noisy_gate=False))
    assert distill(3, 0.0, 1e4) <= 1e-15
    # the finite-frequency gate leaves a small floor even at eps = 0
    monkeypatch.undo()
    assert 0.0 < distill(1, 0.0, 1e4) < 1e-3


def test_distill_without_a_whole_period_is_a_coin_toss():
    # at a subnormal frequency the gate spans no period and acts as the
    # identity, so the record says nothing about the input: both inputs
    # share their per-round rates; the period's infinite length must not
    # reach a unitary (warnings are errors here)
    p_fail = distill(3, 0.2, 1e-320)
    assert abs(p_fail - 0.5) < 1e-12
    rates = faulttol._round_rates(0.2, 1e-320)
    assert np.allclose(rates[0], rates[1], rtol=0, atol=1e-12)


def test_distill_weakly_decreasing_in_rounds():
    previous = None
    for n in (1, 3, 5, 7, 9):
        p = distill(n, 0.1, 1e4)
        if previous is not None:
            assert p <= previous + 1e-12
        previous = p


def test_distill_validation(monkeypatch):
    # every refusal comes before a round is propagated: an even count, and a
    # float count whole or not, before math.comb sees it; C(1030, 515)
    # overflows a double, while every C(1029, k) still fits
    def refuse(*_args):
        raise AssertionError("a round was propagated")

    monkeypatch.setattr(faulttol, "noco_state", refuse)
    nan, inf = float("nan"), float("inf")
    for args, message in (
        ((2, 0.1, 1e4), "rounds must be a positive odd integer, got 2"),
        ((2.5, 0.1, 1e4), "rounds must be a positive odd integer, got 2.5"),
        ((3.0, 0.1, 1e4), "rounds must be a positive odd integer, got 3.0"),
        ((1031, 0.1, 1e4), "rounds must be at most 1029, got 1031"),
        ((3, 1.2, 1e4), "eps must be in [0, 1], got 1.2"),
        ((3, nan, 1e4), "eps must be in [0, 1], got nan"),
        ((3, 0.1, 0.0), "freq_over_h must be finite and positive, got 0.0"),
        ((3, 0.1, nan), "freq_over_h must be finite and positive, got nan"),
        ((3, 0.1, inf), "freq_over_h must be finite and positive, got inf"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            distill(*args)
    # a budget, and so a threshold search, refuses through its distillation term
    for search, args, message in (
        (threshold, (1e3, 2.5), "rounds must be a positive odd integer, got 2.5"),
        (threshold, (nan, 3), "freq_over_h must be finite and positive, got nan"),
        (vacuum_error_budget, (1.2, 1e4, 3), "eps must be in [0, 1], got 1.2"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            search(*args)
    monkeypatch.undo()
    p_fail = distill(faulttol.MAX_ROUNDS, 0.1, 1e3)
    assert np.isfinite(p_fail) and 0.0 <= p_fail <= 0.5
    assert abs(class_total(faulttol._round_rates(0.1, 1e3), faulttol.MAX_ROUNDS) - 1.0) < 1e-9


def test_budget_composition():
    b = vacuum_error_budget(0.2, 1e4, 3)
    # two distillations, two x rotations, four phase gates on the data qubit
    assert list(b.terms) == [
        ("init_distill", "distill"), ("rx_1", "rx"), ("rzz", "rzz"),
        ("rx_2", "rx"), ("meas_distill", "distill"),
    ]
    t = b.terms
    assert t["init_distill", "distill"] == t["meas_distill", "distill"] == distill(3, 0.2, 1e4)
    assert t["rx_1", "rx"] == t["rx_2", "rx"]
    # the weight is read off the register map; the twirl of the dense
    # channel agrees to 2.1e-10 for both gates at this point
    for key, count in ((("rx_1", "rx"), 1), (("rzz", "rzz"), 4)):
        dense = realized_channel(key[1], 0.2, 1e4)
        expected = count * dense_phase_weight(dense, recipe(key[1]).target)
        assert t[key] == pytest.approx(expected, rel=1e-8)
    recon = 2 * t["init_distill", "distill"] + 2 * t["rx_1", "rx"] + t["rzz", "rzz"]
    assert abs(b.p_phase - recon) < 1e-15
    duration = 2 * 3 * recipe("rzz_prime").duration(0.2) \
        + 2 * recipe("rx").duration(0.2) + recipe("rzz").duration(0.2)
    assert abs(b.duration - duration) < 1e-12


def test_budget_with_decoupling_terms():
    b = vacuum_error_budget(0.2, 1e4, 3, include_decoupling=True)
    base = vacuum_error_budget(0.2, 1e4, 3)
    gate_terms = {key: b.terms[key] for key in base.terms}
    assert gate_terms == base.terms
    idle_weights = {key: w for key, w in b.terms.items() if key not in base.terms}
    assert list(idle_weights) == [
        ("init_distill", "heisenberg"), ("init_distill", "ising"), ("rx_1", "ising"),
        ("rzz", "heisenberg"), ("rx_2", "ising"),
        ("meas_distill", "heisenberg"), ("meas_distill", "ising"),
    ]
    # in schedule order, each gate before its idles
    assert [slot for slot, _ in b.terms] == [
        "init_distill", "init_distill", "init_distill", "rx_1", "rx_1",
        "rzz", "rzz", "rx_2", "rx_2", "meas_distill", "meas_distill", "meas_distill",
    ]
    assert all(weight >= 0.0 for weight in idle_weights.values())
    # four Ising neighbors idle through each x rotation
    # read off the register map; the dense channel's twirl agrees to 1.4e-10
    dense = zeno.noco_channel(IDLE_CYCLES["ising"], recipe("rx").duration(0.2), 1e4)
    residual = dense_phase_weight(dense, np.eye(4))
    assert idle_weights["rx_1", "ising"] == idle_weights["rx_2", "ising"]
    assert idle_weights["rx_1", "ising"] == pytest.approx(4 * residual, rel=1e-8)
    extra = sum(idle_weights.values())
    assert abs(b.p_phase - (base.p_phase + extra)) < 1e-15
    assert b.p_phase > base.p_phase


def test_budget_grows_with_noise():
    lo = vacuum_error_budget(0.1, 1e4, 3).p_phase
    hi = vacuum_error_budget(0.2, 1e4, 3).p_phase
    assert lo < hi


def test_error_rate_mapping():
    assert error_rate_mapping(0.201) == (0.1005, 0.15075)
    assert error_rate_mapping(0.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        error_rate_mapping(1.5)


def test_threshold_bracketing():
    point = threshold(1e4, 3)
    lo, hi = point.history[-1]
    assert hi - lo <= 1e-4
    assert lo <= point.eps_star <= hi
    assert point.iterations == len(point.history) - 1
    below = vacuum_error_budget(lo, 1e4, 3).p_phase
    above = vacuum_error_budget(hi, 1e4, 3).p_phase
    assert below < 0.03 <= above


def test_threshold_ends_at_adjacent_doubles(monkeypatch):
    # a tolerance below the float spacing at eps* used to bisect forever
    calls = []

    def p_phase(_search, eps, _classes):
        calls.append(eps)
        assert len(calls) < 500, "bisection does not end"
        return eps / 10.0

    monkeypatch.setattr(faulttol.ThresholdPass, "p_phase", p_phase)
    lo, hi = threshold(1e3, 1, bisect_tol=1e-20).history[-1]
    assert lo < hi == np.nextafter(lo, 1.0)
    assert lo / 10.0 < 0.03 <= hi / 10.0


def test_threshold_no_crossing():
    with pytest.raises(ThresholdError):
        threshold(1e3, 1, budget=1e-9)
    with pytest.raises(ThresholdError):
        threshold(1e3, 1, budget=10.0)


def test_threshold_non_monotone_budget(monkeypatch, capsys):
    # a budget that dips between two points of the 0.05 scan grid
    def p_phase(_search, eps, _classes):
        return 0.02 if 0.07 < eps < 0.12 else 0.01

    monkeypatch.setattr(faulttol.ThresholdPass, "p_phase", p_phase)
    with pytest.raises(ThresholdError, match="decreases"):
        threshold(1e3, 1)
    assert main(["threshold", "--freq_over_h", "1e3", "--rounds", "1"]) == 4
    assert "decreases" in capsys.readouterr().err


def test_threshold_validation():
    # a nan bisect_tol used to return the coarse bracket's midpoint after 0 steps
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget"):
            threshold(1e3, 1, budget=bad)
        with pytest.raises(ValueError, match="bisect_tol"):
            threshold(1e3, 1, bisect_tol=bad)


def ideal_gate_threshold(n: int, budget: float = 0.03) -> float:
    """eps* with ideal gates: the rate where 2 P[Binomial(n, q) > n/2] = budget.

    A round flips the readout with q = eps - eps^2/2, so this shares no code
    with the power path.  Plain bisection on [0, 0.5], where q is increasing.
    """
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2
        if 2 * binomial_p_fail(n, mid - mid * mid / 2) < budget:
            lo = mid
        else:
            hi = mid
    return lo


def test_threshold_approaches_the_ideal_gate_limit_as_one_over_f():
    # eps*(f) = eps*_inf - c_n / f + O(1/f^2): a finite drive lowers the threshold, and
    # f (eps*_inf - eps*) settles to a constant (about 84.7 at n 9, 112.0 at n 17)
    assert ideal_gate_threshold(9) == pytest.approx(0.2098463, abs=1e-7)
    assert ideal_gate_threshold(17) == pytest.approx(0.3032143, abs=1e-7)
    for n in (9, 17):
        limit = ideal_gate_threshold(n)
        scaled = {f: f * (limit - threshold(f, n, bisect_tol=1e-9).eps_star)
                  for f in (1e5, 3e5, 1e6)}
        assert all(c > 0 for c in scaled.values()), scaled
        assert all(abs(c / scaled[1e6] - 1) < 5e-3 for c in scaled.values()), scaled


@pytest.mark.xfail(strict=True, raises=ThresholdError, reason=(
    "ROADMAP item 4: at f 1e11 the float path's N-fold drift makes the budget fall "
    "between eps 0 and 0.05, so the scan refuses; item 14's affine map mends it"))
def test_threshold_reaches_the_ideal_gate_limit_at_f_1e11():
    point = threshold(1e11, 17)
    assert abs(point.eps_star - ideal_gate_threshold(17)) <= 1e-4, point.eps_star


def test_threshold_sweep_workers_agree():
    # threshold points mapped by the CLI's pool come back as the serial ones
    tasks = [(1e3, n, 0.03, 1e-3) for n in (1, 3)]
    serial = _map_tasks(threshold, tasks, workers=1)
    parallel = _map_tasks(threshold, tasks, workers=2)
    assert serial == parallel
    assert serial[0].eps_star < serial[1].eps_star


def _bits(point):
    """A threshold point's floats as hex strings, so equal means bit for bit."""
    return (float(point.eps_star).hex(), point.iterations,
            tuple((float(lo).hex(), float(hi).hex()) for lo, hi in point.history))


@pytest.mark.parametrize("freq_over_h, rounds, include_decoupling", [
    *((f, (1, 3, 9, 15, 17), False) for f in (1e3, 6524.44, 1e5)),
    *((f, (3, 5), True) for f in (1e4, 1e5)),
])
def test_a_pass_over_round_counts_equals_separate_searches(
        freq_over_h, rounds, include_decoupling):
    # the pass shares each eps's round-independent terms between its round
    # counts; a one-count search builds them afresh.  (1e4, 5) decoupled is
    # over budget at eps = 0, and the pass raises there as a lone search does
    search = faulttol.ThresholdPass(freq_over_h, include_decoupling=include_decoupling)
    for n in rounds:
        if (freq_over_h, n, include_decoupling) == (1e4, 5, True):
            with pytest.raises(ThresholdError, match="already above") as alone:
                threshold(freq_over_h, n, include_decoupling=include_decoupling)
            with pytest.raises(ThresholdError, match=f"^{re.escape(str(alone.value))}$"):
                search.threshold(n)
        else:
            alone = threshold(freq_over_h, n, include_decoupling=include_decoupling)
            assert _bits(search.threshold(n)) == _bits(alone)


def test_threshold_builds_each_channel_once(monkeypatch):
    # every budget term is one register propagation.  A pass keeps the terms
    # no round count changes, per eps, for all its round counts, so each
    # distinct eps propagates rx, rzz and the round rates once
    propagations = []
    original_state = faulttol.noco_state
    original_p_phase = faulttol.ThresholdPass.p_phase

    def refuse(*_args):
        raise AssertionError("full-system channel built")

    def counting_state(*args):
        propagations.append(args)
        return original_state(*args)

    evaluations = []

    def recording_p_phase(search, eps, classes):
        evaluations.append(eps)
        return original_p_phase(search, eps, classes)

    monkeypatch.setattr(zeno, "noco_channel", refuse)
    monkeypatch.setattr(gates, "noco_channel", refuse)
    monkeypatch.setattr(faulttol, "noco_state", counting_state)
    monkeypatch.setattr(faulttol.ThresholdPass, "p_phase", recording_p_phase)
    search = faulttol.ThresholdPass(1e3, bisect_tol=1e-3)
    for n in (15, 17):
        search.threshold(n)
    distinct = set(evaluations)
    assert len(distinct) < len(evaluations)  # the two counts share the scan at least
    assert len(propagations) == 3 * len(distinct)
    # decoupled, rx's and rzz's slots add one shared idle term each; the two
    # distillation idles last n rounds, so each evaluation propagates its own
    propagations.clear()
    evaluations.clear()
    search = faulttol.ThresholdPass(1e5, bisect_tol=1e-3, include_decoupling=True)
    for n in (3, 5):
        search.threshold(n)
    assert len(propagations) == 5 * len(set(evaluations)) + 2 * len(evaluations)
    # the decoupled schedule's 7 idle terms hold 4 distinct (interaction, gate)
    # pairs: both distillations share theirs, and both x rotations their Ising term
    for include_decoupling, calls in ((True, 7), (False, 3)):
        propagations.clear()
        vacuum_error_budget(0.1, 1e4, 3, include_decoupling)
        assert len(propagations) == calls, include_decoupling


def test_threshold_powers_no_map_above_16(monkeypatch):
    # every budget term powers a register map of one period: rx's on one
    # register qubit (4 x 4), and rzz's, rzz_prime's and the idle couplings'
    # on two (16 x 16); no register channel is realized
    sizes = []
    original_power = zeno.power_by_squaring

    def recording_power(base, n, mul):
        sizes.append(base.shape)
        return original_power(base, n, mul)

    def refuse(*_args):
        raise AssertionError("register channel realized")

    monkeypatch.setattr(zeno, "power_by_squaring", recording_power)
    monkeypatch.setattr(zeno, "noco_channel", refuse)
    monkeypatch.setattr(gates, "noco_channel", refuse)
    monkeypatch.setattr(gates, "realized_channel", refuse)
    for freq_over_h, rounds, include_decoupling in ((1e3, 9, False), (1e5, 5, True)):
        sizes.clear()
        threshold(freq_over_h, rounds, include_decoupling=include_decoupling)
        assert set(sizes) == {(4, 4), (16, 16)}


@given(st.integers(2, 3), st.integers(0, 2000), st.integers(0, 2 ** 32 - 1))
@example(3, 2000, 0)
def test_phase_weight_matches_the_dense_twirl_on_random_cycles(nqubits, n_periods, seed):
    # a Pauli twirl keeps the eigenvalue of X on register qubit 0, so one
    # propagated operator gives the Y/Z weight of the whole twirl, off the catalog too
    rng = np.random.default_rng(seed)
    na = int(rng.integers(1, nqubits))
    d, da = 2 ** nqubits, 2 ** na
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    spec = zeno.NoisyCycleSpec((m + m.conj().T) / 2.0, random_state(rng, da))
    g = rng.normal(size=(d // da, d // da)) + 1j * rng.normal(size=(d // da, d // da))
    target, _ = np.linalg.qr(g)
    f = 1e3
    duration = (n_periods + 0.5) * 2.0 * np.pi / f
    got = faulttol._phase_weight(spec, duration, f, target)
    dense = zeno.noco_channel(spec, duration, f)
    assert np.isclose(got, dense_phase_weight(dense, target), rtol=0, atol=1e-12)
