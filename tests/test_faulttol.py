from dataclasses import replace
from decimal import Context
from itertools import product
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_reference import dense_phase_weight, idle_cycle, random_state
from nocosim import faulttol, gates, zeno
from nocosim.cli import _map_tasks, main
from nocosim.channels import depolarizing_kraus, unitary_channel
from nocosim.faulttol import (
    DistillationConfig,
    ThresholdError,
    error_rate_mapping,
    distill,
    threshold,
    vacuum_error_budget,
)
from nocosim.gates import RZZ_PRIME_TARGET, realized_channel, recipe
from nocosim.qcore import (
    I2,
    SX,
    embed_operator,
    partial_trace,
    projector,
    unvec,
    vec,
)


def binomial_p_fail(n: int, q: float) -> float:
    """Majority vote over n iid flips at rate q; Bayes optimal for iid rounds."""
    return sum(
        comb(n, k) * q ** k * (1 - q) ** (n - k) for k in range(n // 2 + 1, n + 1)
    )


def naive_distill(config: DistillationConfig):
    """Leaf-by-leaf enumeration with plain density matrices.

    Returns (p_fail, dict record index -> averaged record probability).
    """
    eps = config.eps
    anc = projector("+")
    if config.noisy_init:
        anc = sum(k @ anc @ k.conj().T for k in depolarizing_kraus(eps))
    if config.noisy_gate:
        s_gate = realized_channel("rzz_prime", eps, config.freq_over_h).superop
    else:
        s_gate = unitary_channel(RZZ_PRIME_TARGET)
    if config.noisy_meas:
        meas_kraus = [np.kron(I2, k) for k in depolarizing_kraus(eps)]
    else:
        meas_kraus = [np.eye(4, dtype=complex)]
    outcome_proj = {0: np.kron(I2, projector("+")), 1: np.kron(I2, projector("-"))}

    p_fail = 0.0
    record_probs = {}
    for record in product((0, 1), repeat=config.rounds):
        idx = sum(b << k for k, b in enumerate(record))
        ps = []
        for inp in ("0", "1"):
            rho = projector(inp)
            for bit in record:
                full = np.kron(rho, anc)
                full = unvec(s_gate @ vec(full), 4)
                full = sum(k @ full @ k.conj().T for k in meas_kraus)
                pr = outcome_proj[bit]
                full = pr @ full @ pr
                rho = partial_trace(full, 2, (0,))
            ps.append(float(np.trace(rho).real))
        p_fail += min(ps)
        record_probs[idx] = 0.5 * (ps[0] + ps[1])
    return 0.5 * p_fail, record_probs


def test_distill_matches_binomial_oracle():
    for n in (1, 3, 5):
        for eps in (0.1, 0.2):
            got = distill(DistillationConfig(
                rounds=n, eps=eps, freq_over_h=1e4,
                noisy_init=False, noisy_gate=False, noisy_meas=True,
            )).p_fail
            assert abs(got - binomial_p_fail(n, eps / 2.0)) < 1e-12
            got = distill(DistillationConfig(
                rounds=n, eps=eps, freq_over_h=1e4,
                noisy_init=True, noisy_gate=False, noisy_meas=True,
            )).p_fail
            q = eps * (1.0 - eps / 2.0)  # init and meas flips compose
            assert abs(got - binomial_p_fail(n, q)) < 1e-12


def test_distill_matches_leaf_enumeration():
    for config in (
        DistillationConfig(rounds=3, eps=0.25, freq_over_h=1e3),
        DistillationConfig(rounds=7, eps=0.15, freq_over_h=1e3, noisy_meas=False),
        DistillationConfig(rounds=9, eps=0.2, freq_over_h=1e4),
        # the remaining combinations of the three noise sources
        *(
            DistillationConfig(rounds=3, eps=0.2, freq_over_h=1e3, noisy_init=init,
                               noisy_gate=gate, noisy_meas=meas)
            for init, gate, meas in product((False, True), repeat=3)
            if not (init and gate)
        ),
    ):
        res = distill(config)
        p_naive, probs_naive = naive_distill(config)
        assert abs(res.p_fail - p_naive) < 1e-12
        assert len(probs_naive) == 2 ** config.rounds
        # a record's probability depends only on its count of "-" outcomes
        for idx, p in probs_naive.items():
            assert abs(res.class_probs[bin(idx).count("1")] - p) < 1e-12


def decimal_p_fail(config: DistillationConfig) -> float:
    """p_fail from the float per-round rates, summed in 60-digit decimal.

    Every C(n, k) is exact and the decimal exponent range reaches far below
    a double's, so no class term underflows.
    """
    ctx = Context(prec=60, Emin=-999999)
    n = config.rounds
    (a0, b0), (a1, b1) = ([ctx.create_decimal(float(r)) for r in row]
                          for row in faulttol._round_rates(config))
    total = sum(
        comb(n, k) * min(ctx.multiply(ctx.power(a0, n - k), ctx.power(b0, k)),
                         ctx.multiply(ctx.power(a1, n - k), ctx.power(b1, k)))
        for k in range(n + 1)
    )
    return float(total / 2)


def test_distill_large_rounds_against_decimal_oracle():
    # single class terms underflow a double long before p_fail does
    for n, eps in ((473, 0.05), (757, 0.2), (1029, 0.5)):
        config = DistillationConfig(rounds=n, eps=eps, freq_over_h=1e4)
        expected = decimal_p_fail(config)
        assert expected > 0.0
        got = distill(config).p_fail
        assert abs(got - expected) <= 1e-10 * expected, (n, eps, got, expected)


def test_distill_rejects_non_diagonal_round(monkeypatch):
    # an x field on the data qubit (qubit 2) breaks the per-class sum: it
    # no longer commutes with Z on the data qubit, so weight leaves the
    # data input's block
    rec = recipe("rzz_prime")
    tilted = replace(rec, hamiltonian=rec.hamiltonian + embed_operator(SX, (2,), 4))
    monkeypatch.setitem(gates._RECIPES, "rzz_prime", tilted)
    with pytest.raises(ValueError, match="off the data input"):
        distill(DistillationConfig(rounds=3, eps=0.1, freq_over_h=1e4))


def test_distill_many_rounds_stays_small():
    # 2^61 records would not fit in memory; the 62 classes do
    config = DistillationConfig(rounds=61, eps=0.2, freq_over_h=1e4, noisy_gate=False)
    res = distill(config)
    assert len(res.class_sizes) == len(res.class_probs) == 62
    assert abs(np.dot(res.class_sizes, res.class_probs) - 1.0) < 1e-12
    assert 0.0 < res.p_fail < 1e-6
    # the realized gate's trace drifts by 1e-14 to 1e-11 per round, so
    # its total is checked against the per-round rates, not against 1
    config = DistillationConfig(rounds=61, eps=0.2, freq_over_h=1e4)
    rates = faulttol._round_rates(config)
    expected = 0.5 * np.sum(rates.sum(axis=1) ** 61)
    res = distill(config)
    assert abs(np.dot(res.class_sizes, res.class_probs) - expected) < 1e-12


def test_distill_noiseless_classification_is_sharp():
    # with every source ideal the record determines the input exactly
    res = distill(DistillationConfig(
        rounds=3, eps=0.0, freq_over_h=1e4,
        noisy_init=False, noisy_gate=False, noisy_meas=False,
    ))
    live = res.class_probs > 1e-15
    assert np.all(np.isin(np.round(res.posteriors[live], 12), (0.0, 1.0)))


def test_distill_bookkeeping():
    res = distill(DistillationConfig(rounds=5, eps=0.3, freq_over_h=1e3))
    assert abs(np.dot(res.class_sizes, res.class_probs) - 1.0) < 1e-9
    assert 0.0 <= res.p_fail <= 0.5
    assert np.all(res.posteriors >= 0.0) and np.all(res.posteriors <= 1.0)
    assert len(res.class_sizes) == 6
    assert res.class_sizes.sum() == 2 ** 5


def test_distill_noiseless_sources():
    # with the gate ideal every record is deterministic and nothing fails
    res = distill(DistillationConfig(
        rounds=3, eps=0.0, freq_over_h=1e4, noisy_gate=False,
    ))
    assert res.p_fail <= 1e-15
    # the finite-frequency gate leaves a small floor even at eps = 0
    res = distill(DistillationConfig(rounds=1, eps=0.0, freq_over_h=1e4))
    assert 0.0 < res.p_fail < 1e-3


def test_distill_weakly_decreasing_in_rounds():
    previous = None
    for n in (1, 3, 5, 7, 9):
        p = distill(DistillationConfig(rounds=n, eps=0.1, freq_over_h=1e4)).p_fail
        if previous is not None:
            assert p <= previous + 1e-12
        previous = p


def test_distill_validation():
    # an even count, and a float count whole or not, is refused before math.comb sees it
    for rounds in (2, 2.5, 3.0):
        with pytest.raises(ValueError, match="positive odd integer"):
            DistillationConfig(rounds=rounds, eps=0.1, freq_over_h=1e4)
    with pytest.raises(ValueError, match="positive odd integer"):
        threshold(1e3, 2.5)
    with pytest.raises(ValueError):
        DistillationConfig(rounds=3, eps=1.2, freq_over_h=1e4)
    for f in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DistillationConfig(rounds=3, eps=0.1, freq_over_h=f)
    # C(1030, 515) overflows a double; every C(1029, k) still fits
    with pytest.raises(ValueError):
        DistillationConfig(rounds=1031, eps=0.1, freq_over_h=1e4)
    res = distill(DistillationConfig(rounds=faulttol.MAX_ROUNDS, eps=0.1, freq_over_h=1e3))
    assert np.isfinite(res.class_sizes).all()
    assert abs(np.dot(res.class_sizes, res.class_probs) - 1.0) < 1e-9


def test_budget_composition():
    b = vacuum_error_budget(0.2, 1e4, 3)
    assert b.idle_weights == {}
    w = b.gate_weights
    assert list(w) == ["distill", "rx", "rzz"]
    assert w["distill"] == distill(DistillationConfig(rounds=3, eps=0.2, freq_over_h=1e4)).p_fail
    # the weight is read off the register map; the twirl of the dense
    # channel agrees to 2.1e-10 for both gates at this point
    for gate in ("rx", "rzz"):
        dense = realized_channel(gate, 0.2, 1e4).superop
        assert w[gate] == pytest.approx(dense_phase_weight(dense, recipe(gate).target), rel=1e-8)
    # two distillations, two x rotations, four phase gates on the data qubit
    recon = 2 * w["distill"] + 2 * w["rx"] + 4 * w["rzz"]
    assert abs(b.p_phase - recon) < 1e-15
    t = 2 * 3 * recipe("rzz_prime").duration(0.2) \
        + 2 * recipe("rx").duration(0.2) + recipe("rzz").duration(0.2)
    assert abs(b.duration - t) < 1e-12


def test_budget_with_decoupling_terms():
    b = vacuum_error_budget(0.2, 1e4, 3, include_decoupling=True)
    base = vacuum_error_budget(0.2, 1e4, 3)
    assert b.gate_weights == base.gate_weights
    assert list(b.idle_weights) == [
        ("init_distill", "heisenberg"), ("init_distill", "ising"), ("rx_1", "ising"),
        ("rzz", "heisenberg"), ("rx_2", "ising"),
        ("meas_distill", "heisenberg"), ("meas_distill", "ising"),
    ]
    assert all(weight >= 0.0 for weight in b.idle_weights.values())
    # four Ising neighbors idle through each x rotation
    # read off the register map; the dense channel's twirl agrees to 1.4e-10
    run = zeno.noco_channel(idle_cycle("ising"), recipe("rx").duration(0.2), 1e4)
    residual = dense_phase_weight(run.superop, np.eye(4))
    assert b.idle_weights["rx_1", "ising"] == b.idle_weights["rx_2", "ising"]
    assert b.idle_weights["rx_1", "ising"] == pytest.approx(4 * residual, rel=1e-8)
    extra = sum(b.idle_weights.values())
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

    def budget(eps, *_args):
        calls.append(eps)
        assert len(calls) < 500, "bisection does not end"
        return SimpleNamespace(p_phase=eps / 10.0)

    monkeypatch.setattr(faulttol, "vacuum_error_budget", budget)
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
    def budget(eps, *_args):
        return SimpleNamespace(p_phase=0.02 if 0.07 < eps < 0.12 else 0.01)

    monkeypatch.setattr(faulttol, "vacuum_error_budget", budget)
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


def test_threshold_sweep_workers_agree():
    # a threshold sweep is faulttol.threshold mapped over the grid by the CLI's pool
    tasks = [(1e3, n, 0.03, 1e-3) for n in (1, 3)]
    serial = _map_tasks(threshold, tasks, workers=1)
    parallel = _map_tasks(threshold, tasks, workers=2)
    assert serial == parallel
    assert serial[0].eps_star < serial[1].eps_star


def test_threshold_builds_each_channel_once(monkeypatch):
    # every budget term is one register propagation, and none depends on rounds
    propagations = []
    original_state = faulttol.noco_state
    original_budget = faulttol.vacuum_error_budget

    def refuse(*_args):
        raise AssertionError("full-system channel built")

    def counting_state(*args):
        propagations.append(args)
        return original_state(*args)

    seen = set()

    def recording_budget(eps, *args):
        seen.add(float(eps))
        return original_budget(eps, *args)

    monkeypatch.setattr(zeno, "noco_channel", refuse)
    monkeypatch.setattr(gates, "noco_channel", refuse)
    monkeypatch.setattr(faulttol, "noco_state", counting_state)
    monkeypatch.setattr(faulttol, "vacuum_error_budget", recording_budget)
    for n in (15, 17):
        threshold(1e3, n, bisect_tol=1e-3)
    # per distinct eps: one propagation each for rx, rzz and the round rates
    assert len(propagations) == 3 * len(seen)
    # faulttol's memos, not gates, hold the terms the second round count reuses
    assert faulttol._gate_weight.cache_info().misses == 2 * len(seen)
    assert faulttol._round_rates.cache_info().misses == len(seen)
    # memoized, so shared by every caller: the rates are read-only
    rates = faulttol._round_rates(DistillationConfig(rounds=1, eps=0.2, freq_over_h=1e3))
    with pytest.raises(ValueError):
        rates[0, 0] = 0.0


def test_threshold_powers_no_map_above_16(monkeypatch):
    # every budget term powers a register map of one period: rx's on one
    # register qubit (4 x 4), and rzz's, rzz_prime's and the idle couplings'
    # on two (16 x 16); no register channel is realized
    sizes = []
    original_power = zeno.matrix_power_int

    def recording_power(m, n):
        sizes.append(m.shape)
        return original_power(m, n)

    def refuse(*_args):
        raise AssertionError("register channel realized")

    monkeypatch.setattr(zeno, "matrix_power_int", recording_power)
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
    dense = zeno.noco_channel(spec, duration, f).superop
    assert np.isclose(got, dense_phase_weight(dense, target), rtol=0, atol=1e-12)
