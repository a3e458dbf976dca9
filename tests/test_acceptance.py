"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Each criterion prints a [PASS]/[FAIL] line (collected into the pytest
terminal summary by conftest) and asserts, so a red criterion is visible
both inline and in the summary block.
"""

from functools import partial
from itertools import product
from math import comb, exp, log

import numpy as np
import pytest
from conftest import record
from dense_reference import (
    RZ_PI8,
    cycle_superop,
    naive_round_rates,
    noisy_hadamard,
    noisy_init,
    prepared_state,
)

from nocosim import faulttol
from nocosim.channels import apply_channel, unitary_channel
from nocosim.cli import main as cli_main
from nocosim.faulttol import (
    ThresholdError,
    distill,
    error_rate_mapping,
    threshold,
    vacuum_error_budget,
)
from nocosim.gates import (
    GATE_NAMES,
    RX_TARGET,
    RZZ_TARGET,
    depolarizing_fixed_states,
    infidelity_surface,
    noise_conditions,
    realized_channel,
    swap_identity_check,
    transfer_independence_report,
)
from nocosim.qcore import (
    I2,
    SX,
    SY,
    SZ,
    kron,
    partial_trace,
    projector,
    unitary_evolution,
    unvec,
    vec,
)
from nocosim.zeno import (
    NoisyCycleSpec,
    effective_hamiltonian,
    noco_channel,
    verify_projector,
)


def check(label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {label}: {detail}"
    print(line)
    record(line)
    assert ok, line


H_HEIS = kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)
H_ISING = kron(SZ, SZ, SZ)


def _init_cycle(eps):
    return NoisyCycleSpec(H_HEIS, prepared_state(noisy_init(eps)))


def _init_h_cycle(eps_i, eps_h):
    return NoisyCycleSpec(H_HEIS, prepared_state(noisy_hadamard(eps_h) @ noisy_init(eps_i)))


def _ising_cycle(eps):
    return NoisyCycleSpec(H_ISING, prepared_state(noisy_init(eps)))


def test_criterion_1_effective_hamiltonian_closed_forms():
    rng = np.random.default_rng(101)
    worst = 0.0
    for eps_i, eps_h in rng.uniform(0.0, 1.0, size=(20, 2)):
        d1 = np.max(np.abs(effective_hamiltonian(_init_cycle(eps_i)) - (1 - eps_i) * SZ))
        d2 = np.max(np.abs(
            effective_hamiltonian(_init_h_cycle(eps_i, eps_h))
            - (1 - eps_i) * (1 - eps_h) * SX
        ))
        d3 = np.max(np.abs(
            effective_hamiltonian(_ising_cycle(eps_i)) - (1 - eps_i) * kron(SZ, SZ)
        ))
        worst = max(worst, d1, d2, d3)
    check(1, worst <= 1e-12,
          f"effective Hamiltonians match closed forms, worst dev {worst:.2e} (tol 1e-12)")


def test_criterion_2_projector_property():
    rng = np.random.default_rng(102)
    worst = 0.0
    for eps_i, eps_h in rng.uniform(0.0, 1.0, size=(10, 2)):
        _, d1 = verify_projector(noisy_init(eps_i))
        _, d2 = verify_projector(noisy_hadamard(eps_h) @ noisy_init(eps_i))
        worst = max(worst, d1, d2)
    check(2, worst <= 1e-10,
          f"per-period actuator maps idempotent, worst defect {worst:.2e} (tol 1e-10)")


def test_criterion_3_phase_gate_fidelity_surface():
    eps_grid = [0.0, 0.2, 0.4, 0.6, 0.8]
    freq_grid = [1.5e3, 4.74e3, 1.5e4, 4.74e4, 1.5e5]
    infid, _ = infidelity_surface(eps_grid, freq_grid, "phase_z")
    f_hi = 1.0 - infid[4, 2]   # eps 0.8, 1.5e4
    f_lo = 1.0 - infid[4, 0]   # eps 0.8, 1.5e3
    mono_eps = np.all(np.diff(infid, axis=0) >= -1e-9)
    mono_freq = np.all(np.diff(infid, axis=1) <= 1e-9)
    ok = f_hi >= 0.989 and f_lo < 0.99 and mono_eps and mono_freq
    check(3, ok,
          f"phase gate F={f_hi:.5f} at 1.5e4 (>=0.989), F={f_lo:.5f} at 1.5e3 (<0.99), "
          f"infidelity monotone in eps {bool(mono_eps)} and in 1/freq {bool(mono_freq)}")


def test_criterion_4_inverse_frequency_convergence():
    freqs = np.array([1e3, 1e4, 1e5, 1e6])
    infid, _ = infidelity_surface([0.2], freqs, "phase_z")
    slope = np.polyfit(np.log(freqs), np.log(infid[0]), 1)[0]
    check(4, abs(slope + 1.0) <= 0.1,
          f"log-infidelity slope vs log frequency {slope:.4f} (target -1 +/- 0.1)")


def test_criterion_5_swap_and_transfer():
    deviation, _ = swap_identity_check()
    max_pair_distance, max_distance_to_rzz = transfer_independence_report(
        unitary_channel(RZZ_TARGET))
    ok = (deviation <= 1e-10
          and max_pair_distance <= 1e-10
          and max_distance_to_rzz <= 1e-10)
    check(5, ok,
          f"swap identity dev {deviation:.2e}, transfer spread "
          f"{max_pair_distance:.2e}, distance to two-qubit phase target "
          f"{max_distance_to_rzz:.2e} (tol 1e-10)")


def test_criterion_6_oracle_equivalence(monkeypatch):
    rng = np.random.default_rng(106)
    spec = _init_cycle(0.35)
    f = 150.0
    dt = 2.0 * np.pi / f
    s_ops = cycle_superop(spec)
    u = unitary_evolution(H_HEIS, dt)
    s_flight = np.kron(u.conj(), u)
    worst_prop = 0.0
    for n in (1, 7, 64):
        s = noco_channel(spec, (n + 0.25) * dt, f)
        for _ in range(3):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            sigma = vec(np.kron(I2 / 2.0, rho))
            for _ in range(n):
                sigma = s_flight @ (s_ops @ sigma)
            stepped = partial_trace(unvec(sigma, 4), 2, (1,))
            dev = np.max(np.abs(apply_channel(s, rho) - stepped))
            worst_prop = max(worst_prop, dev)

    # readout noise alone, at the rates of the dense round: the library
    # runs only the all-noisy round
    monkeypatch.setattr(faulttol, "_round_rates", partial(
        naive_round_rates, noisy_init=False, noisy_gate=False))
    worst_distill = 0.0
    for n in (1, 3, 5):
        got = distill(n, 0.2, 1e4)
        q = 0.1
        expected = sum(
            comb(n, k) * q ** k * (1 - q) ** (n - k) for k in range(n // 2 + 1, n + 1)
        )
        worst_distill = max(worst_distill, abs(got - expected))
    ok = worst_prop <= 1e-10 and worst_distill <= 1e-12
    check(6, ok,
          f"power-contraction vs stepped propagation dev {worst_prop:.2e} (tol 1e-10); "
          f"distillation vs binomial oracle dev {worst_distill:.2e} (tol 1e-12)")


def test_criterion_7_distillation_behavior(monkeypatch):
    # the ideal-gate rounds come from the dense round; the library runs
    # only the all-noisy one, which the monotonicity check below uses
    monkeypatch.setattr(faulttol, "_round_rates", partial(naive_round_rates, noisy_gate=False))
    p_zero = distill(3, 0.0, 1e4)
    monkeypatch.setattr(faulttol, "_round_rates", partial(
        naive_round_rates, noisy_init=False, noisy_gate=False))
    p_028 = distill(3, 0.2, 1e4)
    monkeypatch.undo()
    decreasing = True
    previous = None
    for n in (1, 3, 5, 7, 9):
        p = distill(n, 0.1, 1e4)
        if previous is not None and p > previous + 1e-12:
            decreasing = False
        previous = p
    ok = p_zero <= 1e-15 and abs(p_028 - 0.028) <= 1e-12 and decreasing
    check(7, ok,
          f"p_fail at zero noise {p_zero:.2e}; three-round readout-noise value "
          f"{p_028:.12f} (target 0.028); weakly decreasing in rounds {decreasing}")


_STARS = {}


def _eps_star(freq, rounds):
    key = (freq, rounds)
    if key not in _STARS:
        _STARS[key] = threshold(freq, rounds).eps_star
    return _STARS[key]


def test_criterion_8a_threshold_band():
    star = _eps_star(1e4, 17)
    ok = 0.16 <= star <= 0.24
    check("8a", ok,
          f"eps* = {star:.4f} at freq 1e4, 17 rounds (band [0.16, 0.24]); "
          "the no-idle budget lands above the band, see notes on error accounting")


def test_criterion_8b_threshold_orderings():
    by_rounds = [_eps_star(1e4, n) for n in (9, 11, 13, 15, 17)]
    by_freq = [_eps_star(f, 17) for f in (1e3, 1e4, 1e5)]
    inc_rounds = all(b > a for a, b in zip(by_rounds, by_rounds[1:]))
    inc_freq = all(b > a for a, b in zip(by_freq, by_freq[1:]))
    check("8b", inc_rounds and inc_freq,
          f"eps* increasing in rounds {[f'{s:.4f}' for s in by_rounds]} and "
          f"in frequency {[f'{s:.4f}' for s in by_freq]}")


def _ideal_gate_eps_star(rounds, budget=0.03):
    """Threshold with ideal gates, f -> infinity: 2 P(majority of n rounds flips) = budget.

    A round then flips only through the noisy |+> preparation and readout,
    eps/2 each, so q = eps - eps^2/2.
    """
    def p_phase(eps):
        q = eps - eps * eps / 2.0
        return 2.0 * sum(comb(rounds, k) * q ** k * (1.0 - q) ** (rounds - k)
                         for k in range(rounds // 2 + 1, rounds + 1))

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if p_phase(mid) < budget else (lo, mid)
    return 0.5 * (lo + hi)


def test_threshold_below_ideal_gate_limit():
    # finite-frequency gates only add error, so each threshold lies below the
    # ideal-gate one (up to the bisection tolerance 1e-4), closer as f grows
    limits = {n: _ideal_gate_eps_star(n) for n in (9, 11, 13, 15, 17)}
    points = [(1e4, n) for n in limits] + [(1e3, 17), (1e5, 17)]
    over = {p: _eps_star(*p) - limits[p[1]] for p in points}
    assert all(d < 1e-4 for d in over.values()), over
    gaps = [limits[17] - _eps_star(f, 17) for f in (1e3, 1e4, 1e5)]
    assert gaps[0] > gaps[1] > gaps[2], gaps


def test_criterion_9_error_rate_mapping():
    got = error_rate_mapping(0.201)
    ok = got == (0.1005, 0.15075)
    check(9, ok, f"rate 0.201 maps to {got} (expected exactly (0.1005, 0.15075))")


def test_headline_operations_below_ninety_percent_fidelity():
    # the abstract's claim: at the (1e4, 17) threshold every noisy operation is
    # below 90% fidelity, while every realized register gate is above 99%
    star = _eps_star(1e4, 17)
    p_prep, p_unitary = error_rate_mapping(star)
    f_prep, f_unitary = 1.0 - p_prep, 1.0 - p_unitary
    gate_errors = {name: float(infidelity_surface([star], [1e4], name)[0][0, 0])
                   for name in GATE_NAMES}
    worst = max(gate_errors, key=gate_errors.get)
    ok = f_prep < 0.9 and f_unitary < 0.9 and gate_errors[worst] <= 0.01
    check("9 (headline)", ok,
          f"at eps* = {star:.5f} (freq 1e4, 17 rounds) preparation/readout fidelity "
          f"{f_prep:.3f} and unitary fidelity {f_unitary:.3f} (both < 0.9); worst "
          f"realized gate {worst} 1 - F = {gate_errors[worst]:.2e} (<= 0.01)")


def test_pi8_injection_below_the_distillation_threshold():
    # universality: the distilled |0> (its p_fail as a flip), turned to the
    # equator by the realized rx and rotated by the realized pi/8 gate, is a
    # magic state that 15-to-1 distillation accepts below about 0.14 input
    # error (Bravyi and Kitaev, PRA 71, 022316, 2005) at every sweep point;
    # measured worst 1.50e-2 at (1e5, 9).  A raw preparation at the (1e4, 17)
    # threshold errs with eps*/2 = 0.1459, not below that mark
    ideal = RZ_PI8.target @ RX_TARGET @ np.array([1.0, 0.0])
    errors = {}
    # the default threshold sweep's 25 points
    for f, n in product((1e3, 3e3, 1e4, 3e4, 1e5), (9, 11, 13, 15, 17)):
        star = _eps_star(f, n)
        p = distill(n, star, f)
        rho = (1.0 - p) * projector("0") + p * projector("1")
        rho = apply_channel(realized_channel("rx", star, f), rho)
        rotation = noco_channel(RZ_PI8.cycle(star), RZ_PI8.duration(star), f)
        rho = apply_channel(rotation, rho)
        errors[f, n] = 1.0 - float(np.real(np.vdot(ideal, rho @ ideal)))
    worst = max(errors, key=errors.get)
    raw = _eps_star(1e4, 17) / 2.0
    ok = errors[worst] < 0.14 <= raw
    check("9 (pi/8 injection)", ok,
          f"injected pi/8 state error at most {errors[worst]:.2e} at (freq, rounds) "
          f"{worst} over the default sweep (< 0.14, the 15-to-1 threshold); raw "
          f"preparation error eps*/2 = {raw:.4f} at (1e4, 17) (>= 0.14)")


def _f_min(rounds, eps=0.2, tol=1e-4):
    """(f, threshold calls): the lowest drive frequency whose eps* reaches ``eps``.

    Bisects log f over [5e2, 1e5] to ``tol``; a failed threshold search
    counts as below.  It assumes eps* rises with f, which
    ``test_threshold_does_not_fall_along_f_at_the_ninety_percent_mark`` finds
    false near 1,446 J/h at 17 rounds; both crossings there lie within 1%.
    """
    lo, hi = log(5e2), log(1e5)
    calls = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        try:
            reached = threshold(exp(mid), rounds).eps_star >= eps
        except ThresholdError:
            reached = False
        lo, hi = (lo, mid) if reached else (mid, hi)
        calls += 1
    return exp(0.5 * (lo + hi)), calls


def test_ninety_percent_mark_as_a_drive_frequency():
    # eps 0.2 is preparation and readout fidelity 0.9 (error_rate_mapping);
    # measured 8,736 J/h at 9 rounds and 1,450.6 J/h at 17, 16 calls each
    assert _f_min(9) == (pytest.approx(8736.0, rel=1e-2), 16)
    assert _f_min(17) == (pytest.approx(1450.6, rel=1e-2), 16)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: the dropped residual period makes eps* fall along f at 17 rounds, "
    "0.199658 at f 1445.0 -> 0.199365 at 1446.0, where rx goes from 281 to 282 periods"))
def test_threshold_does_not_fall_along_f_at_the_ninety_percent_mark():
    below, above = (threshold(f, 17).eps_star for f in (1445.0, 1446.0))
    assert above >= below, (below, above)


def test_criterion_10_schedule_duration():
    duration_over_h = vacuum_error_budget(0.201, 1e4, 17).duration / (2.0 * np.pi)
    ok = duration_over_h <= 7.0
    check(10, ok, f"schedule duration {duration_over_h:.4f} inverse drive units (<= 7)")


def test_criterion_11_noise_admissibility():
    all_pass = all(
        all(noise_conditions(*depolarizing_fixed_states(eps))[2:])
        for eps in np.arange(0.1, 0.95, 0.1)
    )
    fail_one = not any(noise_conditions(*depolarizing_fixed_states(1.0))[2:])
    ok = all_pass and fail_one
    check(11, ok,
          f"depolarizing family passes both conditions up to 0.9 ({all_pass}) "
          f"and fails both at 1.0 ({fail_one})")


def test_criterion_12_cli_determinism(tmp_path):
    pairs = []
    for tag, args in (
        ("distill", ["distill", "--rounds", "1,3", "--epsilon", "0.1,0.2",
                     "--freq_over_h", "1e3"]),
        ("gate-error", ["gate-error", "--epsilon", "0.1,0.2",
                        "--freq_over_h", "1e3,3e3"]),
    ):
        texts = []
        for run_id, workers in enumerate(("1", "2")):
            out = tmp_path / f"{tag}_{run_id}.csv"
            code = cli_main(args + ["--workers", workers, "--out", str(out)])
            assert code == 0
            texts.append(out.read_text(encoding="utf-8"))
        pairs.append(texts[0] == texts[1])
    check(12, all(pairs),
          f"reruns byte-identical across worker counts: distill {pairs[0]}, "
          f"gate-error {pairs[1]}")
