import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_reference import (
    cycle_superop,
    dense_noco_channel,
    noisy_hadamard,
    noisy_init,
    period_superop,
    prepared_state,
    random_cycle,
    random_state,
)
from nocosim import zeno
from nocosim.channels import apply_channel, check_cptp, depolarizing
from nocosim.faulttol import IDLE_CYCLES
from nocosim.gates import (
    GATE_NAMES,
    H_HEISENBERG,
    infidelity_surface,
    realized_channel,
    recipe,
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
    noco_state,
    period_count,
    replacement_images,
    verify_projector,
)

HEISENBERG = kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)


def init_cycle(eps):
    return NoisyCycleSpec(HEISENBERG, prepared_state(noisy_init(eps)))


def init_hadamard_cycle(eps_i, eps_h):
    return NoisyCycleSpec(HEISENBERG, prepared_state(noisy_hadamard(eps_h) @ noisy_init(eps_i)))


def test_cycle_spec_validation():
    rho = prepared_state(noisy_init(0.1))
    spec = NoisyCycleSpec(kron(SZ, SZ, SZ), rho)
    assert (spec.n_actuators, spec.nqubits) == (1, 3)
    with pytest.raises(ValueError, match="hamiltonian shape"):
        NoisyCycleSpec(np.eye(6, dtype=complex), rho)
    with pytest.raises(ValueError, match="hamiltonian shape"):
        NoisyCycleSpec(np.eye(4, dtype=complex)[:, :2], rho)
    # eigh reads only the lower triangle, so this one would evolve as the identity
    upper = np.zeros((4, 4), dtype=complex)
    upper[0, 1] = 1.0
    for h in (upper, 1j * HEISENBERG):
        with pytest.raises(ValueError, match="not Hermitian"):
            NoisyCycleSpec(h, rho)
    for bad in (np.eye(3) / 3.0, np.ones((1, 1)), np.eye(2)[:, :1], vec(rho)):
        with pytest.raises(ValueError, match="actuator state shape"):
            NoisyCycleSpec(HEISENBERG, bad)
    with pytest.raises(ValueError, match="no register qubit"):
        NoisyCycleSpec(np.eye(2, dtype=complex), rho)
    with pytest.raises(ValueError, match="no register qubit"):
        NoisyCycleSpec(HEISENBERG, np.eye(4, dtype=complex) / 4.0)
    with pytest.raises(ValueError):
        period_count(-1.0, 1e4)
    # the period count of a phase gate at f = 1e308 overflows a float
    with pytest.raises(OverflowError, match=r"duration 1\.9\d* at freq_over_h 1e\+308"):
        period_count(np.pi / (2.0 * 0.8), 1e308)


def test_cycle_spec_refuses_an_actuator_state_that_is_not_a_density_matrix():
    # an unnormalized I used to drive the dense channel to entries near 1e48
    h = H_HEISENBERG
    non_hermitian = np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex)
    for bad in (I2, non_hermitian, np.diag([1.5, -0.5])):
        with pytest.raises(ValueError, match="not a density matrix"):
            NoisyCycleSpec(h, bad)
    # the idle actuator, a Kraus-built reset's state, and a state within the
    # tolerance of a density matrix pass
    for rho in (I2 / 2.0, prepared_state(noisy_init(0.3)), np.diag([1.0 + 5e-13, -5e-13])):
        NoisyCycleSpec(h, rho)


def test_period_count_refuses_non_finite_input():
    # a nan count used to fail the 2^53 test and be reported as an overflow
    nan, inf = float("nan"), float("inf")
    for duration, f in ((nan, 1e4), (1.0, nan), (inf, 1e4), (1.0, inf)):
        with pytest.raises(ValueError, match="finite"):
            period_count(duration, f)
    with pytest.raises(ValueError, match="duration nan"):
        realized_channel("rz", nan, 1e3)


def test_period_count_exact_multiples():
    f = 1e4
    dt = 2.0 * np.pi / f
    for n in (1, 12, 12500, 300001):
        # duration equal to a whole number of periods must not lose one to
        # float dust
        assert period_count(n * dt, f) == n
    assert period_count(12.49 * dt, f) == 12
    assert period_count(0.3 * dt, f) == 0
    # rz at eps = 0 runs pi/4, so f/8 periods; from about 1.1e6 periods up the
    # float spacing exceeds an absolute 1e-9 nudge, so the nudge scales with the count
    t = recipe("rz").duration(0.0)
    for f in (8e6, 8e7, 8e8, 8e9, 8e10, 8e11, 8e12, 8e13, 8e14):
        assert period_count(t, f) == f / 8
    # from 2^50 periods up the relative nudge reaches a whole period; a whole
    # count still stays put
    for k in (50, 51, 52):
        assert period_count(2.0 * np.pi, 2.0 ** k) == 2 ** k


def test_period_count_gate_durations():
    # phase gate at eps = 0.8 runs for pi / (2 (1 - eps)) = 2.5 pi
    t = np.pi / (2.0 * 0.2)
    assert period_count(t, 1.5e4) == 18750
    assert period_count(t, 1.0e4) == 12500


def fixed_point_defect(ops, rho):
    return np.linalg.norm(ops @ vec(rho) - vec(rho))


def test_fixed_state_reset_cycle():
    rng = np.random.default_rng(30)
    for eps in rng.uniform(0.0, 1.0, size=8):
        ops = noisy_init(eps)
        rho = prepared_state(ops)
        assert np.allclose(rho, np.diag([1.0 - eps / 2.0, eps / 2.0]), atol=1e-12)
        assert fixed_point_defect(ops, rho) < 1e-12


def test_fixed_state_hadamard_cycle():
    rng = np.random.default_rng(31)
    plus = projector("+")
    for eps_i, eps_h in rng.uniform(0.0, 1.0, size=(8, 2)):
        ops = noisy_hadamard(eps_h) @ noisy_init(eps_i)
        rho = prepared_state(ops)
        expected = (1 - eps_i) * (1 - eps_h) * plus + (
            eps_i + eps_h - eps_i * eps_h
        ) * I2 / 2.0
        assert np.allclose(rho, expected, atol=1e-12)
        assert fixed_point_defect(ops, rho) < 1e-12


def test_fixed_state_twirl_flag():
    rho = prepared_state(depolarizing(1.0))
    assert np.allclose(rho, I2 / 2.0, atol=1e-12)
    assert fixed_point_defect(depolarizing(1.0), rho) < 1e-12


def test_verify_projector():
    rng = np.random.default_rng(32)
    for eps in rng.uniform(0.0, 1.0, size=6):
        ok, defect = verify_projector(noisy_init(eps))
        assert ok and defect < 1e-12
        ok, defect = verify_projector(noisy_hadamard(1.0 - eps) @ noisy_init(eps))
        assert ok and defect < 1e-12
    # partial depolarizing alone is not idempotent
    ok, defect = verify_projector(depolarizing(0.5))
    assert not ok and defect > 1e-3


def test_effective_hamiltonian_closed_forms():
    rng = np.random.default_rng(33)
    ising = kron(SZ, SZ, SZ)
    for eps_i, eps_h in rng.uniform(0.0, 1.0, size=(10, 2)):
        hq = effective_hamiltonian(init_cycle(eps_i))
        assert np.allclose(hq, (1 - eps_i) * SZ, atol=1e-12)
        hq = effective_hamiltonian(init_hadamard_cycle(eps_i, eps_h))
        assert np.allclose(hq, (1 - eps_i) * (1 - eps_h) * SX, atol=1e-12)
        spec = NoisyCycleSpec(ising, prepared_state(noisy_init(eps_i)))
        hq = effective_hamiltonian(spec)
        assert np.allclose(hq, (1 - eps_i) * kron(SZ, SZ), atol=1e-12)


def test_noco_channel_matches_step_propagation():
    rng = np.random.default_rng(34)
    eps = 0.3
    spec = init_cycle(eps)
    f = 200.0
    dt = 2.0 * np.pi / f
    s_ops = cycle_superop(spec)
    u = unitary_evolution(HEISENBERG, dt)
    s_flight = np.kron(u.conj(), u)
    for n in (1, 7, 64):
        run = noco_channel(spec, (n + 0.5) * dt, f)
        assert run.n_periods == n
        assert np.isclose(run.residual_time, 0.5 * dt)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_r = m @ m.conj().T
        rho_r /= np.trace(rho_r)
        sigma = vec(np.kron(I2 / 2.0, rho_r))
        for _ in range(n):
            sigma = s_flight @ (s_ops @ sigma)
        expected = partial_trace(unvec(sigma, 4), 2, (1,))
        assert np.allclose(apply_channel(run.superop, rho_r), expected, atol=1e-10)


def test_noco_channel_is_trace_preserving():
    run = noco_channel(init_cycle(0.4), 1.3, 500.0)
    check_cptp(run.superop)
    assert run.superop.shape == (4, 4)  # the one register qubit


def test_period_superop_composition_order():
    # one period is ops first, free flight second
    spec = init_cycle(0.2)
    dt = 0.05
    u = unitary_evolution(HEISENBERG, dt)
    expected = np.kron(u.conj(), u) @ cycle_superop(spec)
    assert np.allclose(period_superop(spec, dt), expected, atol=1e-14)


def distinct_columns(spec):
    """The columns of the dense operations map at the inputs |0 r><0 r'|, r + d_r r' ascending."""
    d, dr = 2 ** spec.nqubits, 2 ** (spec.nqubits - spec.n_actuators)
    r = np.arange(dr)
    return cycle_superop(spec)[:, (r + d * r[:, None]).ravel()]


def test_replacement_images_are_the_dense_operations_columns():
    # each image entry is a rho_U entry times an exact 0 or 1, as in the
    # dense embedding, so the two agree in every bit
    for gate in GATE_NAMES:
        rec = recipe(gate)
        for eps in np.linspace(0.0, 0.99, 100):
            spec = rec.cycle(eps)
            assert np.array_equal(replacement_images(spec), distinct_columns(spec)), (gate, eps)
    for interaction, spec in IDLE_CYCLES.items():
        assert np.array_equal(replacement_images(spec), distinct_columns(spec)), interaction


@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
@example(4, 0)
def test_replacement_images_are_the_dense_operations_columns_on_random_cycles(nqubits, seed):
    spec = random_cycle(np.random.default_rng(seed), nqubits)
    images = replacement_images(spec)
    assert images.shape == (4 ** nqubits, 4 ** (nqubits - spec.n_actuators))
    assert np.array_equal(images, distinct_columns(spec))


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_noco_channel_equals_dense_powering(gate):
    # the distinct columns of each power, with the full left operand rebuilt
    # for every product, give the dense chain's every bit
    rec = recipe(gate)
    for eps, f in product((0.0, 0.2, 0.5), (1e3, 1e4, 1e5, 1e6)):
        spec, duration = rec.cycle(eps), rec.duration(eps)
        got = noco_channel(spec, duration, f).superop
        assert np.array_equal(got, dense_noco_channel(spec, duration, f)), (eps, f)


@given(st.integers(2, 4), st.integers(0, 2000), st.integers(0, 2 ** 32 - 1))
@example(4, 2000, 0)
@example(4, 0, 0)
def test_noco_channel_equals_dense_powering_on_random_cycles(nqubits, n_periods, seed):
    spec = random_cycle(np.random.default_rng(seed), nqubits)
    f = 1e3
    duration = (n_periods + 0.5) * 2.0 * np.pi / f
    run = noco_channel(spec, duration, f)
    assert run.n_periods == n_periods
    assert np.array_equal(run.superop, dense_noco_channel(spec, duration, f))


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_noco_channel_without_a_whole_period_is_the_identity(gate):
    # the column form has no zeroth power; the dense chain's reduced identity
    # is exactly the register identity
    spec = recipe(gate).cycle(0.2)
    dr = 2 ** (spec.nqubits - spec.n_actuators)
    f = 1e3
    for duration in (0.0, 0.5 * 2.0 * np.pi / f, 0.999 * 2.0 * np.pi / f):
        run = noco_channel(spec, duration, f)
        assert run.n_periods == 0
        assert run.residual_time == duration
        assert np.array_equal(run.superop, np.eye(dr * dr))
        assert np.array_equal(run.superop, dense_noco_channel(spec, duration, f))


def test_noco_channel_at_a_subnormal_frequency_builds_no_period(monkeypatch):
    # 2 pi / f is inf at f = 1e-320: no period unitary, and the residual is
    # the whole duration, not duration - 0 * inf = nan
    def refuse(*_args):
        raise AssertionError("period unitary computed")

    monkeypatch.setattr(zeno, "unitary_evolution", refuse)
    rec = recipe("rz")
    run = noco_channel(rec.cycle(0.2), rec.duration(0.2), 1e-320)
    assert run.n_periods == 0
    assert run.residual_time == rec.duration(0.2)
    assert np.array_equal(run.superop, np.eye(4))


def refuse_embedding(monkeypatch, refuse):
    """Make ``embed_superop`` raise in every loaded nocosim module that holds
    it: the dense operations map on the full system is an embedding."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "nocosim" and hasattr(module, "embed_superop"):
            monkeypatch.setattr(module, "embed_superop", refuse)


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_noco_channel_powers_only_the_distinct_columns(gate, monkeypatch):
    # every product's right operand is the d_r^2 distinct columns of a power
    # of the period map: never the dense d^2 x d^2 map, nor matrix_power_int;
    # the chain starts from the replacement images, so the dense operations
    # map is never built either
    shapes = []
    original = zeno.power_by_squaring

    def recording_power(base, n, mul):
        def recording_mul(x, y):
            shapes.append(y.shape)
            return mul(x, y)

        shapes.append(base.shape)
        return original(base, n, recording_mul)

    def refuse(*_args):
        raise AssertionError("dense map built or powered")

    monkeypatch.setattr(zeno, "matrix_power_int", refuse)
    refuse_embedding(monkeypatch, refuse)
    monkeypatch.setattr(zeno, "power_by_squaring", recording_power)
    spec = recipe(gate).cycle(0.2)
    nq, na = spec.nqubits, spec.n_actuators
    run = realized_channel(gate, 0.2, 1e4)
    assert run.n_periods > 1000
    assert len(shapes) > 10
    assert set(shapes) == {(4 ** nq, 4 ** (nq - na))}


def test_noco_channel_holds_one_full_system_array():
    # the period map is built before the powering buffer, and the reduction
    # reads that buffer through views: the parent peaked at 2.26 buffers
    rec = recipe("rzz_prime")
    spec, duration = rec.cycle(0.2), rec.duration(0.2)
    noco_channel(spec, duration, 1e4)  # warm numpy's first-call allocations
    tracemalloc.start()
    try:
        noco_channel(spec, duration, 1e4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    d2 = 4 ** spec.nqubits
    assert peak < 1.5 * d2 * d2 * np.dtype(complex).itemsize


def test_infidelity_surface():
    eps_values = [0.0, 0.4]
    freq_values = [1e3, 1e4]
    infid, counts = infidelity_surface(eps_values, freq_values, "phase_z")
    assert infid.shape == (2, 2)
    assert counts.shape == (2, 2)
    assert counts.dtype.kind == "i"
    # tenfold frequency cuts the error roughly tenfold
    assert infid[1, 1] < infid[1, 0] / 3.0
    assert infid[0, 1] < infid[0, 0]


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_noco_state_matches_dense_channel_and_steps(gate):
    # measured worst entry differences: 5.4e-14 against the dense channel
    # and 2.7e-13 against period-by-period steps (up to 5000 periods)
    rng = np.random.default_rng(36)
    rec = recipe(gate)
    for eps, f in product((0.0, 0.2, 0.5), (1e3, 1e4)):
        spec, duration = rec.cycle(eps), rec.duration(eps)
        na, nq = spec.n_actuators, spec.nqubits
        da, dr = 2 ** na, 2 ** (nq - na)
        sigmas = [random_state(rng, dr) for _ in range(2)]
        got = noco_state(spec, duration, f, sigmas)
        dense = noco_channel(spec, duration, f).superop
        u = unitary_evolution(spec.hamiltonian, 2.0 * np.pi / f)
        s_flight, s_ops = np.kron(u.conj(), u), cycle_superop(spec)
        v = np.stack([vec(np.kron(np.eye(da) / da, sigma)) for sigma in sigmas], axis=1)
        for _ in range(period_count(duration, f)):
            v = s_flight @ (s_ops @ v)
        for k, sigma in enumerate(sigmas):
            assert np.allclose(got[k], apply_channel(dense, sigma), rtol=0, atol=1e-12)
            stepped = partial_trace(unvec(v[:, k], 2 ** nq), nq, range(na, nq))
            assert np.allclose(got[k], stepped, rtol=0, atol=1e-12)


def test_noco_state_powers_one_register_map(monkeypatch):
    # the rzz_prime actuators are re-prepared every period, so the two
    # distillation inputs go through one 16 x 16 register map, and no
    # full-system map, not even the operations', is ever built
    rec = recipe("rzz_prime")
    shapes = []
    original = zeno.matrix_power_int

    def recording_power(m, n):
        shapes.append(m.shape)
        return original(m, n)

    def refuse(*_args):
        raise AssertionError("full-system map built")

    monkeypatch.setattr(zeno, "matrix_power_int", recording_power)
    refuse_embedding(monkeypatch, refuse)
    inputs = [np.kron(projector(x), projector("+")) for x in "01"]
    for eps, f in ((0.27, 6524.0), (0.0, 1e3)):
        shapes.clear()
        noco_state(rec.cycle(eps), rec.duration(eps), f, inputs)
        assert shapes == [(16, 16)]


@given(st.integers(2, 3), st.integers(0, 2000), st.integers(0, 2 ** 32 - 1))
@example(3, 2000, 0)
def test_noco_state_matches_noco_channel_on_random_cycles(nqubits, n_periods, seed):
    rng = np.random.default_rng(seed)
    spec = random_cycle(rng, nqubits)
    f = 1e3
    duration = (n_periods + 0.5) * 2.0 * np.pi / f
    assert period_count(duration, f) == n_periods
    sigma = random_state(rng, 2 ** (spec.nqubits - spec.n_actuators))
    (got,) = noco_state(spec, duration, f, [sigma])
    expected = apply_channel(noco_channel(spec, duration, f).superop, sigma)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


def test_noco_state_edges(monkeypatch):
    rec = recipe("rzz_prime")
    spec = rec.cycle(0.2)
    sigma = random_state(np.random.default_rng(37), 4)
    with pytest.raises(ValueError, match="register state shape"):
        noco_state(spec, 1.0, 1e3, [np.eye(2)])
    # without a whole period, and from 2^53 periods up, no period unitary is
    # computed: at a subnormal frequency 2 pi / f is inf and its unitary NaN
    def refuse(*_args):
        raise AssertionError("period unitary computed")

    monkeypatch.setattr(zeno, "unitary_evolution", refuse)
    # no whole period: each operator comes back as a complex copy, bit for bit
    sigmas = [sigma, np.kron(projector("1"), projector("+"))]
    for duration, f in ((0.5 * 2.0 * np.pi / 1e3, 1e3), (rec.duration(0.2), 1e-320)):
        assert period_count(duration, f) == 0
        for got, original in zip(noco_state(spec, duration, f, sigmas), sigmas):
            assert got.dtype == complex and not np.shares_memory(got, original)
            assert np.array_equal(got, original)
    with pytest.raises(OverflowError, match="freq_over_h 1e\\+308"):
        noco_state(spec, rec.duration(0.2), 1e308, [sigma])


def test_noco_state_reads_a_one_shot_iterable_once():
    # the shape check must not consume a generator, with or without a whole period
    rec = recipe("rzz_prime")
    spec = rec.cycle(0.2)
    sigmas = [random_state(np.random.default_rng(38), 4), np.kron(projector("1"), projector("+"))]
    for duration in (rec.duration(0.2), 0.5 * 2.0 * np.pi / 1e3):
        listed = noco_state(spec, duration, 1e3, sigmas)
        generated = noco_state(spec, duration, 1e3, (sigma for sigma in sigmas))
        assert len(generated) == len(listed) == 2
        for got, expected in zip(generated, listed):
            assert np.array_equal(got, expected)
