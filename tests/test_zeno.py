from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_reference import noisy_hadamard, noisy_init, prepared_state, random_state
from nocosim import zeno
from nocosim.channels import apply_channel, check_cptp, depolarizing
from nocosim.gates import (
    GATE_NAMES,
    IDLE_HAMILTONIANS,
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
    cycle_superop,
    effective_hamiltonian,
    noco_channel,
    noco_state,
    period_count,
    period_superop,
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
    h = IDLE_HAMILTONIANS["heisenberg"]
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
            stepped = partial_trace(unvec(v[:, k]), nq, range(na, nq))
            assert np.allclose(got[k], stepped, rtol=0, atol=1e-12)


def test_noco_state_powers_one_register_map(monkeypatch):
    # the rzz_prime actuators are re-prepared every period, so the two
    # distillation inputs go through one 16 x 16 register map, and the
    # 256 x 256 period map is never built
    rec = recipe("rzz_prime")
    shapes = []
    original = zeno.matrix_power_int

    def recording_power(m, n):
        shapes.append(m.shape)
        return original(m, n)

    def refuse(*_args):
        raise AssertionError("full-system period map built")

    monkeypatch.setattr(zeno, "matrix_power_int", recording_power)
    monkeypatch.setattr(zeno, "period_superop", refuse)
    inputs = [np.kron(projector(x), projector("+")) for x in "01"]
    for eps, f in ((0.27, 6524.0), (0.0, 1e3)):
        shapes.clear()
        noco_state(rec.cycle(eps), rec.duration(eps), f, inputs)
        assert shapes == [(16, 16)]


@given(st.integers(2, 3), st.integers(0, 2000), st.integers(0, 2 ** 32 - 1))
@example(3, 2000, 0)
def test_noco_state_matches_noco_channel_on_random_cycles(nqubits, n_periods, seed):
    # a random Hamiltonian with a random re-prepared actuator state, off the catalog
    rng = np.random.default_rng(seed)
    na = int(rng.integers(1, nqubits))
    d, da = 2 ** nqubits, 2 ** na
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    spec = NoisyCycleSpec((m + m.conj().T) / 2.0, random_state(rng, da))
    f = 1e3
    duration = (n_periods + 0.5) * 2.0 * np.pi / f
    assert period_count(duration, f) == n_periods
    sigma = random_state(rng, d // da)
    (got,) = noco_state(spec, duration, f, [sigma])
    expected = apply_channel(noco_channel(spec, duration, f).superop, sigma)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


def test_noco_state_edges(monkeypatch):
    rec = recipe("rzz_prime")
    spec = rec.cycle(0.2)
    sigma = random_state(np.random.default_rng(37), 4)
    # no whole period: the register state comes back unchanged
    (got,) = noco_state(spec, 0.5 * 2.0 * np.pi / 1e3, 1e3, [sigma])
    assert np.allclose(got, sigma, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="register state shape"):
        noco_state(spec, 1.0, 1e3, [np.eye(2)])
    # 2^53 periods and more are refused before the period's unitary is computed
    def refuse(*_args):
        raise AssertionError("period unitary computed")

    monkeypatch.setattr(zeno, "unitary_evolution", refuse)
    with pytest.raises(OverflowError, match="freq_over_h 1e\\+308"):
        noco_state(spec, rec.duration(0.2), 1e308, [sigma])
