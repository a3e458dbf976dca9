import numpy as np
import pytest

from nocosim.channels import (
    apply_channel,
    check_cptp,
    depolarizing,
    depolarizing_kraus,
    initialization_kraus,
    kraus_to_superop,
)
from nocosim.gates import infidelity_surface, realized_channel, recipe
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
    fixed_state,
    noco_channel,
    period_count,
    period_superop,
    verify_projector,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

HEISENBERG = kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)



def noisy_init(eps):
    return kraus_to_superop(
        [d @ k for k in initialization_kraus() for d in depolarizing_kraus(eps)]
    )


def noisy_hadamard(eps):
    return kraus_to_superop([d @ HADAMARD for d in depolarizing_kraus(eps)])


def init_cycle(eps):
    return NoisyCycleSpec(HEISENBERG, noisy_init(eps))


def init_hadamard_cycle(eps_i, eps_h):
    return NoisyCycleSpec(HEISENBERG, noisy_hadamard(eps_h) @ noisy_init(eps_i))


def test_cycle_spec_validation():
    spec = NoisyCycleSpec(kron(SZ, SZ, SZ), noisy_init(0.1))
    assert (spec.n_actuators, spec.nqubits) == (1, 3)
    with pytest.raises(ValueError, match="hamiltonian shape"):
        NoisyCycleSpec(np.eye(6, dtype=complex), noisy_init(0.1))
    with pytest.raises(ValueError, match="hamiltonian shape"):
        NoisyCycleSpec(np.eye(4, dtype=complex)[:, :2], noisy_init(0.1))
    with pytest.raises(ValueError, match="superoperator shape"):
        NoisyCycleSpec(HEISENBERG, np.eye(8, dtype=complex))
    with pytest.raises(ValueError, match="no register qubit"):
        NoisyCycleSpec(np.eye(2, dtype=complex), noisy_init(0.1))
    with pytest.raises(ValueError, match="no register qubit"):
        NoisyCycleSpec(HEISENBERG, np.eye(16, dtype=complex))
    with pytest.raises(ValueError):
        period_count(-1.0, 1e4)
    # the period count of a phase gate at f = 1e308 overflows a float
    with pytest.raises(OverflowError, match=r"duration 1\.9\d* at freq_over_h 1e\+308"):
        period_count(np.pi / (2.0 * 0.8), 1e308)


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


def test_fixed_state_reset_cycle():
    rng = np.random.default_rng(30)
    for eps in rng.uniform(0.0, 1.0, size=8):
        fs = fixed_state(init_cycle(eps))
        assert np.allclose(fs.rho, np.diag([1.0 - eps / 2.0, eps / 2.0]), atol=1e-12)
        assert fs.defect < 1e-12


def test_fixed_state_hadamard_cycle():
    rng = np.random.default_rng(31)
    plus = projector("+")
    for eps_i, eps_h in rng.uniform(0.0, 1.0, size=(8, 2)):
        fs = fixed_state(init_hadamard_cycle(eps_i, eps_h))
        expected = (1 - eps_i) * (1 - eps_h) * plus + (
            eps_i + eps_h - eps_i * eps_h
        ) * I2 / 2.0
        assert np.allclose(fs.rho, expected, atol=1e-12)


def test_fixed_state_twirl_flag():
    spec = NoisyCycleSpec(HEISENBERG, depolarizing(1.0))
    assert np.allclose(fixed_state(spec).rho, I2 / 2.0, atol=1e-12)


def test_verify_projector():
    rng = np.random.default_rng(32)
    for eps in rng.uniform(0.0, 1.0, size=6):
        ok, defect = verify_projector(init_cycle(eps))
        assert ok and defect < 1e-12
        ok, defect = verify_projector(init_hadamard_cycle(eps, 1.0 - eps))
        assert ok and defect < 1e-12
    # partial depolarizing alone is not idempotent
    spec = NoisyCycleSpec(HEISENBERG, depolarizing(0.5))
    ok, defect = verify_projector(spec)
    assert not ok and defect > 1e-3


def test_effective_hamiltonian_closed_forms():
    rng = np.random.default_rng(33)
    ising = kron(SZ, SZ, SZ)
    for eps_i, eps_h in rng.uniform(0.0, 1.0, size=(10, 2)):
        hq = effective_hamiltonian(init_cycle(eps_i))
        assert np.allclose(hq, (1 - eps_i) * SZ, atol=1e-12)
        hq = effective_hamiltonian(init_hadamard_cycle(eps_i, eps_h))
        assert np.allclose(hq, (1 - eps_i) * (1 - eps_h) * SX, atol=1e-12)
        spec = NoisyCycleSpec(ising, noisy_init(eps_i))
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
