import inspect
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import (
    dense_phase_weight,
    idle_cycle,
    kraus_built_operations,
    pauli_twirl,
)
from nocosim import faulttol, gates, zeno
from nocosim.cli import _transfer_check_row
from nocosim.channels import (
    check_cptp,
    depolarizing,
    entanglement_fidelity,
    unitary_channel,
)
from nocosim.gates import (
    GATE_NAMES,
    RZ_TARGET,
    RZZ_PRIME_TARGET,
    RZZ_TARGET,
    depolarizing_fixed_states,
    noise_conditions,
    realized_channel,
    recipe,
    swap_identity_check,
    transfer_cphase_circuit,
    transfer_independence_report,
)
from nocosim.qcore import (
    I2,
    SZ,
    embed_superop,
    kron,
    projector,
    reduce_superop,
    unitary_evolution,
)
from nocosim.zeno import cycle_superop, noco_channel


def test_gate_catalog():
    # only driven gates: the idle couplings are gates.IDLE_HAMILTONIANS
    assert GATE_NAMES == ("phase_z", "rx", "rz", "rzz", "rzz_prime")
    for name in ("cnot", "decouple_ising"):
        with pytest.raises(ValueError):
            recipe(name)


def test_duration_rules():
    assert recipe("rz").duration(0.2) == pytest.approx(np.pi / (4 * 0.8))
    assert recipe("phase_z").duration(0.2) == pytest.approx(np.pi / (2 * 0.8))
    assert recipe("rx").duration(0.2) == pytest.approx(np.pi / (4 * 0.8 * 0.8))
    assert recipe("rzz").duration(0.5) == pytest.approx(np.pi / 2.0)
    assert recipe("rzz_prime").duration(0.0) == pytest.approx(np.pi / 4.0)
    with pytest.raises(ValueError, match="eps=1.0"):
        recipe("rz").duration(1.0)


def test_noiseless_high_frequency_limit():
    for name in ("rz", "phase_z", "rx", "rzz", "rzz_prime"):
        run = realized_channel(name, 0.0, 1e6)
        fid = entanglement_fidelity(run.superop, recipe(name).target)
        assert fid > 1.0 - 1e-4, name


def test_noisy_duration_compensation():
    # the stretched duration compensates the polarization loss: the noisy
    # gate still converges to the same target as the frequency grows
    run = realized_channel("rz", 0.4, 1e6)
    assert entanglement_fidelity(run.superop, RZ_TARGET) > 1.0 - 1e-3


def test_swap_identity():
    chk = swap_identity_check()
    assert chk.deviation < 1e-10
    assert chk.halftime_deviation > 1.0


def test_controlled_phase_decomposition():
    # undoing the single-qubit phases of the two-qubit rotation leaves a
    # controlled-Z up to global phase
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    lam = kron(RZ_TARGET.conj().T, I2) @ kron(I2, RZ_TARGET.conj().T) @ RZZ_TARGET
    assert np.isclose(abs(lam[0, 0]), 1.0, atol=1e-12)
    assert np.allclose(lam * lam[0, 0].conj(), cz, atol=1e-12)


def test_rzz_prime_target_action():
    # ancilla starts at |+>: data |1> leaves it there, data |0> flips it to |->
    for data, anc_out in (("0", "-"), ("1", "+")):
        state = kron(projector(data), projector("+"))
        out = RZZ_PRIME_TARGET @ state @ RZZ_PRIME_TARGET.conj().T
        assert np.allclose(out, kron(projector(data), projector(anc_out)), atol=1e-12)


def test_rzz_prime_hamiltonian_shape():
    h = recipe("rzz_prime").hamiltonian
    assert h.shape == (16, 16)
    assert np.allclose(h, h.conj().T)
    spec = recipe("rzz_prime").cycle(0.0)
    assert (spec.n_actuators, spec.nqubits) == (2, 4)


def test_actuator_maps_replace_the_actuator_state():
    # every catalog cycle forgets the actuator's input: the replacement map
    # vec(rho_U) vec(I)^dag of the recipe's state is the Kraus-built operation
    # bit for bit, and the pinned gate-error rows depend on those bits
    for name in GATE_NAMES:
        rec = recipe(name)
        for eps in np.linspace(0.0, 0.99, 100):
            spec = rec.cycle(eps)
            ops = embed_superop(
                kraus_built_operations(name, eps), range(spec.n_actuators), spec.nqubits
            )
            assert np.array_equal(cycle_superop(spec), ops), (name, eps)
    # so is the fully depolarizing actuator of the idle couplings, with rho_U = I/2
    spec = idle_cycle("ising")
    assert np.array_equal(cycle_superop(spec), embed_superop(depolarizing(1.0), (0,), 3))


def test_driven_cycles_refuse_rates_outside_the_depolarizing_range():
    # the actuators build their Kraus sets directly, so the range check sits there
    for name in ("rz", "phase_z", "rx", "rzz", "rzz_prime"):
        for eps in (-0.1, 1.4):
            with pytest.raises(ValueError, match="depolarizing rate"):
                recipe(name).cycle(eps)


@given(
    st.sampled_from(("rz", "phase_z", "rx", "rzz", "rzz_prime")),
    st.floats(0.0, 0.9),
    st.floats(3e2, 3e3),
)
def test_realized_channels_stay_cptp(name, eps, f):
    realized = realized_channel(name, eps, f)
    check_cptp(realized.superop)
    # the error channel E with realized = E o ideal
    check_cptp(realized.superop @ unitary_channel(recipe(name).target).conj().T)


def test_gate_error_channel_is_small_at_low_noise():
    realized = realized_channel("rz", 0.0, 1e5)
    err = realized.superop @ unitary_channel(RZ_TARGET).conj().T
    assert entanglement_fidelity(err, I2) > 1.0 - 1e-3
    check_cptp(err)


def test_decouple_single_period_residuals():
    f = 400.0
    dt = 2.0 * np.pi / f
    # twirled Ising neighbor: one period leaves a ZZ rotation pair whose
    # twirl weight is sin^2(dt)
    run = noco_channel(idle_cycle("ising"), dt, f)
    assert run.n_periods == 1
    probs = pauli_twirl(run.superop)
    assert np.isclose(probs["ZZ"], np.sin(dt) ** 2, atol=1e-12)
    assert np.isclose(probs["II"], np.cos(dt) ** 2, atol=1e-12)
    assert np.isclose(dense_phase_weight(run.superop, np.eye(4)), np.sin(dt) ** 2, atol=1e-12)
    # the budget reads the same weight off the register map
    assert np.isclose(faulttol._idle_weight("ising", dt, f), np.sin(dt) ** 2, rtol=0, atol=1e-12)
    # twirled exchange coupling: one period depolarizes at sin^2(2 dt)
    run = noco_channel(idle_cycle("heisenberg"), dt, f)
    probs = pauli_twirl(run.superop)
    s = np.sin(2.0 * dt) ** 2
    for p in "XYZ":
        assert np.isclose(probs[p], s / 4.0, atol=1e-12)
    assert np.isclose(dense_phase_weight(run.superop, I2), s / 2.0, atol=1e-12)
    assert np.isclose(faulttol._idle_weight("heisenberg", dt, f), s / 2.0, rtol=0, atol=1e-12)


def test_transfer_ideal_independence():
    rep = transfer_independence_report(unitary_channel(RZZ_TARGET))
    assert rep.max_pair_distance < 1e-10
    assert rep.max_distance_to_rzz < 1e-10


def test_transfer_finite_frequency():
    rep = transfer_independence_report(realized_channel("rzz", 0.2, 1e3).superop)
    # the realized phase gate is z-diagonal, so the reduced channel stays
    # independent of the parked states even though it deviates from ideal
    assert rep.max_pair_distance < 1e-8
    assert 1e-3 < rep.max_distance_to_rzz < 0.1
    circuit = transfer_cphase_circuit(realized_channel("rzz", 0.2, 1e3).superop)
    check_cptp(reduce_superop(circuit, 4, (1, 3), kron(I2 / 2.0, projector("+"))))


def test_transfer_report_realizes_the_gate_once(monkeypatch):
    # the realized gate does not depend on the probe states
    calls = []
    original = gates.realized_channel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gates, "realized_channel", counting)
    _transfer_check_row("finite_frequency", 0.2, 1e3)
    assert calls == [("rzz", 0.2, 1e3)]


def test_realized_channel_stays_traceable():
    # a span tracer binds realized_channel's arguments to read the gate name,
    # and rebinds a function by identity in every module that imports it:
    # no module may hold a copy of its own
    bound = inspect.signature(gates.realized_channel).bind("rzz", 0.2, 1e3)
    assert bound.arguments["name"] == "rzz"
    modules = [m for name, m in sys.modules.items() if name.startswith("nocosim.")]
    for defining, fn in ((gates, "realized_channel"), (zeno, "noco_state")):
        holders = [m for m in modules if fn in vars(m)]
        assert all(vars(m)[fn] is getattr(defining, fn) for m in holders)
    assert faulttol.noco_state is zeno.noco_state


def test_transfer_ideal_matches_rzz_unitary():
    s_rzz = unitary_channel(RZZ_TARGET)
    circuit = transfer_cphase_circuit(s_rzz)
    ch = reduce_superop(circuit, 4, (1, 3), kron(projector("+"), projector("1")))
    assert np.linalg.norm(ch - s_rzz) < 1e-10


def test_depolarizing_fixed_states_forms():
    eps = 0.3
    rho_i, rho_h, rho_s = depolarizing_fixed_states(eps)
    assert np.allclose(rho_i, np.diag([1 - eps / 2, eps / 2]), atol=1e-12)
    assert np.allclose(rho_s, rho_i, atol=1e-12)
    expected_h = (1 - eps) ** 2 * projector("+") + (2 * eps - eps ** 2) * I2 / 2
    assert np.allclose(rho_h, expected_h, atol=1e-12)


def test_noise_conditions_depolarizing_family():
    for eps in np.arange(0.1, 0.95, 0.1):
        res = noise_conditions(*depolarizing_fixed_states(eps))
        assert res.pass_c1 and res.pass_c2, eps
    res = noise_conditions(*depolarizing_fixed_states(1.0))
    assert not res.pass_c1 and not res.pass_c2


def test_noise_conditions_degenerate_cases():
    # parallel polarizations fail the cross product condition
    rho = np.diag([0.9, 0.1]).astype(complex)
    res = noise_conditions(rho, rho, rho)
    assert not res.pass_c1
    assert res.pass_c2
    # unpolarized square actuator fails the z condition
    rho_i, rho_h, _ = depolarizing_fixed_states(0.2)
    res = noise_conditions(rho_i, rho_h, depolarizing_fixed_states(1.0)[2])
    assert res.pass_c1
    assert not res.pass_c2


def test_effective_rotation_angle_tracks_duration():
    # halving the drive duration halves the realized rotation angle
    full = realized_channel("rz", 0.0, 1e5)
    half = noco_channel(recipe("rz").cycle(0.0), recipe("rz").duration(0.0) / 2, 1e5)
    u_half = unitary_evolution(SZ, np.pi / 8.0)
    assert entanglement_fidelity(half.superop, u_half) > 1.0 - 1e-4
    assert entanglement_fidelity(full.superop, u_half) < 0.99
