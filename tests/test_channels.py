import numpy as np
import pytest

from nocosim.channels import (
    apply_channel,
    check_cptp,
    depolarizing,
    depolarizing_kraus,
    entanglement_fidelity,
    kraus_to_superop,
    pauli_twirl,
    phase_flip_weight,
    superop_to_choi,
    unitary_channel,
)
from nocosim.qcore import (
    I2,
    SX,
    SZ,
    pauli_string_operator,
    pauli_strings,
    projector,
    unitary_evolution,
    vec,
)


def random_kraus_channel(rng, d, n_ops=3):
    """Random CPTP map from a Stinespring isometry."""
    m = rng.normal(size=(n_ops * d, d)) + 1j * rng.normal(size=(n_ops * d, d))
    q, _ = np.linalg.qr(m)
    return [q[i * d:(i + 1) * d, :] for i in range(n_ops)]


def test_unitary_channel_superop():
    u = unitary_evolution(SX, 0.6)
    ch = unitary_channel(u)
    assert np.allclose(ch, np.kron(u.conj(), u))
    check_cptp(ch)


def test_kraus_to_superop_equals_the_term_by_term_sum_exactly():
    rng = np.random.default_rng(11)
    for d in (2, 4, 8):
        for n_ops in (1, 2, 5, 11):
            ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                  for _ in range(n_ops)]
            expected = np.zeros((d * d, d * d), dtype=complex)
            for k in ks:
                expected += np.kron(k.conj(), k)
            assert np.array_equal(kraus_to_superop(ks), expected)
            assert np.array_equal(kraus_to_superop(tuple(ks)), expected)


def test_channel_shape_validation():
    # a superoperator must be d^2 x d^2 with d = 2^n; 8 x 8 is neither
    for refuse in (check_cptp, pauli_twirl, lambda s: apply_channel(s, I2),
                   lambda s: entanglement_fidelity(s, I2)):
        with pytest.raises(ValueError, match="not d\\^2 x d\\^2"):
            refuse(np.eye(8))


def test_depolarizing_action_and_fidelity():
    eps = 0.3
    ch = depolarizing(eps)
    rho = projector("0")
    out = apply_channel(ch, rho)
    assert np.allclose(out, (1 - eps) * rho + eps * I2 / 2.0, atol=1e-12)
    # overlap with the identity gate drops linearly at rate 3 eps / 4
    assert np.isclose(entanglement_fidelity(ch, I2), 1.0 - 0.75 * eps, atol=1e-12)
    with pytest.raises(ValueError):
        depolarizing(-0.1)
    with pytest.raises(ValueError):
        depolarizing(1.5)


def test_depolarizing_kraus_matches_superop():
    eps = 0.42
    assert np.allclose(
        kraus_to_superop(depolarizing_kraus(eps)), depolarizing(eps), atol=1e-12
    )


def test_choi_of_identity():
    c = superop_to_choi(np.eye(4, dtype=complex))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    assert np.allclose(c, expected)
    assert np.isclose(np.trace(c), 2.0)  # trace d for a trace-preserving map


def test_choi_reshuffle_involution():
    rng = np.random.default_rng(21)
    for d in (2, 4):
        s = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        assert np.allclose(superop_to_choi(superop_to_choi(s)), s, atol=1e-13)


def test_kraus_round_trip():
    rng = np.random.default_rng(22)
    for d in (2, 4):
        ks = random_kraus_channel(rng, d)
        s = kraus_to_superop(ks)
        check_cptp(s)
        choi = superop_to_choi(s)
        assert np.isclose(np.trace(choi).real, d, atol=1e-10)


def test_channel_from_kraus_validates():
    bad = [np.eye(2) * 0.5]
    with pytest.raises(ValueError):
        check_cptp(kraus_to_superop(bad))


def test_entanglement_fidelity_unitary():
    u = unitary_evolution(SZ + 0.3 * SX, 0.9)
    assert np.isclose(entanglement_fidelity(unitary_channel(u), u), 1.0, atol=1e-12)


def test_pauli_twirl_of_rotation():
    theta = 0.23
    ch = unitary_channel(unitary_evolution(SZ, theta))
    probs = pauli_twirl(ch)
    assert np.isclose(probs["I"], np.cos(theta) ** 2, atol=1e-12)
    assert np.isclose(probs["Z"], np.sin(theta) ** 2, atol=1e-12)
    assert np.isclose(sum(probs.values()), 1.0, atol=1e-12)
    # Z errors commute with z-basis storage but flip x and y eigenstates
    assert np.isclose(phase_flip_weight(probs), np.sin(theta) ** 2, atol=1e-12)
    assert np.isclose(probs["X"] + probs["Y"], 0.0, atol=1e-12)


def test_pauli_twirl_depolarizing():
    eps = 0.2
    probs = pauli_twirl(depolarizing(eps))
    assert np.isclose(probs["I"], 1.0 - 0.75 * eps, atol=1e-12)
    for p in "XYZ":
        assert np.isclose(probs[p], eps / 4.0, atol=1e-12)
    assert np.isclose(probs["X"] + probs["Y"], eps / 2.0, atol=1e-12)
    assert np.isclose(phase_flip_weight(probs), eps / 2.0, atol=1e-12)


def test_pauli_twirl_two_qubit_keys():
    ch = unitary_channel(np.kron(I2, I2))
    probs = pauli_twirl(ch)
    assert probs["II"] == pytest.approx(1.0)
    assert set(len(k) for k in probs) == {2}
    assert len(probs) == 16


def test_pauli_twirl_equals_direct_formula():
    # the cached Pauli table leaves every probability bitwise unchanged
    rng = np.random.default_rng(24)
    for n in (1, 2, 1, 2):
        ch = kraus_to_superop(random_kraus_channel(rng, 2 ** n))
        direct = {}
        for string in pauli_strings(n):
            p = pauli_string_operator(string)
            direct[string] = float(np.real(np.vdot(np.kron(p.conj(), p), ch)) / 4 ** n)
        assert pauli_twirl(ch) == direct


def test_apply_channel_matches_kraus_sum():
    rng = np.random.default_rng(23)
    ks = random_kraus_channel(rng, 2)
    ch = kraus_to_superop(ks)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    direct = sum(k @ rho @ k.conj().T for k in ks)
    assert np.allclose(apply_channel(ch, rho), direct, atol=1e-12)


def test_trace_preservation_check():
    ident = vec(np.eye(2, dtype=complex))
    ch = depolarizing(0.7)
    assert np.allclose(ch.conj().T @ ident, ident, atol=1e-12)
