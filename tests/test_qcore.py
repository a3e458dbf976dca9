import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import dense_reduce_superop, matrix_power_int
from nocosim import qcore
from nocosim.channels import kraus_to_superop
from nocosim.qcore import (
    I2,
    SX,
    SY,
    SZ,
    embed_operator,
    embed_superop,
    hermitian_eigh,
    ket,
    kron,
    partial_trace,
    pauli_coefficients,
    pauli_string_operator,
    power_by_squaring,
    projector,
    reduce_superop,
    unitary_evolution,
    unvec,
    vec,
)


def random_state(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_pauli_algebra():
    for s in (SX, SY, SZ):
        assert np.allclose(s @ s, I2)
        assert np.allclose(s, s.conj().T)
    assert np.allclose(SX @ SY, 1j * SZ)
    assert np.allclose(SX @ SY + SY @ SX, 0.0)


def test_kets_and_projectors():
    assert np.allclose(ket("0"), [1.0, 0.0])
    assert np.allclose(ket("+"), np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(ket("01"), np.kron(ket("0"), ket("1")))
    p = projector("+-")
    assert np.allclose(p, p.conj().T)
    assert np.allclose(p @ p, p)
    assert np.isclose(np.trace(p), 1.0)


def test_kron_variadic():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0])
    c = np.diag([5.0, 6.0])
    assert np.allclose(kron(a, b, c), np.kron(a, np.kron(b, c)))
    assert np.allclose(kron(a), a)


def test_kron_equals_numpy_kron_exactly():
    rng = np.random.default_rng(7)

    def op(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for da, db in ((1, 2), (2, 2), (2, 4), (4, 8), (8, 2), (16, 16)):
        a, b = op(da, da), op(db, db)
        for x, y in ((a, b), (a.T, b), (a, b.conj().T), (a.real, b)):
            assert np.array_equal(kron(x, y), np.kron(x, y))
        assert np.array_equal(kron(a, b, a), np.kron(np.kron(a, b), a))
        v, w = op(da), op(db)
        assert np.array_equal(kron(v, w), np.kron(v, w))
    with pytest.raises(ValueError):
        kron(op(2), op(2, 2))


def test_partial_trace_product_states():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ra = random_state(rng, 2)
        rb = random_state(rng, 4)
        full = np.kron(ra, rb)
        assert np.allclose(partial_trace(full, 3, (0,)), ra, atol=1e-12)
        assert np.allclose(partial_trace(full, 3, (1, 2)), rb, atol=1e-12)


def test_partial_trace_interleaved_keep():
    rng = np.random.default_rng(8)
    ra = random_state(rng, 2)
    rb = random_state(rng, 2)
    rc = random_state(rng, 2)
    full = kron(ra, rb, rc)
    # the kept qubits come out in sorted order, whatever order keep lists them in
    for keep in ((0, 2), (2, 0)):
        assert np.allclose(partial_trace(full, 3, keep), np.kron(ra, rc), atol=1e-12)
    # trace is preserved for arbitrary inputs
    m = random_state(rng, 8)
    assert np.isclose(np.trace(partial_trace(m, 3, (1,))), 1.0)


def test_unitary_evolution():
    u = unitary_evolution(SZ, 0.3)
    assert np.allclose(u, np.diag([np.exp(-0.3j), np.exp(0.3j)]))
    rng = np.random.default_rng(9)
    for _ in range(5):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = m + m.conj().T
        u = unitary_evolution(h, 0.7)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        # composite of half steps
        uh = unitary_evolution(h, 0.35)
        assert np.allclose(uh @ uh, u, atol=1e-12)


def test_unitary_evolution_refuses_a_bad_hamiltonian_on_every_call():
    # eigh reads only one triangle, so [[0, 1], [0, 0]] evolved as the
    # identity, and diag(inf, 0) as an all-NaN matrix
    before = qcore._eigh.cache_info().currsize
    for h, message in (([[0, 1], [0, 0]], "is not Hermitian"),
                       (np.diag([np.inf, 0.0]), "has a non-finite entry")):
        for _ in range(2):  # a refusal is not kept
            with pytest.raises(ValueError, match=f"^hamiltonian {message}$"):
                unitary_evolution(h, 0.3)
    assert qcore._eigh.cache_info().currsize == before


def test_hermitian_eigh_is_read_only_and_bounded():
    w, v = hermitian_eigh(SZ)
    for array in (w, v):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # keyed by the entries, not the array: an equal copy reads the same pair
    assert hermitian_eigh(SZ.copy())[1] is v
    rng = np.random.default_rng(37)
    for _ in range(100):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary_evolution(m + m.conj().T, 0.1)
    info = qcore._eigh.cache_info()
    assert info.currsize <= info.maxsize


def test_bloch_vector_half_normalization():
    # Bloch components are the X/Y/Z Pauli coefficients p_k = tr(sigma_k rho) / 2,
    # so pure states sit at radius 1/2
    def bloch(rho):
        return [pauli_coefficients(rho)[k] for k in "XYZ"]

    assert np.allclose(bloch(projector("0")), [0.0, 0.0, 0.5])
    assert np.allclose(bloch(projector("+")), [0.5, 0.0, 0.0])
    assert np.allclose(bloch(I2 / 2.0), [0.0, 0.0, 0.0])


def test_embed_operator():
    assert np.allclose(embed_operator(SX, (1,), 3), kron(I2, SX, I2))
    # permuted placement: ZX on positions (2, 0) means X at 0 and Z at 2
    zx = pauli_string_operator("ZX")
    direct = kron(SX, I2, SZ)
    assert np.allclose(embed_operator(zx, (2, 0), 3), direct)
    rng = np.random.default_rng(10)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    emb = embed_operator(op, (0, 1), 2)
    assert np.allclose(emb, op)
    # a position must be a whole number in [0, n); a fractional one would
    # otherwise fail inside numpy's reshape
    for positions in ((2.5,), (3,), (-1,), (float("nan"),)):
        with pytest.raises(ValueError, match="^bad positions"):
            embed_operator(SX, positions, 3)
        with pytest.raises(ValueError, match="^bad positions"):
            embed_superop(np.eye(4), positions, 3)
    with pytest.raises(ValueError, match="^bad positions"):
        embed_operator(np.eye(4), (1, 1.0), 3)
    # whole floats are read as integers
    assert np.array_equal(embed_operator(SX, (1.0,), 3), embed_operator(SX, (1,), 3))
    s = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(embed_superop(s, (2.0,), 3), embed_superop(s, (2,), 3))


def test_vec_column_stacking():
    rho = np.arange(4.0).reshape(2, 2)
    assert np.allclose(vec(rho), [0.0, 2.0, 1.0, 3.0])  # column major
    assert np.allclose(unvec(vec(rho), 2), rho)
    with pytest.raises(ValueError, match="not 2 squared"):
        unvec(np.zeros(5), 2)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    x = rng.normal(size=(3, 3))
    # vec(A X B) = (B^T kron A) vec(X) under column stacking
    assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b), atol=1e-12)


def test_matrix_power_int():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(5, 5)) / 3.0
    z = m + 1j * rng.normal(size=(5, 5)) / 3.0
    for n in (0, 1, 2, 7, 64):
        assert np.allclose(matrix_power_int(m, n), np.linalg.matrix_power(m, n), atol=1e-10)
        assert np.allclose(matrix_power_int(z, n), np.linalg.matrix_power(z, n), atol=1e-10)
    assert np.array_equal(matrix_power_int(z, 0), np.eye(5))
    one = matrix_power_int(z, 1)
    assert one is not z and np.array_equal(one, z)


def test_power_by_squaring_order():
    # each square comes before the product that takes it: for 13 = 0b1101
    # the result starts at z, then takes z^4 (z^5) and z^8 (z^13)
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x + y  # exponents add

    assert power_by_squaring(1, 13, mul) == 13
    assert calls == [(1, 1), (2, 2), (1, 4), (4, 4), (5, 8)]
    assert power_by_squaring(1, 12, mul) == 12
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            power_by_squaring(1, bad, mul)


def test_pauli_string_operator():
    assert np.allclose(pauli_string_operator("XZ"), np.kron(SX, SZ))
    assert np.allclose(pauli_string_operator("I"), I2)
    with pytest.raises(ValueError):
        pauli_string_operator("Q")


def test_pauli_coefficients_reconstruct():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = m + m.conj().T
    coeffs = pauli_coefficients(h)
    assert list(coeffs)[:3] == ["II", "IX", "IY"]
    rebuilt = sum(c * pauli_string_operator(s) for s, c in coeffs.items())
    assert np.allclose(rebuilt, h, atol=1e-12)


def test_pauli_coefficients_refuses_a_shape_that_is_not_2n_by_2n():
    # a 2 x 4 array returned coefficients; 3 x 3 and 1 x 1 failed inside numpy
    for shape in ((2, 4), (3, 3), (1, 1), (0, 0), (4,), (2, 2, 2), ()):
        op = np.zeros(shape)
        with pytest.raises(ValueError, match=r"^operator shape .* is not 2\^n x 2\^n with n >= 1$"):
            pauli_coefficients(op)
    assert pauli_coefficients(np.eye(2)) == {"I": 1.0, "X": 0.0, "Y": 0.0, "Z": 0.0}


def test_pauli_coefficients_refuses_a_non_hermitian_operator():
    # |0><1| = (X + iY)/2: a real expansion would drop its imaginary Y coefficient
    with pytest.raises(ValueError, match="not Hermitian"):
        pauli_coefficients([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        pauli_coefficients(np.eye(4) + 1e-9j * pauli_string_operator("XI"))
    # roundoff far below the 1e-12 tolerance is accepted
    h = pauli_string_operator("XY") + 1e-14 * np.triu(np.ones((4, 4)), 1)
    assert np.isclose(pauli_coefficients(h)["XY"], 1.0)


def test_pauli_coefficients_refuses_a_non_finite_operator():
    # an inf entry made op - op^dagger warn "invalid value" (an error under
    # the suite's warning filter); a NaN one was refused only as not Hermitian
    for op in (np.diag([np.inf, 1.0]), np.nan * np.eye(2), np.diag([1.0, np.nan])):
        with pytest.raises(ValueError, match="^operator has a non-finite entry$"):
            pauli_coefficients(op)


def random_kraus(rng, nqubits, count):
    """Kraus operators of a random channel: blocks of a random isometry."""
    d = 2 ** nqubits
    g = rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d:(i + 1) * d] for i in range(count)]


@st.composite
def split_qubits(draw):
    """(n, sorted non-empty keep) with interleaved subsets included."""
    n = draw(st.sampled_from((2, 3, 4)))
    keep = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return n, sorted(keep)


@given(split_qubits(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_reduce_superop_matches_partial_trace_columns(split, count, seed):
    n, keep = split
    rng = np.random.default_rng(seed)
    traced = [q for q in range(n) if q not in keep]
    dk, d = 2 ** len(keep), 2 ** n
    s = kraus_to_superop(random_kraus(rng, n, count))
    env = random_state(rng, 2 ** len(traced))

    def reduced_output(sigma):
        full = embed_operator(np.kron(env, sigma), traced + keep, n)
        return partial_trace(unvec(s @ vec(full), d), n, keep)

    oracle = np.stack(
        [vec(reduced_output(unvec(e, dk))) for e in np.eye(dk * dk)], axis=1
    )
    reduced = reduce_superop(s, n, keep, env)
    assert np.allclose(reduced, oracle, atol=1e-12)
    sigma = random_state(rng, dk)
    assert np.allclose(unvec(reduced @ vec(sigma), dk), reduced_output(sigma), atol=1e-12)


@given(
    st.sampled_from((2, 3, 4)).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(range(n)), st.integers(1, n))
    ),
    st.integers(1, 3),
    st.integers(0, 2 ** 32 - 1),
)
def test_embed_superop_matches_embedded_kraus(layout, count, seed):
    n, order, k = layout
    positions = list(order[:k])
    kraus = random_kraus(np.random.default_rng(seed), k, count)
    embedded = [embed_operator(op, positions, n) for op in kraus]
    assert np.allclose(
        embed_superop(kraus_to_superop(kraus), positions, n),
        kraus_to_superop(embedded),
        atol=1e-13,
    )


@st.composite
def traced_split(draw):
    """(n, sorted keep) on 2 to 5 qubits with 1 to 3 traced, interleaved included."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, min(3, n - 1)))
    traced = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return n, [q for q in range(n) if q not in traced]


@given(traced_split(), st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_reduce_superop_equals_the_copy_form_bit_for_bit(split, identity_env, fortran, seed):
    # the view form adds the same terms in the same order as np.trace on a
    # transposed copy, also on the column-major buffer noco_channel passes
    n, keep = split
    rng = np.random.default_rng(seed)
    d2, dt = 4 ** n, 2 ** (n - len(keep))
    s = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
    if fortran:
        s = np.asfortranarray(s)
    env = np.eye(dt) / dt if identity_env else random_state(rng, dt)
    assert np.array_equal(
        reduce_superop(s, n, keep, env), dense_reduce_superop(s, n, keep, env)
    )


def test_reduce_superop_makes_no_copy_of_its_input():
    # the copy form peaks at about one input's bytes (1,091 KB on 1 MB)
    rng = np.random.default_rng(3)
    s = np.asfortranarray(rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256)))
    env = random_state(rng, 4)
    reduce_superop(s, 4, (1, 3), env)  # warm numpy's first-call allocations
    tracemalloc.start()
    try:
        reduce_superop(s, 4, (1, 3), env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < s.nbytes / 4


@pytest.mark.parametrize("keep", [(0, 5), (-1,), (2,), (0.5,)])
def test_kept_qubits_outside_the_register_are_refused(keep):
    rng = np.random.default_rng(4)
    outside = str([q for q in keep if q not in range(2)])
    with pytest.raises(ValueError, match=re.escape(outside)):
        partial_trace(random_state(rng, 4), 2, keep)
    with pytest.raises(ValueError, match=re.escape(outside)):
        reduce_superop(np.eye(16), 2, keep, np.eye(2) / 2)


def test_kept_qubits_written_as_floats_are_read_as_integers():
    rng = np.random.default_rng(5)
    s, env = np.eye(16) + rng.normal(size=(16, 16)), random_state(rng, 2)
    assert np.array_equal(reduce_superop(s, 2, [1.0], env), reduce_superop(s, 2, [1], env))
    assert np.array_equal(partial_trace(s[:4, :4], 2, [1.0]), partial_trace(s[:4, :4], 2, [1]))
