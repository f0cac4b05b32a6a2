import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabshare import pauli
from stabshare.pauli import (
    PauliProduct,
    ResourceLimitError,
    dense_matrix,
    from_symplectic,
    identity,
    multiply,
    pairing,
    parse,
    power,
    symplectic_vector,
    to_string,
)
from stabshare.infogroup import group_from_rows


def comm(p: PauliProduct, q: PauliProduct) -> int:
    """The exponent c with p q = w^c q p, from the exponent vectors."""
    return pairing(symplectic_vector(p), symplectic_vector(q), p.d)


def ref_single(d: int, x: int, z: int) -> np.ndarray:
    """Independent single-qudit reference: X = sum |j><j+1|, Z = diag(w^j)."""
    xm = np.zeros((d, d), dtype=complex)
    zm = np.zeros((d, d), dtype=complex)
    for j in range(d):
        xm[j, (j + 1) % d] = 1
        zm[j, j] = np.exp(2j * np.pi * j / d)
    return np.linalg.matrix_power(xm, x) @ np.linalg.matrix_power(zm, z)


def ref_dense(p: PauliProduct) -> np.ndarray:
    out = np.array([[np.exp(2j * np.pi * p.phase / p.d)]])
    for a, b in zip(p.x, p.z):
        out = np.kron(out, ref_single(p.d, a, b))
    return out


def test_multiply_xz_order_no_reordering():
    x = parse("X")
    z = parse("Z")
    prod = multiply(x, z)
    assert (prod.x, prod.z, prod.phase) == ((1,), (1,), 0)


def test_multiply_zx_picks_up_phase():
    prod = multiply(parse("Z"), parse("X"))
    assert (prod.x, prod.z, prod.phase) == ((1,), (1,), 1)  # -1 = 1 mod 2


def test_multiply_qutrit_against_explicit_matrices():
    p = PauliProduct(3, (2,), (1,))
    q = PauliProduct(3, (1,), (0,))
    prod = multiply(p, q)
    assert (prod.x, prod.z, prod.phase) == ((0,), (1,), 2)
    assert np.allclose(ref_dense(prod), ref_dense(p) @ ref_dense(q))


def test_multiply_rejects_mismatches():
    with pytest.raises(ValueError):
        multiply(parse("X"), parse("XX"))
    with pytest.raises(ValueError):
        multiply(parse("X"), PauliProduct(3, (1,), (0,)))


def test_commutation_examples():
    assert comm(parse("X"), parse("Z")) == 1
    p = PauliProduct(3, (1, 2), (0, 1))
    assert comm(p, p) == 0
    assert comm(PauliProduct(3, (2,), (0,)), PauliProduct(3, (0,), (1,))) == 2


def test_qutrit_commutation_against_matrices():
    a = PauliProduct(3, (2,), (0,))
    b = PauliProduct(3, (0,), (1,))
    lam = comm(a, b)
    lhs = ref_dense(a) @ ref_dense(b)
    rhs = np.exp(2j * np.pi * lam / 3) * ref_dense(b) @ ref_dense(a)
    assert np.allclose(lhs, rhs)


@st.composite
def _pauli_and_array(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    exps = draw(st.lists(st.integers(0, d - 1), min_size=2 * m,
                         max_size=2 * m))
    p = PauliProduct(d, exps[:m], exps[m:], draw(st.integers(0, d - 1)))
    tail = draw(st.sampled_from([(), (2,), (3,), (2, 3), (3, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (d**m,) + tail
    return p, rng.normal(size=shape) + 1j * rng.normal(size=shape)


@given(_pauli_and_array())
@settings(max_examples=150)
def test_apply_matches_kron_reference(case):
    # The reference is built from explicit single-site matrices, not from
    # dense_matrix, so a wrong roll direction or Z phase shows here.
    p, arr = case
    want = np.tensordot(ref_dense(p), arr, axes=1)
    got = pauli.apply(p, arr)
    assert got.shape == arr.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_apply_rejects_a_wrong_first_axis():
    # (4, 2) has the 8 entries of three qubits but spans only two.
    for shape in [(4, 2), (), (3,)]:
        with pytest.raises(ValueError, match="does not span 8 basis states"):
            pauli.apply(parse("XYZ"), np.zeros(shape))


def test_dense_single_qubit():
    assert np.allclose(dense_matrix(parse("X")), [[0, 1], [1, 0]])
    assert np.allclose(dense_matrix(parse("Z")), [[1, 0], [0, -1]])


def test_dense_qutrit_z():
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(dense_matrix(PauliProduct(3, (0,), (1,))),
                       np.diag([1, w, w**2]))


def test_dense_cap():
    with pytest.raises(ResourceLimitError):
        dense_matrix(identity(2, 13))
    with pytest.raises(ResourceLimitError):
        dense_matrix(identity(2, 3), cap=4)


def test_inverse_and_power():
    p = PauliProduct(3, (1, 2), (2, 1), phase=1)
    assert multiply(p, power(p, -1)) == identity(3, 2)
    assert power(p, 3).is_identity and power(p, 3).phase == 0
    assert multiply(power(p, -1), p) == identity(3, 2)
    q = parse("Y")  # x1z1 with phase 0: squares to -I under this convention
    assert power(q, 2) == PauliProduct(2, (0,), (0,), phase=1)


def fold_power(p: PauliProduct, e: int) -> PauliProduct:
    """Reference p**e: a left fold of multiply over |e| factors.

    The factor is p, or for e < 0 the product q with p q = I, which is
    checked with multiply before it is used.
    """
    base = p
    if e < 0:
        overlap = sum(a * b for a, b in zip(p.x, p.z))
        base = PauliProduct(p.d, tuple(-a for a in p.x),
                            tuple(-b for b in p.z), -p.phase - overlap)
        assert multiply(p, base) == identity(p.d, p.m)
    return functools.reduce(multiply, [base] * abs(e), identity(p.d, p.m))


@st.composite
def pauli_over(draw, primes, min_sites=1, max_sites=3):
    d = draw(st.sampled_from(primes))
    m = draw(st.integers(min_sites, max_sites))
    v = draw(st.lists(st.integers(0, d - 1), min_size=2 * m + 1,
                      max_size=2 * m + 1))
    return PauliProduct(d, tuple(v[:m]), tuple(v[m:2 * m]), v[2 * m])


@st.composite
def pauli_and_exponent(draw, primes):
    p = draw(pauli_over(primes))
    return p, draw(st.integers(-2 * p.d, 2 * p.d))


@given(pauli_and_exponent([2, 3, 5, 7]))
@settings(max_examples=200)
def test_power_equals_fold_of_multiply(pe):
    p, e = pe
    assert power(p, e) == fold_power(p, e)


@given(pauli_and_exponent([65537]))
@example((PauliProduct(65537, (1, 65536), (65535, 2), 7), 2 * 65537))
@example((PauliProduct(65537, (3,), (65536,), 1), -2 * 65537))
@settings(max_examples=4, deadline=None)
def test_power_equals_fold_of_multiply_large_d(pe):
    p, e = pe
    assert power(p, e) == fold_power(p, e)


@given(st.data())
def test_pairing_is_the_commutation_phase(data):
    p = data.draw(pauli_over([2, 3, 5, 7], max_sites=4))
    q = data.draw(pauli_over([p.d], p.m, p.m))
    c = pairing(symplectic_vector(p), symplectic_vector(q), p.d)
    assert isinstance(c, int)
    qp = multiply(q, p)
    assert multiply(p, q) == PauliProduct(p.d, qp.x, qp.z, qp.phase + c)


def test_pairing_of_row_stacks_is_the_pairwise_matrix():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 5, size=(4, 6))
    b = rng.integers(0, 5, size=(3, 6))
    gram = pairing(a, b, 5)
    assert gram.shape == (4, 3)
    assert all(gram[i, j] == pairing(a[i], b[j], 5)
               for i in range(4) for j in range(3))
    assert np.array_equal(pairing(a, b[0], 5), gram[:, 0])
    assert pairing(np.zeros((0, 6)), b, 5).shape == (0, 3)


small_pauli = st.builds(
    lambda d, m, data: PauliProduct(
        d, tuple(data[:m]), tuple(data[m:2 * m]), data[2 * m]),
    st.sampled_from([2, 3]),
    st.sampled_from([1, 2]),
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
)


def _pair(strategy):
    return st.tuples(strategy, strategy).filter(
        lambda pq: pq[0].d == pq[1].d and pq[0].m == pq[1].m)


@given(_pair(small_pauli))
def test_commutation_antisymmetric(pq):
    p, q = pq
    assert comm(p, q) == (-comm(q, p)) % p.d


@given(_pair(small_pauli))
@settings(max_examples=80)
def test_dense_is_a_homomorphism(pq):
    p, q = pq
    lhs = dense_matrix(multiply(p, q))
    rhs = dense_matrix(p) @ dense_matrix(q)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(st.tuples(small_pauli, small_pauli, small_pauli).filter(
    lambda t: len({(p.d, p.m) for p in t}) == 1))
def test_multiply_associative_with_identity(t):
    p, q, r = t
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
    e = identity(p.d, p.m)
    assert multiply(p, e) == p and multiply(e, p) == p


@pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (3, 1)])
def test_orthonormal_operator_basis(d, m):
    ops = [PauliProduct(d, exps[:m], exps[m:])
           for exps in itertools.product(range(d), repeat=2 * m)]
    dim = d**m
    for p in ops:
        dp = dense_matrix(p)
        for q in ops:
            val = np.trace(dp.conj().T @ dense_matrix(q)) / dim
            want = 1.0 if p == q else 0.0
            assert abs(val - want) < 1e-12


def test_string_round_trip_qubit():
    p = parse("IXYZ")
    assert p == PauliProduct(2, (0, 1, 1, 0), (0, 0, 1, 1))
    assert to_string(p) == "IXYZ"
    assert parse(to_string(p)) == p


def test_string_round_trip_with_phase_and_qutrit():
    p = PauliProduct(3, (2, 0), (1, 2), phase=2)
    assert to_string(p) == "w2*x2z1.x0z2"
    assert parse(to_string(p), 3) == p
    q = PauliProduct(2, (1,), (1,), phase=1)
    assert to_string(q) == "w1*Y"
    assert parse(to_string(q)) == q


def test_parse_errors():
    with pytest.raises(ValueError):
        parse("XQ")
    with pytest.raises(ValueError):
        parse("x1z1", 4)
    with pytest.raises(ValueError):
        parse("IXZ", 3)
    with pytest.raises(ValueError):
        parse("")
    with pytest.raises(ValueError):
        parse("q3*X")


@given(small_pauli)
def test_string_round_trip_property(p):
    assert parse(to_string(p), p.d) == p


def test_symplectic_round_trip():
    p = PauliProduct(3, (1, 2), (0, 1))
    assert from_symplectic(3, symplectic_vector(p)) == p
    with pytest.raises(ValueError):
        from_symplectic(2, [1, 0, 1])


def test_subgroup_membership_examples():
    span = lambda *texts: group_from_rows(
        2, 1, [symplectic_vector(parse(t)) for t in texts])
    assert span("Z") == span("Z", "I")
    assert span("Z") != span("X")
    assert span("Z") != span("X", "Z")
    assert span("X", "Z") == span("X", "Z", "Y")
    assert span("X", "Z") == span("X", "Y")
    assert span() == span("I")
    assert span() != span("Z")


def test_exponents_reduced_mod_d():
    p = PauliProduct(3, (4, -1), (5, 3), phase=7)
    assert p.x == (1, 2) and p.z == (2, 0) and p.phase == 1
