import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabshare.primefield import (
    check_prime,
    is_prime,
    mod_nullspace,
    mod_rank,
    mod_rref,
    mod_rref_stack,
    mod_solve,
    row_space_basis,
)

SMALL_PRIMES = [2, 3, 5, 7]
PRIMES = SMALL_PRIMES + [10007, 65537]  # the large D of the qudit-mix codes


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)


def test_element_rejects_composite_modulus():
    with pytest.raises(ValueError, match="prime"):
        check_prime(6)


def test_matrix_rejects_composite_modulus_and_bad_shape():
    with pytest.raises(ValueError, match="prime"):
        check_prime(4)
    with pytest.raises(ValueError, match="2-D"):
        mod_rref([1, 2, 3], 5)


def test_row_reduce_identical_rows_mod2():
    red, rank, pivots = mod_rref([[1, 1], [1, 1]], 2)
    assert rank == 1
    assert pivots == [0]
    assert red.tolist() == [[1, 1], [0, 0]]


def test_row_reduce_scalar_inverse_mod3():
    red, rank, _ = mod_rref([[2]], 3)
    assert red.tolist() == [[1]]
    assert rank == 1


def test_row_reduce_identity_mod2():
    red, rank, pivots = mod_rref(np.eye(3, dtype=np.int64), 2)
    assert rank == 3
    assert pivots == [0, 1, 2]
    assert np.array_equal(red, np.eye(3, dtype=np.int64))


def test_solve_identity():
    x = mod_solve(np.eye(2, dtype=np.int64), [1, 0], 2)
    assert x.tolist() == [1, 0]


def test_solve_diagonal_mod3():
    x = mod_solve([[2, 0], [0, 1]], [1, 2], 3)
    assert x.tolist() == [2, 2]


def test_solve_inconsistent_returns_none():
    assert mod_solve([[1, 1], [1, 1]], [0, 1], 2) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError, match="rows"):
        mod_solve([[1, 1]], [1, 0], 2)


def test_nullspace_examples():
    basis = mod_nullspace([[1, 1]], 2)
    assert [v.tolist() for v in basis] == [[1, 1]]
    assert mod_nullspace(np.eye(2, dtype=np.int64), 3) == []
    assert len(mod_nullspace(np.zeros((2, 2), dtype=np.int64), 2)) == 2


def test_empty_shapes():
    red, rank, pivots = mod_rref(np.zeros((0, 3), dtype=np.int64), 2)
    assert rank == 0 and pivots == []
    assert len(mod_nullspace(np.zeros((0, 3), dtype=np.int64), 2)) == 3


@st.composite
def matrix_and_prime(draw, primes=PRIMES, min_dim=1, max_dim=5):
    p = draw(st.sampled_from(primes))
    rows = draw(st.integers(min_dim, max_dim))
    cols = draw(st.integers(min_dim, max_dim))
    data = draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return np.array(data, dtype=np.int64).reshape(rows, cols), p


def _span(rows, p, cols):
    """Every Z_p combination of `rows` (lists of ints), by enumeration."""
    return {tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                  for j in range(cols))
            for coeffs in itertools.product(range(p), repeat=len(rows))}


@given(matrix_and_prime(SMALL_PRIMES, min_dim=0, max_dim=4))
@example((np.zeros((0, 3), dtype=np.int64), 5))
@example((np.ones((2, 0), dtype=np.int64), 3))
@settings(max_examples=150)
def test_rref_spans_the_input_rows_and_is_reduced(mp):
    # A reference that does not eliminate: the row space by enumeration.
    m, p = mp
    red, rank, pivots = mod_rref(m, p)
    assert red.dtype == np.int64 and red.shape == m.shape
    span = _span(m.tolist(), p, m.shape[1])
    assert _span(red.tolist(), p, m.shape[1]) == span
    assert len(span) == p**rank == p**len(pivots)
    assert ((0 <= red) & (red < p)).all()
    assert not red[rank:].any()
    assert pivots == sorted(set(pivots))
    for row, col in enumerate(pivots):
        assert not red[row, :col].any() and red[row, col] == 1
        assert red[:, col].tolist() == [int(i == row) for i in range(len(m))]


@given(matrix_and_prime())
def test_rank_nullity(mp):
    m, p = mp
    assert mod_rank(m, p) + len(mod_nullspace(m, p)) == m.shape[1]


@given(matrix_and_prime())
def test_rref_idempotent(mp):
    m, p = mp
    once, rank1, piv1 = mod_rref(m, p)
    twice, rank2, piv2 = mod_rref(once, p)
    assert np.array_equal(once, twice)
    assert rank1 == rank2 and piv1 == piv2


@given(matrix_and_prime(), st.data())
@settings(max_examples=60)
def test_solve_recovers_planted_solution(mp, data):
    m, p = mp
    planted = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=m.shape[1],
                           max_size=m.shape[1])), dtype=np.int64)
    b = m @ planted % p
    x = mod_solve(m, b, p)
    assert x is not None
    assert np.array_equal(m @ x % p, b)


@given(matrix_and_prime())
def test_nullspace_vectors_annihilate(mp):
    m, p = mp
    for v in mod_nullspace(m, p):
        assert not np.any(m @ v % p)


@st.composite
def stack_and_prime(draw):
    p = draw(st.sampled_from(PRIMES + [2**31 - 1]))
    b, r, c = (draw(st.integers(lo, 5)) for lo in (1, 0, 0))
    # Few distinct entries, so that slices have zero rows and columns and
    # lose rank at every p; the last row may be a multiple of the first.
    entry = st.sampled_from([0, 0, 1, p - 1, p // 2]) | st.integers(0, p - 1)
    a = np.array(draw(st.lists(entry, min_size=b * r * c,
                               max_size=b * r * c)),
                 dtype=np.int64).reshape(b, r, c)
    if r > 1 and draw(st.booleans()):
        a[:, -1] = a[:, 0] * draw(st.integers(0, p - 1)) % p
    return a, p


@given(stack_and_prime())
@example((np.zeros((2, 0, 3), dtype=np.int64), 5))
@example((np.ones((2, 3, 0), dtype=np.int64), 3))
@example((np.array([[[0, 2**31 - 2], [0, 5]], [[2**31 - 2, 1], [1, 2]]]),
          2**31 - 1))
@settings(max_examples=200)
def test_rref_stack_slices_equal_row_space_basis(ap):
    a, p = ap
    out = mod_rref_stack(a, p)
    b, _, c = a.shape
    assert out.dtype == np.int64 and out.shape == (b, c, c)
    for piece, slots in zip(a, out):
        assert np.array_equal(slots[slots.any(axis=1)],
                              row_space_basis(piece, p))
        for j, row in enumerate(slots):  # slot j has its pivot in column j
            assert not row.any() or (not row[:j].any() and row[j] == 1)


@pytest.mark.parametrize("p", [2**31 + 11, 4294967311, 2**61 - 1])
def test_rref_stack_rejects_moduli_that_can_wrap_int64(p):
    # From p = 2^31 (2^31 + 11 is the smallest prime above it) one step's
    # sum of two products below p^2 can pass 2^63.  Unchecked, this rank-2
    # slice came back with three nonzero slots, none with lead 1, mod
    # 4294967311, and with one mod 2^61 - 1.
    a = np.array([[[p - 2, 3, 5], [7, p - 3, 11]]])
    assert len(row_space_basis(a[0], p)) == 2
    with pytest.raises(ValueError, match="p < 2\\^31"):
        mod_rref_stack(a, p)
