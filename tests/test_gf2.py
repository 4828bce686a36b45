import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csg_ldpc.gf2 import BitMatrix

from oracles import gf2_rank_dense


@st.composite
def bit_matrices(draw, max_rows=9, max_cols=11):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    rows = draw(
        st.lists(
            st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows
        )
    )
    return BitMatrix(nrows, ncols, tuple(rows))


def test_identity_and_zeros():
    eye = BitMatrix.identity(4)
    assert eye.rank() == 4
    assert eye.get(2, 2) == 1 and eye.get(2, 3) == 0
    assert BitMatrix.zeros(3, 5).rank() == 0
    assert BitMatrix.zeros(3, 5).is_zero()


def test_from_dense_matches_get():
    m = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
    assert m.nrows == 2 and m.ncols == 3
    assert [[m.get(i, j) for j in range(3)] for i in range(2)] == [[1, 0, 1], [0, 1, 1]]
    assert m.row_weight(0) == 2


def test_known_rank_and_nullspace():
    # row 2 = row 0 + row 1, so rank 2 and a one-dimensional nullspace
    m = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m.rank() == 2
    ns = m.nullspace_basis()
    assert ns.nrows == 1
    assert ns.rows[0] == 0b111


def test_rref_of_singular_matrix():
    m = BitMatrix.from_dense([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    reduced, pivots = m.rref()
    assert pivots == (0, 2)
    assert reduced.nrows == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        BitMatrix(2, 2, (1,))
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (4,))  # bit outside the two columns
    with pytest.raises(ValueError):
        BitMatrix(-1, 2, ())
    with pytest.raises(ValueError):
        BitMatrix.from_dense([[1, 0], [1]])
    with pytest.raises(ValueError):
        BitMatrix.from_dense([[2, 0]])
    with pytest.raises(IndexError):
        BitMatrix.identity(2).get(2, 0)
    with pytest.raises(ValueError):
        BitMatrix.identity(2).multiply(BitMatrix.identity(3))


@given(bit_matrices())
def test_rank_equals_dense_oracle(m):
    dense = [[m.get(i, j) for j in range(m.ncols)] for i in range(m.nrows)]
    assert m.rank() == gf2_rank_dense(dense)


@given(bit_matrices())
def test_rank_transpose_invariant(m):
    assert m.rank() == m.transpose().rank()
    assert m.transpose().transpose() == m


@given(bit_matrices())
def test_rank_nullity(m):
    ns = m.nullspace_basis()
    assert ns.nrows == m.ncols - m.rank()
    # every basis vector really is in the nullspace
    assert m.multiply(ns.transpose()).is_zero()
    # and they are independent
    assert ns.rank() == ns.nrows


@given(bit_matrices())
def test_rref_pivot_columns_are_unit(m):
    reduced, pivots = m.rref()
    assert list(pivots) == sorted(pivots)
    assert reduced.nrows == m.rank()
    for r, p in enumerate(pivots):
        col = [reduced.get(i, p) for i in range(reduced.nrows)]
        assert col == [1 if i == r else 0 for i in range(reduced.nrows)]


@given(bit_matrices(), st.integers(0, 6))
@settings(max_examples=60)
def test_multiply_against_numpy(m, ncols_b):
    rng = np.random.default_rng(m.nrows * 131 + m.ncols * 7 + ncols_b)
    b_arr = rng.integers(0, 2, size=(m.ncols, ncols_b), dtype=np.uint8)
    b = BitMatrix.from_numpy(b_arr)
    prod = m.multiply(b)
    expect = (m.to_numpy().astype(int) @ b_arr.astype(int)) % 2
    assert np.array_equal(prod.to_numpy(), expect.astype(np.uint8))


def test_multiply_fixed_20x20():
    rng = np.random.default_rng(42)
    a_arr = rng.integers(0, 2, size=(20, 20), dtype=np.uint8)
    b_arr = rng.integers(0, 2, size=(20, 20), dtype=np.uint8)
    a = BitMatrix.from_numpy(a_arr)
    b = BitMatrix.from_numpy(b_arr)
    assert np.array_equal(
        a.multiply(b).to_numpy(), (a_arr.astype(int) @ b_arr.astype(int)) % 2
    )


@given(bit_matrices())
def test_numpy_round_trip(m):
    assert BitMatrix.from_numpy(m.to_numpy()) == m


@given(bit_matrices())
def test_column_bits_agree_with_get(m):
    cols = m.column_bits()
    for j in range(m.ncols):
        for i in range(m.nrows):
            assert ((cols[j] >> i) & 1) == m.get(i, j)


@given(bit_matrices(max_cols=70))
def test_supports_agree_with_get(m):
    supports = m.supports()
    assert len(supports) == m.nrows
    for i, support in enumerate(supports):
        assert support == [j for j in range(m.ncols) if m.get(i, j)]
