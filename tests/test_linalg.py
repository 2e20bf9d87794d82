import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcayley import linalg
from conftest import (
    identity_matrix,
    is_zero_matrix,
    mat_add,
    mat_mul,
    mat_sub,
    subspace_eq,
    subspace_intersect,
    subspace_le,
    subspace_sum,
)


def test_row_space_canonical():
    rows = [(2, 4, 6), (1, 2, 4)]
    assert linalg.row_space(rows, 3) == ((1, 2, 0), (0, 0, 1))


def test_row_space_drops_dependent_rows():
    rows = [(1, 1), (2, 2), (3, 3)]
    assert linalg.row_space(rows, 2) == ((1, 1),)


def test_nullspace_simple():
    # x + 2y + 3z = 0
    basis = linalg.nullspace([(1, 2, 3)], 3)
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_nullspace_of_zero_rows_is_everything():
    assert linalg.nullspace([], 2) == ((1, 0), (0, 1))


def test_nullspace_vectors_annihilated(seed=7):
    rng = random.Random(seed)
    for _ in range(25):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [
            tuple(rng.randint(-4, 4) for _ in range(ncols)) for _ in range(nrows)
        ]
        for v in linalg.nullspace(rows, ncols):
            for row in rows:
                assert sum(a * x for a, x in zip(row, v)) == 0


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        ncols = rng.randint(1, 6)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(ncols))
            for _ in range(rng.randint(0, 6))
        ]
        red = linalg.span(rows, ncols)
        assert len(red.rows()) + len(red.nullspace()) == ncols


def test_subspace_operations():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    plane = [e1, e2]
    other = [e2, e3]
    assert subspace_intersect(plane, other, 3) == ((0, 1, 0),)
    assert subspace_eq([(1, 1, 0), (1, -1, 0)], plane, 3)
    red = linalg.span(plane, 3)
    assert red.contains((3, -2, 0))
    assert not red.contains((0, 0, 1))
    assert subspace_le([e1], plane, 3)
    assert not subspace_le(plane, [e1], 3)
    assert subspace_sum([e1], [e2], 3) == ((1, 0, 0), (0, 1, 0))


def test_nullspace_complement_dimensions():
    basis = [(1, 2, 0, 1)]
    comp = linalg.nullspace(basis, 4)
    assert len(comp) == 3
    for v in comp:
        assert sum(a * x for a, x in zip(basis[0], v)) == 0


def test_row_space_fraction_pivots():
    rows = [(Fraction(1, 2), Fraction(1, 3))]
    assert linalg.row_space(rows, 2) == ((1, Fraction(2, 3)),)


def test_integral_entries_stay_int():
    red = linalg.span([(2, 4, 6), (Fraction(3), 6, 12), (Fraction(1, 2), 1, 2)], 3)
    assert red.rows() == ((1, 2, 0), (0, 0, 1))
    assert all(type(x) is int for row in red.rows() for x in row)


def test_wrong_row_length_rejected():
    with pytest.raises(ValueError):
        linalg.nullspace([(1, 2, 3, 4)], 2)
    red = linalg.RowReducer(2)
    red.add((1, 0))
    for method in (red.add, red.contains):
        for bad in ((0, 0, 1), (1,)):
            with pytest.raises(ValueError):
                method(bad)
    assert red.rows() == ((1, 0),)


# ------------------------------------------------------ sympy as the oracle
_scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def _matrices(draw):
    """Rational matrices with zero rows, repeated rows or full column rank mixed in."""
    ncols = draw(st.integers(1, 8))
    row = st.lists(_scalars, min_size=ncols, max_size=ncols).map(tuple)
    rows = draw(st.lists(row, max_size=10))
    extra = draw(st.sampled_from(("none", "zero", "repeat", "full_rank")))
    if extra == "zero":
        rows += [(0,) * ncols] * draw(st.integers(1, 3))
    elif extra == "repeat" and rows:
        for _ in range(draw(st.integers(1, 3))):
            source = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from((1, -1, 2, Fraction(1, 3))))
            rows.append(tuple(scale * x for x in source))
    elif extra == "full_rank":
        # upper triangular with a nonzero diagonal
        for i in range(ncols):
            pivot = draw(st.sampled_from((1, -2, Fraction(3, 5))))
            rows.append((0,) * i + (pivot,) + tuple(draw(row)[i + 1:]))
    return ncols, draw(st.permutations(rows))


def _to_fraction(x):
    return Fraction(int(x.p), int(x.q))


def _sympy_rref(matrix):
    reduced = matrix.rref()[0]
    return tuple(
        tuple(_to_fraction(x) for x in reduced.row(i))
        for i in range(reduced.rows)
        if any(reduced.row(i))
    )


def _sympy_matrix(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x) for r in rows for x in r])


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_elimination_matches_sympy(matrix):
    ncols, rows = matrix
    red = linalg.span(rows, ncols)
    # a lone zero row stands in for the empty matrix, which sympy cannot reduce
    m = _sympy_matrix(rows or [(0,) * ncols], ncols)
    assert red.rows() == _sympy_rref(m)
    assert len(red.rows()) == m.rank()
    null = m.nullspace()
    expected = _sympy_rref(sympy.Matrix.hstack(*null).T) if null else ()
    assert linalg.nullspace(rows, ncols) == expected


def test_matrix_helpers():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert linalg.mat_vec(a, (1, 1)) == (3, 7)
    assert mat_add(a, b) == ((1, 3), (4, 4))
    assert mat_sub(a, a) == ((0, 0), (0, 0))
    assert is_zero_matrix(((0, 0, 0),) * 3)
    assert not is_zero_matrix(a)
    assert identity_matrix(2) == ((1, 0), (0, 1))


@st.composite
def _square_operands(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(_scalars, min_size=n, max_size=n).map(tuple)
    square = st.lists(row, min_size=n, max_size=n).map(tuple)
    return draw(square), draw(square), draw(row)


@settings(max_examples=80, deadline=None)
@given(_square_operands())
def test_linear_map_matches_dense_helpers(operands):
    a, b, v = operands
    A, B = linalg.LinearMap.from_rows(a), linalg.LinearMap.from_rows(b)
    assert A.matrix == a
    assert A.apply(v) == linalg.mat_vec(a, v)
    assert A.compose(B).matrix == mat_mul(a, b)
    # the form is canonical: equal maps have equal (cols, den)
    assert A.compose(B) == linalg.LinearMap.from_rows(mat_mul(a, b))
    assert (A == B) == (a == b)
    assert A.is_zero() == is_zero_matrix(a)
    with pytest.raises(ValueError):
        A.apply(v + (1,))
    with pytest.raises(ValueError):
        linalg.LinearMap.from_rows(a + (v,))
