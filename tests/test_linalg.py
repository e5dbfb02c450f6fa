from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightmagic import SingularMatrixError
from weightmagic.linalg import determinant, inverse, solve, transpose

from support import mat_mul


def reference_inverse(rows):
    """Gauss-Jordan over Fraction, the reference for the integer kernel;
    None when the matrix is singular."""
    n = len(rows)
    work = [[Fraction(x) for x in r] for r in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r == col or work[r][col] == 0:
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(r) for r in inv)


entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def systems(draw):
    """A square matrix of size 1..4 and a right-hand side, drawn from
    small ints and Fractions; zeros are common, so are singular ones."""
    n = draw(st.integers(1, 4))
    row = st.lists(entries, min_size=n, max_size=n).map(tuple)
    return draw(st.lists(row, min_size=n, max_size=n).map(tuple)), draw(row)


def test_determinant_sizes():
    assert determinant(((5,),)) == 5
    assert determinant(((1, 2), (3, 4))) == -2
    assert determinant(((7, 0, 0), (0, 3, 0), (0, 0, 2))) == 42
    assert determinant(((1, 0, 0, 0), (0, 2, 0, 0),
                        (0, 0, 3, 0), (1, 1, 1, 4))) == 24


def test_determinant_of_coupling_difference():
    # B = C - 1 for the diagonal square of degree 42
    b = ((6, -1, -1), (-1, 2, -1), (-1, -1, 1))
    assert determinant(b) == 1


def test_transpose_and_identity():
    assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))


def test_inverse_exact():
    b = ((6, -1, -1), (-1, 2, -1), (-1, -1, 1))
    a = inverse(b)
    assert mat_mul(a, b) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert all(x.denominator == 1 for row in a for x in row)


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        inverse(((1, 1), (1, 1)))


def test_solve():
    result = solve(((2, 0), (0, 4)), (Fraction(6), Fraction(8)))
    assert result == (Fraction(3), Fraction(2))
    with pytest.raises(ValueError):
        solve(((2, 0), (0, 4)), (6,))


def test_zero_leading_pivot_needs_a_row_swap():
    m = ((0, 2, 1), (3, 1, 0), (1, 0, 2))
    assert inverse(m) == reference_inverse(m)
    assert mat_mul(m, inverse(m)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert solve(m, (3, 4, 3)) == (1, 1, 1)


def test_pivot_vanishing_after_elimination():
    # column 1 of row 2 becomes 0 once row 1 is eliminated, so step 2
    # swaps in row 3; the third pivot then carries the determinant
    m = ((1, 2, 3), (2, 4, 7), (1, 3, Fraction(1, 2)))
    assert inverse(m) == reference_inverse(m)
    assert mat_mul(m, inverse(m)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(SingularMatrixError):
        inverse(((1, 2, 3), (2, 4, 6), (1, 3, 5)))


@settings(max_examples=300, deadline=None)
@given(systems())
def test_kernel_matches_the_fraction_reference(system):
    m, rhs = system
    expected = reference_inverse(m)
    assert (expected is None) == (determinant(m) == 0)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            inverse(m)
        with pytest.raises(SingularMatrixError):
            solve(m, rhs)
        return
    got = inverse(m)
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)
    x = solve(m, rhs)
    assert x == tuple(sum(a * Fraction(b) for a, b in zip(row, rhs))
                      for row in expected)
    assert all(type(v) is Fraction for v in x)
