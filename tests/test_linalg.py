from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightmagic import SingularMatrixError
from weightmagic.linalg import determinant, inverse, solve, transpose

from support import KERNEL_SQUARES, mat_mul, reference_inverse


def inverse_value(m):
    """``inverse(m)`` as Fractions, N / d, after checking that it answers
    in ints: d a nonzero int and N a tuple of tuples of ints."""
    d, block = inverse(m)
    assert type(d) is int and d != 0
    assert type(block) is tuple and all(type(row) is tuple for row in block)
    assert all(type(x) is int for row in block for x in row)
    return tuple(tuple(Fraction(x, d) for x in row) for row in block)


def solve_value(m, rhs):
    """``solve(m, rhs)`` as Fractions, y / d, after checking that it
    answers in ints: d a nonzero int and y a tuple of ints."""
    d, y = solve(m, rhs)
    assert type(d) is int and d != 0
    assert type(y) is tuple and all(type(x) is int for x in y)
    return tuple(Fraction(x, d) for x in y)


def leibniz_determinant(rows):
    """The Leibniz formula, the reference for the cofactor expansion: the
    sum over permutations of the sign times the product of the entries
    they pick; 1 for the 0 x 0 matrix."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[a] > perm[b]
                           for a, b in combinations(range(n), 2))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


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


@st.composite
def square_matrices(draw):
    """A square matrix of size 0..4, all that `determinant` expands, of
    small ints or Fractions, with the first entries of its first row
    zeroed (possibly all of them) and perhaps one more zero row."""
    n = draw(st.integers(0, 4))
    cells = draw(st.sampled_from([st.integers(-4, 4), entries]))
    rows = [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]
    if n:
        lead = draw(st.integers(0, n))
        rows[0][:lead] = [0] * lead
        zero_row = draw(st.none() | st.integers(0, n - 1))
        if zero_row is not None:
            rows[zero_row] = [0] * n
    return [tuple(r) for r in rows]


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_determinant_matches_the_leibniz_formula(m):
    got = determinant(m)
    assert got == leibniz_determinant(m)
    if all(type(x) is int for row in m for x in row):
        assert type(got) is int


def test_determinant_of_the_empty_matrix_is_one():
    # the empty product, as inverse treats the 0 x 0 matrix as invertible
    assert determinant([]) == 1
    assert determinant(()) == 1
    assert inverse([]) == (1, ())


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
    a = inverse_value(b)
    assert mat_mul(a, b) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert all(x.denominator == 1 for row in a for x in row)
    # det b = 1, and the elimination ends with d = +-det
    assert inverse(b)[0] in (1, -1)


@pytest.mark.parametrize("f", [determinant, inverse])
def test_non_square_matrix_is_refused(f):
    with pytest.raises(ValueError, match="needs a square matrix"):
        f(((1, 2, 3), (4, 5, 6)))


def test_determinant_refuses_more_than_4_rows():
    # no caller expands more: det C and its minors have n <= 4
    identity = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    with pytest.raises(ValueError,
                       match="determinant expands at most 4 rows, got 5"):
        determinant(identity)


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        inverse(((1, 1), (1, 1)))


def test_solve():
    result = solve_value(((2, 0), (0, 4)), (Fraction(6), Fraction(8)))
    assert result == (Fraction(3), Fraction(2))
    with pytest.raises(ValueError):
        solve(((2, 0), (0, 4)), (6,))


def test_zero_leading_pivot_needs_a_row_swap():
    m = ((0, 2, 1), (3, 1, 0), (1, 0, 2))
    assert inverse_value(m) == reference_inverse(m)
    assert mat_mul(m, inverse_value(m)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert solve_value(m, (3, 4, 3)) == (1, 1, 1)


def test_pivot_vanishing_after_elimination():
    # column 1 of row 2 becomes 0 once row 1 is eliminated, so step 2
    # swaps in row 3; the third pivot then carries the determinant
    m = ((1, 2, 3), (2, 4, 7), (1, 3, Fraction(1, 2)))
    assert inverse_value(m) == reference_inverse(m)
    assert mat_mul(m, inverse_value(m)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
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
    assert inverse_value(m) == expected
    x = solve_value(m, rhs)
    assert x == tuple(sum(a * Fraction(b) for a, b in zip(row, rhs))
                      for row in expected)


def test_kernel_squares_match_the_fraction_reference():
    """C and C - 1 of every kernel square: most rows already hold a zero
    in the pivot column, which the elimination only scales."""
    singular = 0
    for ms in KERNEL_SQUARES:
        c = ms.entries
        ones = (1,) * ms.n
        for m in (c, tuple(tuple(x - 1 for x in row) for row in c)):
            expected = reference_inverse(m)
            if expected is None:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    inverse(m)
                continue
            assert inverse_value(m) == expected, m
            assert solve_value(m, ones) == tuple(map(sum, expected)), m
    assert 0 < singular < 2 * len(KERNEL_SQUARES)
