from __future__ import annotations

from fractions import Fraction

import pytest

from weightmagic import SingularMatrixError
from weightmagic.linalg import determinant, inverse, mat_mul, solve, transpose


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
