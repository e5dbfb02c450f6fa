"""Exact linear algebra for the tiny matrices used throughout (n <= 4).

Everything works on tuples of tuples with int or Fraction entries; no
floating point exists anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError


def _as_rows(rows):
    return tuple(tuple(r) for r in rows)


def determinant(rows):
    """Cofactor expansion along the first row; exact for int or Fraction."""
    m = _as_rows(rows)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = tuple(r[:j] + r[j + 1 :] for r in m[1:])
        total += (-1) ** j * m[0][j] * determinant(minor)
    return total


def transpose(rows):
    return tuple(zip(*_as_rows(rows)))


def mat_mul(a, b):
    a, b = _as_rows(a), _as_rows(b)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def inverse(rows):
    """Gauss-Jordan over Fraction; raises SingularMatrixError if singular.

    Deliberately a different algorithm from `determinant`, so the two can
    cross-check each other in tests.
    """
    m = _as_rows(rows)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse needs a square matrix")
    work = [[Fraction(x) for x in r] for r in m]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
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


def solve(rows, rhs):
    """Solve rows . x = rhs exactly for one right-hand side."""
    inv = inverse(rows)
    return tuple(sum(inv[i][j] * Fraction(rhs[j]) for j in range(len(rhs))) for i in range(len(inv)))
