"""Exact linear algebra for the tiny matrices used throughout (n <= 4).

Everything works on tuples of tuples with int or Fraction entries; no
floating point exists anywhere in the package.  `inverse` and `solve`
share `eliminate`, one fraction-free Gauss-Jordan elimination (Bareiss,
Math. Comp. 22, 1968) on Python ints, and build Fractions only for their
outputs; `polytope.polar_dual` reads its integer block directly.
`determinant` stays a cofactor expansion, so that the two algorithms
can check each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def common_denominator(rows):
    """(d, N) with rows = N / d exactly: d is the lcm of the entries'
    denominators and N the integer matrix of scaled numerators."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, tuple(
        tuple(x.numerator * (d // x.denominator) for x in row) for row in rows
    )


def eliminate(rows, right):
    """Fraction-free Gauss-Jordan (Bareiss) on the augmented [rows | right].

    Each augmented row is first scaled by the lcm of its denominators, so
    the elimination runs on Python ints; scaling a row of both blocks
    leaves the solution unchanged.  Each step replaces every non-pivot row
    r by (p * r - r[k] * pivot_row) / prev, where p is the new pivot and
    prev the one before it; by Sylvester's identity every entry is then a
    minor of the scaled matrix, so the division is exact.  The left block
    ends as d * I and the right block as d * rows^-1 * right; returns d
    and the right block, a list of integer rows.  d is nonzero and may be
    negative.  Raises SingularMatrixError if rows is singular.
    """
    n = len(rows)
    work = []
    for row in (tuple(r) + tuple(e) for r, e in zip(rows, right)):
        scale = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if work[r][k]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        work[k], work[pivot] = work[pivot], work[k]
        pivot_row = work[k]
        p = pivot_row[k]
        for r in range(n):
            if r != k:
                row = work[r]
                f = row[k]
                work[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return prev, [row[n:] for row in work]


def inverse(rows):
    """Exact inverse by fraction-free elimination; raises
    SingularMatrixError if singular.

    The elimination stays on integers and builds a Fraction only for each
    of the n^2 output entries.  Deliberately a different algorithm from
    `determinant` (cofactor expansion), so the two can cross-check each
    other in tests.
    """
    m = _as_rows(rows)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse needs a square matrix")
    d, block = eliminate(m, [[int(i == j) for j in range(n)] for i in range(n)])
    return tuple(tuple(Fraction(x, d) for x in row) for row in block)


def solve(rows, rhs):
    """Solve rows . x = rhs exactly for one right-hand side.

    Eliminates [rows | rhs] by the same fraction-free kernel as `inverse`,
    without forming the inverse; raises SingularMatrixError if singular.
    """
    m = _as_rows(rows)
    n = len(m)
    if any(len(r) != n for r in m) or len(rhs) != n:
        raise ValueError("solve needs a square matrix and a matching right-hand side")
    d, block = eliminate(m, [(b,) for b in rhs])
    return tuple(Fraction(x, d) for (x,) in block)
