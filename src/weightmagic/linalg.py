"""Exact linear algebra for the tiny matrices used throughout: n <= 4, but
`polytope.polar_dual` eliminates 5 x 5 ones, which `determinant` refuses.

Everything works on tuples of tuples with int or Fraction entries; no
floating point exists anywhere in the package.  `inverse` and `solve`
share `eliminate`, one fraction-free Gauss-Jordan elimination (Bareiss,
Math. Comp. 22, 1968) on Python ints, and answer in ints, as (d, N)
with result N / d; `polytope.polar_dual` calls `eliminate` itself.
`determinant` stays a cofactor expansion, so that the two algorithms
can check each other.
"""

from __future__ import annotations

from math import lcm

from .errors import SingularMatrixError


def _as_rows(rows):
    return tuple(tuple(r) for r in rows)


def determinant(rows):
    """Cofactor expansion, written out for n <= 4: by 2 x 2 minors of the
    first two rows at n = 4 (Laplace); exact for int or Fraction.

    The determinant of the 0 x 0 matrix is the empty product, 1.  Refuses
    a matrix that is not square or has more than 4 rows.
    """
    m = _as_rows(rows)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    if n > 4:
        raise ValueError(f"determinant expands at most 4 rows, got {n}")
    if n < 2:
        return m[0][0] if n else 1
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (p, q, r, s) = m
    return ((a * f - b * e) * (k * s - l * r)
            - (a * g - c * e) * (j * s - l * q)
            + (a * h - d * e) * (j * r - k * q)
            + (b * g - c * f) * (i * s - l * p)
            - (b * h - d * f) * (i * r - k * p)
            + (c * h - d * g) * (i * q - j * p))


def transpose(rows):
    return tuple(zip(*_as_rows(rows)))


def eliminate(rows, right):
    """Fraction-free Gauss-Jordan (Bareiss) on the augmented [rows | right].

    Each augmented row holding a Fraction is first scaled by the lcm of
    its denominators, so the elimination runs on Python ints; scaling a
    row of both blocks leaves the solution unchanged, and a row of ints
    is taken as it is.  Each step replaces every non-pivot row r by
    (p * r - r[k] * pivot_row) / prev, where p is the new pivot and prev
    the one before it, or by p * r / prev when r[k] is 0; by Sylvester's
    identity every entry is then a minor of the scaled matrix, so the
    division is exact.  The left block ends as d * I and the right block
    as d * rows^-1 * right; returns d and the right block, a list of
    integer rows.  d is nonzero and may be
    negative.  Raises SingularMatrixError if rows is singular.
    """
    n = len(rows)
    work = []
    for row in (tuple(r) + tuple(e) for r, e in zip(rows, right)):
        if all(type(x) is int for x in row):
            work.append(list(row))
            continue
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
                if f:
                    work[r] = [(p * x - f * y) // prev
                               for x, y in zip(row, pivot_row)]
                else:
                    work[r] = [p * x // prev for x in row]
        prev = p
    return prev, [row[n:] for row in work]


def inverse(rows):
    """Exact inverse as ints (d, N) with rows^-1 = N / d, d nonzero and of
    either sign; raises SingularMatrixError if singular.

    Fraction-free elimination, deliberately a different algorithm from
    `determinant` (cofactor expansion), so the two cross-check in tests.
    """
    m = _as_rows(rows)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse needs a square matrix")
    d, block = eliminate(m, [[int(i == j) for j in range(n)] for i in range(n)])
    return d, tuple(map(tuple, block))


def solve(rows, rhs):
    """Solve rows . x = rhs exactly, as ints (d, y) with x = y / d, d != 0.

    Eliminates [rows | rhs] by the same fraction-free kernel as `inverse`,
    without forming the inverse; raises SingularMatrixError if singular.
    """
    m = _as_rows(rows)
    n = len(m)
    if any(len(r) != n for r in m) or len(rhs) != n:
        raise ValueError("solve needs a square matrix and a matching right-hand side")
    d, block = eliminate(m, [(b,) for b in rhs])
    return d, tuple(x for (x,) in block)
