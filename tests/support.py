"""Helpers shared by the test modules.

``outcome`` compares a kernel with its reference by value or by error.
``rebuilt`` changes fields of a value by building it again through its
class's constructor, which checks it again.
``mat_mul`` is the plain matrix product the tests use as an independent
check of the package's exact linear algebra, which has no product of its
own.  ``reference_inverse`` and ``reference_solve`` are Gauss-Jordan over
Fraction, the references for the integer kernel, and
``reference_recover_partner`` is ``recover_partner`` scaling the Fraction
solution by the lcm of its denominators.  ``SEARCHED`` and
``KERNEL_SQUARES`` are the squares on which the integer kernels are
compared with their Fraction references.
``brute_force_squares`` is the plain ``product`` form of criterion 8's
n=2 oracle, the reference its per-row-system form is compared with.
``coupled_pairs`` draws weight pairs that squares may couple.
``reference_monomials`` writes exponent rows in the monomial notation
from its definition, the reference ``format_monomial_matrix`` is
compared with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from hypothesis import assume
from hypothesis import strategies as st

from weightmagic import (SingularMatrixError, WeightMagicError, WeightSystem,
                         find_magic_squares, load_catalog, parse_weight_system,
                         validate)
from weightmagic.search import enumerate_rows


def outcome(f, *args):
    """The value of f, or the type and message of the error it raised."""
    try:
        return f(*args)
    except WeightMagicError as exc:
        return type(exc), str(exc)


def rebuilt(value, **changes):
    """``value`` with the given fields changed, built again through its
    class's constructor; an unknown field name is a TypeError."""
    cls = type(value)
    fields = {name: getattr(value, name) for name in cls._fields}
    return cls(**{**fields, **changes})


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
              for j in range(len(b[0])))
        for i in range(len(a))
    )


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


def reference_solve(rows, rhs):
    """The Fraction x with rows . x = rhs, read off ``reference_inverse``;
    SingularMatrixError when the matrix is singular."""
    inv = reference_inverse(rows)
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return tuple(sum(a * Fraction(b) for a, b in zip(row, rhs)) for row in inv)


def reference_recover_partner(entries, wa):
    """``recover_partner`` on Fractions: x solves C^t x = (1, ..., 1) and
    is scaled by the lcm of its denominators, the weights kept in column
    order; the square is validated in full."""
    entries = tuple(tuple(row) for row in entries)
    try:
        x = reference_solve(tuple(zip(*entries)), (1,) * len(entries))
    except SingularMatrixError:
        raise SingularMatrixError(
            "C is singular, so the column weights are not determined"
        ) from None
    q = lcm(*(r.denominator for r in x))
    ws = tuple(r.numerator * (q // r.denominator) for r in x)
    k = sum(w * row[0] for w, row in zip(ws, entries))
    return validate(entries, wa, WeightSystem(ws, k))


def brute_force_squares(rows, wb):
    """Check every ordered pair of the given n=2 rows against the column
    relation of ``wb``; every valid arrangement, keyed by its row multiset."""
    (b1, b2), k = wb.weights, wb.degree
    arrangements: dict[tuple, set[tuple]] = {}
    for r1, r2 in product(rows, repeat=2):
        if (b1 * r1[0] + b2 * r2[0] == k
                and b1 * r1[1] + b2 * r2[1] == k):
            key = tuple(sorted((r1, r2)))
            arrangements.setdefault(key, set()).add((r1, r2))
    return arrangements


def search(wa: str, wb: str):
    return find_magic_squares(parse_weight_system(wa),
                              parse_weight_system(wb))


#: Every square of four small searches: n = 3 self-couplings with a0 = 3
#: and a0 = 0, the n = 4 Fermat-degree self-coupling (a0 = 0) and a
#: coupled pair with a0 = 1 and b0 = 3.
SEARCHED = [ms for wa, wb in [("1,1,1;6", "1,1,1;6"), ("1,1,2;4", "1,1,2;4"),
                              ("1,1,1,1;4", "1,1,1,1;4"),
                              ("1,3,5;10", "4,10,13;30")]
            for ms in search(wa, wb)]

#: Every positive catalog square, the searched squares and the
#: self-couplings of 1,2,2;4 (a0 = -1).  They include squares whose C - 1
#: is singular and one whose support is degenerate.
KERNEL_SQUARES = (
    [e.square for e in load_catalog() if e.positive]
    + SEARCHED + search("1,2,2;4", "1,2,2;4"))


@st.composite
def coupled_pairs(draw):
    """A pair with k * a0 = h * b0, so that squares may couple it, and
    few enough rows that the unpruned search stays small."""
    n = draw(st.integers(2, 4))
    a = sorted(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)))
    h = draw(st.integers(1, max(a) + 3))
    b = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    # k * a0 = h * b0 holds exactly when k * sum(a) = h * sum(b), so the
    # last column weight grows until sum(a) divides h * sum(b)
    b[-1] += -sum(b) % (sum(a) // gcd(sum(a), h))
    wa = WeightSystem(tuple(a), h)
    assume(len(enumerate_rows(wa)) ** n <= 4096)
    return wa, WeightSystem(tuple(b), h * sum(b) // sum(a))


def reference_monomials(entries) -> str:
    """Row i becomes the product of the variables x, y, z, t of its nonzero
    columns, each with its exponent after ^ unless it is 1, in braces when
    it has more than one digit; a row of zeros is the empty product, 1.
    Rows are separated by a comma and a space."""
    def factor(var, exponent):
        digits = str(exponent)
        if exponent == 1:
            return var
        return f"{var}^{digits}" if len(digits) == 1 else f"{var}^{{{digits}}}"

    return ", ".join("".join(factor(var, e) for var, e in zip("xyzt", row)
                             if e) or "1" for row in entries)
