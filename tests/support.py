"""Helpers shared by the test modules.

``outcome`` compares a kernel with its reference by value or by error.
``rebuilt`` changes fields of a value by building it again through its
class's constructor, which checks it again.
``mat_mul`` is the plain matrix product the tests use as an independent
check of the package's exact linear algebra, which has no product of its
own.  ``SEARCHED`` and ``KERNEL_SQUARES`` are the squares on which the
integer kernels are compared with their Fraction references.
``brute_force_squares`` is the plain ``product`` form of criterion 8's
n=2 oracle, the reference its per-row-system form is compared with.
``coupled_pairs`` draws weight pairs that squares may couple.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from hypothesis import assume
from hypothesis import strategies as st

from weightmagic import (WeightMagicError, WeightSystem, find_magic_squares,
                         load_catalog, parse_weight_system)
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
