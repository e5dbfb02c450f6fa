"""Helpers shared by the test modules.

``outcome`` compares a kernel with its reference by value or by error.
``rebuilt`` changes fields of a value by building it again through its
class's constructor, which checks it again.
``mat_mul`` is the plain matrix product the tests use as an independent
check of the package's exact linear algebra, which has no product of its
own.  ``SEARCHED`` and ``KERNEL_SQUARES`` are the squares on which the
integer kernels are compared with their Fraction references.
"""

from __future__ import annotations

from weightmagic import (WeightMagicError, find_magic_squares, load_catalog,
                         parse_weight_system)


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
