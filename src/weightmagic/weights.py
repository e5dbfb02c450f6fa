"""Weight systems: ordered non-negative weights with a degree.

A weight system (a_1, ..., a_n; h) assigns weight a_i to the i-th variable
and fixes a total degree h.  The virtual weight a_0 := h - sum(a_i) is
derived once at construction and takes no part in comparison.  Two
systems are equivalent when one is a permutation of a rational rescaling
of the other; each class with an integer representative of weight-gcd
dividing its degree has a unique reduced (gcd 1, ascending)
representative.

``_Value``, the base of the package's immutable value types, lives here
because every module that defines one already imports this one.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import ParseError, ValidationError

MIN_WEIGHTS = 2
MAX_WEIGHTS = 4

_GRAMMAR = re.compile(r"([0-9]+(?:\s*,\s*[0-9]+)*)\s*;\s*([0-9]+)")


class _Value:
    """Base of the package's immutable value types.

    Each class declares its fields, in order, as ``_fields``; its
    constructor takes them by position or by keyword, and a missing,
    unknown, extra or repeated field is a TypeError naming the class.  A
    class that checks its fields has its own ``__init__`` with exactly
    these parameters, which checks them and sets them through
    ``super().__init__``; ``_trusted`` builds a value its caller made to
    pass those checks without running them.  A value with an instance
    dict keeps facts computed from it (``_kept``).  ``__eq__`` (within one
    class), ``__hash__`` and ``__repr__`` read the fields and nothing
    else, such as ``WeightSystem.a0`` or the kept facts.  Assignment and
    deletion raise AttributeError, so a changed value is built again
    through its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields
        get = attrgetter(*names)  # for one name, the value, not a 1-tuple
        cls._values = staticmethod(
            get if len(names) > 1 else lambda value: (get(value),))
        shown = ", ".join(f"{name}=%r" for name in names)
        cls._repr = f"{cls.__qualname__}({shown})"

    def __init__(self, *values, **named):
        names = self._fields
        if named or len(values) != len(names):
            values = self._bind(values, named)
        # not through __dict__: on CPython 3.11 a materialised instance
        # dict makes every later read of a field slower
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, values, named) -> tuple:
        """Every field in order, from a call that did not give exactly
        one value per field by position."""
        names, call = cls._fields, f"{cls.__qualname__}()"
        if len(values) > len(names):
            raise TypeError(f"{call} takes {len(names)} fields, "
                            f"got {len(values)} by position")
        for name in named:
            if name not in names:
                raise TypeError(f"{call} has no field {name!r}")
            if names.index(name) < len(values):
                raise TypeError(f"{call} got field {name!r} twice")
        missing = [name for name in names[len(values):] if name not in named]
        if missing:
            raise TypeError(f"{call} is missing the fields {missing}")
        return values + tuple(named[name] for name in names[len(values):])

    @classmethod
    def _trusted(cls, *values):
        """A value whose fields, given by position, the caller built to
        pass the class's checks; skips them.  Filling the instance dict
        in one step is cheaper than the constructor's writes, and a value
        built this way keeps its facts in that dict anyway."""
        value = object.__new__(cls)
        value.__dict__.update(zip(cls._fields, values))
        return value

    def _kept(self, name: str, compute, refusals=()):
        """``compute(self)``, computed once and kept on the value under
        ``name``.  A refusal of one of the types ``refusals`` is kept in
        its place, and every call, the first included, raises a fresh
        error of the same type and text."""
        kept = self.__dict__.get(name)
        if kept is None:
            try:
                kept = compute(self)
            except refusals as exc:
                kept = type(exc)(*exc.args)  # a copy: no traceback, no frames
            self.__dict__[name] = kept
        if isinstance(kept, Exception):
            raise type(kept)(*kept.args)
        return kept

    def __eq__(self, other):
        cls = type(self)
        if type(other) is cls:
            return cls._values(self) == cls._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(type(self)._values(self))

    def __repr__(self):
        return self._repr % type(self)._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeightSystem(_Value):
    """Weights (a_1, ..., a_n) of degree h, written ``a1,...,an;h``.

    Weights are non-negative ints, and at most one of them may be zero, as
    in the catalog's self-coupled I_1,0 (2,3,0;6).  Validity depends on the
    value alone; every operation that divides by a weight refuses a
    zero-weight system itself, and the text form admits none.
    """

    _fields = ("weights", "degree")

    def __init__(self, weights: tuple[int, ...], degree: int):
        ws = weights if type(weights) is tuple else tuple(weights)
        super().__init__(ws, degree)
        if type(degree) is not int or not set(map(type, ws)) <= {int}:
            raise ValidationError(
                f"weights {ws} and degree {degree!r} must be integers")
        n = len(ws)
        if not MIN_WEIGHTS <= n <= MAX_WEIGHTS:
            raise ValidationError(
                f"need between {MIN_WEIGHTS} and {MAX_WEIGHTS} weights, got {n}"
            )
        if degree <= 0:
            raise ValidationError(f"degree must be positive, got {degree}")
        if min(ws) < 0:
            raise ValidationError(f"negative weight in {ws}")
        zeros = ws.count(0)
        if zeros == n:
            raise ValidationError("all weights are zero")
        if zeros > 1:
            raise ValidationError("at most one weight may be zero")
        # the virtual weight h - sum(a_i); may be zero or negative
        object.__setattr__(self, "a0", degree - sum(ws))

    @property
    def n(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.weights) + f";{self.degree}"

    def full_form(self) -> str:
        """Layout with the virtual weight printed first: ``a0,a1,...,an;h``."""
        return f"{self.a0}," + str(self)


class Reduction(_Value):
    """A reduced ascending representative plus how it was obtained: reduced
    weight i came from input position ``permutation[i]``, and the reduced
    weights are ``scale`` times the original ones."""

    _fields = ("system", "permutation", "scale")


def _read_int(digits: str, field: str, *args) -> int:
    """``int(digits)``, or a ParseError naming ``field % args`` (formatted
    only then) if the run of digits is longer than int() converts."""
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        count = len(digits.strip().lstrip("-"))  # a sign is not a digit
        raise ParseError(
            f"{field % args} has {count} digits, more than the "
            f"{sys.get_int_max_str_digits()} that can be read") from None


def parse_weight_system(text: str) -> WeightSystem:
    """Parse ``a1,...,an;h`` into a positive WeightSystem, order preserved."""
    m = _GRAMMAR.fullmatch(text.strip())
    if not m:
        raise ParseError(f"weight system must match 'a1,...,an;h', got {text!r}")
    ws = tuple(_read_int(a, "weight %d", i)
               for i, a in enumerate(m.group(1).split(","), 1))
    try:
        w = WeightSystem(ws, _read_int(m.group(2), "degree"))
    except ValidationError as exc:
        raise ParseError(f"invalid weight system {text!r}: {exc}") from exc
    if 0 in ws:
        raise ParseError(f"invalid weight system {text!r}: zero weight in "
                         f"{ws}; every weight must be positive")
    return w


def reduce_system(w: WeightSystem) -> Reduction:
    """Divide out the weight gcd and sort ascending; record both steps."""
    g = gcd(*w.weights)
    if w.degree % g:
        raise ValidationError(
            f"weight gcd {g} does not divide the degree {w.degree}; the "
            f"equivalence class of {w} has no reduced integer representative"
        )
    order = sorted(range(w.n), key=lambda i: w.weights[i])
    reduced = WeightSystem(tuple(w.weights[i] // g for i in order),
                           w.degree // g)
    return Reduction(reduced, tuple(order), Fraction(1, g))


def equivalent(w1: WeightSystem, w2: WeightSystem) -> bool:
    """True iff some permutation and positive rational rescaling map w1 to w2.

    Implemented by cross-multiplying the sorted weight tuples, so no
    divisibility assumptions are needed.  Zero-weight systems are refused:
    a zero weight is preserved by every rescaling, which would make the
    check silently weaker than it looks.
    """
    if 0 in w1.weights or 0 in w2.weights:
        raise ValidationError(
            "scaling equivalence is not defined for zero-weight systems"
        )
    if w1.n != w2.n:
        return False
    s1, s2 = sorted(w1.weights), sorted(w2.weights)
    h1, h2 = w1.degree, w2.degree
    return all(a * h2 == b * h1 for a, b in zip(s1, s2))


def is_calabi_yau(w: WeightSystem) -> bool:
    """True when the virtual weight is positive and divides the degree."""
    return w.a0 > 0 and w.degree % w.a0 == 0
