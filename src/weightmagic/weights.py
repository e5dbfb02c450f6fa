"""Weight systems: ordered non-negative weights with a degree.

A weight system (a_1, ..., a_n; h) assigns weight a_i to the i-th variable
and fixes a total degree h.  The virtual weight a_0 := h - sum(a_i) is
derived once at construction and takes no part in comparison.  Two
systems are equivalent when one is a permutation of a rational rescaling
of the other; each class with an integer representative of weight-gcd
dividing its degree has a unique reduced (gcd 1, ascending)
representative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import ParseError, ValidationError

MIN_WEIGHTS = 2
MAX_WEIGHTS = 4

_GRAMMAR = re.compile(r"(\d+(?:\s*,\s*\d+)*)\s*;\s*(\d+)")


@dataclass(frozen=True)
class WeightSystem:
    """Weights (a_1, ..., a_n) of degree h, written ``a1,...,an;h``.

    Weights are non-negative ints, and at most one of them may be zero, as
    in the catalog's self-coupled I_1,0 (2,3,0;6).  Validity depends on the
    value alone; every operation that divides by a weight refuses a
    zero-weight system itself, and the text form admits none.
    """

    weights: tuple[int, ...]
    degree: int
    #: virtual weight h - sum(a_i); may be zero or negative
    a0: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ws = tuple(self.weights)
        object.__setattr__(self, "weights", ws)
        if not all(type(a) is int for a in ws + (self.degree,)):
            raise ValidationError(
                f"weights {ws} and degree {self.degree!r} must be integers")
        n = len(ws)
        if not MIN_WEIGHTS <= n <= MAX_WEIGHTS:
            raise ValidationError(
                f"need between {MIN_WEIGHTS} and {MAX_WEIGHTS} weights, got {n}"
            )
        if self.degree <= 0:
            raise ValidationError(f"degree must be positive, got {self.degree}")
        if any(a < 0 for a in ws):
            raise ValidationError(f"negative weight in {ws}")
        zeros = ws.count(0)
        if zeros == n:
            raise ValidationError("all weights are zero")
        if zeros > 1:
            raise ValidationError("at most one weight may be zero")
        object.__setattr__(self, "a0", self.degree - sum(ws))

    @property
    def n(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.weights) + f";{self.degree}"

    def full_form(self) -> str:
        """Layout with the virtual weight printed first: ``a0,a1,...,an;h``."""
        return f"{self.a0}," + str(self)


@dataclass(frozen=True)
class Reduction:
    """A reduced ascending representative plus how it was obtained."""

    system: WeightSystem
    permutation: tuple[int, ...]  # reduced weight i came from input position permutation[i]
    scale: Fraction  # reduced weights = scale * original weights


def parse_weight_system(text: str) -> WeightSystem:
    """Parse ``a1,...,an;h`` into a positive WeightSystem, order preserved."""
    m = _GRAMMAR.fullmatch(text.strip())
    if not m:
        raise ParseError(f"weight system must match 'a1,...,an;h', got {text!r}")
    ws = tuple(int(p) for p in re.split(r"\s*,\s*", m.group(1)))
    try:
        w = WeightSystem(ws, int(m.group(2)))
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
