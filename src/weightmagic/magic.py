"""Weighted magic squares.

A square C couples a weight pair (W_a of degree h, W_b of degree k) when
every a-weighted row sum equals h and every b-weighted column sum equals
k, i.e. C.a = (h,...,h)^t and b.C = (k,...,k).  This module validates and
classifies such squares, inverts C - 1 exactly, recovers both weight
systems from that inverse, recovers a missing column system from C
alone, and handles the monomial notation used to write the rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import ParseError, SingularMatrixError, ValidationError
from .weights import WeightSystem, reduce_system

PRIMITIVE = "primitive"
ALMOST_PRIMITIVE = "almost_primitive"
PLAIN = "plain"


_VARS = "xyzt"
_TOKEN = re.compile(r"([xyzt])(?:\^(?:\{(\d+)\}|(\d+)))?")


@dataclass(frozen=True)
class MagicSquare:
    """A validated weighted magic square bound to its weight pair.

    Construction runs the defining relations, so an instance is valid by
    the time it exists.  Only the search and ``transpose``, whose squares
    are valid by construction, skip them (through ``_trusted``).  A square
    keeps its special subsets and its inverse data, or the refusal when
    C - 1 is singular; equality, hash and repr ignore them.
    """

    entries: tuple[tuple[int, ...], ...]
    wa: WeightSystem
    wb: WeightSystem

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        n = self.wa.n
        if self.wb.n != n:
            raise ValidationError(
                f"weight systems disagree on size: {self.wa.n} vs {self.wb.n}"
            )
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValidationError(f"matrix must be {n}x{n} to match the weights")
        if any(type(c) is not int or c < 0 for row in entries for c in row):
            raise ValidationError("matrix entries must be non-negative integers")
        h, k = self.wa.degree, self.wb.degree
        for i, row in enumerate(entries):
            s = sum(c * a for c, a in zip(row, self.wa.weights))
            if s != h:
                raise ValidationError(
                    f"row {i + 1} has a-weighted sum {s}, expected the degree {h}"
                )
        for j in range(n):
            s = sum(self.wb.weights[i] * entries[i][j] for i in range(n))
            if s != k:
                raise ValidationError(
                    f"column {j + 1} has b-weighted sum {s}, expected the degree {k}"
                )

    @classmethod
    def _trusted(cls, entries, wa: WeightSystem, wb: WeightSystem
                 ) -> MagicSquare:
        """A square the caller built to satisfy both relations, with
        entries already tuples of ints; skips the checks above."""
        square = object.__new__(cls)
        object.__setattr__(square, "entries", entries)
        object.__setattr__(square, "wa", wa)
        object.__setattr__(square, "wb", wb)
        return square

    @property
    def n(self) -> int:
        return len(self.entries)

    def monomials(self) -> str:
        return format_monomial_matrix(self.entries)

    def __str__(self) -> str:
        return self.monomials()


def validate(entries, wa: WeightSystem, wb: WeightSystem) -> MagicSquare:
    """Check both defining relations and return the validated square."""
    return MagicSquare(entries, wa, wb)


@dataclass(frozen=True)
class CouplingReport:
    """Determinant-level classification and strongness."""

    determinant: int
    classification: str
    strong: bool


def classify(ms: MagicSquare) -> CouplingReport:
    """Classify |det C| against h, k and the two virtual weights.

    primitive:        |det C| = h = k
    almost_primitive: |det C| = h * b0 = k * a0
    plain:            anything else

    A square is *strong* when every row and every column contains a zero.
    Primitive implies the almost-primitive equalities with a0 = b0 = 1,
    so the strongest applicable label is reported.
    """
    det = linalg.determinant(ms.entries)
    h, k = ms.wa.degree, ms.wb.degree
    a0, b0 = ms.wa.a0, ms.wb.a0
    if abs(det) == h == k:
        label = PRIMITIVE
    elif abs(det) == h * b0 and abs(det) == k * a0:
        label = ALMOST_PRIMITIVE
    else:
        label = PLAIN
    strong = (all(0 in row for row in ms.entries)
              and all(0 in col for col in zip(*ms.entries)))
    return CouplingReport(det, label, strong)


@dataclass(frozen=True)
class InverseData:
    """The exact rational inverse A of B = C - 1 and the weight systems
    recovered from its row and column sums."""

    a: tuple[tuple[Fraction, ...], ...]
    recovered_wa: WeightSystem
    recovered_wb: WeightSystem


def _system_from_ratios(sums, d: int) -> WeightSystem:
    """Rebuild a reduced weight system from the ratios weight_i / virtual,
    given as integer sums over one positive denominator d.

    The ratios s_i / d determine (a0, a_1, ..., a_n) up to one rational
    scale: (a0, a) is (d, s) divided by gcd(d, s), negated when no ratio
    is positive so that the weights are; no prime then divides a0 and
    every weight, so the tuple is the smallest integer one.
    """
    q = gcd(d, *sums)
    if all(s <= 0 for s in sums):
        q = -q  # negative virtual weight: flip the whole tuple positive
    ws = tuple(s // q for s in sums)
    return reduce_system(WeightSystem(ws, d // q + sum(ws))).system


def inverse_data(ms: MagicSquare) -> InverseData:
    """Invert B = C - 1 exactly and recover both weight systems from A.

    B.a = a0.(1, ..., 1)^t and b^t.B = b0.(1, ..., 1), so the row sums of
    A are a_i / a0 and its column sums are b_j / b0: on a valid square the
    recovered systems are the reduced bound ones.  B is singular whenever
    a0 = 0 or b0 = 0.  The sums are taken on ints, over A = N/d.

    The data is kept on the square, and so is the refusal when B is
    singular: B is inverted once, and each later call on a singular B
    raises a fresh SingularMatrixError with the same text.
    """
    data = ms.__dict__.get("_inverse_data")
    if data is None:
        b = tuple(tuple(c - 1 for c in row) for row in ms.entries)
        try:
            a = linalg.inverse(b)
        except SingularMatrixError:
            data = SingularMatrixError(
                "C - 1 is singular, so the inverse data does not exist")
        else:
            d, numerators = linalg.common_denominator(a)
            data = InverseData(
                a, _system_from_ratios([sum(row) for row in numerators], d),
                _system_from_ratios([sum(col) for col in zip(*numerators)], d))
        object.__setattr__(ms, "_inverse_data", data)
    if isinstance(data, SingularMatrixError):
        raise SingularMatrixError(*data.args)
    return data


def recover_partner(entries, wa: WeightSystem) -> MagicSquare:
    """Recover the column weight system of ``entries`` from C alone.

    The column relation b.C = k.(1, ..., 1) gives b / k as the solution x
    of C^t x = (1, ..., 1) whenever det C != 0, including partners of
    virtual weight 0, where C - 1 is singular.  The smallest positive
    integers proportional to x are kept in column order (not sorted), so
    the returned square validates as-is; k is their first b-weighted
    column sum.
    """
    n = len(entries)
    try:
        x = linalg.solve(linalg.transpose(entries), (1,) * n)
    except SingularMatrixError:
        raise SingularMatrixError(
            "C is singular, so the column weights are not determined"
        ) from None
    q = lcm(*(r.denominator for r in x))
    ws = tuple(r.numerator * (q // r.denominator) for r in x)
    k = sum(w * row[0] for w, row in zip(ws, entries))
    return validate(entries, wa, WeightSystem(ws, k))


def transpose(ms: MagicSquare) -> MagicSquare:
    """Swap rows with columns and the two weight systems; always valid
    (each relation of C is the other one of C^t), so not checked again."""
    return MagicSquare._trusted(linalg.transpose(ms.entries), ms.wb, ms.wa)


# ---------------------------------------------------------------------------
# Monomial and matrix notation


def parse_monomial_matrix(text: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Parse ``x^5z, xy^3, z^2`` into exponent rows.

    Variables are x, y, z, t for the first, ..., fourth column.  Exponents
    use ^e or ^{e}, default 1.  Monomial i becomes row i.
    """
    if not 2 <= n <= 4:
        raise ParseError(f"monomial matrices need n between 2 and 4, got {n}")
    monomials = [m.strip() for m in text.split(",")]
    if len(monomials) != n:
        raise ParseError(f"expected {n} monomials, got {len(monomials)} in {text!r}")
    rows = []
    for mono in monomials:
        s = re.sub(r"\s+", "", mono)
        if not s:
            raise ParseError(f"empty monomial in {text!r}")
        row = [0] * n
        seen: set[int] = set()
        pos = 0
        while pos < len(s):
            m = _TOKEN.match(s, pos)
            if not m:
                raise ParseError(f"cannot read monomial {mono!r} at {s[pos:]!r}")
            letter, brace_exp, plain_exp = m.groups()
            var = _VARS.index(letter)
            if var >= n:
                raise ParseError(
                    f"variable {m.group(0)!r} out of range for {n} variables"
                )
            if var in seen:
                raise ParseError(f"variable repeated in monomial {mono!r}")
            seen.add(var)
            row[var] = int(brace_exp or plain_exp or 1)
            pos = m.end()
        rows.append(tuple(row))
    return tuple(rows)


def format_monomial_matrix(entries) -> str:
    """Render exponent rows in the notation ``x^{21}z, y^3, z^2``.

    Single-digit exponents are bare, multi-digit ones braced, exponent-1
    variables unadorned; rows are joined by a comma and a space.
    """
    parts = []
    for row in entries:
        factors = []
        for var, exp in zip(_VARS, row):
            if exp == 0:
                continue
            if exp == 1:
                factors.append(var)
            elif exp < 10:
                factors.append(f"{var}^{exp}")
            else:
                factors.append(f"{var}^{{{exp}}}")
        parts.append("".join(factors) or "1")
    return ", ".join(parts)


def parse_matrix(text: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Accept either monomial notation or semicolon-separated integer
    rows, e.g. ``5,0,1;1,3,0;0,0,2``."""
    if ";" not in text:
        return parse_monomial_matrix(text, n)
    rows = []
    for number, part in enumerate(text.split(";"), 1):
        row = []
        for entry in re.split(r"\s*,\s*", part.strip()):
            try:
                row.append(int(entry))
            except ValueError:
                raise ParseError(
                    f"cannot read integer matrix {text!r}: entry {entry!r} "
                    f"in row {number} is not an integer") from None
        rows.append(tuple(row))
    if len({len(r) for r in rows}) != 1:
        raise ParseError(f"ragged matrix {text!r}")
    if len(rows) != n or len(rows[0]) != n:
        raise ParseError(f"expected a {n}x{n} matrix, got {text!r}")
    return tuple(rows)
