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
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import ParseError, SingularMatrixError, ValidationError
from .weights import WeightSystem, _read_int, _Value, reduce_system

PRIMITIVE = "primitive"
ALMOST_PRIMITIVE = "almost_primitive"
PLAIN = "plain"


_VARS = "xyzt"
_TOKEN = re.compile(r"([xyzt])(?:\^(?:\{([0-9]+)\}|([0-9]+)))?")


class MagicSquare(_Value):
    """A validated weighted magic square bound to its weight pair.

    Construction runs the defining relations, so an instance is valid by
    the time it exists.  Only the search and ``transpose``, whose squares
    are valid by construction, with entries already tuples of ints, skip
    them (through ``_trusted``); ``recover_partner`` checks all but the
    column relation, which holds by construction.  A square keeps the
    facts computed from it (``_Value._kept``).
    """

    _fields = ("entries", "wa", "wb")

    def __init__(self, entries: tuple[tuple[int, ...], ...],
                 wa: WeightSystem, wb: WeightSystem):
        entries = tuple(tuple(row) for row in entries)
        super().__init__(entries, wa, wb)
        _check_shape(entries, wa, wb.n)
        _check_rows(entries, wa)
        for j in range(wa.n):
            s = sum(b * row[j] for b, row in zip(wb.weights, entries))
            if s != wb.degree:
                raise ValidationError(f"column {j + 1} has b-weighted sum {s}, "
                                      f"expected the degree {wb.degree}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def monomials(self) -> str:
        return format_monomial_matrix(self.entries)

    def __str__(self) -> str:
        return self.monomials()


def _check_shape(entries, wa: WeightSystem, nb: int) -> None:
    """The sizes agree, nb being the partner's, and entries are ints >= 0."""
    n = wa.n
    if nb != n:
        raise ValidationError(f"weight systems disagree on size: {n} vs {nb}")
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValidationError(f"matrix must be {n}x{n} to match the weights")
    if any(type(c) is not int or c < 0 for row in entries for c in row):
        raise ValidationError("matrix entries must be non-negative integers")


def _check_rows(entries, wa: WeightSystem) -> None:
    """Each a-weighted row sum is h."""
    for i, row in enumerate(entries):
        s = sum(c * a for c, a in zip(row, wa.weights))
        if s != wa.degree:
            raise ValidationError(f"row {i + 1} has a-weighted sum {s}, "
                                  f"expected the degree {wa.degree}")


def validate(entries, wa: WeightSystem, wb: WeightSystem) -> MagicSquare:
    """Check both defining relations and return the validated square."""
    return MagicSquare(entries, wa, wb)


class CouplingReport(_Value):
    """Determinant-level classification and strongness."""

    _fields = ("determinant", "classification", "strong")


def classify(ms: MagicSquare) -> CouplingReport:
    """Classify |det C| against h, k and the two virtual weights.

    primitive:        |det C| = h = k
    almost_primitive: |det C| = h * b0 = k * a0
    plain:            anything else

    A square is *strong* when every row and every column contains a zero.
    Primitive implies the almost-primitive equalities with a0 = b0 = 1,
    so the strongest applicable label is reported.

    The report is kept on the square, so det C is expanded once per
    square; `zeta.special_subsets` reads it for the full column set.
    """
    return ms._kept("_coupling_report", _classify)


def _classify(ms: MagicSquare) -> CouplingReport:
    det = linalg.determinant(ms.entries)
    h, k = ms.wa.degree, ms.wb.degree
    a0, b0 = ms.wa.a0, ms.wb.a0
    if abs(det) == h == k:
        label = PRIMITIVE
    elif abs(det) == h * b0 and abs(det) == k * a0:
        label = ALMOST_PRIMITIVE
    else:
        label = PLAIN
    return CouplingReport(det, label, _is_strong(ms.entries))


def _is_strong(entries) -> bool:
    """Every row and every column of ``entries`` contains a zero."""
    return not any(map(all, (*entries, *zip(*entries))))


class InverseData(_Value):
    """The exact rational inverse A of B = C - 1 and the weight systems
    recovered from its row and column sums."""

    _fields = ("a", "recovered_wa", "recovered_wb")


def _system_from_ratios(sums, d: int) -> WeightSystem:
    """Rebuild a reduced weight system from the ratios weight_i / virtual,
    given as integer sums over one nonzero denominator d of either sign.

    The ratios s_i / d determine (a0, a_1, ..., a_n) up to one rational
    scale: (a0, a) is (d, s) / q for q = +-gcd(d, s), negative when no s_i
    is positive so that the weights are; no prime then divides a0 and
    every weight, so the tuple is the smallest integer one.  When no two
    s_i differ in sign, as sums of weights do not, (-d, -s) negates q as
    well, so either sign of d gives the same tuple.  It is validated in
    the recovered order; weights of gcd 1 are then only sorted.  Any
    others share a prime that does not divide the degree, so
    `reduce_system` refuses them.
    """
    q = gcd(d, *sums)
    if all(s <= 0 for s in sums):
        q = -q  # negative virtual weight: flip the whole tuple positive
    ws = tuple(s // q for s in sums)
    system = WeightSystem(ws, d // q + sum(ws))
    if gcd(*ws) != 1:
        return reduce_system(system).system
    ascending = tuple(sorted(ws))
    return system if ascending == ws else WeightSystem(ascending, system.degree)


def inverse_data(ms: MagicSquare) -> InverseData:
    """Invert B = C - 1 exactly and recover both weight systems from A.

    B.a = a0.(1, ..., 1)^t and b^t.B = b0.(1, ..., 1), so the row sums of
    A are a_i / a0 and its column sums are b_j / b0: on a valid square the
    recovered systems are the reduced bound ones.  B is singular whenever
    a0 = 0 or b0 = 0.  The sums are taken on ints, over A = N/d.

    The data is kept on the square, and so is (d, N), or the refusal when
    B is singular, so B is inverted once.
    """
    return ms._kept("_inverse_data", _inverse_data)


def _inverse_data(ms: MagicSquare) -> InverseData:
    d, numerators = _inverse(ms)
    return InverseData(
        tuple(tuple(Fraction(x, d) for x in row) for row in numerators),
        _system_from_ratios([sum(row) for row in numerators], d),
        _system_from_ratios([sum(col) for col in zip(*numerators)], d))


def _inverse(ms: MagicSquare):
    """linalg.inverse's (d, N) of B = C - 1, or its refusal, kept on ms."""
    return ms._kept("_inverse", _invert, SingularMatrixError)


def _invert(ms: MagicSquare):
    try:
        return linalg.inverse([[c - 1 for c in row] for row in ms.entries])
    except SingularMatrixError:
        raise SingularMatrixError(
            "C - 1 is singular, so the inverse data does not exist") from None


def recover_partner(entries, wa: WeightSystem) -> MagicSquare:
    """Recover the column weight system of ``entries`` from C alone.

    The column relation b.C = k.(1, ..., 1) gives b / k as the solution x
    of C^t x = (1, ..., 1) whenever det C != 0, including partners of
    virtual weight 0, where C - 1 is singular.  The smallest positive
    integers proportional to x = y / d, y / gcd(y) signed as d, are kept
    in column order (not sorted), so the returned square validates as-is;
    k is their first b-weighted column sum, so the column relation holds
    and is not checked again.  Sizes and entries are checked before the
    solve, the row sums after it.
    """
    entries = tuple(tuple(row) for row in entries)
    _check_shape(entries, wa, len(entries))
    try:
        d, y = linalg.solve(linalg.transpose(entries), (1,) * wa.n)
    except SingularMatrixError:
        raise SingularMatrixError(
            "C is singular, so the column weights are not determined"
        ) from None
    q = gcd(*y) if d > 0 else -gcd(*y)
    ws = tuple(v // q for v in y)
    k = sum(w * row[0] for w, row in zip(ws, entries))
    wb = WeightSystem(ws, k)
    _check_rows(entries, wa)
    return MagicSquare._trusted(entries, wa, wb)


def transpose(ms: MagicSquare) -> MagicSquare:
    """Swap rows with columns and the two weight systems; always valid
    (each relation of C is the other one of C^t), so not checked again."""
    return MagicSquare._trusted(linalg.transpose(ms.entries), ms.wb, ms.wa)


# ---------------------------------------------------------------------------
# Monomial and matrix notation


def parse_monomial_matrix(text: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Parse ``x^5z, xy^3, z^2`` into exponent rows.

    Variables are x, y, z, t for the first, ..., fourth column.  Exponents
    use ^e or ^{e} in ASCII digits, default 1.  Monomial i becomes row i.
    """
    if not 2 <= n <= 4:
        raise ParseError(f"monomial matrices need n between 2 and 4, got {n}")
    monomials = [m.strip() for m in text.split(",")]
    if len(monomials) != n:
        raise ParseError(f"expected {n} monomials, got {len(monomials)} in {text!r}")
    rows = []
    for number, mono in enumerate(monomials, 1):
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
            row[var] = _read_int(brace_exp or plain_exp or "1",
                                 "exponent of %s in monomial %d", letter, number)
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
    rows, e.g. ``5,0,1;1,3,0;0,0,2``; each entry is a run of ASCII
    digits, as in a weight system, so ``-3``, ``3_0`` and ``+3`` are refused."""
    if ";" not in text:
        return parse_monomial_matrix(text, n)
    rows = []
    for number, part in enumerate(text.split(";"), 1):
        row = []
        for entry in re.split(r"\s*,\s*", part.strip()):
            if not (entry.isascii() and entry.isdecimal()):  # as [0-9]+
                raise ParseError(
                    f"cannot read integer matrix {text!r}: entry {entry!r} "
                    f"in row {number} must be a non-negative integer in "
                    "ASCII digits 0-9 only")
            row.append(_read_int(entry, "entry %d in row %d", len(row) + 1, number))
        rows.append(tuple(row))
    if len({len(r) for r in rows}) != 1:
        raise ParseError(f"ragged matrix {text!r}")
    if len(rows) != n or len(rows[0]) != n:
        raise ParseError(f"expected a {n}x{n} matrix, got {text!r}")
    return tuple(rows)
