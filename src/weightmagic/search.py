"""Exhaustive search for weighted magic squares coupling a weight pair.

A system's rows, enumerated once and kept, are assembled depth-first into
squares, their column sums packed as the digits of one int; a strong
search places only the rows that hold a zero.  Each row multiset is
reported once, in a canonical arrangement.
:func:`find_magic_squares` states the rules and why they keep its output.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from operator import mul

from . import magic
from .errors import SearchCapExceeded, ValidationError
from .weights import WeightSystem

#: Each search filter and the classifications of the squares it keeps.
FILTERS = {"any": (magic.PRIMITIVE, magic.ALMOST_PRIMITIVE, magic.PLAIN),
           "almost_primitive": (magic.PRIMITIVE, magic.ALMOST_PRIMITIVE),
           "primitive": (magic.PRIMITIVE,)}


@lru_cache(maxsize=64)
def enumerate_rows(wa: WeightSystem) -> tuple[tuple[int, ...], ...]:
    """All non-negative integer rows c with sum(c_j * a_j) = h,
    lexicographically descending, as a tuple; the rows of the 64 most
    recent systems are kept and shared by every caller."""
    if 0 in wa.weights:
        raise ValidationError("row enumeration requires strictly positive weights")
    n = wa.n
    out: list[tuple[int, ...]] = []

    def extend(j: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if j == n - 1:
            if remaining % wa.weights[j] == 0:
                out.append(prefix + (remaining // wa.weights[j],))
            return
        for c in range(remaining // wa.weights[j], -1, -1):
            extend(j + 1, remaining - c * wa.weights[j], prefix + (c,))

    extend(0, wa.degree, ())
    return tuple(out)


def _columns_valid(rows, wb: WeightSystem) -> bool:
    k, b = wb.degree, wb.weights
    return all(sum(map(mul, b, column)) == k for column in zip(*rows))


def canonicalize(rows, wb: WeightSystem) -> tuple[tuple[int, ...], ...] | None:
    """The lexicographically greatest arrangement of the given rows that
    satisfies the column relation for wb, or None if no arrangement does.

    The row relation is arrangement-independent, but the column relation
    weights row i by b_i, so not every ordering of a valid multiset is
    valid; the greatest valid ordering is the reported representative.

    The permutations of the rows sorted descending are scanned and the
    first valid one is returned.  ``permutations`` emits index tuples in
    lexicographic order.  Let p be the first one that produces the
    greatest valid tuple T.  An index tuple emitted before p first
    differs from p at some position by a smaller index, whose row is not
    smaller.  Nor is it equal: p places that index later, and swapping the
    two equal rows in p would produce T from an earlier index tuple.  So
    every permutation emitted before p is lexicographically greater than
    T, hence invalid.
    """
    for cand in permutations(sorted(rows, reverse=True)):
        if _columns_valid(cand, wb):
            return cand
    return None


def find_magic_squares(wa: WeightSystem, wb: WeightSystem, *,
                       filter: str = "any", strong_only: bool = False,
                       cap: int = 10**6) -> list[magic.MagicSquare]:
    """Every magic square coupling (wa, wb), one per row multiset.

    ``filter`` keeps the squares whose classification it names in
    :data:`FILTERS`, ``strong_only`` keeps the strong squares, and more
    than ``cap`` results raise SearchCapExceeded.  An unknown filter, a
    zero weight, unequal sizes, a cap that is not an int or is below 1
    and a non-bool ``strong_only`` are refused with ValidationError, in
    that order and before any other work.

    A pair with k * a0 != h * b0 has no square and returns [] before
    any rows are enumerated: b^T C a is h (k - b0) by the row relation
    C a = h 1 and k (h - a0) by the column relation b^T C = k 1.  So
    does a primitive search with h != k, as primitive means |det C| = h = k.
    A search with no row to place (wa has none, or a strong search none
    holding a zero) returns [] before any packing.

    Rows come from :func:`enumerate_rows` and are placed depth-first in
    enumeration order, the column sums s_j kept as the digits of one int
    in radix 2**m, with 2**(m-1) > max(k, B) and B = max(b) * h >= b_i c_j.
    Adding 2**(m-1) - 1 - k to every digit sets a digit's top bit exactly
    when its sum exceeds k, which prunes the row; no digit carries, as a
    tested sum is at most k + B.  The last row is looked up, not looped
    over: the residual digits k - s_j - b_(n-1) c_j and b_n times a
    row's entries all lie in [-B, max(k, B)], a span narrower than the
    radix, so the two ints are equal only digit by digit, and a negative
    residual, or one b_n does not divide, matches no row.  Where
    b_i = b_(i-1), row i is never earlier in enumeration order than row
    i-1, the solved last row included.  Each multiset's first arrangement
    in depth-first order is its lexicographically greatest valid one,
    which that ordering keeps, so multisets are discovered in the same
    order as by the unpruned search.  The squares built this way satisfy
    both relations by construction and are not validated again.  A strong
    search places only the rows that hold a zero, in their order, and
    drops an arrangement with a zero-free column before it is sorted:
    permuting rows keeps each row's zeros and each column's entries, so
    only strong multisets are canonicalized.

    Results are deduplicated by row multiset, rendered in canonical
    arrangement and, once strongness has been checked, filtered by
    classification: a filter other than "any" classifies each square that
    ``strong_only`` keeps.  They come out strictly descending by entries
    without a sort: the search visits arrangements in descending order,
    rows lexicographically descending and the last row fixed by the rows
    before it, and admits each multiset at its canonical arrangement.
    Exceeding the result cap raises SearchCapExceeded carrying the results
    collected so far, a prefix of the full list.
    """
    if not isinstance(filter, str) or filter not in FILTERS:
        raise ValidationError(
            f"filter must be one of {tuple(FILTERS)}, got {filter!r}")
    if 0 in wa.weights or 0 in wb.weights:
        raise ValidationError("search requires strictly positive weights")
    if len(wa.weights) != len(wb.weights):
        raise ValidationError(
            f"weight systems disagree on size: {wa.n} vs {wb.n}")
    if type(cap) is not int:
        raise ValidationError(f"cap must be an int, got {cap!r}")
    if cap < 1:
        raise ValidationError(f"cap must be positive, got {cap}")
    if type(strong_only) is not bool:
        raise ValidationError(
            f"strong_only must be a bool, got {strong_only!r}")
    if (wb.degree * wa.a0 != wa.degree * wb.a0
            or filter == "primitive" and wa.degree != wb.degree):
        return []
    return _assemble(wa, wb, filter, strong_only, cap)


def _assemble(wa, wb, filter, strong_only, cap):
    # a function of its own: find_magic_squares' early exits make no cells
    rows = enumerate_rows(wa)
    if strong_only:  # a square with a zero-free row is not strong
        rows = [row for row in rows if 0 in row]
    if not rows:
        return []
    n, k, b = wa.n, wb.degree, wb.weights
    half = 1 << max(k, max(b) * wa.degree).bit_length()
    digits = [(2 * half) ** j for j in range(n)]
    packed = [sum(map(mul, row, digits)) for row in rows]
    unit = sum(digits)
    placed = [[bi * p for p in packed] for bi in b[:-1]]
    last_of = {b[-1] * p: j for j, p in enumerate(packed)}
    full, guard, high = k * unit, (half - 1 - k) * unit, half * unit
    seen: set[tuple[tuple[int, ...], ...]] = set()
    accepted: list[magic.MagicSquare] = []

    def admit(arrangement: tuple[tuple[int, ...], ...]) -> None:
        if strong_only and not magic._is_strong(arrangement):
            return
        key = tuple(sorted(arrangement))
        if key in seen:
            return
        seen.add(key)
        canonical = canonicalize(key, wb)
        ms = magic.MagicSquare._trusted(canonical, wa, wb)
        if (filter != "any" and magic.classify(ms).classification
                not in FILTERS[filter]):
            return
        if len(accepted) >= cap:
            raise SearchCapExceeded(
                f"more than {cap} squares couple {wa} and {wb}",
                partial=accepted,
            )
        accepted.append(ms)

    def assemble(i: int, start: int, chosen: tuple[tuple[int, ...], ...],
                 total: int) -> None:
        # start: the first row index allowed at depth i, nonzero only
        # when b_i = b_(i-1); total: the packed column sums so far
        tie = b[i + 1] == b[i]
        here = placed[i]
        if i == n - 2:
            rest, last_at = full - total, last_of.get
            for j in range(start, len(rows)):
                last = last_at(rest - here[j], -1)
                if last >= (j if tie else 0):
                    admit(chosen + (rows[j], rows[last]))
            return
        guarded = total + guard
        for j in range(start, len(rows)):
            if not (guarded + here[j]) & high:
                assemble(i + 1, j if tie else 0, chosen + (rows[j],),
                         total + here[j])

    assemble(0, 0, (), 0)
    return accepted
