"""Exhaustive search for weighted magic squares coupling a weight pair.

Rows are enumerated as the non-negative integer solutions of the row
relation, assembled depth-first into squares with prefix pruning against
the column relation, and reported once per row multiset in a canonical
arrangement.  :func:`find_magic_squares` states the rules that prune the
search and why they leave its output unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from . import magic
from .errors import SearchCapExceeded, ValidationError
from .weights import WeightSystem

FILTERS = ("any", "almost_primitive", "primitive")


@dataclass(slots=True)
class SearchQuery:
    """Parameters for one search over a fixed weight pair, validated when
    built.  Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which is most of the cost of a query that
    fails k * a0 = h * b0 and searches nothing."""

    wa: WeightSystem
    wb: WeightSystem
    filter: str = "any"
    strong_only: bool = False
    cap: int = 10**6

    def __post_init__(self):
        if self.filter not in FILTERS:
            raise ValidationError(
                f"filter must be one of {FILTERS}, got {self.filter!r}"
            )
        if 0 in self.wa.weights or 0 in self.wb.weights:
            raise ValidationError("search requires strictly positive weights")
        if len(self.wa.weights) != len(self.wb.weights):
            raise ValidationError(
                f"weight systems disagree on size: {self.wa.n} vs {self.wb.n}"
            )
        if self.cap < 1:
            raise ValidationError(f"cap must be positive, got {self.cap}")


def enumerate_rows(wa: WeightSystem) -> list[tuple[int, ...]]:
    """All non-negative integer rows c with sum(c_j * a_j) = h,
    lexicographically descending, as a fresh list."""
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
    return out


@lru_cache(maxsize=64)
def _plan(wa: WeightSystem
          ) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """The rows of ``wa`` in enumeration order and each row's index;
    kept for the 64 most recent systems, so a search on a system seen
    before does not enumerate its rows again."""
    rows = tuple(enumerate_rows(wa))
    return rows, {row: j for j, row in enumerate(rows)}


def _columns_valid(rows, wb: WeightSystem) -> bool:
    k = wb.degree
    return all(
        sum(b * row[j] for b, row in zip(wb.weights, rows)) == k
        for j in range(len(rows[0]))
    )


def canonicalize(rows, wb: WeightSystem) -> tuple[tuple[int, ...], ...] | None:
    """The lexicographically greatest arrangement of the given rows that
    satisfies the column relation for wb, or None if no arrangement does.

    The row relation is arrangement-independent, but the column relation
    weights row i by b_i, so not every ordering of a valid multiset is
    valid; the greatest valid ordering is the reported representative.
    """
    for cand in sorted(set(permutations(rows)), reverse=True):
        if _columns_valid(cand, wb):
            return cand
    return None


def find_magic_squares(q: SearchQuery) -> list[magic.MagicSquare]:
    """Every magic square coupling (q.wa, q.wb), one per row multiset.

    A pair with k * a0 != h * b0 has no square and returns [] before
    any rows are enumerated: b^T C a is h (k - b0) by the row relation
    C a = h 1 and k (h - a0) by the column relation b^T C = k 1.

    Rows come from q.wa's cached plan and are placed depth-first in
    enumeration order.  The last row is not looped over: for each
    candidate second-to-last row the column residuals
    k - s_j - b_(n-1) c_j must be non-negative and divisible by b_n, and
    (k - s_j - b_(n-1) c_j) / b_n must be a row of the plan; the first
    residual that fails ends the candidate.  Where b_i = b_(i-1), row i
    is never earlier in enumeration order than row i-1, the solved last
    row included.  Each multiset's first arrangement in depth-first
    order is its lexicographically greatest valid one, which that
    ordering keeps, so multisets are discovered in the same order as by
    the unpruned search.  The squares built this way satisfy both
    relations by construction and are not validated again.

    Results are deduplicated by row multiset, rendered in canonical
    arrangement and filtered by classification and strongness (a square
    is classified only when the query filters).  They come out strictly
    descending by entries without a sort: the search visits arrangements
    in descending order, rows lexicographically descending and the last
    row fixed by the rows before it, and admits each multiset at its
    canonical arrangement.  Exceeding the result cap raises
    SearchCapExceeded carrying the results collected so far, a prefix of
    the full list.
    """
    if q.wb.degree * q.wa.a0 != q.wa.degree * q.wb.a0:
        return []
    rows, position = _plan(q.wa)
    n = q.wa.n
    k = q.wb.degree
    b = q.wb.weights
    seen: set[tuple[tuple[int, ...], ...]] = set()
    accepted: list[magic.MagicSquare] = []

    def admit(arrangement: tuple[tuple[int, ...], ...]) -> None:
        key = tuple(sorted(arrangement))
        if key in seen:
            return
        seen.add(key)
        canonical = canonicalize(key, q.wb)
        ms = magic.MagicSquare._trusted(canonical, q.wa, q.wb)
        if q.filter != "any" or q.strong_only:
            report = magic.classify(ms)
            if (q.filter == "primitive"
                    and report.classification != magic.PRIMITIVE):
                return
            if q.filter == "almost_primitive" and report.classification not in (
                magic.PRIMITIVE,
                magic.ALMOST_PRIMITIVE,
            ):
                return
            if q.strong_only and not report.strong:
                return
        if len(accepted) >= q.cap:
            raise SearchCapExceeded(
                f"more than {q.cap} squares couple {q.wa} and {q.wb}",
                partial=accepted,
            )
        accepted.append(ms)

    def assemble(i: int, start: int, chosen: tuple[tuple[int, ...], ...],
                 col_sums) -> None:
        # start: the first row index allowed at depth i, nonzero only
        # when b_i = b_(i-1)
        tie = b[i + 1] == b[i]
        if i == n - 2:
            bi, last_b = b[i], b[i + 1]
            for j in range(start, len(rows)):
                row = rows[j]
                last = []
                for s, c in zip(col_sums, row):
                    r = k - s - bi * c
                    if r < 0 or r % last_b:
                        break
                    last.append(r // last_b)
                else:
                    last = tuple(last)
                    if position.get(last, -1) >= (j if tie else 0):
                        admit(chosen + (row, last))
            return
        for j in range(start, len(rows)):
            row = rows[j]
            sums = tuple(s + b[i] * c for s, c in zip(col_sums, row))
            if all(s <= k for s in sums):
                assemble(i + 1, j if tie else 0, chosen + (row,), sums)

    assemble(0, 0, (), (0,) * n)
    return accepted
