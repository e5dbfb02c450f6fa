from __future__ import annotations

from functools import cache
from itertools import compress, product

import pytest

from weightmagic import (MagicSquare, SearchCapExceeded, SearchQuery,
                         ValidationError, WeightSystem, canonicalize,
                         classify, find_magic_squares, parse_weight_system,
                         search, validate)
from weightmagic.search import enumerate_rows

W10 = parse_weight_system("1,3,5;10")
W30 = parse_weight_system("4,10,13;30")


def entries(results):
    return [m.entries for m in results]


class TestSearchQuery:
    def test_defaults(self):
        q = SearchQuery(W10, W30)
        assert q.filter == "any" and not q.strong_only

    def test_rejects_unknown_filter(self):
        with pytest.raises(ValidationError, match="filter"):
            SearchQuery(W10, W30, filter="strict")

    def test_rejects_zero_weights(self):
        w = WeightSystem((2, 3, 0), 6)
        with pytest.raises(ValidationError, match="positive"):
            SearchQuery(w, w)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValidationError, match="size"):
            SearchQuery(W10, parse_weight_system("1,1;2"))

    def test_rejects_bad_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            SearchQuery(W10, W10, cap=0)


class TestEnumerateRows:
    def test_all_rows_descending(self):
        from weightmagic.search import enumerate_rows
        assert enumerate_rows(W10) == [
            (10, 0, 0), (7, 1, 0), (5, 0, 1), (4, 2, 0),
            (2, 1, 1), (1, 3, 0), (0, 0, 2)]

    def test_small_system(self):
        from weightmagic.search import enumerate_rows
        assert enumerate_rows(parse_weight_system("2,3;6")) == [(3, 0), (0, 2)]

    def test_rows_satisfy_relation(self):
        from weightmagic.search import enumerate_rows
        w = parse_weight_system("1,2,4;8")
        rows = enumerate_rows(w)
        assert rows == sorted(rows, reverse=True)
        for row in rows:
            assert sum(c * a for c, a in zip(row, w.weights)) == w.degree

    def test_zero_weight_rejected(self):
        from weightmagic.search import enumerate_rows
        w = WeightSystem((2, 3, 0), 6)
        with pytest.raises(ValidationError):
            enumerate_rows(w)

    def test_mutating_returned_rows_does_not_leak(self):
        w = parse_weight_system("1,1,1;6")
        before = entries(find_magic_squares(SearchQuery(w, w)))
        rows = enumerate_rows(w)
        expected = list(rows)
        rows.reverse()
        rows.pop()
        rows.append((1, 2, 3))
        assert enumerate_rows(w) == expected
        assert entries(find_magic_squares(SearchQuery(w, w))) == before


class TestRowPlan:
    def test_one_enumeration_per_weight_system(self, monkeypatch):
        calls = []

        def counting(wa):
            calls.append(wa)
            return enumerate_rows(wa)

        monkeypatch.setattr(search, "enumerate_rows", counting)
        search._plan.cache_clear()
        find_magic_squares(SearchQuery(W10, W30))
        find_magic_squares(SearchQuery(W10, W10, filter="primitive"))
        find_magic_squares(SearchQuery(W10, parse_weight_system("2,3,5;10"),
                                       filter="almost_primitive",
                                       strong_only=True))
        assert calls == [W10]

    @pytest.mark.parametrize("wa,wb", [
        ("1,1,1;12", "1,1,2;12"),
        ("1,1,1,1;5", "1,1,1,1;4"),
        ("1,1,1;2", "1,1,1;6"),  # k * a0 = -h * b0
    ])
    def test_pair_failing_the_identity_enumerates_no_rows(self, monkeypatch,
                                                          wa, wb):
        # k * a0 != h * b0, so no square couples the pair
        calls = []

        def counting(w):
            calls.append(w)
            return enumerate_rows(w)

        monkeypatch.setattr(search, "enumerate_rows", counting)
        search._plan.cache_clear()
        q = SearchQuery(parse_weight_system(wa), parse_weight_system(wb))
        assert find_magic_squares(q) == []
        assert calls == []

    def test_equal_last_rows_are_kept(self):
        # the last two rows are equal and b_(n-1) = b_n: the solved last
        # row may repeat the row placed before it
        w = parse_weight_system("1,1,1;3")
        found = entries(find_magic_squares(SearchQuery(w, w)))
        assert ((1, 1, 1), (1, 1, 1), (1, 1, 1)) in found
        assert ((3, 0, 0), (0, 3, 0), (0, 0, 3)) in found


class TestFindMagicSquares:
    def test_unique_primitive_strong_pair(self):
        w = parse_weight_system("2,3;6")
        q = SearchQuery(w, w, filter="primitive", strong_only=True)
        assert entries(find_magic_squares(q)) == [((3, 0), (0, 2))]

    def test_unique_self_coupling(self):
        w = parse_weight_system("6,14,21;42")
        assert entries(find_magic_squares(SearchQuery(w, w))) == [
            ((7, 0, 0), (0, 3, 0), (0, 0, 2))]

    def test_two_squares_for_smallest_system(self):
        w = parse_weight_system("1,1;2")
        assert entries(find_magic_squares(SearchQuery(w, w))) == [
            ((2, 0), (0, 2)), ((1, 1), (1, 1))]

    def test_filters_on_degenerate_virtual_weight(self):
        w = parse_weight_system("1,1;2")  # virtual weight 0
        assert len(find_magic_squares(SearchQuery(w, w, filter="any"))) == 2
        # det 0 = h * b0 qualifies as almost-primitive, det 4 does not
        almost = find_magic_squares(SearchQuery(w, w,
                                                filter="almost_primitive"))
        assert entries(almost) == [((1, 1), (1, 1))]
        assert find_magic_squares(SearchQuery(w, w, filter="primitive")) == []

    def test_coupled_pair_unique_strong_square(self):
        q = SearchQuery(W10, W30, filter="almost_primitive", strong_only=True)
        assert entries(find_magic_squares(q)) == [
            ((5, 0, 1), (1, 3, 0), (0, 0, 2))]

    def test_results_validate_and_match_filter(self):
        q = SearchQuery(W10, W30, filter="almost_primitive")
        for ms in find_magic_squares(q):
            again = validate(ms.entries, W10, W30)
            report = classify(again)
            assert report.classification in ("primitive", "almost_primitive")

    def test_filters_nest(self):
        w = parse_weight_system("1,1,2;4")
        keys = {
            filt: {tuple(sorted(m.entries))
                   for m in find_magic_squares(SearchQuery(w, w, filter=filt))}
            for filt in ("any", "almost_primitive", "primitive")
        }
        assert keys["primitive"] <= keys["almost_primitive"] <= keys["any"]

    def test_strong_subset_of_unrestricted(self):
        w = parse_weight_system("1,1,2;4")
        all_sq = {tuple(sorted(m.entries))
                  for m in find_magic_squares(SearchQuery(w, w))}
        strong = {tuple(sorted(m.entries))
                  for m in find_magic_squares(SearchQuery(w, w,
                                                          strong_only=True))}
        assert strong <= all_sq

    def test_deterministic(self):
        q = SearchQuery(W10, W30)
        assert entries(find_magic_squares(q)) == entries(find_magic_squares(q))

    def test_cap_carries_partial_results(self):
        w = parse_weight_system("1,1;4")
        with pytest.raises(SearchCapExceeded,
                           match=r"more than 2 squares couple 1,1;4 and 1,1;4"
                           ) as info:
            find_magic_squares(SearchQuery(w, w, cap=2))
        assert entries(info.value.partial) == [
            ((4, 0), (0, 4)), ((3, 1), (1, 3))]


def unpruned_search(wa, wb, filter="any", strong_only=False):
    """Every arrangement of rows, checked whole, one result per multiset.

    A row at position i adds b_i times its entries to the column sums.
    Each such contribution is packed as the digits of one integer in a
    base above k and above any column sum, so no digit carries, and an
    arrangement couples exactly when its packed contributions add up to
    k in every digit.
    """
    rows = enumerate_rows(wa)
    base = max(wb.degree, sum(wb.weights) * wa.degree) + 1

    def packed(vec):
        return sum(v * base**j for j, v in enumerate(vec))

    target = packed([wb.degree] * wa.n)
    placed = [[packed([b * c for c in row]) for row in rows]
              for b in wb.weights]
    found = {}
    for arrangement in compress(product(rows, repeat=wa.n),
                                map(target.__eq__,
                                    map(sum, product(*placed)))):
        key = tuple(sorted(arrangement))
        if key not in found:
            found[key] = canonicalize(key, wb)
    kept = []
    for canonical in found.values():
        report = classify(validate(canonical, wa, wb))
        if filter == "primitive" and report.classification != "primitive":
            continue
        if filter == "almost_primitive" and report.classification not in (
                "primitive", "almost_primitive"):
            continue
        if strong_only and not report.strong:
            continue
        kept.append(canonical)
    return sorted(kept, reverse=True)


class TestPrunedSearchMatchesUnpruned:
    @pytest.mark.parametrize("wa,wb", [
        ("1,1,1,1;3", "1,1,1,1;3"),  # n=4, all weights equal
        ("1,1,2,2;6", "1,1,2,2;6"),  # n=4, two adjacent equal pairs
        ("1,1,2,2;4", "1,1,2,2;4"),
        ("1,1,1,1;2", "1,1,2,2;3"),
        ("2,2,1;6", "2,2,1;6"),      # n=3, equal pair first
        ("1,1,1;3", "2,2,1;6"),
        ("1,2,1;8", "1,2,1;8"),      # n=3, equal weights not adjacent
        ("1,1,2;8", "1,2,1;8"),
        ("1,1,1;6", "1,1,1;6"),
        ("1,3,5;10", "4,10,13;30"),  # distinct weights
        # the pairs below fail k * a0 = h * b0 except the last
        ("1,1,1,1;5", "1,1,1,1;4"),  # n=4, 56 rows
        ("2,2,3;6", "1,1,1;2"),      # a0 = b0 = -1, h != k
        ("2,3,4;6", "1,1,1;2"),      # a0 = -3, b0 = -1: holds, one square
    ])
    def test_same_ordered_results(self, wa, wb):
        wa, wb = parse_weight_system(wa), parse_weight_system(wb)
        assert entries(find_magic_squares(SearchQuery(wa, wb))) == (
            unpruned_search(wa, wb))

    @pytest.mark.parametrize("filter,strong_only", [
        ("almost_primitive", False), ("primitive", False), ("any", True)])
    def test_same_ordered_filtered_results(self, filter, strong_only):
        w = parse_weight_system("1,2,1;8")
        q = SearchQuery(w, w, filter=filter, strong_only=strong_only)
        assert entries(find_magic_squares(q)) == unpruned_search(
            w, w, filter, strong_only)


class TestCapOnEqualWeights:
    W = parse_weight_system("1,1,1;6")

    def test_uncapped_count(self):
        assert len(find_magic_squares(SearchQuery(self.W, self.W))) == 73

    @pytest.mark.parametrize("cap,partial", [
        (1, [((6, 0, 0), (0, 6, 0), (0, 0, 6))]),
        (2, [((6, 0, 0), (0, 6, 0), (0, 0, 6)),
             ((6, 0, 0), (0, 5, 1), (0, 1, 5))]),
        (3, [((6, 0, 0), (0, 6, 0), (0, 0, 6)),
             ((6, 0, 0), (0, 5, 1), (0, 1, 5)),
             ((6, 0, 0), (0, 4, 2), (0, 2, 4))]),
    ])
    def test_small_caps(self, cap, partial):
        with pytest.raises(SearchCapExceeded,
                           match=f"more than {cap} squares couple "
                                 "1,1,1;6 and 1,1,1;6") as info:
            find_magic_squares(SearchQuery(self.W, self.W, cap=cap))
        assert entries(info.value.partial) == partial

    @pytest.mark.parametrize("cap", [10, 40, 72])
    def test_partial_is_a_prefix_of_the_full_list(self, cap):
        full = entries(find_magic_squares(SearchQuery(self.W, self.W)))
        with pytest.raises(SearchCapExceeded) as info:
            find_magic_squares(SearchQuery(self.W, self.W, cap=cap))
        assert entries(info.value.partial) == full[:cap]


LADDER = [
    ("1,1,1;12", "1,1,1;12", 712),
    ("1,1,1,1;4", "1,1,1,1;4", 465),
    ("2,3,4,5;20", "2,3,4,5;20", 55),
    ("1,1,1;12", "1,1,2;12", 0),
    ("1,1,1;20", "1,1,1;20", 4499),
    ("1,1,1,1;5", "1,1,1,1;5", 1746),
]


@cache
def ladder(wa, wb, filter="any", strong_only=False):
    return find_magic_squares(SearchQuery(
        parse_weight_system(wa), parse_weight_system(wb), filter, strong_only))


@pytest.mark.parametrize("wa,wb,count", LADDER)
def test_ladder_counts(wa, wb, count):
    assert len(ladder(wa, wb)) == count


@pytest.mark.parametrize("query", [(wa, wb) for wa, wb, _ in LADDER] + [
    ("1,1,1;12", "1,1,1;12", "almost_primitive"),
    ("1,1,1,1;4", "1,1,1,1;4", "almost_primitive", True),
], ids=lambda query: "-".join(map(str, query)))
def test_search_results_equal_validated_squares(query):
    found = ladder(*query)
    assert all(m == validate(m.entries, m.wa, m.wb) for m in found)
    assert all(type(c) is int for m in found for row in m.entries for c in row)


@pytest.mark.parametrize("wa,wb", [(wa, wb) for wa, wb, _ in LADDER])
def test_ladder_results_satisfy_virtual_weight_identity(wa, wb):
    for m in ladder(wa, wb):
        assert m.wb.degree * m.wa.a0 == m.wa.degree * m.wb.a0


def test_public_construction_still_validates():
    # the rows of the strong W10 x W30 square, in an order whose columns
    # fail the b-weighted relation
    with pytest.raises(ValidationError, match="column 1 has b-weighted sum 33"):
        MagicSquare(((5, 0, 1), (0, 0, 2), (1, 3, 0)), W10, W30)


class TestCanonicalize:
    def test_prefers_greatest_valid_arrangement(self):
        wb = parse_weight_system("1,2,2;10")
        rows = ((0, 4, 1), (1, 0, 4), (8, 2, 0))
        assert canonicalize(rows, wb) == ((8, 2, 0), (1, 0, 4), (0, 4, 1))

    def test_idempotent(self):
        wb = parse_weight_system("1,2,2;10")
        canon = canonicalize(((0, 4, 1), (1, 0, 4), (8, 2, 0)), wb)
        assert canonicalize(canon, wb) == canon

    def test_none_when_no_arrangement_couples(self):
        assert canonicalize(((3, 0), (0, 2)),
                            parse_weight_system("1,2;5")) is None

    def test_search_results_are_canonical(self):
        q = SearchQuery(W10, W30)
        for ms in find_magic_squares(q):
            assert canonicalize(ms.entries, W30) == ms.entries
