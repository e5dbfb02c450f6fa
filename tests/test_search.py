from __future__ import annotations

import builtins
import hashlib
import random
from functools import cache
from itertools import compress, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightmagic import (MagicSquare, SearchCapExceeded,
                         ValidationError, WeightSystem, canonicalize,
                         classify, find_magic_squares, parse_weight_system,
                         search, validate)
from weightmagic.search import FILTERS, _columns_valid, enumerate_rows

from support import coupled_pairs

W10 = parse_weight_system("1,3,5;10")
W30 = parse_weight_system("4,10,13;30")


def entries(results):
    return [m.entries for m in results]


class TestSearchQuery:
    # A search query is the keywords of find_magic_squares.
    def test_defaults(self):
        # (1,1;2) has a non-strong square and one that is not
        # almost-primitive, so only filter="any", strong_only=False
        # keeps both.
        w = parse_weight_system("1,1;2")
        assert entries(find_magic_squares(w, w)) == entries(
            find_magic_squares(w, w, filter="any", strong_only=False,
                               cap=10**6)) == [
            ((2, 0), (0, 2)), ((1, 1), (1, 1))]


class FilterName(str):
    """A filter name of a str subclass, which the search accepts."""


class TestRefusals:
    # Each row drops the first fault of the row before it, or puts
    # another fault of the same kind in its place, so each row names the
    # refusal that comes next.  Every pair fails k * a0 = h * b0, so a
    # refusal checked after that early exit would return [] instead.
    ZERO = WeightSystem((1, 0), 3)
    W4 = WeightSystem((1, 2), 4)

    @pytest.mark.parametrize("wa, wb, options, message", [
        (ZERO, WeightSystem((1, 1, 1), 3), {"filter": "strict", "cap": 0},
         "filter must be one of ('any', 'almost_primitive', 'primitive'), "
         "got 'strict'"),
        (ZERO, WeightSystem((1, 1, 1), 3), {"cap": 0},
         "search requires strictly positive weights"),
        (W4, WeightSystem((1, 1, 1), 3), {"cap": 0},
         "weight systems disagree on size: 2 vs 3"),
        (W4, WeightSystem((1, 1), 3), {"cap": 0},
         "cap must be positive, got 0"),
        (W4, WeightSystem((1, 1), 3), {"cap": "10", "strong_only": "no"},
         "cap must be an int, got '10'"),
        (W4, WeightSystem((1, 1), 3), {"cap": 2.5, "strong_only": "no"},
         "cap must be an int, got 2.5"),
        (W4, WeightSystem((1, 1), 3), {"cap": True, "strong_only": "no"},
         "cap must be an int, got True"),
        (W4, WeightSystem((1, 1), 3), {"cap": 0, "strong_only": "no"},
         "cap must be positive, got 0"),
        (W4, WeightSystem((1, 1), 3), {"strong_only": "no"},
         "strong_only must be a bool, got 'no'"),
        (W4, WeightSystem((1, 1), 3), {"strong_only": 1},
         "strong_only must be a bool, got 1"),
        (W4, WeightSystem((1, 1), 3), {"strong_only": None},
         "strong_only must be a bool, got None"),
    ], ids=["filter", "zero-weight", "size", "cap", "cap-str", "cap-float",
            "cap-bool", "cap-before-strong_only", "strong_only-str",
            "strong_only-int", "strong_only-none"])
    def test_refusals_come_in_order_before_the_early_exit(self, wa, wb,
                                                          options, message):
        assert wb.degree * wa.a0 != wa.degree * wb.a0
        with pytest.raises(ValidationError) as raised:
            find_magic_squares(wa, wb, **options)
        assert str(raised.value) == message

    @pytest.mark.parametrize("name", [[], {}, set()], ids=repr)
    def test_unhashable_filter_is_refused_first(self, name):
        with pytest.raises(ValidationError) as raised:
            find_magic_squares(self.ZERO, WeightSystem((1, 1, 1), 3),
                               filter=name, cap=0)
        assert str(raised.value) == (
            "filter must be one of ('any', 'almost_primitive', 'primitive'), "
            f"got {name!r}")

    def test_str_subclass_filter_is_accepted(self):
        w = parse_weight_system("1,1;2")
        for name in FILTERS:
            assert entries(find_magic_squares(
                w, w, filter=FilterName(name))) == (
                entries(find_magic_squares(w, w, filter=name)))


class TestEmptyRowExit:
    # A search with no row to place returns [] before any packing: wa has
    # no row, or a strong search has no row that holds a zero.  Each pair
    # passes k * a0 = h * b0 and h = k, so no earlier exit returns first.
    @pytest.mark.parametrize("wa,wb,placed", [
        ("2,4;5", "2,4;5", 0),      # 2 c1 + 4 c2 is even
        ("2,4;5", "3,3;5", 0),
        ("2,2,4;5", "2,2,4;5", 0),
        ("2,3;5", "2,3;5", 1),      # one row, (1, 1), with no zero
        ("3,5;8", "3,5;8", 1),
    ])
    @pytest.mark.parametrize("filter", list(FILTERS))
    @pytest.mark.parametrize("strong_only", [False, True])
    def test_matches_the_unpruned_search(self, wa, wb, placed, filter,
                                         strong_only):
        wa, wb = parse_weight_system(wa), parse_weight_system(wb)
        assert wb.degree * wa.a0 == wa.degree * wb.a0
        assert wa.degree == wb.degree
        rows = enumerate_rows(wa)
        assert len(rows) == placed and all(0 not in row for row in rows)
        assert entries(find_magic_squares(
            wa, wb, filter=filter, strong_only=strong_only)) == (
            unpruned_search(wa, wb, filter, strong_only))
        if strong_only or not placed:
            assert unpruned_search(wa, wb, filter, strong_only) == []


class TestEnumerateRows:
    def test_all_rows_descending(self):
        from weightmagic.search import enumerate_rows
        assert enumerate_rows(W10) == (
            (10, 0, 0), (7, 1, 0), (5, 0, 1), (4, 2, 0),
            (2, 1, 1), (1, 3, 0), (0, 0, 2))

    def test_small_system(self):
        from weightmagic.search import enumerate_rows
        assert enumerate_rows(parse_weight_system("2,3;6")) == ((3, 0), (0, 2))

    def test_rows_satisfy_relation(self):
        from weightmagic.search import enumerate_rows
        w = parse_weight_system("1,2,4;8")
        rows = enumerate_rows(w)
        assert type(rows) is tuple
        assert list(rows) == sorted(rows, reverse=True)
        for row in rows:
            assert sum(c * a for c, a in zip(row, w.weights)) == w.degree

    def test_zero_weight_rejected(self):
        from weightmagic.search import enumerate_rows
        w = WeightSystem((2, 3, 0), 6)
        with pytest.raises(ValidationError):
            enumerate_rows(w)

    def test_mutating_returned_rows_does_not_leak(self):
        # the kept rows are shared by every caller, so they are a tuple of
        # tuples that no caller can change
        w = parse_weight_system("1,1,1;6")
        before = entries(find_magic_squares(w, w))
        rows = enumerate_rows(w)
        assert type(rows) is tuple
        assert all(type(row) is tuple for row in rows)
        with pytest.raises(AttributeError):
            rows.reverse()
        with pytest.raises(TypeError):
            rows[0] = (1, 2, 3)
        assert enumerate_rows(w) is rows
        assert entries(find_magic_squares(w, w)) == before


class TestRowPlan:
    def test_one_enumeration_per_weight_system(self, monkeypatch):
        # a counting wrapper on the module attribute, as perfbench's
        # tracer installs one, sees every search that reaches the row
        # stage, while the rows themselves are enumerated once
        calls = []

        def counting(wa):
            calls.append(wa)
            return enumerate_rows(wa)

        monkeypatch.setattr(search, "enumerate_rows", counting)
        enumerate_rows.cache_clear()
        find_magic_squares(W10, W30)
        find_magic_squares(W10, W10, filter="primitive")
        find_magic_squares(W10, W10, filter="almost_primitive",
                           strong_only=True)
        assert calls == [W10, W10, W10]
        assert enumerate_rows.cache_info().misses == 1
        # 2,3,5;10 fails k * a0 = h * b0, so its search makes no call
        assert find_magic_squares(W10, parse_weight_system("2,3,5;10"),
                                  strong_only=True) == []
        assert calls == [W10, W10, W10]

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
        enumerate_rows.cache_clear()
        assert find_magic_squares(parse_weight_system(wa),
                                  parse_weight_system(wb)) == []
        assert calls == []
        assert enumerate_rows.cache_info().misses == 0

    @pytest.mark.parametrize("wa,wb", [
        ("1,3,5;10", "4,10,13;30"),  # h = 10, k = 30: squares, none primitive
        ("2,3,4;6", "1,1,1;2"),      # h = 6, k = 2: one square
    ])
    def test_primitive_search_with_h_not_k_enumerates_no_rows(
            self, monkeypatch, wa, wb):
        # primitive means |det C| = h = k, so no square is kept
        calls = []

        def counting(w):
            calls.append(w)
            return enumerate_rows(w)

        monkeypatch.setattr(search, "enumerate_rows", counting)
        wa, wb = parse_weight_system(wa), parse_weight_system(wb)
        assert find_magic_squares(wa, wb)
        calls.clear()
        for strong_only in (False, True):
            assert find_magic_squares(wa, wb, filter="primitive",
                                      strong_only=strong_only) == []
            assert unpruned_search(wa, wb, "primitive", strong_only) == []
        assert calls == []

    def test_equal_last_rows_are_kept(self):
        # the last two rows are equal and b_(n-1) = b_n: the solved last
        # row may repeat the row placed before it
        w = parse_weight_system("1,1,1;3")
        found = entries(find_magic_squares(w, w))
        assert ((1, 1, 1), (1, 1, 1), (1, 1, 1)) in found
        assert ((3, 0, 0), (0, 3, 0), (0, 0, 3)) in found


class TestFindMagicSquares:
    def test_unique_primitive_strong_pair(self):
        w = parse_weight_system("2,3;6")
        assert entries(find_magic_squares(
            w, w, filter="primitive", strong_only=True)) == [((3, 0), (0, 2))]

    def test_unique_self_coupling(self):
        w = parse_weight_system("6,14,21;42")
        assert entries(find_magic_squares(w, w)) == [
            ((7, 0, 0), (0, 3, 0), (0, 0, 2))]

    def test_two_squares_for_smallest_system(self):
        w = parse_weight_system("1,1;2")
        assert entries(find_magic_squares(w, w)) == [
            ((2, 0), (0, 2)), ((1, 1), (1, 1))]

    def test_filters_on_degenerate_virtual_weight(self):
        w = parse_weight_system("1,1;2")  # virtual weight 0
        assert len(find_magic_squares(w, w, filter="any")) == 2
        # det 0 = h * b0 qualifies as almost-primitive, det 4 does not
        almost = find_magic_squares(w, w, filter="almost_primitive")
        assert entries(almost) == [((1, 1), (1, 1))]
        assert find_magic_squares(w, w, filter="primitive") == []

    def test_coupled_pair_unique_strong_square(self):
        assert entries(find_magic_squares(
            W10, W30, filter="almost_primitive", strong_only=True)) == [
            ((5, 0, 1), (1, 3, 0), (0, 0, 2))]

    def test_results_validate_and_match_filter(self):
        for ms in find_magic_squares(W10, W30, filter="almost_primitive"):
            again = validate(ms.entries, W10, W30)
            report = classify(again)
            assert report.classification in ("primitive", "almost_primitive")

    def test_filters_nest(self):
        w = parse_weight_system("1,1,2;4")
        keys = {
            filt: {tuple(sorted(m.entries))
                   for m in find_magic_squares(w, w, filter=filt)}
            for filt in ("any", "almost_primitive", "primitive")
        }
        assert keys["primitive"] <= keys["almost_primitive"] <= keys["any"]

    def test_strong_subset_of_unrestricted(self):
        w = parse_weight_system("1,1,2;4")
        all_sq = {tuple(sorted(m.entries))
                  for m in find_magic_squares(w, w)}
        strong = {tuple(sorted(m.entries))
                  for m in find_magic_squares(w, w, strong_only=True)}
        assert strong <= all_sq

    def test_deterministic(self):
        assert entries(find_magic_squares(W10, W30)) == entries(
            find_magic_squares(W10, W30))

    def test_cap_carries_partial_results(self):
        w = parse_weight_system("1,1;4")
        with pytest.raises(SearchCapExceeded,
                           match=r"more than 2 squares couple 1,1;4 and 1,1;4"
                           ) as info:
            find_magic_squares(w, w, cap=2)
        assert entries(info.value.partial) == [
            ((4, 0), (0, 4)), ((3, 1), (1, 3))]


def reference_canonicalize(rows, wb):
    """The greatest valid arrangement found by sorting every permutation,
    the reference for :func:`canonicalize`'s early stop."""
    for cand in sorted(set(permutations(rows)), reverse=True):
        if _columns_valid(cand, wb):
            return cand
    return None


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
            found[key] = reference_canonicalize(key, wb)
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
        assert entries(find_magic_squares(wa, wb)) == (
            unpruned_search(wa, wb))

    @pytest.mark.parametrize("filter,strong_only", [
        ("almost_primitive", False), ("primitive", False), ("any", True)])
    def test_same_ordered_filtered_results(self, filter, strong_only):
        w = parse_weight_system("1,2,1;8")
        assert entries(find_magic_squares(
            w, w, filter=filter, strong_only=strong_only)) == unpruned_search(
            w, w, filter, strong_only)


class TestPackedKernel:
    # The column sums are the digits of one int; each explicit case below
    # fails if one rule of that packing is broken.
    @settings(max_examples=150, deadline=None)
    @given(coupled_pairs(),
           st.sampled_from(["any", "almost_primitive", "primitive"]),
           st.booleans())
    def test_matches_the_unpruned_search(self, pair, filter, strong_only):
        wa, wb = pair
        assert entries(find_magic_squares(
            wa, wb, filter=filter, strong_only=strong_only)) == (
            unpruned_search(wa, wb, filter, strong_only))

    @pytest.mark.parametrize("wa,wb,count", [
        # b_1 c_1 = 9 > k for the row (9, 0), which in a radix chosen
        # from k alone (8) packs to the int of the row (1, 1)
        ("1,8;9", "1,1;2", 1),
        # the residual of (9, 0) has the negative digit -6 and is the
        # int of 2 (1, 1) in radix 8
        ("1,8;9", "1,2;3", 1),
        # k = 2**42 - 1 needs 43-bit digits; the guard is 0 in every digit
        ("1,1,1;3", f"{(2**42 - 1) // 3},{(2**42 - 1) // 3},"
                    f"{(2**42 - 1) // 3};{2**42 - 1}", 10),
        # b_(n-1) = b_n: the solved last row may equal the row before it
        ("1,1,1;3", "1,2,2;5", 4),
        ("1,1;2", "1,1;2", 2),
    ], ids=["row-above-k", "negative-residual", "wide-digit", "tie-n3",
            "tie-n2"])
    def test_explicit_cases(self, wa, wb, count):
        wa, wb = parse_weight_system(wa), parse_weight_system(wb)
        found = entries(find_magic_squares(wa, wb))
        assert found == unpruned_search(wa, wb)
        assert len(found) == count

    def test_tie_bound_reaches_each_multiset_once(self, monkeypatch):
        # with every b_i equal, the arrangements the search reaches are
        # the sorted ones, one per multiset; admit sorts each one it gets
        admitted = []

        def counting(rows, **options):
            if not options:
                admitted.append(rows)
            return builtins.sorted(rows, **options)

        monkeypatch.setattr(search, "sorted", counting, raising=False)
        w = parse_weight_system("1,1,1;6")
        found = find_magic_squares(w, w)
        assert len(admitted) == len(found) == 73


def test_strong_filter_classifies_only_the_strong_squares(monkeypatch):
    # strongness is read off each arrangement before it is sorted, so
    # canonicalize sees only the 30 strong multisets of the 712, and det C
    # is expanded only for those; none of them is primitive
    classified, canonicalized = [], []
    classify, canonicalize = search.magic.classify, search.canonicalize

    def counting_classify(ms):
        classified.append(ms)
        return classify(ms)

    def counting_canonicalize(rows, wb):
        canonicalized.append(rows)
        return canonicalize(rows, wb)

    monkeypatch.setattr(search.magic, "classify", counting_classify)
    monkeypatch.setattr(search, "canonicalize", counting_canonicalize)
    w = parse_weight_system("1,1,1;12")
    assert find_magic_squares(w, w, filter="primitive",
                              strong_only=True) == []
    assert (len(classified), len(canonicalized)) == (30, 30)
    assert all(classify(ms).strong for ms in classified)


def test_strong_search_canonicalizes_only_its_results(monkeypatch):
    # the prune, counted rather than timed: 1,1,1;100 has 5,151 rows, of
    # which 300 hold a zero, and each strong multiset is one result
    calls = []
    canonicalize = search.canonicalize

    def counting(rows, wb):
        calls.append(rows)
        return canonicalize(rows, wb)

    monkeypatch.setattr(search, "canonicalize", counting)
    w = parse_weight_system("1,1,1;100")
    found = find_magic_squares(w, w, strong_only=True)
    assert len(calls) == len(found) == 250


class TestCapOnEqualWeights:
    W = parse_weight_system("1,1,1;6")

    def test_uncapped_count(self):
        assert len(find_magic_squares(self.W, self.W)) == 73

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
            find_magic_squares(self.W, self.W, cap=cap)
        assert entries(info.value.partial) == partial

    @pytest.mark.parametrize("cap", [10, 40, 72])
    def test_partial_is_a_prefix_of_the_full_list(self, cap):
        full = entries(find_magic_squares(self.W, self.W))
        with pytest.raises(SearchCapExceeded) as info:
            find_magic_squares(self.W, self.W, cap=cap)
        assert entries(info.value.partial) == full[:cap]


class TestCapOnStrongSearch:
    W = parse_weight_system("1,1,1,1;5")

    @pytest.mark.parametrize("cap", [1, 10, 906])
    def test_partial_is_a_prefix_of_the_full_list(self, cap):
        full = entries(find_magic_squares(self.W, self.W, strong_only=True))
        assert len(full) == 907
        with pytest.raises(SearchCapExceeded,
                           match=f"more than {cap} squares couple") as info:
            find_magic_squares(self.W, self.W, strong_only=True, cap=cap)
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
    return find_magic_squares(parse_weight_system(wa), parse_weight_system(wb),
                              filter=filter, strong_only=strong_only)


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


#: SHA-256 of ``repr([m.entries for m in results])`` for each ladder query
#: and the filtered ones, taken from the search that summed column tuples
#: before the packed kernel replaced it, the strong ones later as noted
#: below; never regenerated.
FROZEN_DIGESTS = {
    ("1,1,1;12", "1,1,1;12"):
        "ea8614513a462056faedd5ff320dee80f3e275824d1f43855ad0961be77025d9",
    ("1,1,1,1;4", "1,1,1,1;4"):
        "b1daaa5d0f9cb961ce9638c16fa481927a778634338d0a1f0a6cd87f37d5167e",
    ("2,3,4,5;20", "2,3,4,5;20"):
        "6ce8e64b94c4b72d6237f7d5b902903e19033d9e18772659a8173d2ded9596de",
    ("1,1,1;12", "1,1,2;12"):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("1,1,1;20", "1,1,1;20"):
        "1416e2f9ba67ee8ef3f1d62f48249e5b94291e28b5b2cf3422f8a411513cf9ac",
    ("1,1,1,1;5", "1,1,1,1;5"):
        "fa51ffb489637e2853bd382a7f490ab590eeb7faf9be67e06a095c1f140099d8",
    ("1,1,1;12", "1,1,1;12", "almost_primitive"):
        "179b1c61ea44370e6435907ab8708c801f0f1f3b15d00773e2dfb7543df2ee8f",
    ("1,1,1,1;4", "1,1,1,1;4", "almost_primitive", True):
        "cc3338162104d37c865e7e96991a8352c9dc97531f5846010b0b892655a26496",
    # strong searches, taken at commit 230409c, while a strong search
    # still built and canonicalized every square before dropping the
    # ones that are not strong: 30, 50, 150, 907 and 38 results
    ("1,1,1;12", "1,1,1;12", "any", True):
        "ec03feff9cdd0171ed40d6f0687550ac51a76c66e805f85a7653ba58c97c40fb",
    ("1,1,1;20", "1,1,1;20", "any", True):
        "70e8610d46b87b9db57ba6f6d1c0d08dfd1de9902507bf42a1cad17796ba2b84",
    ("1,1,1;60", "1,1,1;60", "any", True):
        "5c29f40aed7a8e460fb14f282f20c0fe6cd6412f2cbf8899e2d798eaf324ba58",
    ("1,1,1,1;5", "1,1,1,1;5", "any", True):
        "0b385af2d0f53a8e753c9e605637462d9f7e267c541c00b91db9e6d0b9be5e50",
    ("2,3,4,5;20", "2,3,4,5;20", "any", True):
        "35443c653a361abe93ceaba50670d57e021fc965851d90cee99b6a39a81db46b",
}


@pytest.mark.parametrize("query", list(FROZEN_DIGESTS),
                         ids=lambda query: "-".join(map(str, query)))
def test_results_match_the_frozen_digest(query):
    found = repr(entries(ladder(*query))).encode()
    assert hashlib.sha256(found).hexdigest() == FROZEN_DIGESTS[query]


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

    def test_matches_the_reference_on_repeated_rows(self):
        # rows drawn from a small pool, so most multisets repeat a row;
        # k is a column sum of one arrangement, so some draws couple
        rng = random.Random(20261019)
        valid = 0
        for _ in range(4000):
            n = rng.randint(2, 4)
            pool = [tuple(rng.randint(0, 2) for _ in range(n))
                    for _ in range(rng.randint(1, n))]
            rows = tuple(rng.choice(pool) for _ in range(n))
            weights = tuple(rng.randint(1, 3) for _ in range(n))
            shuffled = rng.sample(rows, n)
            k = sum(b * row[0] for b, row in zip(weights, shuffled)) or 1
            wb = WeightSystem(weights, k)
            canonical = canonicalize(rows, wb)
            assert canonical == reference_canonicalize(rows, wb), (rows, wb)
            valid += canonical is not None
        assert valid > 300

    def test_search_results_are_canonical(self):
        for ms in find_magic_squares(W10, W30):
            assert canonicalize(ms.entries, W30) == ms.entries
