from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weightmagic import (CyclotomicProduct, DegenerateSupportError,
                         SearchQuery, ValidationError, WeightSystem,
                         canonicalize, classify, equivalent,
                         expand_series, find_magic_squares, inverse_data,
                         lattice_invariants, load_catalog,
                         parse_weight_system, recover_partner,
                         reduce_system, reduced_zeta, saito_dual,
                         special_subsets, transpose, validate,
                         verify_duality_identity)
from weightmagic.linalg import determinant

from support import SEARCHED

_CATALOG = load_catalog()

weight_systems = st.builds(
    WeightSystem,
    weights=st.lists(st.integers(1, 12), min_size=2, max_size=4).map(tuple),
    degree=st.integers(1, 60),
)

# One zero weight, inserted anywhere.
zero_weight_systems = st.builds(
    lambda ws, i, h: WeightSystem(ws[:i] + (0,) + ws[i:], h),
    st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
    st.integers(0, 3),
    st.integers(1, 60),
)

catalog_entries = st.sampled_from(_CATALOG.entries)

factor_pairs = st.lists(
    st.tuples(st.integers(1, 12), st.integers(-3, 3)), max_size=6)
products = factor_pairs.map(CyclotomicProduct.from_exponents)


# Squares with det C != 0 from small searches, so C alone determines the
# partner; most of the 1,1,1,1;4 ones have a singular C - 1.
searched_squares = st.sampled_from(
    [ms for ms in SEARCHED if determinant(ms.entries) != 0])


def positive_entry(entry):
    return (0 not in entry.weights.weights
            and 0 not in entry.partner_weights.weights)


class TestWeightSystemProperties:
    @given(weight_systems)
    def test_parse_inverts_str(self, w):
        assert parse_weight_system(str(w)) == w

    @given(weight_systems)
    def test_virtual_weight_closes_the_sum(self, w):
        assert w.a0 + sum(w.weights) == w.degree
        assert w.full_form() == f"{w.a0}," + str(w)

    @given(st.one_of(weight_systems, zero_weight_systems))
    @example(WeightSystem((3, 4, 5), 10))
    @example(WeightSystem((2, 3, 0), 6))
    def test_stored_virtual_weight_leaves_the_value_alone(self, w):
        # a0 is computed once at construction; repr and full_form() read
        # only the weights and the degree
        a0 = w.degree - sum(w.weights)
        assert w.a0 == a0
        assert w.full_form() == (f"{a0}," + ",".join(map(str, w.weights))
                                 + f";{w.degree}")
        assert repr(w) == (f"WeightSystem(weights={w.weights!r}, "
                           f"degree={w.degree!r})")

    @given(weight_systems)
    def test_reduce_yields_the_canonical_representative(self, w):
        g = gcd(*w.weights)
        if w.degree % g:
            with pytest.raises(ValidationError):
                reduce_system(w)
            return
        reduction = reduce_system(w)
        reduced = reduction.system
        assert gcd(*reduced.weights) == 1
        assert list(reduced.weights) == sorted(reduced.weights)
        assert reduce_system(reduced).system == reduced
        assert equivalent(w, reduced)
        for i, position in enumerate(reduction.permutation):
            assert reduced.weights[i] == w.weights[position] * reduction.scale
        assert reduced.degree == w.degree * reduction.scale

    @given(weight_systems)
    def test_equivalence_is_reflexive(self, w):
        assert equivalent(w, w)

    @given(weight_systems, weight_systems)
    def test_equivalence_is_symmetric(self, w1, w2):
        assert equivalent(w1, w2) == equivalent(w2, w1)

    @given(weight_systems, st.integers(2, 6), st.randoms())
    def test_equivalence_absorbs_scaling_and_order(self, w, scale, rng):
        order = list(range(w.n))
        rng.shuffle(order)
        other = WeightSystem(tuple(w.weights[i] * scale for i in order),
                             w.degree * scale)
        assert equivalent(w, other)

    @given(weight_systems, weight_systems)
    def test_equivalent_systems_scale_into_each_other(self, w1, w2):
        assume(w1.n == w2.n)
        if equivalent(w1, w2):
            s1, s2 = sorted(w1.weights), sorted(w2.weights)
            assert all(a * w2.degree == b * w1.degree
                       for a, b in zip(s1, s2))


class TestSearchProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=2).map(tuple),
           st.lists(st.integers(1, 4), min_size=2, max_size=2).map(tuple),
           st.integers(1, 8), st.integers(1, 8))
    def test_results_are_valid_canonical_and_distinct(self, wa_w, wb_w, h, k):
        wa, wb = WeightSystem(wa_w, h), WeightSystem(wb_w, k)
        results = find_magic_squares(SearchQuery(wa, wb))
        keys = [tuple(sorted(m.entries)) for m in results]
        assert len(set(keys)) == len(keys)
        for ms in results:
            validate(ms.entries, wa, wb)  # no exception
            assert canonicalize(ms.entries, wb) == ms.entries

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=2).map(tuple),
           st.integers(1, 8))
    def test_filters_select_nested_subsets(self, ws, h):
        w = WeightSystem(ws, h)
        by_filter = {
            name: {tuple(sorted(m.entries))
                   for m in find_magic_squares(
                       SearchQuery(w, w, filter=name))}
            for name in ("any", "almost_primitive", "primitive")
        }
        assert by_filter["primitive"] <= by_filter["almost_primitive"]
        assert by_filter["almost_primitive"] <= by_filter["any"]
        strong = {tuple(sorted(m.entries))
                  for m in find_magic_squares(
                      SearchQuery(w, w, strong_only=True))}
        assert strong <= by_filter["any"]
        for ms in find_magic_squares(SearchQuery(w, w, strong_only=True)):
            assert classify(ms).strong


class TestPartnerRecoveryProperties:
    @settings(max_examples=60, deadline=None)
    @given(searched_squares)
    def test_recovers_the_searched_partner(self, ms):
        recovered = recover_partner(ms.entries, ms.wa)
        assert recovered.entries == ms.entries and recovered.wa == ms.wa
        assert reduce_system(recovered.wb).system == \
            reduce_system(ms.wb).system

    @settings(max_examples=60, deadline=None)
    @given(searched_squares)
    def test_transpose_then_recover_gives_back_wa(self, ms):
        flipped = transpose(ms)
        recovered = recover_partner(flipped.entries, flipped.wa)
        assert reduce_system(recovered.wb).system == \
            reduce_system(ms.wa).system


class TestCatalogSquareProperties:
    def test_virtual_weight_identity(self):
        # b^T C a is both h (k - b0) and k (h - a0); zero-weight systems
        # included
        assert len(_CATALOG.entries) == 120
        for entry in _CATALOG.entries:
            wa, wb = entry.square.wa, entry.square.wb
            assert wb.degree * wa.a0 == wa.degree * wb.a0, entry.label

    @given(catalog_entries)
    @settings(deadline=None)
    def test_transpose_is_an_involution(self, entry):
        square = entry.square
        assert transpose(transpose(square)) == square
        assert classify(transpose(square)).classification == \
            classify(square).classification

    @given(catalog_entries)
    @settings(deadline=None)
    def test_inverse_identity_holds(self, entry):
        assert verify_duality_identity(entry.square)

    @given(catalog_entries)
    @settings(deadline=None)
    def test_inverse_recovers_both_weight_systems(self, entry):
        square = entry.square
        data = inverse_data(square)
        n = square.n
        a0, b0 = square.wa.a0, square.wb.a0
        assert [sum(row) for row in data.a] == \
            [Fraction(a, a0) for a in square.wa.weights]
        assert [sum(data.a[i][j] for i in range(n)) for j in range(n)] == \
            [Fraction(b, b0) for b in square.wb.weights]
        assert data.recovered_wa == reduce_system(square.wa).system
        assert data.recovered_wb == reduce_system(square.wb).system

    @given(catalog_entries)
    @settings(deadline=None)
    def test_zeta_degree_matches_lattice_rank(self, entry):
        assume(positive_entry(entry))
        square = entry.square
        z = reduced_zeta(square)
        inv = lattice_invariants(square)
        sign = (-1) ** (square.n - 1)
        assert z.degree == sign * inv.mu
        assert z.exponent_sum == sign * inv.mu0

    @given(catalog_entries)
    @settings(deadline=None)
    def test_saito_dual_is_an_involution_on_zetas(self, entry):
        assume(positive_entry(entry))
        square = entry.square
        z = reduced_zeta(square)
        h = square.wa.degree
        assert saito_dual(saito_dual(z, h), h) == z

    @given(catalog_entries)
    @settings(deadline=None)
    def test_special_subsets_transpose_through_complements(self, entry):
        assume(positive_entry(entry))
        square = entry.square
        n = square.n
        full = frozenset(range(1, n + 1))
        direct = {(frozenset(full - set(r.i)), frozenset(full - set(r.j)))
                  for r in special_subsets(square)}
        flipped = {(frozenset(r.j), frozenset(r.i))
                   for r in special_subsets(transpose(square))}
        assert direct == flipped

    def test_special_subset_factors_are_exact(self):
        # special_subsets divides without checking: a_J | h and
        # h | a_J det C_IJ hold on every valid square (its docstring
        # proves both); catalog and searched squares, n = 2, 3 and 4
        squares = [e.square for e in _CATALOG.entries
                   if positive_entry(e)] + SEARCHED
        checked = 0
        for square in squares:
            try:
                reports = special_subsets(square)
            except DegenerateSupportError:
                continue
            h = square.wa.degree
            for r in reports:
                assert r.order * r.a_j == h
                assert r.exponent * h == \
                    (-1) ** (len(r.j) + 1) * r.a_j * r.det_cij
            checked += 1
        assert checked >= 600


class TestCyclotomicProductProperties:
    @given(products)
    def test_inverse_cancels(self, p):
        one = CyclotomicProduct.from_exponents(p.factors + p.inverse().factors)
        assert one == CyclotomicProduct()
        assert expand_series(one, 8) == [1] + [0] * 8

    @given(products, products)
    def test_degree_and_exponent_sum_are_additive(self, p, q):
        product = CyclotomicProduct.from_exponents(p.factors + q.factors)
        assert product.degree == p.degree + q.degree
        assert product.exponent_sum == p.exponent_sum + q.exponent_sum

    @given(products, products)
    def test_expansion_turns_products_into_convolutions(self, p, q):
        pc, qc = expand_series(p, 10), expand_series(q, 10)
        conv = [sum(pc[i] * qc[j - i] for i in range(j + 1))
                for j in range(11)]
        product = CyclotomicProduct.from_exponents(p.factors + q.factors)
        assert expand_series(product, 10) == conv

    @given(st.lists(st.tuples(st.sampled_from((1, 2, 3, 4, 6, 8, 12, 24)),
                              st.integers(-3, 3)), max_size=5))
    def test_saito_dual_is_an_involution(self, pairs):
        p = CyclotomicProduct.from_exponents(pairs)
        assert saito_dual(saito_dual(p, 24), 24) == p

    @given(st.integers(1, 8))
    def test_geometric_series_pattern(self, order):
        coefficients = expand_series(CyclotomicProduct(((order, -1),)), 16)
        assert coefficients == [1 if i % order == 0 else 0 for i in range(17)]
