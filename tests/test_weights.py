from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from weightmagic import (ParseError, SearchQuery, ValidationError,
                         WeightSystem, closed_form_dual, equivalent,
                         extended_diagram, is_calabi_yau, lattice_invariants,
                         parse_weight_system, reduce_system, reduced_zeta,
                         special_subsets, validate)
from weightmagic.search import enumerate_rows

# The catalog's self-coupled I_1,0, x^3, y^2z^2, y^2z: valid, one zero weight
I_1_0 = WeightSystem((2, 3, 0), 6)
I_1_0_SQUARE = validate(((3, 0, 0), (0, 2, 2), (0, 2, 1)), I_1_0, I_1_0)


class TestWeightSystem:
    def test_basic_fields(self):
        w = WeightSystem((6, 14, 21), 42)
        assert w.n == 3
        assert w.a0 == 1
        assert w.weights == (6, 14, 21)
        assert w.degree == 42

    def test_str_and_full_form(self):
        w = WeightSystem((6, 14, 21), 42)
        assert str(w) == "6,14,21;42"
        assert w.full_form() == "1,6,14,21;42"

    def test_is_reduced(self):
        # reduced means weight gcd 1 and ascending, and reduce_system
        # returns exactly such a representative
        for text, is_reduced in (("6,14,21;42", True),
                                 ("12,28,42;84", False),  # weight gcd 2
                                 ("14,6,21;42", False)):  # not ascending
            w = parse_weight_system(text)
            assert (gcd(*w.weights) == 1
                    and list(w.weights) == sorted(w.weights)) is is_reduced
            reduced = reduce_system(w).system
            assert (reduced == w) is is_reduced
            assert reduced == WeightSystem((6, 14, 21), 42)

    def test_negative_virtual_weight_allowed(self):
        assert WeightSystem((3, 4, 5), 10).a0 == -2

    def test_virtual_weight_is_derived_not_given(self):
        w = WeightSystem((6, 14, 21), 42)
        with pytest.raises(TypeError):
            WeightSystem((6, 14, 21), 42, a0=2)
        with pytest.raises(AttributeError):
            w.a0 = 2
        assert w.a0 == 1

    @pytest.mark.parametrize("weights,degree", [
        ((1,), 2),              # n too small
        ((1, 1, 1, 1, 1), 5),   # n too large
        ((1, -2), 4),           # negative weight
        ((1, 2), 0),            # degree not positive
        ((0, 0, 2), 4),         # two zero weights
        ((0, 0), 4),            # all weights zero
    ])
    def test_invalid_systems(self, weights, degree):
        with pytest.raises(ValidationError):
            WeightSystem(weights, degree)

    @pytest.mark.parametrize("weights,degree", [
        ((2.7, 3), 6),          # used to become 2,3;6
        ((2, 3), 6.0),          # used to keep a float degree and a0
        ((True, 3), 6),
        ((2, 3), "6"),
    ])
    def test_non_integers_are_refused_not_truncated(self, weights, degree):
        with pytest.raises(ValidationError, match="must be integers"):
            WeightSystem(weights, degree)

    def test_one_zero_weight_is_valid(self, catalog):
        # validity depends on the value alone, as for I_1,0 in the catalog
        w = WeightSystem((2, 3, 0), 6)
        assert w.a0 == 1
        assert w == catalog.lookup("I_1,0")[0].weights
        assert WeightSystem((0, 2), 4).a0 == 2


class TestParsing:
    def test_parse(self):
        assert parse_weight_system("6,14,21;42") == WeightSystem((6, 14, 21), 42)

    @pytest.mark.parametrize("text", [
        "bogus", "1,2", ";42", "1,2;", "1;2;3", "1,2;x", "1.5,2;4", ""])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_weight_system(text)

    def test_parse_all_zero(self):
        with pytest.raises(ParseError):
            parse_weight_system("0,0;4")


class TestReduceSystem:
    def test_records_permutation_and_scale(self):
        reduction = reduce_system(WeightSystem((28, 12, 42), 84))
        assert reduction.system == WeightSystem((6, 14, 21), 42)
        assert reduction.permutation == (1, 0, 2)
        assert reduction.scale == Fraction(1, 2)

    def test_already_reduced_is_identity(self):
        reduction = reduce_system(WeightSystem((6, 14, 21), 42))
        assert reduction.system == WeightSystem((6, 14, 21), 42)
        assert reduction.scale == 1

    def test_no_reduced_representative(self):
        # gcd of the weights does not divide the degree
        with pytest.raises(ValidationError):
            reduce_system(WeightSystem((2, 2), 3))


class TestEquivalent:
    def test_scaling(self):
        assert equivalent(WeightSystem((2, 3), 6), WeightSystem((4, 6), 12))

    def test_permutation(self):
        assert equivalent(WeightSystem((6, 14, 21), 42),
                          WeightSystem((14, 6, 21), 42))

    def test_not_proportional(self):
        assert not equivalent(WeightSystem((1, 1, 2), 4),
                              WeightSystem((1, 2, 2), 5))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError):
            equivalent(WeightSystem((0, 2), 4), WeightSystem((1, 2), 4))


@pytest.mark.parametrize("operation,message", [
    pytest.param(lambda: equivalent(I_1_0, I_1_0),
                 "scaling equivalence is not defined for zero-weight systems",
                 id="equivalent"),
    pytest.param(lambda: special_subsets(I_1_0_SQUARE),
                 "special subsets require strictly positive weights",
                 id="special_subsets"),
    pytest.param(lambda: reduced_zeta(I_1_0_SQUARE),
                 "special subsets require strictly positive weights",
                 id="reduced_zeta"),
    pytest.param(lambda: lattice_invariants(I_1_0_SQUARE),
                 "special subsets require strictly positive weights",
                 id="lattice_invariants"),
    pytest.param(lambda: extended_diagram(I_1_0),
                 "the extended diagram needs strictly positive weights",
                 id="extended_diagram"),
    pytest.param(lambda: closed_form_dual(I_1_0),
                 "the closed form needs strictly positive weights",
                 id="closed_form_dual"),
    pytest.param(lambda: SearchQuery(I_1_0, I_1_0),
                 "search requires strictly positive weights",
                 id="SearchQuery"),
    pytest.param(lambda: enumerate_rows(I_1_0),
                 "row enumeration requires strictly positive weights",
                 id="enumerate_rows"),
])
def test_every_division_by_a_weight_refuses_a_zero_weight(operation, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        operation()


class TestCalabiYau:
    def test_unit_virtual_weight(self):
        assert is_calabi_yau(WeightSystem((6, 14, 21), 42))

    def test_virtual_weight_not_dividing(self):
        assert not is_calabi_yau(WeightSystem((1, 1, 3), 7))  # a0 = 2, 2 ∤ 7

    def test_negative_virtual_weight(self):
        assert not is_calabi_yau(WeightSystem((3, 4, 5), 10))  # a0 = -2
