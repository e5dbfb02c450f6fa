from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from weightmagic import (ParseError, ValidationError, WeightSystem, equivalent,
                         is_calabi_yau, parse_weight_system, reduce_system)


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
        ((0, 2), 4),            # zero weight without the flag
    ])
    def test_invalid_systems(self, weights, degree):
        with pytest.raises(ValidationError):
            WeightSystem(weights, degree)

    def test_zero_weight_needs_flag(self):
        w = WeightSystem((0, 2), 4, allows_zero_weight=True)
        assert w.a0 == 2
        with pytest.raises(ValidationError):
            WeightSystem((0, 0), 4, allows_zero_weight=True)


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
        flagged = WeightSystem((0, 2), 4, allows_zero_weight=True)
        with pytest.raises(ValidationError):
            equivalent(flagged, WeightSystem((1, 2), 4))


class TestCalabiYau:
    def test_unit_virtual_weight(self):
        assert is_calabi_yau(WeightSystem((6, 14, 21), 42))

    def test_virtual_weight_not_dividing(self):
        assert not is_calabi_yau(WeightSystem((1, 1, 3), 7))  # a0 = 2, 2 ∤ 7

    def test_negative_virtual_weight(self):
        assert not is_calabi_yau(WeightSystem((3, 4, 5), 10))  # a0 = -2
