from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from weightmagic import (CyclotomicProduct, DegenerateSupportError,
                         DomainError, SpecialSubsetReport, ValidationError,
                         characteristic_polynomial, evaluate_at_one,
                         expand_series, lattice_invariants,
                         parse_weight_system, reduced_zeta, saito_dual,
                         special_subsets, transpose, validate)
from weightmagic.linalg import determinant

from support import KERNEL_SQUARES, outcome


def square(rows, wa, wb):
    return validate(rows, parse_weight_system(wa), parse_weight_system(wb))


def reference_special_subsets(ms):
    """The reference for ``special_subsets``, keeping nothing on the
    square: I(J) is found by reading every entry outside J, not by
    comparing support bitmasks."""
    wa = ms.wa
    if 0 in wa.weights:
        raise ValidationError("special subsets require strictly positive weights")
    if gcd(*wa.weights) != 1:
        raise ValidationError(
            f"special subsets require weights with gcd 1, got {wa}; reduce first"
        )
    n = ms.n
    h = wa.degree
    reports = []
    for j in (j for size in range(n + 1) for j in combinations(range(n), size)):
        inside = set(j)
        i = tuple(
            r
            for r in range(n)
            if all(ms.entries[r][c] == 0 for c in range(n) if c not in inside)
        )
        if len(i) > len(j):
            raise DegenerateSupportError(
                f"columns {tuple(c + 1 for c in j)} support rows "
                f"{tuple(r + 1 for r in i)}: more rows than columns, so the "
                "zeta factor would depend on an arbitrary row choice"
            )
        if len(i) != len(j):
            continue
        a_j = h if not j else gcd(*(wa.weights[c] for c in j))
        sub = tuple(tuple(ms.entries[r][c] for c in j) for r in i)
        det = 1 if not j else abs(determinant(sub))
        reports.append(SpecialSubsetReport(
            j=tuple(c + 1 for c in j), i=tuple(r + 1 for r in i), a_j=a_j,
            det_cij=det, order=h // a_j,
            exponent=(-1) ** (len(j) + 1) * a_j * det // h))
    return tuple(reports)


E12 = square(((7, 0, 0), (0, 3, 0), (0, 0, 2)), "6,14,21;42", "6,14,21;42")
E13 = square(((5, 1, 0), (0, 3, 0), (0, 0, 2)), "4,10,15;30", "6,8,15;30")
Q17 = square(((5, 1, 0), (0, 3, 0), (1, 0, 2)), "4,10,13;30", "1,3,5;10")
Z20 = square(((5, 0, 1), (1, 3, 0), (0, 0, 2)), "1,3,5;10", "4,10,13;30")
E8_TILDE = square(((3, 0), (0, 2)), "2,3;6", "2,3;6")


class TestCyclotomicProduct:
    def test_empty_product_is_one(self):
        p = CyclotomicProduct()
        assert str(p) == "1"
        assert p.degree == 0 and p.exponent_sum == 0

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValidationError):
            CyclotomicProduct(((0, 1),))

    def test_rejects_unsorted_factors(self):
        with pytest.raises(ValidationError, match="ascending"):
            CyclotomicProduct(((3, 1), (2, 1)))

    def test_rejects_stored_zero_exponent(self):
        with pytest.raises(ValidationError, match="zero exponents"):
            CyclotomicProduct(((2, 0),))

    @pytest.mark.parametrize("factors", [((2.9, 1),), ((True, 1),),
                                         ((2, 1.0),), ((2, False),)])
    def test_non_integers_are_refused_not_truncated(self, factors):
        with pytest.raises(ValidationError, match="must be integers"):
            CyclotomicProduct(factors)

    def test_from_exponents_merges_and_drops(self):
        p = CyclotomicProduct.from_exponents([(2, 1), (3, 2), (2, -1)])
        assert p == CyclotomicProduct(((3, 2),))

    def test_multiplication_merges(self):
        p = CyclotomicProduct(((2, 1), (6, -1)))
        q = CyclotomicProduct(((2, -1), (3, 1)))
        assert CyclotomicProduct.from_exponents(
            p.factors + q.factors).factors == ((3, 1), (6, -1))

    def test_inverse_cancels(self):
        p = CyclotomicProduct(((2, 1), (6, -1)))
        assert CyclotomicProduct.from_exponents(
            p.factors + p.inverse().factors) == CyclotomicProduct()

    def test_degree_and_exponent_sum(self):
        p = CyclotomicProduct(((1, -1), (2, 1), (10, 2)))
        assert p.degree == -1 + 2 + 20 == 21
        assert p.exponent_sum == 2

    def test_str_fraction_form(self):
        p = CyclotomicProduct(((1, -1), (2, 1), (10, 2)))
        assert str(p) == "(1-t^2)(1-t^10)^2 / (1-t)"

    def test_str_pure_denominator(self):
        assert str(CyclotomicProduct(((1, -1), (3, -1)))) == "1 / (1-t)(1-t^3)"


class TestSpecialSubsets:
    def test_coupled_pair_reports(self):
        reports = [(r.j, r.i, r.a_j, r.det_cij, r.order, r.exponent)
                   for r in special_subsets(Z20)]
        assert reports == [
            ((), (), 10, 1, 1, -1),
            ((3,), (3,), 5, 2, 2, 1),
            ((1, 3), (1, 3), 1, 10, 10, -1),
            ((1, 2, 3), (1, 2, 3), 1, 30, 10, 3),
        ]

    def test_diagonal_square_has_all_subsets(self):
        reports = special_subsets(E12)
        assert len(reports) == 8
        assert [r.j for r in reports] == [
            (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        for r in reports:
            assert r.i == r.j or r.j == ()

    def test_two_variable_square(self):
        reports = [(r.j, r.order, r.exponent)
                   for r in special_subsets(E8_TILDE)]
        assert reports == [
            ((), 1, -1), ((1,), 3, 1), ((2,), 2, 1), ((1, 2), 6, -1)]

    def test_ambiguous_support_is_an_error(self):
        ambiguous = square(((2, 0, 0), (2, 0, 0), (0, 1, 1)),
                           "1,1,1;2", "1,1,4;4")
        with pytest.raises(DegenerateSupportError,
                           match=r"columns \(1,\) support rows \(1, 2\)"):
            special_subsets(ambiguous)

    def test_requires_reduced_gcd(self):
        ms = square(((6, 0), (0, 3)), "2,4;12", "2,4;12")
        with pytest.raises(ValidationError,
                           match="gcd 1, got 2,4;12; reduce first"):
            special_subsets(ms)

    def test_rows_need_not_be_sorted(self):
        # ascending weights are not required, only gcd 1
        ms = square(((0, 5, 1), (3, 1, 0), (0, 0, 2)), "3,1,5;10", "4,10,13;30")
        assert len(special_subsets(ms)) == 4

    def test_kept_on_the_square(self):
        rows = ((5, 0, 1), (1, 3, 0), (0, 0, 2))
        first = square(rows, "1,3,5;10", "4,10,13;30")
        reports = special_subsets(first)
        assert special_subsets(first) is reports
        again = square(rows, "1,3,5;10", "4,10,13;30")
        assert special_subsets(again) is not reports
        assert special_subsets(again) == reports
        assert again == first and hash(again) == hash(first)
        assert repr(again) == repr(first)

    def test_failure_raises_on_every_call(self):
        ambiguous = square(((2, 0, 0), (2, 0, 0), (0, 1, 1)),
                           "1,1,1;2", "1,1,4;4")
        for _ in range(2):
            with pytest.raises(DegenerateSupportError):
                special_subsets(ambiguous)


class TestSpecialSubsetsMatchReference:
    def test_kernel_squares(self):
        degenerate = 0
        for ms in KERNEL_SQUARES:
            got = outcome(special_subsets, ms)
            assert got == outcome(reference_special_subsets, ms), ms.entries
            degenerate += got[0] is DegenerateSupportError
        assert degenerate

    def test_other_refusals(self, catalog):
        zero_weight = next(e.square for e in catalog if not e.positive)
        for ms in (square(((6, 0), (0, 3)), "2,4;12", "2,4;12"), zero_weight):
            got = outcome(special_subsets, ms)
            assert got == outcome(reference_special_subsets, ms)
            assert got[0] is ValidationError


class TestReducedZeta:
    def test_merges_repeated_orders(self):
        z = reduced_zeta(Z20)
        assert z.factors == ((1, -1), (2, 1), (10, 2))
        assert str(z) == "(1-t^2)(1-t^10)^2 / (1-t)"

    def test_diagonal_square(self):
        assert str(reduced_zeta(E12)) == (
            "(1-t^2)(1-t^3)(1-t^7)(1-t^42) / (1-t)(1-t^6)(1-t^14)(1-t^21)")

    def test_coupled_pair(self):
        assert str(reduced_zeta(E13)) == (
            "(1-t^2)(1-t^3)(1-t^30) / (1-t)(1-t^6)(1-t^15)")

    def test_almost_primitive_square(self):
        assert str(reduced_zeta(Q17)) == "(1-t^3)(1-t^30) / (1-t)(1-t^15)"

    def test_curve_squares(self):
        e7 = square(((0, 2), (2, 1)), "1,2;4", "1,2;4")
        e6 = square(((2, 1), (1, 2)), "1,1;3", "1,1;3")
        assert str(reduced_zeta(E8_TILDE)) == "(1-t^2)(1-t^3) / (1-t)(1-t^6)"
        assert str(reduced_zeta(e7)) == "(1-t^2) / (1-t)(1-t^4)"
        assert str(reduced_zeta(e6)) == "1 / (1-t)(1-t^3)"

    def test_degree_tracks_rank(self):
        for ms in (E12, E13, Q17, Z20, E8_TILDE):
            inv = lattice_invariants(ms)
            z = reduced_zeta(ms)
            sign = (-1) ** (ms.n - 1)
            assert z.degree == sign * inv.mu
            assert z.exponent_sum == sign * inv.mu0


class TestSaitoDual:
    def test_maps_orders_through_the_degree(self):
        z = reduced_zeta(E13)
        dual = saito_dual(z, 30)
        assert str(dual) == "(1-t^2)(1-t^5)(1-t^30) / (1-t)(1-t^10)(1-t^15)"

    def test_transpose_realizes_the_dual(self):
        z = reduced_zeta(E13)
        assert reduced_zeta(transpose(E13)) == saito_dual(z, 30)

    def test_self_dual_diagonal(self):
        z = reduced_zeta(E12)
        assert saito_dual(z, 42) == z

    def test_involution(self):
        for ms in (E12, E13, Z20):
            z = reduced_zeta(ms)
            h = ms.wa.degree
            assert saito_dual(saito_dual(z, h), h) == z

    def test_rejects_nondividing_order(self):
        with pytest.raises(DomainError,
                           match="order 4 does not divide 6, so the dual is "
                                 "undefined"):
            saito_dual(CyclotomicProduct(((4, 1),)), 6)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValidationError):
            saito_dual(CyclotomicProduct(), 0)


class TestLatticeInvariants:
    @pytest.mark.parametrize(
        "ms, expected",
        [(E12, (12, 0, 10)), (E13, (13, 0, 9)), (Q17, (17, 0, 5)),
         (Z20, (21, 2, 3))],
        ids=["diagonal", "coupled", "almost", "nonzero-radical"])
    def test_surface_invariants(self, ms, expected):
        inv = lattice_invariants(ms)
        assert (inv.mu, inv.mu0, inv.rho) == expected

    def test_curve_has_no_picard_number(self):
        inv = lattice_invariants(E8_TILDE)
        assert (inv.mu, inv.mu0, inv.rho) == (2, 0, None)

    def test_no_picard_number_without_dividing_virtual_weight(self):
        ms = square(((5, 0, 0), (0, 5, 0), (0, 0, 5)), "1,1,1;5", "1,1,1;5")
        assert lattice_invariants(ms).rho is None

    def test_large_radical(self):
        ms = square(((4, 0, 0), (1, 3, 0), (0, 1, 3)), "1,1,1;4", "7,8,12;36")
        inv = lattice_invariants(ms)
        assert (inv.mu, inv.mu0, inv.rho) == (27, 6, 1)


class TestEvaluateAtOne:
    def test_self_dual_value_is_one(self):
        assert evaluate_at_one(reduced_zeta(E12)) == 1

    def test_almost_primitive_value(self):
        assert evaluate_at_one(reduced_zeta(Q17)) == Fraction(6)

    def test_rejects_nonzero_exponent_sum(self):
        with pytest.raises(DomainError,
                           match="exponent sum 1 is nonzero, so the value at "
                                 "t = 1 is 0 or infinite"):
            evaluate_at_one(CyclotomicProduct(((2, 1),)))


class TestCharacteristicPolynomial:
    def test_odd_size_is_the_zeta_function(self):
        assert characteristic_polynomial(E12) == reduced_zeta(E12)

    def test_even_size_is_the_inverse(self):
        phi = characteristic_polynomial(E8_TILDE)
        assert phi == reduced_zeta(E8_TILDE).inverse()
        assert str(phi) == "(1-t)(1-t^6) / (1-t^2)(1-t^3)"

    def test_curve_polynomial_expansion_terminates(self):
        phi = characteristic_polynomial(E8_TILDE)
        assert expand_series(phi, 2) == [1, -1, 1]
        assert expand_series(phi, 6) == [1, -1, 1, 0, 0, 0, 0]


class TestExpandSeries:
    def test_constant(self):
        assert expand_series(CyclotomicProduct(), 3) == [1, 0, 0, 0]

    def test_single_factor(self):
        assert expand_series(CyclotomicProduct(((2, 1),)), 5) == \
            [1, 0, -1, 0, 0, 0]

    def test_geometric_series(self):
        assert expand_series(CyclotomicProduct(((1, -1),)), 4) == [1] * 5

    def test_multiplication_is_convolution(self):
        p = CyclotomicProduct(((1, -1), (3, 1)))
        q = CyclotomicProduct(((2, 2),))
        pc, qc = expand_series(p, 8), expand_series(q, 8)
        conv = [sum(pc[i] * qc[k - i] for i in range(k + 1)) for k in range(9)]
        product = CyclotomicProduct.from_exponents(p.factors + q.factors)
        assert expand_series(product, 8) == conv

    def test_diagonal_square_expansion(self):
        assert expand_series(reduced_zeta(E12), 14) == [
            1, 1, 0, -1, -1, 0, 1, 0, -1, -1, 0, 1, 1, 0, 0]

    def test_polynomial_expansion_is_exact(self):
        # a polynomial times its formal inverse gives back 1
        z = reduced_zeta(E12)
        one = CyclotomicProduct.from_exponents(z.factors + z.inverse().factors)
        assert expand_series(one, 10) == [1] + [0] * 10

    def test_rejects_negative_degree(self):
        with pytest.raises(ValidationError):
            expand_series(CyclotomicProduct(), -1)
