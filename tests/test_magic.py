from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weightmagic import (ALMOST_PRIMITIVE, PLAIN, PRIMITIVE, InverseData,
                         ParseError, SingularMatrixError, ValidationError,
                         WeightSystem, classify,
                         format_monomial_matrix, inverse_data, parse_matrix,
                         parse_monomial_matrix, parse_weight_system,
                         recover_partner, reduce_system, transpose, validate,
                         verify_duality_identity)
from weightmagic import linalg
from weightmagic.magic import _system_from_ratios

from support import KERNEL_SQUARES, mat_mul, outcome

W42 = parse_weight_system("6,14,21;42")
W10 = parse_weight_system("1,3,5;10")
W30 = parse_weight_system("4,10,13;30")

DIAGONAL_42 = ((7, 0, 0), (0, 3, 0), (0, 0, 2))
COUPLED_10_30 = ((5, 0, 1), (1, 3, 0), (0, 0, 2))


def reference_system_from_ratios(ratios):
    """The Fraction body of ``_system_from_ratios``, the reference for the
    integer one: a0 is the lcm of the ratios' denominators, negated when
    no ratio is positive."""
    q = lcm(*(r.denominator for r in ratios))
    if all(r <= 0 for r in ratios):
        q = -q
    ws = [int(r * q) for r in ratios]
    return reduce_system(WeightSystem(tuple(ws), q + sum(ws))).system


def reference_inverse_data(ms):
    """The Fraction body of ``inverse_data``, without keeping anything on
    the square: row and column sums of A itself."""
    b = tuple(tuple(c - 1 for c in row) for row in ms.entries)
    try:
        a = linalg.inverse(b)
    except SingularMatrixError:
        raise SingularMatrixError(
            "C - 1 is singular, so the inverse data does not exist") from None
    return InverseData(
        a, reference_system_from_ratios([sum(row) for row in a]),
        reference_system_from_ratios([sum(col) for col in zip(*a)]))


class TestValidate:
    def test_coupled_pair(self):
        square = validate(COUPLED_10_30, W10, W30)
        assert square.entries == COUPLED_10_30

    def test_self_coupled_diagonal(self):
        square = validate(DIAGONAL_42, W42, W42)
        assert square.n == 3

    def test_row_relation_failure_names_the_row(self):
        w = parse_weight_system("2,3;6")
        with pytest.raises(ValidationError, match="row 2.*sum 5.*degree 6"):
            validate(((3, 0), (1, 1)), w, w)

    def test_column_relation_failure(self):
        with pytest.raises(ValidationError, match="column 1"):
            validate(DIAGONAL_42, W42, parse_weight_system("1,14,21;42"))

    def test_negative_entry(self):
        w = parse_weight_system("1,1;2")
        with pytest.raises(ValidationError):
            validate(((3, -1), (1, 1)), w, w)

    @pytest.mark.parametrize("entries", [((3.0, 0), (0, 2)),
                                         ((3, False), (0, 2))])
    def test_non_integer_entry(self, entries):
        w = parse_weight_system("2,3;6")
        with pytest.raises(ValidationError, match="non-negative integers"):
            validate(entries, w, w)

    def test_dimension_mismatch(self):
        for entries, wb, message in [
                (((3, 0), (0, 2)), W42,
                 "matrix must be 3x3 to match the weights"),
                (DIAGONAL_42, parse_weight_system("2,3;6"),
                 "weight systems disagree on size: 3 vs 2")]:
            with pytest.raises(ValidationError) as raised:
                validate(entries, W42, wb)
            assert str(raised.value) == message

    def test_non_square(self):
        w = parse_weight_system("1,1;2")
        with pytest.raises(ValidationError):
            validate(((1, 1), (1, 1), (2, 0)), w, w)


class TestClassify:
    def test_almost_primitive_strong(self):
        report = classify(validate(COUPLED_10_30, W10, W30))
        assert report.determinant == 30
        assert abs(report.determinant) == 10 * 3 == 30 * 1
        assert report.classification == ALMOST_PRIMITIVE
        assert report.strong

    def test_primitive_strong(self):
        report = classify(validate(DIAGONAL_42, W42, W42))
        assert report.determinant == 42
        assert report.classification == PRIMITIVE
        assert report.strong

    def test_primitive_not_strong(self):
        square = validate(((3, 0, 0), (0, 0, 2), (1, 2, 1)),
                          parse_weight_system("4,1,6;12"),
                          parse_weight_system("2,3,6;12"))
        report = classify(square)
        assert report.classification == PRIMITIVE
        assert not report.strong
        assert tuple(0 in row for row in square.entries) == (True, True, False)

    def test_plain(self):
        w = parse_weight_system("1,1;2")
        report = classify(validate(((2, 0), (0, 2)), w, w))
        assert report.determinant == 4
        assert report.classification == PLAIN

    def test_degenerate_virtual_weight(self):
        # det 0 meets the almost-primitive equalities when a0 = b0 = 0
        w = parse_weight_system("1,1;2")
        report = classify(validate(((1, 1), (1, 1)), w, w))
        assert report.determinant == 0
        assert report.classification == ALMOST_PRIMITIVE

    def test_primitive_implies_matching_degrees(self, catalog):
        for entry in catalog:
            square = entry.square
            if classify(square).classification == PRIMITIVE:
                assert square.wa.degree == square.wb.degree
                assert square.wa.a0 == square.wb.a0


class TestInverseData:
    def test_diagonal_square_recovery(self):
        data = inverse_data(validate(DIAGONAL_42, W42, W42))
        b = ((6, -1, -1), (-1, 2, -1), (-1, -1, 1))
        assert mat_mul(b, data.a) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        n = 3
        row_sums = [sum(data.a[i][j] for j in range(n)) for i in range(n)]
        col_sums = [sum(data.a[i][j] for i in range(n)) for j in range(n)]
        assert row_sums == [6, 14, 21]  # a_i / a0 with a0 = 1
        assert col_sums == [6, 14, 21]
        assert data.recovered_wa == W42
        assert data.recovered_wb == W42

    def test_coupled_pair_recovery(self):
        data = inverse_data(validate(COUPLED_10_30, W10, W30))
        assert data.recovered_wa == W10
        assert data.recovered_wb == W30

    def test_negative_virtual_weight(self):
        # a0 = 5 - 6 = -1: every ratio a_i / a0 is negative, so the
        # recovery has to flip the sign of the whole tuple
        w = parse_weight_system("1,2,3;5")
        square = validate(((1, 2, 0), (2, 0, 1), (0, 1, 1)), w, w)
        report = classify(square)
        assert report.classification == PRIMITIVE and report.strong
        data = inverse_data(square)
        assert [sum(row) for row in data.a] == [-1, -2, -3]
        assert data.recovered_wa == w
        assert data.recovered_wb == w

    def test_singular_difference(self):
        square = validate(((2, 2), (2, 2)), parse_weight_system("1,2;6"),
                          parse_weight_system("1,1;4"))
        for _ in range(2):  # the refusal is kept and raised again
            with pytest.raises(SingularMatrixError):
                inverse_data(square)

    def test_refusal_kept_on_the_square(self, monkeypatch):
        # a0 = 0, so C - 1 is singular; it is inverted once, by the first
        # call, and every later call raises a fresh error with its text
        calls = []
        inverse = linalg.inverse

        def counting(rows):
            calls.append(rows)
            return inverse(rows)

        monkeypatch.setattr(linalg, "inverse", counting)
        w = parse_weight_system("1,1,1;3")
        square = validate(parse_monomial_matrix("x^3, y^3, z^3", 3), w, w)
        raised = []
        for check in (inverse_data, inverse_data, verify_duality_identity):
            with pytest.raises(SingularMatrixError) as info:
                check(square)
            raised.append(info.value)
        assert len(calls) == 1
        assert len({id(e) for e in raised}) == 3
        assert {type(e) for e in raised} == {SingularMatrixError}
        assert {str(e) for e in raised} == {
            "C - 1 is singular, so the inverse data does not exist"}

    def test_kept_on_the_square(self):
        first = validate(COUPLED_10_30, W10, W30)
        data = inverse_data(first)
        assert inverse_data(first) is data
        again = validate(COUPLED_10_30, W10, W30)
        assert inverse_data(again) is not data
        assert inverse_data(again) == data
        assert again == first and hash(again) == hash(first)
        assert repr(again) == repr(first)

    def test_determinant_ratios_are_integers(self, catalog):
        from weightmagic.linalg import determinant
        for entry in catalog:
            square = entry.square
            det_c = determinant(square.entries)
            det_b = determinant(tuple(tuple(c - 1 for c in row)
                                      for row in square.entries))
            h, k = square.wa.degree, square.wb.degree
            assert det_c * square.wa.a0 == det_b * h
            assert det_c * square.wb.a0 == det_b * k
            assert det_c % h == 0 and det_c % k == 0


class TestInverseDataMatchesReference:
    def test_kernel_squares(self):
        kinds = set()
        for ms in KERNEL_SQUARES:
            got = outcome(inverse_data, ms)
            assert got == outcome(reference_inverse_data, ms), ms.entries
            if isinstance(got, InverseData):
                kinds.add("negative a0" if ms.wa.a0 < 0 else "data")
                assert all(type(x) is Fraction for row in got.a for x in row)
            else:
                kinds.add(got[0].__name__)
        assert kinds == {"data", "negative a0", "SingularMatrixError"}

    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=4),
           st.integers(1, 60))
    def test_system_from_integer_sums(self, sums, d):
        assert outcome(_system_from_ratios, sums, d) == outcome(
            reference_system_from_ratios, [Fraction(s, d) for s in sums])


class TestRecoverPartner:
    def test_self_coupled(self):
        square = recover_partner(DIAGONAL_42, W42)
        assert square.wb == W42

    def test_coupled_pair(self):
        rows = parse_monomial_matrix("x^5y, y^3, xz^2", 3)
        square = recover_partner(rows, W30)
        assert square.wb == W10

    def test_preserves_column_order(self):
        square = recover_partner(((3, 0, 1), (0, 0, 2), (0, 2, 1)),
                                 parse_weight_system("2,3,6;12"))
        assert str(square.wb) == "4,1,6;12"  # column order, not sorted

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            recover_partner(((1, 1), (1, 1)), parse_weight_system("1,1;2"))

    @pytest.mark.parametrize("monomials, system", [
        ("x^3, y^3, z^3", "1,1,1;3"),
        ("x^2, y^2", "1,1;2"),
        ("x^4, y^4, z^4, t^4", "1,1,1,1;4"),
    ])
    def test_partner_of_virtual_weight_zero(self, monomials, system):
        # C - 1 is singular here, but C is not
        w = parse_weight_system(system)
        rows = parse_monomial_matrix(monomials, w.n)
        assert recover_partner(rows, w).wb == w


class TestTranspose:
    def test_swaps_weights_and_entries(self):
        wa = parse_weight_system("4,10,15;30")
        wb = parse_weight_system("6,8,15;30")
        square = validate(((5, 1, 0), (0, 3, 0), (0, 0, 2)), wa, wb)
        flipped = transpose(square)
        assert flipped.entries == ((5, 0, 0), (1, 3, 0), (0, 0, 2))
        assert flipped.wa == wb and flipped.wb == wa
        assert flipped.monomials() == "x^5, xy^3, z^2"

    def test_involution(self):
        square = validate(COUPLED_10_30, W10, W30)
        assert transpose(transpose(square)) == square

    def test_symmetric_diagonal(self):
        square = validate(DIAGONAL_42, W42, W42)
        assert transpose(square).entries == square.entries

    def test_preserves_classification(self, catalog):
        for entry in catalog:
            square = entry.square
            assert (classify(transpose(square)).classification
                    == classify(square).classification)


class TestMonomialNotation:
    def test_parse_basic(self):
        assert parse_monomial_matrix("x^5z, xy^3, z^2", 3) == (
            (5, 0, 1), (1, 3, 0), (0, 0, 2))

    def test_parse_braced_exponent(self):
        assert parse_monomial_matrix("x^{21}z, y^3, z^2", 3) == (
            (21, 0, 1), (0, 3, 0), (0, 0, 2))

    def test_fourth_variable(self):
        assert parse_monomial_matrix("t^2, z^3, y^4, x^5", 4) == (
            (0, 0, 0, 2), (0, 0, 3, 0), (0, 4, 0, 0), (5, 0, 0, 0))

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_monomial_matrix("x^2x, y, z", 3)

    def test_wrong_monomial_count(self):
        with pytest.raises(ParseError):
            parse_monomial_matrix("x^2, y^2", 3)

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_monomial_matrix("x^2, 5q, z", 3)

    @pytest.mark.parametrize("text,n,message", [
        pytest.param("x^5z, , z^2", 3, "empty monomial in 'x^5z, , z^2'",
                     id="empty-monomial"),
        pytest.param("x^5, y^3, t^2", 3,
                     "variable 't^2' out of range for 3 variables",
                     id="t-for-n=3"),
        pytest.param("x, y, z, t, t", 5,
                     "monomial matrices need n between 2 and 4, got 5",
                     id="n=5"),
        pytest.param("x1^3x3, x2^2, x3^4", 3,
                     "cannot read monomial 'x1^3x3' at '1^3x3'",
                     id="numbered-variables"),
    ])
    def test_refusal_names_the_input(self, text, n, message):
        with pytest.raises(ParseError) as raised:
            parse_monomial_matrix(text, n)
        assert str(raised.value) == message

    def test_format_plain_and_braces(self):
        assert format_monomial_matrix(((21, 0, 1), (0, 3, 0), (1, 0, 10))) == \
            "x^{21}z, y^3, xz^{10}"
        assert format_monomial_matrix(((7, 0, 0), (0, 3, 0), (0, 0, 2))) == \
            "x^7, y^3, z^2"

    def test_round_trip(self, catalog):
        for entry in catalog:
            rows = parse_monomial_matrix(entry.monomials, entry.weights.n)
            assert parse_monomial_matrix(
                format_monomial_matrix(rows), entry.weights.n) == rows


class TestParseMatrix:
    def test_integer_rows(self):
        assert parse_matrix("5,0,1;1,3,0;0,0,2", 3) == COUPLED_10_30

    def test_monomial_dispatch(self):
        assert parse_matrix("x^5z, xy^3, z^2", 3) == COUPLED_10_30

    def test_bad_integer_rows(self):
        for text, message in [
                ("5,0;1,3", "expected a 3x3 matrix, got '5,0;1,3'"),
                ("5,0,a;1,3,0;0,0,2",
                 "cannot read integer matrix '5,0,a;1,3,0;0,0,2': "
                 "entry 'a' in row 1 is not an integer"),
                ("5,0,1;1,3,0;0,1.5,2",
                 "cannot read integer matrix '5,0,1;1,3,0;0,1.5,2': "
                 "entry '1.5' in row 3 is not an integer"),
                ("5,0,1;1,3;0,0,2", "ragged matrix '5,0,1;1,3;0,0,2'")]:
            with pytest.raises(ParseError) as raised:
                parse_matrix(text, 3)
            assert str(raised.value) == message
