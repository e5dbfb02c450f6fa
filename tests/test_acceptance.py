"""Acceptance gate: ten checks, one test and one printed verdict line each.

Every test pulls its verdict from the shared verification run (session
fixture ``criteria``), prints the pass/fail line unbuffered so it appears
in the pytest output, and fails hard if the criterion did not pass.
Criteria with small frozen oracles re-derive them here independently.
Next to criterion 5, the paper's zeta relation is also tested beyond the
catalog, on searched primitive squares with frozen counts.
"""

from __future__ import annotations

import copy
import json
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest

from weightmagic import (Catalog, CriterionResult, MagicSquare, SearchQuery,
                         WeightSystem, classify, find_magic_squares,
                         fuchsian_report, reduced_zeta, saito_dual,
                         transpose, verify)
from weightmagic.verify import check_table_fidelity

GOLDEN_NOT_STRONG = Path(__file__).parent / "data" / "table4_not_strong.json"


def verdict(criteria, number, capsys):
    result = criteria[number - 1]
    assert result.number == number
    with capsys.disabled():
        print(f"\n{result.line}")
    assert result.passed, result.detail
    return result


def test_criterion_01_every_matrix_validates(criteria, capsys):
    verdict(criteria, 1, capsys)


def test_criterion_01_reads_the_entries_not_a_flag(catalog):
    # an entry validates its square when built, so only a square planted
    # past the checks can be broken; the criterion must still see it
    entry = catalog.lookup("E_12")[0]
    broken = copy.copy(entry)
    object.__setattr__(broken, "square", MagicSquare._trusted(
        ((7, 0, 0), (0, 3, 0), (0, 0, 3)), entry.weights,
        entry.partner_weights))
    tampered = Catalog(tuple(broken if e is entry else e for e in catalog))
    title, failures, _ = check_table_fidelity(tampered, ())
    assert title == "table fidelity"
    assert failures == ["T2#1 no. 14 E_12: row and column sums "
                        "([42, 63], [42, 63])"]


def test_run_all_numbers_each_criterion_by_its_position(monkeypatch):
    # the checks report only titles, failures and details; run_all alone
    # numbers them and judges them
    monkeypatch.setattr(verify, "_CHECKS", (
        lambda catalog, reports: ("failing", ["a", "b"], "unused"),
        lambda catalog, reports: ("passing", [], "all fine"),
    ))
    results, reports = verify.run_all(Catalog(()))
    assert reports == ()
    assert results == (CriterionResult(1, "failing", False, "a; b"),
                       CriterionResult(2, "passing", True, "all fine"))


def test_criterion_02_determinant_classification(criteria, capsys):
    verdict(criteria, 2, capsys)


def test_criterion_03_strong_coupling_exceptions(criteria, capsys, catalog):
    verdict(criteria, 3, capsys)
    # independent recomputation against the frozen exception list
    golden = set(json.loads(GOLDEN_NOT_STRONG.read_text()))
    failing = {entry.name for entry in catalog.table("T4")
               if not classify(entry.square).strong}
    assert failing == golden
    for table in ("T2", "T3", "Fuchs", "NonMirror"):
        for entry in catalog.table(table):
            assert classify(entry.square).strong, entry.label


def test_criterion_04_fuchsian_table(criteria, capsys, catalog):
    verdict(criteria, 4, capsys)
    rows = fuchsian_report(catalog)
    assert all(row.matches for row in rows)
    assert tuple(row.d_star_abs for row in rows) == \
        (6, 12, 25, 10, 10, 6, 14, 12)


def test_criterion_05_zeta_duality(criteria, capsys):
    result = verdict(criteria, 5, capsys)
    assert "31" in result.detail  # the full set of unimodular primitive pairs


def primitive_squares(n, a0, max_degree):
    """Every primitive square, up to row order, coupling an ordered pair of
    reduced systems (ascending weights, gcd 1) with n weights, virtual
    weight a0 and one degree h <= max_degree."""
    for h in range(1, max_degree + 1):
        systems = [WeightSystem(ws, h)
                   for ws in combinations_with_replacement(range(1, h), n)
                   if sum(ws) == h - a0 and gcd(*ws) == 1]
        for wa in systems:
            for wb in systems:
                yield from find_magic_squares(
                    SearchQuery(wa, wb, filter="primitive"))


@pytest.mark.parametrize("a0, count", [(1, 40), (2, 32), (3, 72)])
def test_zeta_relation_beyond_the_catalog_n3(a0, count):
    # criterion 5 checks catalog squares with a0 = b0 = 1 only; at n = 3
    # the transpose's zeta is the Saito dual for a0 = 2 and 3 as well
    squares = list(primitive_squares(3, a0, 24))
    assert len(squares) == count
    for ms in squares:
        dual = saito_dual(reduced_zeta(ms), ms.wa.degree)
        assert reduced_zeta(transpose(ms)) == dual, ms.entries


@pytest.mark.parametrize("n, max_degree, count", [(2, 40, 3), (4, 8, 467)])
def test_zeta_relation_beyond_the_catalog_even_n(n, max_degree, count):
    # for even n the transpose's zeta is the inverse of the Saito dual
    squares = list(primitive_squares(n, 1, max_degree))
    assert len(squares) == count
    for ms in squares:
        dual = saito_dual(reduced_zeta(ms), ms.wa.degree)
        assert reduced_zeta(transpose(ms)) == dual.inverse(), ms.entries


def test_criterion_06_elliptic_polynomials(criteria, capsys):
    verdict(criteria, 6, capsys)


def test_criterion_07_geometric_identities(criteria, capsys):
    verdict(criteria, 7, capsys)


def test_criterion_08_search_completeness(criteria, capsys):
    verdict(criteria, 8, capsys)


def test_criterion_09_algebraic_properties(criteria, capsys):
    verdict(criteria, 9, capsys)


def test_criterion_10_exponent_range(criteria, capsys):
    result = verdict(criteria, 10, capsys)
    assert "15" in result.detail  # every positive-weight quadrilateral row
