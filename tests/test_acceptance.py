"""Acceptance gate: ten checks, one test and one printed verdict line each.

Every test pulls its verdict from the shared verification run (session
fixture ``criteria``), prints the pass/fail line unbuffered so it appears
in the pytest output, and fails hard if the criterion did not pass.
Criteria with small frozen oracles re-derive them here independently.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from weightmagic import (Catalog, CriterionResult, MagicSquare, classify,
                         fuchsian_report, verify)
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
