"""Acceptance gate: ten checks, one test and one printed verdict line each.

Every test pulls its verdict from the shared verification run (session
fixture ``criteria``), prints the pass/fail line unbuffered so it appears
in the pytest output, and fails hard if the criterion did not pass.
Criteria with small frozen oracles re-derive them here independently.
Next to criterion 5, the paper's zeta relation is also tested beyond the
catalog, on searched primitive squares with frozen counts, and so is the
catalog's completeness for strong primitive pairs within a degree bound.
"""

from __future__ import annotations

import copy
import json
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest

from weightmagic import (Catalog, CriterionResult, MagicSquare,
                         ValidationError, WeightSystem, classify,
                         find_magic_squares,
                         fuchsian_report, reduced_zeta, saito_dual,
                         transpose, verify)
from weightmagic.verify import check_table_fidelity

from support import brute_force_squares, rebuilt

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


#: For each T1 and T4 row, the squares that find_magic_squares finds on
#: its pair (weights, partner weights): how many, how many are strong,
#: primitive, and both.  Found by searching each row's pair once and
#: classifying every square; I_1,0 has a zero weight, which the search
#: refuses.
PAIR_SQUARE_COUNTS = {
    "E~_8": (1, 1, 1, 1), "E~_7": (2, 1, 1, 0), "E~_6": (2, 1, 1, 0),
    "J_3,0": (2, 2, 1, 1), "Z_1,0": (2, 2, 1, 1), "Q_2,0": (1, 1, 1, 1),
    "W_1,0": (2, 1, 1, 0), "S_1,0": (1, 0, 1, 0), "U_1,0": (2, 0, 2, 0),
    "J'_9": (2, 2, 1, 1), "J'_10": (2, 2, 1, 1), "J'_11": (1, 1, 1, 1),
    "K'_10/L_10": (2, 1, 1, 0), "K'_11/L_11": (1, 0, 1, 0),
    "M_11": (1, 0, 1, 0), "J'_2,0": (3, 3, 1, 1),
    "L_1,0/K'_1,0": (7, 4, 1, 0), "M_1,0": (3, 1, 2, 0),
}


def test_strongness_per_pair_not_per_stored_square(catalog):
    # a strong primitive square couples a T1 or T4 pair exactly where the
    # stored square is strong; the strong squares that other pairs have
    # are all non-primitive, and S_1,0, K'_11/L_11, U_1,0 and M_11 have
    # no strong square at all
    counts = {}
    for entry in catalog.table("T1") + catalog.table("T4"):
        if entry.name == "I_1,0":
            with pytest.raises(ValidationError, match="strictly positive"):
                find_magic_squares(entry.weights, entry.partner_weights)
            continue
        reports = [classify(square) for square in find_magic_squares(
            entry.weights, entry.partner_weights)]
        primitive = [r.classification == "primitive" for r in reports]
        strong = [r.strong for r in reports]
        both = sum(s and p for s, p in zip(strong, primitive))
        counts[entry.name] = (len(reports), sum(strong), sum(primitive), both)
        assert (both > 0) == classify(entry.square).strong
    assert counts == PAIR_SQUARE_COUNTS
    no_strong_primitive = {name for name, c in counts.items() if c[3] == 0}
    assert no_strong_primitive == {"E~_7", "E~_6",
                                   *verify.EXPECTED_NOT_STRONG}
    no_strong = {name for name, c in counts.items() if c[1] == 0}
    assert no_strong == {"S_1,0", "K'_11/L_11", "U_1,0", "M_11"}


def test_criterion_04_fuchsian_table(criteria, capsys, catalog):
    verdict(criteria, 4, capsys)
    rows = fuchsian_report(catalog)
    assert all(row.matches for row in rows)
    assert tuple(row.d_star_abs for row in rows) == \
        (6, 12, 25, 10, 10, 6, 14, 12)


def test_criterion_05_zeta_duality(criteria, capsys):
    result = verdict(criteria, 5, capsys)
    assert "31" in result.detail  # the full set of unimodular primitive pairs


def primitive_squares(n, a0, max_degree, strong_only=False):
    """Every primitive square, up to row order, coupling an ordered pair of
    reduced systems (ascending weights, gcd 1) with n weights, virtual
    weight a0 and one degree h <= max_degree; only the strong ones when
    strong_only is set."""
    for h in range(1, max_degree + 1):
        systems = [WeightSystem(ws, h)
                   for ws in combinations_with_replacement(range(1, h), n)
                   if sum(ws) == h - a0 and gcd(*ws) == 1]
        for wa in systems:
            for wb in systems:
                yield from find_magic_squares(
                    wa, wb, filter="primitive", strong_only=strong_only)


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


def _up_to_order(w):
    return tuple(sorted(w.weights)), w.degree


#: Weight pairs, compared up to weight order, of the strong primitive
#: squares below that are not catalog pairs: the self-couplings of
#: 2,2,3;8 and 2,3,4;10.
NOT_CATALOG_PAIRS = {(((2, 2, 3), 8), ((2, 2, 3), 8)),
                     (((2, 3, 4), 10), ((2, 3, 4), 10))}


def test_strong_completeness_within_a_bound(catalog):
    # every strong primitive square coupling reduced n = 3 systems with
    # a0 = 1 and h <= 30 couples a catalog pair, up to weight order,
    # except the frozen pairs above
    squares = list(primitive_squares(3, 1, 30, strong_only=True))
    pairs = {(_up_to_order(ms.wa), _up_to_order(ms.wb)) for ms in squares}
    assert len(squares) == len(pairs) == 20
    listed = {(_up_to_order(e.weights), _up_to_order(e.partner_weights))
              for e in catalog}
    assert pairs - listed == NOT_CATALOG_PAIRS


def test_criterion_06_elliptic_polynomials(criteria, capsys):
    verdict(criteria, 6, capsys)


def test_criterion_07_geometric_identities(criteria, capsys):
    verdict(criteria, 7, capsys)


def test_criterion_08_search_completeness(criteria, capsys):
    verdict(criteria, 8, capsys)


W11 = WeightSystem((1, 1), 2)  # no catalog pair; one strong square of two
W22 = WeightSystem((2, 2), 3)  # no rows, so criterion 8's oracle is empty
W42 = WeightSystem((6, 14, 21), 42)


def test_criterion_08_oracle_matches_the_product_reference():
    # the oracle scans each row system's ordered row pairs, built once; on
    # every pair it must return what checking product(rows, repeat=2)
    # returns, arrangements included
    systems = verify._n2_systems(verify.BRUTE_DEGREE_BOUND)
    rowless = with_square = multisets = 0
    for wa in systems:
        rows = verify._brute_force_rows(wa)
        rowless += not rows
        pairs = verify._column_pairs(rows)
        for wb in systems:
            brute = verify._brute_force_squares(pairs, wb)
            assert brute == brute_force_squares(rows, wb), (wa, wb)
            with_square += bool(brute)
            multisets += len(brute)
    # read from the product-based oracle at commit 166aa90, before it was
    # split into row pairs built once per row system
    assert (len(systems), rowless, with_square, multisets) == \
        (287, 111, 632, 702)


def _drop_entry(found, wa, wb, options, entry):
    return [m for m in found
            if sorted(m.entries) != sorted(entry.square.entries)]


@pytest.mark.parametrize("tamper, failures", [
    (lambda found, wa, wb, options, entry:
         [] if options.get("filter") == "primitive" else found,
     ["(2,3;6) self-search returned []"]),
    (lambda found, wa, wb, options, entry:
         [] if wa == wb == W42 else found,
     # E_12 is the catalog's (6,14,21;42) square
     ["(6,14,21;42) self-search returned []",
      "T2#1 no. 14 E_12 not rediscovered"]),
    (_drop_entry, ["{entry.label} not rediscovered"]),
    (lambda found, wa, wb, options, entry:
         found[:-1] if wa == wb == W11 and not options else found,
     ["brute-force mismatch for 1,1;2 x 1,1;2"]),
    (lambda found, wa, wb, options, entry:
         [MagicSquare(m.entries[::-1], wa, wb) for m in found]
         if wa == wb == W11 and not options else found,
     ["non-canonical arrangement for 1,1;2 x 1,1;2"]),
    (lambda found, wa, wb, options, entry:
         find_magic_squares(wa, wb) if wa == wb == W11 and options else found,
     ["strong-filter mismatch for 1,1;2 x 1,1;2"]),
    (lambda found, wa, wb, options, entry:
         find_magic_squares(W11, W11)
         if wa == wb == W22 and not options else found,
     ["brute-force mismatch for 2,2;3 x 2,2;3"]),
    (lambda found, wa, wb, options, entry:
         find_magic_squares(W11, W11)
         if wa == wb == W22 and options else found,
     ["strong-filter mismatch for 2,2;3 x 2,2;3"]),
], ids=["pinned-2,3;6", "pinned-6,14,21;42", "catalog-square",
        "dropped-n2-result", "non-canonical", "strong-set",
        "empty-oracle-any", "empty-oracle-strong"])
def test_criterion_08_reports_a_wrong_search(monkeypatch, catalog, tamper,
                                             failures):
    # a search that is wrong in one way, as criterion 8 calls it
    entry = next(e for e in catalog
                 if e.positive and e.weights.n == 3 and e.weights != W42)
    real = verify.search.find_magic_squares

    def tampered(wa, wb, **options):
        return tamper(real(wa, wb, **options), wa, wb, options, entry)

    monkeypatch.setattr(verify.search, "find_magic_squares", tampered)
    _, reported, _ = verify.check_search(catalog, ())
    assert reported == [f.format(entry=entry) for f in failures]


def _changed(label, field, change):
    """Rebuilds the report labelled ``label`` with ``change`` applied to
    its ``field``."""
    def tamper(reports, monkeypatch):
        return tuple(rebuilt(r, **{field: change(getattr(r, field))})
                     if r.label == label else r for r in reports)
    return tamper


def _patched(module, name, replace):
    """Replaces ``module.name`` with ``replace(real)``; keeps the reports."""
    def tamper(reports, monkeypatch):
        monkeypatch.setattr(module, name, replace(getattr(module, name)))
        return reports
    return tamper


def _fixed_on_its_results(real):
    """``real`` changed to return each value it made as it is, so that
    applying it twice gives its first result back: not an involution."""
    made = set()

    def tampered(value, *args):
        if value in made:
            return value
        result = real(value, *args)
        made.add(result)
        return result
    return tampered


@pytest.mark.parametrize("check, tamper, failures", [
    (verify.check_classification,
     _changed("T1#1 E~_8", "classification_ok", lambda ok: False),
     ["T1#1 E~_8: |det| = 6"]),
    (verify.check_strong_coupling,
     _changed("T1#2 E~_7", "strong_ok", lambda ok: False),
     ["T1#2 E~_7 is not strong"]),
    (verify.check_strong_coupling,
     _changed("T4#12 M_11", "strong", lambda strong: True),
     ["T4 non-strong set [\"K'_10/L_10\", \"K'_11/L_11\", "
      "\"L_1,0/K'_1,0\", 'M_1,0', 'S_1,0', 'U_1,0', 'W_1,0']"]),
    (verify.check_fuchsian_table,
     _changed("Fuchs#1 no. 42 Z_2,0", "fuchs",
              lambda row: rebuilt(row, d_star_abs=7)),
     ["42/68: mismatch",
      "partner discriminants (7, 12, 25, 10, 10, 6, 14, 12)"]),
    (verify.check_zeta_duality,
     _changed("T2#1 no. 14 E_12", "zeta_duality_ok", lambda ok: False),
     ["T2#1 no. 14 E_12"]),
    (verify.check_elliptic_polynomials,
     _patched(verify.zeta, "expand_series", lambda real: lambda p, n: [1, 1]),
     ["expansion [1, 1]"]),
    (verify.check_elliptic_polynomials,
     _patched(verify.zeta, "saito_dual", lambda real: lambda p, h: p),
     ["T1#1 E~_8: dual is not the inverse",
      "T1#2 E~_7: dual is not the inverse",
      "T1#3 E~_6: dual is not the inverse"]),
    (verify.check_geometric_identities,
     _changed("T1#3 E~_6", "inverse_identity_ok", lambda ok: False),
     ["T1#3 E~_6: inverse-product identity"]),
    (verify.check_geometric_identities,
     _patched(verify.polytope, "closed_form_dual",
              lambda real: lambda w: None if w == W42 else real(w)),
     ["closed-form dual of (6,14,21;42)"]),
    (verify.check_algebraic_properties,
     # every square fails; the check keeps the first four failures
     _patched(verify.magic, "inverse_data",
              lambda real: lambda ms: rebuilt(real(ms), recovered_wa=None)),
     ["T1#1 E~_8: weight recovery round-trip",
      "T1#2 E~_7: weight recovery round-trip",
      "T1#3 E~_6: weight recovery round-trip",
      "T2#1 no. 14 E_12: weight recovery round-trip"]),
    (verify.check_algebraic_properties,
     _patched(verify.zeta, "lattice_invariants",
              lambda real: lambda ms: rebuilt(real(ms), mu=0)),
     ["T1#1 E~_8: degree or exponent-sum identity",
      "T1#2 E~_7: degree or exponent-sum identity",
      "T1#3 E~_6: degree or exponent-sum identity",
      "T2#1 no. 14 E_12: degree or exponent-sum identity"]),
    (verify.check_algebraic_properties,
     _patched(verify.zeta, "evaluate_at_one", lambda real: lambda p: p),
     ["T1#1 E~_8: value at 1 not self-dual",
      "T2#17 no. 50 E_13: value at 1 not self-dual",
      "T2#19 no. 38 Z_11: value at 1 not self-dual",
      "T2#25 no. 13 E_14: value at 1 not self-dual"]),
    (verify.check_algebraic_properties,
     _patched(verify.magic, "transpose", lambda real: lambda ms: ms),
     ["T2#2 no. 14: subset duality for J=(3,)",
      "T2#2 no. 14: subset duality for J=(2, 3)",
      "T2#3 no. 14: subset duality for J=(2,)",
      "T2#3 no. 14: subset duality for J=(2, 3)"]),
    (verify.check_algebraic_properties,
     _patched(verify.zeta, "saito_dual", _fixed_on_its_results),
     ["T1#1 E~_8: dual is not an involution",
      "T1#2 E~_7: dual is not an involution",
      "T1#3 E~_6: dual is not an involution",
      "T2#2 no. 14: dual is not an involution"]),
    (verify.check_algebraic_properties,
     # the first four squares are symmetric; T2#5 is T2#2's transpose,
     # which the tampered transpose then returns as it is, so T2#5's
     # subsets are compared with its own
     _patched(verify.magic, "transpose", _fixed_on_its_results),
     ["T2#2 no. 14: transpose not an involution",
      "T2#3 no. 14: transpose not an involution",
      "T2#4 no. 14: transpose not an involution",
      "T2#5 no. 28: subset duality for J=(1,)"]),
    (verify.check_exponent_range,
     _changed("T4#1 no. 12 J_3,0", "exponent_outliers",
              lambda outliers: ((4, 2),)),
     ["T4#1 no. 12 J_3,0: [(4, 2)]"]),
], ids=["c02-classification", "c03-strong-flag", "c03-t4-set",
        "c04-fuchsian-row", "c05-zeta-duality", "c06-expansion",
        "c06-dual-inverse", "c07-inverse-identity", "c07-polar-dual",
        "c09-recovery-first-four", "c09-degree-identity",
        "c09-value-at-one", "c09-subset-duality", "c09-dual-involution",
        "c09-transpose-involution",
        "c10-exponent-outlier"])
def test_criteria_report_what_they_check(monkeypatch, catalog, reports,
                                         check, tamper, failures):
    # criteria 2-7, 9 and 10 each given one wrong fact, by its report or
    # by the function it calls, report exactly that fact
    _, reported, _ = check(catalog, tamper(reports, monkeypatch))
    assert reported == failures


def test_criterion_02_counts_the_unimodular_t2_rows(catalog, reports):
    # the T2 rows are their own partners, so a catalog can go without them
    without_t2 = Catalog(tuple(e for e in catalog if e.table != "T2"))
    _, failures, _ = verify.check_classification(without_t2, reports)
    assert failures == ["expected 14 unimodular-virtual-weight T2 rows, "
                        "found 0"]


def test_criterion_09_algebraic_properties(criteria, capsys):
    verdict(criteria, 9, capsys)


def test_criterion_10_exponent_range(criteria, capsys):
    result = verdict(criteria, 10, capsys)
    assert "15" in result.detail  # every positive-weight quadrilateral row
