from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from weightmagic import (CatalogError, ValidationError, fuchsian_report,
                         load_catalog, magic, parse_weight_system, polytope,
                         verify_entry, zeta)

GOLDEN_NOT_STRONG = Path(__file__).parent / "data" / "table4_not_strong.json"

EXPECTED_COUNTS = {"T1": 3, "T2": 44, "T3": 47, "T4": 16,
                   "Fuchs": 8, "NonMirror": 2}


def raw_document() -> dict:
    text = (resources.files("weightmagic") / "data" / "catalog.json"
            ).read_text(encoding="utf-8")
    return json.loads(text)


def write_document(tmp_path, document) -> Path:
    target = tmp_path / "catalog.json"
    target.write_text(document if isinstance(document, str)
                      else json.dumps(document), encoding="utf-8")
    return target


class TestShape:
    def test_counts(self, catalog):
        assert len(catalog) == 120
        for table, count in EXPECTED_COUNTS.items():
            assert len(catalog.table(table)) == count

    def test_unknown_table(self, catalog):
        with pytest.raises(CatalogError, match="unknown table"):
            catalog.table("T9")

    def test_entry_labels(self, catalog):
        assert catalog.lookup("E_12")[0].label == "T2#1 no. 14 E_12"
        assert catalog.table("T1")[0].label == "T1#1 E~_8"
        assert catalog.table("Fuchs")[0].label == "Fuchs#1 no. 42 Z_2,0"

    def test_key_prefers_index(self, catalog):
        assert catalog.lookup("E_12")[0].key == 14
        assert catalog.table("T1")[0].key == "E~_8"

    def test_square_parses_monomials(self, catalog):
        square = catalog.lookup("E_12")[0].square
        assert square.entries == ((7, 0, 0), (0, 3, 0), (0, 0, 2))

    def test_zero_weight_entry(self, catalog):
        entry = catalog.lookup("I_1,0")[0]
        assert entry.flags == ("zero_weight",)
        assert entry.weights.weights == (2, 3, 0)
        assert not entry.positive  # the flag states what the weights show
        # built, so it satisfies both sum relations
        assert entry.square.entries == ((3, 0, 0), (0, 2, 2), (0, 2, 1))

    def test_not_strong_flags_match_golden_file(self, catalog):
        golden = set(json.loads(GOLDEN_NOT_STRONG.read_text()))
        flagged = {e.name for e in catalog.table("T4")
                   if "not_strong" in e.flags}
        assert flagged == golden

    def test_expected_values_only_on_fuchsian_rows(self, catalog):
        for entry in catalog:
            if entry.table == "Fuchs":
                assert entry.expected is not None
            else:
                assert entry.expected is None


class TestLookup:
    def test_index_may_hit_several_entries(self, catalog):
        hits = catalog.lookup(14)
        assert len(hits) == 4
        assert {e.table for e in hits} == {"T2"}
        assert hits[0].name == "E_12"
        assert str(hits[0].weights) == "6,14,21;42"

    def test_index_shared_across_tables(self, catalog):
        hits = catalog.lookup(42)
        assert sorted(e.table for e in hits) == ["Fuchs", "T3", "T3", "T3"]

    def test_name_lookup(self, catalog):
        hits = catalog.lookup("Q_17")
        assert len(hits) == 1
        entry = hits[0]
        assert (entry.table, entry.index) == ("T3", 68)
        assert str(entry.weights) == "4,10,13;30"
        assert entry.weights.a0 == 3

    def test_unknown_index(self, catalog):
        with pytest.raises(CatalogError, match="no catalog entry matches 9999"):
            catalog.lookup(9999)

    def test_unknown_name(self, catalog):
        with pytest.raises(CatalogError, match="no catalog entry matches"):
            catalog.lookup("E_99")


class TestPartners:
    def test_self_paired_entry(self, catalog):
        e12 = catalog.lookup("E_12")[0]
        assert catalog.partner_of(e12) is e12

    def test_cross_table_partner(self, catalog):
        fuchs = catalog.table("Fuchs")[0]
        partner = catalog.partner_of(fuchs)
        assert (partner.table, partner.index, partner.name) == \
            ("T3", 68, "Q_17")

    def test_partnering_is_reciprocal(self, catalog):
        for entry in catalog:
            back = catalog.partner_of(catalog.partner_of(entry))
            if entry.table == "Fuchs":
                # the round trip lands on the identical source row in T3
                assert back.table == "T3"
                assert (back.key, back.weights, back.monomials) == \
                    (entry.key, entry.weights, entry.monomials)
            else:
                assert back is entry


class TestVerifyEntry:
    def test_every_entry_verifies(self, catalog):
        for entry in catalog:
            report = verify_entry(entry, catalog)
            assert report.ok, (entry.label, report.problems)

    def test_self_dual_entry_report(self, catalog):
        report = verify_entry(catalog.lookup("E_12")[0], catalog)
        assert report.classification == "primitive"
        assert report.strong
        assert report.zeta_duality_applicable and report.zeta_duality_ok

    def test_zero_weight_entry_skips_zeta(self, catalog):
        report = verify_entry(catalog.lookup("I_1,0")[0], catalog)
        assert not report.zeta_duality_applicable
        assert report.ok

    @pytest.mark.parametrize("name", ["E_12", "E~_8", "Q_17"])
    def test_not_strong_flag_is_checked_on_every_table(self, catalog, name):
        entry = catalog.lookup(name)[0]
        flagged = replace(entry, flags=entry.flags + ("not_strong",))
        report = verify_entry(flagged, catalog)
        assert report.strong and not report.strong_ok and not report.ok
        assert report.problems == ("strong=True, expected False",)

    @pytest.mark.parametrize("position,changes,problems", [
        # T2#1 is E_12; with these weights C - 1 is singular, and the
        # failed identity is reported, not raised
        pytest.param(0, dict(weights=parse_weight_system("1,1,1;3"),
                             partner_weights=parse_weight_system("1,1,1;3"),
                             monomials="x^3, y^3, z^3"),
                     ("classified plain, expected almost_primitive",
                      "inverse-product identity fails",
                      "transpose weight pair disagrees with partner entry"),
                     id="singular-difference"),
        pytest.param(1, dict(table="T1"),
                     ("classified almost_primitive, expected primitive",),
                     id="wrong-table"),
    ])
    def test_failed_claims_are_reported(self, catalog, position, changes,
                                        problems):
        entry = replace(catalog.table("T2")[position], **changes)
        report = verify_entry(entry, catalog)
        assert report.problems == problems
        assert report.inverse_identity_ok == (
            "inverse-product identity fails" not in problems)

    def test_flagged_entries_report_discrepancy(self, catalog):
        for entry in catalog.table("T4"):
            report = verify_entry(entry, catalog)
            assert report.strong == ("not_strong" not in entry.flags)
            assert report.ok

    def test_exponent_range_checked_for_unimodal_table(self, catalog):
        checked = [verify_entry(e, catalog).exponent_outliers
                   for e in catalog.table("T4") if 0 not in e.weights.weights]
        assert checked and all(c == () for c in checked)

    def test_loaded_squares_are_not_validated_again(self, monkeypatch):
        catalog = load_catalog()
        validated = []
        original = magic.validate

        def counting(*args):
            validated.append(args)
            return original(*args)

        monkeypatch.setattr(magic, "validate", counting)
        reports = [verify_entry(e, catalog) for e in catalog]
        fuchsian_report(catalog)
        assert validated == []
        assert all(r.ok for r in reports)

    def test_broken_matrix_is_refused_when_the_entry_is_built(self, catalog):
        with pytest.raises(ValidationError) as raised:
            replace(catalog.lookup("E_12")[0], monomials="x^7, y^3, z^3")
        assert str(raised.value) == (
            "matrix of T2#1 no. 14 E_12 fails validation: row 3 has "
            "a-weighted sum 63, expected the degree 42")

    @pytest.mark.parametrize("module,name,table", [
        pytest.param(magic, "validate", "T2", id="validate"),
        pytest.param(polytope, "verify_duality_identity", "T2",
                     id="verify_duality_identity"),
        pytest.param(zeta, "evaluate_at_one", "Fuchs", id="evaluate_at_one"),
    ])
    def test_programming_errors_are_raised_not_reported(
            self, catalog, monkeypatch, module, name, table):
        # a failed claim is report content; a bug is not a failed claim
        def broken(*args):
            raise TypeError("a bug")

        monkeypatch.setattr(module, name, broken)
        with pytest.raises(TypeError, match="a bug"):
            # a replaced entry validates its square again
            verify_entry(replace(catalog.table(table)[0]), catalog)

    def test_report_carries_the_fuchsian_row(self, catalog):
        rows = fuchsian_report(catalog)
        entries = catalog.table("Fuchs")
        assert len(entries) == len(rows) == 8
        for entry, row in zip(entries, rows):
            assert verify_entry(entry, catalog).fuchs == row
        others = [e for e in catalog if e.table != "Fuchs"]
        assert all(verify_entry(e, catalog).fuchs is None for e in others)

    def test_wrong_starred_column_fails_the_entry(self, catalog):
        entry = catalog.table("Fuchs")[0]
        tampered = replace(entry, expected=replace(
            entry.expected, d_star=entry.expected.d_star + 1))
        report = verify_entry(tampered, catalog)
        assert not report.ok and not report.fuchs.matches
        assert "disagree with stored values" in report.problems[0]


class TestFuchsianReport:
    def test_all_rows_match(self, catalog):
        rows = fuchsian_report(catalog)
        assert len(rows) == 8
        for row in rows:
            assert row.matches, (row.label, row.errors)

    def test_partner_discriminants(self, catalog):
        rows = fuchsian_report(catalog)
        assert tuple(r.d_star_abs for r in rows) == \
            (6, 12, 25, 10, 10, 6, 14, 12)

    def test_covering_identity(self, catalog):
        for row in fuchsian_report(catalog):
            assert row.mu_star + row.nu_star + 1 == row.b0 * (row.rho + 3)

    def test_labels_pair_indices(self, catalog):
        assert fuchsian_report(catalog)[0].label == "42/68"


def _respell_fuchsian_matrix(entries):
    record = next(r for r in entries
                  if (r["table"], r["seq"]) == ("Fuchs", 1))
    record["monomials"] = "x^5z, xy^3, z^{2}"  # the same square
    return entries


def _drop_fuchsian_source(entries):
    # the T3 partner of the dropped row now points at the Fuchs row
    for r in entries:
        if r["table"] == "T3" and r["index"] == 68:
            r["partner_table"] = "Fuchs"
    return [r for r in entries if not (
        r["table"] == "T3" and (r["index"], r["partner"]) == (42, 68))]


class TestLoading:
    def test_catalog_from_explicit_path(self, tmp_path):
        target = write_document(tmp_path, raw_document())
        assert len(load_catalog(target)) == 120

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_catalog(tmp_path / "absent.json")

    def test_rejects_other_schema_versions(self, tmp_path):
        document = raw_document()
        document["schema_version"] = 99
        with pytest.raises(CatalogError, match="schema version 99"):
            load_catalog(write_document(tmp_path, document))

    def test_rejects_invalid_json(self, tmp_path):
        with pytest.raises(CatalogError, match="not valid JSON"):
            load_catalog(write_document(tmp_path, "{nope"))

    def test_rejects_non_object(self, tmp_path):
        with pytest.raises(CatalogError, match="JSON object"):
            load_catalog(write_document(tmp_path, []))

    def test_rejects_missing_entry_list(self, tmp_path):
        with pytest.raises(CatalogError, match="entry list"):
            load_catalog(write_document(tmp_path, {"schema_version": 1}))

    def test_rejects_missing_field(self, tmp_path):
        document = raw_document()
        del document["entries"][0]["monomials"]
        with pytest.raises(CatalogError, match="missing field"):
            load_catalog(write_document(tmp_path, document))

    def test_rejects_wrong_virtual_weight(self, tmp_path):
        document = raw_document()
        document["entries"][0]["a0"] += 1
        with pytest.raises(CatalogError, match="disagrees with derived"):
            load_catalog(write_document(tmp_path, document))

    def test_rejects_unknown_flags(self, tmp_path):
        document = raw_document()
        document["entries"][0]["flags"] = ["experimental"]
        with pytest.raises(CatalogError, match="unknown flags"):
            load_catalog(write_document(tmp_path, document))

    @pytest.mark.parametrize("name,flags,message", [
        pytest.param("I_1,0", [], "T4#16 I_1,0 is not flagged zero_weight, "
                     "but 2,3,0;6 and 2,3,0;6 have a zero weight",
                     id="flag-missing"),
        pytest.param("E_12", ["zero_weight"], "T2#1 no. 14 E_12 is flagged "
                     "zero_weight, but 6,14,21;42 and 6,14,21;42 have no "
                     "zero weight", id="flag-without-zero"),
    ])
    def test_zero_weight_flag_must_match_the_weights(self, tmp_path, name,
                                                     flags, message):
        document = raw_document()
        record = next(r for r in document["entries"] if r["name"] == name)
        record["flags"] = flags
        with pytest.raises(CatalogError) as raised:
            load_catalog(write_document(tmp_path, document))
        assert str(raised.value) == message

    @pytest.mark.parametrize("table,seq,flags,label", [
        pytest.param("T2", 1, ["non_mirror_example"], "T2#1 no. 14 E_12",
                     id="outside-NonMirror"),
        pytest.param("T4", 4, ["not_strong", "non_mirror_example"],
                     "T4#4 no. 8 W_1,0", id="beside-another-flag"),
        pytest.param("NonMirror", 1, [], "NonMirror#1 no. 8",
                     id="missing-on-NonMirror"),
    ])
    def test_non_mirror_flag_must_match_the_table(self, tmp_path, table, seq,
                                                  flags, label):
        document = raw_document()
        record = next(r for r in document["entries"]
                      if (r["table"], r["seq"]) == (table, seq))
        record["flags"] = flags
        with pytest.raises(CatalogError) as raised:
            load_catalog(write_document(tmp_path, document))
        assert str(raised.value) == \
            f"{label}: non_mirror_example flag and table disagree"

    def test_rejects_wrong_table_size(self, tmp_path):
        document = raw_document()
        document["entries"] = [r for r in document["entries"]
                               if not (r["table"] == "T1" and r["seq"] == 1)]
        with pytest.raises(CatalogError, match="table T1 has 2"):
            load_catalog(write_document(tmp_path, document))

    def test_rejects_broken_matrix(self, tmp_path):
        document = raw_document()
        record = next(r for r in document["entries"] if r["name"] == "E_12")
        record["monomials"] = "x^7, y^3, z^3"
        with pytest.raises(CatalogError, match="fails validation"):
            load_catalog(write_document(tmp_path, document))

    def test_rejects_dangling_partner(self, tmp_path):
        document = raw_document()
        record = next(r for r in document["entries"] if r["name"] == "E_12")
        record["partner"] = 9999
        with pytest.raises(CatalogError, match="resolves to 0 entries"):
            load_catalog(write_document(tmp_path, document))

    @pytest.mark.parametrize("tamper,message", [
        pytest.param(_respell_fuchsian_matrix, "Fuchs#1 no. 42 Z_2,0 "
                     "disagrees with its T3 source row", id="respelled"),
        pytest.param(_drop_fuchsian_source, "Fuchs#1 no. 42 Z_2,0 has no "
                     "matching source row in T3", id="no-source"),
    ])
    def test_fuchsian_row_must_match_its_t3_source(self, tmp_path, tamper,
                                                   message):
        document = raw_document()
        document["entries"] = tamper(document["entries"])
        with pytest.raises(CatalogError) as raised:
            load_catalog(write_document(tmp_path, document))
        assert str(raised.value) == message
