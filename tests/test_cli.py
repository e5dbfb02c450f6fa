from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import weightmagic
from weightmagic.cli import MAX_EXPAND, main, run


def run_json(argv):
    code, out = run(argv + ["--format", "json"])
    return code, json.loads(out)


def tampered_catalog(tmp_path, edit) -> str:
    """Write the packaged catalog to tmp_path with ``edit`` applied to
    every record; return the path."""
    document = json.loads((resources.files("weightmagic") / "data"
                           / "catalog.json").read_text(encoding="utf-8"))
    for record in document["entries"]:
        edit(record)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(document))
    return str(path)


VERIFY_DETAILS = [
    "120 matrices validated",
    "120 determinants checked, 14 unimodular rows",
    "8 known T4 exceptions",
    "8 rows reproduced",
    "31 squares checked",
    "3 squares, pinned expansion [1, -1, 1]",
    "120 squares, 93 dual simplices",
    "catalog rediscovered, 82369 brute-forced pairs",
    "120 squares swept",
    "15 zeta functions checked",
]

VERIFY_TABLES = {
    "T1": {"entries": 3, "ok": 3},
    "T2": {"entries": 44, "ok": 44},
    "T3": {"entries": 47, "ok": 47},
    "T4": {"entries": 16, "ok": 16},
    "Fuchs": {"entries": 8, "ok": 8},
    "NonMirror": {"entries": 2, "ok": 2},
}


class TestReduce:
    def test_human(self):
        code, out = run(["reduce", "--wa", "28,12,42;84"])
        assert code == 0
        assert "reduced:        6,14,21;42" in out
        assert "full form:      1,6,14,21;42" in out
        assert "calabi-yau:     yes" in out

    def test_json(self):
        code, document = run_json(["reduce", "--wa", "28,12,42;84"])
        assert code == 0
        assert document["reduced"] == "6,14,21;42"
        assert document["permutation"] == [1, 0, 2]
        assert document["scale"] == "1/2"
        assert document["virtual_weight"] == 1
        assert document["calabi_yau"] is True

    def test_invalid_system_exits_2(self, capsys):
        assert main(["reduce", "--wa", "0,0;4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_weight_exits_2(self, capsys):
        assert main(["reduce", "--wa", "2,3,0;6"]) == 2
        err = capsys.readouterr().err
        assert ("zero weight in (2, 3, 0); every weight must be positive"
                in err)
        assert "allows_zero_weight" not in err


class TestCheck:
    def test_valid_square(self):
        code, out = run(["check", "--wa", "6,14,21;42", "--wb", "6,14,21;42",
                         "--matrix", "x^7, y^3, z^2"])
        assert code == 0
        assert "classification: primitive" in out
        assert "strong:         yes" in out

    def test_integer_matrix_form(self):
        code, out = run(["check", "--wa", "6,14,21;42", "--wb", "6,14,21;42",
                         "--matrix", "7,0,0;0,3,0;0,0,2"])
        assert code == 0
        assert "matrix:         x^7, y^3, z^2" in out

    def test_recovers_column_weights(self):
        code, out = run(["check", "--wa", "1,3,5;10",
                         "--matrix", "x^5z, xy^3, z^2"])
        assert code == 0
        assert "column weights: 4,10,13;30 (recovered)" in out

    def test_recovers_partner_of_virtual_weight_zero(self):
        code, out = run(["check", "--wa", "1,1,1;3",
                         "--matrix", "x^3, y^3, z^3"])
        assert code == 0
        assert "column weights: 1,1,1;3 (recovered)" in out

    def test_json_round_trips(self):
        code, document = run_json(["check", "--wa", "1,3,5;10",
                                   "--matrix", "x^5z, xy^3, z^2"])
        assert code == 0
        assert document["verified"] and document["wb_recovered"]
        matrix = ";".join(",".join(str(c) for c in row)
                          for row in document["matrix"])
        code2, echo = run_json(["check", "--wa", document["wa"],
                                "--wb", document["wb"], "--matrix", matrix])
        assert code2 == 0
        for key in ("determinant", "classification", "strong", "monomials"):
            assert echo[key] == document[key]

    def test_failed_relation_exits_1(self, capsys):
        assert main(["check", "--wa", "2,3;6", "--wb", "2,3;6",
                     "--matrix", "3,0;1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "check failed: row 2 has a-weighted sum 5" in captured.err

    def test_failed_relation_json_document(self, capsys):
        assert main(["check", "--wa", "2,3;6", "--wb", "2,3;6",
                     "--matrix", "3,0;1,1", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["verified"] is False
        assert "row 2" in document["error"]

    def test_unparseable_matrix_exits_2(self, capsys):
        assert main(["check", "--wa", "1,1;2", "--matrix", "x^2, 5q"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSearch:
    def test_human(self):
        code, out = run(["search", "--wa", "2,3;6",
                         "--filter", "primitive", "--strong"])
        assert code == 0
        assert "1 square(s) coupling 2,3;6 and 2,3;6" in out
        assert "  1. x^3, y^2   [primitive, strong]" in out

    def test_json_counts_all_squares(self):
        code, document = run_json(["search", "--wa", "1,1;2"])
        assert code == 0
        assert document["count"] == 2
        assert document["results"][0]["matrix"] == [[2, 0], [0, 2]]
        assert document["results"][0]["classification"] == "plain"
        assert document["results"][1]["classification"] == "almost_primitive"

    def test_explicit_column_weights(self):
        code, document = run_json(["search", "--wa", "1,3,5;10",
                                   "--wb", "4,10,13;30",
                                   "--filter", "almost", "--strong"])
        assert code == 0
        assert document["count"] == 1
        assert document["results"][0]["monomials"] == "x^5z, xy^3, z^2"
        assert document["filter"] == "almost_primitive"


class TestZeta:
    def test_human(self):
        code, out = run(["zeta", "--wa", "1,3,5;10",
                         "--matrix", "x^5z, xy^3, z^2"])
        assert code == 0
        assert "zeta: (1-t^2)(1-t^10)^2 / (1-t)" in out

    def test_saito_dual_flag(self):
        code, out = run(["zeta", "--wa", "1,3,5;10",
                         "--matrix", "x^5z, xy^3, z^2", "--saito-dual"])
        assert code == 0
        assert "saito dual: (1-t^10) / (1-t)^2(1-t^5)" in out

    def test_expand_flag(self):
        code, out = run(["zeta", "--wa", "6,14,21;42",
                         "--matrix", "x^7, y^3, z^2", "--expand", "14"])
        assert code == 0
        assert "series: [1, 1, 0, -1, -1, 0, 1, 0, -1, -1, 0, 1, 1, 0, 0]" \
            in out

    def test_expand_above_ceiling_exits_2(self, capsys):
        assert MAX_EXPAND == 100_000
        for expand, message in [
                (MAX_EXPAND + 1,
                 "error: --expand 100001 exceeds the ceiling of 100000\n"),
                (-1, "error: --expand -1 is negative; give a degree of 0 "
                     "or more\n")]:
            assert main(["zeta", "--wa", "6,14,21;42", "--matrix",
                         "x^7, y^3, z^2", "--expand", str(expand)]) == 2
            assert capsys.readouterr().err == message

    def test_json_factors(self):
        code, document = run_json(["zeta", "--wa", "1,3,5;10",
                                   "--matrix", "x^5z, xy^3, z^2"])
        assert code == 0
        assert document["zeta"]["factors"] == [[1, -1], [2, 1], [10, 2]]

    def test_non_reduced_weights_exit_2(self, capsys):
        assert main(["zeta", "--wa", "2,4;12", "--wb", "2,4;12",
                     "--matrix", "6,0;0,3"]) == 2
        assert "reduce first" in capsys.readouterr().err


class TestInvariants:
    def test_surface(self):
        code, out = run(["invariants", "--wa", "4,10,13;30",
                         "--wb", "1,3,5;10", "--matrix", "x^5y, y^3, xz^2"])
        assert code == 0
        for line in ("mu:  17", "mu0: 0", "rho: 5",
                     "zeta value at 1: 6", "discriminant: 6"):
            assert line in out

    def test_json(self):
        code, document = run_json(["invariants", "--wa", "4,10,13;30",
                                   "--wb", "1,3,5;10",
                                   "--matrix", "x^5y, y^3, xz^2"])
        assert code == 0
        assert (document["mu"], document["mu0"], document["rho"]) == (17, 0, 5)
        assert document["zeta_value_at_one"] == "6"
        assert document["discriminant"] == "6"

    def test_curve_has_no_picard_number(self):
        code, out = run(["invariants", "--wa", "2,3;6",
                         "--matrix", "x^3, y^2"])
        assert code == 0
        assert "rho: n/a" in out
        assert "zeta value at 1: 1" in out
        assert "discriminant" not in out


class TestPolar:
    def test_human(self):
        code, out = run(["polar", "--wa", "6,14,21;42"])
        assert code == 0
        assert "closed form matches: yes" in out

    def test_json(self):
        code, document = run_json(["polar", "--wa", "6,14,21;42"])
        assert code == 0
        assert document["polar_dual"][-1] == ["-6", "-14", "-21"]
        assert document["closed_form_matches"] is True

    def test_zero_virtual_weight_exits_2(self, capsys):
        assert main(["polar", "--wa", "1,2,3;6"]) == 2
        assert "virtual weight 0" in capsys.readouterr().err

    def test_origin_outside_exits_2(self, capsys):
        assert main(["polar", "--wa", "3,4,5;10"]) == 2
        assert "not in the interior" in capsys.readouterr().err


class TestCatalog:
    def test_list_human(self):
        code, out = run(["catalog", "list"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 120
        assert any("T2#1 no. 14 E_12" in line for line in lines)

    def test_list_json_with_early_format_flag(self):
        code, out = run(["catalog", "--format", "json", "list"])
        assert code == 0
        assert json.loads(out)["count"] == 120

    def test_show_by_name(self):
        code, document = run_json(["catalog", "show", "E_12"])
        assert code == 0
        assert document["count"] == 1
        record = document["entries"][0]
        assert record["weights"] == "6,14,21;42"
        assert record["verification"]["ok"] is True

    def test_show_by_index(self):
        code, document = run_json(["catalog", "show", "14"])
        assert code == 0
        assert document["count"] == 4

    def test_show_fuchsian_row_includes_expected_values(self):
        code, document = run_json(["catalog", "show", "Z_2,0"])
        assert code == 0
        fuchs = [r for r in document["entries"] if r["table"] == "Fuchs"]
        assert fuchs and fuchs[0]["expected"]["mu"] == 21

    def test_show_unknown_key_exits_2(self, capsys):
        # "²" is a digit to str.isdigit but not a decimal number
        for key, shown in [("9999", "9999"), ("²", "'²'")]:
            assert main(["catalog", "show", key]) == 2
            assert capsys.readouterr().err == \
                f"error: no catalog entry matches {shown}\n"

    def test_verify_passes(self):
        code, document = run_json(["catalog", "verify"])
        assert code == 0
        assert document["passed"] is True
        assert len(document["criteria"]) == 10
        assert all(c["passed"] for c in document["criteria"])
        assert [c["detail"] for c in document["criteria"]] == VERIFY_DETAILS
        assert document["tables"] == VERIFY_TABLES

    def test_verify_catches_dropped_not_strong_flag(self, tmp_path):
        def drop_flag(record):
            if record["name"] == "M_11":
                record["flags"].remove("not_strong")

        path = tampered_catalog(tmp_path, drop_flag)
        code, document = run_json(["catalog", "--catalog-path", path,
                                   "verify"])
        assert code == 1
        assert document["passed"] is False
        # criterion 3 compares with the frozen set, not with the flags;
        # only the entry's own report sees the flag disagree
        assert [c["detail"] for c in document["criteria"]] == VERIFY_DETAILS
        assert all(c["passed"] for c in document["criteria"])
        assert document["tables"] == {
            **VERIFY_TABLES, "T4": {"entries": 16, "ok": 15}}

    def test_verify_catches_added_not_strong_flag(self, tmp_path):
        def add_flag(record):
            if record["name"] == "E_12":
                record["flags"].append("not_strong")

        path = tampered_catalog(tmp_path, add_flag)
        code, document = run_json(["catalog", "--catalog-path", path,
                                   "verify"])
        assert code == 1
        failed = [c for c in document["criteria"] if not c["passed"]]
        assert [(c["number"], c["detail"]) for c in failed] == \
            [(3, "T2#1 no. 14 E_12 is strong")]
        assert document["tables"] == {
            **VERIFY_TABLES, "T2": {"entries": 44, "ok": 43}}

    def test_verify_catches_wrong_stored_mu(self, tmp_path):
        def bump_mu(record):
            if record["table"] == "Fuchs" and record["seq"] == 1:
                record["expected"]["mu"] += 1

        path = tampered_catalog(tmp_path, bump_mu)
        code, document = run_json(["catalog", "--catalog-path", path,
                                   "verify"])
        assert code == 1
        assert document["passed"] is False
        failed = [c for c in document["criteria"] if not c["passed"]]
        assert [(c["number"], c["detail"]) for c in failed] == \
            [(4, "42/68: mismatch")]
        assert document["tables"] == {
            **VERIFY_TABLES, "Fuchs": {"entries": 8, "ok": 7}}

    def test_verify_catches_wrong_stored_mu_star(self, tmp_path):
        def bump_mu_star(record):
            if record["table"] == "Fuchs" and record["seq"] == 1:
                record["expected"]["mu_star"] += 1

        path = tampered_catalog(tmp_path, bump_mu_star)
        code, document = run_json(["catalog", "--catalog-path", path,
                                   "verify"])
        assert code == 1
        assert document["passed"] is False
        failed = [c for c in document["criteria"] if not c["passed"]]
        assert [(c["number"], c["detail"]) for c in failed] == \
            [(4, "42/68: mismatch")]
        assert document["tables"] == {
            **VERIFY_TABLES, "Fuchs": {"entries": 8, "ok": 7}}

        code, document = run_json(["catalog", "--catalog-path", path,
                                   "show", "Z_2,0"])
        assert code == 0
        records = {r["table"]: r["verification"]
                   for r in document["entries"]}
        assert records["T3"]["ok"] is True
        assert records["Fuchs"]["ok"] is False
        assert "disagree with stored values" in \
            records["Fuchs"]["problems"][0]

    def test_verify_from_tampered_path_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "catalog.json"
        bad.write_text('{"schema_version": 99, "entries": []}')
        assert main(["catalog", "--catalog-path", str(bad), "verify"]) == 2
        assert "schema version" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        pytest.param("weights", 6,
                     "T2#1: weights must be a list of int values",
                     id="weights-not-a-list"),
        pytest.param("weights", [6.9, 14, 21],
                     "T2#1: weights must be a list of int values",
                     id="float-weight"),
        pytest.param("weights", [6, -14, 21],
                     "T2#1: negative weight in (6, -14, 21)",
                     id="negative-weight"),
        pytest.param("flags", None,
                     "T2#1: flags must be a list of str values",
                     id="flags-null"),
        pytest.param("degree", "42", "T2#1: weights (6, 14, 21) and "
                     "degree '42' must be integers", id="degree-string"),
        pytest.param("degree", 42.0, "T2#1: weights (6, 14, 21) and "
                     "degree 42.0 must be integers", id="degree-float"),
        pytest.param(None, "E_12",
                     "catalog record 3 needs a table and a seq",
                     id="record-not-an-object"),
        pytest.param("seq", [1], "T2#[1]: seq must be an int, got [1]",
                     id="seq-list"),
        pytest.param("seq", True, "T2#True: seq must be an int, got True",
                     id="seq-bool"),
        pytest.param("a0", 1.0, "T2#1: a0 must be an int, got 1.0",
                     id="a0-float"),
        pytest.param("index", "14",
                     "T2#1: index must be an int or null, got '14'",
                     id="index-string"),
        pytest.param("name", 12,
                     "T2#1: name must be a string or null, got 12",
                     id="name-int"),
        pytest.param("partner", None,
                     "T2#1: partner must be an int or a string, got None",
                     id="partner-null"),
        pytest.param("partner_table", [],
                     "T2#1: partner_table must be a string, got []",
                     id="partner-table-list"),
        pytest.param("monomials", 5, "T2#1: monomials must be a string, got 5",
                     id="monomials-int"),
        pytest.param("expected", 5,
                     "T2#1: expected values must be an object, got 5",
                     id="expected-not-an-object"),
        # a dotted field edits the stored columns of Fuchs#1
        pytest.param("expected.mu", 21.9,
                     "Fuchs#1: expected values {'mu': 21.9} must be integers",
                     id="fuchs-mu-float"),
        pytest.param("expected.d", "7",
                     "Fuchs#1: expected values {'d': '7'} must be integers",
                     id="fuchs-d-string"),
        pytest.param("expected.mu", "x",
                     "Fuchs#1: expected values {'mu': 'x'} must be integers",
                     id="fuchs-mu-word"),
        pytest.param("expected.rho", True,
                     "Fuchs#1: expected values {'rho': True} must be integers",
                     id="fuchs-rho-bool"),
    ])
    def test_malformed_record_exits_2_and_names_it(self, tmp_path, capsys,
                                                   field, value, message):
        document = json.loads((resources.files("weightmagic") / "data"
                               / "catalog.json").read_text(encoding="utf-8"))
        records = document["entries"]
        position = next(i for i, r in enumerate(records)
                        if r["name"] == "E_12")
        if field is None:
            records[position] = value
        elif field.startswith("expected."):
            fuchs = next(r for r in records
                         if (r["table"], r["seq"]) == ("Fuchs", 1))
            fuchs["expected"][field.split(".")[1]] = value
        else:
            records[position][field] = value
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(document))
        assert main(["catalog", "--catalog-path", str(path), "verify"]) == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_missing_catalog_path_exits_2(self, tmp_path, capsys):
        assert main(["catalog", "--catalog-path",
                     str(tmp_path / "absent.json"), "verify"]) == 2
        assert "error:" in capsys.readouterr().err


class TestArgumentErrors:
    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as info:
            run(["check"])
        assert info.value.code == 2

    def test_unknown_verb(self):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    def test_bad_filter_value(self):
        with pytest.raises(SystemExit) as info:
            run(["search", "--wa", "1,1;2", "--filter", "strict"])
        assert info.value.code == 2


def test_module_entry_point():
    # the child imports the package under test, installed or not
    src = str(Path(weightmagic.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weightmagic", "reduce", "--wa", "6,14,21;42"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "reduced:        6,14,21;42" in proc.stdout
