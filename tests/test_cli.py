from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weightmagic
from weightmagic import (cli, find_magic_squares, magic, parse_weight_system,
                         zeta)
from weightmagic.catalog import MAX_CATALOG_CHARS
from weightmagic.cli import MAX_EXPAND, MAX_EXPAND_WORK, build_parser, main, run

from support import coupled_pairs


W10 = parse_weight_system("1,3,5;10")
W30 = parse_weight_system("4,10,13;30")


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

    def test_digits_outside_ascii_exit_2(self, capsys):
        assert main(["reduce", "--wa", "\u0662,\u0663;\u0666"]) == 2
        assert capsys.readouterr().err == (
            "error: weight system must match 'a1,...,an;h', got "
            "'\u0662,\u0663;\u0666'\n")


@pytest.mark.parametrize("argv, field", [
    (["reduce", "--wa", "1," + "9" * 1200 + ";3"], "weight 2"),
    (["check", "--wa", "1,1;2", "--matrix", "x^" + "9" * 1200 + ", y^2"],
     "exponent of x in monomial 1"),
    (["invariants", "--wa", "1,1;2", "--matrix", "2,0;0," + "9" * 1200],
     "entry 2 in row 2"),
    (["catalog", "show", "4" * 1200], "catalog index"),
    (["zeta", "--wa", "1,1;2", "--matrix", "x^2, y^2", "--expand",
      "9" * 1200], "--expand"),
    # the sign is not a digit
    (["zeta", "--wa", "1,1;2", "--matrix", "x^2, y^2", "--expand",
      "-" + "9" * 1200], "--expand"),
], ids=["weight", "exponent", "entry", "catalog-index", "expand",
        "negative-expand"])
def test_number_longer_than_int_reads_exits_2(digit_limit, argv, field,
                                              capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {field} has 1200 digits, more than the "
                            "1000 that can be read\n")


N600 = "9" * 600


@pytest.mark.parametrize("mode", [[], ["--format", "json"]],
                         ids=["human", "json"])
@pytest.mark.parametrize("argv", [
    # the determinant has 1,200 digits
    ["check", "--wa", f"1,1;{N600}", "--matrix", f"x^{N600}, y^{N600}"],
    # mu has 1,800 digits
    ["invariants", "--wa", f"1,1,1;{N600}",
     "--matrix", f"x^{N600}, y^{N600}, z^{N600}"],
], ids=["check", "invariants"])
def test_computed_number_longer_than_str_prints_exits_2(digit_limit, argv,
                                                         mode, capsys):
    assert main(argv + mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a computed number has more digits than "
                            "the 1000 that can be printed\n")


def test_catalog_number_longer_than_int_reads_stays_a_catalog_error(
        digit_limit, tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text('{"entries": [{"seq": ' + "9" * 1200 + "}]}")
    assert main(["catalog", "--catalog-path", str(path), "list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: catalog file has a number with more "
                            "digits than the 1000 that can be read\n")


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

    def test_failed_row_relation_without_wb(self, capsys):
        # the partner is recovered first; the row relation is still checked
        assert main(["check", "--wa", "1,3,5;10",
                     "--matrix", "5,0,1;1,3,1;0,0,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("check failed: row 2 has a-weighted sum 15, "
                                "expected the degree 10\n")

    def test_failed_relation_json_document(self, capsys):
        assert main(["check", "--wa", "2,3;6", "--wb", "2,3;6",
                     "--matrix", "3,0;1,1", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["verified"] is False
        assert "row 2" in document["error"]

    def test_unparseable_matrix_exits_2(self, capsys):
        assert main(["check", "--wa", "1,1;2", "--matrix", "x^2, 5q"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numbered_variables_exit_2(self, capsys):
        assert main(["check", "--wa", "1,1,1;6",
                     "--matrix", "x1^5x3, x2^6, x3^6"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read monomial 'x1^5x3' at '1^5x3'\n")

    def test_non_integer_entry_exits_2_and_names_it(self, capsys):
        assert main(["check", "--wa", "1,3,5;10",
                     "--matrix", "5,0,a;1,3,0;0,0,2"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read integer matrix '5,0,a;1,3,0;0,0,2': "
            "entry 'a' in row 1 must be a non-negative integer in ASCII "
            "digits 0-9 only\n")

    @pytest.mark.parametrize("entry", ["3_0", "+3", "-3"])
    def test_entry_int_reads_but_the_grammar_refuses_exits_2(self, entry,
                                                               capsys):
        # '=' keeps argparse from reading '-3,0;0,2' as an option
        assert main(["check", "--wa", "2,3;6", "--wb", "2,3;6",
                     f"--matrix={entry},0;0,2"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read integer matrix '{entry},0;0,2': "
            f"entry '{entry}' in row 1 must be a non-negative integer in "
            "ASCII digits 0-9 only\n")

    @pytest.mark.parametrize("matrix, error", [
        ("5,0,1;1,3,0;0,0,\u0662",
         "cannot read integer matrix '5,0,1;1,3,0;0,0,\u0662': entry "
         "'\u0662' in row 3 must be a non-negative integer in ASCII "
         "digits 0-9 only"),
        ("x^\u0665z, xy^3, z^2",
         "cannot read monomial 'x^\u0665z' at '^\u0665z'"),
    ], ids=["integer-row", "exponent"])
    def test_digits_outside_ascii_exit_2(self, matrix, error, capsys):
        assert main(["check", "--wa", "1,3,5;10", "--matrix", matrix]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


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

    def test_result_documents_are_built_only_as_json_writes_them(
            self, monkeypatch):
        # human mode writes no JSON; the JSON handler classifies no square
        # before its document is written with its 712 results
        def no_json(*args):
            raise AssertionError("human mode wrote JSON")

        monkeypatch.setattr(cli, "_square_documents", no_json)
        monkeypatch.setattr(cli.json, "dumps", no_json)
        argv = ["search", "--wa", "1,1,1;12"]
        code, out = run(argv)
        assert code == 0
        assert out.startswith("712 square(s) coupling")
        monkeypatch.undo()
        classified = []
        classify = magic.classify

        def counting(ms):
            classified.append(ms)
            return classify(ms)

        monkeypatch.setattr(magic, "classify", counting)
        args = cli._parser().parse_args(argv + ["--format", "json"])
        code, document, _ = args.run(args)
        assert (code, classified) == (0, [])
        assert json.loads(document())["count"] == len(classified) == 712

    @settings(max_examples=60, deadline=None)
    @given(coupled_pairs(), st.sampled_from(sorted(cli._FILTER_NAMES)),
           st.booleans(), st.booleans())
    @example((W10, W30), "almost", True, True)
    @example((W10, W30), "any", False, True)
    @example((parse_weight_system("1,1;2"),) * 2, "any", False, False)
    @example((parse_weight_system("1,1,1,1;4"),) * 2, "any", False, False)
    def test_json_results_are_each_square_document(self, pair, filter_flag,
                                                   strong, give_wb):
        # the template writes every result as this dict, built here from
        # the square and its classify report, dumps to
        wa, wb = pair if give_wb else (pair[0], pair[0])
        filter_name = cli._FILTER_NAMES[filter_flag]
        argv = (["search", "--wa", str(wa), "--filter", filter_flag]
                + ["--wb", str(wb)] * give_wb + ["--strong"] * strong)
        squares = find_magic_squares(wa, wb, filter=filter_name,
                                     strong_only=strong)
        results = []
        for square in squares:
            report = magic.classify(square)
            results.append({
                "wa": str(wa), "wb": str(wb), "wb_recovered": False,
                "matrix": [list(row) for row in square.entries],
                "monomials": square.monomials(),
                "determinant": report.determinant,
                "classification": report.classification,
                "strong": report.strong})
        doc = {"verb": "search", "wa": str(wa), "wb": str(wb),
               "filter": filter_name, "strong_only": strong,
               "count": len(squares), "results": results}
        assert run(argv + ["--format", "json"]) == (
            0, json.dumps(doc, indent=2) + "\n")

    def test_row_texts_are_kept_for_one_document_only(self):
        # the search's results share rows, x^{12} among them, which it
        # writes one level deeper than check writes its square: a row text
        # kept past its document, or keyed without its indent, would put
        # check's rows, or the second search's, at the wrong indent
        square = ["check", "--wa", "1,1,1;12",
                  "--matrix", "x^{12}, y^{12}, z^{12}"]
        outputs = [run(argv + ["--format", "json"])
                   for argv in (["search", "--wa", "1,1,1;12"], square,
                                ["search", "--wa", "1,1,1;12"])]
        for code, out in outputs:
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
        searched = json.loads(outputs[0][1])["results"]
        checked = json.loads(outputs[1][1])
        assert checked["monomials"] == "x^{12}, y^{12}, z^{12}"
        assert all(any(row in result["matrix"] for result in searched)
                   for row in checked["matrix"])

    @pytest.mark.parametrize("wa, wb", [
        ("1,1,1;12", "1,1,1;12"), ("2,3,4,5;20", "2,3,4,5;20"),
        ("1,3,5;10", "4,10,13;30"), ("2,3;6", "2,3;6")])
    def test_check_of_a_result_is_that_result_with_verb_and_verified(
            self, wa, wb):
        # the README's promise: check prints a search result's bytes, with
        # check's verb and verified first
        _, document = run_json(["search", "--wa", wa, "--wb", wb])
        results = document["results"][:3] + document["results"][-3:]
        assert results
        for result in results:
            matrix = ";".join(",".join(map(str, row))
                              for row in result["matrix"])
            expected = {"verb": "check", "verified": True, **result}
            assert run(["check", "--wa", result["wa"], "--wb", result["wb"],
                        "--matrix", matrix, "--format", "json"]) == (
                0, json.dumps(expected, indent=2) + "\n")


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
                     "or more\n"),
                # read like every other number: ASCII digits, nothing else
                ("1_0", "error: --expand must be an integer in ASCII digits "
                        "0-9, got '1_0'\n"),
                ("\u0663", "error: --expand must be an integer in ASCII "
                           "digits 0-9, got '\u0663'\n"),
                ("+3", "error: --expand must be an integer in ASCII digits "
                       "0-9, got '+3'\n"),
                (" 3", "error: --expand must be an integer in ASCII digits "
                       "0-9, got ' 3'\n")]:
            assert main(["zeta", "--wa", "6,14,21;42", "--matrix",
                         "x^7, y^3, z^2", "--expand", str(expand)]) == 2
            assert capsys.readouterr() == ("", message)

    def test_expand_over_work_budget_exits_2(self, monkeypatch, capsys):
        # zeta is 1 / (1-t)(1-t^100)^960596: each unit of the exponent is
        # one pass over the degrees from 100 to N, 8 s of passes at N = 200
        assert MAX_EXPAND_WORK == 12_000_000
        argv = ["zeta", "--wa", "1,1,1,1;100",
                "--matrix", "x^{100}, y^{100}, z^{100}, t^{100}"]
        code, document = run_json(argv + ["--expand", "99"])
        assert code == 0
        assert document["series"] == [1] * 100

        def expand_series(p, max_degree):
            raise AssertionError("expanded over the budget")
        monkeypatch.setattr(zeta, "expand_series", expand_series)
        assert main(argv + ["--expand", "200"]) == 2
        assert capsys.readouterr() == (
            "", "error: --expand 200 needs 97020396 updates, over "
                "MAX_EXPAND_WORK = 12000000\n")

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

    def test_discriminant_sign_follows_rho(self):
        # E_12: rho = 10, so the discriminant is -1 times the value 1
        code, document = run_json(["invariants", "--wa", "6,14,21;42",
                                   "--matrix", "x^7, y^3, z^2"])
        assert code == 0
        assert document["rho"] == 10
        assert document["zeta_value_at_one"] == "1"
        assert document["discriminant"] == "-1"


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

    @pytest.mark.parametrize("mode,shown", [
        ([], "closed form matches: no\n"),
        (["--format", "json"], '"closed_form_matches": false\n')],
        ids=["human", "json"])
    def test_closed_form_mismatch_exits_1(self, monkeypatch, capsys, mode,
                                          shown):
        monkeypatch.setattr(weightmagic.polytope, "closed_form_dual",
                            lambda system: None)
        assert main(["polar", "--wa", "6,14,21;42", *mode]) == 1
        captured = capsys.readouterr()
        assert shown in captured.out
        assert captured.err == (
            "polar: closed form disagrees with the computed dual\n")


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

    def test_show_prints_the_flags(self):
        code, out = run(["catalog", "show", "M_11"])
        assert code == 0
        assert out.endswith("  verified:        yes\n"
                            "  flags:           not_strong\n")

    def test_show_by_index(self):
        code, document = run_json(["catalog", "show", "14"])
        assert code == 0
        assert document["count"] == 4

    def test_show_fuchsian_row_includes_expected_values(self):
        code, document = run_json(["catalog", "show", "Z_2,0"])
        assert code == 0
        fuchs = [r for r in document["entries"] if r["table"] == "Fuchs"]
        assert fuchs and fuchs[0]["expected"]["mu"] == 21

    def test_show_expected_holds_the_declared_fields_in_order(self):
        code, document = run_json(["catalog", "show", "Z_2,0"])
        assert code == 0
        shown = [list(r["expected"]) for r in document["entries"]
                 if "expected" in r]
        assert shown and all(
            keys == list(weightmagic.FuchsExpected._fields) for keys in shown)

    def test_show_unknown_key_exits_2(self, capsys):
        # "²" is a digit to str.isdigit but not a decimal number
        for key, shown in [("9999", "9999"), ("²", "'²'")]:
            assert main(["catalog", "show", key]) == 2
            assert capsys.readouterr().err == \
                f"error: no catalog entry matches {shown}\n"

    def test_show_key_in_digits_outside_ascii_exits_2(self, capsys):
        # an Arabic-Indic 1 is a decimal number to str.isdecimal, but an
        # index is written in ASCII digits, so it is read as a name
        assert main(["catalog", "show", "1"]) == 0
        capsys.readouterr()
        assert main(["catalog", "show", "\u0661"]) == 2
        assert capsys.readouterr().err == \
            "error: no catalog entry matches '\u0661'\n"

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
        pytest.param("table", "T9", "T9#1: unknown table 'T9'",
                     id="unknown-table"),
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

    def test_catalog_longer_than_the_limit_exits_2(self, tmp_path, capsys):
        # a sparse file of NUL bytes, refused before it is parsed as JSON
        assert MAX_CATALOG_CHARS == 1 << 20
        path = tmp_path / "catalog.json"
        with open(path, "wb") as f:
            f.truncate(MAX_CATALOG_CHARS + 1)
        assert main(["catalog", "--catalog-path", str(path), "list"]) == 2
        assert capsys.readouterr() == (
            "", "error: catalog file is over 1048576 characters\n")

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

    @pytest.mark.parametrize("verb", ["search", "check", "zeta",
                                      "invariants"])
    def test_empty_column_weights_exit_2(self, verb, capsys):
        # an empty --wb is a malformed weight system, not a missing one
        matrix = [] if verb == "search" else ["--matrix", "3,0;0,2"]
        assert main([verb, "--wa", "2,3;6", "--wb", "", *matrix]) == 2
        assert capsys.readouterr().err == (
            "error: weight system must match 'a1,...,an;h', got ''\n")


def child(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    """Run ``python *args`` on the package under test, installed or not;
    its output is decoded unless ``text`` is false."""
    src = str(Path(weightmagic.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text,
        env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point():
    proc = child("-m", "weightmagic", "reduce", "--wa", "6,14,21;42")
    assert proc.returncode == 0
    assert "reduced:        6,14,21;42" in proc.stdout


# ``python -m weightmagic`` that prints, last on stderr, the modules loaded
# when the interpreter exits
MODULES_AT_EXIT = """\
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
runpy.run_module("weightmagic", run_name="__main__", alter_sys=True)
"""
HEAVY = {"magic", "search", "zeta", "polytope", "catalog", "verify"}


@pytest.mark.parametrize("argv,code,absent", [
    (["reduce", "--wa", "6,14,21;42"], 0, HEAVY),
    (["reduce", "--wa", "1,2;x"], 2, HEAVY),
    (["catalog", "list"], 0, {"polytope", "search", "verify", "zeta"}),
], ids=["reduce", "malformed", "catalog-list"])
def test_verb_imports_only_the_modules_it_runs(argv, code, absent):
    proc = child("-c", MODULES_AT_EXIT, *argv)
    assert proc.returncode == code
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "weightmagic.cli" in loaded
    assert not loaded & {f"weightmagic.{name}" for name in absent}


#: The argv of each of the benchmark's ten CLI cases, and its exit code.
BENCHMARK_CLI_CASES = [
    (["reduce", "--wa", "28,12,42;84"], 0),
    (["check", "--wa", "1,3,5;10", "--matrix", "x^5z, xy^3, z^2"], 0),
    (["check", "--wa", "1,3,5;10", "--wb", "4,10,13;30",
      "--matrix", "x^5z, xy^3, z^2"], 0),
    (["zeta", "--wa", "1,3,5;10", "--matrix", "x^5z, xy^3, z^2",
      "--saito-dual", "--expand", "12"], 0),
    (["invariants", "--wa", "4,10,13;30", "--wb", "1,3,5;10",
      "--matrix", "x^5y, y^3, xz^2"], 0),
    (["polar", "--wa", "6,14,21;42"], 0),
    (["catalog", "list"], 0),
    (["catalog", "show", "E_12"], 0),
    (["search", "--wa", "6,14,21;42"], 0),
    (["reduce", "--wa", "1,2;x"], 2),
]


@pytest.mark.parametrize(
    "argv,code", BENCHMARK_CLI_CASES + [(["catalog", "verify"], 0)],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_no_verb_imports_dataclasses_inspect_typing_or_pathlib(argv, code):
    # -S leaves out the site packages' .pth files, which may import any
    # of these before the package runs
    proc = child("-S", "-c", MODULES_AT_EXIT, *argv)
    assert proc.returncode == code, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "weightmagic.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "pathlib"}


#: The benchmark's five search queries; s3-empty and s3-filtered find
#: no square, so their documents hold an empty result list.
BENCHMARK_SEARCHES = [
    ["search", "--wa", "1,1,1;12", "--wb", "1,1,1;12"],
    ["search", "--wa", "1,1,1,1;4", "--wb", "1,1,1,1;4"],
    ["search", "--wa", "2,3,4,5;20", "--wb", "2,3,4,5;20"],
    ["search", "--wa", "1,1,1;12", "--wb", "1,1,2;12"],
    ["search", "--wa", "1,1,1;12", "--wb", "1,1,1;12",
     "--filter", "primitive", "--strong"],
]


#: The argv whose JSON output is checked in process, and the exit code.
JSON_CASES = (
    BENCHMARK_CLI_CASES + [(["catalog", "verify"], 0)]
    + [(argv, 0) for argv in BENCHMARK_SEARCHES]
    + [(["check", "--wa", "2,3;6", "--wb", "2,3;6", "--matrix", "3,0;1,1"],
        1)])

#: The argv checked in a child process too: the benchmark's five searches
#: and ``check``, the other verb that writes a square's document.
CHILD_JSON_ARGV = BENCHMARK_SEARCHES + [
    ["check", "--wa", "1,3,5;10", "--matrix", "x^5z, xy^3, z^2"]]


@pytest.mark.parametrize("argv,code,in_child", [
    *(pytest.param(argv, code, False, id=f"{' '.join(argv)}-{code}")
      for argv, code in JSON_CASES),
    *(pytest.param(argv, 0, True, id=f"child {' '.join(argv)}")
      for argv in CHILD_JSON_ARGV)])
def test_json_output_is_the_stdlib_rendering(argv, code, in_child):
    # json.dumps prints floats, NaN and infinities; no document holds one
    def no_float(text):
        raise AssertionError(f"a document holds the float {text}")

    if in_child:
        # python -m weightmagic's stdout bytes: ASCII, with no newline
        # translated, as json.dumps writes them
        proc = child("-m", "weightmagic", *argv, "--format", "json",
                     text=False)
        got, out = proc.returncode, proc.stdout.decode("ascii")
    else:
        got, out = run(argv + ["--format", "json"])
    assert got == code
    if code == 2:
        assert out == ""
    else:
        document = json.loads(out, parse_float=no_float,
                              parse_constant=no_float)
        assert out == json.dumps(document, indent=2) + "\n"


#: Every argv the golden test runs: the benchmark's CLI cases and search
#: queries, more catalog actions, and the exit 1 and 2 paths of a verb.
GOLDEN_ARGV = (
    [argv for argv, _ in BENCHMARK_CLI_CASES]
    + [["catalog", "verify"], ["catalog", "show", "42"]]
    + BENCHMARK_SEARCHES
    + [["search", "--wa", "1,1,1;12", "--filter", "almost", "--strong"],
       ["search", "--wa", "2,3,4,5;20", "--strong"],
       ["check", "--wa", "2,3;6", "--wb", "2,3;6", "--matrix", "3,0;1,1"],
       ["zeta", "--wa", "2,3;6", "--matrix", "x^3, y^2", "--expand", "-1"]])

EMPTY = hashlib.sha256(b"").hexdigest()

#: For each argv, joined by spaces: the exit code, the SHA-256 of stdout in
#: human and in JSON mode, and of stderr, the same in both modes.  Taken
#: with ``cli.run`` at commit 31fe4ff, before each verb's handler was bound
#: on its own parser; a change to any byte a verb prints fails here.
GOLDEN_CLI = {
    "reduce --wa 28,12,42;84": (
        0, "bb66c52c72af2977f70ca588d6cd9b24abbdfdc3bda1ba333b69c907fdf6c371",
        "09213ba98e6bbdc7c030eb2908248b8f90e92dc2e5b4f423f450cc922fb736f2",
        EMPTY),
    "check --wa 1,3,5;10 --matrix x^5z, xy^3, z^2": (
        0, "712d12f3f967a7026df1d3255610e343ee33a59da721ef5e0b2d6b8ac97033c1",
        "73e8520f689a5e42fe2a9d579cc6418eceb67f5688e5c088a1dfc63a87f7c004",
        EMPTY),
    "check --wa 1,3,5;10 --wb 4,10,13;30 --matrix x^5z, xy^3, z^2": (
        0, "f21f0bfa14770a0ab4b041d96b54665ba0bd6cc9ee8cc7fdf8ab74d775e8823b",
        "52679fb654781f31c9020a433f5354f79865a891ec95a9ecfb87198ec8523852",
        EMPTY),
    "zeta --wa 1,3,5;10 --matrix x^5z, xy^3, z^2 --saito-dual --expand 12": (
        0, "7af11b749792a0a450428f88b64c655a69b0c003988b9d8c1ee9e5d42a78b456",
        "c7e5fbcd34ef99102877b0eec4fd2bf86f09cc838819acd14399813f5df53143",
        EMPTY),
    "invariants --wa 4,10,13;30 --wb 1,3,5;10 --matrix x^5y, y^3, xz^2": (
        0, "13d2ed73390f21bd1698d8113cb717e4596ba8afb5e4f3b6b008d25ca8c460bc",
        "7c26154fdd5fbcd6ba4b86903ff3fa8db0c963c95e77d31816f578a677502b5f",
        EMPTY),
    "polar --wa 6,14,21;42": (
        0, "ff3aaaff4aed872624c52e31e83bff90c65d5091e753656ead21687fc17817b4",
        "816b83ed1500400f257a45526075353741af890b995e8f2447bc19db85639c81",
        EMPTY),
    "catalog list": (
        0, "35e93d6a558e4d55dd99bafbe2d22c1bb6abf928d1079e3f14adaeb493a8ad82",
        "6c5d68ec6e3eea19b91e217ebf81b0097b341e9b266f80701c4aa9500d837b96",
        EMPTY),
    "catalog show E_12": (
        0, "37cb4a2429a40b788a77df80189f7741e20aad1c6ecc9911cd1425e66e2b1a0f",
        "7e17b51cd8cb235ecc660b0ad5d20aac306de8d5c6f62b9cc4d398fc9d885d3a",
        EMPTY),
    "search --wa 6,14,21;42": (
        0, "cfcdb51f71a92c38d965c4e2c129e591b9728a6219d79167be434cfc04983803",
        "758ebefdbba4e6dafc6af203405a42b3eb7912855a7f825907381fd6483c6437",
        EMPTY),
    "reduce --wa 1,2;x": (
        2, EMPTY,
        EMPTY,
        "52d44f4dcad7419c4967da332ccd464c9456e3366e21f90c2bc924afcd387c60"),
    "catalog verify": (
        0, "7cdeab78ee65f52f6a6f4dc68f6e6041fca614aa0dcb8e6de1c8e85dc10d8b9c",
        "77bc8b96f060edc3800d577bcaec343ab90cbf4a7978317d534bf3da9af78681",
        EMPTY),
    "catalog show 42": (
        0, "feb55f780609cdb5efe4bd00094fce5d3c464e62d936304b19e01a00c4de4c93",
        "ce367ac809e3e6b43ccfc929a4d0016375b20a92cf2f3692373cb43f2137ad0e",
        EMPTY),
    "search --wa 1,1,1;12 --wb 1,1,1;12": (
        0, "fe58dc6743cf919b9fac4812bbd617b7a517c0fa5b84f628d834f54a10782014",
        "71a29f441ee92ed3d0b9850e998f82b2318dc7c9675c7f3bced1d40eeaf2370c",
        EMPTY),
    "search --wa 1,1,1,1;4 --wb 1,1,1,1;4": (
        0, "4238d729f7576142fd6084c6e321f94f093d077ea2a9b32b4bfd00c96df32575",
        "ed8ee3c10029f679fcc4ee246af553465ea13e5cf5bc7d4081e2e1b631f8b71f",
        EMPTY),
    "search --wa 2,3,4,5;20 --wb 2,3,4,5;20": (
        0, "cfb8ac3bc9d3e66e26fa93535c17f0aabdb1de188901f6aa1aa31b671c080953",
        "0f434552c3d1153b29314e68ae1019eac8d4d3afc28e42a309ab44c71b00ab09",
        EMPTY),
    "search --wa 1,1,1;12 --wb 1,1,2;12": (
        0, "d27d87e62603bc59c7331882031bb32f0b6c312c3955dc4c25fccbde6056667e",
        "6394839161f74ba187a072af98e53a2d5f8c0e053fd717bf61317f47406c1c67",
        EMPTY),
    "search --wa 1,1,1;12 --wb 1,1,1;12 --filter primitive --strong": (
        0, "93bcf7d6c47d583cc3d6609d83123fe04c45eb4fd9889ef7286b91dd3e9709e7",
        "3bcf6a501543ea9b251ab654998c2ae814f95d38747f717fdc5ce6f2c3a30c04",
        EMPTY),
    "search --wa 1,1,1;12 --filter almost --strong": (
        0, "93bcf7d6c47d583cc3d6609d83123fe04c45eb4fd9889ef7286b91dd3e9709e7",
        "e0d79459d3d642c11f925be1820eff9323c979faafc2145e461abf48e88e4a26",
        EMPTY),
    # a strong search with results (38), taken at commit 230409c
    "search --wa 2,3,4,5;20 --strong": (
        0, "0ebab04ba910eeef71daecdd80a6bdb52e49f001bc3f6b44e2b2b03b7e0ae205",
        "c9cdaf4c0c6371541d3d4eb8a7bc80884ded11bfb45b2bbcf986b40f492b9f12",
        EMPTY),
    "check --wa 2,3;6 --wb 2,3;6 --matrix 3,0;1,1": (
        1, EMPTY,
        "ecdea9a3de438b9c177a9cda71ba2890ffcc2d78a20818c040810eb4645b0c43",
        "a7369f013c38c01350acc7d4960d2287cf551aae6e6eca0caa3b962ba8755a0c"),
    "zeta --wa 2,3;6 --matrix x^3, y^2 --expand -1": (
        2, EMPTY,
        EMPTY,
        "8a290ed765d02a21a7a08f0226818639e62723777e7266348490bb6d4f975598"),
}


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=" ".join)
def test_output_matches_the_frozen_digest(argv, capsys):
    code, human, json_out, err = GOLDEN_CLI[" ".join(argv)]
    for mode, want in (([], human), (["--format", "json"], json_out)):
        got, out = run(argv + mode)
        digests = (hashlib.sha256(out.encode()).hexdigest(),
                   hashlib.sha256(capsys.readouterr().err.encode()).hexdigest())
        assert (got, *digests) == (code, want, err), mode


@pytest.mark.parametrize("argv", [
    [], ["reduce"], ["check"], ["search"], ["zeta"], ["invariants"],
    ["polar"], ["catalog"], ["catalog", "verify"], ["catalog", "list"],
    ["catalog", "show"]], ids=lambda argv: " ".join(argv) or "weightmagic")
def test_help_exits_0(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
    with pytest.raises(SystemExit) as info:
        main([*argv, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['weightmagic', *argv])} ")


def test_coupling_verbs_print_the_same_coupling_flags(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    def coupling_lines(verb):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        lines = capsys.readouterr().out.splitlines()
        return [line for line in lines
                if line.startswith(("  --wa ", "  --wb ", "  --matrix "))]

    check = coupling_lines("check")
    assert len(check) == 3
    assert coupling_lines("zeta") == check
    assert coupling_lines("invariants") == check


class TestOneParser:
    def test_json_call_then_human_call(self):
        assert run(["reduce", "--wa", "6,14,21;42", "--format", "json"])[1] \
            .startswith("{\n")
        code, out = run(["reduce", "--wa", "6,14,21;42"])
        assert code == 0
        assert out.startswith("reduced:        6,14,21;42\n")

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["search", "--wa", "1,1;2", "--filter", "strict"])
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: weightmagic search")
        assert main(["search", "--wa", "2,3;6", "--strong"]) == 0
        assert capsys.readouterr().out.startswith("1 square(s) coupling")

    def test_format_before_and_after_the_catalog_action(self):
        for argv in (["catalog", "--format", "json", "list"],
                     ["catalog", "list", "--format", "json"]):
            code, out = run(argv)
            assert code == 0
            assert json.loads(out)["count"] == 120
        assert run(["catalog", "list"])[1].startswith("T1#1")

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser()
        one_tree = len(built)
        built.clear()
        cli._parser.cache_clear()
        try:
            for argv in (["reduce", "--wa", "2,3;6"],
                         ["search", "--wa", "2,3;6", "--format", "json"],
                         ["catalog", "list"]):
                assert main(argv) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == one_tree
