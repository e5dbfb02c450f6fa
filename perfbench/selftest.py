"""Self-test of the benchmark's own output checks.

    python3 perfbench/selftest.py

Runs each workload's check on a real output of the package, which must
pass, and on deliberately corrupted copies of it, each of which must be
caught and counted as a failed operation with a wrong answer.  The known
partner-recovery defect must count as failed but not wrong.  Exits 0
when every case behaves, 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import sys
import types

import run
import workloads
from workloads import Op


def counted(out, check):
    """Push one output through the measuring loop; return its tally."""
    m = run.measure(lambda i: [Op("selftest", lambda: out, check)], 0)
    return m.attempted, m.failed, m.wrong


def edit_json(out, change):
    code, stdout, stderr = out
    doc = json.loads(stdout)
    change(doc)
    return code, json.dumps(doc), stderr


def main():
    program = workloads.Program(run.ROOT)
    # (name, output, check, expected verdict): "ok", "wrong" for a wrong
    # answer, or "failed" for a documented error where an answer exists.
    cases = []

    queries = {q["name"]: q for q in run.load("search.json")["queries"]}
    query = queries["s4-mixed"]
    out = program.run_cli(workloads.search_argv(query))
    check = lambda o, q=query: workloads.check_search(q, o)  # noqa: E731

    def drop_one(doc):
        del doc["results"][3]
        doc["count"] -= 1

    def wrong_det(doc):
        doc["results"][0]["determinant"] += 1

    cases += [("search: real output", out, check, "ok"),
              ("search: one dropped result", edit_json(out, drop_one),
               check, "wrong"),
              ("search: one wrong determinant", edit_json(out, wrong_det),
               check, "wrong")]

    universe = run.load("analyze.json")["universe"]
    good = next(u for u in universe if u["source"] == "self 1,1,1;12"
                and u["det"] != 0 and not u["defect"])
    defect = next(u for u in universe if u["defect"])
    record = workloads.analyze_square(program, good)
    check = lambda rec, item=good: workloads.check_analyze(  # noqa: E731
        item, rec, program.domain_error)
    wrong_wb = dict(record)
    wrong_wb["magic.recover_partner"] = types.SimpleNamespace(
        wb=program.weights.parse_weight_system("1,1,2;12"))
    wrong_series = dict(record)
    wrong_series["zeta.expand_series"] = [
        c + (i == 5) for i, c in enumerate(record["zeta.expand_series"])]
    wrong_polar = dict(record)
    wrong_polar["polytope.polar_dual"] = program.polytope.extended_diagram(
        program.weights.parse_weight_system(good["wa"]))
    cases += [("analyze: real output", record, check, "ok"),
              ("analyze: one wrong recovered wb", wrong_wb, check, "wrong"),
              ("analyze: one wrong series coefficient", wrong_series,
               check, "wrong"),
              ("analyze: a wrong polar dual", wrong_polar, check, "wrong"),
              ("analyze: known partner-recovery defect",
               workloads.analyze_square(program, defect),
               lambda rec: workloads.check_analyze(defect, rec,
                                                   program.domain_error),
               "failed")]

    by_label = {c[0]: c for c in workloads.CLI_CASES}
    reduce_case = by_label["reduce"]
    out = program.run_cli(list(reduce_case[1]))
    check = lambda o, c=reduce_case: workloads.check_cli(c, o)  # noqa: E731
    code, stdout, stderr = out
    wrong_line = (code, stdout.replace("6,14,21;42", "6,14,21;43"), stderr)
    malformed = by_label["malformed"]
    cases += [("cli: real reduce output", out, check, "ok"),
              ("cli: one wrong reduce line", wrong_line, check, "wrong"),
              ("cli: malformed input accepted", (0, "", ""),
               lambda o, c=malformed: workloads.check_cli(c, o), "wrong")]

    out = program.run_cli(list(workloads.VERIFY_ARGV))

    def fail_criterion(doc):
        doc["criteria"][7]["passed"] = False

    def lose_entry(doc):
        doc["tables"]["T3"]["ok"] -= 1

    cases += [("verify: real output", out, workloads.check_verify, "ok"),
              ("verify: one failed criterion", edit_json(out, fail_criterion),
               workloads.check_verify, "wrong"),
              ("verify: one entry not ok", edit_json(out, lose_entry),
               workloads.check_verify, "wrong")]

    bad = 0
    for name, out, check, expected in cases:
        attempted, failed, wrong = counted(out, check)
        ok = (attempted, failed, wrong) == (1, expected != "ok",
                                            expected == "wrong")
        bad += not ok
        print(f"{'ok  ' if ok else 'BAD '} {name}: attempted {attempted}, "
              f"failed {failed}, wrong {wrong}")
    print(f"{len(cases) - bad} of {len(cases)} self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
