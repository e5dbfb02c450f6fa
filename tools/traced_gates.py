"""CI's traced-run gates: the counts a traced benchmark run must read.

For each workload named (all four by default, in the order CI runs
them), runs ``perfbench/run.py --workload W --seconds 0 --trace 1``
under this interpreter and checks the result document that its last
stdout line holds: the run is correct, no operation failed, and each
metric ``GATES[W]`` names reads exactly its count.  A run also fails
when it exits nonzero, as it does when a public name the tracer wraps
is removed or renamed.  Prints each workload's verdict and gated
counts, keeps going after a failure, and exits 1 if any workload failed
or printed no result line.  Only the standard library is imported.

    python tools/traced_gates.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Per workload, the metrics a traced run must read and their counts.
GATES = {
    "search": {
        # the CLI searches once per query, and enters cli.main once each
        "search.find_magic_squares.calls": 5,
        "cli.main.calls": 5,
        # the searches find the results they found before
        "search.results": 1232,
        # the row multisets a search admits, counted as canonicalize calls:
        # 712 + 465 + 55 + 0 + 30, as the strong search canonicalizes only
        # its 30 strong multisets
        "search.multisets": 1262,
        # four searches reach the row stage (the fifth fails k a0 = h b0)
        # and call enumerate_rows, which keeps a system's rows; rows sums
        # the rows those calls return
        "search.enumerate_rows.calls": 4,
        "search.rows": 245,
    },
    # every CLI verb the README documents keeps its output and exit code,
    # which the run itself checks
    "cli": {},
    "analyze": {
        # C - 1 is the only matrix inverted, once per square: the square
        # keeps (d, N) for both inverse_data and verify_duality_identity,
        # and polar_dual reads linalg.eliminate instead
        "linalg.inverse.calls": 1500,
        # det C is expanded once: special_subsets reads it from classify's
        # kept report, and a refused square is not searched again
        "linalg.determinant.calls": 2264,
        # recover_partner checks only the rows of the square it builds
        "magic.validate.calls": 1500,
        "linalg.solve.calls": 1500,
    },
    "verify": {
        # criterion 8 makes every search of its n=2 sweep and finds the
        # results it found before; squares are validated and entries
        # verified in one pass
        "search.find_magic_squares.calls": 164852,
        "magic.validate.calls": 120,
        "search.results": 982,
        "catalog.verify_entry.calls": 120,
    },
}


def check(doc: dict, want: dict[str, int]) -> list[str]:
    """What is wrong with the result document ``doc``: empty when the run
    is correct, failed nothing and reads every count of ``want``."""
    problems = []
    if doc.get("correct") is not True:
        problems.append(f"correct is {doc.get('correct')!r}, expected True")
    if doc.get("failed") != 0:
        problems.append(f"failed is {doc.get('failed')!r}, expected 0")
    metrics = doc.get("metrics", {})
    for name, count in want.items():
        if name not in metrics:
            problems.append(f"{name} is missing, expected {count}")
        elif metrics[name].get("value") != count:
            problems.append(
                f"{name} is {metrics[name].get('value')!r}, expected {count}")
    return problems


def run(workload: str) -> list[str]:
    """Run ``workload`` traced, print its verdict; what is wrong with it."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{workload}: no result line; exit {proc.returncode}")
        print(proc.stderr[-2000:], end="")
        return ["printed no result line"]
    problems = check(doc, GATES[workload])
    if proc.returncode:
        problems.append(f"run.py exited {proc.returncode}")
    got = {name: doc.get("metrics", {}).get(name, {}).get("value")
           for name in GATES[workload]}
    print(f"{workload}: correct {doc.get('correct')} failed "
          f"{doc.get('failed')} {got}")
    for problem in problems:
        print(f"  FAIL {problem}")
    return problems


def main(argv: list[str]) -> int:
    unknown = [w for w in argv if w not in GATES]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {list(GATES)}")
        return 2
    failed = [w for w in argv or GATES if run(w)]
    print(f"traced gates failed: {failed}" if failed else "traced gates pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
