"""Mutation check: wrong versions of the code that the tests must catch.

Each entry of ``MUTANTS`` names a file of the repository, a text that
occurs in it exactly once, the text that replaces it, and the tests that
must fail once it is replaced.  For each entry the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
makes the replacement there and runs only the named tests with pytest
under this interpreter.  The mutant is killed when that run fails and
survives when it passes.  First, every named test runs once on an
unchanged copy and must pass, so that a failure is the mutant's doing.

Prints each mutant's verdict and exits 1 if the unchanged copy failed,
a mutant's text does not occur exactly once, or a mutant survived.  The
repository itself is never written.  Only the standard library is
imported, besides the pytest that runs the tests; the file's name keeps
pytest from collecting it.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

VERIFY = "src/weightmagic/verify.py"
ACCEPTANCE = "tests/test_acceptance.py"
ORACLE_TESTS = (
    f"{ACCEPTANCE}::test_criterion_08_oracle_matches_the_product_reference",
    f"{ACCEPTANCE}::test_criterion_08_search_completeness",
)

#: (name, file, old text, new text, tests of which one at least must fail)
MUTANTS = (
    ("the oracle joins on the holders of the rows of wa, not of the "
     "arrangement's columns", VERIFY,
     "holders[x1, y1] & holders[x2, y2]",
     "holders[x1, x2] & holders[y1, y2]",
     ORACLE_TESTS),
    ("the column intersection is a union", VERIFY,
     "holders[x1, y1] & holders[x2, y2]",
     "holders[x1, y1] | holders[x2, y2]",
     ORACLE_TESTS),
    ("the row scan misses entries equal to the degree", VERIFY,
     "for e1 in range(h + 1) for e2 in range(h + 1)",
     "for e1 in range(h) for e2 in range(h)",
     ORACLE_TESTS),
    ("an empty oracle is taken as matched whatever the search found",
     VERIFY,
     "if not (brute or found):",
     "if not brute:",
     (f"{ACCEPTANCE}::test_criterion_08_reports_a_wrong_search"
      "[empty-oracle-any]",)),
    ("an empty oracle skips its strong search", VERIFY,
     "                if find(wa, wb, strong_only=True):\n"
     "                    failures.append(f\"strong-filter mismatch for "
     "{wa} x {wb}\")\n"
     "                continue\n",
     "                continue\n",
     (f"{ACCEPTANCE}::test_criterion_08_reports_a_wrong_search"
      "[empty-oracle-strong]",)),
    ("a strong search keeps the squares that are not strong",
     "src/weightmagic/search.py",
     "if strong_only and not magic._is_strong(arrangement):",
     "if strong_only and magic._is_strong(arrangement):",
     ("tests/test_search.py::TestFindMagicSquares"
      "::test_unique_primitive_strong_pair",)),
    ("the exponent 10 is written without braces",
     "src/weightmagic/magic.py",
     "elif exp < 10:",
     "elif exp <= 10:",
     ("tests/test_magic.py::TestMonomialNotation"
      "::test_format_plain_and_braces",)),
    ("load_catalog reads one character fewer than it must refuse",
     "src/weightmagic/catalog.py",
     "f.read(MAX_CATALOG_CHARS + 1)",
     "f.read(MAX_CATALOG_CHARS)",
     ("tests/test_cli.py::TestCatalog"
      "::test_catalog_longer_than_the_limit_exits_2",)),
)


def copy_tree(dest: Path) -> None:
    """Copies what the tests need of the repository into ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, tests) -> bool:
    """Whether the named tests all pass in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return result.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({t for *_, named in MUTANTS for t in named})
        if not run_tests(base, tests):
            print("the named tests fail on the unchanged code")
            return 1
        bad = 0
        for number, (name, file, old, new, named) in enumerate(MUTANTS, 1):
            tree = Path(tmp) / f"mutant{number}"
            copy_tree(tree)
            text = (tree / file).read_text()
            if text.count(old) != 1:
                print(f"mutant {number}: {file} holds its text "
                      f"{text.count(old)} times, not once: {name}")
                bad += 1
                continue
            (tree / file).write_text(text.replace(old, new))
            survived = run_tests(tree, named)
            bad += survived
            print(f"mutant {number}: {'SURVIVED' if survived else 'killed'}:"
                  f" {name}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
