"""Line census: the statements of ``src/weightmagic`` that tier-1 never runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` and
``threading.settrace`` hook limited to the package's files, then prints
every statement line that never ran as ``file:line``.  A statement line
is the first line of a statement that compiles to bytecode; docstrings
are not counted.  Code that only child processes run, such as
``python -m weightmagic``'s ``__main__.py``, is not traced.

Exits 1 when the suite fails or when the set of unrun lines differs from
``EXPECTED``; each difference is printed with ``+`` (newly unrun) or
``-`` (now run, so drop it from ``EXPECTED``).  Only the standard library
is imported, besides the pytest that runs the suite.

    python tools/linecensus.py

The list is taken with Python 3.11; other versions place line events a
little differently.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weightmagic"

#: The unrun statement lines as the census last found them.
EXPECTED = frozenset({
    "__main__.py:3",
    "__main__.py:5",
    "__main__.py:7",
})


def _docstrings(tree: ast.Module) -> set[int]:
    """The lines of the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.add(first.lineno)
    return lines


def _code_lines(code) -> set[int]:
    """Every line that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def statement_lines(path: Path) -> set[int]:
    """The first lines of the statements of ``path`` that have bytecode."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    starts = {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.stmt)}
    return (starts - _docstrings(tree)) & _code_lines(
        compile(source, str(path), "exec"))


def run_suite() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the hook; its exit code and the lines that ran."""
    ran = {str(p): set() for p in PACKAGE.glob("*.py")}
    owner: dict[str, set[int] | None] = {}

    def lines_of(filename: str):
        if filename not in owner:
            owner[filename] = ran.get(os.path.realpath(filename))
        return owner[filename]

    def on_call(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    import pytest
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = run_suite()
    unrun = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for line in sorted(statement_lines(path) - ran[str(path)]):
            unrun.add(f"{path.name}:{line}")
    print(f"\n{len(unrun)} statement lines of src/weightmagic never ran:")
    for name in sorted(unrun):
        print(f"  {name}")
    changed = sorted(unrun ^ EXPECTED)
    for name in changed:
        print(f"{'+' if name in unrun else '-'} {name}")
    if changed:
        print("the unrun lines differ from linecensus.EXPECTED")
    if code:
        print(f"the test suite exited {code}")
    return 1 if code or changed else 0


if __name__ == "__main__":
    sys.exit(main())
