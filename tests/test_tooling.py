"""The test configuration in ``pyproject.toml``: a failing property test
is reported as a failure, and the tests after it still run.  And the
checker of CI's traced-run gates, ``tools/traced_gates.py``, fails every
run that breaks a gate, and each mutant of ``tools/mutants.py`` still
applies to the code."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

INNER_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # hypothesis imports libcst, where installed, to report a failure, and
    # the warning that import raises must not end the run: without the
    # pyproject filter for it the inner run reported "1 failed" and an
    # INTERNALERROR, and test_passes never ran
    (tmp_path / "test_inner.py").write_text(INNER_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traced_gates = _load_tool("traced_gates")
mutants = _load_tool("mutants")
WORKLOADS = ["search", "cli", "analyze", "verify"]


def passing_doc(workload):
    """A result document that meets every gate of ``workload``, with one
    more metric that no gate names."""
    metrics = {name: {"value": count, "unit": "count"}
               for name, count in traced_gates.GATES[workload].items()}
    metrics["trace.spans"] = {"value": 7, "unit": "count"}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


def test_traced_gates_cover_the_four_workloads_in_ci_order():
    assert list(traced_gates.GATES) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_gates_pass_a_run_that_meets_them(workload):
    assert traced_gates.check(passing_doc(workload),
                              traced_gates.GATES[workload]) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_gates_fail_a_wrong_or_failed_run(workload):
    want = traced_gates.GATES[workload]
    doc = passing_doc(workload)
    doc["correct"] = False
    assert traced_gates.check(doc, want) == ["correct is False, expected True"]
    doc = passing_doc(workload)
    doc["failed"] = 1
    assert traced_gates.check(doc, want) == ["failed is 1, expected 0"]


@pytest.mark.parametrize("workload", ["search", "analyze", "verify"])
def test_traced_gates_fail_each_count_off_by_one_or_missing(workload):
    want = traced_gates.GATES[workload]
    assert want
    for name, count in want.items():
        doc = passing_doc(workload)
        doc["metrics"][name]["value"] = count + 1
        assert traced_gates.check(doc, want) == [
            f"{name} is {count + 1}, expected {count}"]
        del doc["metrics"][name]
        assert traced_gates.check(doc, want) == [
            f"{name} is missing, expected {count}"]


def test_each_mutant_changes_its_file_in_one_place():
    # the mutation check refuses a mutant whose text its file does not
    # hold exactly once; an edit to the code that moves such a text shows
    # here, in tier-1, and not only in CI's mutation step
    for name, file, old, new, tests in mutants.MUTANTS:
        assert old != new and tests, name
        assert (ROOT / file).read_text().count(old) == 1, name
