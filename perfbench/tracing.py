"""Spans and counters at the package's public function boundaries.

The traced run wraps the module attributes of the public functions in
``LAYERS`` (and every other ``weightmagic`` module global bound to the
same function object, so ``from .x import f`` call sites are traced too).
Each call records a span: name, start, end and parent, held in compact
arrays until the run ends.  Self time is a span's duration minus the time
its child spans cover.  ``linalg.determinant`` recurses, so only its
outermost calls open spans.

Everything runs on one thread with no queue, so no layer ever waits:
the per-layer metrics are work counts, busy (self) time, and failures.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = {
    "weights": ("parse_weight_system", "reduce_system"),
    "magic": ("parse_matrix", "validate", "classify", "recover_partner",
              "inverse_data", "transpose"),
    "linalg": ("determinant", "inverse", "solve"),
    "zeta": ("special_subsets", "reduced_zeta", "lattice_invariants",
             "saito_dual", "expand_series"),
    "polytope": ("extended_diagram", "polar_dual", "verify_duality_identity"),
    "search": ("find_magic_squares", "enumerate_rows", "canonicalize"),
    "catalog": ("load_catalog", "verify_entry", "fuchsian_report"),
    "cli": ("main",),
}

# Functions that raise the package's documented errors on some input;
# these also report `.failed` and `.refused`.
RAISING = (
    "weights.parse_weight_system", "weights.reduce_system",
    "magic.parse_matrix", "magic.validate", "magic.recover_partner",
    "magic.inverse_data", "linalg.inverse", "linalg.solve",
    "zeta.special_subsets", "zeta.reduced_zeta", "zeta.lattice_invariants",
    "zeta.saito_dual", "polytope.extended_diagram", "polytope.polar_dual",
    "polytope.verify_duality_identity", "search.find_magic_squares",
    "catalog.load_catalog",
)

CRITERIA = 10
QUERIES = ("s3-eq", "s4-eq", "s4-mixed", "s3-empty", "s3-filtered")


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    names = []
    for module, functions in LAYERS.items():
        for f in functions:
            name = f"{module}.{f}"
            names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
            if name in RAISING:
                names += [(f"{name}.failed", "count"),
                          (f"{name}.refused", "count")]
    names += [("search.rows", "count"),
              ("search.enumerate_rows.repeat_frac", "ratio"),
              ("search.multisets", "count"), ("search.results", "count"),
              ("search.yield", "ratio")]
    names += [(f"verify.c{i:02d}_s", "s") for i in range(1, CRITERIA + 1)]
    names += [("cli.import_s", "s")]
    names += [(f"q.{q}_s", "s") for q in QUERIES]
    names += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return names


class Tracer:
    """Wraps the package's public functions for the length of a ``with``.

    Spans are timed on ``clock``.
    """

    def __init__(self, program, clock=perf_counter):
        self.program = program
        self.clock = clock
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.failed = Counter()
        self.refused = Counter()
        self.rows = 0
        self.row_calls = 0
        self.row_repeats = 0
        self.results = 0
        self._seen_wa = set()
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None, recursive=False):
        nid = len(self.names)
        self.names.append(name)
        domain_error = self.program.domain_error

        def traced(*args, **kwargs):
            stack = self.stack
            if recursive and stack and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end[sid] = self.clock()
                stack.pop()
                # A call made straight from the benchmark is judged there,
                # against the answer the benchmark knows.
                if stack:
                    bucket = (self.refused if isinstance(exc, domain_error)
                              else self.failed)
                    bucket[name] += 1
                raise
            self.end[sid] = self.clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_rows(self, args, rows):
        self.row_calls += 1
        self.rows += len(rows)
        if args[0] in self._seen_wa:
            self.row_repeats += 1
        self._seen_wa.add(args[0])

    def _count_results(self, args, results):
        self.results += len(results)

    def __enter__(self):
        p = self.program
        after = {"search.enumerate_rows": self._count_rows,
                 "search.find_magic_squares": self._count_results}
        modules = [m for key, m in sys.modules.items()
                   if key == "weightmagic" or key.startswith("weightmagic.")]
        for module_name, functions in LAYERS.items():
            module = getattr(p, module_name)
            for f in functions:
                name = f"{module_name}.{f}"
                original = getattr(module, f)
                wrapper = self._wrap(name, original, after.get(name),
                                     recursive=name == "linalg.determinant")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)
        # run_all iterates the private tuple _CHECKS, which holds the
        # check_* functions themselves; swap in wrapped copies to time each
        # criterion from outside.
        checks = getattr(p.verify, "_CHECKS", None)
        if checks is not None:
            self._patches.append((p.verify, "_CHECKS", checks))
            p.verify._CHECKS = tuple(
                self._wrap(f"verify.c{i:02d}", check)
                for i, check in enumerate(checks, 1))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def judge(self, layer, verdict):
        """Count the benchmark's verdict on a call it made directly."""
        if verdict == "failed":
            self.failed[layer] += 1
        elif verdict == "refused":
            self.refused[layer] += 1

    # -- results ----------------------------------------------------------

    def totals(self):
        """(calls, self seconds, total seconds) per span name."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls, self_s, total_s = Counter(), Counter(), Counter()
        names = self.names
        for i in range(n):
            name = names[self.name[i]]
            d = end[i] - start[i]
            calls[name] += 1
            self_s[name] += d - child[i]
            total_s[name] += d
        return calls, self_s, total_s

    def metrics(self, extra):
        """The per-layer metric values; ``extra`` supplies the ones the
        tracer does not see (import time, query times, overhead)."""
        calls, self_s, total_s = self.totals()
        values = {}
        for module, functions in LAYERS.items():
            for f in functions:
                name = f"{module}.{f}"
                values[f"{name}.calls"] = calls[name]
                values[f"{name}.self_s"] = self_s[name]
                if name in RAISING:
                    values[f"{name}.failed"] = self.failed[name]
                    values[f"{name}.refused"] = self.refused[name]
        multisets = calls["search.canonicalize"]
        values.update({
            "search.rows": self.rows,
            "search.enumerate_rows.repeat_frac":
                self.row_repeats / self.row_calls if self.row_calls else 0.0,
            "search.multisets": multisets,
            "search.results": self.results,
            "search.yield": self.results / multisets if multisets else 0.0,
            "trace.spans": len(self.start),
        })
        for i in range(1, CRITERIA + 1):
            values[f"verify.c{i:02d}_s"] = total_s[f"verify.c{i:02d}"]
        values.update(extra)
        return values

    def dump(self, path):
        """Write every span as ``id parent name start end`` (tab-separated)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
