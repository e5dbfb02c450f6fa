"""Run one benchmark workload against the package in this checkout.

    python3 perfbench/run.py --workload verify|search|analyze|cli \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from
``src/`` and its CLI is started as ``python -m weightmagic`` with
``PYTHONPATH=src``.  Nothing needs building.

Set-up (``setup_s``) is measured first, several times, each in a fresh
interpreter: the time to ``import weightmagic.cli`` and call
``load_catalog()``.  The workload then runs whole passes over its input
set, one operation at a time, for about ``--seconds``.  Every output is
checked (see ``workloads.py``).

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics:

- ``setup_s``: median set-up time over the fresh interpreters;
- ``wall_s``: median over the passes of the time one pass spends in the
  program, that is one run over the full input set;
- ``peak_rss_mb``: peak resident memory of the process that did the
  work (the largest child for ``verify`` and ``cli``);
- ``op_p50_ms``, ``op_tail_ms``: the latency of one operation is its
  median over the passes; these are the median over the input set's
  operations and the highest percentile with at least ten operations
  beyond it (the maximum when there are fewer than 20 operations).

Every time is scaled to a reference speed of the host's core, sampled
while it is measured (see ``speed.py``); the report also gives the
unscaled pass time.  Medians are used because a run's median follows its
typical case, where a minimum follows rare fast moments.

With ``--trace 1`` the workload runs in-process, untraced for
``--seconds`` and then once traced, and the object holds the per-layer
metrics (see ``tracing.py``).  Span times leave out the reference task
but are not scaled; ``trace.overhead_s`` and ``q.*_s`` are scaled.  The
lines before the object are a human-readable report: every metric with
its unit, the failed fraction with the attempted, failed and refused
counts, per-query times on ``search``, and the environment.  A run record, and in traced runs every
span, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 9
WORKLOADS = ("verify", "search", "analyze", "cli")
# Workloads whose untraced operations run in child processes.
CHILD_WORKLOADS = ("verify", "cli")

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import weightmagic.cli
t1 = time.perf_counter()
from weightmagic.catalog import load_catalog
load_catalog()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, weightmagic.cli.__file__]))
"""


@dataclass
class Measurement:
    """Timings and verdicts of the passes made in one measuring loop.

    ``passes`` and ``times`` are scaled to the reference speed (see
    ``speed.py``); ``unscaled`` holds each pass's own measured time.
    """

    passes: list[float] = field(default_factory=list)
    unscaled: list[float] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    steps: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def wall_s(self):
        return statistics.median(self.passes)

    @property
    def latencies(self):
        """Each operation's median latency over the run's passes."""
        return [statistics.median(t) for t in self.times.values()]


def measure(make_ops, seconds, tracer=None, sampler=speed.UNSCALED):
    """Run whole passes within ``seconds`` (at least one).

    A pass starts only if a pass as slow as the slowest so far would end
    in time, so a run lasts about ``seconds`` whatever the pass length.
    Operation times are scaled with ``sampler`` once the passes are done,
    so that every interval has the speed samples taken after it too.
    """
    m = Measurement()
    timed = []  # (pass, label, start, end) on the sampler's clock
    began = perf_counter()
    longest = 0.0
    while not m.unscaled or perf_counter() - began + longest <= seconds:
        started = perf_counter()
        pass_s = 0.0
        for op in make_ops(len(m.unscaled)):
            t0 = sampler.clock()
            try:
                out = op.call()
            except Exception as exc:  # the check reports it as a failure
                out = exc
            t1 = sampler.clock()
            pass_s += t1 - t0
            timed.append((len(m.unscaled), op.label, t0, t1))
            verdict = op.check(out)
            m.attempted += 1
            m.failed += verdict.status == "failed"
            m.refused += verdict.status == "refused"
            m.wrong += verdict.wrong
            if len(m.problems) < 20:
                m.problems.extend(verdict.problems[:20 - len(m.problems)])
            for step, status in verdict.steps.items():
                layer = step.split("#")[0]
                m.steps[layer, status] = m.steps.get((layer, status), 0) + 1
                if tracer is not None:
                    tracer.judge(layer, status)
        m.unscaled.append(pass_s)
        longest = max(longest, perf_counter() - started)
    m.passes = [0.0] * len(m.unscaled)
    for n, label, t0, t1 in timed:
        dt = (t1 - t0) * sampler.scale(t0, t1)
        m.passes[n] += dt
        m.times.setdefault(label, []).append(dt)
    return m


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 20."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, 49, -1):
        k = math.ceil(p * n / 100)
        if n - k >= 10:
            return p, s[k - 1]
    return 100, s[-1]


def measure_setup(program, sampler):
    """Median import and load_catalog times over fresh interpreters,
    scaled to the reference speed.

    The first interpreter only warms the bytecode cache and is not counted.
    """
    runs = []
    for _ in range(SETUP_RUNS + 1):
        t0 = sampler.clock()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=program.child_env, capture_output=True,
                              text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        scale = sampler.scale(t0, sampler.clock())
        import_s, load_s, where = json.loads(done.stdout)
        if not where.startswith(str(ROOT / "src")):
            raise RuntimeError(f"child imported weightmagic from {where}")
        runs.append((import_s * scale, load_s * scale))
    runs = runs[1:]
    return (statistics.median(i + l for i, l in runs),
            statistics.median(i for i, _ in runs))


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def load(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def make_workload(name, program, seed, in_process):
    """(function from pass number to its operations, report lines)."""
    def rng(i):
        return random.Random(f"{seed}:{i}")

    if name == "verify":
        return lambda i: workloads.verify_ops(program, in_process), []
    if name == "cli":
        return lambda i: workloads.cli_ops(program, rng(i), in_process), []
    if name == "search":
        queries = load("search.json")["queries"]
        return (lambda i: workloads.search_ops(program, rng(i), queries),
                [f"input  {q['name']}: {q['wa']} x {q['wb']} filter={q['filter']}"
                 f" strong={q['strong']}: {len(q['results'])} results"
                 for q in queries])
    data = load("analyze.json")
    universe = data["universe"]
    pool = workloads.analyze_pool(universe, seed)
    if seed == data["default_seed"] and pool != data["default_pool"]:
        raise RuntimeError("the analyze pool for the default seed differs "
                           "from the frozen one in data/analyze.json")
    repeats = 1 - len({universe[i]["wa"] for i in pool}) / len(pool)
    defects = sum(universe[i]["defect"] for i in pool)
    lines = [f"input  pool of {len(pool)} squares: "
             f"{sum(universe[i]['source'].startswith('catalog') for i in pool)}"
             f" from the catalog, the rest from self-searches of "
             f"{', '.join(data['systems'])}",
             f"input  wa repeats for {repeats:.4f} of the squares; {defects} "
             f"have det C != 0 and singular C - 1"]
    return (lambda i: workloads.analyze_ops(program, rng(i), universe, pool),
            lines)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(m, setup_s, in_process, workload):
    """The end-to-end metrics and their report lines."""
    latencies = m.latencies
    pct, tail_s = tail(latencies)
    values = {"setup_s": (setup_s, "s"), "wall_s": (m.wall_s, "s"),
              "peak_rss_mb": (peak_rss_mb(not in_process), "MB"),
              "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
              "op_tail_ms": (tail_s * 1000, "ms")}
    lines = [f"metric {k} {v:.6g} {unit}" for k, (v, unit) in values.items()]
    lines[-1] += f"  (p{pct} of {len(latencies)} operations)"
    lines.append(f"metric failed_frac {m.failed / m.attempted:.6g}  "
                 f"(attempted {m.attempted}, failed {m.failed}, "
                 f"refused {m.refused})")
    if workload == "search":
        lines += [f"metric q.{q}_s {statistics.median(m.times[q]):.6g} s"
                  for q in tracing.QUERIES]
    metrics = {k: {"value": v, "unit": unit}
               for k, (v, unit) in values.items()}
    return metrics, lines


def per_layer(m, traced, tracer, setup_s, import_s, workload):
    """The per-layer metrics of a traced run and their report lines."""
    extra = {"trace.overhead_s": traced.wall_s - m.wall_s,
             "cli.import_s": import_s}
    if workload == "search":
        for q in tracing.QUERIES:
            extra[f"q.{q}_s"] = statistics.median(m.times[q])
    values = tracer.metrics(extra)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in tracing.metric_names()}
    _, self_s, _ = tracer.totals()
    top = sorted(((s, n) for n, s in self_s.items()
                  if not n.startswith("verify.c")), reverse=True)[:6]
    lines = [f"trace  untraced pass {m.wall_s:.4f} s, traced pass "
             f"{traced.wall_s:.4f} s, {len(tracer.start)} spans",
             "trace  most self time: " + ", ".join(
                 f"{n} {s:.4f} s" for s, n in top),
             f"trace  set-up in a fresh interpreter: import "
             f"{import_s * 1000:.2f} ms of {setup_s * 1000:.2f} ms; "
             f"in-process work per operation "
             f"{m.wall_s / len(m.times) * 1000:.2f} ms"]
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weightmagic" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'weightmagic'}",
              file=sys.stderr)
        return 2
    began = perf_counter()
    speed.pin_to_one_core()
    program = workloads.Program(ROOT)
    in_process = bool(args.trace) or args.workload not in CHILD_WORKLOADS
    make_ops, report = make_workload(args.workload, program, args.seed,
                                     in_process)
    report.insert(0, f"perfbench workload={args.workload} seed={args.seed} "
                     f"trace={args.trace}")
    with speed.Sampler() as sampler:
        setup_s, import_s = measure_setup(program, sampler)
        m = measure(make_ops, args.seconds, sampler=sampler)
        checked = [m]
        if args.trace:
            tracer = tracing.Tracer(program, sampler.clock)
            with tracer:
                traced = measure(make_ops, 0, tracer, sampler)
            checked.append(traced)
    report.append(sampler.summary(m))
    if args.trace:
        metrics, lines = per_layer(m, traced, tracer, setup_s, import_s,
                                   args.workload)
    else:
        metrics, lines = end_to_end(m, setup_s, in_process, args.workload)
    report += lines
    report += [f"steps  {layer} {status} {count}"
               for (layer, status), count in sorted(m.steps.items())
               if status != "ok"]
    report += [f"fail   {p}" for c in checked for p in c.problems][:5]
    env = {"python": sys.version.split()[0], "cpu_count": os.cpu_count(),
           "git_sha": git_sha(), "seed": args.seed,
           "passes": len(m.passes), "operations": m.attempted,
           "setup_runs": SETUP_RUNS, "run_seconds": args.seconds,
           "reference_s": speed.REFERENCE_S,
           "speed_samples": len(sampler.took),
           "measured_s": round(perf_counter() - began, 3)}
    report.append("env    " + json.dumps(env))
    result = {"correct": not any(c.wrong for c in checked),
              "attempted": sum(c.attempted for c in checked),
              "failed": sum(c.failed for c in checked),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "report": report, "result": result,
         "times_s": m.times}) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.tsv.gz")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
