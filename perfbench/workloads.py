"""The benchmark's four workloads and the checks on their outputs.

Every workload is a closed loop driven by one process: the next
operation starts when the previous one returns, and at most one child
process is alive at a time.  A workload is a list of operations for one
pass over its input set; ``Op.call`` is the timed program work and
``Op.check`` judges its output against an answer that does not come from
the code under test.

An operation *fails* when it raises, or answers wrongly, where a
documented answer exists; it is *refused* when it raises the package's
documented domain error where no answer exists.  A wrong answer, or an
exception outside ``WeightMagicError``, also makes the run incorrect.
Raising a documented error where an answer exists is a failure but not a
wrong answer: that is how the known partner-recovery defect shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

DEFAULT_SEED = 0
POOL_SIZE = 1500
SERIES_DEGREE = 12
SUBPROCESS_TIMEOUT_S = 120


@dataclass
class Outcome:
    """The verdict on one operation."""

    status: str = "ok"  # "ok", "refused" or "failed"
    wrong: bool = False
    problems: list[str] = field(default_factory=list)
    steps: dict[str, str] = field(default_factory=dict)

    def fail(self, problem: str, wrong: bool = True) -> None:
        self.status = "failed"
        self.wrong = self.wrong or wrong
        self.problems.append(problem)

    def refuse(self) -> None:
        if self.status == "ok":
            self.status = "refused"


@dataclass
class Op:
    label: str  # names the operation; unique within a pass
    call: Callable[[], object]
    check: Callable[[object], Outcome]


class Program:
    """The package under test: its modules in-process, its CLI as a child.

    ``root`` is the checkout; the package is imported from ``root/src``
    and nowhere else.
    """

    def __init__(self, root):
        self.root = root
        src = str(root / "src")
        if sys.path[0] != src:
            sys.path.insert(0, src)
        import weightmagic
        from weightmagic import (catalog, cli, errors, linalg, magic,
                                 polytope, search, verify, weights, zeta)
        if not weightmagic.__file__.startswith(src):
            raise RuntimeError(f"weightmagic imported from "
                               f"{weightmagic.__file__}, not from {src}")
        self.catalog, self.cli, self.linalg = catalog, cli, linalg
        self.magic, self.polytope, self.search = magic, polytope, search
        self.verify, self.weights, self.zeta = verify, weights, zeta
        self.domain_error = errors.WeightMagicError
        self.child_env = dict(os.environ, PYTHONPATH=src)

    def child(self, argv):
        """Run ``python -m weightmagic argv``; return (code, stdout, stderr)."""
        done = subprocess.run(
            [sys.executable, "-m", "weightmagic", *argv], cwd=self.root,
            env=self.child_env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S)
        return done.returncode, done.stdout, done.stderr

    def run_cli(self, argv):
        """``weightmagic.cli.run`` in-process; stderr is kept too."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = self.cli.run(argv)
        return code, out, err.getvalue()


# ---------------------------------------------------------------------------
# verify: `catalog verify --format json` as a child process

VERIFY_ARGV = ("catalog", "verify", "--format", "json")
CATALOG_SIZE = 120


def check_verify(out) -> Outcome:
    o = Outcome()
    if isinstance(out, Exception):
        o.fail(f"raised {out!r}")
        return o
    code, stdout, _ = out
    if code != 0:
        o.fail(f"exit code {code}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        o.fail("stdout is not one JSON document")
        return o
    if doc.get("passed") is not True:
        o.fail("verification did not pass")
    criteria = doc.get("criteria", [])
    numbers = [c.get("number") for c in criteria]
    if numbers != list(range(1, 11)):
        o.fail(f"criteria numbered {numbers}")
    for c in criteria:
        if c.get("passed") is not True:
            o.fail(f"criterion {c.get('number')} failed: {c.get('detail')}")
    tables = doc.get("tables", {})
    entries = sum(t.get("entries", 0) for t in tables.values())
    ok = sum(t.get("ok", 0) for t in tables.values())
    if entries != CATALOG_SIZE or ok != CATALOG_SIZE:
        o.fail(f"{ok} of {entries} entries ok, expected {CATALOG_SIZE}")
    return o


def verify_ops(program, in_process=False):
    run = program.run_cli if in_process else program.child
    return [Op("catalog-verify", lambda: run(list(VERIFY_ARGV)), check_verify)]


# ---------------------------------------------------------------------------
# search: five pinned queries through weightmagic.cli.run


def search_argv(query):
    argv = ["search", "--wa", query["wa"], "--wb", query["wb"],
            "--format", "json"]
    if query["filter"] != "any":
        argv += ["--filter", {"primitive": "primitive",
                              "almost_primitive": "almost"}[query["filter"]]]
    if query["strong"]:
        argv.append("--strong")
    return argv


def check_search(query, out) -> Outcome:
    """Compare with the frozen brute-force reference and re-check squares."""
    o = Outcome()
    if isinstance(out, Exception):
        o.fail(f"raised {out!r}")
        return o
    code, stdout, _ = out
    if code != 0:
        o.fail(f"exit code {code}")
        return o
    try:
        doc = json.loads(stdout)
        got = [tuple(tuple(r) for r in m["matrix"]) for m in doc["results"]]
    except (ValueError, KeyError, TypeError) as exc:
        o.fail(f"unreadable output: {exc!r}")
        return o
    want = [tuple(tuple(r) for r in m) for m in query["results"]]
    if got != want:
        got_sets = {tuple(sorted(m)) for m in got}
        want_sets = {tuple(sorted(m)) for m in want}
        o.fail(f"{query['name']}: {len(want_sets - got_sets)} missing, "
               f"{len(got_sets - want_sets)} extra multisets, "
               f"{len(got)} results for {len(want)} expected")
    if doc.get("count") != len(got):
        o.fail(f"count {doc.get('count')} for {len(got)} results")
    wa, wb = oracle.parse_system(query["wa"]), oracle.parse_system(query["wb"])
    for m, record in zip(got, doc["results"]):
        if not oracle.couples(m, wa, wb):
            o.fail(f"returned square {m} does not couple the pair")
        elif (record.get("determinant") != oracle.det(m)
              or record.get("classification") != oracle.classification(m, wa, wb)
              or record.get("strong") != oracle.is_strong(m)):
            o.fail(f"wrong determinant or classification for {m}")
    return o


def search_ops(program, rng, references):
    queries = list(references)
    rng.shuffle(queries)
    return [Op(q["name"], lambda q=q: program.run_cli(search_argv(q)),
               lambda out, q=q: check_search(q, out)) for q in queries]


# ---------------------------------------------------------------------------
# analyze: one square at a time through the analysis chain


def analyze_pool(universe, seed):
    """Universe indices of the pool for ``seed``, in processing order.

    Every catalog square and every partner-recovery defect is always in
    the pool, so the defect cannot be sampled away.  The seed draws the
    other searched squares that fill the pool to POOL_SIZE, a fixed number
    from each searched system, so that every seed gets the same mix.
    """
    must, strata = [], {}
    for i, item in enumerate(universe):
        if item["defect"] or item["source"].startswith("catalog"):
            must.append(i)
        else:
            strata.setdefault(item["source"], []).append(i)
    room = POOL_SIZE - len(must)
    total = sum(len(members) for members in strata.values())
    quota = {s: room * len(m) // total for s, m in strata.items()}
    by_remainder = sorted(strata, key=lambda s: -(room * len(strata[s]) % total))
    for s in by_remainder[:room - sum(quota.values())]:
        quota[s] += 1
    rng = random.Random(seed)
    pool = must + [i for s in sorted(strata)
                   for i in rng.sample(strata[s], quota[s])]
    rng.shuffle(pool)
    return pool


def analyze_square(program, item):
    """Run one square through the chain; return each step's value or error.

    Steps whose input could not be built are left out of the record.
    """
    m, z, p = program.magic, program.zeta, program.polytope
    record = {}

    def step(name, fn, *args):
        try:
            record[name] = fn(*args)
        except Exception as exc:  # judged by check_analyze
            record[name] = exc
            return None
        return record[name]

    wa = step("weights.parse_weight_system", program.weights.parse_weight_system,
              item["wa"])
    wb = step("weights.parse_weight_system#wb",
              program.weights.parse_weight_system, item["wb"])
    if wa is None or wb is None:
        return record
    entries = step("magic.parse_matrix", m.parse_matrix, item["monomials"], wa.n)
    if entries is None:
        return record
    ms = step("magic.validate", m.validate, entries, wa, wb)
    if ms is None:
        return record
    step("magic.classify", m.classify, ms)
    step("magic.recover_partner", m.recover_partner, entries, wa)
    zeta_fn = step("zeta.reduced_zeta", z.reduced_zeta, ms)
    if zeta_fn is not None:
        step("zeta.saito_dual", z.saito_dual, zeta_fn, wa.degree)
    step("zeta.lattice_invariants", z.lattice_invariants, ms)
    step("magic.inverse_data", m.inverse_data, ms)
    step("polytope.verify_duality_identity", p.verify_duality_identity, ms)
    diagram = step("polytope.extended_diagram", p.extended_diagram, wa)
    if diagram is not None:
        step("polytope.polar_dual", p.polar_dual, diagram)
    if zeta_fn is not None:
        step("zeta.expand_series", z.expand_series, zeta_fn, SERIES_DEGREE)
    return record


class _Judge:
    """Per-step verdicts for one analyzed square."""

    def __init__(self, outcome, record, domain_error):
        self.o, self.record, self.domain_error = outcome, record, domain_error

    def value(self, name, answer_exists=True):
        """The step's value, or None after recording why there is none."""
        if name not in self.record:
            return None
        v = self.record[name]
        if not isinstance(v, Exception):
            self.o.steps[name] = "ok"
            return v
        documented = isinstance(v, self.domain_error)
        if documented and not answer_exists:
            self.o.steps[name] = "refused"
            self.o.refuse()
        else:
            self.o.steps[name] = "failed"
            self.o.fail(f"{name} raised {v!r}", wrong=not documented)
        return None

    def expect(self, name, ok, problem):
        if not ok:
            self.o.steps[name] = "failed"
            self.o.fail(f"{name}: {problem}")

    def expect_refusal(self, name, why):
        v = self.record.get(name)
        if name in self.record and not isinstance(v, self.domain_error):
            self.o.steps[name] = "failed"
            self.o.fail(f"{name} answered {v!r} although {why}")
        elif name in self.record:
            self.o.steps[name] = "refused"
            self.o.refuse()


def _system(w):
    return tuple(w.weights), w.degree


def check_analyze(item, record, domain_error) -> Outcome:
    o = Outcome()
    j = _Judge(o, record, domain_error)
    wa_t, wb_t = oracle.parse_system(item["wa"]), oracle.parse_system(item["wb"])
    entries = tuple(tuple(r) for r in item["entries"])
    n, h = len(wa_t[0]), wa_t[1]

    wa = j.value("weights.parse_weight_system")
    wb = j.value("weights.parse_weight_system#wb")
    for name, w, want in (("weights.parse_weight_system", wa, wa_t),
                          ("weights.parse_weight_system#wb", wb, wb_t)):
        if w is not None:
            j.expect(name, _system(w) == want, f"read {w} for {want}")
    parsed = j.value("magic.parse_matrix")
    if parsed is not None:
        j.expect("magic.parse_matrix", tuple(map(tuple, parsed)) == entries,
                 f"read {parsed} for {entries}")
    ms = j.value("magic.validate")
    if ms is not None:
        j.expect("magic.validate", ms.entries == entries, "entries changed")
    report = j.value("magic.classify")
    if report is not None:
        label = oracle.classification(entries, wa_t, wb_t)
        j.expect("magic.classify",
                 report.determinant == item["det"]
                 and report.classification == label
                 and report.strong == oracle.is_strong(entries),
                 f"classified {report}")

    # det C != 0 fixes the partner; the pool knows it.
    partner_known = item["det"] != 0
    partner = j.value("magic.recover_partner", answer_exists=partner_known)
    if partner is not None:
        got = _system(partner.wb)
        ok = (oracle.reduced(*got) == oracle.reduced(*wb_t) if partner_known
              else oracle.couples(entries, wa_t, got))
        j.expect("magic.recover_partner", ok, f"recovered {partner.wb}")

    zeta_fn = j.value("zeta.reduced_zeta", answer_exists=False)
    inv = j.value("zeta.lattice_invariants", answer_exists=False)
    if zeta_fn is not None:
        factors = zeta_fn.factors
        dual = j.value("zeta.saito_dual",
                       answer_exists=oracle.saito_dual(factors, h) is not None)
        if dual is not None:
            j.expect("zeta.saito_dual",
                     dual.factors == oracle.saito_dual(factors, h),
                     f"dual {dual.factors} of {factors}")
        coeffs = j.value("zeta.expand_series")
        if coeffs is not None:
            j.expect("zeta.expand_series",
                     coeffs == oracle.series(factors, SERIES_DEGREE),
                     f"series {coeffs} of {factors}")
        if inv is not None:
            sign = (-1) ** (n - 1)
            j.expect("zeta.lattice_invariants",
                     sum(l * a for l, a in factors) == sign * inv.mu
                     and sum(a for _, a in factors) == sign * inv.mu0,
                     f"degree identity fails: {factors} with {inv}")
    if inv is not None and inv.rho is not None:
        j.expect("zeta.lattice_invariants", inv.rho == 22 - (inv.mu - inv.mu0),
                 f"rho {inv.rho}")

    singular = oracle.det(oracle.minus_one(entries)) == 0
    if singular:
        j.expect_refusal("magic.inverse_data", "C - 1 is singular")
        j.expect_refusal("polytope.verify_duality_identity", "C - 1 is singular")
    else:
        data = j.value("magic.inverse_data")
        if data is not None:
            b = oracle.minus_one(entries)
            product = tuple(tuple(sum(data.a[i][k] * b[k][c] for k in range(n))
                                  for c in range(n)) for i in range(n))
            unit = tuple(tuple(Fraction(int(i == c)) for c in range(n))
                         for i in range(n))
            j.expect("magic.inverse_data",
                     product == unit
                     and _system(data.recovered_wa) == oracle.reduced(*wa_t)
                     and _system(data.recovered_wb) == oracle.reduced(*wb_t),
                     "wrong inverse or recovered systems")
        identity = j.value("polytope.verify_duality_identity")
        if identity is not None:
            j.expect("polytope.verify_duality_identity", identity is True,
                     f"returned {identity!r}")

    a0 = h - sum(wa_t[0])
    if a0 == 0:
        j.expect_refusal("polytope.extended_diagram", "the virtual weight is 0")
        return o
    j.value("polytope.extended_diagram")
    if a0 < 0:
        j.expect_refusal("polytope.polar_dual", "the origin is outside")
        return o
    polar = j.value("polytope.polar_dual")
    if polar is not None:
        j.expect("polytope.polar_dual",
                 polar.vertices == oracle.closed_form_dual(*wa_t),
                 f"dual {polar} is not the closed form")
    return o


def analyze_ops(program, rng, universe, pool):
    order = list(pool)
    rng.shuffle(order)
    return [Op(str(i), lambda item=universe[i]: analyze_square(program, item),
               lambda rec, item=universe[i]: check_analyze(
                   item, rec, program.domain_error))
            for i in order]


# ---------------------------------------------------------------------------
# cli: short verbs as child processes, checked against the README

_ZETA = "(1-t^2)(1-t^10)^2 / (1-t)"


def _zeta_extra(lines):
    """Saito dual and series of the README's zeta, computed by the oracle."""
    problems = []
    factors = oracle.parse_product(_ZETA)
    try:
        dual = next(l for l in lines if l.startswith("saito dual: "))
        series = next(l for l in lines if l.startswith("series: "))
        if oracle.parse_product(dual[len("saito dual: "):]) != \
                oracle.saito_dual(factors, 10):
            problems.append(f"wrong {dual!r}")
        if json.loads(series[len("series: "):]) != oracle.series(factors, 12):
            problems.append(f"wrong {series!r}")
    except (StopIteration, ValueError) as exc:
        problems.append(f"unreadable zeta output: {exc!r}")
    return problems


def _polar_line():
    vertices = oracle.closed_form_dual((6, 14, 21), 42)
    return "polar dual: {" + ", ".join(
        "(" + ", ".join(str(x) for x in v) + ")" for v in vertices) + "}"


def _catalog_list_extra(lines):
    return [] if len(lines) == CATALOG_SIZE else [f"{len(lines)} catalog lines"]


# label, argv, exit code, lines that must appear, extra check on all lines.
# Expected lines come from the README's usage section, or are derived by
# hand from the definitions there.
CLI_CASES = (
    ("reduce", ["reduce", "--wa", "28,12,42;84"], 0,
     ["reduced:        6,14,21;42", "virtual weight: 1",
      "calabi-yau:     yes"], None),
    ("check", ["check", "--wa", "1,3,5;10", "--matrix", "x^5z, xy^3, z^2"], 0,
     ["column weights: 4,10,13;30 (recovered)", "determinant:    30",
      "classification: almost_primitive", "strong:         yes"], None),
    ("check-wb", ["check", "--wa", "1,3,5;10", "--wb", "4,10,13;30",
                  "--matrix", "x^5z, xy^3, z^2"], 0,
     ["column weights: 4,10,13;30", "classification: almost_primitive",
      "strong:         yes"], None),
    ("zeta", ["zeta", "--wa", "1,3,5;10", "--matrix", "x^5z, xy^3, z^2",
              "--saito-dual", "--expand", "12"], 0,
     [f"zeta: {_ZETA}"], _zeta_extra),
    ("invariants", ["invariants", "--wa", "4,10,13;30", "--wb", "1,3,5;10",
                    "--matrix", "x^5y, y^3, xz^2"], 0,
     ["mu:  17", "mu0: 0", "rho: 5", "zeta value at 1: 6",
      "discriminant: 6"], None),
    ("polar", ["polar", "--wa", "6,14,21;42"], 0,
     [_polar_line(), "closed form matches: yes"], None),
    ("catalog-list", ["catalog", "list"], 0,
     [], _catalog_list_extra),
    ("catalog-show", ["catalog", "show", "E_12"], 0,
     ["  weights:         6,14,21;42  (virtual weight 1)",
      "  classification:  primitive, strong", "  verified:        yes"], None),
    ("search", ["search", "--wa", "6,14,21;42"], 0,
     ["1 square(s) coupling 6,14,21;42 and 6,14,21;42",
      "  1. x^7, y^3, z^2   [primitive, strong]"], None),
    ("malformed", ["reduce", "--wa", "1,2;x"], 2, [], None),
)


def check_cli(case, out) -> Outcome:
    label, _, code_want, lines_want, extra = case
    o = Outcome()
    if isinstance(out, Exception):
        o.fail(f"{label} raised {out!r}")
        return o
    code, stdout, stderr = out
    if code != code_want:
        o.fail(f"{label}: exit code {code}, expected {code_want}")
    lines = stdout.splitlines()
    for want in lines_want:
        if want not in lines:
            o.fail(f"{label}: missing line {want!r}")
    if extra is not None:
        for problem in extra(lines):
            o.fail(f"{label}: {problem}")
    if code_want == 2 and (stdout or not stderr.startswith("error: ")):
        o.fail(f"{label}: expected only a diagnostic on stderr")
    return o


def cli_ops(program, rng, in_process=False):
    run = program.run_cli if in_process else program.child
    cases = list(CLI_CASES)
    rng.shuffle(cases)
    return [Op(c[0], lambda c=c: run(list(c[1])),
               lambda out, c=c: check_cli(c, out)) for c in cases]
