"""Verification harness: recompute every embedded claim from first principles.

Each criterion function re-derives one family of catalog claims (validity,
classification, strongness, lattice invariants, duality of zeta functions,
polytope duality, search completeness, algebraic identities) and reports a
single pass/fail result.  :func:`run_all` executes all ten in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import magic, polytope, search, zeta
from .catalog import Catalog, CatalogEntry, fuchsian_report, load_catalog
from .magic import MagicSquare
from .weights import WeightSystem, reduce_system

#: Names of the rows whose matrices are *not* strong, although the tables
#: present them as strongly dual pairs; frozen by direct inspection.
EXPECTED_NOT_STRONG = (
    "K'_10/L_10",
    "K'_11/L_11",
    "L_1,0/K'_1,0",
    "M_1,0",
    "M_11",
    "S_1,0",
    "U_1,0",
    "W_1,0",
)

#: Absolute partner-lattice discriminants in Fuchsian-table row order.
EXPECTED_PARTNER_DISCRIMINANTS = (6, 12, 25, 10, 10, 6, 14, 12)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2}: {self.title}: {status} [{self.detail}]"


class _Context:
    """Shared per-run caches: parsed squares and search results."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.squares: dict[CatalogEntry, MagicSquare] = {}
        self._searches: dict[tuple[WeightSystem, WeightSystem],
                             tuple[MagicSquare, ...]] = {}

    def square(self, entry: CatalogEntry) -> MagicSquare:
        if entry not in self.squares:
            self.squares[entry] = entry.square()
        return self.squares[entry]

    def search(self, wa: WeightSystem,
               wb: WeightSystem) -> tuple[MagicSquare, ...]:
        key = (wa, wb)
        if key not in self._searches:
            self._searches[key] = tuple(
                search.find_magic_squares(search.SearchQuery(wa, wb)))
        return self._searches[key]


def _positive(entry: CatalogEntry) -> bool:
    return (0 not in entry.weights.weights
            and 0 not in entry.partner_weights.weights)


def check_table_fidelity(ctx: _Context) -> CriterionResult:
    """Every stored matrix satisfies both weighted sum relations exactly."""
    failures = []
    for entry in ctx.catalog:
        try:
            ctx.square(entry)
        except Exception as exc:
            failures.append(f"{entry.label}: {exc}")
    return CriterionResult(
        1, "table fidelity", not failures,
        f"{len(ctx.catalog)} matrices validated" if not failures
        else "; ".join(failures))


def check_classification(ctx: _Context) -> CriterionResult:
    """Determinant equalities: |det C| = h*b0 = k*a0 (and = h = k where due)."""
    failures = []
    unimodular = 0
    for entry in ctx.catalog:
        square = ctx.square(entry)
        det = abs(magic.classify(square).determinant)
        a0, b0 = entry.weights.a0, entry.partner_weights.a0
        h, k = entry.weights.degree, entry.partner_weights.degree
        if entry.table in ("T2", "T3", "Fuchs"):
            if not (det == h * b0 == k * a0):
                failures.append(f"{entry.label}: |det| = {det}")
            if entry.table == "T2" and a0 == 1 and b0 == 1:
                unimodular += 1
                if not (det == h == k):
                    failures.append(f"{entry.label}: |det| = {det}")
        elif not (det == h == k):
            failures.append(f"{entry.label}: |det| = {det}")
    if unimodular != 14:
        failures.append(f"expected 14 unimodular-virtual-weight T2 rows, "
                        f"found {unimodular}")
    return CriterionResult(
        2, "classification", not failures,
        f"{len(ctx.catalog)} determinants checked, {unimodular} unimodular rows"
        if not failures else "; ".join(failures))


def check_strong_coupling(ctx: _Context) -> CriterionResult:
    """T2/T3 squares all strong; the failing T4 set is exactly as frozen."""
    failures = []
    not_strong = []
    for entry in ctx.catalog:
        strong = magic.classify(ctx.square(entry)).strong
        if entry.table in ("T2", "T3", "Fuchs") and not strong:
            failures.append(f"{entry.label} is not strong")
        if entry.table == "T4" and not strong:
            not_strong.append(entry.name)
    if tuple(sorted(not_strong)) != EXPECTED_NOT_STRONG:
        failures.append(f"T4 non-strong set {sorted(not_strong)}")
    return CriterionResult(
        3, "strong coupling", not failures,
        f"{len(not_strong)} known T4 exceptions" if not failures
        else "; ".join(failures))


def check_fuchsian_table(ctx: _Context) -> CriterionResult:
    """All 8 rows reproduce (mu, mu0, rho), starred values, nu*, |d*|."""
    rows = fuchsian_report(ctx.catalog)
    failures = [f"{row.label}: {row.errors or 'mismatch'}"
                for row in rows if not row.matches]
    values = tuple(row.d_star_abs for row in rows)
    if values != EXPECTED_PARTNER_DISCRIMINANTS:
        failures.append(f"partner discriminants {values}")
    return CriterionResult(
        4, "Fuchsian table reproduction", not failures,
        f"{len(rows)} rows reproduced" if not failures
        else "; ".join(failures))


def check_zeta_duality(ctx: _Context) -> CriterionResult:
    """Transposing a unimodular primitive square Saito-dualizes its zeta."""
    failures = []
    applicable = 0
    for entry in ctx.catalog:
        if not _positive(entry) or entry.weights.n != 3:
            continue
        square = ctx.square(entry)
        if (magic.classify(square).classification != magic.PRIMITIVE
                or entry.weights.a0 != 1 or entry.partner_weights.a0 != 1):
            continue
        applicable += 1
        z = zeta.reduced_zeta(square)
        dual = zeta.saito_dual(z, entry.weights.degree)
        if zeta.reduced_zeta(magic.transpose(square)) != dual:
            failures.append(entry.label)
    return CriterionResult(
        5, "zeta duality for unimodular primitive squares", not failures,
        f"{applicable} squares checked" if not failures
        else "; ".join(failures))


def check_elliptic_polynomials(ctx: _Context) -> CriterionResult:
    """n=2 rows: char. polynomial is anti-self-dual; pinned expansion."""
    failures = []
    expansion = None
    for entry in ctx.catalog.table("T1"):
        square = ctx.square(entry)
        phi = zeta.characteristic_polynomial(square)
        h = entry.weights.degree
        if zeta.saito_dual(phi, h) != phi.inverse():
            failures.append(f"{entry.label}: dual is not the inverse")
        if entry.weights == WeightSystem((2, 3), 6):
            expansion = zeta.expand_series(phi, 2)
    if expansion != [1, -1, 1]:
        failures.append(f"expansion {expansion}")
    return CriterionResult(
        6, "elliptic characteristic polynomials", not failures,
        "3 squares, pinned expansion [1, -1, 1]" if not failures
        else "; ".join(failures))


def check_geometric_identities(ctx: _Context) -> CriterionResult:
    """Inverse-product identity per square; closed-form polar duals."""
    failures = []
    for entry in ctx.catalog:
        if not polytope.verify_duality_identity(ctx.square(entry)):
            failures.append(f"{entry.label}: inverse-product identity")
    systems = set()
    for entry in ctx.catalog:
        for system in (entry.weights, entry.partner_weights):
            if 0 not in system.weights:
                systems.add(system)
    for system in systems:
        dual = polytope.polar_dual(polytope.extended_diagram(system))
        if polytope.closed_form_dual(system) != dual:
            failures.append(f"closed-form dual of ({system})")
    return CriterionResult(
        7, "inverse-product identity and polar duals", not failures,
        f"{len(ctx.catalog)} squares, {len(systems)} dual simplices"
        if not failures else "; ".join(failures))


def _reduced_pairs(max_degree: int):
    """All reduced ascending n=2 weight systems with degree <= max_degree."""
    systems = []
    from math import gcd
    for h in range(1, max_degree + 1):
        for a1 in range(1, h + 1):
            for a2 in range(a1, h + 1):
                if gcd(gcd(a1, a2), h) == 1:
                    systems.append(WeightSystem((a1, a2), h))
    return systems


def _brute_force_rows(wa: WeightSystem):
    """Scan all n=2 rows with entries <= degree for the row relation;
    independent of the search module's enumeration."""
    (a1, a2), h = wa.weights, wa.degree
    return [(e1, e2)
            for e1 in range(h + 1) for e2 in range(h + 1)
            if a1 * e1 + a2 * e2 == h]


def _brute_force_squares(rows, wb: WeightSystem):
    """Check every pair of the given rows against the column relation.

    Returns the set of row multisets and, per multiset, every valid
    arrangement; independent of the search module's enumeration order.
    """
    (b1, b2), k = wb.weights, wb.degree
    arrangements: dict[tuple, set[tuple]] = {}
    for r1, r2 in product(rows, repeat=2):
        if (b1 * r1[0] + b2 * r2[0] == k
                and b1 * r1[1] + b2 * r2[1] == k):
            key = tuple(sorted((r1, r2)))
            arrangements.setdefault(key, set()).add((r1, r2))
    return arrangements


def check_search(ctx: _Context, brute_degree_bound: int = 12
                 ) -> CriterionResult:
    """Pinned searches, catalog completeness, and n=2 brute-force parity."""
    failures = []

    w6 = WeightSystem((2, 3), 6)
    pinned = search.find_magic_squares(
        search.SearchQuery(w6, w6, filter="primitive", strong_only=True))
    if [m.entries for m in pinned] != [((3, 0), (0, 2))]:
        failures.append(f"(2,3;6) self-search returned {pinned}")
    w42 = WeightSystem((6, 14, 21), 42)
    pinned = search.find_magic_squares(search.SearchQuery(w42, w42))
    if [m.entries for m in pinned] != [((7, 0, 0), (0, 3, 0), (0, 0, 2))]:
        failures.append(f"(6,14,21;42) self-search returned {pinned}")

    for entry in ctx.catalog:
        if not _positive(entry):
            continue
        square = ctx.square(entry)
        found = ctx.search(entry.weights, entry.partner_weights)
        if not any(sorted(m.entries) == sorted(square.entries)
                   for m in found):
            failures.append(f"{entry.label} not rediscovered")

    checked_pairs = 0
    systems = _reduced_pairs(brute_degree_bound)
    for wa in systems:
        rows = _brute_force_rows(wa)
        for wb in systems:
            brute = _brute_force_squares(rows, wb)
            found = search.find_magic_squares(search.SearchQuery(wa, wb))
            checked_pairs += 1
            if {tuple(sorted(m.entries)) for m in found} != set(brute):
                failures.append(f"brute-force mismatch for {wa} x {wb}")
                continue
            for m in found:
                key = tuple(sorted(m.entries))
                if m.entries != max(brute[key]):
                    failures.append(
                        f"non-canonical arrangement for {wa} x {wb}")
            strong = search.find_magic_squares(
                search.SearchQuery(wa, wb, strong_only=True))
            brute_strong = {
                key for key, arrs in brute.items()
                if any(all(0 in row for row in arr)
                       and all(0 in col for col in zip(*arr))
                       for arr in arrs)}
            if {tuple(sorted(m.entries)) for m in strong} != brute_strong:
                failures.append(f"strong-filter mismatch for {wa} x {wb}")
    return CriterionResult(
        8, "search completeness", not failures,
        f"catalog rediscovered, {checked_pairs} brute-forced pairs"
        if not failures else "; ".join(failures[:4]))


def check_algebraic_properties(ctx: _Context) -> CriterionResult:
    """Deterministic sweep of the structural identities over all squares."""
    failures = []
    squares: list[tuple[str, MagicSquare]] = []
    for entry in ctx.catalog:
        if _positive(entry):
            squares.append((entry.label, ctx.square(entry)))
    w6 = WeightSystem((2, 3), 6)
    for m in search.find_magic_squares(search.SearchQuery(w6, w6)):
        squares.append((f"search {m.entries}", m))

    for label, square in squares:
        h = square.wa.degree
        n = square.n
        sign = (-1) ** (n - 1)
        z = zeta.reduced_zeta(square)
        if zeta.saito_dual(zeta.saito_dual(z, h), h) != z:
            failures.append(f"{label}: dual is not an involution")
        inv = zeta.lattice_invariants(square)
        if z.degree != sign * inv.mu or z.exponent_sum != sign * inv.mu0:
            failures.append(f"{label}: degree or exponent-sum identity")
        if z.exponent_sum == 0:
            value, _ = zeta.evaluate_at_one(z)
            dual_value, _ = zeta.evaluate_at_one(zeta.saito_dual(z, h))
            if value != dual_value:
                failures.append(f"{label}: value at 1 not self-dual")
        if magic.transpose(magic.transpose(square)) != square:
            failures.append(f"{label}: transpose not an involution")
        data = magic.inverse_data(square)
        if (data.recovered_wa != reduce_system(square.wa).system
                or data.recovered_wb != reduce_system(square.wb).system):
            failures.append(f"{label}: weight recovery round-trip")
        full = frozenset(range(1, n + 1))
        transposed = {frozenset(r.j): frozenset(r.i)
                      for r in zeta.special_subsets(magic.transpose(square))}
        for report in zeta.special_subsets(square):
            complement = full - set(report.i)
            if transposed.get(frozenset(complement)) != full - set(report.j):
                failures.append(f"{label}: subset duality for J={report.j}")
    return CriterionResult(
        9, "algebraic property sweep", not failures,
        f"{len(squares)} squares swept" if not failures
        else "; ".join(failures[:4]))


def check_exponent_range(ctx: _Context) -> CriterionResult:
    """T4 zeta exponents all lie in {-1, 0, 1}."""
    failures = []
    count = 0
    for entry in ctx.catalog.table("T4"):
        if not _positive(entry):
            continue
        count += 1
        z = zeta.reduced_zeta(ctx.square(entry))
        bad = [(order, a) for order, a in z.factors if a not in (-1, 0, 1)]
        if bad:
            failures.append(f"{entry.label}: {bad}")
    return CriterionResult(
        10, "exponent range of quadrilateral-table zetas", not failures,
        f"{count} zeta functions checked" if not failures
        else "; ".join(failures))


_CHECKS = (
    check_table_fidelity,
    check_classification,
    check_strong_coupling,
    check_fuchsian_table,
    check_zeta_duality,
    check_elliptic_polynomials,
    check_geometric_identities,
    check_search,
    check_algebraic_properties,
    check_exponent_range,
)


def run_all(catalog: Catalog | None = None) -> tuple[CriterionResult, ...]:
    """Run all ten verification criteria against the catalog."""
    ctx = _Context(catalog if catalog is not None else load_catalog())
    return tuple(check(ctx) for check in _CHECKS)
