"""Verification harness: recompute every embedded claim from first principles.

Each criterion function checks one family of catalog claims (validity,
classification, strongness, lattice invariants, duality of zeta functions,
polytope duality, search completeness, algebraic identities) and returns
its title, its failures and its detail.  :func:`run_all` alone turns those
into results: it runs the ten in order, numbers each by its position and
passes it when it found no failures.

What one entry must satisfy is decided by :func:`catalog.verify_entry`
alone, every stored Fuchsian column included.  A run computes its report
once per entry and passes the reports to each criterion: criteria 2, 3,
5, 7 (the inverse-product identity) and 10 count them, criterion 4 reads
their Fuchsian rows, criterion 1 recomputes the weighted sums of each
entry's square and criteria 6, 8 and 9 read the squares.  The checks that
span entries live here: the 14 unimodular ``T2`` rows, the frozen
non-strong ``T4`` set, the Fuchsian partner discriminants, polar duals,
search, the property sweep and the elliptic polynomials.  The search
check's n=2 sweep compares two searches of each ordered pair of 287
systems with an oracle table built once per run, which tests each row
pair once against an index of the systems that hold its columns.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd

from . import magic, polytope, search, zeta
from .catalog import Catalog, VerificationReport, verify_entry
from .magic import MagicSquare
from .weights import WeightSystem, _Value, reduce_system

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

#: Degree bound of criterion 8's brute-force comparison over the n=2
#: weight systems of ``_n2_systems``.
BRUTE_DEGREE_BOUND = 12

#: Absolute partner-lattice discriminants in Fuchsian-table row order.
EXPECTED_PARTNER_DISCRIMINANTS = (6, 12, 25, 10, 10, 6, 14, 12)

#: One report per catalog entry, in catalog order.
Reports = tuple[VerificationReport, ...]
#: What a check returns: its title, its failures and its detail on a pass.
Outcome = tuple[str, list[str], str]


class CriterionResult(_Value):
    _fields = ("number", "title", "passed", "detail")

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2}: {self.title}: {status} [{self.detail}]"


def check_table_fidelity(catalog: Catalog, reports: Reports) -> Outcome:
    """Every stored matrix satisfies both weighted sum relations, recomputed."""
    failures = []
    for e in catalog:
        rows, a, b = e.square.entries, e.weights.weights, e.partner_weights.weights
        sums = (sorted({sum(c * w for c, w in zip(row, a)) for row in rows}),
                sorted({sum(w * c for w, c in zip(b, col)) for col in zip(*rows)}))
        if sums != ([e.weights.degree], [e.partner_weights.degree]):
            failures.append(f"{e.label}: row and column sums {sums}")
    return "table fidelity", failures, f"{len(catalog)} matrices validated"


def check_classification(catalog: Catalog, reports: Reports) -> Outcome:
    """Every entry has its expected classification; 14 unimodular T2 rows.

    |det C| = h*b0 = k*a0 with (a0, b0) != (1, 1) rules out |det C| = h = k,
    so the expected label is the whole determinant claim.
    """
    failures = [f"{r.label}: |det| = {abs(r.determinant)}"
                for r in reports if not r.classification_ok]
    unimodular = sum(1 for e in catalog.table("T2")
                     if e.weights.a0 == 1 and e.partner_weights.a0 == 1)
    if unimodular != 14:
        failures.append(f"expected 14 unimodular-virtual-weight T2 rows, "
                        f"found {unimodular}")
    return ("classification", failures,
            f"{len(catalog)} determinants checked, {unimodular} unimodular rows")


def check_strong_coupling(catalog: Catalog, reports: Reports) -> Outcome:
    """Rows outside T4 have their expected strongness; the failing T4 set
    is exactly as frozen (whatever the entries' flags say)."""
    failures = [f"{r.label} is {'' if r.strong else 'not '}strong"
                for r in reports if r.table != "T4" and not r.strong_ok]
    not_strong = sorted(e.name for e, r in zip(catalog, reports)
                        if e.table == "T4" and not r.strong)
    if tuple(not_strong) != EXPECTED_NOT_STRONG:
        failures.append(f"T4 non-strong set {not_strong}")
    return ("strong coupling", failures,
            f"{len(not_strong)} known T4 exceptions")


def check_fuchsian_table(catalog: Catalog, reports: Reports) -> Outcome:
    """All 8 rows reproduce (mu, mu0, rho), starred values, nu*, |d*|."""
    rows = [r.fuchs for r in reports if r.fuchs is not None]
    failures = [f"{row.label}: {row.errors or 'mismatch'}"
                for row in rows if not row.matches]
    values = tuple(row.d_star_abs for row in rows)
    if values != EXPECTED_PARTNER_DISCRIMINANTS:
        failures.append(f"partner discriminants {values}")
    return ("Fuchsian table reproduction", failures,
            f"{len(rows)} rows reproduced")


def check_zeta_duality(catalog: Catalog, reports: Reports) -> Outcome:
    """Transposing a unimodular primitive square Saito-dualizes its zeta."""
    failures = [r.label for r in reports if not r.zeta_duality_ok]
    applicable = sum(r.zeta_duality_applicable for r in reports)
    return ("zeta duality for unimodular primitive squares", failures,
            f"{applicable} squares checked")


def check_elliptic_polynomials(catalog: Catalog, reports: Reports) -> Outcome:
    """n=2 rows: char. polynomial is anti-self-dual; pinned expansion."""
    failures = []
    expansion = None
    for entry in catalog.table("T1"):
        phi = zeta.characteristic_polynomial(entry.square)
        h = entry.weights.degree
        if zeta.saito_dual(phi, h) != phi.inverse():
            failures.append(f"{entry.label}: dual is not the inverse")
        if entry.weights == WeightSystem((2, 3), 6):
            expansion = zeta.expand_series(phi, 2)
    if expansion != [1, -1, 1]:
        failures.append(f"expansion {expansion}")
    return ("elliptic characteristic polynomials", failures,
            "3 squares, pinned expansion [1, -1, 1]")


def check_geometric_identities(catalog: Catalog, reports: Reports) -> Outcome:
    """Inverse-product identity per square; closed-form polar duals."""
    failures = [f"{r.label}: inverse-product identity"
                for r in reports if not r.inverse_identity_ok]
    systems = set()
    for entry in catalog:
        for system in (entry.weights, entry.partner_weights):
            if 0 not in system.weights:
                systems.add(system)
    for system in systems:
        dual = polytope.polar_dual(polytope.extended_diagram(system))
        if polytope.closed_form_dual(system) != dual:
            failures.append(f"closed-form dual of ({system})")
    return ("inverse-product identity and polar duals", failures,
            f"{len(catalog)} squares, {len(systems)} dual simplices")


def _n2_systems(max_degree: int):
    """All ascending n=2 weight systems (a1 <= a2) with gcd(a1, a2, h) = 1
    and degree h <= max_degree, by degree, then a1, then a2."""
    return [WeightSystem((a1, a2), h)
            for h in range(1, max_degree + 1)
            for a1 in range(1, h + 1)
            for a2 in range(a1, h + 1)
            if gcd(a1, a2, h) == 1]


def _brute_force_rows(wa: WeightSystem):
    """Scan all n=2 rows with entries <= degree for the row relation;
    independent of the search module's enumeration."""
    (a1, a2), h = wa.weights, wa.degree
    return [(e1, e2)
            for e1 in range(h + 1) for e2 in range(h + 1)
            if a1 * e1 + a2 * e2 == h]


def _brute_force_oracle(systems):
    """Every valid arrangement of every ordered pair of ``systems``, as a
    table ``oracle[i][j]``: row multiset -> set of arrangements of rows of
    ``systems[i]`` whose columns are rows of ``systems[j]``, kept only for
    the pairs that have one.  Each ordered row pair is tested once, by
    intersecting the systems that hold its two columns; independent of the
    search module's enumeration order."""
    holders: dict[tuple, set[int]] = defaultdict(set)
    for j, wb in enumerate(systems):
        for row in _brute_force_rows(wb):
            holders[row].add(j)
    oracle: list[dict[int, dict[tuple, set[tuple]]]] = []
    for wa in systems:
        rows, table = _brute_force_rows(wa), {}
        for arr in [(r1, r2) for r1 in rows for r2 in rows]:
            (x1, x2), (y1, y2) = arr
            for j in holders[x1, y1] & holders[x2, y2]:
                table.setdefault(j, {}).setdefault(
                    tuple(sorted(arr)), set()).add(arr)
        oracle.append(table)
    return oracle


def check_search(catalog: Catalog, reports: Reports) -> Outcome:
    """Pinned searches, catalog completeness, and n=2 brute-force parity."""
    failures = []
    find = search.find_magic_squares  # once per run, as a tracer wraps it

    w6 = WeightSystem((2, 3), 6)
    pinned = find(w6, w6, filter="primitive", strong_only=True)
    if [m.entries for m in pinned] != [((3, 0), (0, 2))]:
        failures.append(f"(2,3;6) self-search returned {pinned}")
    w42 = WeightSystem((6, 14, 21), 42)
    pinned = find(w42, w42)
    if [m.entries for m in pinned] != [((7, 0, 0), (0, 3, 0), (0, 0, 2))]:
        failures.append(f"(6,14,21;42) self-search returned {pinned}")

    searches: dict[tuple[WeightSystem, WeightSystem],
                   list[MagicSquare]] = {}
    for entry in catalog:
        if not entry.positive:
            continue
        pair = (entry.weights, entry.partner_weights)
        if pair not in searches:
            searches[pair] = find(*pair)
        if not any(sorted(m.entries) == sorted(entry.square.entries)
                   for m in searches[pair]):
            failures.append(f"{entry.label} not rediscovered")

    systems = _n2_systems(BRUTE_DEGREE_BOUND)
    oracle, empty = _brute_force_oracle(systems), {}
    for table, wa in zip(oracle, systems):
        for j, wb in enumerate(systems):
            brute = table.get(j, empty)
            found, strong = find(wa, wb), find(wa, wb, strong_only=True)
            if not (brute or found or strong):
                continue
            if {tuple(sorted(m.entries)) for m in found} != brute.keys():
                failures.append(f"brute-force mismatch for {wa} x {wb}")
                continue
            for m in found:
                if m.entries != max(brute[tuple(sorted(m.entries))]):
                    failures.append(
                        f"non-canonical arrangement for {wa} x {wb}")
            brute_strong = {
                key for key, arrs in brute.items()
                if any(all(0 in row for row in arr)
                       and all(0 in col for col in zip(*arr))
                       for arr in arrs)}
            if {tuple(sorted(m.entries)) for m in strong} != brute_strong:
                failures.append(f"strong-filter mismatch for {wa} x {wb}")
    return ("search completeness", failures[:4],
            f"catalog rediscovered, {len(systems) ** 2} brute-forced pairs")


def check_algebraic_properties(catalog: Catalog, reports: Reports) -> Outcome:
    """Deterministic sweep of the structural identities over all squares."""
    failures = []
    squares: list[tuple[str, MagicSquare]] = [
        (entry.label, entry.square) for entry in catalog if entry.positive]
    w6 = WeightSystem((2, 3), 6)
    for m in search.find_magic_squares(w6, w6):
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
            value = zeta.evaluate_at_one(z)
            dual_value = zeta.evaluate_at_one(zeta.saito_dual(z, h))
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
    return ("algebraic property sweep", failures[:4],
            f"{len(squares)} squares swept")


def check_exponent_range(catalog: Catalog, reports: Reports) -> Outcome:
    """T4 zeta exponents all lie in {-1, 0, 1}."""
    checked = [r for r in reports if r.exponent_outliers is not None]
    failures = [f"{r.label}: {list(r.exponent_outliers)}"
                for r in checked if r.exponent_outliers]
    return ("exponent range of quadrilateral-table zetas", failures,
            f"{len(checked)} zeta functions checked")


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


def run_all(catalog: Catalog) -> tuple[tuple[CriterionResult, ...], Reports]:
    """Run all ten verification criteria against the catalog.

    Criterion N is the N-th check of ``_CHECKS``; it passes when its check
    finds no failures.  Returns the criterion results and the per-entry
    reports they read, one report per entry in catalog order.
    """
    reports = tuple(verify_entry(e, catalog) for e in catalog)
    results = []
    for number, check in enumerate(_CHECKS, 1):
        title, failures, detail = check(catalog, reports)
        results.append(CriterionResult(number, title, not failures,
                                       "; ".join(failures) if failures else detail))
    return tuple(results), reports
