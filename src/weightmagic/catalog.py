"""Embedded dataset of coupled weight-system pairs and recomputation reports.

The catalog ships as a JSON data file inside the package.  Each entry records a
weight system, the monomial matrix coupling it to a partner system, and (for
the rows of the Fuchsian table) the lattice invariants the entry is expected
to reproduce.  An entry validates its square, and a :class:`Catalog` its
partner links, when built, so both are valid by the time they exist;
:func:`verify_entry` recomputes the numeric claims from first principles.

:func:`verify_entry` is the only place that says what one entry must
satisfy: its classification, its strongness, the inverse-product
identity, Saito duality of its zeta function where that applies, the
exponent range of the quadrilateral table and every stored invariant
column, the partner's starred ones included.  Its report holds the
verdicts and the recomputed Fuchsian row, the entry holds its square,
and the criteria of :mod:`weightmagic.verify` read both.
:func:`fuchsian_report` builds its rows with the same row builder.
"""

from __future__ import annotations

import json
import os
import sys

from . import magic
from .errors import CatalogError, ParseError, ValidationError, WeightMagicError
from .weights import WeightSystem, _Value, equivalent

SCHEMA_VERSION = 1
TABLES = ("T1", "T2", "T3", "T4", "Fuchs", "NonMirror")
KNOWN_FLAGS = frozenset({"zero_weight", "non_mirror_example", "not_strong"})
_FIXED_COUNTS = {"T1": 3, "T4": 16, "Fuchs": 8}
#: Most characters ``load_catalog`` reads; the packaged file has 42,107.
MAX_CATALOG_CHARS = 1 << 20


class FuchsExpected(_Value):
    """Stored invariant columns for one row of the Fuchsian table.

    ``d`` is kept verbatim; it is recomputable from the zeta value at 1 only
    when ``mu0`` vanishes, which fails for every left-hand entry here.
    """

    _fields = ("mu", "mu0", "rho", "d", "b0", "d_star", "mu0_star",
               "mu_star", "nu_star")


class CatalogEntry(_Value):
    """One catalog row: a weight system coupled to a partner by a matrix.

    ``square``, the validated square of ``monomials`` on the weight pair,
    is built with the entry and is not one of its fields.
    """

    _fields = ("table", "seq", "index", "name", "weights", "monomials",
               "partner", "partner_table", "partner_weights", "expected",
               "flags")

    def __init__(self, table: str, seq: int, index: int | None,
                 name: str | None, weights: WeightSystem, monomials: str,
                 partner: int | str, partner_table: str,
                 partner_weights: WeightSystem,
                 expected: FuchsExpected | None, flags: tuple[str, ...]):
        super().__init__(table, seq, index, name, weights, monomials,
                         partner, partner_table, partner_weights, expected,
                         flags)
        try:
            rows = magic.parse_monomial_matrix(monomials, weights.n)
            square = magic.validate(rows, weights, partner_weights)
        except (ParseError, ValidationError) as exc:
            raise ValidationError(
                f"matrix of {self.label} fails validation: {exc}") from exc
        object.__setattr__(self, "square", square)

    @property
    def key(self) -> int | str:
        """Index when present, otherwise the name; used for partner links."""
        return self.index if self.index is not None else self.name

    @property
    def positive(self) -> bool:
        """Neither weight system has a zero weight."""
        return (0 not in self.weights.weights
                and 0 not in self.partner_weights.weights)

    @property
    def label(self) -> str:
        bits = [f"{self.table}#{self.seq}"]
        if self.index is not None:
            bits.append(f"no. {self.index}")
        if self.name:
            bits.append(self.name)
        return " ".join(bits)


class Catalog:
    """Catalog whose every entry has its unique reciprocal partner."""

    def __init__(self, entries: tuple[CatalogEntry, ...]):
        self.entries = tuple(entries)
        self._by_table: dict[str, list[CatalogEntry]] = {}
        self._by_key: dict[tuple[str, int | str], list[CatalogEntry]] = {}
        for entry in self.entries:
            self._by_table.setdefault(entry.table, []).append(entry)
            self._by_key.setdefault((entry.table, entry.key), []).append(entry)
        for entry in self.entries:
            self.partner_of(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def table(self, name: str) -> tuple[CatalogEntry, ...]:
        if name not in TABLES:
            raise CatalogError(f"unknown table {name!r}")
        return tuple(self._by_table.get(name, ()))

    def lookup(self, key: int | str) -> tuple[CatalogEntry, ...]:
        """All entries whose index (int key) or name (str key) matches."""
        if type(key) is str:
            hits = tuple(e for e in self.entries if e.name == key)
        elif type(key) is int:
            hits = tuple(e for e in self.entries if e.index == key)
        else:
            raise CatalogError(
                f"a catalog key is an int index or a str name, got {key!r}")
        if not hits:
            raise CatalogError(f"no catalog entry matches {key!r}")
        return hits

    def partner_of(self, entry: CatalogEntry) -> CatalogEntry:
        """The unique reciprocal partner entry in ``entry.partner_table``."""
        named = self._by_key.get((entry.partner_table, entry.partner), ())
        hits = [c for c in named if c.partner == entry.key]
        if len(hits) != 1:
            raise CatalogError(
                f"partner reference of {entry.label} resolves to "
                f"{len(hits)} entries")
        return hits[0]


#: The types each scalar field of a record may have; a bool is not an int.
_SCALAR_FIELDS = {"seq": (int,), "index": (int, type(None)),
                  "name": (str, type(None)), "a0": (int,), "monomials": (str,),
                  "partner": (int, str), "partner_table": (str,)}
_JSON_TYPES = {int: "an int", str: "a string", type(None): "null"}


def _entry_from_record(record: dict) -> CatalogEntry:
    table = record["table"]
    where = f"{table}#{record['seq']}"
    try:
        if table not in TABLES:
            raise CatalogError(f"unknown table {table!r}")
        for key, kinds in _SCALAR_FIELDS.items():
            if type(record[key]) not in kinds:
                raise CatalogError(f"{key} must be " + " or ".join(
                    _JSON_TYPES[k] for k in kinds) + f", got {record[key]!r}")
        for key, kind in (("weights", int), ("partner_weights", int),
                          ("flags", str)):
            if not (isinstance(record[key], list)
                    and all(type(x) is kind for x in record[key])):
                raise CatalogError(
                    f"{key} must be a list of {kind.__name__} values")
        flags = tuple(record["flags"])
        unknown = set(flags) - KNOWN_FLAGS
        if unknown:
            raise CatalogError(f"unknown flags {sorted(unknown)}")
        weights = WeightSystem(tuple(record["weights"]), record["degree"])
        partner_weights = WeightSystem(tuple(record["partner_weights"]),
                                       record["partner_degree"])
        if weights.a0 != record["a0"]:
            raise CatalogError(f"stored a0 {record['a0']} disagrees "
                               f"with derived {weights.a0}")
        expected = record["expected"]
        if expected is not None:  # nine int columns, none a bool
            if not isinstance(expected, dict):
                raise CatalogError(
                    f"expected values must be an object, got {expected!r}")
            names = FuchsExpected._fields
            wrong = {f: expected.get(f) for f in names
                     if type(expected.get(f)) is not int}
            if wrong:
                raise CatalogError(f"expected values {wrong} must be integers")
            expected = FuchsExpected(*(expected[f] for f in names))
        scalars = {key: record[key] for key in (
            "seq", "index", "name", "monomials", "partner", "partner_table")}
    except KeyError as exc:
        raise CatalogError(f"{where}: missing field {exc}") from exc
    except (CatalogError, ValidationError) as exc:
        raise CatalogError(f"{where}: {exc}") from exc
    try:
        entry = CatalogEntry(table=table, weights=weights,
                             partner_weights=partner_weights,
                             expected=expected, flags=flags, **scalars)
    except ValidationError as exc:  # already names the entry
        raise CatalogError(str(exc)) from exc
    if ("zero_weight" in flags) == entry.positive:
        raise CatalogError(
            f"{entry.label} is {'' if entry.positive else 'not '}flagged "
            f"zero_weight, but {weights} and {partner_weights} have "
            f"{'no' if entry.positive else 'a'} zero weight")
    if ("non_mirror_example" in flags) != (table == "NonMirror"):
        raise CatalogError(f"{entry.label}: non_mirror_example flag and table disagree")
    return entry


def load_catalog(path: str | os.PathLike | None = None) -> Catalog:
    """Load and validate the embedded catalog (or one from ``path``).

    Validation covers the schema version, fixed table counts, the virtual
    weight of every entry, the row/column relations of every matrix, partner
    resolution, and consistency of the Fuchsian rows with their sources.
    """
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    with open(os.fspath(path), encoding="utf-8") as f:
        text = f.read(MAX_CATALOG_CHARS + 1)
    if len(text) > MAX_CATALOG_CHARS:
        raise CatalogError(f"catalog file is over {MAX_CATALOG_CHARS} characters")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog file is not valid JSON: {exc}") from exc
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise CatalogError("catalog file has a number with more digits than "
                           f"the {sys.get_int_max_str_digits()} that can be "
                           "read") from None
    if not isinstance(document, dict):
        raise CatalogError("catalog file must hold a JSON object")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise CatalogError(
            f"unsupported catalog schema version "
            f"{document.get('schema_version')!r}; expected {SCHEMA_VERSION}")
    records = document.get("entries")
    if not isinstance(records, list):
        raise CatalogError("catalog file lacks an entry list")

    for position, record in enumerate(records):
        if not (isinstance(record, dict) and {"table", "seq"} <= record.keys()):
            raise CatalogError(f"catalog record {position} needs a table and a seq")
    catalog = Catalog(tuple(_entry_from_record(r) for r in records))

    for name, count in _FIXED_COUNTS.items():
        have = len(catalog.table(name))
        if have != count:
            raise CatalogError(
                f"table {name} has {have} entries; expected {count}")
    by_pair = {}
    for entry in catalog.table("T3"):
        by_pair[(entry.index, entry.partner)] = entry
    for entry in catalog.table("Fuchs"):
        source = by_pair.get((entry.index, entry.partner))
        if source is None:
            raise CatalogError(
                f"{entry.label} has no matching source row in T3")
        if (source.weights != entry.weights
                or source.monomials != entry.monomials):
            raise CatalogError(
                f"{entry.label} disagrees with its T3 source row")
    return catalog


def _expected_strong(entry: CatalogEntry) -> bool | None:
    """Whether the entry's square should be strong: not where it is
    flagged ``not_strong``, on any table; None = no expectation."""
    if "not_strong" in entry.flags:
        return False
    return None if entry.table == "T1" else True


def _expected_classification(entry: CatalogEntry) -> str:
    if entry.table in ("T1", "T4", "NonMirror"):
        return magic.PRIMITIVE
    if entry.weights.a0 == 1 and entry.partner_weights.a0 == 1:
        return magic.PRIMITIVE
    return magic.ALMOST_PRIMITIVE


def _weights_agree(left: WeightSystem, right: WeightSystem) -> bool:
    """Equality of weight systems up to order and overall scale."""
    if 0 in left.weights or 0 in right.weights:
        return (sorted(left.weights) == sorted(right.weights)
                and left.degree == right.degree)
    return equivalent(left, right)


class VerificationReport(_Value):
    """Recomputed facts about one entry, compared with its stated claims.

    ``exponent_outliers`` holds the zeta factors (order, exponent) with an
    exponent outside {-1, 0, 1}, and is None where the exponent range is
    not claimed; ``fuchs`` is the recomputed Fuchsian row, None where no
    columns are stored.
    """

    _fields = ("label", "table", "determinant", "classification",
               "classification_ok", "strong", "strong_ok",
               "inverse_identity_ok", "zeta_duality_applicable",
               "zeta_duality_ok", "exponent_outliers", "fuchs", "problems")

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_entry(entry: CatalogEntry, catalog: Catalog) -> VerificationReport:
    """Recompute every claim the catalog makes about ``entry``."""
    from . import polytope, zeta  # here, so that loading a catalog skips them
    problems: list[str] = []
    report = magic.classify(entry.square)
    classification_ok = report.classification == _expected_classification(entry)
    if not classification_ok:
        problems.append(
            f"classified {report.classification}, expected "
            f"{_expected_classification(entry)}")

    expected_strong = _expected_strong(entry)
    strong_ok = expected_strong is None or report.strong == expected_strong
    if not strong_ok:
        problems.append(
            f"strong={report.strong}, expected {expected_strong}")

    try:
        inverse_identity_ok = polytope.verify_duality_identity(entry.square)
    except WeightMagicError:
        inverse_identity_ok = False
    if not inverse_identity_ok:
        problems.append("inverse-product identity fails")

    partner = catalog.partner_of(entry)
    if not (_weights_agree(entry.partner_weights, partner.weights)
            and _weights_agree(entry.weights, partner.partner_weights)):
        problems.append("transpose weight pair disagrees with partner entry")

    zeta_duality_applicable = (
        entry.positive and entry.square.n == 3
        and report.classification == magic.PRIMITIVE
        and entry.weights.a0 == 1 and entry.partner_weights.a0 == 1)
    exponent_range_claimed = entry.table == "T4" and entry.positive
    z = (zeta.reduced_zeta(entry.square)
         if zeta_duality_applicable or exponent_range_claimed else None)
    zeta_duality_ok = True
    if zeta_duality_applicable:
        dual = zeta.saito_dual(z, entry.weights.degree)
        zeta_duality_ok = zeta.reduced_zeta(magic.transpose(entry.square)) == dual
        if not zeta_duality_ok:
            problems.append("transpose zeta is not the Saito dual")

    exponent_outliers = None
    if exponent_range_claimed:
        exponent_outliers = tuple(
            (order, a) for order, a in z.factors if a not in (-1, 0, 1))
        if exponent_outliers:
            problems.append("zeta exponent outside {-1, 0, 1}")

    fuchs = None
    if entry.expected is not None:
        fuchs = _fuchs_row(entry, partner)
        if fuchs.errors:
            problems.extend(fuchs.errors)
        elif not fuchs.matches:
            problems.append(
                f"computed (mu, mu0, rho, b0, mu*, mu0*, nu*, |d*|) = "
                f"{fuchs.columns} disagree with stored values")

    return VerificationReport(
        label=entry.label, table=entry.table,
        determinant=report.determinant,
        classification=report.classification,
        classification_ok=classification_ok,
        strong=report.strong, strong_ok=strong_ok,
        inverse_identity_ok=inverse_identity_ok,
        zeta_duality_applicable=zeta_duality_applicable,
        zeta_duality_ok=zeta_duality_ok,
        exponent_outliers=exponent_outliers, fuchs=fuchs,
        problems=tuple(problems))


class FuchsRow(_Value):
    """One recomputed row of the Fuchsian table."""

    _fields = ("label", "mu", "mu0", "rho", "b0", "mu_star", "mu0_star",
               "nu_star", "d_star_abs", "expected", "errors")

    @property
    def columns(self) -> tuple[int, ...]:
        """(mu, mu0, rho, b0, mu*, mu0*, nu*, |d*|) as recomputed."""
        return (self.mu, self.mu0, self.rho, self.b0,
                self.mu_star, self.mu0_star, self.nu_star, self.d_star_abs)

    @property
    def matches(self) -> bool:
        """No recomputation error, and every column equals the stored one."""
        e = self.expected
        return not self.errors and self.columns == (
            e.mu, e.mu0, e.rho, e.b0,
            e.mu_star, e.mu0_star, e.nu_star, abs(e.d_star))


def _fuchs_row(entry: CatalogEntry, partner: CatalogEntry) -> FuchsRow:
    """Recompute the Fuchsian-table columns of ``entry`` against its
    stored ``expected`` record.

    (mu, mu0, rho) come from the entry's own square, (mu*, mu0*) from the
    partner's square, nu* from the covering identity
    mu* + nu* + 1 = b0 (rho + 3), and |d*| from the partner zeta function
    evaluated at 1 (well defined because mu0* vanishes).
    """
    from . import zeta
    errors: list[str] = []
    inv = zeta.lattice_invariants(entry.square)
    partner_inv = zeta.lattice_invariants(partner.square)
    b0 = entry.partner_weights.a0
    rho = inv.rho if inv.rho is not None else 0
    if inv.rho is None:
        errors.append("Picard number undefined for this weight system")
    nu_star = b0 * (rho + 3) - partner_inv.mu - 1
    d_star_abs = 0
    try:
        value = zeta.evaluate_at_one(zeta.reduced_zeta(partner.square))
        if value.denominator != 1:
            errors.append(f"partner zeta value at 1 is {value}")
        else:
            d_star_abs = abs(int(value))
    except WeightMagicError as exc:
        errors.append(f"partner zeta value at 1: {exc}")
    return FuchsRow(
        label=f"{entry.index}/{partner.index}",
        mu=inv.mu, mu0=inv.mu0, rho=rho, b0=b0,
        mu_star=partner_inv.mu, mu0_star=partner_inv.mu0,
        nu_star=nu_star, d_star_abs=d_star_abs,
        expected=entry.expected, errors=tuple(errors))


def fuchsian_report(catalog: Catalog) -> tuple[FuchsRow, ...]:
    """Recompute all invariant columns of the Fuchsian table, one row per
    entry, with the row builder :func:`verify_entry` uses."""
    return tuple(_fuchs_row(entry, catalog.partner_of(entry))
                 for entry in catalog.table("Fuchs"))
