"""Command-line front-end.

Verbs: ``reduce``, ``check``, ``search``, ``zeta``, ``invariants``,
``polar`` and ``catalog`` (with subcommands ``verify``, ``list``,
``show``).  Every verb supports ``--format human|json``; structured mode
emits exactly one JSON document on standard output.

Exit codes: 0 = success / verified, 1 = a checked claim failed,
2 = input error (with a diagnostic on standard error).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stdout

from . import catalog as catalog_lib
from . import magic, polytope, search, verify, zeta
from .errors import ValidationError, WeightMagicError
from .magic import MagicSquare
from .weights import is_calabi_yau, parse_weight_system, reduce_system

_FILTER_NAMES = {"any": "any", "almost": "almost_primitive",
                 "primitive": "primitive"}

#: Largest degree ``zeta --expand`` accepts; the series holds N + 1 integers.
MAX_EXPAND = 100_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightmagic",
        description="Weighted magic squares: coupled weight systems, zeta "
                    "functions, lattice invariants, and polytope duals.")
    # SUPPRESS keeps a sub-subparser from overwriting a value that was
    # already set before the subcommand token (e.g. catalog --format json …)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("human", "json"),
                        default=argparse.SUPPRESS, help="output mode")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("reduce", parents=[shared],
                         help="reduce a weight system to canonical form")
    p.add_argument("--wa", required=True, metavar="W",
                   help='weight system, e.g. "6,14,21;42"')

    p = verbs.add_parser("check", parents=[shared],
                         help="validate and classify a coupling matrix")
    p.add_argument("--wa", required=True, metavar="W", help="row weights")
    p.add_argument("--wb", metavar="W",
                   help="column weights; recovered from the matrix if omitted")
    p.add_argument("--matrix", required=True, metavar="M",
                   help='monomials "x^7, y^3, z^2" or rows "7,0,0;0,3,0;0,0,2"')

    p = verbs.add_parser("search", parents=[shared],
                         help="enumerate all squares coupling a weight pair")
    p.add_argument("--wa", required=True, metavar="W", help="row weights")
    p.add_argument("--wb", metavar="W",
                   help="column weights (defaults to the row weights)")
    p.add_argument("--filter", choices=sorted(_FILTER_NAMES),
                   default="any", help="keep only this classification")
    p.add_argument("--strong", action="store_true",
                   help="keep only strong squares")

    for verb, text in (("zeta", "reduced zeta function of a square"),
                       ("invariants", "lattice invariants of a square")):
        p = verbs.add_parser(verb, parents=[shared], help=text)
        p.add_argument("--wa", required=True, metavar="W", help="row weights")
        p.add_argument("--wb", metavar="W",
                       help="column weights (recovered if omitted)")
        p.add_argument("--matrix", required=True, metavar="M",
                       help="monomials or integer rows")
        if verb == "zeta":
            p.add_argument("--saito-dual", action="store_true",
                           help="also print the Saito dual")
            p.add_argument("--expand", type=int, metavar="N",
                           help="print series coefficients up to degree N "
                                f"(at most {MAX_EXPAND})")

    p = verbs.add_parser("polar", parents=[shared],
                         help="extended diagram and its polar dual")
    p.add_argument("--wa", required=True, metavar="W", help="weight system")

    p = verbs.add_parser("catalog", parents=[shared],
                         help="inspect or verify the embedded catalog")
    p.add_argument("--catalog-path", metavar="FILE",
                   help="load the catalog from FILE instead of the package")
    sub = p.add_subparsers(dest="action", required=True)
    sub.add_parser("verify", parents=[shared],
                   help="recompute and check every embedded claim")
    sub.add_parser("list", parents=[shared], help="one line per entry")
    q = sub.add_parser("show", parents=[shared],
                       help="full record(s) for an index or name")
    q.add_argument("key", metavar="IDX", help="catalog index or name")
    return parser


def _emit(args, document: dict, lines: list[str]) -> None:
    if getattr(args, "format", "human") == "json":
        print(json.dumps(document, indent=2))
    else:
        for line in lines:
            print(line)


def _square_from_args(args) -> tuple[MagicSquare, bool]:
    """Build the square from --wa/--wb/--matrix; recover wb if absent."""
    wa = parse_weight_system(args.wa)
    entries = magic.parse_matrix(args.matrix, wa.n)
    if args.wb is None:
        return magic.recover_partner(entries, wa), True
    return magic.validate(entries, wa, parse_weight_system(args.wb)), False


def _square_document(square: MagicSquare, recovered: bool) -> dict:
    report = magic.classify(square)
    return {
        "wa": str(square.wa),
        "wb": str(square.wb),
        "wb_recovered": recovered,
        "matrix": [list(row) for row in square.entries],
        "monomials": square.monomials(),
        "determinant": report.determinant,
        "classification": report.classification,
        "strong": report.strong,
    }


def _cmd_reduce(args) -> int:
    system = parse_weight_system(args.wa)
    reduction = reduce_system(system)
    reduced = reduction.system
    document = {
        "verb": "reduce",
        "input": str(system),
        "reduced": str(reduced),
        "full_form": reduced.full_form(),
        "virtual_weight": reduced.a0,
        "permutation": list(reduction.permutation),
        "scale": str(reduction.scale),
        "calabi_yau": is_calabi_yau(reduced),
    }
    lines = [
        f"reduced:        {reduced}",
        f"full form:      {reduced.full_form()}",
        f"virtual weight: {reduced.a0}",
        f"permutation:    {reduction.permutation}",
        f"scale:          {reduction.scale}",
        f"calabi-yau:     {'yes' if document['calabi_yau'] else 'no'}",
    ]
    _emit(args, document, lines)
    return 0


def _cmd_check(args) -> int:
    try:
        square, recovered = _square_from_args(args)
    except ValidationError as exc:
        document = {"verb": "check", "verified": False, "error": str(exc)}
        _emit(args, document, [])
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    document = {"verb": "check", "verified": True}
    document.update(_square_document(square, recovered))
    suffix = " (recovered)" if recovered else ""
    lines = [
        f"matrix:         {document['monomials']}",
        f"row weights:    {document['wa']}",
        f"column weights: {document['wb']}{suffix}",
        f"determinant:    {document['determinant']}",
        f"classification: {document['classification']}",
        f"strong:         {'yes' if document['strong'] else 'no'}",
    ]
    _emit(args, document, lines)
    return 0


def _cmd_search(args) -> int:
    wa = parse_weight_system(args.wa)
    wb = parse_weight_system(args.wb) if args.wb else wa
    query = search.SearchQuery(wa, wb, filter=_FILTER_NAMES[args.filter],
                               strong_only=args.strong)
    results = [_square_document(m, False)
               for m in search.find_magic_squares(query)]
    document = {
        "verb": "search",
        "wa": str(wa),
        "wb": str(wb),
        "filter": query.filter,
        "strong_only": query.strong_only,
        "count": len(results),
        "results": results,
    }
    lines = [f"{len(results)} square(s) coupling {wa} and {wb}"]
    for i, result in enumerate(results, 1):
        strong = ", strong" if result["strong"] else ""
        lines.append(f"{i:3}. {result['monomials']}   "
                     f"[{result['classification']}{strong}]")
    _emit(args, document, lines)
    return 0


def _cmd_zeta(args) -> int:
    if args.expand is not None and args.expand < 0:
        raise ValidationError(
            f"--expand {args.expand} is negative; give a degree of 0 or more")
    if args.expand is not None and args.expand > MAX_EXPAND:
        raise ValidationError(
            f"--expand {args.expand} exceeds the ceiling of {MAX_EXPAND}")
    square, recovered = _square_from_args(args)
    z = zeta.reduced_zeta(square)
    document = {
        "verb": "zeta",
        "wa": str(square.wa),
        "wb": str(square.wb),
        "wb_recovered": recovered,
        "zeta": {"text": str(z), "factors": [list(f) for f in z.factors]},
    }
    lines = [f"zeta: {z}"]
    if args.saito_dual:
        dual = zeta.saito_dual(z, square.wa.degree)
        document["saito_dual"] = {
            "text": str(dual), "factors": [list(f) for f in dual.factors]}
        lines.append(f"saito dual: {dual}")
    if args.expand is not None:
        coefficients = zeta.expand_series(z, args.expand)
        document["series"] = coefficients
        lines.append(f"series: {coefficients}")
    _emit(args, document, lines)
    return 0


def _cmd_invariants(args) -> int:
    square, recovered = _square_from_args(args)
    inv = zeta.lattice_invariants(square)
    z = zeta.reduced_zeta(square)
    value = discriminant = None
    if z.exponent_sum == 0:
        value, discriminant = zeta.evaluate_at_one(z, inv.rho)
    document = {
        "verb": "invariants",
        "wa": str(square.wa),
        "wb": str(square.wb),
        "wb_recovered": recovered,
        "mu": inv.mu,
        "mu0": inv.mu0,
        "rho": inv.rho,
        "zeta_value_at_one": None if value is None else str(value),
        "discriminant": None if discriminant is None else str(discriminant),
    }
    lines = [f"mu:  {inv.mu}", f"mu0: {inv.mu0}",
             f"rho: {'n/a' if inv.rho is None else inv.rho}"]
    if value is not None:
        lines.append(f"zeta value at 1: {value}")
    if discriminant is not None:
        lines.append(f"discriminant: {discriminant}")
    _emit(args, document, lines)
    return 0


def _vertex_lists(simplex) -> list[list[str]]:
    return [[str(c) for c in vertex] for vertex in simplex.vertices]


def _cmd_polar(args) -> int:
    system = parse_weight_system(args.wa)
    diagram = polytope.extended_diagram(system)
    dual = polytope.polar_dual(diagram)
    matches = polytope.closed_form_dual(system) == dual
    document = {
        "verb": "polar",
        "wa": str(system),
        "diagram": _vertex_lists(diagram),
        "polar_dual": _vertex_lists(dual),
        "closed_form_matches": matches,
    }
    lines = [f"diagram:    {diagram}",
             f"polar dual: {dual}",
             f"closed form matches: {'yes' if matches else 'no'}"]
    _emit(args, document, lines)
    if not matches:
        print("polar: closed form disagrees with the computed dual",
              file=sys.stderr)
        return 1
    return 0


def _entry_document(entry: catalog_lib.CatalogEntry) -> dict:
    return {
        "table": entry.table,
        "seq": entry.seq,
        "index": entry.index,
        "name": entry.name,
        "label": entry.label,
        "weights": str(entry.weights),
        "virtual_weight": entry.weights.a0,
        "monomials": entry.monomials,
        "partner": entry.partner,
        "partner_table": entry.partner_table,
        "partner_weights": str(entry.partner_weights),
        "flags": list(entry.flags),
    }


def _entry_line(entry: catalog_lib.CatalogEntry) -> str:
    flags = f"  [{', '.join(entry.flags)}]" if entry.flags else ""
    return (f"{entry.label:28} {str(entry.weights):>16}  "
            f"{entry.monomials:28} -> {entry.partner}{flags}")


def _cmd_catalog(args) -> int:
    catalog = catalog_lib.load_catalog(args.catalog_path)
    if args.action == "list":
        document = {"verb": "catalog-list", "count": len(catalog),
                    "entries": [_entry_document(e) for e in catalog]}
        _emit(args, document, [_entry_line(e) for e in catalog])
        return 0
    if args.action == "show":
        key = int(args.key) if args.key.isdecimal() else args.key
        hits = catalog.lookup(key)
        documents = []
        lines = []
        for entry in hits:
            report = catalog_lib.verify_entry(entry, catalog)
            record = _entry_document(entry)
            record["verification"] = {
                "ok": report.ok,
                "classification": report.classification,
                "strong": report.strong,
                "problems": list(report.problems),
            }
            if entry.expected is not None:
                record["expected"] = entry.expected.__dict__
            documents.append(record)
            lines.extend([
                entry.label,
                f"  weights:         {entry.weights}"
                f"  (virtual weight {entry.weights.a0})",
                f"  matrix:          {entry.monomials}",
                f"  partner:         {entry.partner} in {entry.partner_table}"
                f"  ({entry.partner_weights})",
                f"  classification:  {report.classification}"
                f"{', strong' if report.strong else ''}",
                f"  verified:        {'yes' if report.ok else 'no'}",
            ])
            if entry.flags:
                lines.append(f"  flags:           {', '.join(entry.flags)}")
            if report.problems:
                lines.extend(f"  problem: {p}" for p in report.problems)
        document = {"verb": "catalog-show", "count": len(hits),
                    "entries": documents}
        _emit(args, document, lines)
        return 0

    # catalog verify: the criteria and the per-table summary read the same
    # per-entry reports
    results, reports = verify.run_all(catalog)
    tables = {}
    for report in reports:
        summary = tables.setdefault(report.table, {"entries": 0, "ok": 0})
        summary["entries"] += 1
        summary["ok"] += report.ok
    passed = all(r.passed for r in results) and all(r.ok for r in reports)
    document = {
        "verb": "catalog-verify",
        "passed": passed,
        "criteria": [{"number": r.number, "title": r.title,
                      "passed": r.passed, "detail": r.detail}
                     for r in results],
        "tables": tables,
    }
    lines = [r.line for r in results]
    lines.append("")
    for name in catalog_lib.TABLES:
        if name in tables:
            summary = tables[name]
            lines.append(f"table {name:9} {summary['ok']:3}/"
                         f"{summary['entries']:3} entries verified")
    lines.append("")
    lines.append("all claims verified" if passed
                 else "verification FAILED")
    _emit(args, document, lines)
    return 0 if passed else 1


_COMMANDS = {
    "reduce": _cmd_reduce,
    "check": _cmd_check,
    "search": _cmd_search,
    "zeta": _cmd_zeta,
    "invariants": _cmd_invariants,
    "polar": _cmd_polar,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (WeightMagicError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv: list[str]) -> tuple[int, str]:
    """Programmatic entry point: returns (exit code, standard output)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()
