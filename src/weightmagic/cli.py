"""Command-line front-end.

Verbs: ``reduce``, ``check``, ``search``, ``zeta``, ``invariants``,
``polar`` and ``catalog`` (with subcommands ``verify``, ``list``,
``show``).  Every verb supports ``--format human|json``; structured mode
prints one JSON document, ``json.dumps(document, indent=2)``.  Only a
square's body, in ``check`` and in each ``search`` result, comes from
one template, written to the same bytes.  Each verb's handler returns
its exit code, its document (for those two verbs a function that writes
it) and its human lines, and ``main`` alone prints the one the format
asks for.

Exit codes: 0 = success / verified, 1 = a checked claim failed,
2 = input error (with a diagnostic on standard error).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .errors import ValidationError, WeightMagicError
from .weights import (_read_int, is_calabi_yau, parse_weight_system,
                      reduce_system)

# Each verb imports the modules it runs, so that it loads only what it
# uses; the annotations that name CatalogEntry, MagicSquare, Callable and
# Iterator are never evaluated.

_FILTER_NAMES = {"any": "any", "almost": "almost_primitive",
                 "primitive": "primitive"}

#: Largest degree ``zeta --expand`` accepts; the series holds N + 1 integers.
MAX_EXPAND = 100_000
#: Most coefficient updates ``zeta --expand`` makes (about a second's work).
MAX_EXPAND_WORK = 12_000_000


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
    # the coupling (W_a; h), (W_b; k), C that check, zeta and invariants read
    coupling = argparse.ArgumentParser(add_help=False)
    coupling.add_argument("--wa", required=True, metavar="W", help="row weights")
    coupling.add_argument("--wb", metavar="W", help="column weights; "
                          "recovered from the matrix if omitted")
    coupling.add_argument("--matrix", required=True, metavar="M", help=(
        'monomials "x^7, y^3, z^2" or rows "7,0,0;0,3,0;0,0,2"'))
    verbs = parser.add_subparsers(dest="verb", required=True)

    def verb(name, run, text, *parents):
        p = verbs.add_parser(name, parents=[shared, *parents], help=text)
        p.set_defaults(run=run)
        return p

    p = verb("reduce", _cmd_reduce, "reduce a weight system to canonical form")
    p.add_argument("--wa", required=True, metavar="W",
                   help='weight system, e.g. "6,14,21;42"')

    verb("check", _cmd_check, "validate and classify a coupling matrix",
         coupling)

    p = verb("search", _cmd_search,
             "enumerate all squares coupling a weight pair")
    p.add_argument("--wa", required=True, metavar="W", help="row weights")
    p.add_argument("--wb", metavar="W",
                   help="column weights (defaults to the row weights)")
    p.add_argument("--filter", choices=sorted(_FILTER_NAMES),
                   default="any", help="keep only this classification")
    p.add_argument("--strong", action="store_true",
                   help="keep only strong squares")

    p = verb("zeta", _cmd_zeta, "reduced zeta function of a square", coupling)
    p.add_argument("--saito-dual", action="store_true",
                   help="also print the Saito dual")
    p.add_argument("--expand", metavar="N",
                   help="print series coefficients up to degree N "
                        f"(at most {MAX_EXPAND})")

    verb("invariants", _cmd_invariants, "lattice invariants of a square",
         coupling)

    p = verb("polar", _cmd_polar, "extended diagram and its polar dual")
    p.add_argument("--wa", required=True, metavar="W", help="weight system")

    p = verb("catalog", _cmd_catalog, "inspect or verify the embedded catalog")
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


def _coupling(args) -> tuple[MagicSquare, dict]:
    """The square --wa/--wb/--matrix give, wb recovered if absent, and the
    head of its document: both systems and whether wb was recovered."""
    from . import magic
    wa = parse_weight_system(args.wa)
    entries = magic.parse_matrix(args.matrix, wa.n)
    recovered = args.wb is None
    square = (magic.recover_partner(entries, wa) if recovered else
              magic.validate(entries, wa, parse_weight_system(args.wb)))
    return square, {"wa": str(square.wa), "wb": str(square.wb),
                    "wb_recovered": recovered}


def _cmd_reduce(args) -> tuple[int, dict, list[str]]:
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
    return 0, document, lines


def _cmd_check(args) -> tuple[int, dict | Callable[[], str], list[str]]:
    from . import magic
    try:
        square, head = _coupling(args)
    except ValidationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1, {"verb": "check", "verified": False, "error": str(exc)}, []
    report = magic.classify(square)
    suffix = " (recovered)" if head["wb_recovered"] else ""
    lines = [
        f"matrix:         {square.monomials()}",
        f"row weights:    {head['wa']}",
        f"column weights: {head['wb']}{suffix}",
        f"determinant:    {report.determinant}",
        f"classification: {report.classification}",
        f"strong:         {'yes' if report.strong else 'no'}",
    ]
    head = {"verb": "check", "verified": True, **head}
    return 0, lambda: _square_writer(head, "\n")(square), lines


def _cmd_search(args) -> tuple[int, Callable[[], str], Iterator[str]]:
    """Each result is written only while JSON mode writes the document."""
    from . import search
    wa = parse_weight_system(args.wa)
    wb = wa if args.wb is None else parse_weight_system(args.wb)
    filter_name = _FILTER_NAMES[args.filter]
    wa_text, wb_text = str(wa), str(wb)
    head = {"wa": wa_text, "wb": wb_text, "wb_recovered": False}
    squares = search.find_magic_squares(wa, wb, filter=filter_name,
                                        strong_only=args.strong)

    def document() -> str:
        # json.dumps ends the text with the empty list's "[]\n}"; the
        # results are written in its place
        text = json.dumps({"verb": "search", "wa": wa_text, "wb": wb_text,
                           "filter": filter_name, "strong_only": args.strong,
                           "count": len(squares), "results": []}, indent=2)
        return text[:-4] + _square_documents(squares, head, "\n  ") + "\n}"
    return 0, document, _search_lines(wa_text, wb_text, squares)


def _square_writer(head: dict, indent: str) -> Callable[[MagicSquare], str]:
    """The function that writes a square's document, with its ``classify``
    report, as ``json.dumps(document, indent=2)`` writes it at ``indent``;
    ``head``, its first items, is rendered here, once for every square the
    function writes, and each distinct row's JSON text when first written,
    into a cache that lives as long as the function, as the texts depend
    on ``indent``."""
    from . import magic
    i1, i2, i3 = (indent + "  " * depth for depth in range(1, 4))
    head = "".join(f"{i1}{_quote(k)}: {json.dumps(v)},"
                   for k, v in head.items())
    sep = f",{i3}"

    @cache  # row -> its JSON text
    def row_text(row) -> str:
        return f"{i2}[{i3}{sep.join(map(repr, row))}{i2}]"

    def write(square: MagicSquare) -> str:
        report = magic.classify(square)
        rows = ",".join(map(row_text, square.entries))
        return (f'{{{head}{i1}"matrix": [{rows}{i1}],{i1}"monomials": '
                f'{_quote(square.monomials())},{i1}"determinant": '
                f'{report.determinant!r},{i1}"classification": '
                f'{_quote(report.classification)},{i1}"strong": '
                f'{"true" if report.strong else "false"}{indent}}}')
    return write


def _square_documents(squares: list[MagicSquare], head: dict,
                      indent: str) -> str:
    """The list of the squares' documents as ``json.dumps`` writes it at
    ``indent``, all written by one ``_square_writer``: each distinct row is
    rendered once."""
    inner = indent + "  "
    items = map(_square_writer(head, inner), squares)
    return f"[{inner}{f',{inner}'.join(items)}{indent}]" if squares else "[]"


def _search_lines(wa: str, wb: str, squares: list[MagicSquare]):
    from . import magic
    yield f"{len(squares)} square(s) coupling {wa} and {wb}"
    for i, square in enumerate(squares, 1):
        report = magic.classify(square)
        strong = ", strong" if report.strong else ""
        yield (f"{i:3}. {square.monomials()}   "
               f"[{report.classification}{strong}]")


def _cmd_zeta(args) -> tuple[int, dict, list[str]]:
    from . import zeta
    expand = args.expand
    if expand is not None:
        digits = expand.removeprefix("-")
        if not (digits.isascii() and digits.isdecimal()):
            raise ValidationError(f"--expand must be an integer in ASCII "
                                  f"digits 0-9, got {expand!r}")
        expand = _read_int(expand, "--expand")
        if expand < 0:
            raise ValidationError(
                f"--expand {expand} is negative; give a degree of 0 or more")
        if expand > MAX_EXPAND:
            raise ValidationError(
                f"--expand {expand} exceeds the ceiling of {MAX_EXPAND}")
    square, head = _coupling(args)
    z = zeta.reduced_zeta(square)
    document = {"verb": "zeta", **head, "zeta": {
        "text": str(z), "factors": [list(f) for f in z.factors]}}
    lines = [f"zeta: {z}"]
    if args.saito_dual:
        dual = zeta.saito_dual(z, square.wa.degree)
        document["saito_dual"] = {
            "text": str(dual), "factors": [list(f) for f in dual.factors]}
        lines.append(f"saito dual: {dual}")
    if expand is not None:
        work = sum(abs(a) * (expand - l + 1) for l, a in z.factors
                   if l <= expand)
        if work > MAX_EXPAND_WORK:  # one pass of N - l + 1 per unit of a_l
            raise ValidationError(f"--expand {expand} needs {work} updates, "
                                  f"over MAX_EXPAND_WORK = {MAX_EXPAND_WORK}")
        coefficients = zeta.expand_series(z, expand)
        document["series"] = coefficients
        lines.append(f"series: {coefficients}")
    return 0, document, lines


def _cmd_invariants(args) -> tuple[int, dict, list[str]]:
    from . import zeta
    square, head = _coupling(args)
    inv = zeta.lattice_invariants(square)
    z = zeta.reduced_zeta(square)
    value = discriminant = None
    if z.exponent_sum == 0:
        value = zeta.evaluate_at_one(z)
        if inv.rho is not None:
            discriminant = (-1) ** (inv.rho - 1) * value
    document = {
        "verb": "invariants",
        **head,
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
    return 0, document, lines


def _vertex_lists(simplex) -> list[list[str]]:
    return [[str(c) for c in vertex] for vertex in simplex.vertices]


def _cmd_polar(args) -> tuple[int, dict, list[str]]:
    from . import polytope
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
    if not matches:
        print("polar: closed form disagrees with the computed dual",
              file=sys.stderr)
    return (0 if matches else 1), document, lines


def _entry_document(entry: CatalogEntry) -> dict:
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


def _entry_line(entry: CatalogEntry) -> str:
    flags = f"  [{', '.join(entry.flags)}]" if entry.flags else ""
    return (f"{entry.label:28} {str(entry.weights):>16}  "
            f"{entry.monomials:28} -> {entry.partner}{flags}")


def _cmd_catalog(args) -> tuple[int, dict, list[str]]:
    from . import catalog as catalog_lib
    catalog = catalog_lib.load_catalog(args.catalog_path)
    if args.action == "list":
        document = {"verb": "catalog-list", "count": len(catalog),
                    "entries": [_entry_document(e) for e in catalog]}
        return 0, document, [_entry_line(e) for e in catalog]
    if args.action == "show":
        key = (_read_int(args.key, "catalog index")
               if args.key.isascii() and args.key.isdecimal() else args.key)
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
            expected = entry.expected
            if expected is not None:
                record["expected"] = {f: getattr(expected, f)
                                      for f in expected._fields}
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
        return 0, document, lines

    # catalog verify: the criteria and the per-table summary read the same
    # per-entry reports
    from . import verify
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
    return (0 if passed else 1), document, lines


_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, document, lines = args.run(args)
        if getattr(args, "format", "human") != "json":
            text = "".join(f"{line}\n" for line in lines)
        else:  # check and search hand over a function that writes theirs
            text = (document() if callable(document)
                    else json.dumps(document, indent=2)) + "\n"
    except (WeightMagicError, ValueError, OSError) as exc:
        # readers raise their own errors, so this int was computed, not read
        if type(exc) is ValueError and "integer string conversion" in str(exc):
            exc = ("a computed number has more digits than the "
                   f"{sys.get_int_max_str_digits()} that can be printed")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def run(argv: list[str]) -> tuple[int, str]:
    """Programmatic entry point: returns (exit code, standard output);
    every call in a process reuses the one parser ``main`` builds."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()
