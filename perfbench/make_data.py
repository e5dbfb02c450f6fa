"""Regenerate the benchmark's frozen inputs and references.

    python3 perfbench/make_data.py

writes ``perfbench/data/search.json`` and ``perfbench/data/analyze.json``.
It reads the package's catalog file as plain JSON and computes every
reference with ``oracle.py``'s brute force, never with ``weightmagic``
code, so the references stay independent of the code they check.  It
takes about half a minute; the benchmark itself only reads the files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parents[1]
CATALOG = ROOT / "src" / "weightmagic" / "data" / "catalog.json"

# name, row system, column system, filter, strong-only, why this input.
SEARCH_QUERIES = (
    ("s3-eq", "1,1,1;12", "1,1,1;12", "any", False,
     "three equal weights give heavy row symmetry: 712 results"),
    ("s4-eq", "1,1,1,1;4", "1,1,1,1;4", "any", False,
     "10,147 complete arrangements collapse to 465 results, and "
     "canonicalize tries 24 permutations for each"),
    ("s4-mixed", "2,3,4,5;20", "2,3,4,5;20", "any", False,
     "distinct weights give little symmetry: 55 results"),
    ("s3-empty", "1,1,1;12", "1,1,2;12", "any", False,
     "no square couples the pair: pure pruning, never reaching admit, "
     "canonicalize or classify"),
    ("s3-filtered", "1,1,1;12", "1,1,1;12", "primitive", True,
     "all 712 multisets are classified and none is kept: wasted "
     "classification work"),
)

# Self-searched systems whose squares join the catalog squares in the
# analyze universe.  1,1,1,1;4 has virtual weight 0, so C - 1 is singular
# for all its squares: 278 of them have det C != 0 and are the known
# partner-recovery defect.
ANALYZE_SYSTEMS = ("1,1,1;12", "1,1,1,1;4", "2,3,4,5;20", "1,1,2;12",
                   "1,2,3,4;12")


def _filtered(arrangement, wa, wb, flt, strong):
    label = oracle.classification(arrangement, wa, wb)
    if flt == "primitive" and label != "primitive":
        return False
    if flt == "almost_primitive" and label == "plain":
        return False
    return oracle.is_strong(arrangement) or not strong


def search_references():
    out = []
    for name, wa_text, wb_text, flt, strong, why in SEARCH_QUERIES:
        wa, wb = oracle.parse_system(wa_text), oracle.parse_system(wb_text)
        found = oracle.brute_force(wa, wb).values()
        results = sorted((arr for arr in found
                          if _filtered(arr, wa, wb, flt, strong)),
                         key=lambda arr: tuple(c for row in arr for c in row),
                         reverse=True)
        out.append({"name": name, "wa": wa_text, "wb": wb_text,
                    "filter": flt, "strong": strong, "why": why,
                    "results": [[list(row) for row in arr]
                                for arr in results]})
        print(f"{name}: {len(results)} results", file=sys.stderr)
    return out


def _item(source, wa, wb, entries):
    d = oracle.det(entries)
    return {"source": source,
            "wa": oracle.system_text(*wa), "wb": oracle.system_text(*wb),
            "monomials": oracle.monomials(entries),
            "entries": [list(row) for row in entries],
            "det": d,
            "defect": d != 0 and oracle.det(oracle.minus_one(entries)) == 0}


def analyze_universe():
    items = []
    for record in json.loads(CATALOG.read_text(encoding="utf-8"))["entries"]:
        wa = (tuple(record["weights"]), record["degree"])
        wb = (tuple(record["partner_weights"]), record["partner_degree"])
        if 0 in wa[0] or 0 in wb[0]:
            continue
        entries = oracle.parse_monomials(record["monomials"], len(wa[0]))
        source = f"catalog {record['table']}#{record['seq']}"
        if not oracle.couples(entries, wa, wb):
            raise SystemExit(f"{source}: the matrix does not couple its pair")
        items.append(_item(source, wa, wb, entries))
    for text in ANALYZE_SYSTEMS:
        w = oracle.parse_system(text)
        for arrangement in sorted(oracle.brute_force(w, w).values()):
            items.append(_item(f"self {text}", w, w, arrangement))
    return items


def _write(name, document):
    path = Path(__file__).resolve().parent / "data" / name
    path.write_text(json.dumps(document, separators=(",", ":")) + "\n",
                    encoding="utf-8")


def main():
    universe = analyze_universe()
    _write("analyze.json", {
        "generated_by": "python3 perfbench/make_data.py",
        "why": "the catalog squares with positive weights, whose weight "
               "systems are nearly all distinct, and every square of five "
               "pinned self-searches, whose row systems repeat heavily; "
               "1,1,1,1;4 has virtual weight 0 and holds the 278 squares "
               "with det C != 0 and singular C - 1",
        "systems": list(ANALYZE_SYSTEMS),
        "universe": universe,
        "default_seed": workloads.DEFAULT_SEED,
        "default_pool": workloads.analyze_pool(universe,
                                               workloads.DEFAULT_SEED),
    })
    print(f"analyze: {len(universe)} squares in the universe", file=sys.stderr)
    _write("search.json", {
        "generated_by": "python3 perfbench/make_data.py",
        "queries": search_references(),
    })


if __name__ == "__main__":
    main()
