"""Reference arithmetic for the benchmark's correctness checks.

Nothing here imports ``weightmagic``.  Every answer the benchmark checks
against is computed by these functions with algorithms that differ from
the package's: Leibniz determinants instead of cofactor expansion, a
brute-force product scan instead of the pruned depth-first search, and
binomial series instead of in-place passes.  Weight systems are plain
``(weights, degree)`` pairs of ints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd


def parse_system(text):
    """``"a1,...,an;h"`` -> ``((a1, ..., an), h)``."""
    weights, degree = text.split(";")
    return tuple(int(a) for a in weights.split(",")), int(degree)


def system_text(weights, degree):
    return ",".join(str(a) for a in weights) + f";{degree}"


def reduced(weights, degree):
    """Divide out the weight gcd and sort ascending."""
    g = gcd(*weights)
    return tuple(sorted(a // g for a in weights)), degree // g


def rows_for(weights, degree):
    """Every non-negative integer row c with sum(c_j * a_j) = degree."""
    ranges = [range(degree // a + 1) for a in weights]
    return [c for c in product(*ranges)
            if sum(x * a for x, a in zip(c, weights)) == degree]


def columns_ok(arrangement, weights, degree):
    return all(sum(b * row[j] for b, row in zip(weights, arrangement)) == degree
               for j in range(len(arrangement[0])))


def couples(m, wa, wb):
    """Both defining relations: a-weighted rows sum to h, b-weighted
    columns to k, and every entry is a non-negative int."""
    return (all(isinstance(c, int) and c >= 0 for row in m for c in row)
            and len(m) == len(wa[0]) == len(wb[0])
            and all(len(row) == len(m) for row in m)
            and columns_ok(tuple(zip(*m)), *wa) and columns_ok(m, *wb))


def brute_force(wa, wb):
    """Map each coupled row multiset to its greatest valid arrangement.

    Scans every ordered tuple of rows, with no pruning, so it shares no
    logic with the package's search.
    """
    (a, h), (b, k) = wa, wb
    found = {}
    for arrangement in product(rows_for(a, h), repeat=len(a)):
        if columns_ok(arrangement, b, k):
            key = tuple(sorted(arrangement))
            if key not in found or arrangement > found[key]:
                found[key] = arrangement
    return found


def _sign(perm):
    inversions = sum(1 for i in range(len(perm))
                     for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def det(m):
    """Leibniz formula: a sum over all permutations."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = _sign(perm)
        for i in range(n):
            term *= m[i][perm[i]]
            if not term:
                break
        total += term
    return total


def is_strong(m):
    return all(0 in row for row in m) and all(0 in col for col in zip(*m))


def classification(m, wa, wb):
    """The README's rules: primitive, almost_primitive or plain."""
    (a, h), (b, k) = wa, wb
    d = abs(det(m))
    if d == h == k:
        return "primitive"
    if d == h * (k - sum(b)) == k * (h - sum(a)):
        return "almost_primitive"
    return "plain"


def minus_one(m):
    return tuple(tuple(c - 1 for c in row) for row in m)


def monomials(m):
    """Write exponent rows as ``x^5z, xy^3, z^2``."""
    parts = []
    for row in m:
        factors = []
        for var, e in zip("xyzt", row):
            if e == 1:
                factors.append(var)
            elif e > 1:
                factors.append(f"{var}^{{{e}}}" if e > 9 else f"{var}^{e}")
        parts.append("".join(factors) or "1")
    return ", ".join(parts)


_MONOMIAL_FACTOR = re.compile(r"([xyzt])(?:\^\{?(\d+)\}?)?")


def parse_monomials(text, n):
    """Read ``x^{21}z, xy^3, z^2`` (x, y, z, t variables) into exponent rows."""
    rows = []
    for mono in text.split(","):
        row = [0] * n
        for m in _MONOMIAL_FACTOR.finditer(mono.strip()):
            row["xyzt".index(m.group(1))] = int(m.group(2) or 1)
        rows.append(tuple(row))
    return tuple(rows)


def closed_form_dual(weights, degree):
    """Vertices e_1, ..., e_n, (-a_1/a_0, ..., -a_n/a_0) of the polar dual."""
    n = len(weights)
    a0 = degree - sum(weights)
    vertices = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    vertices.append(tuple(Fraction(-a, a0) for a in weights))
    return tuple(vertices)


def saito_dual(factors, h):
    """Map (order, exponent) pairs to (h/order, -exponent), merged."""
    merged = {}
    for order, e in factors:
        if h % order:
            return None
        merged[h // order] = merged.get(h // order, 0) - e
    return tuple(sorted((o, e) for o, e in merged.items() if e))


def series(factors, max_degree):
    """Coefficients of prod (1 - t^l)^a through max_degree.

    Each factor is expanded by the binomial theorem (negative exponents by
    the negative binomial series) and multiplied in as a polynomial.
    """
    coeffs = [1] + [0] * max_degree
    for order, e in factors:
        if e > 0:
            terms = {order * i: (-1) ** i * comb(e, i) for i in range(e + 1)}
        else:
            terms = {order * i: comb(-e + i - 1, i)
                     for i in range(max_degree // order + 1)}
        coeffs = [sum(c * coeffs[d - s] for s, c in terms.items() if s <= d)
                  for d in range(max_degree + 1)]
    return coeffs


_FACTOR = re.compile(r"\(1-t(?:\^(\d+))?\)(?:\^(\d+))?")


def parse_product(text):
    """Read ``(1-t^2)(1-t^10)^2 / (1-t)`` back into (order, exponent) pairs."""
    num, _, den = text.partition(" / ")
    pairs = []
    for part, sign in ((num, 1), (den, -1)):
        if part in ("", "1"):
            continue
        consumed = 0
        for m in _FACTOR.finditer(part):
            if m.start() != consumed:
                raise ValueError(f"cannot read {text!r}")
            consumed = m.end()
            pairs.append((int(m.group(1) or 1), sign * int(m.group(2) or 1)))
        if consumed != len(part):
            raise ValueError(f"cannot read {text!r}")
    return tuple(sorted(pairs))
