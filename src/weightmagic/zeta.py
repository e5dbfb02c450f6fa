"""Monodromy zeta functions of weighted magic squares.

A finite product of cyclotomic-style factors (1 - t^l)^a carries the
reduced zeta function of the monodromy, its Saito dual, and the
characteristic polynomial.  The exponents come from the special column
subsets of the square: J is special when exactly |J| rows are supported
inside the columns J, and each special J contributes the factor
(1 - t^(h/a_J)) raised to (-1)^(|J|+1) * a_J * |det C_IJ| / h.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .errors import DegenerateSupportError, DomainError, ValidationError
from .magic import MagicSquare, classify
from .weights import MAX_WEIGHTS, MIN_WEIGHTS, _Value, is_calabi_yau


class CyclotomicProduct(_Value):
    """A finite product prod (1 - t^l)^a_l with integer exponents.

    The constructor takes (order, exponent) pairs in any order.  It merges
    the exponents of equal orders, drops zero exponents and stores the
    factors ascending in the order, so equal products have equal factors;
    the empty product is the constant 1.
    """

    _fields = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...] = ()):
        merged: dict[int, int] = {}
        for l, a in factors:
            if type(l) is not int or type(a) is not int:
                raise ValidationError(
                    f"orders and exponents must be integers, got {(l, a)}")
            if l < 1:
                raise ValidationError(f"orders must be positive, got {l}")
            merged[l] = merged.get(l, 0) + a
        super().__init__(tuple(sorted((l, a) for l, a in merged.items() if a)))

    @property
    def degree(self) -> int:
        """Sum of order * exponent: the degree when the product is a
        polynomial, and in general the order of vanishing scale."""
        return sum(l * a for l, a in self.factors)

    @property
    def exponent_sum(self) -> int:
        return sum(a for _, a in self.factors)

    def inverse(self) -> CyclotomicProduct:
        return CyclotomicProduct((l, -a) for l, a in self.factors)

    def __str__(self) -> str:
        def render(sub) -> str:
            parts = []
            for l, a in sub:
                base = "(1-t)" if l == 1 else f"(1-t^{l})"
                parts.append(base if abs(a) == 1 else f"{base}^{abs(a)}")
            return "".join(parts)

        num = render([f for f in self.factors if f[1] > 0])
        den = render([f for f in self.factors if f[1] < 0])
        if not num and not den:
            return "1"
        if not den:
            return num
        return f"{num or '1'} / {den}"


class SpecialSubsetReport(_Value):
    """One special column subset J with its factor data.

    Columns and rows are reported 1-based.  det_cij is |det C_IJ| (1 for
    the empty subset), order is h/a_J, and exponent the integer
    (-1)^(|J|+1) * a_J * det_cij / h.
    """

    _fields = ("j", "i", "a_j", "det_cij", "order", "exponent")


#: For each n, every subset J of {0..n-1}, ordered by size, then
#: lexicographically, with the bitmask of the columns outside J.
_SUBSETS = {n: tuple((j, ~sum(1 << c for c in j))
                     for size in range(n + 1)
                     for j in combinations(range(n), size))
            for n in range(MIN_WEIGHTS, MAX_WEIGHTS + 1)}


def special_subsets(ms: MagicSquare) -> tuple[SpecialSubsetReport, ...]:
    """All special column subsets of the square, smallest first.

    J is special when |I(J)| = |J| for I(J) = {rows supported inside J},
    read off int bitmasks of the row supports; the empty set and the full
    set always are.  |I(J)| > |J| means the defining formula would depend
    on an arbitrary choice of rows, so it is a hard error rather than a
    silent pick; it cannot happen for the full set, whose I(J) holds
    exactly the n rows.

    On a valid square the order and the exponent are integers, so neither
    is checked.  A row of I(J) vanishes outside J, so
    h = sum_{j in J} c_ij a_j and a_J | h.  C_IJ (a_j)_{j in J} =
    h (1, ..., 1), so by Cramer's rule det(C_IJ) a_j = h det(M_j) for an
    integer matrix M_j; h divides every det(C_IJ) a_j, hence, by Bezout
    on a_J = gcd(a_j), also det(C_IJ) a_J.  For the full set C_IJ is C,
    whose determinant is read off the square's kept `classify` report.

    The tuple is kept on the square, and so is the refusal.
    """
    return ms._kept("_special_subsets", _special_subsets,
                    (DegenerateSupportError, ValidationError))


def _special_subsets(ms: MagicSquare) -> tuple[SpecialSubsetReport, ...]:
    """The special subsets of ms, computed; see `special_subsets`."""
    wa = ms.wa
    if 0 in wa.weights:
        raise ValidationError("special subsets require strictly positive weights")
    if gcd(*wa.weights) != 1:
        raise ValidationError(
            f"special subsets require weights with gcd 1, got {wa}; reduce first"
        )
    n = ms.n
    h = wa.degree
    supports = [sum(1 << c for c, x in enumerate(row) if x)
                for row in ms.entries]
    reports = []
    for j, outside in _SUBSETS[n]:
        i = tuple(r for r, mask in enumerate(supports) if not mask & outside)
        if len(i) > len(j):
            raise DegenerateSupportError(
                f"columns {tuple(c + 1 for c in j)} support rows "
                f"{tuple(r + 1 for r in i)}: more rows than columns, so the "
                "zeta factor would depend on an arbitrary row choice"
            )
        if len(i) != len(j):
            continue
        a_j = h if not j else gcd(*(wa.weights[c] for c in j))
        if not j:
            det = 1
        elif len(j) == n:
            det = abs(classify(ms).determinant)
        else:
            sub = tuple(tuple(ms.entries[r][c] for c in j) for r in i)
            det = abs(linalg.determinant(sub))
        reports.append(SpecialSubsetReport(
            tuple(c + 1 for c in j), tuple(r + 1 for r in i), a_j, det,
            h // a_j, (-1) ** (len(j) + 1) * a_j * det // h))
    return tuple(reports)


def reduced_zeta(ms: MagicSquare) -> CyclotomicProduct:
    """The reduced zeta function: factors (1-t^order)^exponent over all
    special subsets, with exponents at equal orders merged."""
    return CyclotomicProduct((r.order, r.exponent) for r in special_subsets(ms))


def saito_dual(p: CyclotomicProduct, h: int) -> CyclotomicProduct:
    """Map each factor order l to h/l and negate its exponent.

    Defined only when every stored order divides h; applying it twice
    with the same h gives back p.
    """
    if type(h) is not int:
        raise ValidationError(f"the dualizing degree must be an int, got {h!r}")
    if h < 1:
        raise ValidationError(f"the dualizing degree must be positive, got {h}")
    for l, _ in p.factors:
        if h % l:
            raise DomainError(f"order {l} does not divide {h}, so the dual is undefined")
    return CyclotomicProduct((h // l, -a) for l, a in p.factors)


class LatticeInvariants(_Value):
    """mu (rank), mu0 (radical dimension), and, for n = 3 Calabi-Yau row
    weights, the Picard number rho = 22 - (mu - mu0)."""

    _fields = ("mu", "mu0", "rho")


def lattice_invariants(ms: MagicSquare) -> LatticeInvariants:
    """Alternating sums of the special-subset data.

    mu sums (-1)^(|J|+1) |det C_IJ|, mu0 sums the zeta exponents, both
    scaled by (-1)^(n-1).  rho is reported only when n = 3 and the row
    weight system is Calabi-Yau; otherwise it is None.
    """
    reports = special_subsets(ms)
    sign = (-1) ** (ms.n - 1)
    mu = sign * sum((-1) ** (len(r.j) + 1) * r.det_cij for r in reports)
    mu0 = sign * sum(r.exponent for r in reports)
    rho = 22 - (mu - mu0) if ms.n == 3 and is_calabi_yau(ms.wa) else None
    return LatticeInvariants(mu, mu0, rho)


def evaluate_at_one(p: CyclotomicProduct) -> Fraction:
    """Evaluate lim_{t->1} p(t) / (1-t)^0 as the product of l^a_l.

    Requires the exponent sum to vanish (otherwise the limit is 0 or
    infinite).
    """
    s = p.exponent_sum
    if s != 0:
        raise DomainError(
            f"exponent sum {s} is nonzero, so the value at t = 1 is 0 or infinite"
        )
    value = Fraction(1)
    for l, a in p.factors:
        value *= Fraction(l) ** a
    return value


def characteristic_polynomial(ms: MagicSquare) -> CyclotomicProduct:
    """The reduced zeta function raised to (-1)^(n-1): identical to it
    for odd n, its inverse for even n."""
    z = reduced_zeta(ms)
    return z if ms.n % 2 else z.inverse()


def expand_series(p: CyclotomicProduct, max_degree: int) -> list[int]:
    """Coefficients of the formal power series of p through max_degree.

    Each factor (1-t^l) is one backward in-place pass, each (1-t^l)^-1
    one forward pass (the geometric series), so the expansion is exact.
    The factors of order above max_degree, which touch only higher
    degrees, make no pass.
    """
    if type(max_degree) is not int:
        raise ValidationError(f"max_degree must be an int, got {max_degree!r}")
    if max_degree < 0:
        raise ValidationError(f"max_degree must be >= 0, got {max_degree}")
    coeffs = [1] + [0] * max_degree
    for l, a in p.factors:  # ascending in the order
        if l > max_degree:
            break
        for _ in range(abs(a)):
            if a > 0:
                for i in range(max_degree, l - 1, -1):
                    coeffs[i] -= coeffs[i - l]
            else:
                for i in range(l, max_degree + 1):
                    coeffs[i] += coeffs[i - l]
    return coeffs
