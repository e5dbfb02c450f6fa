"""Newton diagrams, the extended simplex of a weight system, and exact
polar duality.

The extended simplex cones the full Newton diagram at the origin and
shifts everything by (-1, ..., -1).  The polar dual of a full simplex
is read off one exact inverse of its vertex matrix bordered by a column
of ones, and the closed form (e_1, ..., e_n, (-a_1/a_0, ..., -a_n/a_0))
is available for comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg, magic
from .errors import DomainError, SingularMatrixError, ValidationError
from .weights import WeightSystem, _Value

Point = tuple[Fraction, ...]


def _coordinate(x, i: int, j: int) -> Fraction:
    """Coordinate j of vertex i, which must be an int (not a bool) or a
    Fraction, as a Fraction."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise ValidationError(
        f"coordinate {j + 1} of vertex {i + 1} is {x!r}, "
        "not an int or a Fraction")


class RationalSimplex(_Value):
    """A full simplex: n+1 distinct vertices with exact rational
    coordinates in dimension n, each given as an int or a Fraction.

    Construction checks all of this and stores every coordinate as a
    Fraction.  Only `extended_diagram` and `polar_dual`, which build n+1
    distinct tuples of n Fractions by construction, skip the checks
    (through ``_trusted``).  A simplex keeps its polar dual (``_kept``).
    """

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]):
        vertices = tuple(
            tuple(_coordinate(x, i, j) for j, x in enumerate(v))
            for i, v in enumerate(vertices)
        )
        super().__init__(vertices)
        if not vertices:
            raise ValidationError("a simplex needs at least one vertex")
        n = len(vertices[0])
        if any(len(v) != n for v in vertices):
            raise ValidationError("vertices must share one dimension")
        if len(vertices) != n + 1:
            raise ValidationError(
                f"expected {n + 1} vertices in dimension {n}, "
                f"got {len(vertices)}"
            )
        if len(set(vertices)) != len(vertices):
            raise ValidationError("vertices must be pairwise distinct")

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])

    def __str__(self) -> str:
        return "{" + ", ".join(
            "(" + ", ".join(str(x) for x in v) + ")" for v in self.vertices
        ) + "}"


@lru_cache(maxsize=64)
def extended_diagram(wa: WeightSystem) -> RationalSimplex:
    """The full Newton diagram coned at the origin and shifted by -1.

    Vertices are (-1 + h/a_i) e_i - (1,...,1) for each weight, followed
    by (-1, ..., -1) for the coned origin.  They are pairwise distinct:
    coordinate i is h/a_i - 1 > -1 on vertex i and -1 on every other.
    Equal systems share one simplex and its kept polar dual (the last 64).
    """
    if 0 in wa.weights:
        raise ValidationError("the extended diagram needs strictly positive weights")
    if wa.a0 == 0:
        raise ValidationError(
            f"{wa} has virtual weight 0; the origin degenerates onto a facet"
        )
    n = wa.n
    h = wa.degree
    minus_one = Fraction(-1)
    vertices = [tuple(Fraction(h - a, a) if j == i else minus_one
                      for j in range(n)) for i, a in enumerate(wa.weights)]
    vertices.append((minus_one,) * n)
    return RationalSimplex._trusted(tuple(vertices))


def polar_dual(s: RationalSimplex) -> RationalSimplex:
    """The polar dual simplex, dual vertex i opposite primal vertex i.

    Requires the origin strictly inside the simplex.  The dual, or either
    refusal, is kept on ``s``, so ``s`` is eliminated once.  One inverse
    W of M = [V | 1], the vertex rows bordered by a column of ones, gives
    everything.  Its last row is the barycentric vector lam of the
    origin, since lam^T M = (0, ..., 0, 1).
    Column i of W is (u_i, t_i) with <v_j, u_i> + t_i = delta_ij, so
    dual vertex y_i = u_i / lam_i satisfies <v_j, y_i> = -1 for j != i
    and <v_i, y_i> = (1 - lam_i) / lam_i, which exceeds -1 exactly when
    lam_i > 0.  Hence lam > 0 is the whole interior test, and every
    defining inequality <v, y> >= -1 holds without a second check.  The
    dual vertices are pairwise distinct, since <v_i, y_i> > -1 while
    <v_i, y_j> = -1 for j != i.

    W is read on ints, as the block D = d * W of linalg.eliminate: every
    D_ni has the sign of d, and each coordinate is the Fraction D_ki / D_ni.
    """
    return s._kept("_polar_dual", _polar_dual, (ValidationError, DomainError))


def _polar_dual(s: RationalSimplex) -> RationalSimplex:
    n = s.dimension
    identity = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    try:
        d, w = linalg.eliminate([v + (1,) for v in s.vertices], identity)
    except SingularMatrixError:
        raise ValidationError(
            "degenerate simplex: vertices are affinely dependent"
        ) from None
    lam = w[n]
    if any(l * d <= 0 for l in lam):
        raise DomainError(
            "the origin is not in the interior of the simplex, "
            "so the polar dual is not a simplex"
        )
    return RationalSimplex._trusted(tuple(
        tuple(Fraction(w[k][i], lam[i]) for k in range(n)) for i in range(n + 1)
    ))


def closed_form_dual(wa: WeightSystem) -> RationalSimplex:
    """The closed form of polar_dual(extended_diagram(wa)): the standard
    basis vectors followed by (-a_1/a_0, ..., -a_n/a_0)."""
    if 0 in wa.weights:
        raise ValidationError("the closed form needs strictly positive weights")
    if wa.a0 == 0:
        raise ValidationError(f"{wa} has virtual weight 0; the dual is unbounded")
    n = wa.n
    vertices = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    vertices.append(tuple(Fraction(-a, wa.a0) for a in wa.weights))
    return RationalSimplex(tuple(vertices))


def verify_duality_identity(ms: magic.MagicSquare) -> bool:
    """True iff A*C equals E + A*1 exactly, for A the inverse of C - 1.

    Entry (i, j) of the right-hand side is delta_ij + a_i/a_0, so the
    check says the columns of C, expressed in the basis of A's rows,
    form a Newton diagram of the partner weight system.

    It runs on ints: for the kept inverse A = N/d (d the lcm of its
    denominators) it tests a0 (N C)_ij = a0 d delta_ij + d a_i, the same
    identity times a0 d; a0 != 0 wherever A exists.
    """
    d, numerators = linalg.common_denominator(magic.inverse_data(ms).a)
    columns = tuple(zip(*ms.entries))
    a0 = ms.wa.a0
    return all(
        a0 * sum(x * c for x, c in zip(row, column))
        == (a0 * d if i == j else 0) + d * a
        for i, (row, a) in enumerate(zip(numerators, ms.wa.weights))
        for j, column in enumerate(columns)
    )
