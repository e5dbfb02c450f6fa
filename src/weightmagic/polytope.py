"""Newton diagrams, the extended simplex of a weight system, and exact
polar duality.

The extended simplex cones the full Newton diagram at the origin and
shifts everything by (-1, ..., -1).  The polar dual of a full simplex
is read off one exact inverse of its vertex matrix bordered by a column
of ones, and the closed form (e_1, ..., e_n, (-a_1/a_0, ..., -a_n/a_0))
is available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, magic
from .errors import DomainError, SingularMatrixError, ValidationError
from .weights import WeightSystem

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class RationalSimplex:
    """A full simplex: n+1 distinct vertices with exact rational
    coordinates in dimension n."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        vertices = tuple(
            tuple(Fraction(x) for x in v) for v in self.vertices
        )
        object.__setattr__(self, "vertices", vertices)
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


def extended_diagram(wa: WeightSystem) -> RationalSimplex:
    """The full Newton diagram coned at the origin and shifted by -1.

    Vertices are (-1 + h/a_i) e_i - (1,...,1) for each weight, followed
    by (-1, ..., -1) for the coned origin.
    """
    if 0 in wa.weights:
        raise ValidationError("the extended diagram needs strictly positive weights")
    if wa.a0 == 0:
        raise ValidationError(
            f"{wa} has virtual weight 0; the origin degenerates onto a facet"
        )
    n = wa.n
    h = wa.degree
    vertices = [
        tuple(
            Fraction(h, a) - 1 if j == i else Fraction(-1)
            for j in range(n)
        )
        for i, a in enumerate(wa.weights)
    ]
    vertices.append(tuple(Fraction(-1) for _ in range(n)))
    return RationalSimplex(tuple(vertices))


def polar_dual(s: RationalSimplex) -> RationalSimplex:
    """The polar dual simplex, dual vertex i opposite primal vertex i.

    Requires the origin strictly inside the simplex.  One exact inverse
    W of M = [V | 1], the vertex rows bordered by a column of ones, gives
    everything.  Its last row is the
    barycentric vector lam of the origin, since lam^T M = (0, ..., 0, 1).
    Column i of W is (u_i, t_i) with <v_j, u_i> + t_i = delta_ij, so
    dual vertex y_i = u_i / lam_i satisfies <v_j, y_i> = -1 for j != i
    and <v_i, y_i> = (1 - lam_i) / lam_i, which exceeds -1 exactly when
    lam_i > 0.  Hence lam > 0 is the whole interior test, and every
    defining inequality <v, y> >= -1 holds without a second check.
    """
    n = s.dimension
    try:
        w = linalg.inverse(tuple(v + (1,) for v in s.vertices))
    except SingularMatrixError:
        raise ValidationError(
            "degenerate simplex: vertices are affinely dependent"
        ) from None
    lam = w[n]
    if any(l <= 0 for l in lam):
        raise DomainError(
            "the origin is not in the interior of the simplex, "
            "so the polar dual is not a simplex"
        )
    return RationalSimplex(tuple(
        tuple(w[k][i] / lam[i] for k in range(n)) for i in range(n + 1)
    ))


def closed_form_dual(wa: WeightSystem) -> RationalSimplex:
    """The closed form of polar_dual(extended_diagram(wa)): the standard
    basis vectors followed by (-a_1/a_0, ..., -a_n/a_0)."""
    if 0 in wa.weights:
        raise ValidationError("the closed form needs strictly positive weights")
    if wa.a0 == 0:
        raise ValidationError(f"{wa} has virtual weight 0; the dual is unbounded")
    n = wa.n
    vertices = [
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        for i in range(n)
    ]
    vertices.append(tuple(Fraction(-a, wa.a0) for a in wa.weights))
    return RationalSimplex(tuple(vertices))


def verify_duality_identity(ms: magic.MagicSquare) -> bool:
    """True iff A*C equals E + A*1 exactly, for A the inverse of C - 1.

    Entry (i, j) of the right-hand side is delta_ij + a_i/a_0, so the
    check says the columns of C, expressed in the basis of A's rows,
    form a Newton diagram of the partner weight system.
    """
    data = magic.inverse_data(ms)
    product = linalg.mat_mul(data.a, ms.entries)
    a0 = ms.wa.a0
    n = ms.n
    expected = tuple(
        tuple(
            (1 if i == j else 0) + Fraction(ms.wa.weights[i], a0)
            for j in range(n)
        )
        for i in range(n)
    )
    return product == expected
