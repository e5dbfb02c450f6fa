from __future__ import annotations

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from weightmagic import (DomainError, MagicSquare, RationalSimplex,
                         SingularMatrixError, ValidationError, WeightSystem,
                         closed_form_dual, extended_diagram, inverse_data,
                         parse_weight_system, polar_dual, validate,
                         verify_duality_identity)
from weightmagic import linalg

from support import KERNEL_SQUARES, mat_mul, reference_solve

W6 = parse_weight_system("2,3;6")
W42 = parse_weight_system("6,14,21;42")


def reference_polar_dual(s):
    """Vertex by vertex, the reference for polar_dual: solve for the
    barycentric coordinates of the origin, solve <v_j, y> = -1 (j != i)
    for each dual vertex, then check every defining inequality."""
    n = s.dimension
    if len(s.vertices) != n + 1:
        raise ValidationError(
            f"polar duals are computed for full simplices only "
            f"({n + 1} vertices in dimension {n}, got {len(s.vertices)})"
        )
    rows = [tuple(v[coord] for v in s.vertices) for coord in range(n)]
    rows.append((1,) * (n + 1))
    try:
        lam = reference_solve(tuple(rows), (0,) * n + (1,))
    except SingularMatrixError:
        raise ValidationError(
            "degenerate simplex: vertices are affinely dependent"
        ) from None
    if any(l <= 0 for l in lam):
        raise DomainError(
            "the origin is not in the interior of the simplex, "
            "so the polar dual is not a simplex"
        )
    duals = [
        reference_solve(tuple(v for j, v in enumerate(s.vertices) if j != i),
                        (-1,) * n)
        for i in range(n + 1)
    ]
    for v in s.vertices:
        for y in duals:
            if sum(a * b for a, b in zip(v, y)) < -1:
                raise DomainError("polar dual violates its defining inequalities")
    return RationalSimplex(tuple(duals))


def reference_duality_identity(ms):
    """The Fraction body of ``verify_duality_identity``: the product A*C
    against E + A*1, entry (i, j) being delta_ij + a_i/a0."""
    product = mat_mul(inverse_data(ms).a, ms.entries)
    a0 = ms.wa.a0
    n = ms.n
    expected = tuple(
        tuple((1 if i == j else 0) + Fraction(ms.wa.weights[i], a0)
              for j in range(n))
        for i in range(n)
    )
    return product == expected


def outcome(f, s):
    """The dual's vertices, or the type and message of the exception."""
    try:
        return f(s).vertices
    except (ValidationError, DomainError) as exc:
        return type(exc), str(exc)


def assert_dual_inequalities(s, dual):
    for v in s.vertices:
        for y in dual.vertices:
            assert sum(a * b for a, b in zip(v, y)) >= -1


def random_simplices(n, fractions, seed, trials=300):
    """Seeded random full simplices (n+1 vertices) in dimension n with
    small int or Fraction coordinates, duplicates skipped.  Each simplex
    with n >= 2 also comes with an affinely dependent twin whose last
    vertex is 2 v_0 - v_1."""
    rng = random.Random(seed)

    def coord():
        if fractions:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return rng.randint(-3, 3)

    out = []
    for _ in range(trials):
        vertices = [tuple(coord() for _ in range(n)) for _ in range(n + 1)]
        candidates = [vertices]
        if n >= 2:
            candidates.append(vertices[:-1] + [
                tuple(2 * a - b for a, b in zip(vertices[0], vertices[1]))])
        for vs in candidates:
            if len(set(vs)) == n + 1:
                out.append(RationalSimplex(tuple(vs)))
    return out


class TestRationalSimplex:
    def test_coerces_to_fractions(self):
        s = RationalSimplex(((1, 0), (0, 1), (-1, -1)))
        assert s.vertices == ((Fraction(1), Fraction(0)),
                              (Fraction(0), Fraction(1)),
                              (Fraction(-1), Fraction(-1)))
        assert s.dimension == 2

    def test_keeps_fractions_as_given(self):
        third = Fraction(1, 3)
        s = RationalSimplex(((third, 0), (0, 1), (-1, -1)))
        assert s.vertices[0][0] is third

    @pytest.mark.parametrize("bad", [0.1, "1/3", True, Decimal("0.5")],
                             ids=["float", "str", "bool", "Decimal"])
    def test_refuses_other_coordinates(self, bad):
        with pytest.raises(ValidationError,
                           match=r"^coordinate 2 of vertex 3 is "
                                 + re.escape(repr(bad))
                                 + ", not an int or a Fraction$"):
            RationalSimplex(((1, 0), (0, 1), (-1, bad)))

    def test_str(self):
        s = RationalSimplex(((2, -1), (-1, 1), (-1, -1)))
        assert str(s) == "{(2, -1), (-1, 1), (-1, -1)}"

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            RationalSimplex(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValidationError):
            RationalSimplex(((1, 0), (0, 1, 0)))

    def test_rejects_wrong_vertex_count(self):
        with pytest.raises(ValidationError):
            RationalSimplex(((1, 0),))

    def test_requires_full_simplex(self):
        with pytest.raises(ValidationError,
                           match=r"^expected 3 vertices in dimension 2, "
                                 r"got 2$"):
            RationalSimplex(((1, 0), (0, 1)))

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValidationError):
            RationalSimplex(((1, 0), (1, 0), (0, 1)))


class TestExtendedDiagram:
    def test_two_variable_system(self):
        assert extended_diagram(W6) == RationalSimplex(
            ((2, -1), (-1, 1), (-1, -1)))

    def test_three_variable_system(self):
        assert extended_diagram(W42) == RationalSimplex(
            ((6, -1, -1), (-1, 2, -1), (-1, -1, 1), (-1, -1, -1)))

    def test_fractional_vertices(self):
        s = extended_diagram(parse_weight_system("4,10,15;30"))
        assert s.vertices[0] == (Fraction(13, 2), -1, -1)

    def test_rejects_zero_virtual_weight(self):
        with pytest.raises(ValidationError,
                           match="1,2,3;6 has virtual weight 0; the origin "
                                 "degenerates onto a facet"):
            extended_diagram(parse_weight_system("1,2,3;6"))

    def test_rejects_zero_weight(self):
        w = WeightSystem((2, 3, 0), 6)
        with pytest.raises(ValidationError, match="positive"):
            extended_diagram(w)


class TestPolarDual:
    def test_matches_closed_form_in_two_variables(self):
        assert polar_dual(extended_diagram(W6)) == closed_form_dual(W6) \
            == RationalSimplex(((1, 0), (0, 1), (-2, -3)))

    def test_matches_closed_form_in_three_variables(self):
        assert polar_dual(extended_diagram(W42)) == closed_form_dual(W42) \
            == RationalSimplex(((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                (-6, -14, -21)))

    def test_fractional_dual(self):
        w = parse_weight_system("4,10,13;30")  # virtual weight 3
        dual = closed_form_dual(w)
        assert dual.vertices[-1] == (Fraction(-4, 3), Fraction(-10, 3),
                                     Fraction(-13, 3))
        assert polar_dual(extended_diagram(w)) == dual

    def test_bipolarity(self):
        for w in (W6, W42, parse_weight_system("1,1;3")):
            s = extended_diagram(w)
            assert polar_dual(polar_dual(s)) == s

    def test_unit_dual_for_unit_virtual_weight(self):
        assert closed_form_dual(parse_weight_system("1,1;3")) == \
            RationalSimplex(((1, 0), (0, 1), (-1, -1)))

    def test_origin_must_be_interior(self):
        message = ("the origin is not in the interior of the simplex, "
                   "so the polar dual is not a simplex")
        s = extended_diagram(parse_weight_system("3,4,5;10"))
        with pytest.raises(DomainError, match=message):
            polar_dual(s)
        # origin on a facet: its barycentric coordinate for (0, 1) is 0
        on_facet = RationalSimplex(((1, 0), (0, 1), (-1, 0)))
        with pytest.raises(DomainError, match=message):
            polar_dual(on_facet)
        assert outcome(polar_dual, on_facet) == \
            outcome(reference_polar_dual, on_facet)

    def test_degenerate_simplex(self):
        with pytest.raises(ValidationError, match="degenerate simplex"):
            polar_dual(RationalSimplex(((1, 0), (2, 0), (3, 0))))

    def test_closed_form_rejects_zero_virtual_weight(self):
        with pytest.raises(ValidationError, match="unbounded"):
            closed_form_dual(parse_weight_system("1,2,3;6"))


def counting_eliminate(monkeypatch) -> list:
    """Patch linalg.eliminate to record each matrix it is given."""
    calls = []
    eliminate = linalg.eliminate

    def counting(rows, right):
        calls.append(rows)
        return eliminate(rows, right)

    monkeypatch.setattr(linalg, "eliminate", counting)
    return calls


class TestKeptDual:
    def test_eliminated_once_per_simplex(self, monkeypatch):
        calls = counting_eliminate(monkeypatch)
        s = RationalSimplex(((2, -1), (-1, 1), (-1, -1)))
        dual = polar_dual(s)
        assert polar_dual(s) is dual and len(calls) == 1
        twin = RationalSimplex(s.vertices)
        assert polar_dual(twin) == dual and len(calls) == 2
        assert polar_dual(dual) == s and len(calls) == 3
        assert polar_dual(dual) == s and len(calls) == 3

    @pytest.mark.parametrize("vertices, error, text", [
        pytest.param(((1, 0), (0, 1), (-1, 0)), DomainError,
                     "the origin is not in the interior of the simplex, "
                     "so the polar dual is not a simplex", id="on-facet"),
        pytest.param(((1, 0), (2, 0), (3, 0)), ValidationError,
                     "degenerate simplex: vertices are affinely dependent",
                     id="degenerate"),
    ])
    def test_refusal_kept_on_the_simplex(self, monkeypatch, vertices, error,
                                         text):
        calls = counting_eliminate(monkeypatch)
        s = RationalSimplex(vertices)
        raised = []
        for _ in range(3):
            with pytest.raises(error) as info:
                polar_dual(s)
            raised.append(info.value)
        assert len(calls) == 1
        assert len({id(e) for e in raised}) == 3
        assert {type(e) for e in raised} == {error}
        assert {str(e) for e in raised} == {text}

    def test_equal_systems_share_one_diagram(self, monkeypatch):
        extended_diagram.cache_clear()
        calls = counting_eliminate(monkeypatch)
        w = parse_weight_system("4,10,13;30")
        s = extended_diagram(w)
        assert extended_diagram(WeightSystem(w.weights, w.degree)) is s
        duals = {id(polar_dual(extended_diagram(parse_weight_system(text))))
                 for text in ("4,10,13;30", "4, 10, 13; 30")}
        assert duals == {id(polar_dual(s))} and len(calls) == 1
        assert extended_diagram.cache_info().maxsize == 64

    def test_diagram_refusal_is_raised_afresh(self):
        w = parse_weight_system("1,2,3;6")
        raised = []
        for _ in range(2):
            with pytest.raises(ValidationError) as info:
                extended_diagram(w)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])

    def test_equality_hash_and_repr_ignore_the_dual(self):
        s = extended_diagram(W42)
        polar_dual(s)
        fresh = RationalSimplex(s.vertices)
        assert "_polar_dual" in vars(s) and "_polar_dual" not in vars(fresh)
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh) and str(s) == str(fresh)


class TestPolarDualMatchesReference:
    @pytest.mark.parametrize("fractions", [False, True],
                             ids=["int", "fraction"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_simplices(self, n, fractions):
        seen = set()
        for s in random_simplices(n, fractions,
                                  seed=1000 * n + 10 * (n + 1) + fractions):
            got = outcome(polar_dual, s)
            assert got == outcome(reference_polar_dual, s), s
            if isinstance(got[0], type):
                seen.add(got[1].split(":")[0])
            else:
                seen.add("dual")
                assert_dual_inequalities(s, RationalSimplex(got))
        expected = {
            "dual",
            "the origin is not in the interior of the simplex, "
            "so the polar dual is not a simplex",
        }
        if n > 1:  # two distinct points on a line are affinely independent
            expected.add("degenerate simplex")
        assert seen == expected

    def test_every_catalog_diagram(self, catalog):
        systems = {w for entry in catalog
                   for w in (entry.weights, entry.partner_weights)}
        compared = 0
        for w in systems:
            try:
                s = extended_diagram(w)
            except ValidationError:
                continue
            got = outcome(polar_dual, s)
            assert got == outcome(reference_polar_dual, s), w
            if not isinstance(got[0], type):
                assert_dual_inequalities(s, RationalSimplex(got))
            compared += 1
        assert compared


class TestTrustedSimplices:
    def test_every_catalog_system(self, catalog):
        # extended_diagram and polar_dual skip RationalSimplex's checks;
        # what they build passes them and is stored unchanged by them
        systems = {w for entry in catalog
                   for w in (entry.weights, entry.partner_weights)}
        diagrams, duals = [], []
        for w in systems:
            try:
                diagrams.append(extended_diagram(w))
            except ValidationError:
                continue
            try:
                duals.append(polar_dual(diagrams[-1]))
            except DomainError:
                pass
        assert diagrams and duals
        for s in diagrams + duals:
            checked = RationalSimplex(s.vertices)
            assert checked == s and repr(checked) == repr(s)
            assert type(s.vertices) is tuple
            assert all(type(v) is tuple for v in s.vertices)
            assert all(type(x) is Fraction for v in s.vertices for x in v)


class TestDualityIdentity:
    def test_diagonal_square(self):
        square = validate(((7, 0, 0), (0, 3, 0), (0, 0, 2)), W42, W42)
        assert verify_duality_identity(square)
        data = inverse_data(square)
        assert mat_mul(data.a, square.entries) == (
            (7, 6, 6), (14, 15, 14), (21, 21, 22))

    def test_coupled_pair(self):
        square = validate(((5, 0, 1), (1, 3, 0), (0, 0, 2)),
                          parse_weight_system("1,3,5;10"),
                          parse_weight_system("4,10,13;30"))
        assert verify_duality_identity(square)

    def test_every_catalog_square(self, catalog):
        for entry in catalog:
            assert verify_duality_identity(entry.square), entry.label

    def test_matches_the_fraction_reference(self):
        # each square, and a twin bound to its row weights rotated, on
        # which the identity fails unless the weights are all equal
        verdicts = []
        for ms in KERNEL_SQUARES:
            w = ms.wa.weights
            twin = MagicSquare._trusted(
                ms.entries, WeightSystem(w[1:] + w[:1], ms.wa.degree), ms.wb)
            for square in (ms, twin):
                try:
                    got = verify_duality_identity(square)
                except SingularMatrixError as exc:
                    with pytest.raises(SingularMatrixError) as reference:
                        reference_duality_identity(square)
                    assert str(reference.value) == str(exc)
                    got = "singular"
                else:
                    assert got is reference_duality_identity(square), \
                        square.entries
                verdicts.append((got, square.wa.a0))
        assert {got for got, _ in verdicts} == {True, False, "singular"}
        assert {a0 for got, a0 in verdicts if got is True} >= {-1, 1, 3}

    def test_reads_the_kept_inverse(self, monkeypatch):
        square = validate(((5, 0, 1), (1, 3, 0), (0, 0, 2)),
                          parse_weight_system("1,3,5;10"),
                          parse_weight_system("4,10,13;30"))
        data = inverse_data(square)
        inverted = []
        original = linalg.inverse

        def counting(rows):
            inverted.append(rows)
            return original(rows)

        monkeypatch.setattr(linalg, "inverse", counting)
        assert verify_duality_identity(square)
        assert inverse_data(square) is data
        assert inverted == []

    def test_inverts_once_when_it_runs_first(self, monkeypatch):
        # the identity reads the square's kept (d, N) without building
        # the inverse data, which later reads the same (d, N)
        inverted = []
        original = linalg.inverse

        def counting(rows):
            inverted.append(rows)
            return original(rows)

        monkeypatch.setattr(linalg, "inverse", counting)
        square = validate(((5, 0, 1), (1, 3, 0), (0, 0, 2)),
                          parse_weight_system("1,3,5;10"),
                          parse_weight_system("4,10,13;30"))
        assert verify_duality_identity(square)
        assert "_inverse_data" not in square.__dict__
        assert inverse_data(square).recovered_wb == square.wb
        assert len(inverted) == 1
