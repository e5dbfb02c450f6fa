"""The package's value types behave as immutable records.

For one instance of each of the fourteen value types: its repr, equality
and hash read exactly its declared fields; it refuses assignment and
deletion, and no class re-opens what the base closes; it survives
``copy.copy`` and a pickle round trip; and it can be rebuilt from its
fields by position or by keyword.  Each class declares its fields once:
a class with its own constructor takes exactly those fields, the record
types share the base's, which refuses a wrong set of fields, and the
base's ``_trusted`` builds the value the checked constructor builds.  No
class has a second, public builder.  A value keeps a fact, or a refusal it
re-raises afresh, through the base's ``_kept``, and equality, hash and
repr ignore what it keeps.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from functools import lru_cache

import pytest

from weightmagic import (CatalogEntry, CouplingReport, CriterionResult,
                         CyclotomicProduct, FuchsExpected, FuchsRow,
                         InverseData, LatticeInvariants, MagicSquare,
                         RationalSimplex, Reduction, SpecialSubsetReport,
                         ValidationError, VerificationReport, WeightSystem,
                         classify, find_magic_squares, fuchsian_report,
                         inverse_data, lattice_invariants, load_catalog,
                         parse_monomial_matrix, parse_weight_system,
                         reduce_system, reduced_zeta, special_subsets,
                         validate, verify_entry)
from weightmagic.weights import _Value


@lru_cache(maxsize=None)
def _catalog():
    return load_catalog()


def _e12() -> CatalogEntry:
    return _catalog().lookup("E_12")[0]


def _square() -> MagicSquare:
    return validate(parse_monomial_matrix("x^5z, xy^3, z^2", 3),
                    parse_weight_system("1,3,5;10"),
                    parse_weight_system("4,10,13;30"))


#: One instance of each value type, built afresh on every call.
BUILDERS = {
    "WeightSystem": lambda: WeightSystem((6, 14, 21), 42),
    "Reduction": lambda: reduce_system(WeightSystem((28, 12, 42), 84)),
    "MagicSquare": _square,
    "CouplingReport": lambda: classify(_square()),
    "InverseData": lambda: inverse_data(_e12().square),
    "CyclotomicProduct": lambda: reduced_zeta(_square()),
    "SpecialSubsetReport": lambda: special_subsets(_square())[1],
    "LatticeInvariants": lambda: lattice_invariants(_square()),
    "RationalSimplex": lambda: RationalSimplex(((0, 0), (1, 0), (0, 1))),
    "FuchsExpected": lambda: _catalog().table("Fuchs")[0].expected,
    "CatalogEntry": _e12,
    "VerificationReport": lambda: verify_entry(_e12(), _catalog()),
    "FuchsRow": lambda: fuchsian_report(_catalog())[0],
    "CriterionResult": lambda: CriterionResult(
        1, "table fidelity", True, "120 matrices validated"),
}

#: The repr of each instance above, as the package printed it when its
#: value types were dataclasses.
REPRS = {
    'WeightSystem':
        'WeightSystem(weights=(6, 14, 21), degree=42)',
    'Reduction':
        'Reduction(system=WeightSystem(weights=(6, 14, 21), degree=42), '
        'permutation=(1, 0, 2), scale=Fraction(1, 2))',
    'MagicSquare':
        'MagicSquare(entries=((5, 0, 1), (1, 3, 0), (0, 0, 2)), '
        'wa=WeightSystem(weights=(1, 3, 5), degree=10), '
        'wb=WeightSystem(weights=(4, 10, 13), degree=30))',
    'CouplingReport':
        "CouplingReport(determinant=30, classification='almost_primitive', "
        'strong=True)',
    'InverseData':
        'InverseData(a=((Fraction(1, 1), Fraction(2, 1), Fraction(3, 1)), '
        '(Fraction(2, 1), Fraction(5, 1), Fraction(7, 1)), (Fraction(3, 1),'
        ' Fraction(7, 1), Fraction(11, 1))), '
        'recovered_wa=WeightSystem(weights=(6, 14, 21), degree=42), '
        'recovered_wb=WeightSystem(weights=(6, 14, 21), degree=42))',
    'CyclotomicProduct':
        'CyclotomicProduct(factors=((1, -1), (2, 1), (10, 2)))',
    'SpecialSubsetReport':
        'SpecialSubsetReport(j=(3,), i=(3,), a_j=5, det_cij=2, order=2, '
        'exponent=1)',
    'LatticeInvariants':
        'LatticeInvariants(mu=21, mu0=2, rho=3)',
    'RationalSimplex':
        'RationalSimplex(vertices=((Fraction(0, 1), Fraction(0, 1)), '
        '(Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, '
        '1))))',
    'FuchsExpected':
        'FuchsExpected(mu=21, mu0=2, rho=3, d=2, b0=3, d_star=-6, '
        'mu0_star=0, mu_star=17, nu_star=0)',
    'CatalogEntry':
        "CatalogEntry(table='T2', seq=1, index=14, name='E_12', "
        'weights=WeightSystem(weights=(6, 14, 21), degree=42), '
        "monomials='x^7, y^3, z^2', partner=14, partner_table='T2', "
        'partner_weights=WeightSystem(weights=(6, 14, 21), degree=42), '
        'expected=None, flags=())',
    'VerificationReport':
        "VerificationReport(label='T2#1 no. 14 E_12', table='T2', "
        "determinant=42, classification='primitive', "
        'classification_ok=True, strong=True, strong_ok=True, '
        'inverse_identity_ok=True, zeta_duality_applicable=True, '
        'zeta_duality_ok=True, exponent_outliers=None, fuchs=None, '
        'problems=())',
    'FuchsRow':
        "FuchsRow(label='42/68', mu=21, mu0=2, rho=3, b0=3, mu_star=17, "
        'mu0_star=0, nu_star=0, d_star_abs=6, expected=FuchsExpected(mu=21,'
        ' mu0=2, rho=3, d=2, b0=3, d_star=-6, mu0_star=0, mu_star=17, '
        'nu_star=0), errors=())',
    'CriterionResult':
        "CriterionResult(number=1, title='table fidelity', passed=True, "
        "detail='120 matrices validated')",
}

NAMES = sorted(BUILDERS)

#: The value types that check nothing, built by the base's constructor.
RECORDS = ("CouplingReport", "CriterionResult", "FuchsExpected", "FuchsRow",
           "InverseData", "LatticeInvariants", "Reduction",
           "SpecialSubsetReport", "VerificationReport")


def params(cls) -> list[str]:
    return list(cls._fields)


def fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in params(type(value)))


def test_every_value_type_is_covered():
    assert {type(build()).__name__ for build in BUILDERS.values()} == set(
        BUILDERS)
    assert len(BUILDERS) == len(REPRS) == 14
    assert set(BUILDERS) == {cls.__name__ for cls in _Value.__subclasses__()}


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_unchanged(name):
    assert repr(BUILDERS[name]()) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_repr_shows_the_constructor_parameters(name):
    value = BUILDERS[name]()
    shown = ", ".join(f"{p}={getattr(value, p)!r}"
                      for p in params(type(value)))
    assert repr(value) == f"{name}({shown})"


@pytest.mark.parametrize("name", NAMES)
def test_equality_reads_the_fields_and_the_class(name):
    value, again = BUILDERS[name](), BUILDERS[name]()
    assert value == again and not value != again
    other = BUILDERS[NAMES[NAMES.index(name) - 1]]()
    assert value != other and other != value
    assert value != fields_of(value) and fields_of(value) != value


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_fields(name):
    value, again = BUILDERS[name](), BUILDERS[name]()
    assert hash(value) == hash(again) == hash(fields_of(value))


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_are_refused(name):
    value = BUILDERS[name]()
    first = params(type(value))[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        setattr(value, "unknown", None)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert repr(value) == before


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_give_an_equal_value(name):
    value = BUILDERS[name]()
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == repr(value)


@pytest.mark.parametrize("name", NAMES)
def test_rebuilt_by_position_and_by_keyword(name):
    value = BUILDERS[name]()
    cls, names, values = type(value), params(type(value)), fields_of(value)
    assert cls(*values) == value
    assert cls(**dict(zip(names, values))) == value


def test_constructor_defaults():
    assert CyclotomicProduct() == CyclotomicProduct(())
    assert repr(CyclotomicProduct()) == "CyclotomicProduct(factors=())"
    defaults = {name: p.default for name, p
                in inspect.signature(find_magic_squares).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
    assert defaults == {"filter": "any", "strong_only": False, "cap": 10**6}


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_declared_once(name):
    cls = type(BUILDERS[name]())
    assert "_fields" in vars(cls) and "_trusted" not in vars(cls)
    assert not {"__slots__", "__setattr__", "__delattr__",
                "__hash__"} & vars(cls).keys()
    assert ("__init__" in vars(cls)) == (name not in RECORDS)
    if name not in RECORDS:
        assert tuple(inspect.signature(cls).parameters) == cls._fields


@pytest.mark.parametrize("name", NAMES)
def test_the_constructor_is_the_only_public_builder(name):
    cls = type(BUILDERS[name]())
    public = [attr for klass in cls.__mro__ for attr, member
              in vars(klass).items()
              if isinstance(member, classmethod) and not attr.startswith("_")]
    assert public == []


@pytest.mark.parametrize("name", RECORDS)
def test_record_takes_its_fields_by_position_or_keyword(name):
    value = BUILDERS[name]()
    cls, names, values = type(value), params(type(value)), fields_of(value)
    assert cls(*values[:2], **dict(zip(names[2:], values[2:]))) == value
    for args, kwargs, message in [
            (values[:-1], {}, f"is missing the fields {[names[-1]]}"),
            (values + (None,), {},
             f"takes {len(names)} fields, got {len(names) + 1} by position"),
            (values, {"colour": None}, "has no field 'colour'"),
            (values[:-1], {names[0]: values[0]},
             f"got field {names[0]!r} twice")]:
        with pytest.raises(TypeError) as raised:
            cls(*args, **kwargs)
        assert str(raised.value) == f"{name}() {message}"


@pytest.mark.parametrize("name", ["MagicSquare", "RationalSimplex"])
def test_trusted_builds_the_checked_value(name):
    value = BUILDERS[name]()
    twin = type(value)._trusted(*fields_of(value))
    assert type(twin) is type(value)
    assert twin == value and repr(twin) == repr(value)
    assert str(twin) == str(value)


#: The value types the package keeps facts on, through the base's _kept.
KEEPERS = ["MagicSquare", "RationalSimplex"]


@pytest.mark.parametrize("name", KEEPERS)
def test_a_kept_fact_is_computed_once(name):
    value, again = BUILDERS[name](), BUILDERS[name]()
    computed = []

    def compute(v):
        computed.append(v)
        return object()

    fact = value._kept("_fact", compute)
    assert value._kept("_fact", compute) is fact
    assert computed == [value]
    assert again._kept("_fact", compute) is not fact
    assert value == again and hash(value) == hash(again)
    assert repr(value) == repr(again)


@pytest.mark.parametrize("name", KEEPERS)
def test_a_kept_refusal_is_raised_afresh(name):
    value = BUILDERS[name]()
    computed = []

    def refuse(v):
        computed.append(v)
        raise ValidationError("refused")

    raised = []
    for _ in range(3):
        with pytest.raises(ValidationError) as info:
            value._kept("_fact", refuse, ValidationError)
        raised.append(info.value)
    assert computed == [value]
    assert len({id(e) for e in raised}) == 3
    assert {(type(e), str(e)) for e in raised} == {(ValidationError,
                                                    "refused")}
    assert type(vars(value)["_fact"]) is ValidationError


@pytest.mark.parametrize("name", KEEPERS)
def test_an_unlisted_error_is_not_kept(name):
    value = BUILDERS[name]()
    computed = []

    def fail(v):
        computed.append(v)
        raise ValueError("not a refusal")

    for _ in range(2):
        with pytest.raises(ValueError):
            value._kept("_fact", fail, ValidationError)
    assert len(computed) == 2 and "_fact" not in vars(value)
