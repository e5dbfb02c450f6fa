"""The package namespace: 55 public names, each loaded on first use, and
the README's library example, which runs as written."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

import weightmagic

# the names the package exported when it imported every module eagerly,
# less the search parameter object that find_magic_squares' keywords
# replaced
PUBLIC_NAMES = {
    "ALMOST_PRIMITIVE", "Catalog", "CatalogEntry", "CatalogError",
    "CouplingReport", "CriterionResult", "CyclotomicProduct",
    "DegenerateSupportError", "DomainError", "FuchsExpected", "FuchsRow",
    "InverseData", "LatticeInvariants", "MagicSquare", "PLAIN", "PRIMITIVE",
    "ParseError", "RationalSimplex", "Reduction", "SearchCapExceeded",
    "SingularMatrixError", "SpecialSubsetReport",
    "ValidationError", "VerificationReport", "WeightMagicError",
    "WeightSystem", "canonicalize", "characteristic_polynomial", "classify",
    "closed_form_dual", "equivalent", "evaluate_at_one", "expand_series",
    "extended_diagram", "find_magic_squares", "format_monomial_matrix",
    "fuchsian_report", "inverse_data", "is_calabi_yau", "lattice_invariants",
    "load_catalog", "parse_matrix", "parse_monomial_matrix",
    "parse_weight_system", "polar_dual", "recover_partner", "reduce_system",
    "reduced_zeta", "run_all", "saito_dual", "special_subsets", "transpose",
    "validate", "verify_duality_identity", "verify_entry",
}


def test_all_is_the_frozen_public_api():
    assert len(PUBLIC_NAMES) == 55
    assert sorted(weightmagic.__all__) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("module", sorted(weightmagic._EXPORTS))
def test_each_name_is_the_object_of_its_defining_module(module):
    owner = importlib.import_module(f"weightmagic.{module}")
    for name in weightmagic._EXPORTS[module]:
        value = getattr(weightmagic, name)
        assert value is getattr(owner, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == owner.__name__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from weightmagic import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    assert PUBLIC_NAMES <= set(dir(weightmagic))


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        weightmagic.no_such_name


def test_readme_library_usage_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"## Library usage\n\n```python\n(.*?)```", readme,
                      re.DOTALL).group(1)
    namespace = {}
    exec(block, namespace)
    assert namespace["found"] == [namespace["square"]]
