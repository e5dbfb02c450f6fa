"""Exact-arithmetic toolkit for weighted magic squares.

A weighted magic square is a non-negative integer matrix whose rows sum to
one degree under a row weight system and whose columns sum to another
degree under a column weight system.  The package validates and classifies
such squares, enumerates them, computes the associated monodromy zeta
functions and lattice invariants, builds the dual simplices of the weight
systems, and ships a fully verified catalog of coupled pairs.

Importing the package loads none of its modules: the first use of a public
name imports the module that defines it (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each module and the public names it exports.
_EXPORTS = {
    "catalog": ("Catalog", "CatalogEntry", "FuchsExpected", "FuchsRow",
                "VerificationReport", "fuchsian_report", "load_catalog",
                "verify_entry"),
    "errors": ("CatalogError", "DegenerateSupportError", "DomainError",
               "ParseError", "SearchCapExceeded", "SingularMatrixError",
               "ValidationError", "WeightMagicError"),
    "magic": ("ALMOST_PRIMITIVE", "PLAIN", "PRIMITIVE", "CouplingReport",
              "InverseData", "MagicSquare", "classify",
              "format_monomial_matrix", "inverse_data", "parse_matrix",
              "parse_monomial_matrix", "recover_partner", "transpose",
              "validate"),
    "polytope": ("RationalSimplex", "closed_form_dual", "extended_diagram",
                 "polar_dual", "verify_duality_identity"),
    "search": ("canonicalize", "find_magic_squares"),
    "verify": ("CriterionResult", "run_all"),
    "weights": ("Reduction", "WeightSystem", "equivalent", "is_calabi_yau",
                "parse_weight_system", "reduce_system"),
    "zeta": ("CyclotomicProduct", "LatticeInvariants", "SpecialSubsetReport",
             "characteristic_polynomial", "evaluate_at_one", "expand_series",
             "lattice_invariants", "reduced_zeta", "saito_dual",
             "special_subsets"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
