"""Exact-arithmetic toolkit for weighted magic squares.

A weighted magic square is a non-negative integer matrix whose rows sum to
one degree under a row weight system and whose columns sum to another
degree under a column weight system.  The package validates and classifies
such squares, enumerates them, computes the associated monodromy zeta
functions and lattice invariants, builds the dual simplices of the weight
systems, and ships a fully verified catalog of coupled pairs.
"""

from __future__ import annotations

from .catalog import (Catalog, CatalogEntry, FuchsExpected, FuchsRow,
                      VerificationReport, fuchsian_report, load_catalog,
                      verify_entry)
from .errors import (CatalogError, DegenerateSupportError, DomainError,
                     ParseError, SearchCapExceeded, SingularMatrixError,
                     ValidationError, WeightMagicError)
from .magic import (ALMOST_PRIMITIVE, PLAIN, PRIMITIVE, CouplingReport,
                    InverseData, MagicSquare, classify, format_monomial_matrix,
                    inverse_data, parse_matrix, parse_monomial_matrix,
                    recover_partner, transpose, validate)
from .polytope import (RationalSimplex, closed_form_dual, extended_diagram,
                       polar_dual, verify_duality_identity)
from .search import SearchQuery, canonicalize, find_magic_squares
from .verify import CriterionResult, run_all
from .weights import (Reduction, WeightSystem, equivalent, is_calabi_yau,
                      parse_weight_system, reduce_system)
from .zeta import (CyclotomicProduct, LatticeInvariants, SpecialSubsetReport,
                   characteristic_polynomial, evaluate_at_one, expand_series,
                   lattice_invariants, reduced_zeta, saito_dual,
                   special_subsets)

__version__ = "0.1.0"

__all__ = [
    "ALMOST_PRIMITIVE",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "CouplingReport",
    "CriterionResult",
    "CyclotomicProduct",
    "DegenerateSupportError",
    "DomainError",
    "FuchsExpected",
    "FuchsRow",
    "InverseData",
    "LatticeInvariants",
    "MagicSquare",
    "PLAIN",
    "PRIMITIVE",
    "ParseError",
    "RationalSimplex",
    "Reduction",
    "SearchCapExceeded",
    "SearchQuery",
    "SingularMatrixError",
    "SpecialSubsetReport",
    "ValidationError",
    "VerificationReport",
    "WeightMagicError",
    "WeightSystem",
    "canonicalize",
    "characteristic_polynomial",
    "classify",
    "closed_form_dual",
    "equivalent",
    "evaluate_at_one",
    "expand_series",
    "extended_diagram",
    "find_magic_squares",
    "format_monomial_matrix",
    "fuchsian_report",
    "inverse_data",
    "is_calabi_yau",
    "lattice_invariants",
    "load_catalog",
    "parse_matrix",
    "parse_monomial_matrix",
    "parse_weight_system",
    "polar_dual",
    "recover_partner",
    "reduce_system",
    "reduced_zeta",
    "run_all",
    "saito_dual",
    "special_subsets",
    "transpose",
    "validate",
    "verify_duality_identity",
    "verify_entry",
]
