"""Invariant almost-Hermitian calculus on finite-dimensional Lie algebras.

Exact (rational) or float tensor calculus for left-invariant structures:
exterior algebra with the Chevalley-Eilenberg differential, Levi-Civita
connection and curvature, Nijenhuis tensor and Lee form, plus deciders for
the locally-conformally-symplectic family of conditions (first kind,
adapted, Gauduchon, pluricanonical, anti-pluricanonical, Vaisman), the
4-dimensional unimodular almost-abelian classification, and a feasibility
search for compatible (co)closed forms.
"""

__version__ = "0.1.0"

from .algebra import LieAlgebra, abelian_algebra
from .almostabelian import (AlmostAbelianParams, ClassLabel, build_almost_abelian,
                            classify_4d, lee_form_aa, pluricanonical_conditions_aa)
from .catalogs import CATALOG_NAMES, catalog, catalog_entry
from .conditions import (AutomorphismAlgebra, ConditionReport, automorphism_algebra,
                         check_adapted, check_first_kind, check_lcs, classify_metric,
                         symplectic_feasibility, verify_equivalences)
from .connection import (ConnectionTable, CurvatureTensor, RicciForms,
                         canonical_connection_forms, covariant_F, covariant_J,
                         covariant_one_form, curvature,
                         first_canonical_connection, levi_civita, star_ricci)
from .conventions import CONVENTIONS
from .errors import (Degenerate, DegenerateMetric, DimensionMismatch, IndexOutOfRange,
                     LcakError, NondegeneracyFailure, ParseError,
                     PreconditionFailed, UnsupportedDimension, ValidationError)
from .forms import KForm, form_inner_product, hodge_star
from .fuzzing import FAMILIES, fuzz
from .hermitian import AlmostHermitianStructure, LeeData, validate_structure
from .specfile import Report, load_spec, run_report

__all__ = [
    "__version__", "CONVENTIONS", "CATALOG_NAMES", "FAMILIES",
    "LieAlgebra", "abelian_algebra",
    "KForm", "form_inner_product", "hodge_star",
    "AlmostHermitianStructure", "LeeData", "validate_structure",
    "ConnectionTable", "CurvatureTensor", "RicciForms", "levi_civita",
    "curvature", "star_ricci", "canonical_connection_forms",
    "first_canonical_connection", "covariant_one_form",
    "covariant_F", "covariant_J",
    "ConditionReport", "AutomorphismAlgebra", "check_lcs", "check_first_kind",
    "check_adapted", "classify_metric", "verify_equivalences",
    "automorphism_algebra", "symplectic_feasibility",
    "AlmostAbelianParams", "ClassLabel", "build_almost_abelian", "classify_4d",
    "lee_form_aa", "pluricanonical_conditions_aa",
    "catalog", "catalog_entry", "Report", "load_spec", "run_report", "fuzz",
    "LcakError", "DimensionMismatch", "IndexOutOfRange", "DegenerateMetric",
    "NondegeneracyFailure", "UnsupportedDimension",
    "PreconditionFailed", "Degenerate", "ParseError", "ValidationError",
]
