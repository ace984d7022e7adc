"""Exact symbolic toolkit for Segre varieties of real-algebraic CR
submanifolds: Gaussian-rational polynomial arithmetic, Groebner bases,
Levi signatures, Segre sets, and algebraic correspondences."""

from .gaussian import GaussianRational, QI_I, QI_ONE, QI_ZERO, qi_sqrt
from .poly import Poly, VarTable
from .orders import block_elim, grevlex, lex
from .parsing import ParseError, parse_manifold_text, parse_map_text, parse_poly
from .ideal import (Ideal, Limits, ResourceLimitError, degree_zero_dim,
                    dimension, eliminate, groebner_basis, member, normal_form,
                    parametric_normal_form, radical_member, saturate)
from .manifold import (CRManifold, LeviReport, ManifoldError, check_reality,
                       dehomogenize, genericity_rank, homogenize,
                       levi_signature, polar, pseudoconcavity_probe)
from .segre import (InconclusiveError, SegreVariety, check_symmetry,
                    essential_finiteness, graph_form, in_segre_variety,
                    inversion_set, minimality, segre_map_locally_injective,
                    segre_sets, segre_variety)
from .correspond import (AlgebraicMap, Correspondence, CorrespondenceError,
                         ExcludedLocusError, build_correspondence, compose,
                         fiber, max_rank_check, power_correspondence,
                         splits_at, verify_invariance)
from .catalog import load_catalog, run_suite, sample_points

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "QI_I", "QI_ONE", "QI_ZERO", "qi_sqrt",
    "Poly", "VarTable", "block_elim", "grevlex", "lex",
    "ParseError", "parse_manifold_text", "parse_map_text", "parse_poly",
    "Ideal", "Limits", "ResourceLimitError", "degree_zero_dim", "dimension",
    "eliminate", "groebner_basis", "member", "normal_form",
    "parametric_normal_form", "radical_member", "saturate",
    "CRManifold", "LeviReport", "ManifoldError", "check_reality",
    "dehomogenize", "genericity_rank", "homogenize", "levi_signature",
    "polar", "pseudoconcavity_probe",
    "InconclusiveError", "SegreVariety", "check_symmetry",
    "essential_finiteness", "graph_form", "in_segre_variety",
    "inversion_set", "minimality", "segre_map_locally_injective",
    "segre_sets", "segre_variety",
    "AlgebraicMap", "Correspondence", "CorrespondenceError",
    "ExcludedLocusError", "build_correspondence", "compose", "fiber",
    "max_rank_check", "power_correspondence", "splits_at",
    "verify_invariance",
    "load_catalog", "run_suite", "sample_points", "numeric_oracle",
]


def __getattr__(name):
    # the numeric oracle needs numpy, which nothing else in the package
    # uses: import it on first use, not with the package
    if name == "numeric_oracle":
        from .oracle import numeric_oracle
        return numeric_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
