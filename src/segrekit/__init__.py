"""Exact symbolic toolkit for Segre varieties of real-algebraic CR
submanifolds: Gaussian-rational polynomial arithmetic, Groebner bases,
Levi signatures, Segre sets, and algebraic correspondences."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it; each module is imported when
# one of its names is first looked up (PEP 562), so that a user of the
# engine alone loads gaussian, orders, poly and ideal
_HOME = {name: module for module, names in [
    ("gaussian", ["GaussianRational", "QI_ONE", "QI_ZERO", "qi_sqrt"]),
    ("poly", ["Poly", "VarTable"]),
    ("orders", ["block_elim", "grevlex", "lex"]),
    ("parsing", ["ParseError", "parse_manifold_text", "parse_map_text", "parse_poly"]),
    ("ideal", ["Ideal", "Limits", "ResourceLimitError", "degree_zero_dim",
               "dimension", "eliminate", "groebner_basis", "member", "normal_form",
               "parametric_normal_form", "radical_member", "saturate"]),
    ("manifold", ["CRManifold", "LeviReport", "ManifoldError", "dehomogenize",
                  "genericity_rank", "homogenize", "levi_signature",
                  "pseudoconcavity_probe"]),
    ("segre", ["InconclusiveError", "SegreVariety", "check_symmetry",
               "essential_finiteness", "graph_form", "in_segre_variety",
               "inversion_set", "minimality", "segre_map_locally_injective",
               "segre_sets", "segre_variety"]),
    ("correspond", ["AlgebraicMap", "Correspondence", "CorrespondenceError",
                    "ExcludedLocusError", "build_correspondence", "compose",
                    "fiber", "power_correspondence",
                    "splits_at", "verify_invariance"]),
    ("catalog", ["load_catalog", "run_suite", "sample_points"]),
] for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
