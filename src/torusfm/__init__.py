"""Exact Fourier-Mukai transforms for U(1) local systems on real tori.

The package works over the rationals throughout: subtorus equations are
integer matrices, offsets and holonomies are fractions, and symbolic
coefficient data is handled by a small expression type.  Nothing here
depends on floating point except the numerical fallback of the zero test.
"""

from .exact_linalg import IntMatrix, RatMatrix, hnf, kernel_basis, saturate, snf
from .expr import Expr, ParseError, Verdict, diff, is_zero, parse, to_str
from .fm_absolute import (
    SubtorusLocalSystem,
    TransformResult,
    full_torus_system,
    morphism_space_dim,
    restrict_system,
    skyscraper,
    transform,
)
# The transform is an involution: its inverse is the same map, not a copy.
from .fm_absolute import transform as inverse_transform_absolute
from .fm_relative import (
    ConditionError,
    ConditionReport,
    InverseResult,
    LocalSystemData,
    RelativeSupport,
    SectionSupport,
    TransformedBundle,
    check_C1_lagrangian,
    check_C2_C3,
    check_D_conditions,
    check_F02_iff_lagrangian,
    check_cauchy_riemann,
    check_flat,
    curvature_hodge,
    dual_input_from_bundle,
    fibre_of_transform,
    fibre_support,
    fibre_system,
    hodge_components,
    inverse_transform,
    transform_nontransversal,
    wit_index,
)
from .scene import Scene, load_scene, parse_scene
from .torus import (
    AffineSubtorus,
    Torus,
    TorusPoint,
    dual_support,
    intersect,
    is_normal_to,
    subtorus_from_equations,
    whole_torus,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSubtorus",
    "ConditionError",
    "ConditionReport",
    "Expr",
    "IntMatrix",
    "InverseResult",
    "LocalSystemData",
    "ParseError",
    "RatMatrix",
    "RelativeSupport",
    "Scene",
    "SectionSupport",
    "SubtorusLocalSystem",
    "Torus",
    "TorusPoint",
    "TransformResult",
    "TransformedBundle",
    "Verdict",
    "check_C1_lagrangian",
    "check_C2_C3",
    "check_D_conditions",
    "check_F02_iff_lagrangian",
    "check_cauchy_riemann",
    "check_flat",
    "curvature_hodge",
    "diff",
    "dual_input_from_bundle",
    "dual_support",
    "fibre_of_transform",
    "fibre_support",
    "fibre_system",
    "full_torus_system",
    "hnf",
    "hodge_components",
    "intersect",
    "inverse_transform",
    "inverse_transform_absolute",
    "is_normal_to",
    "is_zero",
    "kernel_basis",
    "load_scene",
    "morphism_space_dim",
    "parse",
    "parse_scene",
    "restrict_system",
    "saturate",
    "skyscraper",
    "snf",
    "subtorus_from_equations",
    "to_str",
    "transform",
    "transform_nontransversal",
    "whole_torus",
    "wit_index",
    "__version__",
]
