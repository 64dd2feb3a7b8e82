"""Numerical toolkit for weighted function-space norms on an interval.

The package builds band-limited test functions on a periodic grid,
splits them with a smooth dyadic frequency decomposition, and computes
weighted Besov, Triebel-Lizorkin, Bessel-potential and Sobolev norms of
vector-valued data, where the vector components may themselves be
measured in operator-dependent interpolation norms.  On top of the norm
layer it implements higher-order reflection extension operators, trace
evaluation at the boundary, embedding and mixed-derivative estimates,
and an exact exponent classifier for a two-phase free-boundary model.
Every quantitative statement is packaged into deterministic verification
suites runnable from Python or the ``tracespaces-verify`` command.
"""

from .dyadic import DyadicSystem, apply_block, build_system, partition_check, smooth_step
from .embeddings import (
    EMBEDDING_EXAMPLE_PAIRS,
    MixedDerivativeParams,
    bf_sandwich_check,
    counterexample_norms,
    diagonal_holder_constant,
    mixed_derivative_check,
    q_monotonicity_check,
    sandwich_ratios,
    sobolev_embed_ratio,
    validate_embedding_pair,
)
from .extension import (
    ExtensionOperator,
    finite_difference,
    intertwine_defect,
    reflected_norm_ratio,
    reflection_coefficients,
)
from .grid import (
    GridFunction,
    GridSpec,
    QuadratureMesh,
    random_band_limited,
)
from .operators import (
    MultiplierOperator,
    batch_interp_norm_resolvent,
    closed_form_resolvent_norm,
    closed_form_semigroup_norm,
    interp_norm_resolvent,
    interp_norm_semigroup,
    reiteration_ratio,
)
from .report import BaselineStore, CaseRecord, VerificationReport, render_reports
from .spaces import (
    EuclideanInner,
    InterpNormInner,
    ScalarInner,
    SequenceBesovInner,
    SpaceSpec,
    WeightedEuclideanInner,
    difference_seminorm,
    norm_equivalence_ratio,
    space_norm,
    weighted_lp_norm,
)
from .stefan import (
    DegenerateCaseError,
    SpaceDescriptor,
    StefanParams,
    classify_spaces,
    compatibility_conditions,
    dt_boundedness_check,
)
from .suites import SUITE_ORDER, SuiteConfig, run_all, run_suite
from .trace import (
    OrbitFunction,
    TraceProblem,
    frac_power_reparam_ratio,
    hardy_young_check,
    resolvent_orbit,
    right_inverse_check,
    select_extension_branch,
    semigroup_orbit,
    semigroup_orbit_ratio,
    trace_at_zero,
    trace_continuity_ratio,
    windowed_orbit,
)
from .weights import PowerWeight, ap_classify, ap_constant_estimate

__all__ = [
    "BaselineStore",
    "CaseRecord",
    "DegenerateCaseError",
    "DyadicSystem",
    "EMBEDDING_EXAMPLE_PAIRS",
    "EuclideanInner",
    "ExtensionOperator",
    "GridFunction",
    "GridSpec",
    "InterpNormInner",
    "MixedDerivativeParams",
    "MultiplierOperator",
    "OrbitFunction",
    "PowerWeight",
    "QuadratureMesh",
    "SUITE_ORDER",
    "ScalarInner",
    "SequenceBesovInner",
    "SpaceDescriptor",
    "SpaceSpec",
    "StefanParams",
    "SuiteConfig",
    "TraceProblem",
    "VerificationReport",
    "WeightedEuclideanInner",
    "ap_classify",
    "ap_constant_estimate",
    "apply_block",
    "batch_interp_norm_resolvent",
    "bf_sandwich_check",
    "build_system",
    "classify_spaces",
    "closed_form_resolvent_norm",
    "closed_form_semigroup_norm",
    "compatibility_conditions",
    "counterexample_norms",
    "diagonal_holder_constant",
    "difference_seminorm",
    "dt_boundedness_check",
    "finite_difference",
    "frac_power_reparam_ratio",
    "hardy_young_check",
    "interp_norm_resolvent",
    "interp_norm_semigroup",
    "intertwine_defect",
    "mixed_derivative_check",
    "norm_equivalence_ratio",
    "partition_check",
    "q_monotonicity_check",
    "random_band_limited",
    "reflected_norm_ratio",
    "reflection_coefficients",
    "reiteration_ratio",
    "render_reports",
    "resolvent_orbit",
    "right_inverse_check",
    "run_all",
    "run_suite",
    "sandwich_ratios",
    "select_extension_branch",
    "semigroup_orbit",
    "semigroup_orbit_ratio",
    "smooth_step",
    "sobolev_embed_ratio",
    "space_norm",
    "trace_at_zero",
    "trace_continuity_ratio",
    "validate_embedding_pair",
    "weighted_lp_norm",
    "windowed_orbit",
]
