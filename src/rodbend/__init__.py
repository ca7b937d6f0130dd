"""Exact large-deflection bending of thin elastic rods.

The package evaluates rod deflections from the full curvature
expression rather than its small-slope linearization, and solves two
statically indeterminate problems (a propped cantilever under uniform
load and a doubly built-in rod) through hypergeometric closed forms,
root finding on the consistency equation, and exact power-series
reversion of the load-reaction relation.
"""

from .errors import (
    BracketError,
    DomainError,
    InfeasibleLoadError,
    NearCriticalLoadError,
    RodBendError,
    UsageError,
)
from .elastica import (
    BuiltInCombined,
    DeflectionProfile,
    LoadCase,
    RodProperties,
    TipMoment,
    TipShear,
    UniformLoad,
    bending_moment,
    cumulative_moment,
    deflection_profile,
    feasibility_check,
    linearized_deflection,
    tip_deflection_moment,
    tip_deflection_shear,
    tip_deflection_uniform,
)
from .quadrature import IntegrandSpec, integrate, integrate_deflection
from .redundancy import (
    ConsistencyEquation,
    RedundancySolution,
    builtin_reaction_series,
    builtin_tip_integral,
    max_bending_stress_report,
    roller_consistency,
    roller_reaction_series,
    solve_builtin,
    solve_roller,
    stabilized_from,
)
from .series_tools import (
    PowerSeries,
    compose,
    hyp3f2_taylor,
    identity_series,
    lagrange_revert,
)
from .special_functions import (
    appell_f1,
    gauss_2f1,
    gauss_summation,
    hyp_3f2,
    lauricella_fd3,
    pochhammer,
    reduce_f1_to_3f2,
    reduce_fd3_unit_arg,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "BuiltInCombined",
    "ConsistencyEquation",
    "DeflectionProfile",
    "DomainError",
    "InfeasibleLoadError",
    "IntegrandSpec",
    "LoadCase",
    "NearCriticalLoadError",
    "PowerSeries",
    "RedundancySolution",
    "RodBendError",
    "RodProperties",
    "TipMoment",
    "TipShear",
    "UniformLoad",
    "UsageError",
    "appell_f1",
    "bending_moment",
    "builtin_reaction_series",
    "builtin_tip_integral",
    "compose",
    "cumulative_moment",
    "deflection_profile",
    "feasibility_check",
    "gauss_2f1",
    "gauss_summation",
    "hyp3f2_taylor",
    "hyp_3f2",
    "identity_series",
    "integrate",
    "integrate_deflection",
    "lagrange_revert",
    "lauricella_fd3",
    "linearized_deflection",
    "max_bending_stress_report",
    "pochhammer",
    "reduce_f1_to_3f2",
    "reduce_fd3_unit_arg",
    "roller_consistency",
    "roller_reaction_series",
    "solve_builtin",
    "solve_roller",
    "stabilized_from",
    "tip_deflection_moment",
    "tip_deflection_shear",
    "tip_deflection_uniform",
]
