"""Exact large-deflection bending of thin elastic rods.

The package evaluates rod deflections from the full curvature
expression rather than its small-slope linearization, and solves two
statically indeterminate problems (a propped cantilever under uniform
load and a doubly built-in rod) through hypergeometric closed forms,
root finding on the consistency equation, and exact power-series
reversion of the load-reaction relation.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the module that defines each public name; a module is imported on the
# first lookup of one of its names (PEP 562), so a command loads only the
# modules it runs
_MODULE_OF = {
    name: module
    for module, names in {
        "errors": ("BracketError", "DomainError", "InfeasibleLoadError",
                   "NearCriticalLoadError", "RodBendError", "UsageError"),
        "elastica": ("BuiltInCombined", "DeflectionProfile", "LoadCase", "RodProperties",
                     "TipMoment", "TipShear", "UniformLoad", "bending_moment",
                     "cumulative_moment", "deflection_profile", "feasibility_check",
                     "linearized_deflection", "tip_deflection_moment",
                     "tip_deflection_shear", "tip_deflection_uniform"),
        "quadrature": ("IntegrandSpec", "integrate", "integrate_deflection"),
        "redundancy": ("RedundancySolution", "builtin_reaction_series",
                       "builtin_tip_integral", "max_bending_stress_report",
                       "roller_consistency", "roller_reaction_series", "solve_builtin",
                       "solve_roller", "stabilized_from"),
        "series_tools": ("PowerSeries", "compose", "hyp3f2_taylor", "identity_series",
                         "lagrange_revert"),
        "special_functions": ("appell_f1", "gauss_2f1", "gauss_summation", "hyp_3f2",
                              "lauricella_fd3", "pochhammer", "reduce_f1_to_3f2",
                              "reduce_fd3_unit_arg"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
