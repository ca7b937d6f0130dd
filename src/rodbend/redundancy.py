"""Redundant-reaction solvers for two statically indeterminate rods.

Roller problem: a heavy cantilever propped by a roller at the free tip;
the redundant unknown is the roller reaction X [N], fixed by requiring
zero tip displacement. Built-in problem: a heavy rod clamped at both
ends carrying half its load per side; the redundant unknown is the end
moment X [N m], closed-form in the tip integral of the clamped
configuration.

Each problem is solved three ways: the classical small-deflection
formula, a truncated reaction series obtained by exact-rational series
reversion, and a direct evaluation of the consistency condition (root
finding for the roller, the closed expression for the built-in rod).
The solutions carry convergence traces so the series behavior can be
tabulated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._value import Frozen, set_field
from .elastica import (_TIP, BuiltInCombined, RodProperties, TipShear, UniformLoad,
                       _require_feasible, _tip_closed_form)
from .errors import BracketError, NearCriticalLoadError, UsageError, _check_rtol, _integer
from .quadrature import integrate_deflection
from .series_tools import PowerSeries, compose, hyp3f2_taylor, lagrange_revert
from .special_functions import _ratio_block, _sum_ratios, hyp_3f2

__all__ = [
    "RedundancySolution",
    "ConsistencyEquation",
    "roller_consistency",
    "solve_roller",
    "roller_reaction_series",
    "builtin_reaction_series",
    "builtin_tip_integral",
    "solve_builtin",
    "max_bending_stress_report",
    "stabilized_from",
]

# The kernels of the roller consistency equation, by the load shape whose tip
# parameters (1/2, 1, 3/2; b1, b2) its X side takes. "expansion" takes the load
# side's, so one tuple serves both sides; the reaction series and its published
# convergence behavior belong to it. "displacement" takes the tip shear's,
# which makes the equation the exact zero-displacement closure.
_KERNEL_SHAPES = {"expansion": UniformLoad, "displacement": TipShear}
# the same tuples as floats, the parameters of every float 3F2 sum here
_KERNELS = {name: _TIP[shape][4] for name, shape in _KERNEL_SHAPES.items()}

# highest order of a reaction series, n_terms <= 50: the cold cost of a
# build grows about as order^4, to 3.6 s for the roller series at 101
_MAX_ORDER = 101


class ConsistencyEquation(Frozen):
    """Scaled form f(Y) = Z of a consistency condition.

    Y = X L^2/(2 EJ) is the scaled unknown; f is odd, strictly
    increasing on (-1, 1) and unbounded as Y -> 1, so the equation has
    exactly one root for any admissible Z >= 0.
    """

    __slots__ = ("kernel", "rod", "q")

    def __init__(self, kernel: str, rod: RodProperties, q: float):
        _check_kernel(kernel)
        _check_load(UniformLoad(q), rod)
        set_field(self, "kernel", kernel)
        set_field(self, "rod", rod)
        set_field(self, "q", q)

    def lhs(self, Y: float, rtol: float = 1e-13) -> float:
        return Y * hyp_3f2(*_KERNELS[self.kernel], Y * Y, rtol=rtol)

    def target(self, rtol: float = 1e-13) -> float:
        w = self.rod.L ** 3 * self.q / self.rod.EJ
        return (3.0 / 16.0) * w * hyp_3f2(*_KERNELS["expansion"], w * w / _TIP[UniformLoad][1],
                                          rtol=rtol)


class RedundancySolution(Frozen):
    """Redundant unknown with how it was obtained and how it converged."""

    __slots__ = ("problem", "rod", "q", "method", "X", "units", "residual", "deviation_pct",
                 "trace")

    def __init__(self, problem: str, rod: RodProperties, q: float, method: str, X: float,
                 units: str, residual: float | None, deviation_pct: float,
                 trace: tuple[tuple[int, float], ...] = ()):
        set_field(self, "problem", problem)  # "roller" | "builtin"
        set_field(self, "rod", rod)
        set_field(self, "q", q)
        set_field(self, "method", method)  # linearized | series(n) | root_find | closed(...)
        set_field(self, "X", X)
        set_field(self, "units", units)
        set_field(self, "residual", residual)
        set_field(self, "deviation_pct", deviation_pct)
        set_field(self, "trace", trace)

    def json_obj(self):
        return {
            "problem": self.problem,
            "method": self.method,
            "X": self.X,
            "units": self.units,
            "residual": self.residual,
            "trace": [{"n": n, "X_n": x} for n, x in self.trace],
            "deviation_pct": self.deviation_pct,
        }


def _check_kernel(kernel: str) -> None:
    if kernel not in _KERNELS:
        raise UsageError(f"kernel must be one of {sorted(_KERNELS)}, got {kernel!r}")


def _check_order(order: int) -> None:
    _integer("series order", order)
    if not 1 <= order <= _MAX_ORDER:
        raise UsageError(f"series order must lie in [1, {_MAX_ORDER}], got {order}")


def _check_n_terms(n_terms: int) -> None:
    _integer("n_terms", n_terms)
    if not 0 <= n_terms <= _MAX_ORDER // 2:
        raise UsageError(f"n_terms must lie in [0, {_MAX_ORDER // 2}], got {n_terms}")


def _check_load(load: UniformLoad | BuiltInCombined, rod: RodProperties) -> None:
    """Refuse a negative or infeasible load; building ``load`` refused a non-finite q."""
    if load.q < 0:
        raise UsageError("q must be nonnegative (loads act downward)")
    _require_feasible(load, rod)


def roller_consistency(rod: RodProperties, q: float, X: float,
                       kernel: str = "expansion", rtol: float = 1e-13) -> float:
    """Residual 3Lq*F_load - 8X*F_reaction of the roller condition.

    Positive residual means the reaction X is too small. The "expansion"
    kernel evaluates the reaction factor with the load-side parameter
    pair (7/6, 5/3); "displacement" uses the tip-shear pair (5/4, 7/4),
    which makes the zero of the residual agree with the quadrature
    zero-displacement closure exactly. It is the gates plus one call of
    ``_roller_residual``, whose residual ``solve_roller`` builds once for
    its root finder and its reported residual; ``solve_roller`` does not
    call this function.
    """
    _check_kernel(kernel)
    _check_load(UniformLoad(q), rod)
    _require_feasible(TipShear(X), rod)
    return _roller_residual(rod, q, kernel, rtol)[1](X)


def _roller_residual(rod: RodProperties, q: float, kernel: str, rtol: float = 1e-13):
    """The load side 3Lq*F_load, summed once, and X -> load side - 8X*F_reaction.

    Checks rtol, but not the kernel, the load or X: the caller gates them.
    The 3F2 parameters are fixed floats, so each sum goes straight to the
    summation loop, which refuses an argument that rounds to 1 at once.
    """
    _check_rtol(rtol)
    L, EJ = rod.L, rod.EJ
    (_, load_r2, _, load_p2, load_params), (_, r2, _, p2, _) = _TIP[UniformLoad], _TIP[TipShear]
    load_side = 3.0 * L * q * _sum_ratios(_ratio_block, load_params,
                                          L ** load_p2 * q ** 2 / (load_r2 * EJ ** 2), rtol)
    params, Lp, den = _KERNELS[kernel], L ** p2, r2 * EJ ** 2

    def residual(X):
        return load_side - 8.0 * X * _sum_ratios(_ratio_block, params, Lp * X ** 2 / den, rtol)

    return load_side, residual


def _tip_series(d: int, r: int, params, order: int) -> PowerSeries:
    """(w/d) pFq(params; (w/r)^2) exactly, a tip closed form over L in w = m L^p/EJ;
    a 2F1 is padded to a 3F2 with a 1 above and below, which is exact in rationals only."""
    a = [Fraction(n, m) for n, m in params]
    u = hyp3f2_taylor(a[:2] + [1, 1] + a[2:] if len(a) == 3 else a, order).coefficients
    return PowerSeries(tuple(Fraction(r, d) * c / r ** k for k, c in enumerate(u)), order, "odd")


@lru_cache(maxsize=32)
def _roller_series_cached(order: int, kernel: str) -> PowerSeries:
    # zero tip displacement: the reaction's tip series at v = X L^2/EJ, with the
    # parameters of ``kernel``, equals the load's at w, so v(w) is its reversion at it
    d, r, _ = TipShear.tip
    reaction = _tip_series(-d, r, _KERNEL_SHAPES[kernel].tip[2], order)
    return compose(lagrange_revert(reaction), _tip_series(*UniformLoad.tip, order))


def roller_reaction_series(order: int = 19, kernel: str = "expansion") -> PowerSeries:
    """Reaction expansion in the scaled load w = L^3 q / EJ.

    Returns the odd series with X = (EJ/L^2) * series(w); the
    coefficient of w^(2k+1) is the exact rational a_k, a_0 = 3/8.
    Built by reverting the scaled consistency equation and composing
    with the load-side series.
    """
    _check_order(order)
    _check_kernel(kernel)
    return _roller_series_cached(order, kernel)


@lru_cache(maxsize=8)
def builtin_reaction_series(order: int = 19) -> PowerSeries:
    """End-moment expansion in w = L^3 q / EJ for the built-in rod.

    Returns the odd series with X = (EJ/L) * series(w); the coefficient
    of w^(2k+1) is the exact rational b_k, b_0 = 1/12. Composes the
    closed map 2 phi/(1 + phi^2) with the tip-integral series phi(w).
    """
    _check_order(order)
    # phi(w) = I/L, the 2F1 approximation of the tip integral over L
    phi = _tip_series(*BuiltInCombined.tip, order)
    # 2 t / (1 + t^2) = 2 sum (-1)^m t^(2m+1)
    outer = PowerSeries(tuple(k % 2 * 2 * (-1) ** (k // 2) for k in range(order + 1)), order, "odd")
    return compose(outer, phi)


def _series_trace(series: PowerSeries, w: float, scale: float, n_terms: int):
    """Partial sums (n, scale * sum_{k<=n} c_{2k+1} w^(2k+1))."""
    trace = []
    total = 0.0
    wk = w
    for k in range(n_terms + 1):
        total += float(series.coefficient(2 * k + 1)) * wk
        trace.append((k, scale * total))
        wk *= w * w
    return trace


def _find_roller_root(rod: RodProperties, q: float, load_side: float, residual,
                      rtol: float) -> float:
    # Solves roller_consistency = 0 on [0, min(1.1 * 3qL/8, 0.999 * 2EJ/L^2)]
    # through solve_roller's _roller_residual, so the load side is summed once;
    # solve_roller has checked the load and every probe lies inside the
    # tip-shear bound. ``rtol`` is the secant stop; the 3F2 sums keep the
    # residual's default tolerance.
    if q == 0.0:
        return 0.0
    L, EJ = rod.L, rod.EJ
    y_cap = 2.0 * EJ / L ** 2 * 0.999
    lo, hi = 0.0, min(1.1 * 3.0 * q * L / 8.0, y_cap)
    # the residual at X = 0 is the load side; the one at the top is summed
    # only if bisection never moves it, as near the cap a 3F2 there sums
    # thousands of terms. A moved end keeps its sign, so the bracket check
    # can fail only with the top unmoved and may wait for the bisection.
    r_lo, r_hi = load_side, None
    # bisection to a coarse width, then a secant polish on the same bracket
    while hi - lo > 1e-6 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid > 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    if r_hi is None:
        r_hi = residual(hi)
    if not (r_lo > 0.0 >= r_hi):
        raise BracketError(
            f"no sign change on (0, {hi:.6g}); the load is too close to critical "
            f"for the reaction bracket"
        )
    x0, x1 = lo, hi
    f0, f1 = r_lo, r_hi
    for _ in range(60):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x2 = min(max(x2, lo), hi)
        if abs(x2 - x1) <= rtol * abs(x2):
            return x2
        x0, f0 = x1, f1
        x1, f1 = x2, residual(x2)
    return x1


def solve_roller(rod: RodProperties, q: float, method: str, n_terms: int = 7,
                 kernel: str = "expansion", rtol: float = 1e-12) -> RedundancySolution:
    """Roller reaction by 'linearized', 'series' (n_terms) or 'root_find'.

    ``n_terms`` is the largest series index k, so the series sums the
    n_terms + 1 nonzero terms w^1 .. w^(2 n_terms + 1).
    """
    _check_kernel(kernel)
    _check_rtol(rtol)
    _check_load(UniformLoad(q), rod)
    if method == "series":
        _check_n_terms(n_terms)
    elif method not in ("linearized", "root_find"):
        raise UsageError(f"method must be linearized, series or root_find, got {method!r}")
    L, EJ = rod.L, rod.EJ
    linearized = 3.0 * q * L / 8.0
    load_side, residual = _roller_residual(rod, q, kernel)

    if method == "linearized":
        X, trace, label = linearized, (), "linearized"
    elif method == "series":
        series = roller_reaction_series(2 * n_terms + 1, kernel=kernel)
        trace = tuple(_series_trace(series, L ** 3 * q / EJ, EJ / L ** 2, n_terms))
        X, label = trace[-1][1], f"series({n_terms})"
    else:
        X, trace, label = _find_roller_root(rod, q, load_side, residual, rtol), (), "root_find"

    _require_feasible(TipShear(X), rod)
    deviation = 0.0 if X == 0.0 else (linearized - X) / X * 100.0
    return RedundancySolution(problem="roller", rod=rod, q=q, method=label, X=X, units="N",
                              residual=residual(X), deviation_pct=deviation, trace=trace)


def _radius(rod: RodProperties, q: float, relation: str) -> str:
    """Where the built-in 2F1-approximation routes stop: w = qL^3/EJ = r of its tip kernel, 6."""
    r = BuiltInCombined.tip[1]
    return (f"w = qL^3/EJ = {r} (q {relation} {r}*EJ/L^3 = {r * rod.EJ / rod.L ** 3:.6g} N/m), "
            f"got w = {rod.L ** 3 * q / rod.EJ:.6g}")


def _check_mode(mode: str) -> None:
    if mode not in ("quadrature", "hyp_approx"):
        raise UsageError(f"mode must be 'quadrature' or 'hyp_approx', got {mode!r}")


def builtin_tip_integral(rod: RodProperties, q: float, mode: str = "quadrature",
                         rtol: float = 1e-13) -> float:
    """Tip integral of the clamped configuration, positive for q > 0.

    mode "quadrature" integrates the exact integrand; "hyp_approx" uses
    the closed 2F1 approximation, which is reliable only well below the
    critical load (leading order in q) and is refused with
    NearCriticalLoadError past w = qL^3/EJ = 6, where its argument w^2/36
    passes 1.
    """
    _check_mode(mode)
    _check_rtol(rtol)
    _check_load(BuiltInCombined(q), rod)
    if q == 0.0:
        return 0.0
    if mode == "quadrature":
        return integrate_deflection(BuiltInCombined(q), rod, 0.0, rtol=rtol)
    return _tip_closed_form(BuiltInCombined, q, rod, rtol, lambda: (
        f"the 2F1 approximation of the tip integral diverges past "
        f"{_radius(rod, q, '>')}; use --method closed, whose tip integral "
        f"is the exact quadrature"))


def solve_builtin(rod: RodProperties, q: float, method: str, n_terms: int = 11,
                  integral_mode: str = "quadrature",
                  rtol: float = 1e-13) -> RedundancySolution:
    """Built-in end moment by 'linearized', 'series' (n_terms) or 'closed'.

    'closed' evaluates X = 2 EJ I / (L^2 + I^2) with the tip integral I
    from ``integral_mode``; the series follows the 2F1-approximation
    route, so its limit is the closed value with mode "hyp_approx", and
    like that route it is refused with NearCriticalLoadError from its
    radius w = qL^3/EJ = 6 on, half the feasible range.
    ``n_terms`` is the largest series index k, so the series sums the
    n_terms + 1 nonzero terms w^1 .. w^(2 n_terms + 1).
    """
    _check_mode(integral_mode)
    _check_rtol(rtol)
    _check_load(BuiltInCombined(q), rod)
    L, EJ = rod.L, rod.EJ
    linearized = q * L ** 2 / 12.0

    if method == "linearized":
        X, trace, label = linearized, (), "linearized"
    elif method == "series":
        _check_n_terms(n_terms)
        w = L ** 3 * q / EJ
        if w >= BuiltInCombined.tip[1]:
            raise NearCriticalLoadError(
                f"the built-in reaction series diverges at and past its radius "
                f"{_radius(rod, q, '>=')}; use --method closed"
            )
        series = builtin_reaction_series(2 * n_terms + 1)
        trace = tuple(_series_trace(series, w, EJ / L, n_terms))
        X, label = trace[-1][1], f"series({n_terms})"
    elif method == "closed":
        i_val = builtin_tip_integral(rod, q, mode=integral_mode, rtol=rtol)
        X = 2.0 * EJ * i_val / (L ** 2 + i_val ** 2)
        trace, label = (), f"closed({integral_mode})"
    else:
        raise UsageError(f"method must be linearized, series or closed, got {method!r}")

    deviation = 0.0 if X == 0.0 else (linearized - X) / X * 100.0
    return RedundancySolution(problem="builtin", rod=rod, q=q, method=label, X=X, units="N m",
                              residual=None, deviation_pct=deviation, trace=trace)


def stabilized_from(trace, tol: float = 1e-4) -> int | None:
    """Least n with all successive relative changes below tol from n on.

    The change at step m is |X_m - X_{m-1}| / |X_m|; returns None when
    even the last step still moves more than tol.
    """
    trace = list(trace)
    if len(trace) < 2:
        return None
    stable_from = None
    for m in range(1, len(trace)):
        prev, curr = trace[m - 1][1], trace[m][1]
        if curr == 0.0:
            change = math.inf if prev != 0.0 else 0.0
        else:
            change = abs(curr - prev) / abs(curr)
        if change < tol:
            if stable_from is None:
                stable_from = trace[m][0]
        else:
            stable_from = None
    return stable_from


def max_bending_stress_report(solution: RedundancySolution) -> dict:
    """Highest bending moment of the solved configuration vs the linearized one.

    Roller: the moment peaks at x = X/q with value X^2/(2q); the report
    carries the peak for both reactions and the stress change in percent
    of either baseline. Built-in rod: the end sections carry the largest
    moment; end and midspan values are reported for both routes.
    """
    problem, L, q, X = solution.problem, solution.rod.L, solution.q, solution.X
    if problem == "roller":
        x_lin = 3.0 * q * L / 8.0
        if q == 0.0:
            return {"problem": "roller", "M_max_linearized_Nm": 0.0, "M_max_nonlinear_Nm": 0.0,
                    "x_peak_linearized_m": 0.0, "x_peak_nonlinear_m": 0.0,
                    "stress_drop_pct_of_linearized": 0.0, "stress_drop_pct_of_nonlinear": 0.0}
        m_lin = x_lin ** 2 / (2.0 * q)
        m_nl = X ** 2 / (2.0 * q)
        return {
            "problem": "roller",
            "M_max_linearized_Nm": m_lin,
            "M_max_nonlinear_Nm": m_nl,
            "x_peak_linearized_m": x_lin / q,
            "x_peak_nonlinear_m": X / q,
            "stress_drop_pct_of_linearized": (m_lin - m_nl) / m_lin * 100.0,
            "stress_drop_pct_of_nonlinear": (m_lin - m_nl) / m_nl * 100.0,
        }
    if problem == "builtin":
        x_lin = q * L ** 2 / 12.0
        mid_lin = x_lin - q * L ** 2 / 8.0
        mid_nl = X - q * L ** 2 / 8.0
        m_lin = max(abs(x_lin), abs(mid_lin))
        m_nl = max(abs(X), abs(mid_nl))
        report = {
            "problem": "builtin",
            "M_end_linearized_Nm": x_lin,
            "M_end_nonlinear_Nm": X,
            "M_midspan_linearized_Nm": mid_lin,
            "M_midspan_nonlinear_Nm": mid_nl,
            "M_max_linearized_Nm": m_lin,
            "M_max_nonlinear_Nm": m_nl,
        }
        if m_lin > 0.0 and m_nl > 0.0:
            report["stress_change_pct_of_linearized"] = (m_nl - m_lin) / m_lin * 100.0
            report["stress_change_pct_of_nonlinear"] = (m_nl - m_lin) / m_nl * 100.0
        else:
            report["stress_change_pct_of_linearized"] = 0.0
            report["stress_change_pct_of_nonlinear"] = 0.0
        return report
    raise UsageError(f"problem must be 'roller' or 'builtin', got {problem!r}")
