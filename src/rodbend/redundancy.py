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
import threading
from functools import lru_cache
from typing import TYPE_CHECKING

from ._value import Frozen, set_field
from .elastica import (_TIP_PARAMS, BuiltInCombined, RodProperties, TipShear, UniformLoad,
                       _require_feasible, _require_summable, _tip_argument, _tip_closed_form,
                       feasibility_check)
from .errors import (DEFAULT_RTOL, BracketError, NearCriticalLoadError, UsageError, _check_rtol,
                     _integer)
from .special_functions import _sum_ratios, _sum_value

if TYPE_CHECKING:  # the series code imports series_tools and fractions where it runs
    from .series_tools import PowerSeries

__all__ = [
    "RedundancySolution",
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

# The roller root finder's seed, per kernel: the [7/7] Pade approximant
# P(t)/Q(t) in t = w^2 of the reaction series sum_k a_k t^k, from its exact
# a_0 ... a_14 (roller_reaction_series(29, kernel)), with the coefficients
# p_0 ... p_7 and q_0 ... q_7 of P and Q rounded to floats. Stored, so that
# no process builds a series to seed; the tests rebuild both exactly.
_SEED_PADE = {
    "expansion": (
        (0.375, -0.030601748339330808, 0.0009561699044012352, -1.427609852907373e-05,
         1.0310049452025608e-07, -3.1588902694718935e-10, 2.575273551901453e-13,
         3.8690149659393007e-17),
        (1.0, -0.07875868009535834, 0.0023261124812637792, -3.1425443317152e-05,
         1.8255602240391042e-07, -2.432505410189826e-10, -8.423754524670551e-13,
         9.327530318188548e-16)),
    "displacement": (
        (0.375, -0.03483230406907548, 0.001284940515932392, -2.3925665420515176e-05,
         2.3584379029359936e-07, -1.1743948363833045e-09, 2.514602014319551e-12,
         -1.482264651322931e-15),
        (1.0, -0.09154685846991559, 0.003319128160767581, -6.051735378712802e-05,
         5.811752316128509e-07, -2.798654297048516e-09, 5.727091134310082e-12,
         -3.154661844463582e-15)),
}

# highest order of a reaction series, n_terms <= 50: the cold cost of a
# build grows about as order^4, to about 0.4 s for the roller series at 101
_MAX_ORDER = 101

# The weights u_k = (2k + 1) t_k z^k of the slope S of either roller kernel
# 3F2(1/2, 1, 3/2; b1, b2; z) have ratios z (k + 3/2)^2 / ((k + b1) (k + b2))
# <= z (k + 7/6) / (k + 1), those of the negative binomial weights of mean
# 7/6 z/(1 - z); so their mean index z S'(z)/S(z) is at most that mean. At
# (b1, b2) = (7/6, 5/3) the two cubics differ by 1/54 alone.
_SLOPE_INDEX = 7.0 / 6.0


# The float coefficients c_0, c_1, ... of the built-in tip integral's series
# (_phi_series), built on demand and kept for the process; a coefficient is
# appended under the lock, at its own index only.
_PHI_COEFFICIENTS: list[float] = []
_PHI_LOCK = threading.Lock()


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
    if kernel not in _KERNEL_SHAPES:
        raise UsageError(f"kernel must be one of {sorted(_KERNEL_SHAPES)}, got {kernel!r}")


def _check_order(order: int) -> None:
    _integer("series order", order)
    if not 1 <= order <= _MAX_ORDER:
        raise UsageError(f"series order must lie in [1, {_MAX_ORDER}], got {order}")


def _check_n_terms(n_terms: int) -> None:
    _integer("n_terms", n_terms)
    if not 0 <= n_terms <= _MAX_ORDER // 2:
        raise UsageError(f"n_terms must lie in [0, {_MAX_ORDER // 2}], got {n_terms}")


def _check_load(load: UniformLoad | BuiltInCombined, rod: RodProperties) -> float:
    """Refuse a negative or infeasible load and return its float q; building ``load``
    refused a non-finite q."""
    if load.q < 0:
        raise UsageError("q must be nonnegative (loads act downward)")
    return _require_feasible(load, rod)


def roller_consistency(rod: RodProperties, q: float, X: float,
                       kernel: str = "expansion", rtol: float = DEFAULT_RTOL) -> float:
    """Residual 3Lq*F_load - 8X*F_reaction of the roller condition.

    Positive residual means the reaction X is too small; for X >= 0 it
    falls and is concave. The "expansion"
    kernel evaluates the reaction factor with the load-side parameter
    pair (7/6, 5/3); "displacement" uses the tip-shear pair (5/4, 7/4),
    which makes the zero of the residual agree with the quadrature
    zero-displacement closure exactly. It is the gates, the rtol check
    after them, and one call of the residual that ``_roller_residual``
    builds, the one that ``solve_roller`` reports too.
    """
    _check_kernel(kernel)
    q = _check_load(UniformLoad(q), rod)
    X = _require_feasible(TipShear(X), rod)
    return _roller_residual(rod, q, kernel, _check_rtol(rtol))[0](X)


def _roller_residual(rod: RodProperties, q: float, kernel: str, rtol: float):
    """The residual r = 3Lq*F_load - 8X*F_reaction, its load side summed once
    here, as two functions of X: ``residual``, X -> r, sums the reaction 3F2's
    value alone; ``newton``, X -> (r, S, z), sums its value and its slope
    weight S = F + 2zF' in one loop and returns its argument z; r'(X) = -8S.
    Both give r the same bits.

    The caller gates the kernel, the load, X and rtol. ``_require_summable``
    refuses a load side, or a reaction side in ``residual``, whose 3F2 would
    need more than 10^6 terms; ``newton`` needs no such check, as the root
    finder's iterates stay at or below its bracket top, where z <= 0.998001.
    The summation loops refuse an argument that rounds to 1 at once.
    """
    x = _tip_argument(UniformLoad, rod)(q)
    _require_summable(UniformLoad, q, x, rod, rtol)
    load_side = 3.0 * rod.L * q * _sum_value(_TIP_PARAMS[UniformLoad], x, rtol)
    params, argument = _TIP_PARAMS[_KERNEL_SHAPES[kernel]], _tip_argument(TipShear, rod)

    def residual(X):
        z = argument(X)
        _require_summable(TipShear, X, z, rod, rtol)
        return load_side - 8.0 * X * _sum_value(params, z, rtol)

    def newton(X):
        z = argument(X)
        f, s = _sum_ratios(params, z, rtol)
        return load_side - 8.0 * X * f, s, z

    return residual, newton


def _tip_series(d: int, r: int, params, order: int) -> PowerSeries:
    """(w/d) pFq(params; (w/r)^2) exactly, a tip closed form over L in w = m L^p/EJ;
    a 2F1 is padded to a 3F2 with a 1 above and below, which is exact in rationals only."""
    from fractions import Fraction

    from .series_tools import PowerSeries, hyp3f2_taylor

    a = [Fraction(n, m) for n, m in params]
    u = hyp3f2_taylor(a[:2] + [1, 1] + a[2:] if len(a) == 3 else a, order).coefficients
    return PowerSeries(tuple(Fraction(r, d) * c / r ** k for k, c in enumerate(u)), order)


@lru_cache(maxsize=32)
def _roller_series_cached(order: int, kernel: str) -> PowerSeries:
    # zero tip displacement: the reaction's tip series at v = X L^2/EJ, with the
    # parameters of ``kernel``, equals the load's at w, so v(w) is its reversion at it
    from .series_tools import compose, lagrange_revert

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


def builtin_reaction_series(order: int = 19) -> PowerSeries:
    """End-moment expansion in w = L^3 q / EJ for the built-in rod.

    Returns the odd series with X = (EJ/L) * series(w); the coefficient
    of w^(2k+1) is the exact rational b_k, b_0 = 1/12. Composes the
    closed map 2 phi/(1 + phi^2) with the tip-integral series phi(w).
    """
    _check_order(order)
    return _builtin_series_cached(order)


@lru_cache(maxsize=8)
def _builtin_series_cached(order: int) -> PowerSeries:
    from .series_tools import PowerSeries, compose

    # phi(w) = I/L, the 2F1 approximation of the tip integral over L
    phi = _tip_series(*BuiltInCombined.tip, order)
    # 2 t / (1 + t^2) = 2 sum (-1)^m t^(2m+1)
    outer = PowerSeries(tuple(k % 2 * 2 * (-1) ** (k // 2) for k in range(order + 1)), order)
    return compose(outer, phi)


def _series_trace(series: PowerSeries, w: float, scale: float, n_terms: int):
    """Partial sums (n, scale * sum_{k<=n} c_{2k+1} w^(2k+1)); the series has
    order 2 n_terms + 1, so its odd coefficients are read directly."""
    trace = []
    total = 0.0
    wk = w
    for k, c in enumerate(series.coefficients[1:2 * n_terms + 2:2]):
        total += float(c) * wk
        trace.append((k, scale * total))
        wk *= w * w
    return trace


def _roller_seed(rod: RodProperties, q: float, kernel: str) -> float:
    """The reaction series' [7/7] Pade approximant (EJ/L^2) w P(w^2)/Q(w^2) [N],
    the Horner sums of P and Q in one loop."""
    w = rod.L ** 3 * q / rod.EJ
    t = w * w
    numerator, denominator = _SEED_PADE[kernel]
    num = den = 0.0
    for p, d in zip(reversed(numerator), reversed(denominator)):
        num = num * t + p
        den = den * t + d
    return rod.EJ / rod.L ** 2 * w * (num / den)


def _find_roller_root(rod: RodProperties, q: float, kernel: str, newton, rtol: float) -> float:
    # Solves roller_consistency = 0 below the bracket top 0.999 * 2EJ/L^2 by
    # Newton steps; solve_roller has checked the load. The residual r(X) =
    # load side - 8 g(X), with g(X) = X F(c X^2), is concave and falls, and
    # r'(X) = -8 S, S = F + 2zF' from the same sum as F (_roller_residual's
    # ``newton``). The first iterate is the Pade seed, or the top when the
    # seed passes it; the top, where a 3F2 sums thousands of terms, is summed
    # only then (from 0.9981 of critical for the expansion kernel, 0.9898 for
    # the displacement one), and a
    # positive residual there leaves no root below it. The seed lies below the
    # root only at loads under 0.65 of critical, there by at most 7e-15 of it,
    # far below the top; the tangent lies above a concave residual, so a step
    # from below lands above the root, and from above each step lands above it
    # again, so the iterates fall to the root after at most one step and none
    # passes the top (tests/test_redundancy.py sweeps 0 < q < critical). The
    # 3F2 sums keep the residual's tolerance; ``rtol`` bounds the returned
    # iterate's error, by the stop below. From 0.02 to 0.9 of critical the
    # seed is within 4e-8 of the root, so one step meets the stop
    # (tests/test_redundancy.py).
    if q == 0.0:
        return 0.0
    hi = 2.0 * rod.EJ / rod.L ** 2 * 0.999
    x = min(_roller_seed(rod, q, kernel), hi)
    for _ in range(60):
        r, s, z = newton(x)
        if x == hi and r > 0.0:
            raise BracketError(
                f"no sign change on (0, {hi:.6g}); the load is too close to critical "
                f"for the reaction bracket"
            )
        step = r / (8.0 * s)
        # The stop: a bound on the new iterate's error. Let x_n >= X* be the
        # iterate, d = -step and K = g''(x_n)/(2 g'(x_n)). g'' rises with X, so
        # below x_n the slope g' falls by at most 2K g'(x_n) per unit of X, and
        # r(x_n - e) >= 8 g'(x_n) (e - K e^2 - d). Given 4Kd <= 1, that is >= 0
        # at e = 2d/(1 + sqrt(1 - 4Kd)): the root lies within e of x_n, and
        # x_n + step above it by at most e - d = 4K d^2/(1 + sqrt(1 - 4Kd))^2,
        # at most 4K d^2. The curvature: K x_n = z S'(z)/S(z), at most
        # _SLOPE_INDEX z/(1 - z). Below the root (r > 0: a seed below it, or
        # rounding) the step overshoots it by at most its own length. The
        # sums' own errors are not in the bound.
        if r > 0.0:
            bound = step
        else:
            k4 = 4.0 * _SLOPE_INDEX * z / ((1.0 - z) * x)
            bound = k4 * step * step if -k4 * step <= 1.0 else math.inf
        x += step
        # the second stop: a step within one ulp of x can no longer move it,
        # so an rtol below the rounding of the sums ends here
        if bound <= rtol * x or abs(step) <= math.ulp(x):
            return x
    raise BracketError(f"the Newton steps did not settle on a root within 60 steps "
                       f"(last iterate {x:.17g} N)")


def solve_roller(rod: RodProperties, q: float, method: str, n_terms: int = 7,
                 kernel: str = "expansion", rtol: float = 1e-12) -> RedundancySolution:
    """Roller reaction by 'linearized', 'series' (n_terms) or 'root_find'.

    ``n_terms`` is the largest series index k, so the series sums the
    n_terms + 1 nonzero terms w^1 .. w^(2 n_terms + 1). 'linearized'
    answers 3qL/8 for every feasible q; from q = 16EJ/(3L^3) on that
    passes the tip-shear bound 2EJ/L^2, where the reaction-side 3F2 is
    undefined, and the residual is None.
    """
    _check_kernel(kernel)
    rtol = _check_rtol(rtol)
    q = _check_load(UniformLoad(q), rod)
    if method == "series":
        _check_n_terms(n_terms)
    elif method not in ("linearized", "root_find"):
        raise UsageError(f"method must be linearized, series or root_find, got {method!r}")
    L, EJ = rod.L, rod.EJ
    linearized = 3.0 * q * L / 8.0
    # the residual sums the load side when built, so only the root finder builds
    # it before X passes the tip-shear gate
    residual = None

    if method == "linearized":
        X, trace, label = linearized, (), "linearized"
    elif method == "series":
        series = roller_reaction_series(2 * n_terms + 1, kernel=kernel)
        trace = tuple(_series_trace(series, L ** 3 * q / EJ, EJ / L ** 2, n_terms))
        X, label = trace[-1][1], f"series({n_terms})"
    else:
        residual, newton = _roller_residual(rod, q, kernel, DEFAULT_RTOL)
        X = _find_roller_root(rod, q, kernel, newton, rtol)
        trace, label = (), "root_find"

    if method == "linearized" and feasibility_check(TipShear(X), rod) >= 1.0:
        res = None
    else:
        _require_feasible(TipShear(X), rod)
        res = (residual or _roller_residual(rod, q, kernel, DEFAULT_RTOL)[0])(X)
    deviation = 0.0 if X == 0.0 else (linearized - X) / X * 100.0
    return RedundancySolution(problem="roller", rod=rod, q=q, method=label, X=X, units="N",
                              residual=res, deviation_pct=deviation, trace=trace)


def _radius(rod: RodProperties, q: float, relation: str) -> str:
    """Where the built-in 2F1-approximation routes stop: w = qL^3/EJ = r of its tip kernel, 6."""
    r = BuiltInCombined.tip[1]
    return (f"w = qL^3/EJ = {r} (q {relation} {r}*EJ/L^3 = {r * rod.EJ / rod.L ** 3:.6g} N/m), "
            f"got w = {rod.L ** 3 * q / rod.EJ:.6g}")


def _check_mode(mode: str) -> None:
    if mode not in ("series", "hyp_approx"):
        raise UsageError(f"mode must be 'series' or 'hyp_approx', got {mode!r}")


def _pfaff_j(n: int) -> float:
    """J_n = int_0^1 (1 - 3s^2 + 2s^3)^n ds, by Pfaff's transformation

        J_n = (1/(2n+1)) sum_(j<=n) 2^j n!/((n-j)! (2n+2)_j),

    whose terms are positive with falling ratios 2(n-j)/(2n+2+j): after a
    term t of ratio rho the rest is at most t rho/(1 - rho), and the sum
    stops once that is below 2^-56 of it, after about 7 sqrt(n) terms."""
    term = total = 1.0
    for j in range(n):
        rho = 2.0 * (n - j) / (2 * n + 2 + j)
        term *= rho
        total += term
        if term * rho <= 2.0 ** -56 * total * (1.0 - rho):
            break
    return total / (2 * n + 1)


def _phi_series(r: float) -> tuple[float, int]:
    """phi = I/L, the built-in tip integral over L, as a sum of positive terms
    in r = w/12 = qL^3/(12 EJ), 0 < r <= 1: (the sum, the terms summed).

    With s = x/L, |H|/EJ = r (1 - 3s^2 + 2s^3), so expanding the integrand
    h/sqrt(1 - h^2) binomially gives

        phi = sum_k c_k r^(2k+1),   c_k = C(2k, k)/4^k J_(2k+1),

    J_n from ``_pfaff_j``. 0 <= 1 - 3s^2 + 2s^3 <= 1 on [0, 1], so c_k falls
    with k, and after a term t the rest is at most t r^2/(1 - r^2). The sum
    stops once that bound is at most 2^-53 of it, whatever the caller's
    rtol; it is compensated (Kahan), so its rounding stays near one ulp.
    Every partial sum is a lower bound of phi, so the sum also stops as
    soon as it reaches 1 (I >= L): near w = 12 after about 10 terms, and
    just below w = 11.669, where phi = 1, after about 570. The coefficients
    are built once per process, only as many as a call needs.
    """
    r2 = r * r
    tail = r2 / (1.0 - r2) if r2 < 1.0 else math.inf
    total = carry = 0.0
    power = r
    k = 0
    while True:
        # the kept coefficients from c_k on; when they run out, one more is built and kept
        for coefficient in _PHI_COEFFICIENTS[k:] if k else _PHI_COEFFICIENTS:
            k += 1
            term = coefficient * power
            step = term - carry
            new = total + step
            carry = (new - total) - step
            total = new
            if total >= 1.0 or term * tail <= 2.0 ** -53 * total:
                return total, k
            power *= r2
        with _PHI_LOCK:  # another thread may have built c_k meanwhile
            if len(_PHI_COEFFICIENTS) == k:
                _PHI_COEFFICIENTS.append(math.comb(2 * k, k) / 4 ** k * _pfaff_j(2 * k + 1))


def builtin_tip_integral(rod: RodProperties, q: float, mode: str = "series",
                         rtol: float = DEFAULT_RTOL) -> float:
    """Tip integral I = int_0^L |H|/sqrt(EJ^2 - H^2) dx of the clamped
    configuration, positive for q > 0.

    mode "series" (the default) sums the exact integrand's binomial series
    phi(w) = I/L = sum_k c_k (w/12)^(2k+1), w = qL^3/EJ, whose terms are
    positive; it stops when the tail bound t (w/12)^2/(1 - (w/12)^2) of its
    last term t is at most 2^-53 of the sum, not at ``rtol``, which is
    checked but unused. It answers only I < L (w < 11.669): a partial sum
    that reaches L is refused with NearCriticalLoadError. Its dual route is
    the quadrature ``integrate_deflection(BuiltInCombined(q), rod, 0.0, rtol)``.
    "hyp_approx" uses the closed 2F1 approximation, which is reliable only
    well below the critical load (leading order in q) and is refused with
    NearCriticalLoadError past w = 6, where its argument w^2/36 passes 1,
    and below it where its series would need more than 10^6 terms.
    """
    _check_mode(mode)
    rtol = _check_rtol(rtol)
    load = BuiltInCombined(q)
    _check_load(load, rod)
    return _tip_integral(load, rod, mode, rtol)


def _tip_integral(load: BuiltInCombined, rod: RodProperties, mode: str, rtol: float) -> float:
    """``builtin_tip_integral`` of a gated load, with mode and rtol checked."""
    q = load.q
    if q == 0.0:
        return 0.0
    if mode == "series":
        phi, terms = _phi_series(rod.L ** 3 * q / (12.0 * rod.EJ))
        if phi >= 1.0:
            raise NearCriticalLoadError(
                f"tip integral I reaches L = {rod.L:.6g} m within the first {terms} terms of "
                f"its series: the end moment cancelling it would pass the tip-couple bound "
                f"EJ/L = {rod.EJ / rod.L:.6g} N m"
            )
        return rod.L * phi
    x = _tip_argument(BuiltInCombined, rod)(q)
    if x > 1.0:
        raise NearCriticalLoadError(
            f"the 2F1 approximation of the tip integral diverges past "
            f"{_radius(rod, q, '>')}; use --method closed, whose tip integral is exact")
    # below the radius _tip_closed_form refuses, before summing, a sum past 10^6 terms
    return _tip_closed_form(BuiltInCombined, q, rod, rtol)


def solve_builtin(rod: RodProperties, q: float, method: str, n_terms: int = 11,
                  integral_mode: str = "series",
                  rtol: float = DEFAULT_RTOL) -> RedundancySolution:
    """Built-in end moment by 'linearized', 'series' (n_terms) or 'closed'.

    'closed' evaluates X = 2 EJ I / (L^2 + I^2) with the tip integral I
    from ``integral_mode`` (see ``builtin_tip_integral``): the tip couple
    whose deflection ``tip_deflection_moment`` cancels I. That couple
    stays below its bound EJ/L only while I < L (w = qL^3/EJ < 11.669),
    and neither mode returns a larger I. The dual route takes I from
    ``integrate_deflection(BuiltInCombined(q), rod, 0.0, rtol)``. The
    series method follows the 2F1-approximation route, so its limit is the
    closed value with mode "hyp_approx", and like that route it is refused
    with NearCriticalLoadError from its radius w = qL^3/EJ = 6 on, half
    the feasible range. ``n_terms`` is the largest series index k, so the
    series sums the n_terms + 1 nonzero terms w^1 .. w^(2 n_terms + 1).
    """
    _check_mode(integral_mode)
    rtol = _check_rtol(rtol)
    load = BuiltInCombined(q)
    q = _check_load(load, rod)
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
        i_val = _tip_integral(load, rod, integral_mode, rtol)
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
    even the last step still moves more than tol. ``tol`` is a tolerance
    like every ``rtol``: a finite positive real number.
    """
    tol = _check_rtol(tol)
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
