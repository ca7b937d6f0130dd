"""Adaptive one-dimensional quadrature with endpoint-singularity support.

A 7-point Gauss rule nested in a 15-point Kronrod rule (QUADPACK's GK15)
drives adaptive interval bisection; the difference between the two rules
is the panel error estimate. A panel calls the integrand once per node
with a float and sums the weighted values left to right. Integrable
algebraic endpoint singularities are absorbed by a power substitution
before any panel is evaluated, so the adaptive stage only ever sees a
smooth integrand.

Also hosts the exact rod-deflection integral, which every closed-form
result in the library is checked against.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from ._value import Frozen, set_field
from .errors import InfeasibleLoadError, NearCriticalLoadError, UsageError, _check_rtol, _integer, _real

__all__ = ["IntegrandSpec", "integrate", "integrate_deflection"]

# 15-point Kronrod nodes on [-1, 1] (nonnegative half; the rule is symmetric).
# Even indices of the half array form the embedded 7-point Gauss subset.
_XK = (
    0.000000000000000000000000000000000,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
)
_WK = (
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
)
_WG = (
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
)


# the 15 mirrored nodes with their Kronrod weights; the center lands at
# index 7, so the Gauss subset is the odd indices (zero Gauss weight elsewhere)
_NODES = tuple(-x for x in _XK[:0:-1]) + _XK
_KW = _WK[:0:-1] + _WK
_GW = (0.0,) + tuple(v for w in _WG[:0:-1] + _WG for v in (w, 0.0))


class IntegrandSpec(Frozen):
    """One definite integral with tolerances and singularity hints.

    ``lo_exponent``/``hi_exponent`` declare that the integrand behaves like
    (x - lo)**p resp. (hi - x)**p at the endpoint. Hints must be > -1
    (integrable); None means the integrand is regular there. ``f`` is
    called once per node with a float and must return a float; numpy
    ufuncs work too, since they accept and return scalars.
    """

    __slots__ = ("f", "lo", "hi", "lo_exponent", "hi_exponent", "rtol", "atol",
                 "max_subdivisions")

    def __init__(self, f: Callable[[float], float], lo: float, hi: float,
                 lo_exponent: float | None = None, hi_exponent: float | None = None,
                 rtol: float = 1e-10, atol: float = 1e-14, max_subdivisions: int = 4096):
        if not lo < hi:
            raise UsageError(f"empty or reversed interval [{lo}, {hi}]")
        _check_rtol(rtol)
        if not (math.isfinite(atol) and atol >= 0):
            raise UsageError(f"atol must be finite and nonnegative, got {atol}")
        _integer("max_subdivisions", max_subdivisions)
        if not max_subdivisions >= 1:
            raise UsageError(f"max_subdivisions must be at least 1, got {max_subdivisions}")
        for name, p in (("lo_exponent", lo_exponent), ("hi_exponent", hi_exponent)):
            if p is not None and not p > -1:
                raise UsageError(f"{name}={p} is not integrable (need > -1)")
        set_field(self, "f", f)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "lo_exponent", lo_exponent)
        set_field(self, "hi_exponent", hi_exponent)
        set_field(self, "rtol", rtol)
        set_field(self, "atol", atol)
        set_field(self, "max_subdivisions", max_subdivisions)


def _panel(f, lo, hi):
    """Gauss-Kronrod panel: returns (K15 value, error estimate)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    k15 = g7 = 0.0
    try:
        for x, wk, wg in zip(_NODES, _KW, _GW):
            v = f(mid + half * x)
            k15 += wk * v
            g7 += wg * v
    except OverflowError:  # float ** raises on overflow instead of returning inf
        k15 = math.inf
    # every Kronrod weight is positive, so one non-finite node value shows here
    if not math.isfinite(k15):
        raise UsageError(f"integrand not finite inside [{lo}, {hi}]")
    k15 *= half
    return k15, abs(k15 - half * g7)


class _NotConverged(UsageError):
    """The subdivision budget ran out; ``error`` is the estimate reached."""

    def __init__(self, max_subdivisions, error):
        super().__init__(f"quadrature did not converge within {max_subdivisions} subdivisions "
                         f"(error {error:.3e}); integrand may have a non-integrable singularity")
        self.error = error


def _adaptive(f, lo, hi, rtol, atol, max_subdivisions):
    """Bisect the worst panel until the error bound is met."""
    value, err = _panel(f, lo, hi)
    # max-heap on panel error; counter breaks ties deterministically
    heap = [(-err, 0, lo, hi, value, err)]
    total, total_err = value, err
    count = 1
    while total_err > max(atol, rtol * abs(total)):
        if count >= max_subdivisions:
            raise _NotConverged(max_subdivisions, total_err)
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _panel(f, a, m)
        v2, e2 = _panel(f, m, b)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        count += 2
        heapq.heappush(heap, (-e1, count, a, m, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, m, b, v2, e2))
    return total, total_err


def _absorb(f, end, width, p, direction):
    """Map the piece of length ``width`` beside ``end`` to t in [0, 1] so
    that |x - end|**p becomes ~t**2; ``direction`` is +1 when the piece
    lies above ``end`` (a lower endpoint) and -1 when below it.

    Offsets below one ulp of the endpoint cannot be represented in x,
    so evaluation is clamped there; the affected tail mass is returned
    as an error floor instead of being silently trusted. Returns the
    piece (g, 0.0, 1.0, floor) for ``integrate``.
    """
    gamma = max(1.0, 3.0 / (1.0 + p))
    d_min = math.ulp(1.0) * max(abs(end), width)  # machine epsilon times scale

    def g(t):
        d = max(width * t ** gamma, d_min)
        return f(end + direction * d) * width * gamma * t ** (gamma - 1.0)

    t_clamp = (d_min / width) ** (1.0 / gamma)
    return g, 0.0, 1.0, abs(g(t_clamp)) * t_clamp / 3.0


def integrate(spec: IntegrandSpec) -> tuple[float, float]:
    """Evaluate the integral described by ``spec``.

    Returns (value, error_estimate). The estimate is the summed
    Gauss/Kronrod discrepancy plus, for declared endpoint
    singularities, the representability floor from the substitution
    layer; it is conservative on smooth pieces.
    """
    f, lo, hi = spec.f, spec.lo, spec.hi
    p_lo, p_hi = spec.lo_exponent, spec.hi_exponent
    if p_lo is None and p_hi is None:
        pieces = [(f, lo, hi, 0.0)]
    else:
        # one substituted piece per hinted endpoint, meeting at the midpoint
        mid = lo if p_lo is None else hi if p_hi is None else 0.5 * (lo + hi)
        pieces = []
        if p_lo is not None:
            pieces.append(_absorb(f, lo, mid - lo, p_lo, 1))
        if p_hi is not None:
            pieces.append(_absorb(f, hi, hi - mid, p_hi, -1))

    total, total_err = 0.0, 0.0
    for g, a, b, floor in pieces:
        # below the floor the rule error is dominated by rounding of the
        # endpoint offset, so tightening further cannot help
        atol_each = max(spec.atol / len(pieces), 2.0 * floor)
        v, e = _adaptive(g, a, b, spec.rtol, atol_each, spec.max_subdivisions)
        total += v
        total_err += e + floor
    return total, total_err


def _position(x, rod) -> float:
    """A position on the rod as a float; non-numbers, NaN and points off [0, L] are refused."""
    _real("position x", x)
    x = float(x)
    if not 0.0 <= x <= rod.L:
        raise UsageError(f"position x={x} outside the rod [0, {rod.L}]")
    return x


# fraction of EJ by which |H| must clear the curvature bound
_CRITICAL_MARGIN = 1e-6


def integrate_deflection(load, rod, x: float, rtol: float = 1e-10) -> float:
    """Deflection y(x) of the rod tip side, by direct quadrature.

    Integrates H(xi)/sqrt(EJ^2 - H^2(xi)) over [x, L] with the exact
    (nonlinear-curvature) kinematics; downward deflections are positive.
    Raises InfeasibleLoadError when |H| reaches EJ on the interval and
    NearCriticalLoadError when the relative margin is below 1e-6, where
    the integrand is numerically intractable.
    """
    x, L, EJ = _position(x, rod), rod.L, rod.EJ
    if x == L:
        return 0.0

    # |H| falls toward the wall for every load shape, so its max on [x, L] sits at x
    habs = abs(load.H(x, L))
    margin = (EJ - habs) / EJ
    if margin <= 0.0:
        raise InfeasibleLoadError(
            f"load violates the curvature bound: max |H| = {habs:.6g} >= EJ = {EJ:.6g}"
        )
    if margin < _CRITICAL_MARGIN:
        raise NearCriticalLoadError(
            f"load within {margin:.3e} of the curvature bound (safety margin {_CRITICAL_MARGIN:g})"
        )

    def integrand(xi):
        h = load.H(xi, L)
        return h / math.sqrt((EJ - h) * (EJ + h))

    try:
        value, _ = integrate(IntegrandSpec(f=integrand, lo=x, hi=L, rtol=rtol))
    except _NotConverged as exc:
        raise NearCriticalLoadError(
            f"load within {margin:.3e} of the curvature bound: the deflection quadrature "
            f"stopped at error {exc.error:.3e}, short of rtol={rtol:g}"
        ) from None
    return -value if value != 0.0 else 0.0
