"""Rod and load model with exact (nonlinear-curvature) deflections.

Reference frame: x runs from the free tip (x = 0) toward the wall
(x = L), y is positive downward. A load is feasible only while the
running moment integral H(x) stays below the flexural stiffness in
magnitude; within that bound the exact deflection is

    y(x) = -int_x^L H(xi) / sqrt(EJ^2 - H^2(xi)) dxi,

evaluated either by adaptive quadrature or, for the tip, by the
hypergeometric closed forms of the load shapes' ``tip`` kernels.
"""

from __future__ import annotations

import math

from ._value import Frozen, set_field
from .errors import (DEFAULT_RTOL, InfeasibleLoadError, NearCriticalLoadError, UsageError,
                     _check_rtol, _integer, _real)
from .quadrature import _position, integrate_deflection
from .special_functions import _MAX_TERMS, _shells_within, gauss_2f1, hyp_3f2

__all__ = [
    "RodProperties",
    "UniformLoad",
    "TipShear",
    "TipMoment",
    "BuiltInCombined",
    "LoadCase",
    "DeflectionProfile",
    "bending_moment",
    "cumulative_moment",
    "feasibility_check",
    "tip_deflection_uniform",
    "tip_deflection_shear",
    "tip_deflection_moment",
    "linearized_deflection",
    "deflection_profile",
]


class RodProperties(Frozen):
    """Uniform rod: length L [m] and flexural stiffness EJ [N m^2]."""

    __slots__ = ("L", "EJ")

    def __init__(self, L: float, EJ: float):
        for name, v in (("L", L), ("EJ", EJ)):
            v = _real(name, v)
            if not (math.isfinite(v) and v > 0):
                raise UsageError(f"{name} must be finite and positive, got {v}")
            set_field(self, name, v)

    @classmethod
    def from_stiffness(cls, L: float, EJ: float) -> "RodProperties":
        """The rod of length L and stiffness EJ, the same as ``RodProperties(L, EJ)``;
        kept because the benchmark harness (``perfbench/worker.py``) builds its rods here."""
        return cls(L, EJ)


class LoadCase(Frozen):
    """Base of the load shapes: immutable values with one magnitude field.

    Each shape defines its bending moment ``moment(x, L)``, the running
    moment integral ``H(x, L)`` (M integrated from x to L), the
    small-deflection profile ``linearized(x, L, EJ)`` and the class
    attribute ``bound = (text, k, p, unit)``, which words the feasible
    range |magnitude| * L^p < k * EJ, i.e. |H(0)| < EJ, for messages; the
    gate itself tests |H(0)|. That covers the whole rod only because |H|
    must not increase toward the wall, which the feasibility gate and the
    deflection quadrature rely on.

    A shape with a hypergeometric tip closed form writes its kernel once,
    as ``tip = (d, r, params)``: at magnitude m the tip deflection is
    L^(p+1) m/(d EJ) * pFq(params; (m L^p/(r EJ))^2), p from ``bound``, with
    the upper then lower parameters as (numerator, denominator) pairs.
    """

    __slots__ = ()
    bound: tuple[str, float, int, str]

    def _set_magnitude(self, name, value):
        if type(value) is not float:  # a float, the common case, skips _real
            value = _real(name, value)
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")
        set_field(self, name, value)


class UniformLoad(LoadCase):
    """Distributed load q [N/m], positive downward."""

    __slots__ = ("q",)
    bound = ("q < 6*EJ/L^3", 6.0, 3, "N/m")
    tip = (8, 6, ((1, 2), (1, 1), (3, 2), (7, 6), (5, 3)))

    def __init__(self, q: float):
        self._set_magnitude("q", q)

    def moment(self, x, L):
        return -self.q * x ** 2 / 2.0

    def H(self, x, L):
        return -self.q * (L ** 3 - x ** 3) / 6.0

    def linearized(self, x, L, EJ):
        return self.q * (3.0 * L ** 4 - 4.0 * L ** 3 * x + x ** 4) / (24.0 * EJ)


class TipShear(LoadCase):
    """Concentrated tip force P [N], positive downward."""

    __slots__ = ("P",)
    bound = ("|P| < 2*EJ/L^2", 2.0, 2, "N")
    tip = (-3, 2, ((1, 2), (1, 1), (3, 2), (5, 4), (7, 4)))  # d < 0: X acts upward

    def __init__(self, P: float):
        self._set_magnitude("P", P)

    def moment(self, x, L):
        return -self.P * x

    def H(self, x, L):
        return -self.P * (L ** 2 - x ** 2) / 2.0

    def linearized(self, x, L, EJ):
        return self.P * (2.0 * L ** 3 - 3.0 * L ** 2 * x + x ** 3) / (6.0 * EJ)


class TipMoment(LoadCase):
    """Concentrated tip couple M0 [N m]."""

    __slots__ = ("M0",)
    bound = ("|M0| < EJ/L", 1.0, 1, "N m")

    def __init__(self, M0: float):
        self._set_magnitude("M0", M0)

    def moment(self, x, L):
        return self.M0

    def H(self, x, L):
        return self.M0 * (L - x)

    def linearized(self, x, L, EJ):
        return -self.M0 * (L - x) ** 2 / (2.0 * EJ)


class BuiltInCombined(LoadCase):
    """Distributed load q with half of it equilibrated at the far support.

    Bending moment -q(Lx - x^2)/2: the configuration of a doubly clamped
    rod before its redundant end moment is applied.
    """

    __slots__ = ("q",)
    bound = ("q < 12*EJ/L^3", 12.0, 3, "N/m")
    tip = (24, 6, ((1, 2), (2, 3), (5, 3)))  # the paper's 2F1 approximation; radius 6

    def __init__(self, q: float):
        self._set_magnitude("q", q)

    def moment(self, x, L):
        return -self.q * (L * x - x ** 2) / 2.0

    def H(self, x, L):
        return -self.q * (L - x) ** 2 * (L + 2.0 * x) / 12.0

    def linearized(self, x, L, EJ):
        return self.q * (L - x) ** 3 * (L + x) / (24.0 * EJ)


# each tip kernel's pFq parameters as floats, built once
_TIP_PARAMS = {s: tuple(n / m for n, m in s.tip[2])
               for s in (UniformLoad, TipShear, BuiltInCombined)}


def _tip_argument(shape, rod: RodProperties):
    """m -> the argument (m L^p/(r EJ))^2 of ``shape``'s tip kernel on ``rod``; the
    roller residual builds it once per solve and calls it at every probe."""
    Lp, den = rod.L ** (2 * shape.bound[2]), shape.tip[1] ** 2 * rod.EJ ** 2
    return lambda m: Lp * m ** 2 / den


# each tip kernel's series as a refusal names it, and what the refusal advises
_TIP_NAMES = {
    UniformLoad: ("the uniform load's tip 3F2", ""),
    TipShear: ("the tip force's tip 3F2", ""),
    BuiltInCombined: ("the 2F1 approximation of the tip integral",
                      "; use --method closed, whose tip integral is exact"),
}


def _require_summable(shape, m: float, x: float, rod: RodProperties, rtol: float) -> None:
    """Refuse, before summing any term, a tip kernel argument x < 1 (``shape``'s,
    at magnitude m) whose series needs more than _MAX_TERMS terms to reach rtol.

    Every tip kernel's terms fall at least as x^k, so ln(rtol)/ln(x) terms
    suffice. Below x = 0.999 that is under 7.5e5 for every positive float
    rtol, so one comparison passes the common case; x = 1 is left to the
    summation, which refuses it at once (or sums a 2F1 there in closed form).
    """
    if 0.999 < x < 1.0:
        rtol = _check_rtol(rtol)  # before the logarithm, which a negative rtol would break
        if not _shells_within(x, rtol, _MAX_TERMS):
            what, advice = _TIP_NAMES[shape]
            (name,), p, r = shape.__slots__, shape.bound[2], shape.tip[1]
            w = rod.L ** p * m / rod.EJ
            raise NearCriticalLoadError(
                f"{what} needs more than {_MAX_TERMS} terms to reach rtol={rtol:g} at "
                f"w = {name}L^{p}/EJ = {w:.9g}, within {1.0 - abs(w) / r:.2g} of its "
                f"radius {r}{advice}")


def _tip_closed_form(shape, m: float, rod: RodProperties, rtol: float) -> float:
    """``shape``'s tip closed form at a gated magnitude m, refused near its radius
    by ``_require_summable``."""
    x, params = _tip_argument(shape, rod)(m), _TIP_PARAMS[shape]
    _require_summable(shape, m, x, rod, rtol)
    pfq = gauss_2f1 if len(params) == 3 else hyp_3f2
    return (rod.L ** (shape.bound[2] + 1) * m / (shape.tip[0] * rod.EJ)) * pfq(*params, x, rtol)


def bending_moment(load: LoadCase, x: float, rod: RodProperties) -> float:
    """Bending moment M(x) [N m]."""
    return load.moment(_position(x, rod), rod.L)


def cumulative_moment(load: LoadCase, x: float, rod: RodProperties) -> float:
    """Running moment integral H(x) [N m^2], integrating M from x to L."""
    return load.H(_position(x, rod), rod.L)


def feasibility_check(load: LoadCase, rod: RodProperties) -> float:
    """Max over [0, L] of |H(x)|/EJ; values >= 1 mean the load is infeasible.

    |H| is monotone decreasing toward the wall for every supported load
    shape, so the maximum sits at the free tip.
    """
    return abs(load.H(0.0, rod.L)) / rod.EJ


def _require_feasible(load: LoadCase, rod: RodProperties) -> float:
    """The one feasibility gate: refuse |H(0)| >= EJ; returns the load's float magnitude.

    The same test as ``feasibility_check(load, rod) >= 1`` and as the
    refusal in ``integrate_deflection``, so all three agree to the last
    ulp; ``bound`` only words the message.
    """
    name, = load.__slots__
    magnitude = getattr(load, name)
    if abs(load.H(0.0, rod.L)) >= rod.EJ:
        text, k, p, unit = load.bound
        raise InfeasibleLoadError(
            f"{name} = {magnitude:.6g} violates {text} = {k * rod.EJ / rod.L ** p:.6g} {unit}"
        )
    return magnitude


def tip_deflection_uniform(rod: RodProperties, q: float, rtol: float = DEFAULT_RTOL) -> float:
    """Exact tip deflection under a uniform load, by closed form."""
    q = _require_feasible(UniformLoad(q), rod)
    return _tip_closed_form(UniformLoad, q, rod, rtol)


def tip_deflection_shear(rod: RodProperties, X: float, rtol: float = DEFAULT_RTOL) -> float:
    """Exact tip deflection under a tip force of magnitude X acting upward.

    Equals -integrate_deflection(TipShear(X), rod, 0): positive X lifts
    the tip, so the returned value is negative (upward).
    """
    X = _require_feasible(TipShear(X), rod)
    return _tip_closed_form(TipShear, X, rod, rtol)


def tip_deflection_moment(rod: RodProperties, X: float) -> float:
    """Exact tip deflection under a constant tip couple X, elementary closed form.

    (sqrt(EJ^2 - X^2 L^2) - EJ)/X, written without the difference, so no
    digit cancels at any |X| < EJ/L.
    """
    X = _require_feasible(TipMoment(X), rod)
    L, EJ = rod.L, rod.EJ
    if X == 0.0:
        return 0.0
    return -X * L ** 2 / (EJ + math.sqrt(EJ ** 2 - X ** 2 * L ** 2))


def linearized_deflection(load: LoadCase, rod: RodProperties, x: float) -> float:
    """Small-deflection profile y_lin(x) = -(1/EJ) int_x^L H, per load shape."""
    return load.linearized(_position(x, rod), rod.L, rod.EJ)


class DeflectionProfile(Frozen):
    """Exact deflection curve sampled by quadrature."""

    __slots__ = ("samples",)

    def __init__(self, samples: tuple[tuple[float, float], ...]):
        xs = [s[0] for s in samples]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise UsageError("sample positions must be strictly increasing")
        if samples and abs(samples[-1][1]) > 1e-9:
            raise UsageError(f"wall deflection must vanish, got y(L) = {samples[-1][1]}")
        set_field(self, "samples", samples)


def deflection_profile(load: LoadCase, rod: RodProperties, n_points: int = 201,
                       rtol: float = 1e-10) -> DeflectionProfile:
    """Sample the exact deflection curve on a uniform grid (default 201 points)."""
    _integer("n_points", n_points)
    if n_points < 2:
        raise UsageError("need at least 2 grid points")
    L = rod.L
    step = L / (n_points - 1)
    xs = [i * step for i in range(n_points - 1)] + [L]  # numpy.linspace's grid, bit for bit
    ys = [integrate_deflection(load, rod, x, rtol=rtol) for x in xs]
    return DeflectionProfile(samples=tuple(zip(xs, ys)))
