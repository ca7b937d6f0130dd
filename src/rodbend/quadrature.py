"""Adaptive one-dimensional quadrature with endpoint-singularity support.

A 20-point Gauss rule nested in a 41-point Kronrod rule (QUADPACK's qk41)
drives adaptive interval bisection; the difference between the two rules
is the panel error estimate. A panel hands its integrand the list of its
41 nodes and takes back the list of the values there, which it sums
weighted left to right, the Gauss sum over its own 20 nodes only;
``integrate()`` calls the user's integrand once per node with a float.
Integrable algebraic endpoint singularities are absorbed by a power
substitution before any panel is evaluated, so the adaptive stage only
ever sees a smooth integrand. An integral made of
several pieces (the substituted pieces beside two hinted endpoints, or
the two halves of an Euler integral) is integrated on one error budget:
one heap holds the panels of every piece, and the worst of them is
bisected until the summed estimate meets the tolerance.

Also hosts the exact rod-deflection integral, which every closed-form
result in the library is checked against.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

from ._value import Frozen, set_field
from .errors import InfeasibleLoadError, NearCriticalLoadError, UsageError, _check_rtol, _integer, _real

__all__ = ["IntegrandSpec", "integrate", "integrate_deflection"]

# 41-point Kronrod nodes on [-1, 1] (nonnegative half, ascending; the rule
# is symmetric) and their weights, with the weights of the embedded 20-point
# Gauss rule, whose nodes are the odd indices of the half array. QUADPACK's
# qk41 pair; the tests recompute it with mpmath (tests/_oracle.py).
_XK = (
    0.000000000000000000000000000000000,
    0.076526521133497333754640409398838,
    0.152605465240922675505220241022678,
    0.227785851141645078080496195368575,
    0.301627868114913004320555356858592,
    0.373706088715419560672548177024927,
    0.443593175238725103199992213492640,
    0.510867001950827098004364050955251,
    0.575140446819710315342946036586425,
    0.636053680726515025452836696226286,
    0.693237656334751384805490711845932,
    0.746331906460150792614305070355642,
    0.795041428837551198350638833272788,
    0.839116971822218823394529061701521,
    0.878276811252281976077442995113078,
    0.912234428251325905867752441203298,
    0.940822633831754753519982722212443,
    0.963971927277913791267666131197277,
    0.981507877450250259193342994720217,
    0.993128599185094924786122388471320,
    0.998859031588277663838315576545863,
)
_WK = (
    0.076600711917999656445049901530102,
    0.076377867672080736705502835038061,
    0.075704497684556674659542775376617,
    0.074582875400499188986581418362488,
    0.073030690332786667495189417658913,
    0.071054423553444068305790361723210,
    0.068648672928521619345623411885368,
    0.065834597133618422111563556969398,
    0.062653237554781168025870122174255,
    0.059111400880639572374967220648594,
    0.055195105348285994744832372419777,
    0.050944573923728691932707670050345,
    0.046434821867497674720231880926108,
    0.041668873327973686263788305936895,
    0.036600169758200798030557240707211,
    0.031287306777032798958543119323801,
    0.025882133604951158834505067096153,
    0.020388373461266523598010231432755,
    0.014626169256971252983787960308868,
    0.008600269855642942198661787950102,
    0.003073583718520531501218293246031,
)
_WG = (
    0.152753387130725850698084331955098,
    0.149172986472603746787828737001969,
    0.142096109318382051329298325067165,
    0.131688638449176626898494499748163,
    0.118194531961518417312377377711382,
    0.101930119817240435036750135480350,
    0.083276741576704748724758143222046,
    0.062672048334109063569506535187042,
    0.040601429800386941331039952274932,
    0.017614007139152118311861962351853,
)


# the 41 mirrored nodes with their Kronrod weights. G20 has no center node,
# so the Gauss nodes are the odd indices 1, 3, ..., 39 and their weights
# mirror without a shared middle.
_NODES = tuple(-x for x in _XK[:0:-1]) + _XK
_KW = _WK[:0:-1] + _WK
_GW = _WG[::-1] + _WG


class IntegrandSpec(Frozen):
    """One definite integral with tolerances and singularity hints.

    ``lo_exponent``/``hi_exponent`` declare that the integrand behaves like
    (x - lo)**p resp. (hi - x)**p at the endpoint. Hints must be > -1
    (integrable); None means the integrand is regular there. ``lo``, ``hi``,
    the hints and the tolerances are stored as floats, whatever real type
    comes in. ``f`` is called once per node with a float and must return a
    float; numpy ufuncs work too, since they accept and return scalars.
    """

    __slots__ = ("f", "lo", "hi", "lo_exponent", "hi_exponent", "rtol", "atol",
                 "max_subdivisions")

    def __init__(self, f: Callable[[float], float], lo: float, hi: float,
                 lo_exponent: float | None = None, hi_exponent: float | None = None,
                 rtol: float = 1e-10, atol: float = 1e-14, max_subdivisions: int = 4096):
        lo, hi = _real("lo", lo), _real("hi", hi)
        if not lo < hi:
            raise UsageError(f"empty or reversed interval [{lo}, {hi}]")
        rtol = _check_rtol(rtol)
        atol = _real("atol", atol)
        if not (math.isfinite(atol) and atol >= 0):
            raise UsageError(f"atol must be finite and nonnegative, got {atol}")
        _integer("max_subdivisions", max_subdivisions)
        if not max_subdivisions >= 1:
            raise UsageError(f"max_subdivisions must be at least 1, got {max_subdivisions}")
        for name, p in (("lo_exponent", lo_exponent), ("hi_exponent", hi_exponent)):
            if p is not None:
                p = _real(name, p)
                if not p > -1:
                    raise UsageError(f"{name}={p} is not integrable (need > -1)")
            set_field(self, name, p)
        set_field(self, "f", f)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "rtol", rtol)
        set_field(self, "atol", atol)
        set_field(self, "max_subdivisions", max_subdivisions)


def _panel(f, lo, hi):
    """Gauss-Kronrod panel: returns (K41 value, error estimate |K41 - G20|).

    ``f`` maps the list of the 41 nodes, left to right, to the list of its
    values there. Each rule sums its weighted values left to right in an
    explicit loop, whose rounding does not change with the Python version
    as ``sum()``'s did in 3.12.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    k41 = g20 = 0.0
    try:
        values = f([mid + half * x for x in _NODES])
    except ArithmeticError:  # float ** and / raise on overflow or a zero divisor, not give inf
        k41 = math.inf
    else:
        for w, v in zip(_KW, values):
            k41 += w * v
        for w, v in zip(_GW, values[1::2]):
            g20 += w * v
    # every Kronrod weight is positive, so one non-finite node value shows here
    if not math.isfinite(k41):
        raise UsageError(f"integrand not finite inside [{lo}, {hi}]")
    k41 *= half
    return k41, abs(k41 - half * g20)


class _NotConverged(UsageError):
    """The subdivision budget ran out; ``error`` is the estimate reached."""

    def __init__(self, max_subdivisions, error):
        super().__init__(f"quadrature did not converge within {max_subdivisions} subdivisions "
                         f"(error {error:.3e}); integrand may have a non-integrable singularity")
        self.error = error


def _adaptive(pieces, rtol, atol, max_subdivisions, start=0.0):
    """Integrate the sum over ``pieces``, a list of (f, lo, hi) with ``f`` a
    list-in, list-out integrand as ``_panel`` takes it, on one error budget:
    bisect the worst panel among all pieces until the summed error estimate
    is at most max(atol, rtol * |summed value|).

    ``start`` is a part of the value known exactly, added to the sum before
    the first panel, so that the stop test is relative to the whole value.
    The panel budget is ``max_subdivisions`` per piece. Returns the summed
    (value, error estimate).
    """
    total, total_err = start, 0.0
    # max-heap on panel error; a counter breaks ties deterministically
    heap = []
    for f, lo, hi in pieces:
        value, err = _panel(f, lo, hi)
        heap.append((-err, len(heap), f, lo, hi, value, err))
        total += value
        total_err += err
    heapq.heapify(heap)
    count = len(heap)
    budget = max_subdivisions * count
    while total_err > max(atol, rtol * abs(total)):
        if count >= budget:
            raise _NotConverged(budget, total_err)
        _, _, f, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _panel(f, a, m)
        v2, e2 = _panel(f, m, b)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        count += 2
        heapq.heappush(heap, (-e1, count, f, a, m, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, f, m, b, v2, e2))
    return total, total_err


def _absorb(f, end, width, p, direction):
    """Map the piece of length ``width`` beside ``end`` to t in [0, 1] so
    that |x - end|**p becomes ~t**2; ``direction`` is +1 when the piece
    lies above ``end`` (a lower endpoint) and -1 when below it.

    Offsets below the endpoint's own float spacing (the smallest normal
    float at a zero endpoint) cannot be represented in x, so evaluation
    is clamped there; the affected tail mass is returned as an error
    floor instead of being silently trusted. Returns the piece
    (g, 0.0, 1.0) and its floor for ``integrate``.
    """
    gamma = max(1.0, 3.0 / (1.0 + p))
    d_min = max(math.ulp(end), sys.float_info.min)

    def g(ts):
        return [f(end + direction * max(width * t ** gamma, d_min)) * width * gamma
                * t ** (gamma - 1.0) for t in ts]

    t_clamp = (d_min / width) ** (1.0 / gamma)
    return (g, 0.0, 1.0), abs(g([t_clamp])[0]) * t_clamp / 3.0


def integrate(spec: IntegrandSpec) -> tuple[float, float]:
    """Evaluate the integral described by ``spec``.

    Returns (value, error_estimate). The estimate is the summed
    Gauss/Kronrod discrepancy plus, for declared endpoint
    singularities, the representability floor from the substitution
    layer; it is conservative on smooth pieces.
    """
    f, lo, hi = spec.f, spec.lo, spec.hi
    p_lo, p_hi = spec.lo_exponent, spec.hi_exponent
    pieces, floor = [], 0.0
    if p_lo is None and p_hi is None:
        pieces.append((lambda xs: [f(x) for x in xs], lo, hi))
    else:
        # one substituted piece per hinted endpoint, meeting at the midpoint
        mid = lo if p_lo is None else hi if p_hi is None else 0.5 * (lo + hi)
        for end, width, p, direction in ((lo, mid - lo, p_lo, 1), (hi, hi - mid, p_hi, -1)):
            if p is not None:
                piece, piece_floor = _absorb(f, end, width, p, direction)
                pieces.append(piece)
                floor += piece_floor

    # below the floor the rule error is dominated by rounding of the
    # endpoint offset, so tightening further cannot help
    value, err = _adaptive(pieces, spec.rtol, max(spec.atol, 2.0 * floor), spec.max_subdivisions)
    return value, err + floor


def _position(x, rod) -> float:
    """A position on the rod as a float; non-numbers, NaN and points off [0, L] are refused."""
    x = _real("position x", x)
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
    return _deflection(load, rod, _position(x, rod), _check_rtol(rtol))


def _deflection(load, rod, x: float, rtol: float) -> float:
    """``integrate_deflection`` at a checked position and rtol: the one
    _adaptive piece a hint-free ``integrate`` sums, with its atol 1e-14."""
    L, EJ = rod.L, rod.EJ
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

    def integrand(xis):
        return [h / math.sqrt((EJ - h) * (EJ + h)) for h in [load.H(xi, L) for xi in xis]]

    try:
        value, _ = _adaptive([(integrand, x, L)], rtol, 1e-14, 4096)
    except _NotConverged as exc:
        raise NearCriticalLoadError(
            f"load within {margin:.3e} of the curvature bound: the deflection quadrature "
            f"stopped at error {exc.error:.3e}, short of rtol={rtol:g}"
        ) from None
    return -value if value != 0.0 else 0.0
