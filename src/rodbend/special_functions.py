"""Hypergeometric machinery: 2F1, 3F2, Appell F1, Lauricella FD(3).

Series evaluation uses term-ratio recurrences with a three-strikes stop
rule. 2F1 and 3F2 share one loop, on float parameters, which multiplies
each term by a term ratio read in fixed blocks: a ratio depends on the
parameters and the index only, so the blocks used last are kept in one
bounded memo. It sums the value alone; its twin sums beside the same
value the slope weight S = F + 2xF' that the roller root finder's Newton
step reads. Appell F1 is
Lauricella's FD in two variables, so F1 and FD3 share another, a sum
over total-degree shells in up to three variables; the shells come from
a recurrence on a window of three coefficients, three products per
shell, with zero steps past the live variables. Integral evaluation goes
through the one-dimensional Euler-type representation

    G(c) / (G(a) G(c-a)) * int_0^1 u^(a-1) (1-u)^(c-a-1) prod (1-x_i u)^(-b_i) du,

valid for c > a > 0, split at u = 1/2 with each endpoint power carried
analytically (a power near 0 with its leading part integrated exactly),
and both halves integrated on one error budget. Gamma
ratios are computed in the log domain only, from the standard library's
``math.lgamma`` (which returns log|G(v)|) and the sign rule G(v) < 0
exactly when v < 0 and floor(v) is odd.
All arguments are real; the reduction identities collapse a unit
Lauricella argument into an Appell value and an Appell value with
opposite arguments into a 3F2 value.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from .errors import DEFAULT_RTOL, DomainError, UsageError, _check_rtol, _integer, _real
from .quadrature import _adaptive

__all__ = [
    "pochhammer",
    "gauss_2f1",
    "gauss_summation",
    "hyp_3f2",
    "appell_f1",
    "lauricella_fd3",
    "reduce_fd3_unit_arg",
    "reduce_f1_to_3f2",
]

# Series stop policy: a term counts as negligible when |term| <= rtol*|partial|;
# summation stops after three negligible terms in a row or fails at the cap.
# gauss_2f1, hyp_3f2 and the roller residual share this loop (_sum_value),
# and the roller's Newton step its twin with the slope (_sum_ratios).
# Appell F1 and FD3 share another one (_fd_series), the Lauricella FD shell
# sum in two or three variables, which applies the same rule to whole shells.
_CONSECUTIVE = 3
_MAX_TERMS = 10 ** 6
_MAX_SHELLS = 10 ** 5

# method="auto" of F1 and FD3 sums the shell series, not the Euler
# integral, when the ln(rtol)/ln(max|x_i|) shells that reach rtol are
# within this budget: max|x_i| <= 0.47 at rtol 1e-13. There the series is
# the cheaper route: 8-21 us against 41-87 us for the integral (10th to
# 90th percentile of 40 random draws at each max|x_i| of 0.1, 0.2, 0.3,
# 0.4 and 0.47, F1 and FD3, over three runs; shared 2-vCPU Xeon, Python
# 3.11). Cost alone would allow more: at max|x_i| = 0.9 the median series
# still costs about what the integral does (56-79 against 48-73 us). The
# budget stays at 40 for accuracy: the three-strikes stop leaves a
# truncation error that grows with max|x_i|. Median relative error against
# mpmath, series vs integral, over 1000 random draws with sum |b_i x_i| <= 1:
# 4.7e-15 vs 5.3e-16 at max|x_i| 0.45-0.50, 6.6e-14 vs 7.0e-16 at 0.70-0.75,
# 1.5e-13 vs 7.8e-16 at 0.85-0.90. Raising it waits for a tail bound on the
# stop (ROADMAP item 3).
_SHELL_BUDGET = 40

# Term-ratio blocks. The ratio r_k = t_(k+1) / (t_k x) of a 2F1 or 3F2
# series depends on the parameters and k only, so _sum_value and _sum_ratios
# read it in blocks of _BLOCK from _ratio_block, which keeps the 1024 blocks
# used last (32 768 ratios). A kept ratio is the same float as a new one, so
# no value depends on what is kept.
_BLOCK = 32

# the absolute tolerance of the integral representations
_IRT_ATOL = 1e-15

# An endpoint power (plus one) below this has the endpoint value of the
# Euler integrand's smooth factor integrated exactly (_irt_integral)
_SMALL_POWER = 1.0 / 26.0


def _is_nonpositive_integer(v: float) -> bool:
    return v <= 0 and float(v).is_integer()


def _finite(where: str, *values) -> tuple[float, ...]:
    """``values`` admitted as floats by ``_real`` and refused if NaN or infinite,
    once, before any term is summed; floats, the common case, skip ``_real``."""
    for v in values:
        if type(v) is not float:
            return _finite(where, *(_real(f"{where}: every parameter and argument", u)
                                    for u in values))
        if not math.isfinite(v):
            raise UsageError(f"{where}: parameters and arguments must be finite, got {v}")
    return values


def _check_lower(params: Sequence[float], where: str) -> None:
    for b in params:
        if _is_nonpositive_integer(b):
            raise DomainError(f"{where}: lower parameter {b} is a nonpositive integer")


def pochhammer(lam, n: int):
    """Rising factorial lam*(lam+1)*...*(lam+n-1); 1 when n = 0.

    Exact for a rational lam (int, Fraction); any other real lam is admitted
    as a finite float, and huge n may overflow the product to inf, which is
    accepted.
    """
    _integer("pochhammer order", n)
    if n < 0:
        raise UsageError(f"pochhammer order must be a nonnegative integer, got {n}")
    if isinstance(lam, bool) or not hasattr(type(lam), "denominator"):
        lam = _real("pochhammer lam", lam)
        if not math.isfinite(lam):
            raise UsageError(f"pochhammer lam must be finite, got {lam}")
    result = lam ** 0  # 1 in the arithmetic of lam's type
    for k in range(n):
        result = result * (lam + k)
    return result


@functools.lru_cache(maxsize=1024)
def _ratio_block(params: tuple, start: int) -> tuple[float, ...]:
    """Term ratios r_start, ..., r_(start + _BLOCK - 1) of the 2F1 series
    for three parameters (a, b, c), of the 3F2 series for five."""
    ks = range(start, start + _BLOCK)
    if len(params) == 3:
        a, b, c = params
        return tuple([(a + k) * (b + k) / ((c + k) * (1.0 + k)) for k in ks])
    a1, a2, a3, b1, b2 = params
    return tuple([(a1 + k) * (a2 + k) * (a3 + k) / ((b1 + k) * (b2 + k) * (1.0 + k))
                  for k in ks])


def _sum_ratios(params: tuple, x: float, rtol: float) -> tuple[float, float]:
    """F = 1 + sum t_k, with t_0 = 1 and t_(k+1) = t_k r_k x, under the stop
    policy, and beside it S = 1 + sum (2k + 1) t_k = F + 2xF', summed to F's
    stop; the ratios r_k are read from _ratio_block, so ``params`` are floats.

    Refuses |x| >= 1 before the first term. For a tip kernel with a1 = 1/2,
    (2k + 1) (1/2)_k = (3/2)_k, so S is the 3F2 with a1 raised to 3/2: the
    slope d(X F)/dX at x = c X^2.
    """
    if not abs(x) < 1.0:
        raise DomainError(f"{'2F1' if len(params) == 3 else '3F2'} series needs |x| < 1, got x={x}")
    partial = slope = term = odd = 1.0
    quiet = 0
    for start in range(0, _MAX_TERMS, _BLOCK):
        for r in _ratio_block(params, start):
            # rounds r * x, then the product; term = term * r * x would
            # round term * r first and change the last bits
            term *= r * x
            partial += term
            odd += 2.0
            slope += odd * term
            # |term| <= rtol |partial|, with <= so that a terminating sum
            # that is exactly 0 stops too; the magnitudes are written out,
            # as abs() calls cost more, and a NaN fails the test either way
            if (term if term >= 0.0 else -term) <= rtol * (partial if partial >= 0.0 else -partial):
                quiet += 1
                if quiet >= _CONSECUTIVE:
                    return partial, slope
            else:
                quiet = 0
    raise DomainError(f"series did not converge within {_MAX_TERMS} terms")


def _sum_value(params: tuple, x: float, rtol: float) -> float:
    """F of ``_sum_ratios`` alone: the same float operations in the same
    order, so the same bits and the same refusals, without the slope weight
    that only the roller root finder's Newton step reads."""
    if not abs(x) < 1.0:
        raise DomainError(f"{'2F1' if len(params) == 3 else '3F2'} series needs |x| < 1, got x={x}")
    partial = term = 1.0
    quiet = 0
    for start in range(0, _MAX_TERMS, _BLOCK):
        for r in _ratio_block(params, start):
            term *= r * x
            partial += term
            if (term if term >= 0.0 else -term) <= rtol * (partial if partial >= 0.0 else -partial):
                quiet += 1
                if quiet >= _CONSECUTIVE:
                    return partial
            else:
                quiet = 0
    raise DomainError(f"series did not converge within {_MAX_TERMS} terms")


def gauss_2f1(a: float, b: float, c: float, x: float, rtol: float = DEFAULT_RTOL) -> float:
    """2F1(a, b; c; x) for |x| < 1, or x = 1 under the condition c > a + b.

    Direct series summation; the x = 1 value is the closed Gamma-ratio
    evaluation because the series converges too slowly there.
    """
    a, b, c, x = _finite("2F1", a, b, c, x)
    rtol = _check_rtol(rtol)
    _check_lower((c,), "2F1")
    if x == 0.0:
        return 1.0
    if x == 1.0:
        if c > a + b:
            return gauss_summation(a, b, c)
        raise DomainError(f"2F1 diverges at x=1 unless c > a + b (c={c}, a+b={a + b})")
    return _sum_value((a, b, c), x, rtol)


def gauss_summation(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b)), log-gamma computed.

    A pole of G(c-a) or G(c-b) in the denominator makes the value exactly 0.
    """
    _finite("Gauss summation", a, b, c)  # admitted; the arithmetic stays in the given types
    if not c > a + b:
        raise DomainError(f"Gauss summation needs c > a + b, got c={c}, a+b={a + b}")
    args = (c, c - a - b, c - a, c - b)
    for v in args[:2]:
        if _is_nonpositive_integer(v):
            raise DomainError(f"gamma argument {v} is a nonpositive integer")
    if any(_is_nonpositive_integer(v) for v in args[2:]):
        return 0.0
    logs = [math.lgamma(v) for v in args]
    # G(v) < 0 exactly when v < 0 and floor(v) is odd; poles excluded above
    sign = math.prod(-1.0 if v < 0 and math.floor(v) % 2 else 1.0 for v in args)
    return sign * math.exp(logs[0] + logs[1] - logs[2] - logs[3])


def hyp_3f2(a1: float, a2: float, a3: float, b1: float, b2: float, x: float,
            rtol: float = DEFAULT_RTOL) -> float:
    """3F2(a1, a2, a3; b1, b2; x) by series, |x| < 1."""
    a1, a2, a3, b1, b2, x = _finite("3F2", a1, a2, a3, b1, b2, x)
    rtol = _check_rtol(rtol)
    _check_lower((b1, b2), "3F2")
    if x == 0.0:
        return 1.0
    return _sum_value((a1, a2, a3, b1, b2), x, rtol)


def _irt_integral(a: float, c: float, factors: Sequence[tuple[float, float]],
                  rtol: float, unit_b: float = 0.0) -> float:
    """Euler-type integral for F1/FD values.

    prefactor(a, c) * int_0^1 u^(a-1) (1-u)^(beta-1) prod (1-x_i u)^(-b_i) du
    with beta = c - a - unit_b; ``factors`` lists at most three (b_i, x_i)
    pairs with x_i < 1, and unit arguments are folded into ``unit_b`` by the
    caller.

    The interval is split at 1/2. On each half, with e the distance from
    the endpoint and own its power plus one, the integrand is e^(own-1) G(e)
    with G smooth, and e = t^s / 2 turns it into a power of t times G. For
    own < 4, s = 4/own makes that power exactly t^3, so the adaptive stage
    sees a smooth integrand that vanishes at t = 0; from 4 on, s = 1 and the
    power is t^(own-1). For own below
    _SMALL_POWER that s is so large that every node but the last few has
    e = 0 and the rule sees G(0) alone; there the integral of
    e^(own-1) G(0), G(0) 0.5^own / own, is added exactly, and what is left,
    e^(own-1) (G(e) - G(0)), vanishes like e^own, so s = 4/(own + 1) makes it
    start at t^3. Both halves are integrated on one error budget, relative
    to the whole value, exact parts included.
    """
    alpha1 = a              # exponent of u, plus one
    beta1 = c - a - unit_b  # exponent of (1-u), plus one
    comp = [(bi, xi) for bi, xi in factors if bi != 0.0 and xi != 0.0]
    if not comp and not unit_b:
        # the integral is B(a, c-a) itself; return the exact quotient
        return 1.0

    def half(own, other, terms):
        """The half next to one endpoint as a piece for _adaptive, e = distance
        from it, and the part of it that is integrated exactly.

        ``own``/``other`` are the endpoint powers (plus one) at this and
        the far endpoint; each (n_i, c_i, d_i) in ``terms`` contributes
        (c_i + d_i e)^n_i, n_i = -b_i. Up to two live factors take the
        two-factor expression, padded with (1 + 0 e)^(-0), which is 1
        exactly; three take the three-factor one.
        """
        assert len(terms) <= 3, f"the integrand holds three factors, got {len(terms)}"
        padded = terms + [(-0.0, 1.0, 0.0)] * (3 - len(terms))
        (n1, c1, d1), (n2, c2, d2), (n3, c3, d3) = padded
        if own < _SMALL_POWER:
            s = 4.0 / (own + 1.0)
            try:
                g0 = math.prod([ci ** ni for ni, ci, _ in padded])  # G(0)
                exact = g0 * 0.5 ** own / own
            except ArithmeticError:  # float ** raises on overflow, not give inf
                exact = math.inf
            # a G(0) that overflows, or an own so small that 1/own does, is
            # refused as the panels refuse a node value that is not finite
            if not math.isfinite(exact):
                raise UsageError("integrand not finite inside [0.0, 1.0]")
        else:
            s = max(1.0, 4.0 / own)
            g0 = exact = 0.0
        lead, p_other = s * 0.5 ** own, other - 1.0

        # lead t^3 G(e): the integrand itself for _SMALL_POWER <= own < 4
        if len(terms) == 3:
            def g(ts):
                return [lead * t * t * t * (1.0 - e) ** p_other * (c1 + d1 * e) ** n1
                        * (c2 + d2 * e) ** n2 * (c3 + d3 * e) ** n3
                        for t in ts for e in [0.5 * t ** s]]
        else:
            def g(ts):
                return [lead * t * t * t * (1.0 - e) ** p_other * (c1 + d1 * e) ** n1
                        * (c2 + d2 * e) ** n2
                        for t in ts for e in [0.5 * t ** s]]
        if _SMALL_POWER <= own < 4.0:
            return (g, 0.0, 1.0), exact

        # elsewhere the power of t is s own - 1, and G(0) is taken out below
        # _SMALL_POWER: lead t^(s own - 1) (G(e) - G(0))
        q, lead_g0 = s * own - 4.0, lead * g0

        def rescaled(ts):
            return [t ** q * (v - lead_g0 * t * t * t) for t, v in zip(ts, g(ts))]

        return (rescaled, 0.0, 1.0), exact

    # left half: e = u; right half: e = 1 - u, with 1 - x_i u written
    # as (1 - x_i) + x_i e to avoid cancellation. Both halves are positive,
    # exact parts included, so rtol * |sum| is no looser than the two bounds
    # rtol * |half| added.
    left, exact_left = half(alpha1, beta1, [(-bi, 1.0, -xi) for bi, xi in comp])
    right, exact_right = half(beta1, alpha1, [(-bi, 1.0 - xi, xi) for bi, xi in comp])
    total = _adaptive([left, right], rtol, _IRT_ATOL, 4096, exact_left + exact_right)[0]
    # G(c) / (G(a) G(c-a)) with c > a > 0: all arguments positive
    return math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a)) * total


def appell_f1(a: float, b1: float, b2: float, c: float, x1: float, x2: float,
              method: str = "auto", rtol: float = DEFAULT_RTOL) -> float:
    """Appell F1(a; b1, b2; c; x1, x2), Lauricella's FD in two variables.

    Routes as ``lauricella_fd3`` does and refuses a unit argument:
    "integral" needs c > a > 0 and both arguments < 1, "series" (the
    shell sum) needs |x1|, |x2| < 1, and "auto" takes the integral when it
    is valid and the series would cost more than ``_SHELL_BUDGET`` shells
    or has |b1 x1| + |b2 x2| > 1, the series otherwise.
    """
    (a, b1, b2, c, x1, x2), rtol = _check_fd_call("F1", method, rtol, a, b1, b2, c, x1, x2)
    if x1 == 1.0 or x2 == 1.0:
        raise DomainError(f"F1 is singular at a unit argument, got ({x1}, {x2})")
    return _fd_route("F1", method, a, (b1, b2), c, (x1, x2), rtol)


def _check_fd_call(name: str, method: str, rtol: float, *values) -> tuple[tuple, float]:
    """The usage checks of F1 and FD3: method, finite input, rtol; returns the
    input and rtol as floats."""
    if method not in ("auto", "integral", "series"):
        raise UsageError(f"unknown method {method!r}")
    return _finite(name, *values), _check_rtol(rtol)


def _fd_route(name: str, method: str, a: float, b: Sequence[float], c: float,
              x: Sequence[float], rtol: float) -> float:
    """An FD value in len(x) variables on the route ``method`` names, by the
    rules ``lauricella_fd3`` states; ``name`` labels the domain errors."""
    top = max(max(x), -min(x))  # max |x_i|
    if method == "auto":
        cheap = top < 1.0 and _series_is_cheaper(b, x, top, rtol)
        method = "integral" if c > a > 0 and max(x) <= 1.0 and not cheap else "series"

    if method == "integral":
        if not c > a > 0:
            raise DomainError(f"{name} integral path needs c > a > 0, got a={a}, c={c}")
        unit_b = 0.0
        factors = []
        for bi, xi in zip(b, x):
            if xi > 1:
                raise DomainError(f"{name} argument {xi} > 1 is outside the real domain")
            if xi == 1.0:
                unit_b += bi
            else:
                factors.append((bi, xi))
        if unit_b and not c > a + unit_b:
            raise DomainError(
                f"unit argument needs c > a + b_i at the unit slots (c={c}, a+b={a + unit_b})"
            )
        return _irt_integral(a, c, factors, rtol=rtol, unit_b=unit_b)

    if not top < 1.0:
        raise DomainError(f"{name} series needs all |x_i| < 1, got {x}")
    _check_lower((c,), name)
    return _fd_series(name, a, b, c, x, rtol)


def _series_is_cheaper(b: Sequence[float], x: Sequence[float], top: float,
                       rtol: float) -> bool:
    """Whether the shell series of an FD value with top = max|x_i| < 1 is the
    cheaper route.

    Shell s is about top^s, so ln(rtol)/ln(top) shells reach rtol; the
    series is cheaper while that count is within _SHELL_BUDGET. With
    sum |b_i x_i| > 1 the shells grow before they fall and terms of mixed
    sign cancel, so the series is not taken whatever the count. The sum is
    added left to right in a loop: built-in sum() compensates its rounding
    from Python 3.12 on, which moved a sum near 1 across the test, and so
    the route and the bits, with the Python version.
    """
    weight = 0.0
    for bi, xi in zip(b, x):
        weight += abs(bi * xi)
    return weight <= 1.0 and _shells_within(top, rtol, _SHELL_BUDGET)


def _shells_within(top: float, rtol: float, budget: int) -> bool:
    """Whether ln(rtol)/ln(top) shells, about what an FD series whose largest
    |x_i| is top < 1 sums to reach rtol, are at most ``budget``; the same
    count bounds the terms of a 2F1 series at x = top whose coefficients do
    not rise, such as the built-in tip kernel's."""
    return top == 0.0 or math.log(rtol) >= budget * math.log(top)


def _fd_series(name: str, a: float, b: Sequence[float], c: float, x: Sequence[float],
               rtol: float) -> float:
    """Lauricella FD series in len(x) <= 3 variables, summed by total-degree shells.

    Shell s is (a)_s/(c)_s times the degree-s Taylor coefficient c_s of
    P(t) = prod (1 - x_i t)^(-b_i). P satisfies Q P' = R P, with
    Q = prod (1 - x_i t) = sum q_k t^k and
    R = sum b_i x_i prod_(j != i) (1 - x_j t) = sum r_k t^k, so for the
    n factors with b_i != 0 and x_i != 0 (the others are 1)

        (s + 1) c_(s+1) = sum_(k < n) (r_k - (s - k) q_(k+1)) c_(s-k).

    The window is scalar: R and Q are built in the float slots r_0..r_2
    and q_1..q_3 (q_0 = 1), one update per live factor, and the loop keeps
    c_s, c_(s-1), c_(s-2) alone and takes three products per shell on a
    float index s. The slots past the n live factors stay r_k = q_(k+1) = 0,
    so their steps add zeros, which leave the sum's bits as they are, and
    F1 and FD3 run one expression. Each of the recurrence's modes decays
    like |x_i|^s, so rounding stays of the order of a direct convolution.
    Appell's F1 is the two-variable case and FD3 the three-variable one;
    ``name`` ("F1" or "FD3") labels the error.
    """
    assert len(x) <= 3, f"{name}: the window holds three factors, got {len(x)}"
    # R <- R (1 - x_i t) + b_i x_i Q, then Q <- Q (1 - x_i t). A slot past
    # the factors taken so far stays +0.0, since each product into it has a
    # zero factor
    r0 = r1 = r2 = q1 = q2 = q3 = 0.0
    for bi, xi in zip(b, x):
        if bi != 0.0 and xi != 0.0:
            bx = bi * xi
            r0, r1, r2 = r0 + bx, r1 - xi * r0 + bx * q1, r2 - xi * r1 + bx * q2
            q1, q2, q3 = q1 - xi, q2 - xi * q1, q3 - xi * q2
    c0, c1, c2 = 1.0, 0.0, 0.0  # the window c_s, c_(s-1), c_(s-2); c_k = 0 for k < 0
    ratio_sc = 1.0  # (a)_s / (c)_s
    total = 0.0
    quiet = 0
    s = 0.0  # the shell index, kept as a float: every use of it is float arithmetic
    for _ in range(_MAX_SHELLS):
        shell = ratio_sc * c0
        total += shell
        # |shell| <= rtol |total|, the magnitudes written out as in _sum_ratios
        if (shell if shell >= 0.0 else -shell) <= rtol * (total if total >= 0.0 else -total):
            quiet += 1
            if quiet >= _CONSECUTIVE:
                return total
        else:
            quiet = 0
        following = (r0 - s * q1) * c0 + (r1 - (s - 1.0) * q2) * c1 + (r2 - (s - 2.0) * q3) * c2
        s += 1.0
        c0, c1, c2 = following / s, c0, c1
        ratio_sc *= (a + s - 1.0) / (c + s - 1.0)
    raise DomainError(f"{name} series did not converge within {_MAX_SHELLS} shells")


def lauricella_fd3(a: float, b: Sequence[float], c: float, x: Sequence[float],
                   method: str = "auto", rtol: float = DEFAULT_RTOL) -> float:
    """Lauricella FD(3)(a; b1, b2, b3; c; x1, x2, x3).

    The integral path accepts x_i = 1 when c > a + (sum of the unit-slot
    b_i), folding those factors into the (1-u) endpoint power; the series
    path needs all |x_i| < 1. "auto" chooses as ``appell_f1`` does: the
    integral when it is valid and the series would cost more than
    ``_SHELL_BUDGET`` shells or has sum |b_i x_i| > 1, the series otherwise.
    """
    b, x = tuple(b), tuple(x)
    if len(b) != 3 or len(x) != 3:
        raise UsageError("FD3 takes exactly three b parameters and three arguments")
    v, rtol = _check_fd_call("FD3", method, rtol, a, *b, c, *x)
    return _fd_route("FD3", method, v[0], v[1:4], v[4], v[5:], rtol)


def reduce_fd3_unit_arg(a: float, b1: float, b2: float, b3: float, c: float,
                        x: float, y: float, rtol: float = DEFAULT_RTOL) -> float:
    """FD(3)(a; b1, b2, b3; c; x, y, 1) collapsed to an Appell F1 value.

    Returns G(c) G(c-a-b3) / (G(c-a) G(c-b3)) * F1(a; b1, b2; c-b3; x, y);
    the F1 factor is summed as a double series when |x|, |y| < 1 and the
    series reaches rtol within ``_MAX_SHELLS`` shells, so the result is an
    independent route from the direct integral; otherwise it is the F1
    integral.
    """
    _finite("FD3 reduction", a, b1, b2, b3, c, x, y)  # admitted; the arithmetic stays exact
    rtol = _check_rtol(rtol)
    if not c > a + b3:
        raise DomainError(f"reduction needs c > a + b3, got c={c}, a+b3={a + b3}")
    if not c > a > 0:
        raise DomainError(f"reduction needs c > a > 0, got a={a}, c={c}")
    top = max(abs(x), abs(y))
    method = "series" if top < 1 and _shells_within(top, rtol, _MAX_SHELLS) else "integral"
    f1 = appell_f1(a, b1, b2, c - b3, x, y, method=method, rtol=rtol)
    if b3 == 0.0:
        return f1
    return gauss_summation(a, b3, c) * f1


def reduce_f1_to_3f2(a: float, b: float, c: float, x: float,
                     rtol: float = DEFAULT_RTOL) -> float:
    """F1(a; b, b; c; x, -x) collapsed to a single 3F2 value.

    Returns 3F2((a+1)/2, a/2, b; (c+1)/2, c/2; x^2).
    """
    _finite("F1 reduction", a, b, c, x)
    rtol = _check_rtol(rtol)
    if not abs(x) < 1:
        raise DomainError(f"reduction needs |x| < 1, got x={x}")
    return hyp_3f2((a + 1.0) / 2.0, a / 2.0, b, (c + 1.0) / 2.0, c / 2.0, x * x, rtol=rtol)
