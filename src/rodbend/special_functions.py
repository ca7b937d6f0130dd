"""Hypergeometric machinery: 2F1, 3F2, Appell F1, Lauricella FD(3).

Series evaluation uses term-ratio recurrences with a three-strikes stop
rule, in two loops. 2F1 and 3F2 share one, which multiplies each term
by a term ratio read in fixed blocks: a ratio depends on the parameters
and the index only, so the blocks used last are kept in one bounded
memo. Appell F1 is Lauricella's FD in two variables, so F1 and FD3 share
the other, a sum over total-degree shells that takes any number of
variables. Integral evaluation goes through the one-dimensional
Euler-type representation

    G(c) / (G(a) G(c-a)) * int_0^1 u^(a-1) (1-u)^(c-a-1) prod (1-x_i u)^(-b_i) du,

valid for c > a > 0, with algebraic endpoint singularities absorbed by
the quadrature layer. Gamma ratios are computed in the log domain only,
from the standard library's ``math.lgamma`` (which returns log|G(v)|)
and the sign rule G(v) < 0 exactly when v < 0 and floor(v) is odd.
All arguments are real; the reduction identities collapse a unit
Lauricella argument into an Appell value and an Appell value with
opposite arguments into a 3F2 value.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from .errors import DomainError, UsageError, _check_rtol, _integer
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
# gauss_2f1 and hyp_3f2 share this loop (_sum_series). Appell F1 and FD3
# share the other one (_fd_series), the Lauricella FD shell sum in two or
# three variables, which applies the same rule to whole shells.
DEFAULT_RTOL = 1e-13
_CONSECUTIVE = 3
_MAX_TERMS = 10 ** 6
_MAX_SHELLS = 10 ** 5

# method="auto" of F1 and FD3 sums the shell series, not the Euler
# integral, when the ln(rtol)/ln(max|x_i|) shells that reach rtol are
# within this budget: max|x_i| <= 0.47 at rtol 1e-13. There the series
# costs 30-230 us and the integral 180-400 us (2-vCPU Xeon, Python 3.11);
# they cross near max|x_i| = 0.6 for FD3 and 0.7 for F1. The budget stays
# below both because the series' rounding error grows with max|x_i|:
# inside the budget it stayed within 4.1e-14 of the integral over 2200
# random draws, and at 0.6 it already reached 4e-14 in 40.
_SHELL_BUDGET = 40

# Term-ratio blocks. The ratio r_k = t_(k+1) / (t_k x) of a 2F1 or 3F2
# series depends on the parameters and k only, so _sum_series reads it in
# blocks of _BLOCK from _ratio_block, which keeps the 1024 blocks used
# last (32 768 ratios). A kept ratio is the same float as a new one, so no
# value depends on what is kept. Only all-float parameter tuples are kept,
# because equal int or Fraction parameters can round differently.
_BLOCK = 32

# quadrature tolerances for the integral representations
_IRT_RTOL = 1e-12
_IRT_ATOL = 1e-15


def _is_nonpositive_integer(v: float) -> bool:
    return v <= 0 and float(v).is_integer()


def _check_finite(where: str, *values: float) -> None:
    """Refuse NaN or infinite input once, before any term is summed."""
    for v in values:
        if not math.isfinite(v):
            raise UsageError(f"{where}: parameters and arguments must be finite, got {v}")


def _check_lower(params: Sequence[float], where: str) -> None:
    for b in params:
        if _is_nonpositive_integer(b):
            raise DomainError(f"{where}: lower parameter {b} is a nonpositive integer")


def pochhammer(lam, n: int):
    """Rising factorial lam*(lam+1)*...*(lam+n-1); 1 when n = 0.

    Exact for int/Fraction input, float otherwise; huge n may overflow
    to inf for float input, which is accepted.
    """
    _integer("pochhammer order", n)
    if n < 0:
        raise UsageError(f"pochhammer order must be a nonnegative integer, got {n}")
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


def _sum_series(params: tuple, x: float, rtol: float) -> float:
    """1 + sum of t_k with t_0 = 1 and t_(k+1) = t_k r_k x, under the stop policy."""
    block = _ratio_block if all(type(v) is float for v in params) else _ratio_block.__wrapped__
    return _sum_ratios(block, params, x, rtol)


def _sum_ratios(block, params: tuple, x: float, rtol: float) -> float:
    """The loop of _sum_series, with the ratios read from ``block(params, start)``.

    Refuses |x| >= 1 before the first term. Callers that sum one all-float
    tuple many times, with rtol already checked, pass _ratio_block and
    skip the other checks.
    """
    if not abs(x) < 1.0:
        raise DomainError(f"{'2F1' if len(params) == 3 else '3F2'} series needs |x| < 1, got x={x}")
    partial = term = 1.0
    quiet = 0
    for start in range(0, _MAX_TERMS, _BLOCK):
        for r in block(params, start):
            # rounds r * x, then the product; term = term * r * x would
            # round term * r first and change the last bits
            term *= r * x
            partial += term
            # <=, so that a terminating sum that is exactly 0 stops too
            if abs(term) <= rtol * abs(partial):
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
    _check_finite("2F1", a, b, c, x)
    _check_rtol(rtol)
    _check_lower((c,), "2F1")
    if x == 0.0:
        return 1.0
    if x == 1.0:
        if c > a + b:
            return gauss_summation(a, b, c)
        raise DomainError(f"2F1 diverges at x=1 unless c > a + b (c={c}, a+b={a + b})")
    return _sum_series((a, b, c), x, rtol)


def gauss_summation(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b)), log-gamma computed.

    A pole of G(c-a) or G(c-b) in the denominator makes the value exactly 0.
    """
    _check_finite("Gauss summation", a, b, c)
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
    _check_finite("3F2", a1, a2, a3, b1, b2, x)
    _check_rtol(rtol)
    _check_lower((b1, b2), "3F2")
    if x == 0.0:
        return 1.0
    return _sum_series((a1, a2, a3, b1, b2), x, rtol)


def _irt_integral(a: float, c: float, factors: Sequence[tuple[float, float]],
                  rtol: float, unit_b: float = 0.0) -> float:
    """Euler-type integral for F1/FD values.

    prefactor(a, c) * int_0^1 u^(a-1) (1-u)^(beta-1) prod (1-x_i u)^(-b_i) du
    with beta = c - a - unit_b; ``factors`` lists (b_i, x_i) pairs with
    x_i < 1, and unit arguments are folded into ``unit_b`` by the caller.

    The interval is split at 1/2 and on each half the distance from the
    endpoint is substituted by a power of t carrying the endpoint factor
    analytically, so the adaptive stage sees a bounded smooth integrand
    and endpoint powers arbitrarily close to -1 cost no accuracy.
    """
    alpha1 = a              # exponent of u, plus one
    beta1 = c - a - unit_b  # exponent of (1-u), plus one
    comp = [(bi, xi) for bi, xi in factors if bi != 0.0 and xi != 0.0]
    if not comp and not unit_b:
        # the integral is B(a, c-a) itself; return the exact quotient
        return 1.0

    def half(own, other, terms):
        """Integral over the half next to one endpoint, e = distance from it.

        ``own``/``other`` are the endpoint powers (plus one) at this and
        the far endpoint; each (b_i, c_i, d_i) in ``terms`` contributes
        (c_i + d_i e)^(-b_i).
        """
        s = max(1.0, 3.0 / own)
        lead, p_own, p_other = s * 0.5 ** own, s * own - 1.0, other - 1.0

        def g(t):
            e = 0.5 * t ** s
            val = lead * t ** p_own * (1.0 - e) ** p_other
            for bi, ci, di in terms:
                val *= (ci + di * e) ** -bi
            return val

        return _adaptive(g, 0.0, 1.0, rtol, 0.5 * _IRT_ATOL, 4096)[0]

    # left half: e = u; right half: e = 1 - u, with 1 - x_i u written
    # as (1 - x_i) + x_i e to avoid cancellation
    v1 = half(alpha1, beta1, [(bi, 1.0, -xi) for bi, xi in comp])
    v2 = half(beta1, alpha1, [(bi, 1.0 - xi, xi) for bi, xi in comp])
    # G(c) / (G(a) G(c-a)) with c > a > 0: all arguments positive
    return math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a)) * (v1 + v2)


def appell_f1(a: float, b1: float, b2: float, c: float, x1: float, x2: float,
              method: str = "auto", rtol: float = DEFAULT_RTOL) -> float:
    """Appell F1(a; b1, b2; c; x1, x2), Lauricella's FD in two variables.

    Routes as ``lauricella_fd3`` does and refuses a unit argument:
    "integral" needs c > a > 0 and both arguments < 1, "series" (the
    shell sum) needs |x1|, |x2| < 1, and "auto" takes the integral when it
    is valid and the series would cost more than ``_SHELL_BUDGET`` shells
    or has |b1 x1| + |b2 x2| > 1, the series otherwise.
    """
    _check_fd_call("F1", method, rtol, a, b1, b2, c, x1, x2)
    if x1 == 1.0 or x2 == 1.0:
        raise DomainError(f"F1 is singular at a unit argument, got ({x1}, {x2})")
    return _fd_route("F1", method, a, (b1, b2), c, (x1, x2), rtol)


def _check_fd_call(name: str, method: str, rtol: float, *values: float) -> None:
    """The usage checks of F1 and FD3: method, finite input, rtol."""
    if method not in ("auto", "integral", "series"):
        raise UsageError(f"unknown method {method!r}")
    _check_finite(name, *values)
    _check_rtol(rtol)


def _fd_route(name: str, method: str, a: float, b: Sequence[float], c: float,
              x: Sequence[float], rtol: float) -> float:
    """An FD value in len(x) variables on the route ``method`` names, by the
    rules ``lauricella_fd3`` states; ``name`` labels the domain errors."""
    series_ok = all(abs(xi) < 1 for xi in x)
    if method == "auto":
        integral_ok = c > a > 0 and all(xi <= 1 for xi in x)
        cheap = series_ok and _series_is_cheaper(b, x, rtol)
        method = "integral" if integral_ok and not cheap else "series"

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
        return _irt_integral(a, c, factors, rtol=min(rtol, _IRT_RTOL), unit_b=unit_b)

    if not series_ok:
        raise DomainError(f"{name} series needs all |x_i| < 1, got {x}")
    _check_lower((c,), name)
    return _fd_series(name, a, b, c, x, rtol)


def _series_is_cheaper(b: Sequence[float], x: Sequence[float], rtol: float) -> bool:
    """Whether the shell series of an FD value with all |x_i| < 1 is the cheaper route.

    Shell s is about max|x_i|^s, so ln(rtol)/ln(max|x_i|) shells reach
    rtol; the series is cheaper while that count is within _SHELL_BUDGET.
    With sum |b_i x_i| > 1 the shells grow before they fall and terms of
    mixed sign cancel, so the series is not taken whatever the count.
    """
    top = max(abs(xi) for xi in x)
    if top == 0.0:
        return True
    return (sum(abs(bi * xi) for bi, xi in zip(b, x)) <= 1.0
            and math.log(rtol) >= _SHELL_BUDGET * math.log(top))


def _fd_series(name: str, a: float, b: Sequence[float], c: float, x: Sequence[float],
               rtol: float) -> float:
    """Lauricella FD series in len(x) variables, summed by total-degree shells.

    Shell s contributes (a)_s/(c)_s times the degree-s coefficient of the
    product of the single-variable factor series (b_i)_k x_i^k / k!. The
    product is folded from the right: each fold holds, by degree, the
    coefficients of the product of one factor series with the fold to its
    right, so a shell adds one coefficient per fold. Appell's F1 is the
    two-variable case and FD3 the three-variable one; ``name`` ("F1" or
    "FD3") labels the error.
    """
    cols = [[1.0] for _ in x]
    folds = [[] for _ in x[1:]]  # innermost (the last two factors) first
    ratio_sc = 1.0  # (a)_s / (c)_s
    total = 0.0
    quiet = 0
    for s in range(_MAX_SHELLS):
        if s > 0:
            ratio_sc *= (a + s - 1) / (c + s - 1)
            for col, bi, xi in zip(cols, b, x):
                col.append(col[-1] * (bi + s - 1) * xi / s)
        right = cols[-1]
        for col, fold in zip(cols[-2::-1], folds):
            conv = 0.0
            for u, v in zip(col, reversed(right)):
                conv += u * v
            fold.append(conv)
            right = fold
        shell = ratio_sc * right[-1]
        total += shell
        if abs(shell) <= rtol * abs(total):
            quiet += 1
            if quiet >= _CONSECUTIVE:
                return total
        else:
            quiet = 0
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
    b = tuple(float(v) for v in b)
    x = tuple(float(v) for v in x)
    if len(b) != 3 or len(x) != 3:
        raise UsageError("FD3 takes exactly three b parameters and three arguments")
    _check_fd_call("FD3", method, rtol, a, *b, c, *x)
    return _fd_route("FD3", method, a, b, c, x, rtol)


def reduce_fd3_unit_arg(a: float, b1: float, b2: float, b3: float, c: float,
                        x: float, y: float, rtol: float = DEFAULT_RTOL) -> float:
    """FD(3)(a; b1, b2, b3; c; x, y, 1) collapsed to an Appell F1 value.

    Returns G(c) G(c-a-b3) / (G(c-a) G(c-b3)) * F1(a; b1, b2; c-b3; x, y);
    the F1 factor is summed as a double series when both arguments allow
    it, so the result is an independent route from the direct integral.
    """
    _check_finite("FD3 reduction", a, b1, b2, b3, c, x, y)
    _check_rtol(rtol)
    if not c > a + b3:
        raise DomainError(f"reduction needs c > a + b3, got c={c}, a+b3={a + b3}")
    if not c > a > 0:
        raise DomainError(f"reduction needs c > a > 0, got a={a}, c={c}")
    method = "series" if (abs(x) < 1 and abs(y) < 1) else "integral"
    f1 = appell_f1(a, b1, b2, c - b3, x, y, method=method, rtol=rtol)
    if b3 == 0.0:
        return f1
    return gauss_summation(a, b3, c) * f1


def reduce_f1_to_3f2(a: float, b: float, c: float, x: float,
                     rtol: float = DEFAULT_RTOL) -> float:
    """F1(a; b, b; c; x, -x) collapsed to a single 3F2 value.

    Returns 3F2((a+1)/2, a/2, b; (c+1)/2, c/2; x^2).
    """
    _check_finite("F1 reduction", a, b, c, x)
    _check_rtol(rtol)
    if not abs(x) < 1:
        raise DomainError(f"reduction needs |x| < 1, got x={x}")
    return hyp_3f2((a + 1.0) / 2.0, a / 2.0, b, (c + 1.0) / 2.0, c / 2.0, x * x, rtol=rtol)
