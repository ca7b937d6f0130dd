"""The tests' one numeric oracle: mpmath, which shares no numeric code with rodbend.

Nothing here sets mpmath's working precision. Each caller picks its own
with ``mp.workdps(n)``, n >= 30, and every oracle refuses a lower one,
so that no reference value is silently computed in double precision:

    with mp.workdps(30):
        want = hyp2f1(a, b, c, x)

Also here: the environment of a fresh process that imports the rodbend
under test.
"""

from __future__ import annotations

import os

import mpmath as mp

__all__ = ["builtin_end_moment", "builtin_tip_integral", "gamma_ratio", "gauss_kronrod",
           "hyp2f1", "hyp3f2", "lauricella_fd", "roller_root", "src_env"]

# the lower parameters of the roller's reaction-side 3F2 per kernel; both
# kernels share the load side's (7/6, 5/3)
_KERNELS = {"expansion": ("7/6", "5/3"), "displacement": ("5/4", "7/4")}


def _precise():
    if mp.mp.dps < 30:
        raise AssertionError(f"oracle called at {mp.mp.dps} digits; wrap it in mp.workdps(30) or more")


def gamma_ratio(num, den) -> float:
    """prod Gamma(num) / prod Gamma(den), rounded to a float."""
    _precise()
    return float(mp.gammaprod(num, den))


def hyp2f1(a, b, c, x):
    """Gauss 2F1(a, b; c; x), including its limit at x = 1."""
    _precise()
    return mp.hyp2f1(a, b, c, x)


def hyp3f2(upper, lower, z):
    """3F2(upper; lower; z) by its series; parameters are exact strings such
    as "7/6". mpmath's default route near z = 1 takes up to a minute per
    value, the forced series a fraction of a second at z = 0.998."""
    _precise()
    return mp.hyper(list(upper), list(lower), z, force_series=True, maxterms=10 ** 6)


def lauricella_fd(a, b, c, x):
    """Lauricella FD(a; b_1, ..., b_n; c; x_1, ..., x_n), all |x_i| < 1, and
    its total-degree shells: returns (value, shells).

    Shell s is (a)_s/(c)_s times the degree-s coefficient of the product of
    the factor series sum_k (b_i)_k x_i^k / k!, each product coefficient a
    direct convolution (mp.fdot), so nothing is shared with a recurrence for
    the product. Summing stops after three shells in a row at or below
    mp.eps times the partial sum."""
    _precise()
    a, c = mp.mpf(a), mp.mpf(c)
    b, x = [mp.mpf(v) for v in b], [mp.mpf(v) for v in x]
    # by degree: each factor series, and folds[i] the product of the factor
    # series i, i + 1, ..., n - 1
    cols = [[mp.mpf(1)] for _ in x]
    folds = [[mp.mpf(1)] for _ in x[1:]] + cols[-1:]
    shells, total, quiet, ratio = [mp.mpf(1)], mp.mpf(1), 0, mp.mpf(1)
    for s in range(1, 10 ** 4):
        for col, bi, xi in zip(cols, b, x):
            col.append(col[-1] * (bi + s - 1) * xi / s)
        for i in range(len(x) - 2, -1, -1):
            folds[i].append(mp.fdot(cols[i], reversed(folds[i + 1])))
        ratio *= (a + s - 1) / (c + s - 1)
        shells.append(ratio * folds[0][-1])
        total += shells[-1]
        quiet = quiet + 1 if abs(shells[-1]) <= mp.eps * abs(total) else 0
        if quiet == 3:
            return total, shells
    raise AssertionError(f"FD shell sum did not settle within {s} shells")


def roller_root(kernel: str, q: float):
    """The root X in (0, top) of the roller consistency condition on the
    reference rod L = 1 m, EJ = 200 N m^2,

        3 L q 3F2(1/2, 1, 3/2; 7/6, 5/3; L^6 q^2 / (36 EJ^2))
            = 8 X 3F2(1/2, 1, 3/2; b1, b2; L^4 X^2 / (4 EJ^2)),

    with (b1, b2) = (7/6, 5/3) for the "expansion" kernel and (5/4, 7/4) for
    "displacement", or None when the root does not lie below the root
    finder's bracket top, 0.999 * 2EJ/L^2, which is rounded in floats as
    the root finder rounds it."""
    L, EJ = 1.0, 200.0
    top = mp.mpf(2.0 * EJ / L ** 2 * 0.999)
    L, EJ, q = mp.mpf(L), mp.mpf(EJ), mp.mpf(q)
    upper = ("1/2", 1, "3/2")
    load = 3 * L * q * hyp3f2(upper, _KERNELS["expansion"], L ** 6 * q ** 2 / (36 * EJ ** 2))

    def residual(X):
        return load - 8 * X * hyp3f2(upper, _KERNELS[kernel], L ** 4 * X ** 2 / (4 * EJ ** 2))

    if residual(top) >= 0:
        return None
    return mp.findroot(residual, (mp.mpf(0), top), solver="anderson")


def builtin_tip_integral(q):
    """The exact tip integral of the built-in reference rod (L = 1 m,
    EJ = 200 N m^2) under the load q,

        I = int_0^L |H| / sqrt(EJ^2 - H^2) dx,   |H| = q (L - x)^2 (L + 2x) / 12.

    Near the critical load q = 12 EJ / L^3 the integrand peaks at the tip
    with width about sqrt((EJ - q L^3 / 12) / q), so the interval is split
    at 1e-3, 1e-2 and 0.1."""
    _precise()
    L, EJ, q = mp.mpf(1), mp.mpf(200), mp.mpf(q)

    def integrand(x):
        h = q * (L - x) ** 2 * (L + 2 * x) / 12
        return h / mp.sqrt((EJ - h) * (EJ + h))

    return mp.quad(integrand, [0, mp.mpf("1e-3"), mp.mpf("1e-2"), mp.mpf("0.1"), L])


def builtin_end_moment(q):
    """End moment X = 2 EJ I / (L^2 + I^2) of the built-in reference rod
    under the load q, with the exact tip integral I of ``builtin_tip_integral``.

    X is the tip couple whose tip deflection cancels I only while I < L;
    past that the couple would pass its bound EJ/L, and the formula's value
    is the mirror root, so ValueError is raised instead."""
    tip = builtin_tip_integral(q)
    if tip >= 1:
        raise ValueError(f"tip integral {tip} reaches L: no end moment below EJ/L cancels it")
    return 400 * tip / (1 + tip ** 2)


def gauss_kronrod(n: int):
    """Nonnegative halves (xg, wg, xk, wk), ascending, of the n-point Gauss
    rule on [-1, 1] and of the (2n+1)-point Kronrod rule that extends it.

    The Kronrod nodes are the Gauss-Legendre nodes and the n + 1 roots of the
    Stieltjes polynomial E, the monic polynomial of degree n + 1 orthogonal
    to x^j P_n(x) for every j <= n. Each polynomial has one parity, so its
    roots come from a polynomial in x^2; each rule's weights solve its even
    moment equations. Computed at three times the working precision."""
    _precise()

    def moment(k):  # int_-1^1 x^k dx
        return mp.mpf(0) if k % 2 else mp.mpf(2) / (k + 1)

    def nonnegative_roots(coeffs, degree):
        ys = mp.polyroots([coeffs.get(p, 0) for p in range(degree, -1, -2)],
                           maxsteps=500, extraprec=mp.mp.prec)
        return [mp.mpf(0)] * (degree % 2) + sorted(mp.sqrt(mp.re(y)) for y in ys)

    def weights(xs):
        rows = [[x ** (2 * k) * (1 if x == 0 else 2) for x in xs] for k in range(len(xs))]
        return list(mp.lu_solve(mp.matrix(rows), mp.matrix([moment(2 * k) for k in range(len(xs))])))

    with mp.extradps(2 * mp.mp.dps):
        legendre = {n - 2 * k: (-1) ** k * mp.binomial(n, k) * mp.binomial(2 * n - 2 * k, n) / 2 ** n
                    for k in range(n // 2 + 1)}

        def inner(j, p):  # int_-1^1 x^(j + p) P_n(x) dx
            return mp.fsum(c * moment(i + j + p) for i, c in legendre.items())

        # only odd j give a condition that parity does not meet already
        powers, conditions = range((n + 1) % 2, n + 1, 2), range(1, n + 1, 2)
        lower = mp.lu_solve(mp.matrix([[inner(j, p) for p in powers] for j in conditions]),
                            mp.matrix([-inner(j, n + 1) for j in conditions]))
        stieltjes = {**dict(zip(powers, lower)), n + 1: 1}
        xg = nonnegative_roots(legendre, n)
        xk = sorted(xg + nonnegative_roots(stieltjes, n + 1))
        rule = xg, weights(xg), xk, weights(xk)
    return tuple([+v for v in part] for part in rule)


def src_env() -> dict:
    """Environment for a fresh process that imports the rodbend under test."""
    import rodbend

    src = os.path.dirname(os.path.dirname(rodbend.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
