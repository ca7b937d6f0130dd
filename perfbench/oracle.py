"""Independent references for every benchmark input, computed with mpmath.

Nothing here imports rodbend. The references follow the definitions,
not the library's routes:

- 3F2, 2F1 and Appell F1 values come from mpmath's hyp3f2, hyp2f1 and
  appellf1; Lauricella FD3 from quadrature of its Euler integral.
- Tip deflections, the built-in tip integral and deflection profiles
  integrate y(x) = -int_x^L H / sqrt(EJ^2 - H^2) directly.
- The roller reaction solves Y F(Y^2) = (3/16) w F(w^2/36) by secant
  steps; F = 3F2(1/2, 1, 3/2; 7/6, 5/3; .) is taken from hyp3f2
  below z = 0.9 and from its tip-integral form (4/3) int_0^1 u /
  sqrt(1 - z u^2) ds, u = 1 - s^3, closer to 1, where the series is slow.
- Reaction series are reverted by Lagrange inversion in multiprecision
  floats, a different algorithm from the library's exact composition.

Every reference is computed at 20 or more significant digits, and one
whose quadrature error estimate exceeds a thousandth of the accuracy
target stops the run.
"""

from __future__ import annotations

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

from workloads import ACCURACY_TARGET, EJ as EJ_FLOAT, L as L_FLOAT, PROFILE_POINTS

DPS = 20
SERIES_DPS = 40

mp.mp.dps = DPS
# a reference must be a thousand times more accurate than the target
REFERENCE_RTOL = ACCURACY_TARGET * 1e-3
EJ = mp.mpf(EJ_FLOAT)
L = mp.mpf(L_FLOAT)


class OracleError(RuntimeError):
    """A reference could not be computed to the required accuracy."""


def _quad(fn, points):
    value, err = mp.quad(fn, points, error=True)
    if err > REFERENCE_RTOL * abs(value):
        raise OracleError(f"quadrature error {mp.nstr(err, 3)} too large for {mp.nstr(value, 10)}")
    return value


def _near_zero_points(margin):
    """Breakpoints resolving a peak at x = 0 whose height grows as margin -> 0."""
    pts = {mp.mpf(0), L}
    for p in (margin, mp.sqrt(margin), mp.cbrt(margin), mp.mpf("0.1")):
        if 0 < p < L:
            pts.add(p * L)
    return sorted(pts)


# running moment integral H(x) for each load shape (x from the free tip)
def _h_function(shape: str, load):
    load = mp.mpf(load)
    if shape == "UniformLoad":
        return lambda x: -load * (L ** 3 - x ** 3) / 6
    if shape == "TipShear":
        return lambda x: -load * (L ** 2 - x ** 2) / 2
    if shape == "TipMoment":
        return lambda x: load * (L - x)
    if shape == "BuiltInCombined":
        return lambda x: -load * (L - x) ** 2 * (L + 2 * x) / 12
    raise ValueError(shape)


def _slope(h):
    return lambda x: (lambda v: v / mp.sqrt((EJ - v) * (EJ + v)))(h(x))


def tip_deflection(shape: str, load):
    """y(0) = -int_0^L H / sqrt(EJ^2 - H^2), positive downward."""
    h = _h_function(shape, load)
    margin = (EJ - abs(h(mp.mpf(0)))) / EJ
    return -_quad(_slope(h), _near_zero_points(margin))


def _f_uniform(z):
    """3F2(1/2, 1, 3/2; 7/6, 5/3; z) for 0 <= z < 1."""
    z = mp.mpf(z)
    if z < mp.mpf("0.9"):
        return mp.hyp3f2(0.5, 1, 1.5, mp.mpf(7) / 6, mp.mpf(5) / 3, z)
    u = lambda s: 1 - s ** 3
    return mp.mpf(4) / 3 * _quad(lambda s: u(s) / mp.sqrt(1 - z * u(s) ** 2),
                                 _near_zero_points(1 - z))


def roller_reaction(q):
    """Root X of the roller consistency equation (kernel "expansion").

    Solves log(Y F(Y^2)) = log((3/16) w F(w^2/36)) by secant steps in
    s = log(1 - Y): near the critical load Y -> 1 and the left side is
    close to linear in s, so the steps converge in about ten evaluations.
    """
    q = mp.mpf(q)
    w = L ** 3 * q / EJ
    target = mp.log(mp.mpf(3) / 16 * w * _f_uniform(w * w / 36))

    def h(s):
        y = -mp.expm1(s)
        return mp.log(y * _f_uniform(y * y)) - target

    s_prev = mp.log(1 - min(3 * w / 16, mp.mpf("0.999")))  # linearized Y = 3w/16
    s = s_prev - mp.mpf(1) / 2
    h_prev, h_cur = h(s_prev), h(s)
    for _ in range(50):
        step = h_cur * (s - s_prev) / (h_cur - h_prev)
        s_prev, h_prev = s, h_cur
        s = min(s - step, s_prev / 2)   # stay inside Y in (0, 1)
        h_cur = h(s)
        if abs(step) < mp.mpf(10) ** -15:
            return 2 * EJ * -mp.expm1(s) / L ** 2
    raise OracleError(f"roller root for q={q} did not converge")


def builtin_moment(q):
    """X = 2 EJ I / (L^2 + I^2), I the exact tip integral of the clamped rod."""
    i_val = tip_deflection("BuiltInCombined", q)
    return 2 * EJ * i_val / (L ** 2 + i_val ** 2)


def builtin_moment_hyp_approx(q):
    """The same map with I from its leading-order 2F1 approximation."""
    q = mp.mpf(q)
    i_val = L ** 4 * q / (24 * EJ) * mp.hyp2f1(0.5, mp.mpf(2) / 3, mp.mpf(5) / 3,
                                              L ** 6 * q ** 2 / (36 * EJ ** 2))
    return 2 * EJ * i_val / (L ** 2 + i_val ** 2)


def lauricella_fd3(a, b, c, x):
    """FD3 by its Euler integral, c > a > 0."""
    a, c = mp.mpf(a), mp.mpf(c)
    b = [mp.mpf(v) for v in b]
    x = [mp.mpf(v) for v in x]

    def integrand(u):
        val = u ** (a - 1) * (1 - u) ** (c - a - 1)
        for bi, xi in zip(b, x):
            val *= (1 - xi * u) ** (-bi)
        return val

    prefactor = mp.gamma(c) / (mp.gamma(a) * mp.gamma(c - a))
    return prefactor * _quad(integrand, [0, mp.mpf(1) / 2, 1])


# deflection profiles: composite fixed-order Gauss-Legendre per grid cell,
# summed from the wall; a second order confirms the first
_GL_NODES = {deg: GaussLegendre(mp.mp).calc_nodes(deg, mp.mp.prec) for deg in (2, 3)}


def _cell_integrals(fn, xs, degree):
    nodes = _GL_NODES[degree]
    out = []
    for a, b in zip(xs, xs[1:]):
        half, mid = (b - a) / 2, (a + b) / 2
        out.append(half * mp.fsum(w * fn(mid + half * t) for t, w in nodes))
    return out


def _from_wall(cells):
    ys = [mp.mpf(0)] * (len(cells) + 1)
    acc = mp.mpf(0)
    for i in range(len(cells) - 1, -1, -1):
        acc += cells[i]
        ys[i] = -acc
    return ys


def profile(shape: str, load, n_points: int = PROFILE_POINTS):
    """Exact and linearized deflection on the uniform n-point grid."""
    h = _h_function(shape, load)
    xs = [L * i / (n_points - 1) for i in range(n_points)]
    exact = _from_wall(_cell_integrals(_slope(h), xs, 2))
    check = _from_wall(_cell_integrals(_slope(h), xs, 3))
    scale = max(abs(v) for v in check)
    if max(abs(a - b) for a, b in zip(exact, check)) > REFERENCE_RTOL * scale:
        raise OracleError(f"profile {shape}({load}) did not converge")
    # H is a polynomial of degree <= 3, integrated exactly by the 6-point rule
    linear = _from_wall(_cell_integrals(lambda x: h(x) / EJ, xs, 2))
    return check, linear


# reaction series by Lagrange inversion in multiprecision floats

def _mul(a, b, n):
    out = [mp.mpf(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                out[i + j] += ai * bj
    return out


def _reciprocal(a, n):
    out = [mp.mpf(0)] * (n + 1)
    out[0] = 1 / a[0]
    for k in range(1, n + 1):
        out[k] = -mp.fsum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)) / a[0]
    return out


def _compose_odd(outer, inner, n):
    """outer(inner(w)) through w^n; inner has no constant term."""
    out = [mp.mpf(0)] * (n + 1)
    power = [mp.mpf(0)] * (n + 1)
    power[0] = mp.mpf(1)
    for k in range(1, n + 1):
        power = _mul(power, inner, n)
        if outer[k]:
            for i in range(n + 1):
                out[i] += outer[k] * power[i]
    return out


def _hyp_taylor_in_y(upper, lower, n, scale=1):
    """Coefficients of y * pFq(upper; lower; (scale y)^2) through y^n."""
    coeffs = [mp.mpf(0)] * (n + 1)
    term = mp.mpf(1)
    k = 0
    while 2 * k + 1 <= n:
        coeffs[2 * k + 1] = term * mp.mpf(scale) ** (2 * k)
        for a in upper:
            term *= a + k
        for b in lower:
            term /= b + k
        term /= k + 1
        k += 1
    return coeffs


def reaction_series(problem: str, order: int):
    """Odd coefficients c_k with X = scale * sum c_k w^k; scale EJ/L^2 or EJ/L."""
    with mp.workdps(SERIES_DPS):
        third = mp.mpf(1) / 3
        if problem == "roller":
            upper, lower = (mp.mpf(1) / 2, 1, mp.mpf(3) / 2), (7 * third / 2, 5 * third)
            f = _hyp_taylor_in_y(upper, lower, order + 1)       # f(y) = y F(y^2)
            # g = f^-1 by Lagrange: [z^n] g = (1/n) [y^(n-1)] (y / f(y))^n
            h = _reciprocal(f[1:], order)                        # y / f(y)
            g = [mp.mpf(0)] * (order + 1)
            power = [mp.mpf(1)] + [mp.mpf(0)] * order
            for n in range(1, order + 1):
                power = _mul(power, h, order)
                g[n] = power[n - 1] / n
            # Z(w) = (3/16) w F(w^2/36)
            z = [c * mp.mpf(3) / 16 for c in _hyp_taylor_in_y(upper, lower, order, scale=1 / mp.mpf(6))]
            y_of_w = _compose_odd(g, z, order)
            return [2 * c for c in y_of_w]
        # phi(w) = (w/24) 2F1(1/2, 2/3; 5/3; w^2/36); X L / EJ = 2 phi / (1 + phi^2)
        phi = [c / 24 for c in _hyp_taylor_in_y((mp.mpf(1) / 2, 2 * third), (5 * third,),
                                                 order, scale=1 / mp.mpf(6))]
        outer = [mp.mpf(0)] * (order + 1)
        for k in range(1, order + 1, 2):
            outer[k] = 2 * (-1) ** ((k - 1) // 2)
        return _compose_odd(outer, phi, order)


def _series_rows(coeffs, w, scale, n_terms):
    """Partial sums X_n and the sum of the absolute terms, n = 0..n_terms."""
    rows = []
    total = abs_total = mp.mpf(0)
    for k in range(n_terms + 1):
        term = coeffs[2 * k + 1] * w ** (2 * k + 1)
        total += term
        abs_total += abs(term)
        rows.append((scale * total, scale * abs_total))
    return rows


# --- per-operation references -------------------------------------------

def _scalar(op):
    kind, a = op["kind"], op["args"]
    if kind == "solve_roller":
        return roller_reaction(a["load"])
    if kind == "solve_builtin":
        return builtin_moment(a["load"])
    if kind == "tip_uniform":
        return tip_deflection("UniformLoad", a["load"])
    if kind == "tip_shear":
        # tip_deflection_shear(X) is the deflection under an upward force X
        return -tip_deflection("TipShear", a["load"])
    if kind == "hyp_3f2":
        return mp.hyp3f2(*a["params"], a["z"])
    if kind == "gauss_2f1":
        return mp.hyp2f1(*a["params"], a["z"])
    if kind == "appell_f1":
        return mp.appellf1(a["a"], a["b1"], a["b2"], a["c"], a["x1"], a["x2"])
    if kind == "lauricella_fd3":
        return lauricella_fd3(a["a"], a["b"], a["c"], a["x"])
    raise ValueError(kind)


def _cli_reference(op, series_cache):
    a = op["args"]
    check = a["check"]
    if check == "solve":
        x = roller_reaction(a["load"]) if a["problem"] == "roller" else builtin_moment(a["load"])
        return {"X": float(x)}
    if check == "deflect":
        exact, linear = profile(a["shape"], a["load"])
        return {"y_exact": [float(v) for v in exact], "y_linearized": [float(v) for v in linear]}
    if check == "eval":
        p = [mp.mpf(v) for v in a["params"]]
        fn = a["function"]
        if fn == "3f2":
            value = mp.hyp3f2(*p)
        elif fn == "2f1":
            value = mp.hyp2f1(*p)
        elif fn == "f1":
            value = mp.appellf1(*p)
        else:
            value = lauricella_fd3(p[0], p[1:4], p[4], p[5:8])
        return {"value": float(value)}
    # table: reference root and the series partial sums
    problem, q, n = a["problem"], mp.mpf(a["load"]), a["n"]
    if problem not in series_cache:
        series_cache[problem] = reaction_series(problem, 41)
    w = L ** 3 * q / EJ
    if problem == "roller":
        x_ref, scale = roller_reaction(q), EJ / L ** 2
    else:
        x_ref, scale = builtin_moment_hyp_approx(q), EJ / L
    rows = _series_rows(series_cache[problem], w, scale, n)
    return {
        "reference_X": float(x_ref),
        "X_n": [float(x) for x, _ in rows],
        "abs_terms": [float(s) for _, s in rows],
        "rel_gap": [float(abs(x - x_ref) / abs(x_ref)) for x, _ in rows],
    }


def attach_references(ops: list[dict]) -> None:
    """Store a reference in op["ref"] for every operation, in place."""
    series_cache: dict = {}
    for op in ops:
        if "ref" in op:     # the same operation listed again
            continue
        if op["kind"] == "cli":
            op["ref"] = _cli_reference(op, series_cache)
        else:
            op["ref"] = float(_scalar(op))

