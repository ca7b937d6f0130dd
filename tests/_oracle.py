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

__all__ = ["gamma_ratio", "hyp2f1", "hyp3f2", "roller_root", "src_env"]

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


def roller_root(kernel: str, q: float):
    """The root X in (0, top) of the roller consistency condition on the
    reference rod L = 1 m, EJ = 200 N m^2,

        3 L q 3F2(1/2, 1, 3/2; 7/6, 5/3; L^6 q^2 / (36 EJ^2))
            = 8 X 3F2(1/2, 1, 3/2; b1, b2; L^4 X^2 / (4 EJ^2)),

    with (b1, b2) = (7/6, 5/3) for the "expansion" kernel and (5/4, 7/4) for
    "displacement", or None when the root does not lie below the root
    finder's bracket top, min(1.1 * 3qL/8, 0.999 * 2EJ/L^2), which is
    rounded in floats as the root finder rounds it."""
    L, EJ = 1.0, 200.0
    top = mp.mpf(min(1.1 * 3.0 * q * L / 8.0, 2.0 * EJ / L ** 2 * 0.999))
    L, EJ, q = mp.mpf(L), mp.mpf(EJ), mp.mpf(q)
    upper = ("1/2", 1, "3/2")
    load = 3 * L * q * hyp3f2(upper, _KERNELS["expansion"], L ** 6 * q ** 2 / (36 * EJ ** 2))

    def residual(X):
        return load - 8 * X * hyp3f2(upper, _KERNELS[kernel], L ** 4 * X ** 2 / (4 * EJ ** 2))

    if residual(top) >= 0:
        return None
    return mp.findroot(residual, (mp.mpf(0), top), solver="anderson")


def src_env() -> dict:
    """Environment for a fresh process that imports the rodbend under test."""
    import rodbend

    src = os.path.dirname(os.path.dirname(rodbend.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
