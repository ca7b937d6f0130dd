"""Exception hierarchy shared across the library.

Three families matter to callers: bad arguments (usage), loads that the
rod cannot carry (infeasible), and special-function parameter domains.
The CLI maps them to exit codes 1, 2 and 3 respectively. The argument
checks that several modules share live here too, so that every module can
import them without a cycle.
"""

import math


class RodBendError(Exception):
    """Base class for all library errors."""


class UsageError(RodBendError, ValueError):
    """Malformed or inconsistent arguments."""


class InfeasibleLoadError(RodBendError):
    """Load violates the curvature bound |H(x)| < EJ somewhere on the rod."""


class NearCriticalLoadError(InfeasibleLoadError):
    """Load is nominally feasible but too close to the curvature bound.

    Raised when min (EJ - |H|)/EJ drops below a safety margin; the
    deflection integrand is then numerically intractable.
    """


class BracketError(RodBendError):
    """Root bracketing failed; usually signals a load near critical."""


class DomainError(RodBendError, ValueError):
    """Special-function parameters outside the supported domain."""


class _NotANumber(UsageError, TypeError):
    """A bool or a value of the wrong type given as a number; a TypeError too, like float's."""


def _real(name, v):
    """Refuse ``v`` unless it converts to float as a number does (bools excluded)."""
    if type(v) is not float and (isinstance(v, bool) or not hasattr(type(v), "__float__")):
        raise _NotANumber(f"{name} must be a real number, got {v!r}")


def _integer(name, v):
    """Refuse ``v`` unless it is an integer (bools and integral floats excluded)."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise _NotANumber(f"{name} must be an integer, got {v!r}")


def _count(name, v):
    """Refuse ``v`` unless it is an integer >= 0."""
    _integer(name, v)
    if v < 0:
        raise UsageError(f"{name} must be nonnegative, got {v!r}")


def _check_rtol(rtol: float) -> None:
    if not 0.0 < rtol < math.inf:
        raise UsageError(f"tolerance must be finite and positive, got {rtol}")
