"""Value classes: construction, equality, hashing, immutability, repr."""

import copy
import math
import pickle
import re
from fractions import Fraction

import pytest

from rodbend import (
    BuiltInCombined,
    ConsistencyEquation,
    DeflectionProfile,
    IntegrandSpec,
    PowerSeries,
    RedundancySolution,
    RodProperties,
    TipMoment,
    TipShear,
    UniformLoad,
    UsageError,
    hyp3f2_taylor,
    identity_series,
    lagrange_revert,
    pochhammer,
)

ROD = RodProperties(1.0, 200.0, 1.0)

# (class, positional arguments, keyword arguments, repr): both calls build
# the same value, and its repr is the string pinned here
CASES = {
    "RodProperties": (RodProperties, (1.0, 200.0, 1.0), dict(L=1.0, E=200.0, J=1.0),
                      "RodProperties(L=1.0, E=200.0, J=1.0)"),
    "UniformLoad": (UniformLoad, (5.0,), dict(q=5.0), "UniformLoad(q=5.0)"),
    "TipShear": (TipShear, (-2.5,), dict(P=-2.5), "TipShear(P=-2.5)"),
    "TipMoment": (TipMoment, (3,), dict(M0=3), "TipMoment(M0=3)"),
    "BuiltInCombined": (BuiltInCombined, (5.0,), dict(q=5.0), "BuiltInCombined(q=5.0)"),
    "DeflectionProfile": (DeflectionProfile, (((0.0, 1.5), (1.0, 0.0)),),
                          dict(samples=((0.0, 1.5), (1.0, 0.0))),
                          "DeflectionProfile(samples=((0.0, 1.5), (1.0, 0.0)))"),
    "IntegrandSpec": (IntegrandSpec, (abs, 0.0, 1.0, -0.5, 0.25, 1e-12, 1e-15, 100),
                      dict(f=abs, lo=0.0, hi=1.0, lo_exponent=-0.5, hi_exponent=0.25,
                           rtol=1e-12, atol=1e-15, max_subdivisions=100),
                      "IntegrandSpec(f=<built-in function abs>, lo=0.0, hi=1.0, "
                      "lo_exponent=-0.5, hi_exponent=0.25, rtol=1e-12, atol=1e-15, "
                      "max_subdivisions=100)"),
    "PowerSeries": (PowerSeries, ((0, Fraction(1, 2), 0, Fraction(-1, 3)), 3, "odd"),
                    dict(coefficients=(0, Fraction(1, 2), 0, Fraction(-1, 3)), order=3,
                         parity="odd"),
                    "PowerSeries(coefficients=(Fraction(0, 1), Fraction(1, 2), Fraction(0, 1), "
                    "Fraction(-1, 3)), order=3, parity='odd')"),
    "ConsistencyEquation": (ConsistencyEquation, ("expansion", ROD, 1000.0),
                            dict(kernel="expansion", rod=ROD, q=1000.0),
                            "ConsistencyEquation(kernel='expansion', "
                            "rod=RodProperties(L=1.0, E=200.0, J=1.0), q=1000.0)"),
    "RedundancySolution": (RedundancySolution,
                           ("builtin", ROD, 18.0, "series(1)", 1.5, "N m", None, -1.25,
                            ((0, 1.0), (1, 1.5))),
                           dict(problem="builtin", rod=ROD, q=18.0, method="series(1)", X=1.5,
                                units="N m", residual=None, deviation_pct=-1.25,
                                trace=((0, 1.0), (1, 1.5))),
                           "RedundancySolution(problem='builtin', "
                           "rod=RodProperties(L=1.0, E=200.0, J=1.0), q=18.0, "
                           "method='series(1)', X=1.5, units='N m', residual=None, "
                           "deviation_pct=-1.25, trace=((0, 1.0), (1, 1.5)))"),
}

# a field of each class and a different value for it
CHANGED = {
    "RodProperties": ("L", 2.0),
    "UniformLoad": ("q", 6.0),
    "TipShear": ("P", 1.0),
    "TipMoment": ("M0", 4),
    "BuiltInCombined": ("q", 6.0),
    "DeflectionProfile": ("samples", ((0.0, 2.5), (1.0, 0.0))),
    "IntegrandSpec": ("max_subdivisions", 200),
    "PowerSeries": ("order", 5),
    "ConsistencyEquation": ("q", 500.0),
    "RedundancySolution": ("X", 2.5),
}

NAMES = sorted(CASES)


def _build(name, **changes):
    cls, _, kwargs, _ = CASES[name]
    return cls(**{**kwargs, **changes})


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    cls, args, kwargs, _ = CASES[name]
    assert cls(*args) == cls(**kwargs)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    assert repr(_build(name)) == CASES[name][3]


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_by_fields(name):
    a, b = _build(name), _build(name)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    field, value = CHANGED[name]
    other = _build(name, **{field: value})
    assert other != a
    assert getattr(other, field) == value


def test_load_shapes_with_equal_magnitude_differ():
    assert UniformLoad(5.0) != BuiltInCombined(5.0)
    assert not UniformLoad(5.0) == BuiltInCombined(5.0)
    assert UniformLoad(5.0) != 5.0
    assert len({UniformLoad(5.0), BuiltInCombined(5.0)}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = _build(name)
    field, new = CHANGED[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, new)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) == before


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_round_trip(name):
    value = _build(name)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_defaults():
    spec = IntegrandSpec(abs, 0.0, 1.0)
    assert (spec.lo_exponent, spec.hi_exponent, spec.rtol, spec.atol, spec.max_subdivisions) \
        == (None, None, 1e-10, 1e-14, 4096)
    assert PowerSeries((0, 1), 1).parity == "general"
    assert RedundancySolution("roller", ROD, 1000.0, "linearized", 375.0, "N", 0.0, 0.0).trace \
        == ()


def test_power_series_stores_fractions():
    series = _build("PowerSeries")
    assert all(type(c) is Fraction for c in series.coefficients)
    assert isinstance(series.coefficients, tuple)


@pytest.mark.parametrize("build, message", [
    (lambda: RodProperties(0.0, 200.0, 1.0), "L must be finite and positive, got 0.0"),
    (lambda: RodProperties(1.0, -1.0, 1.0), "E must be finite and positive, got -1.0"),
    (lambda: RodProperties(1.0, 200.0, math.inf), "J must be finite and positive, got inf"),
    (lambda: RodProperties(1.0, 1e200, 1e200), "EJ = E*J must be finite and positive, got inf"),
    (lambda: UniformLoad(math.nan), "q must be finite, got nan"),
    (lambda: TipShear(math.inf), "P must be finite, got inf"),
    (lambda: TipMoment(-math.inf), "M0 must be finite, got -inf"),
    (lambda: BuiltInCombined(math.nan), "q must be finite, got nan"),
    (lambda: DeflectionProfile(((1.0, 0.5), (0.5, 0.0))),
     "sample positions must be strictly increasing"),
    (lambda: DeflectionProfile(((0.0, 0.5), (1.0, 0.1))),
     "wall deflection must vanish, got y(L) = 0.1"),
    (lambda: IntegrandSpec(abs, 1.0, 0.0), "empty or reversed interval [1.0, 0.0]"),
    (lambda: IntegrandSpec(abs, 0.0, 1.0, rtol=0.0),
     "tolerance must be finite and positive, got 0.0"),
    (lambda: IntegrandSpec(abs, 0.0, 1.0, rtol=math.nan),
     "tolerance must be finite and positive, got nan"),
    (lambda: IntegrandSpec(abs, 0.0, 1.0, hi_exponent=-1.0),
     "hi_exponent=-1.0 is not integrable (need > -1)"),
    (lambda: IntegrandSpec(abs, 0.0, 1.0, max_subdivisions=2.5),
     "max_subdivisions must be an integer, got 2.5"),
    (lambda: IntegrandSpec(abs, 0.0, 1.0, max_subdivisions=True),
     "max_subdivisions must be an integer, got True"),
    (lambda: PowerSeries((0, 1), 1, "even"), "parity must be 'odd' or 'general', got 'even'"),
    (lambda: PowerSeries((0, 1, 2), 1), "truncation order below the highest stored power"),
    (lambda: PowerSeries((1, 1), 1, "odd"), "odd series has a nonzero even coefficient"),
    (lambda: PowerSeries((0, 1), 2.5), "order must be an integer, got 2.5"),
    (lambda: PowerSeries((0, 1), True), "order must be an integer, got True"),
    (lambda: PowerSeries((), -1), "order must be nonnegative, got -1"),
    (lambda: PowerSeries((0, 1, 0, 1), 3).evaluate(2.0, -1), "n_terms must be nonnegative, got -1"),
    (lambda: PowerSeries((0, 1, 0, 1), 3).evaluate(2.0, True), "n_terms must be an integer, got True"),
    (lambda: identity_series(-1), "order must be nonnegative, got -1"),
    (lambda: identity_series(True), "order must be an integer, got True"),
    (lambda: identity_series(2.5), "order must be an integer, got 2.5"),
    (lambda: hyp3f2_taylor((1, 1, 1, 2, 2), 2.5), "order must be an integer, got 2.5"),
    (lambda: lagrange_revert(PowerSeries((0, 1, 0, 1), 3.0)),
     "order must be an integer, got 3.0"),
    (lambda: pochhammer(3.0, True), "pochhammer order must be an integer, got True"),
    (lambda: pochhammer(3.0, 2.5), "pochhammer order must be an integer, got 2.5"),
], ids=["L", "E", "J", "EJ", "UniformLoad", "TipShear", "TipMoment", "BuiltInCombined",
        "profile-order", "profile-wall", "interval", "rtol-zero", "rtol-nan", "hint",
        "subdivisions-float", "subdivisions-bool",
        "parity", "order", "odd", "order-float", "order-bool", "order-negative",
        "evaluate-negative", "evaluate-bool", "identity-negative", "identity-bool",
        "identity-float", "taylor-float", "revert-float", "pochhammer-bool",
        "pochhammer-float"])
def test_validation_messages(build, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$") as excinfo:
        build()
    # a value of the wrong type is a TypeError too, like float's; a bad value is not
    assert isinstance(excinfo.value, TypeError) is ("must be an integer" in message)
