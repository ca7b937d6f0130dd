"""Rod model: moments, feasibility, closed-form and sampled deflections.

Closed forms are always checked against direct quadrature of the exact
curvature integral; the two routes share no hypergeometric code.
"""

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rodbend import elastica, redundancy
from rodbend.elastica import (
    BuiltInCombined,
    DeflectionProfile,
    LoadCase,
    RodProperties,
    TipMoment,
    TipShear,
    UniformLoad,
    bending_moment,
    cumulative_moment,
    deflection_profile,
    feasibility_check,
    linearized_deflection,
    tip_deflection_moment,
    tip_deflection_shear,
    tip_deflection_uniform,
)
from rodbend.errors import InfeasibleLoadError, NearCriticalLoadError, UsageError
from rodbend.quadrature import integrate, integrate_deflection
from rodbend.redundancy import (builtin_tip_integral, roller_consistency, solve_builtin,
                                solve_roller, stabilized_from)
from rodbend.special_functions import appell_f1, gauss_2f1, hyp_3f2, lauricella_fd3

ROD = RodProperties.from_stiffness(1.0, 200.0)

# magnitude at which |H(0)| reaches EJ, written out apart from LoadCase.bound
BOUNDS = {
    UniformLoad: lambda rod: 6.0 * rod.EJ / rod.L ** 3,
    TipShear: lambda rod: 2.0 * rod.EJ / rod.L ** 2,
    TipMoment: lambda rod: rod.EJ / rod.L,
    BuiltInCombined: lambda rod: 12.0 * rod.EJ / rod.L ** 3,
}


# ------------------------------------------------------------ rod properties

def test_from_stiffness_round_trip():
    # a rod is its length and its flexural stiffness, two fields
    rod = RodProperties.from_stiffness(1.5, 350.0)
    assert rod.L == 1.5
    assert rod.EJ == 350.0
    assert RodProperties.__slots__ == ("L", "EJ")
    assert rod == RodProperties(1.5, 350.0)


def test_nonpositive_dimensions_rejected():
    with pytest.raises(UsageError):
        RodProperties(L=0.0, EJ=1.0)
    with pytest.raises(UsageError):
        RodProperties.from_stiffness(1.0, -5.0)


# ------------------------------------------------------- moments and shapes

def test_uniform_load_moment_shape():
    q = 1000.0
    assert bending_moment(UniformLoad(q), 0.0, ROD) == 0.0
    assert bending_moment(UniformLoad(q), 1.0, ROD) == -q / 2.0
    assert cumulative_moment(UniformLoad(q), 0.0, ROD) == -q / 6.0
    assert cumulative_moment(UniformLoad(q), 1.0, ROD) == 0.0


def test_tip_shear_moment_shape():
    p = 300.0
    assert bending_moment(TipShear(p), 0.5, ROD) == -p * 0.5
    assert cumulative_moment(TipShear(p), 0.0, ROD) == -p / 2.0


def test_tip_moment_shape():
    m0 = 50.0
    assert bending_moment(TipMoment(m0), 0.3, ROD) == m0
    assert type(bending_moment(TipMoment(50), 0, ROD)) is float
    assert cumulative_moment(TipMoment(m0), 0.0, ROD) == m0 * ROD.L


def test_builtin_combined_moment_shape():
    q = 1000.0
    load = BuiltInCombined(q)
    # parabolic span moment q(Lx - x^2)/2 taken negative, zero at both ends
    assert bending_moment(load, 0.0, ROD) == 0.0
    assert bending_moment(load, 1.0, ROD) == 0.0
    assert bending_moment(load, 0.5, ROD) == -q * 0.125
    assert abs(cumulative_moment(load, 0.0, ROD) - (-q / 12.0)) < 1e-12


def test_cumulative_moment_derivative_is_minus_moment():
    assert set(LoadCase.__subclasses__()) == set(BOUNDS)
    h = 1e-6
    for rod in (ROD, RodProperties.from_stiffness(1.7, 350.0)):
        L, EJ = rod.L, rod.EJ
        for shape in LoadCase.__subclasses__():
            for sign in (1.0, -1.0):
                load = shape(sign * 0.45 * BOUNDS[shape](rod))
                for x in (0.2 * L, 0.5 * L, 0.8 * L):
                    dh = (cumulative_moment(load, x + h, rod)
                          - cumulative_moment(load, x - h, rod)) / (2.0 * h)
                    assert abs(dh + bending_moment(load, x, rod)) < 1e-6
                    dy = (linearized_deflection(load, rod, x + h)
                          - linearized_deflection(load, rod, x - h)) / (2.0 * h)
                    assert abs(dy - cumulative_moment(load, x, rod) / EJ) < 1e-8
                assert cumulative_moment(load, L, rod) == 0.0
                tip = linearized_deflection(load, rod, 0.0)
                assert abs(linearized_deflection(load, rod, L)) < 1e-14 * abs(tip)
                # the feasibility gate and integrate_deflection read |H| at x only
                habs = [abs(cumulative_moment(load, x, rod))
                        for x in np.linspace(0.0, L, 1001).tolist()]
                assert all(b <= a for a, b in zip(habs, habs[1:]))
                _, k, p, _ = shape.bound
                at_bound = shape(sign * k * EJ / L ** p)
                assert abs(feasibility_check(at_bound, rod) - 1.0) < 1e-15


POSITION_FUNCTIONS = {
    "bending_moment": lambda load, x: bending_moment(load, x, ROD),
    "cumulative_moment": lambda load, x: cumulative_moment(load, x, ROD),
    "linearized_deflection": lambda load, x: linearized_deflection(load, ROD, x),
    "integrate_deflection": lambda load, x: integrate_deflection(load, ROD, x),
}


@pytest.mark.parametrize("x", [math.nan, -5.0, 7.0, -1e-300, math.nextafter(1.0, 2.0), math.inf],
                         ids=["nan", "-5", "7", "below-0", "above-L", "inf"])
@pytest.mark.parametrize("name", sorted(POSITION_FUNCTIONS))
def test_positions_off_the_rod_refused(name, x):
    for load in (UniformLoad(1000.0), TipShear(10.0)):
        with pytest.raises(UsageError, match="outside the rod"):
            POSITION_FUNCTIONS[name](load, x)


@pytest.mark.parametrize("name", sorted(POSITION_FUNCTIONS))
def test_rod_ends_are_positions(name):
    # both ends are on the rod, also when given as ints
    for x in (0, 0.0, 1, ROD.L):
        assert math.isfinite(POSITION_FUNCTIONS[name](UniformLoad(1000.0), x))


NOT_NUMBERS = ["0.5", b"0.5", True, False, None, 0.5j]
NOT_NUMBER_IDS = ["str", "bytes", "True", "False", "None", "complex"]


@pytest.mark.parametrize("x", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize("name", sorted(POSITION_FUNCTIONS))
def test_positions_that_are_not_numbers_refused(name, x):
    with pytest.raises(UsageError, match="position x must be a real number"):
        POSITION_FUNCTIONS[name](UniformLoad(1000.0), x)


@pytest.mark.parametrize("v", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize("shape", sorted(BOUNDS, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_magnitudes_that_are_not_numbers_refused(shape, v):
    with pytest.raises(UsageError, match="must be a real number"):
        shape(v)


@pytest.mark.parametrize("v", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize("field", ["L", "EJ"])
def test_rod_dimensions_that_are_not_numbers_refused(field, v):
    with pytest.raises(UsageError, match=f"{field} must be a real number"):
        RodProperties(**{"L": 1.0, "EJ": 200.0, field: v})


# every public tolerance outside the special functions (tests/
# test_special_functions.py has theirs), as a call that ends at once
TOLERANCES = {
    "tip_deflection_uniform": lambda t: tip_deflection_uniform(ROD, 100.0, rtol=t),
    "tip_deflection_shear": lambda t: tip_deflection_shear(ROD, 10.0, rtol=t),
    "deflection_profile": lambda t: deflection_profile(UniformLoad(100.0), ROD, 3, rtol=t),
    "integrate_deflection": lambda t: integrate_deflection(UniformLoad(100.0), ROD, 0.5, rtol=t),
    # labelled by the integral's former value class, so that the test ids stay stable
    "IntegrandSpec rtol": lambda t: integrate(abs, 0.0, 1.0, rtol=t),
    "IntegrandSpec atol": lambda t: integrate(abs, 0.0, 1.0, atol=t),
    "solve_roller": lambda t: solve_roller(ROD, 1000.0, "root_find", rtol=t),
    "solve_builtin": lambda t: solve_builtin(ROD, 1000.0, "closed", rtol=t),
    "builtin_tip_integral": lambda t: builtin_tip_integral(ROD, 1000.0, rtol=t),
    "roller_consistency": lambda t: roller_consistency(ROD, 1000.0, 300.0, rtol=t),
    "stabilized_from": lambda t: stabilized_from([(0, 1.0), (1, 1.0)], tol=t),
}


@pytest.mark.parametrize("v", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize("name", sorted(TOLERANCES))
def test_tolerances_that_are_not_numbers_refused(name, v):
    # a bool rtol meant 1.0 and a string one escaped as a bare TypeError
    call = TOLERANCES[name]
    call(1e-10)
    with pytest.raises(UsageError, match="must be a real number") as excinfo:
        call(v)
    assert isinstance(excinfo.value, TypeError)


# the results that a real number given as load, reaction or position reaches
FLOAT_RESULTS = {
    "solve_roller": lambda v: solve_roller(ROD, v, "root_find").X,
    "solve_builtin": lambda v: solve_builtin(ROD, v, "closed").X,
    "builtin_tip_integral": lambda v: builtin_tip_integral(ROD, v, mode="hyp_approx"),
    "roller_consistency": lambda v: roller_consistency(ROD, v, v),
    "tip_deflection_uniform": lambda v: tip_deflection_uniform(ROD, v),
    "tip_deflection_shear": lambda v: tip_deflection_shear(ROD, v),
    "tip_deflection_moment": lambda v: tip_deflection_moment(ROD, v),
    "integrate_deflection": lambda v: integrate_deflection(UniformLoad(1000.0), ROD, v),
}


@pytest.mark.parametrize("v", [0.5, 1, np.float64(0.5), np.float32(0.5), Fraction(1, 2)],
                         ids=["float", "int", "float64", "float32", "Fraction"])
def test_real_number_types_pass(v):
    # bending moment of q = 1000 N/m at x: -q x^2 / 2
    assert bending_moment(UniformLoad(1000.0), v, ROD) == -1000.0 * float(v) ** 2 / 2.0
    assert bending_moment(UniformLoad(v), 1.0, ROD) == -float(v) / 2.0
    # every number is stored and computed as a float, so each result is a
    # Python float with the bits of the float input
    rod = RodProperties(L=v, EJ=v)
    assert all(type(f) is float and f == v for f in (rod.L, rod.EJ))
    for shape in BOUNDS:
        (field,) = shape.__slots__
        assert type(getattr(shape(v), field)) is float
    for name, call in FLOAT_RESULTS.items():
        got, want = call(v), call(float(v))
        assert type(got) is float and got.hex() == want.hex(), name


# float32 inputs whose results came back as float32 when the solvers (on
# L = 1, EJ = 200), the quadrature bounds or the special-function arguments
# were used as given: each is the float64 answer now. F1 on its integral
# route did not converge at all, with a float32 argument or parameter.
# (2F1 and 3F2 parameters are converted to float too: tests/
# test_special_functions.py checks them.)
FLOAT32_INPUTS = {
    "solve_roller": (FLOAT_RESULTS["solve_roller"], 1000.0),
    "tip_deflection_uniform": (FLOAT_RESULTS["tip_deflection_uniform"], 1000.0),
    "integrate_deflection": (FLOAT_RESULTS["integrate_deflection"], 0.3),
    "integrate": (lambda v: integrate(lambda x: x * x, type(v)(0.0), v)[0], 0.3),
    "gauss_2f1": (lambda v: gauss_2f1(0.5, 0.5, 1.5, v), 0.3),
    "hyp_3f2": (lambda v: hyp_3f2(0.5, 1.0, 1.5, 1.25, 1.75, v), 0.3),
    "appell_f1 series": (lambda v: appell_f1(1.0, 0.6, 0.4, 2.3, v, -0.12), 0.2),
    "appell_f1 integral": (lambda v: appell_f1(1.0, 0.6, 0.4, 2.3, 0.7, v), -0.4),
    "lauricella_fd3": (lambda v: lauricella_fd3(1.0, (0.6, 0.4, 0.5), 2.3, (0.7, v, 0.3)), -0.4),
    "appell_f1 series, a": (lambda v: appell_f1(v, 0.6, 0.4, 2.3, 0.2, -0.12), 1.0),
    "appell_f1 series, b2": (lambda v: appell_f1(1.0, 0.6, v, 2.3, 0.2, -0.12), 0.4),
    "appell_f1 integral, a": (lambda v: appell_f1(v, 0.6, 0.4, 2.3, 0.7, -0.4), 1.0),
    "appell_f1 integral, c": (lambda v: appell_f1(1.0, 0.6, 0.4, v, 0.7, -0.4), 2.3),
    "lauricella_fd3 series, a": (
        lambda v: lauricella_fd3(v, (0.6, 0.4, 0.5), 2.3, (0.2, -0.12, 0.1)), 1.0),
    "lauricella_fd3 series, b1": (
        lambda v: lauricella_fd3(1.0, (v, 0.4, 0.5), 2.3, (0.2, -0.12, 0.1)), 0.6),
    "lauricella_fd3 integral, a": (
        lambda v: lauricella_fd3(v, (0.6, 0.4, 0.5), 2.3, (0.7, -0.4, 0.3)), 1.0),
    "lauricella_fd3 integral, c": (
        lambda v: lauricella_fd3(1.0, (0.6, 0.4, 0.5), v, (0.7, -0.4, 0.3)), 2.3),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_INPUTS))
def test_float32_inputs_are_computed_in_double(name):
    call, v = FLOAT32_INPUTS[name]
    v = np.float32(v)
    got = call(v)
    assert type(got) is float
    assert got.hex() == call(float(v)).hex()


# ---------------------------------------------------------------- feasibility

def test_feasibility_ratio_sample():
    assert abs(feasibility_check(UniformLoad(1000.0), ROD) - 1000.0 / 1200.0) < 1e-15


def test_feasibility_ratio_exactly_one_at_bound():
    q_crit = 6.0 * ROD.EJ / ROD.L ** 3
    assert feasibility_check(UniformLoad(q_crit), ROD) == 1.0


def test_feasibility_tip_moment_ratio():
    assert feasibility_check(TipMoment(95.0), ROD) == 95.0 * ROD.L / ROD.EJ


def test_feasibility_bound_messages_name_the_load():
    rod = RodProperties.from_stiffness(2.0, 200.0)
    messages = {
        UniformLoad(151.0): "q = 151 violates q < 6*EJ/L^3 = 150 N/m",
        TipShear(-101.0): "P = -101 violates |P| < 2*EJ/L^2 = 100 N",
        TipMoment(101.0): "M0 = 101 violates |M0| < EJ/L = 100 N m",
        BuiltInCombined(301.0): "q = 301 violates q < 12*EJ/L^3 = 300 N/m",
    }
    for load, message in messages.items():
        with pytest.raises(InfeasibleLoadError) as excinfo:
            elastica._require_feasible(load, rod)
        assert str(excinfo.value) == message


NEAR_BOUND_RODS = [RodProperties.from_stiffness(0.3, 17.0), RodProperties.from_stiffness(1.7, 350.0)]

GATES = {
    "solve_roller": (UniformLoad, lambda rod, q: solve_roller(rod, q, "root_find")),
    "solve_builtin": (BuiltInCombined, lambda rod, q: solve_builtin(rod, q, "linearized")),
    "roller_consistency": (TipShear, lambda rod, X: roller_consistency(rod, 0.0, X)),
    "tip_deflection_uniform": (UniformLoad, tip_deflection_uniform),
    "tip_deflection_shear": (TipShear, tip_deflection_shear),
    "tip_deflection_moment": (TipMoment, tip_deflection_moment),
}


@pytest.mark.parametrize("rod", NEAR_BOUND_RODS, ids=["L0.3", "L1.7"])
@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate_verdicts_at_the_bound(monkeypatch, rod, gate):
    # stub the work behind the gates so that the gate alone decides: just
    # below the bound the 3F2 series would need more than 10^6 terms, which
    # the term-budget check refuses before summing, and the roller root 0
    # stays inside the |X| bound, as the linearized reaction 3qL/8 would not
    for module in (elastica, redundancy):
        monkeypatch.setattr(module, "_require_summable", lambda *args, **kwargs: None)
    monkeypatch.setattr(elastica, "hyp_3f2", lambda *args, **kwargs: 1.0)
    monkeypatch.setattr(redundancy, "_sum_ratios", lambda *args, **kwargs: (1.0, 1.0))
    monkeypatch.setattr(redundancy, "_sum_value", lambda *args, **kwargs: 1.0)
    monkeypatch.setattr(redundancy, "_find_roller_root", lambda *args, **kwargs: 0.0)
    shape, call = GATES[gate]
    bound = BOUNDS[shape](rod)
    call(rod, bound * (1.0 - 1e-12))
    with pytest.raises(InfeasibleLoadError):
        call(rod, bound * (1.0 + 1e-12))


@pytest.mark.parametrize("rod", NEAR_BOUND_RODS, ids=["L0.3", "L1.7"])
@pytest.mark.parametrize("shape", sorted(BOUNDS, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_integrate_deflection_verdicts_at_the_bound(rod, shape):
    bound = BOUNDS[shape](rod)
    # feasible, but inside the quadrature's safety margin
    with pytest.raises(NearCriticalLoadError):
        integrate_deflection(shape(bound * (1.0 - 1e-12)), rod, 0.0)
    with pytest.raises(InfeasibleLoadError) as excinfo:
        integrate_deflection(shape(bound * (1.0 + 1e-12)), rod, 0.0)
    assert excinfo.type is InfeasibleLoadError


def _refused(call, *args):
    try:
        call(*args)
    except InfeasibleLoadError as exc:
        return type(exc) is InfeasibleLoadError
    return False


@pytest.mark.parametrize("rod", NEAR_BOUND_RODS, ids=["L0.3", "L1.7"])
@pytest.mark.parametrize("shape", sorted(BOUNDS, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_curvature_tests_agree_to_the_last_ulp(rod, shape):
    # 12 consecutive floats around the bound: the gate, feasibility_check
    # and the quadrature's refusal must draw the line at the same float
    magnitude = BOUNDS[shape](rod)
    for _ in range(6):
        magnitude = math.nextafter(magnitude, 0.0)
    verdicts = []
    for _ in range(12):
        load = shape(magnitude)
        refused = feasibility_check(load, rod) >= 1.0
        assert _refused(elastica._require_feasible, load, rod) == refused
        assert _refused(integrate_deflection, load, rod, 0.0) == refused
        verdicts.append(refused)
        magnitude = math.nextafter(magnitude, math.inf)
    assert not verdicts[0] and verdicts[-1]


@pytest.mark.parametrize("method", ["linearized", "series", "closed"])
def test_builtin_refused_where_h_reaches_ej(method):
    # q L^3 = 203.99999999999997 < 12 EJ = 204, but |H(0)| rounds to EJ
    rod = RodProperties.from_stiffness(0.3, 17.0)
    q = 7555.555555555556
    assert feasibility_check(BuiltInCombined(q), rod) == 1.0
    with pytest.raises(InfeasibleLoadError, match=re.escape("q = 7555.56 violates q < 12*EJ/L^3")):
        solve_builtin(rod, q, method)


# ------------------------------------------------------- closed-form deflections

def test_tip_deflection_uniform_sample():
    got = tip_deflection_uniform(ROD, 1000.0)
    assert abs(got - 0.9637898313406952) / 0.9637898313406952 < 1e-11


def test_tip_deflection_shear_sample():
    got = tip_deflection_shear(ROD, 348.0)
    assert abs(got - (-0.9001024480281705)) / 0.9001024480281705 < 1e-11


def test_tip_deflection_moment_sample():
    got = tip_deflection_moment(ROD, 95.0)
    assert abs(got - (-0.25266148349494305)) / 0.25266148349494305 < 1e-12


def test_zero_loads_have_zero_tip_deflection():
    for tip in (tip_deflection_uniform, tip_deflection_shear, tip_deflection_moment):
        assert tip(ROD, 0.0) == 0.0


def test_tip_deflection_moment_small_argument_branch():
    # a small couple gives the linear deflection -X L^2 / (2 EJ)
    m0 = 1e-5
    got = tip_deflection_moment(ROD, m0)
    lead = -m0 * ROD.L ** 2 / (2.0 * ROD.EJ)
    assert abs(got - lead) / abs(lead) < 1e-9


def test_tip_deflection_moment_branches_agree_at_threshold():
    # around X L^2 / EJ = 1e-6 the difference form (sqrt(EJ^2 - X^2 L^2) - EJ)/X
    # would lose about eps/r^2 to cancellation; the two-term expansion is
    # exact to r^4 here, and the cancellation-free form meets it to 1e-15
    ej, length = ROD.EJ, ROD.L
    for scale, tol in ((0.9, 1e-15), (1.1, 1e-15)):
        m0 = scale * 1e-6 * ej / length ** 2
        r2 = (m0 * length / ej) ** 2
        reference = -m0 * length ** 2 / (2.0 * ej) * (1.0 + r2 / 4.0)
        assert abs(tip_deflection_moment(ROD, m0) - reference) < abs(reference) * tol


@pytest.mark.parametrize("length, ej", [(1.0, 200.0), (10.0, 200.0), (0.1, 1e4)])
def test_tip_deflection_moment_is_cancellation_free(length, ej):
    # X L / EJ = m 10^(k/2) from 1e-15 to 0.5, against 50-digit mpmath
    rod = RodProperties.from_stiffness(length, ej)
    with mp.workdps(50):
        for k in range(-30, 0):
            for m in (1.0, 1.3, 2.0, 5.0):
                ratio = m * 10.0 ** (k / 2)
                if ratio >= 1.0:
                    continue
                X = ratio * ej / length
                x, L, EJ = mp.mpf(X), mp.mpf(length), mp.mpf(ej)
                want = (mp.sqrt(EJ ** 2 - x ** 2 * L ** 2) - EJ) / x
                got = tip_deflection_moment(rod, X)
                assert abs(got - want) <= 4e-16 * abs(want), (ratio, got)


def test_closed_forms_match_quadrature_on_random_draws():
    rng = np.random.default_rng(2026)
    for _ in range(50):
        length = rng.uniform(0.5, 3.0)
        ej = rng.uniform(50.0, 500.0)
        rod = RodProperties.from_stiffness(length, ej)
        q = rng.uniform(0.05, 0.9) * 6.0 * ej / length ** 3
        p = rng.uniform(0.05, 0.9) * 2.0 * ej / length ** 2 * rng.choice([-1.0, 1.0])
        m0 = rng.uniform(0.05, 0.9) * ej / length * rng.choice([-1.0, 1.0])
        pairs = [
            (tip_deflection_uniform(rod, q), integrate_deflection(UniformLoad(q), rod, 0.0)),
            (tip_deflection_shear(rod, -p), integrate_deflection(TipShear(p), rod, 0.0)),
            (tip_deflection_moment(rod, m0), integrate_deflection(TipMoment(m0), rod, 0.0)),
        ]
        for closed, quad in pairs:
            assert abs(closed - quad) / max(abs(quad), 1e-30) < 1e-8


def test_infeasible_loads_raise():
    with pytest.raises(InfeasibleLoadError, match=re.escape("q = 1250 violates q < 6*EJ/L^3 = 1200 N/m")):
        tip_deflection_uniform(ROD, 1250.0)
    with pytest.raises(InfeasibleLoadError, match=re.escape("P = 450 violates |P| < 2*EJ/L^2 = 400 N")):
        tip_deflection_shear(ROD, 450.0)
    with pytest.raises(InfeasibleLoadError, match=re.escape("M0 = 210 violates |M0| < EJ/L = 200 N m")):
        tip_deflection_moment(ROD, 210.0)


# ------------------------------------------------------------- linearization

def test_linearized_tip_samples():
    assert abs(linearized_deflection(TipShear(1000.0), ROD, 0.0) - 5.0 / 3.0) < 1e-15
    assert linearized_deflection(UniformLoad(1000.0), ROD, 0.0) == 0.625


def test_linearized_profile_shapes():
    xs = np.linspace(0.0, ROD.L, 11).tolist()
    y_q = [linearized_deflection(UniformLoad(1000.0), ROD, x) for x in xs]
    y_p = [linearized_deflection(TipShear(1000.0), ROD, x) for x in xs]
    y_m = [linearized_deflection(TipMoment(50.0), ROD, x) for x in xs]
    for y in (y_q, y_p, y_m):
        assert abs(y[-1]) < 1e-15
    assert y_m[0] < 0.0


def test_linearized_builtin_profile_shape():
    q = 1000.0
    xs = np.linspace(0.0, ROD.L, 5).tolist()
    y = [linearized_deflection(BuiltInCombined(q), ROD, x) for x in xs]
    assert abs(y[-1]) < 1e-15
    assert abs(y[0] - q * ROD.L ** 4 / (24.0 * ROD.EJ)) < 1e-15
    # tip slope of q (L-x)^3 (L+x) / 24EJ equals H(0)/EJ = -q L^3 / 12EJ
    h = 1e-6
    y0 = [linearized_deflection(BuiltInCombined(q), ROD, x) for x in (0.0, h)]
    slope = (y0[1] - y0[0]) / h
    assert abs(slope + q * ROD.L ** 3 / (12.0 * ROD.EJ)) < 1e-3


def test_exact_minus_linearized_scales_quadratically():
    # the relative defect is second order in the load: halving q divides
    # it by about 4 once higher orders are negligible
    defects = []
    for q in (240.0, 120.0):
        exact = tip_deflection_uniform(ROD, q)
        lin = linearized_deflection(UniformLoad(q), ROD, 0.0)
        defects.append((exact - lin) / lin)
    ratio = defects[0] / defects[1]
    assert 3.8 < ratio < 4.3


# ------------------------------------------------------------------ profiles

def test_profile_default_grid_and_wall_condition():
    prof = deflection_profile(UniformLoad(1000.0), ROD)
    assert len(prof.samples) == 201
    xs = [x for x, _ in prof.samples]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert prof.samples[-1][1] == 0.0


@pytest.mark.parametrize("L", [0.3, 1.0, 1.7])
@pytest.mark.parametrize("n", [2, 7, 201])
def test_profile_grid_is_numpy_linspace(L, n):
    # the grid is built without numpy, bit for bit as numpy.linspace builds it
    rod = RodProperties.from_stiffness(L, 200.0)
    prof = deflection_profile(UniformLoad(100.0), rod, n_points=n)
    assert [x for x, _ in prof.samples] == np.linspace(0.0, L, n).tolist()


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_profile_refuses_a_non_integer_point_count(n):
    with pytest.raises(UsageError, match=re.escape(f"n_points must be an integer, got {n!r}")) \
            as excinfo:
        deflection_profile(UniformLoad(10.0), ROD, n_points=n)
    assert isinstance(excinfo.value, TypeError)


def test_profile_wall_slope_vanishes():
    h = 1e-5
    for load in (UniformLoad(1000.0), TipShear(300.0), TipMoment(80.0)):
        y_near = integrate_deflection(load, ROD, ROD.L - h)
        assert abs(y_near / h) < 5e-5


def test_profile_validates_wall_deflection():
    with pytest.raises(UsageError):
        DeflectionProfile(samples=((0.0, 1.0), (1.0, 0.5)))


def test_profile_validates_ordering():
    with pytest.raises(UsageError):
        DeflectionProfile(samples=((0.5, 0.1), (0.2, 0.0)))


# --------------------------------------------------- first worked example

def _first_example_tip(mu):
    """Dimensionless tip deflection eta(0) = y(0)/L under P = 2 mu EJ/L^2."""
    p = mu * 2.0 * ROD.EJ / ROD.L ** 2
    return integrate_deflection(TipShear(p), ROD, 0.0) / ROD.L


def test_first_example_gap_is_second_order():
    # eta_exact - eta_approx <= C mu^2 with C at most 1 on the sampled range,
    # eta_approx = (mu/3)(2 - 3 xi + xi^3) = 2 mu/3 at the tip xi = 0
    for mu in (0.05, 0.1, 0.2):
        assert abs(_first_example_tip(mu) - 2.0 * mu / 3.0) <= 1.0 * mu * mu


def test_first_example_tip_values():
    expected = {0.05: 0.03336195, 0.1: 0.06689663, 0.2: 0.13520755}
    for mu, eta in expected.items():
        assert abs(_first_example_tip(mu) - eta) < 1e-7
