"""Core dynamics: parameter/state validation, right-hand sides, the RK4
integrator and the growth-model closed form."""

import itertools
import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, numpy_grid, random_trajectories
from fleetdyn import (
    ClassicalLvmParams,
    DeploymentPlan,
    Field,
    FleetState,
    GrowthParams,
    IntegrationError,
    LvmParams,
    PetrolEquivalence,
    ScenarioSpec,
    Trajectory,
    ValidationError,
    classical_system,
    growth_closed_form,
    growth_system,
    integrate,
    lv_conserved_quantity,
    modified_system,
    stations_per_year,
)
from fleetdyn.dynamics import _grid
from fleetdyn.infrastructure import LARGE_STATION

GROWTH = GrowthParams(gamma=0.01, mu=0.65)
ZERO = Field(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------- types

def test_growth_params_reject_invalid():
    with pytest.raises(ValidationError):
        GrowthParams(gamma=0.0, mu=0.65)
    with pytest.raises(ValidationError):
        GrowthParams(gamma=-0.01, mu=0.65)
    with pytest.raises(ValidationError):
        GrowthParams(gamma=0.01, mu=-0.1)
    assert GrowthParams(gamma=0.01, mu=0.0).mu == 0.0


def test_growth_params_equilibrium():
    assert GROWTH.equilibrium == pytest.approx(65.0, rel=1e-12)


@pytest.mark.parametrize("field", ["gamma_c", "gamma_h", "a", "epsilon"])
def test_classical_params_require_positive(field):
    values = dict(gamma_c=1.0, gamma_h=1.0, a=1.0, epsilon=1.0)
    values[field] = 0.0
    with pytest.raises(ValidationError):
        ClassicalLvmParams(**values)


def test_lvm_params_allow_zero_sources_only():
    LvmParams(gamma_c=0.01, gamma_h=0.01, a=0.01, epsilon=0.01, mu_c=0.0, mu_h=0.0)
    with pytest.raises(ValidationError):
        LvmParams(gamma_c=0.01, gamma_h=0.01, a=0.01, epsilon=0.01, mu_c=-0.1, mu_h=0.0)
    with pytest.raises(ValidationError):
        LvmParams(gamma_c=0.01, gamma_h=0.0, a=0.01, epsilon=0.01, mu_c=0.1, mu_h=0.1)


def test_fleet_state_requires_finite_values():
    with pytest.raises(ValidationError):
        FleetState(0.0, math.nan, 1.0)
    with pytest.raises(ValidationError):
        FleetState(0.0, 1.0, math.inf)


def test_fleet_state_error_names_the_value():
    with pytest.raises(ValidationError, match=r"^FleetState\.t must be finite, got inf$"):
        FleetState(math.inf, 1.0, 0.0)
    with pytest.raises(ValidationError, match=r"^FleetState\.y must be finite, got nan$"):
        FleetState(2020.0, 1.0, math.nan)


def test_fleet_state_nonnegative_guard():
    FleetState(2020.0, 28.95, 0.0).require_nonnegative()
    with pytest.raises(ValidationError):
        FleetState(2020.0, -1.0, 0.0).require_nonnegative()


# The field rules as written before each became one chained comparison:
# for each field, the test that refuses a value and the refusal's text.
_REFUSED_POSITIVE = (lambda v: not (v > 0) or not math.isfinite(v),
                     "{} must be strictly positive, got {}")
_REFUSED_NONNEGATIVE = (lambda v: not (v >= 0) or not math.isfinite(v),
                        "{} must be non-negative, got {}")
_REFUSED_NOT_FINITE = (lambda v: not math.isfinite(v), "FleetState.{} must be finite, got {}")
_RATES = ("gamma_c", "gamma_h", "a", "epsilon")
_FIELD_RULES = {
    GrowthParams: {"gamma": _REFUSED_POSITIVE, "mu": _REFUSED_NONNEGATIVE},
    ClassicalLvmParams: dict.fromkeys(_RATES, _REFUSED_POSITIVE),
    LvmParams: {**dict.fromkeys(_RATES, _REFUSED_POSITIVE),
                "mu_c": _REFUSED_NONNEGATIVE, "mu_h": _REFUSED_NONNEGATIVE},
    FleetState: dict.fromkeys(("t", "x", "y"), _REFUSED_NOT_FINITE),
}
_EDGE_FLOATS = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e300, 5e-324,
                -5e-324, 1e-310, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
                0.65, 2020.0)


def _reference_refusal(cls, values):
    """The text the per-field rules refuse values with, or None: the first
    failing field in declaration order."""
    for name, (refused, message) in _FIELD_RULES[cls].items():
        if refused(values[name]):
            return message.format(name, values[name])
    return None


def _check_against_the_reference(cls, values):
    want = _reference_refusal(cls, values)
    if want is None:
        assert [getattr(cls(**values), name) for name in values] == list(values.values())
    else:
        with pytest.raises(ValidationError) as exc:
            cls(**values)
        assert str(exc.value) == want


@pytest.mark.parametrize("cls", _FIELD_RULES, ids=lambda cls: cls.__name__)
def test_one_comparison_refuses_exactly_what_the_per_field_rule_refuses(cls):
    # every edge value in every field, and every pair of them in every two fields
    names = list(_FIELD_RULES[cls])
    for i, j in itertools.combinations(range(len(names)), 2):
        for u, v in itertools.product(_EDGE_FLOATS, repeat=2):
            values = dict.fromkeys(names, 0.5)
            values[names[i]], values[names[j]] = u, v
            _check_against_the_reference(cls, values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(_FIELD_RULES)), st.data())
def test_one_comparison_agrees_with_the_per_field_rule_on_any_floats(cls, data):
    floats = st.floats(width=64) | st.sampled_from(_EDGE_FLOATS) | st.floats(0.0, 1e3)
    _check_against_the_reference(cls, {name: data.draw(floats) for name in _FIELD_RULES[cls]})


_BIG_INTS = pytest.mark.parametrize("big, shown", [
    (10**400, "1" + "0" * 400),
    (-10**400, "-1" + "0" * 400),
    (2**1024, str(2**1024)),
    (10**5000, "an int too long to print"),  # str() refuses it, past 4300 digits
    (-10**5000, "an int too long to print"),
], ids=["1e400", "-1e400", "2**1024", "1e5000", "-1e5000"])


@pytest.mark.parametrize("cls, name", [
    (cls, name) for cls, rules in _FIELD_RULES.items() for name in rules
], ids=lambda x: getattr(x, "__name__", x))
@_BIG_INTS
def test_value_types_refuse_an_int_beyond_the_float_range(cls, name, big, shown):
    values = dict.fromkeys(_FIELD_RULES[cls], 0.5)
    values[name] = big
    message = _FIELD_RULES[cls][name][1]
    with pytest.raises(ValidationError) as exc:
        cls(**values)
    assert str(exc.value) == message.format(name, shown)
    values[name] = 10**300  # an int inside the float range passes, stored as a float
    stored = getattr(cls(**values), name)
    assert type(stored) is float and stored == 1e300



@pytest.mark.parametrize("tiny", [Fraction(1, 10**400), Decimal("1e-400")],
                         ids=["Fraction", "Decimal"])
def test_a_rate_refuses_a_positive_value_that_would_be_stored_as_zero(tiny):
    # tiny > 0, but float(tiny) == 0.0: a rate must stay strictly positive
    with pytest.raises(ValidationError) as exc:
        GrowthParams(tiny, 0.65)
    assert str(exc.value) == f"gamma must be strictly positive, got {tiny}"
    assert GrowthParams(0.01, tiny).mu == 0.0  # a source may be zero


# Every other entry point that takes a number through dynamics' range check:
# a call with the number, and its refusal text with the number shown, or
# (text above the float range, text below it) where the two differ.
_START = FleetState(2020.0, 1.0, 0.0)
_MODERATE = LvmParams(0.01, 0.01, 0.005, 0.005, 0.65, 0.35)
_ENTRY_POINTS = {
    "integrate-t_end": (lambda v: integrate(ZERO, _START, v, 0.1),
                        "t_end must be finite, got {}"),
    "integrate-dt": (lambda v: integrate(ZERO, _START, 2100.0, v),
                     "dt must be positive and finite, got {}"),
    "ScenarioSpec-t_end": (lambda v: ScenarioSpec("big", _MODERATE, _START, v, 0.1),
                           "t_end must be finite, got {}"),
    "ScenarioSpec-dt": (lambda v: ScenarioSpec("big", _MODERATE, _START, 2100.0, v),
                        "dt must be positive and finite, got {}"),
    "stations_per_year-vps": (lambda v: stations_per_year(0.35, v),
                              "vehicles per station must be positive and finite, got {}"),
    "stations_per_year-uptake": (lambda v: stations_per_year(v, 40.0),
                                 "uptake must be non-negative and finite, got {}"),
    "DeploymentPlan-uptake": (lambda v: DeploymentPlan("S1", uptake=v),
                              "uptake must be positive and finite, got {}"),
    "DeploymentPlan-horizon_years": (
        lambda v: DeploymentPlan("S1", horizon_years=v),
        ("horizon {} years at GBP 8.75e+09 a year puts the total capex beyond the float range",
         "horizon_years must be a positive whole number, got {}")),
    "DeploymentPlan-utilization": (lambda v: DeploymentPlan("S1", utilization=v),
                                   "utilization must be in (0, 1], got {}"),
    "PetrolEquivalence-total_stations": (lambda v: PetrolEquivalence(v, LARGE_STATION),
                                         "total_stations must be non-negative and finite, got {}"),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@_BIG_INTS
def test_entry_points_refuse_an_int_beyond_the_float_range(entry, big, shown):
    call, text = _ENTRY_POINTS[entry]
    if isinstance(text, tuple):
        text = text[big < 0]
    with pytest.raises(ValidationError) as exc:
        call(big)
    assert str(exc.value) == text.format(shown)


def test_trajectory_validation():
    t = np.array([0.0, 1.0, 2.0])
    ok = Trajectory(0.0, 1.0, 2.0, t * 2, t * 0)
    assert len(ok) == 3 and ok.step == 1.0
    # shortened final step is fine
    tr = Trajectory(0.0, 1.0, 2.5, np.zeros(4), np.zeros(4))
    assert tr.final.t == 2.5


def test_trajectory_rejects_samples_off_the_grid():
    # 0 to 2.5 with step 1 has four grid times: 0, 1, 2, 2.5
    for n in (3, 5):
        with pytest.raises(ValidationError, match=r"^x and y must be 1-d sequences of 4 samples"):
            Trajectory(0.0, 1.0, 2.5, np.zeros(n), np.zeros(n))
    with pytest.raises(ValidationError):
        Trajectory(0.0, 1.0, 2.5, np.zeros(4), np.zeros(3))
    with pytest.raises(ValidationError):
        Trajectory(0.0, 1.0, 2.5, np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValidationError, match=r"must exceed the initial time"):
        Trajectory(2.0, 1.0, 2.0, np.zeros(2), np.zeros(2))


def test_trajectory_refuses_non_finite_samples():
    with pytest.raises(ValidationError, match=r"^Trajectory\.x\[0\] must be finite, got inf$"):
        Trajectory(0.0, 1.0, 2.0, [math.inf, math.inf, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match=r"^Trajectory\.y\[2\] must be finite, got nan$"):
        Trajectory(0.0, 1.0, 2.0, np.zeros(3), np.array([1.0, -1.0, math.nan]))
    # finite samples whose sum overflows are scanned and kept
    assert Trajectory(0.0, 1.0, 2.0, [1e308, 1e308, -1e308], np.zeros(3)).x == (
        1e308, 1e308, -1e308)


def test_trajectory_arrays_are_readonly():
    tr = Trajectory(0.0, 1.0, 1.0, np.array([1.0, 2.0]), np.zeros(2))
    with pytest.raises(TypeError):
        tr.x[0] = 5.0
    with pytest.raises(TypeError):
        tr.t[0] = 5.0


def test_trajectory_sample_interpolates_and_checks_range():
    tr = Trajectory(0.0, 1.0, 2.0, np.array([0.0, 2.0, 4.0]), np.zeros(3))
    assert tr.sample(0.5) == (1.0, 0.0)
    with pytest.raises(ValidationError):
        tr.sample(2.5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_trajectories(), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_sample_is_np_interp_to_the_bit(traj, fractions):
    # at every grid time, its float neighbours and points between
    t = numpy_grid(traj)
    assert traj.t == tuple(t.tolist())
    queries = [q for g in t.tolist()
               for q in (math.nextafter(g, -math.inf), g, math.nextafter(g, math.inf))]
    queries += [traj.t0 + f * (traj.t_end - traj.t0) for f in fractions]
    for q in queries:
        if not traj.t0 <= q <= traj.t_end:
            with pytest.raises(ValidationError, match="outside trajectory range"):
                traj.sample(q)
            continue
        assert bits(traj.sample(q)) == bits((np.interp(q, t, traj.x), np.interp(q, t, traj.y)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_trajectories(), st.lists(st.floats(0.0, 1.0), max_size=4), st.randoms())
def test_sample_many_is_sample_at_each_time(traj, fractions, rnd):
    # grid times, their float neighbours inside the range, t_end and points
    # between, in an order the search cannot rely on
    times = [q for g in traj.t
             for q in (math.nextafter(g, -math.inf), g, math.nextafter(g, math.inf))
             if traj.t0 <= q <= traj.t_end]
    times += [traj.t_end] + [traj.t0 + f * (traj.t_end - traj.t0) for f in fractions]
    rnd.shuffle(times)
    assert list(map(bits, traj._sample_many(times))) == [
        bits((t, *traj.sample(t))) for t in times]


# ---------------------------------------------------------- right-hand sides

def test_rhs_growth_fixed_point_and_source():
    # n = mu/gamma is the fixed point; zero fleet feels the bare source.
    field = growth_system(GROWTH)
    assert field(65.0, 0.0)[0] == pytest.approx(0.0, abs=1e-15)
    assert field(0.0, 0.0)[0] == 0.65
    assert field(28.59, 0.0)[0] == pytest.approx(0.65 - 0.01 * 28.59, rel=1e-12)
    assert field(28.59, 0.0)[0] == pytest.approx(0.3641, abs=1e-10)


def test_rhs_growth_fixed_point_any_params():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = GrowthParams(gamma=10 ** rng.uniform(-3, 0), mu=rng.uniform(0.0, 2.0))
        assert abs(growth_system(p)(p.mu / p.gamma, 0.0)[0]) <= 4e-16 * max(1.0, p.mu)


def test_rhs_classical_fixed_point_and_hand_values(orbit_params):
    # fixed point (gamma_h/eps, gamma_c/a) = (1, 0.5)
    dx, dy = classical_system(orbit_params)(1.0, 0.5)
    assert dx == pytest.approx(0.0, abs=1e-15)
    assert dy == pytest.approx(0.0, abs=1e-15)
    # no predators: pure exponential prey growth
    dx, dy = classical_system(orbit_params)(1.0, 0.0)
    assert (dx, dy) == (orbit_params.gamma_c, 0.0)
    dx, dy = classical_system(orbit_params)(2.0, 1.0)
    assert dx == pytest.approx(-4.0 / 3.0, rel=1e-12)
    assert dy == pytest.approx(1.0, rel=1e-12)


def test_rhs_modified_sources_and_collapse_point():
    p = LvmParams(gamma_c=0.3, gamma_h=0.2, a=0.1, epsilon=0.4, mu_c=0.65, mu_h=0.35)
    assert modified_system(p)(0.0, 0.0) == (0.65, 0.35)
    # with y = 0 and mu_h = 0 the x equation is the growth model
    p2 = LvmParams(gamma_c=0.01, gamma_h=0.2, a=0.1, epsilon=0.4, mu_c=0.65, mu_h=0.0)
    dx, dy = modified_system(p2)(65.0, 0.0)
    assert dx == pytest.approx(0.0, abs=1e-15)
    assert dy == 0.0
    # moderate-scenario start
    mod = LvmParams(gamma_c=0.01, gamma_h=0.01, a=0.005, epsilon=0.005, mu_c=0.65, mu_h=0.35)
    dx, dy = modified_system(mod)(28.95, 0.0)
    assert dx == pytest.approx(0.3605, abs=1e-12)
    assert dy == 0.35


# ----------------------------------------------------------------- rk4

def test_rk4_step_identity_on_zero_rhs():
    s = FleetState(3.0, 1.5, 0.5)
    traj = integrate(ZERO, s, 3.25, 0.25)
    assert len(traj) == 2
    out = traj.final
    assert (out.t, out.x, out.y) == (3.25, 1.5, 0.5)


def test_rk4_step_rejects_nonpositive_dt():
    s = FleetState(0.0, 1.0, 1.0)
    for dt in (0.0, -0.1):
        with pytest.raises(ValidationError):
            integrate(ZERO, s, 1.0, dt)


def test_rk4_growth_matches_closed_form_1960_2020():
    traj = integrate(growth_system(GROWTH), FleetState(1960.0, 0.38, 0.0), 2020.0, 0.1)
    assert len(traj) == 601
    exact = growth_closed_form(GROWTH, 0.38, 60.0)
    assert exact == pytest.approx(29.5358, abs=5e-4)
    assert traj.final.x == pytest.approx(29.54, abs=0.01)
    assert abs(traj.final.x - exact) / exact < 1e-10


def test_rk4_single_step_local_error():
    s = FleetState(0.0, 0.38, 0.0)
    out = integrate(growth_system(GROWTH), s, 0.1, 0.1).final
    exact = growth_closed_form(GROWTH, 0.38, 0.1)
    assert abs(out.x - exact) / exact < 1e-10


def test_rk4_convergence_order():
    # Fast dynamics keep truncation above rounding; halving dt must cut the
    # end-state error by at least 8x (order >= 3; 4 expected).
    p = GrowthParams(gamma=0.8, mu=2.0)
    exact = growth_closed_form(p, 0.1, 10.0)
    errors = []
    for dt in (0.2, 0.1, 0.05):
        traj = integrate(growth_system(p), FleetState(0.0, 0.1, 0.0), 10.0, dt)
        errors.append(abs(traj.final.x - exact))
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


# ------------------------------------------------------------- integrate

def test_integrate_single_step_and_preconditions():
    traj = integrate(Field(0.0, 0.0, 1.0, 0.0, 0.0, 0.0), FleetState(0.0, 0.0, 0.0), 0.5, 0.5)
    assert len(traj) == 2
    with pytest.raises(ValidationError):
        integrate(ZERO, FleetState(1.0, 0.0, 0.0), 1.0, 0.1)
    with pytest.raises(ValidationError):
        integrate(ZERO, FleetState(1.0, 0.0, 0.0), 2.0, -0.1)


def test_integrate_shortens_final_partial_step():
    traj = integrate(growth_system(GROWTH), FleetState(0.0, 0.38, 0.0), 1.05, 0.1)
    assert len(traj) == 12
    assert traj.t[-1] == 1.05
    assert traj.t[-1] - traj.t[-2] == pytest.approx(0.05, rel=1e-9)
    assert traj.final.x == pytest.approx(growth_closed_form(GROWTH, 0.38, 1.05), rel=1e-12)


@pytest.mark.parametrize("t0, dt, t_end, n", [
    (2020.0, 0.1, 2100.0, 801),
    (1960.0, 0.1, 2020.0, 601),
    (-3.7, 0.25, 11.3, 61),
    (1960.4, 0.3, 2030.7, 236),  # shortened final step of 0.1
    (0.0, 0.1, 1.05, 12),  # shortened final step of 0.05
    (2000.0, 0.7, 2000.3, 2),  # one step, shorter than dt
    # 528.0000000000018 steps: the remainder is below the resolution of
    # the times, so the span is whole and the grid stays increasing
    (2038.0, 0.1, 2090.8, 529),
    (1978.79, 0.05, 2057.19, 1569),
])
def test_integrate_grid_matches_the_loop_built_grid(t0, dt, t_end, n):
    traj = integrate(ZERO, FleetState(t0, 1.0, 0.0), t_end, dt)
    grid = [t0] + [t0 + i * dt for i in range(1, n)]
    grid[-1] = t_end
    assert list(traj.t) == grid
    assert np.all(np.diff(traj.t) > 0)


def test_integrate_rejects_blowup():
    with pytest.raises(IntegrationError):
        integrate(Field(0.0, 0.0, 1e308, 0.0, 0.0, 1e308), FleetState(0.0, 1.0, 1.0), 1.0, 0.5)


def test_integrate_steps_numpy_scalars_as_floats():
    # np.float64 arithmetic would warn on the overflow instead of reaching
    # the finiteness check, and run about 3x slower
    big = Field(*map(np.float64, (0, 0, 1e308, 0, 0, 1e308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"near t=1\.0$"):
            integrate(big, FleetState(0.0, 1e308, 1e308), 10.0, 1.0)
    p = LvmParams(0.01, 0.01, 0.005, 0.005, 0.65, 0.35)
    s0 = FleetState(2020.0, 28.95, 0.0)
    as_numpy = integrate(Field(*map(np.float64, modified_system(p))), s0, 2030.0, 0.1)
    as_float = integrate(modified_system(p), s0, 2030.0, 0.1)
    assert as_numpy.x == as_float.x
    assert as_numpy.y == as_float.y
    assert {type(v) for v in as_numpy.x + as_numpy.y} == {float}


def test_integrate_blowup_names_the_time_the_step_reaches():
    # A constant slope of 1e307 adds 1e306 per step of 0.1; started 5.5
    # steps below the float maximum, the state overflows within step 6.
    top = sys.float_info.max
    slope = Field(0.0, 0.0, 1e307, 0.0, 0.0, 0.0)
    # the previous grid time plus dt: 0.5 + 0.1 is 0.6, where 6 * 0.1 is not
    with pytest.raises(IntegrationError, match=r"near t=0\.6$"):
        integrate(slope, FleetState(0.0, top - 5.5e306, 0.0), 1.0, 0.1)
    # 10.25 steps below, it overflows within the shortened final step to t_end
    with pytest.raises(IntegrationError, match=r"near t=1\.05$"):
        integrate(slope, FleetState(0.0, top - 10.25e306, 0.0), 1.05, 0.1)
    # the same overflow on a grid of 10**5 steps, which the run steps through
    with pytest.raises(IntegrationError, match=r"near t=0\.6$"):
        integrate(slope, FleetState(0.0, top - 5.5e306, 0.0), 10000.0, 0.1)


def test_integrate_checks_every_stage_state():
    # dx = -x with dt = 4: the stages are -x0, 3*x0 and -11*x0, the exact
    # step result 5*x0. From x0 = 2e307 the result 1e308 is finite but the
    # last stage overflows, and the step must still fail.
    with pytest.raises(IntegrationError, match=r"non-finite near t=4\.0$"):
        integrate(Field(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0), FleetState(0.0, 2e307, 0.0), 4.0, 4.0)


def _reference_integrate(rhs, s0, t_end, dt):
    """The integrator as a loop over calls of rhs that checks each stage state."""

    def rk4(rhs, x, y, dt):
        k1x, k1y = rhs(x, y)
        x2, y2 = x + 0.5 * dt * k1x, y + 0.5 * dt * k1y
        if not (math.isfinite(x2) and math.isfinite(y2)):
            return math.nan, math.nan
        k2x, k2y = rhs(x2, y2)
        x3, y3 = x + 0.5 * dt * k2x, y + 0.5 * dt * k2y
        if not (math.isfinite(x3) and math.isfinite(y3)):
            return math.nan, math.nan
        k3x, k3y = rhs(x3, y3)
        x4, y4 = x + dt * k3x, y + dt * k3y
        if not (math.isfinite(x4) and math.isfinite(y4)):
            return math.nan, math.nan
        k4x, k4y = rhs(x4, y4)
        return (
            x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
        )

    n_full, remainder = _grid(s0.t, dt, t_end)
    x, y = s0.x, s0.y
    xs, ys = [x], [y]
    for i in range(1, n_full + 1 + (remainder > 0)):
        x, y = rk4(rhs, x, y, dt if i <= n_full else remainder)
        if not (math.isfinite(x) and math.isfinite(y)):
            near = s0.t + (i - 1) * dt + dt if i <= n_full else t_end
            raise IntegrationError(f"state became non-finite near t={near}")
        xs.append(x)
        ys.append(y)
    return Trajectory(s0.t, dt, t_end, np.array(xs), np.array(ys))


def _outcome(run, *args):
    try:
        traj = run(*args)
    except IntegrationError as exc:
        return str(exc)
    return traj.t, traj.x, traj.y


# Moderate coefficients, which overflow only after some steps if at all;
# or some coefficients of any size, special values included, which mostly
# overflow within the first step.
moderate = st.floats(-4.0, 4.0)
extreme = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]),
)
fields = st.one_of(
    st.builds(Field, *[moderate] * 6),
    st.builds(Field, *[st.one_of(moderate, moderate, extreme)] * 6),
)
state = st.one_of(moderate, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    field=fields,
    x0=state,
    y0=state,
    t0=st.floats(-100.0, 100.0),
    dt=st.floats(0.01, 3.0),
    steps=st.integers(1, 40),
    # 0 for a whole number of steps, else the length of the shortened final step
    part=st.one_of(st.just(0.0), st.floats(0.05, 0.95)),
)
def test_integrate_equals_the_stage_checked_reference(field, x0, y0, t0, dt, steps, part):
    s0 = FleetState(t0, x0, y0)
    t_end = t0 + (steps + part) * dt
    assert _outcome(integrate, field, s0, t_end, dt) == _outcome(
        _reference_integrate, field.__call__, s0, t_end, dt
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    field=fields,
    x0=state,
    y0=state,
    t0=st.floats(-100.0, 100.0),
    dt=st.floats(0.01, 3.0),
    steps=st.integers(1, 40),
    part=st.one_of(st.just(0.0), st.floats(0.05, 0.95)),
)
def test_integrate_builds_what_the_public_constructor_builds(field, x0, y0, t0, dt, steps, part):
    try:
        traj = integrate(field, FleetState(t0, x0, y0), t0 + (steps + part) * dt, dt)
    except IntegrationError:
        return
    assert type(traj.x) is type(traj.y) is tuple
    assert {type(v) for v in traj.x + traj.y} == {float}
    public = Trajectory(traj.t0, traj.dt, traj.t_end, traj.x, traj.y)
    assert traj == public and hash(traj) == hash(public)


def test_integrate_rejects_non_finite_horizon_and_step():
    s = FleetState(2000.0, 1.0, 0.0)
    for t_end, text in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
        with pytest.raises(ValidationError, match=rf"^t_end must be finite, got {text}$"):
            integrate(ZERO, s, t_end, 0.1)
    for dt, text in ((math.inf, "inf"), (math.nan, "nan")):
        with pytest.raises(ValidationError, match=rf"^dt must be positive and finite, got {text}$"):
            integrate(ZERO, s, 2020.0, dt)


def test_integrate_refuses_more_steps_than_the_cap():
    s = FleetState(2020.0, 28.95, 0.0)
    # 8e10 steps, far above the cap: refused before any step list is built
    with pytest.raises(ValidationError, match=r"^dt = 1e-09 needs 8e\+10 steps from 2020\.0"):
        integrate(ZERO, s, 2100.0, 1e-9)
    # the smallest subnormal step asks for infinitely many
    with pytest.raises(ValidationError, match=r"needs inf steps"):
        integrate(ZERO, s, 2100.0, 5e-324)


def test_integrate_refuses_a_step_at_the_time_resolution():
    # near 2020 the float spacing is 2.3e-13: 2020 + i * 1e-14 repeats times
    with pytest.raises(ValidationError, match=r"^dt = 1e-14 is below the time resolution"):
        integrate(ZERO, FleetState(2020.0, 1.0, 0.0), 2020.000000001, 1e-14)
    with pytest.raises(ValidationError, match=r"time resolution"):
        Trajectory(2020.0, 1e-14, 2020.00000000001, np.zeros(1001), np.zeros(1001))


def test_integrate_step_cap_is_inclusive(monkeypatch):
    import fleetdyn.dynamics as dynamics

    monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
    traj = integrate(ZERO, FleetState(0.0, 1.0, 0.0), 1.0, 0.1)
    assert len(traj) == 11
    with pytest.raises(ValidationError, match=r"at most 10 are allowed$"):
        integrate(ZERO, FleetState(0.0, 1.0, 0.0), 1.0, 0.099)


def test_integrate_classical_orbit_closes(orbit_params):
    # Initial condition (r, 0.5r) gives a closed orbit around (1, 0.5).
    traj = integrate(classical_system(orbit_params), FleetState(0.0, 1.5, 0.75), 20.0, 1e-3)
    dist = np.hypot(np.asarray(traj.x) - 1.5, np.asarray(traj.y) - 0.75)
    # skip the launch, look for the return
    assert dist[3000:].min() < 1e-3
    # r = 1 starts exactly at the fixed point and stays there
    still = integrate(classical_system(orbit_params), FleetState(0.0, 1.0, 0.5), 5.0, 1e-2)
    assert np.allclose(still.x, 1.0, atol=1e-12) and np.allclose(still.y, 0.5, atol=1e-12)


def test_symmetric_collapse_to_growth_model():
    # a = epsilon and equal decay rates: the total fleet follows the
    # one-dimensional growth model with mu = mu_c + mu_h exactly.
    p = LvmParams(gamma_c=0.01, gamma_h=0.01, a=0.005, epsilon=0.005, mu_c=0.65, mu_h=0.35)
    traj = integrate(modified_system(p), FleetState(0.0, 20.0, 5.0), 100.0, 0.1)
    gp = GrowthParams(gamma=0.01, mu=1.0)
    exact = np.array([growth_closed_form(gp, 25.0, t) for t in traj.t])
    rel = np.abs(np.asarray(traj.total) - exact) / exact
    assert rel.max() < 1e-8


# ------------------------------------------------------- conserved quantity

def test_conserved_quantity_value_and_domain(orbit_params):
    v = lv_conserved_quantity(FleetState(0.0, 1.0, 0.5), orbit_params)
    # hand evaluation: 1 - 0 + (4/3)(1/2) - (2/3) ln(1/2)
    expected = 1.0 + 2.0 / 3.0 + (2.0 / 3.0) * math.log(2.0)
    assert v == pytest.approx(expected, rel=1e-12)
    assert v == pytest.approx(2.1288, abs=5e-5)
    for bad in ((0.0, 0.5), (1.0, -0.5)):
        with pytest.raises(ValidationError):
            lv_conserved_quantity(FleetState(0.0, *bad), orbit_params)


def test_conserved_quantity_minimum_at_fixed_point(orbit_params):
    v0 = lv_conserved_quantity(FleetState(0.0, 1.0, 0.5), orbit_params)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = 10 ** rng.uniform(-1.5, 1.5)
        y = 10 ** rng.uniform(-1.5, 1.5)
        assert lv_conserved_quantity(FleetState(0.0, x, y), orbit_params) >= v0 - 1e-12


def test_conserved_quantity_drift_over_orbits(orbit_params):
    traj = integrate(classical_system(orbit_params), FleetState(0.0, 1.5, 0.75), 20.0, 1e-3)
    v = np.array([lv_conserved_quantity(s, orbit_params) for s in traj])
    assert np.max(np.abs(v - v[0]) / abs(v[0])) < 1e-6


# ------------------------------------------------------------ closed form

def test_growth_closed_form_limits():
    assert growth_closed_form(GROWTH, 0.38, 1e6) == pytest.approx(65.0, rel=1e-12)
    assert growth_closed_form(GROWTH, 0.38, 0.0) == 0.38
    assert growth_closed_form(GROWTH, 0.38, 140.0) == pytest.approx(49.07, abs=0.01)
    with pytest.raises(ValidationError):
        growth_closed_form(GROWTH, 0.38, -1.0)
