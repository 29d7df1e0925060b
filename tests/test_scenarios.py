"""Built-in policy scenarios, share metrics and target comparisons."""

import math

import numpy as np
import pytest

from fleetdyn import (
    FleetState,
    GrowthParams,
    LvmParams,
    ScenarioSpec,
    TargetCheck,
    ValidationError,
    builtin_scenario,
    compare_targets,
    growth_closed_form,
    new_hydrogen_vehicles_per_year,
    run_scenario,
    zev_share,
)
from fleetdyn.scenarios import (
    BUILTIN_SCENARIO_NAMES,
    builtin_targets,
    sample_yearly,
    write_trajectory_csv,
)


@pytest.fixture(scope="module")
def trajectories():
    return {name: run_scenario(builtin_scenario(name)) for name in BUILTIN_SCENARIO_NAMES}


# ----------------------------------------------------------------- specs

def test_builtin_parameter_columns():
    low = builtin_scenario("low")
    mod = builtin_scenario("moderate")
    agg = builtin_scenario("AGGRESSIVE")  # case-insensitive
    for spec in (low, mod, agg):
        assert spec.params.gamma_c == 0.01 and spec.params.gamma_h == 0.01
        assert spec.params.mu_c == 0.65
        assert spec.params.a == spec.params.epsilon
        assert spec.initial == FleetState(2020.0, 28.95, 0.0)
        assert spec.t_end == 2100.0 and spec.dt == 0.1
    assert (low.params.a, low.params.mu_h) == (0.001, 0.05)
    assert (mod.params.a, mod.params.mu_h) == (0.005, 0.35)
    assert (agg.params.a, agg.params.mu_h) == (0.01, 0.65)


def test_builtin_scenario_unknown_name():
    with pytest.raises(ValidationError):
        builtin_scenario("rapid")


def test_scenario_spec_validation():
    params = LvmParams(0.01, 0.01, 0.005, 0.005, 0.65, 0.35)
    with pytest.raises(ValidationError):
        ScenarioSpec("bad", params, FleetState(2020.0, -1.0, 0.0), 2100.0, 0.1)
    with pytest.raises(ValidationError):
        ScenarioSpec("bad", params, FleetState(2020.0, 1.0, 0.0), 2010.0, 0.1)
    with pytest.raises(ValidationError):
        ScenarioSpec("bad", params, FleetState(2020.0, 1.0, 0.0), 2100.0, 0.0)


@pytest.mark.parametrize("t_end, dt, match", [
    (2100.0, math.inf, "dt must be positive and finite"),
    (math.inf, 0.1, "t_end must be finite"),
    (2100.0, 1e-5, "at most 1000000 are allowed"),
    (2020.0, 0.1, r"must exceed the initial time \(2020.0\)"),
])
def test_scenario_spec_uses_the_grid_rule(t_end, dt, match):
    params = LvmParams(0.01, 0.01, 0.005, 0.005, 0.65, 0.35)
    with pytest.raises(ValidationError, match=match):
        ScenarioSpec("bad", params, FleetState(2020.0, 1.0, 0.0), t_end, dt)


# ------------------------------------------------------------------ runs

def test_run_scenario_symmetric_total_collapses_to_growth():
    params = LvmParams(0.02, 0.02, 0.004, 0.004, 0.5, 0.3)
    spec = ScenarioSpec("sym", params, FleetState(2020.0, 25.0, 1.0), 2120.0, 0.1)
    traj = run_scenario(spec)
    gp = GrowthParams(0.02, 0.8)
    exact = np.array([growth_closed_form(gp, 26.0, t - 2020.0) for t in traj.t])
    assert np.max(np.abs(traj.total - exact) / exact) < 1e-8


def test_moderate_hydrogen_overtakes_initial_conventional(trajectories):
    # within 25 years of the start the hydrogen fleet exceeds 28.95 Mveh
    traj = trajectories["moderate"]
    _, y2045 = traj.sample(2045.0)
    assert y2045 > 28.95
    _, y2035 = traj.sample(2035.0)
    assert y2035 < 28.95  # but not unrealistically early


def test_zev_share_values(trajectories):
    assert zev_share(trajectories["moderate"], 2020.0) == 0.0
    mod = zev_share(trajectories["moderate"], 2050.0)
    low = zev_share(trajectories["low"], 2050.0)
    assert mod == pytest.approx(0.8922, abs=5e-4)
    assert 0.87 <= mod <= 0.97
    assert 0.05 <= low <= 0.15


def test_zev_share_errors(trajectories):
    from fleetdyn import Trajectory

    with pytest.raises(ValidationError):
        zev_share(trajectories["low"], 2150.0)
    empty = Trajectory(0.0, 1.0, 1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValidationError):
        zev_share(empty, 0.5)


def test_share_ordering_and_bounds(trajectories):
    shares = {n: zev_share(trajectories[n], 2050.0) for n in BUILTIN_SCENARIO_NAMES}
    assert shares["low"] < shares["moderate"] < shares["aggressive"]
    for traj in trajectories.values():
        s = traj.y / traj.total
        assert np.all(s >= 0.0) and np.all(s <= 1.0)


def test_total_fleet_bounds_and_nonnegativity(trajectories):
    for name, traj in trajectories.items():
        spec = builtin_scenario(name)
        cap = (spec.params.mu_c + spec.params.mu_h) / spec.params.gamma_c
        assert traj.total.min() >= 28.95 - 1e-9
        assert traj.total.max() <= cap + 1e-9
        assert traj.x.min() >= 0.0 and traj.y.min() >= 0.0


@pytest.mark.parametrize("name, x, y", [
    ("low", 36.51126318934351, 15.043782833644393),
    ("moderate", 1.937198080332873, 66.13797901913829),
    ("aggressive", 0.7713333877117166, 83.82397478824281),
])
def test_builtin_final_state_2100_bit_exact(trajectories, name, x, y):
    final = trajectories[name].final
    assert (final.t, final.x, final.y) == (2100.0, x, y)


def test_run_scenario_deterministic():
    spec = builtin_scenario("moderate")
    a, b = run_scenario(spec), run_scenario(spec)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


# ---------------------------------------------------------------- targets

def test_compare_targets_moderate_passes(trajectories):
    checks = compare_targets(trajectories["moderate"], builtin_targets("moderate"))
    assert len(checks) == 1
    assert checks[0].passed
    assert checks[0].observed == pytest.approx(0.8922, abs=5e-4)


def test_compare_targets_low_fails_moderate_target(trajectories):
    template = [TargetCheck(year=2050.0, metric="zev_share", expected=0.92, tolerance=0.05)]
    checks = compare_targets(trajectories["low"], template)
    assert not checks[0].passed


def test_compare_targets_tolerance_one_always_passes(trajectories):
    template = [TargetCheck(year=2050.0, metric="zev_share", expected=0.5, tolerance=1.0)]
    for traj in trajectories.values():
        assert compare_targets(traj, template)[0].passed


def test_compare_targets_pass_flag_consistency(trajectories):
    for name in BUILTIN_SCENARIO_NAMES:
        for expected in (0.1, 0.5, 0.92):
            template = [TargetCheck(2050.0, "zev_share", expected, 0.05)]
            check = compare_targets(trajectories[name], template)[0]
            assert check.passed == (abs(check.observed - expected) <= 0.05)


def test_builtin_targets_table():
    assert builtin_targets("low")[0].expected == 0.10
    assert builtin_targets("moderate")[0].expected == 0.92
    assert builtin_targets("aggressive") == []
    with pytest.raises(ValidationError):
        builtin_targets("fast")


# -------------------------------------------------------------- uptake rate

def test_new_hydrogen_vehicles_early_moderate(trajectories):
    traj = trajectories["moderate"]
    first_interior = traj.t[0] + traj.step
    rate = new_hydrogen_vehicles_per_year(traj, first_interior)
    assert rate == pytest.approx(0.35, abs=0.01)


def test_new_hydrogen_vehicles_zero_on_constant_y():
    from fleetdyn import Trajectory

    traj = Trajectory(0.0, 1.0, 4.0, np.linspace(1, 2, 5), np.full(5, 3.0))
    assert new_hydrogen_vehicles_per_year(traj, 2.0) == 0.0


def test_new_hydrogen_vehicles_source_dominated_start():
    params = LvmParams(0.01, 0.01, 0.002, 0.002, 0.1, 0.4)
    spec = ScenarioSpec("sym", params, FleetState(0.0, 0.5, 0.0), 50.0, 0.1)
    traj = run_scenario(spec)
    rate = new_hydrogen_vehicles_per_year(traj, traj.t[0] + traj.step)
    assert rate == pytest.approx(0.4, rel=0.02)


def test_new_hydrogen_vehicles_requires_interior_year(trajectories):
    traj = trajectories["low"]
    with pytest.raises(ValidationError):
        new_hydrogen_vehicles_per_year(traj, traj.t[0])


# ------------------------------------------------------------------- csv

def test_trajectory_csv_round_trip(tmp_path, trajectories):
    path = tmp_path / "moderate.csv"
    write_trajectory_csv(trajectories["moderate"], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,conv,hydro,total"
    assert len(lines) == 82  # header + 2020..2100
    row = lines[1 + 2050 - 2020].split(",")
    x2050, y2050 = trajectories["moderate"].sample(2050.0)
    assert float(row[0]) == 2050.0
    assert float(row[1]) == pytest.approx(x2050, abs=5e-7)
    assert float(row[2]) == pytest.approx(y2050, abs=5e-7)
    # fixed 6-decimal formatting
    assert all(len(cell.split(".")[1]) == 6 for cell in lines[1].split(","))


def test_sample_yearly_matches_pointwise_sample(trajectories):
    params = LvmParams(0.02, 0.01, 0.004, 0.006, 0.5, 0.3)
    odd = run_scenario(ScenarioSpec("odd", params, FleetState(2020.4, 10.0, 1.0), 2030.7, 0.3))
    for traj, first, last in [(trajectories["low"], 2020, 2100), (odd, 2021, 2030)]:
        years, xs, ys = sample_yearly(traj)
        assert years.tolist() == list(range(first, last + 1))
        # one vectorised interpolation per column equals the per-year sample
        assert list(zip(xs.tolist(), ys.tolist())) == [traj.sample(t) for t in years.tolist()]
