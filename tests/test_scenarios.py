"""Built-in policy scenarios, share metrics and target comparisons."""

import cmath
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, numpy_grid, random_trajectories
from fleetdyn._files import write_text
from fleetdyn import (
    FleetState,
    GrowthParams,
    LvmParams,
    ScenarioSpec,
    TargetCheck,
    Trajectory,
    ValidationError,
    asymptotic_state,
    builtin_scenario,
    compare_targets,
    growth_closed_form,
    integrate,
    modified_system,
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
    ScenarioSpec("ok", params, FleetState(2020.0, -0.0, 0.0), 2100.0, 0.1)
    # a negative initial fleet is refused in its own words, before the frame is checked
    for x, y, text in ((-1.0, 0.0, "initial.x must be non-negative and finite, got -1.0"),
                       (1.0, -5e-324, "initial.y must be non-negative and finite, got -5e-324")):
        with pytest.raises(ValidationError) as exc:
            ScenarioSpec("bad", params, FleetState(2020.0, x, y), 2100.0, 0.0)
        assert str(exc.value) == text
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
    assert np.max(np.abs(np.asarray(traj.total) - exact) / exact) < 1e-8


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
        s = np.asarray(traj.y) / np.asarray(traj.total)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)


def test_total_fleet_bounds_and_nonnegativity(trajectories):
    for name, traj in trajectories.items():
        spec = builtin_scenario(name)
        cap = (spec.params.mu_c + spec.params.mu_h) / spec.params.gamma_c
        total, x, y = np.asarray(traj.total), np.asarray(traj.x), np.asarray(traj.y)
        assert total.min() >= 28.95 - 1e-9
        assert total.max() <= cap + 1e-9
        assert x.min() >= 0.0 and y.min() >= 0.0


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


def test_rk4_convergence_order_on_the_competition_field():
    # Against a dt = 0.1/64 reference, halving dt from 2 to 0.25 must cut the
    # moderate builtin's end-state error by at least 8x each time (order >= 3;
    # 19.0x, 17.5x and 16.7x measured, order 4).
    spec = builtin_scenario("moderate")
    ref = run_scenario(replace(spec, dt=0.1 / 64)).final
    errors = []
    for dt in (2.0, 1.0, 0.5, 0.25):
        final = run_scenario(replace(spec, dt=dt)).final
        errors.append(max(abs(final.x - ref.x), abs(final.y - ref.y)))
    assert [a / b >= 8.0 for a, b in zip(errors, errors[1:])] == [True] * 3


def _eigenvalues(p, x, y):
    """The two eigenvalues of the competition field's Jacobian at (x, y), as complex numbers."""
    j11, j12 = -p.gamma_c - p.a * y, -p.a * x
    j21, j22 = p.epsilon * y, p.epsilon * x - p.gamma_h
    root = cmath.sqrt((j11 - j22) ** 2 + 4 * j12 * j21)
    return (j11 + j22 + root) / 2, (j11 + j22 - root) / 2


def _rk4_factor(z):
    """|R(z)|, RK4's amplification of the mode exp(z) over one step."""
    return abs(1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1))
def test_every_trajectory_tends_to_the_fixed_point(seed):
    # With mu_c, mu_h >= 0 the closed quadrant is invariant, the orbits are
    # bounded, 1/(xy) is a Dulac function and for mu_h > 0 the fixed point is
    # unique, so by Poincare-Bendixson every orbit tends to asymptotic_state. The seed
    # draws the domain's distributions: rates log-uniform in 1e-3..1, a and
    # epsilon in 1e-4..1e-1, sources uniform in 0..2, x0 in 0..50, y0 in 0..5.
    rng = np.random.default_rng(seed)
    gamma_c, gamma_h = 10.0 ** rng.uniform(-3, 0, 2)
    a, epsilon = 10.0 ** rng.uniform(-4, -1, 2)
    mu_c, mu_h = rng.uniform(0, 2, 2)
    x0, y0 = rng.uniform(0, 50), rng.uniform(0, 5)
    p = LvmParams(*map(float, (gamma_c, gamma_h, a, epsilon, mu_c, mu_h)))
    fixed = asymptotic_state(p)
    at_fixed = _eigenvalues(p, fixed.x_inf, fixed.y_inf)
    # dt: the largest power of two up to 0.5 at which RK4 damps every
    # decaying mode at the initial state and at the fixed point.
    decaying = [lam for lam in (*_eigenvalues(p, x0, y0), *at_fixed) if lam.real < 0]
    dt = 0.5
    while any(_rk4_factor(dt * lam) > 1 for lam in decaying):
        dt /= 2
    # 30 of the slowest relaxation times at the fixed point. Over 400 seeded
    # draws of the domain the last state was within 4.8e-12 of the larger
    # asymptote, relative (1.6e-9 after 25, 2.5e-12 after 40), and no sample
    # was negative. 3 of the 400 are stiff enough to need more than
    # integrate's 10**6 steps; this seed set meets none.
    horizon = 30 / min(-lam.real for lam in at_fixed)
    traj = integrate(modified_system(p), FleetState(0.0, float(x0), float(y0)), horizon, dt)
    assert min(traj.x) >= 0 and min(traj.y) >= 0
    scale = max(fixed.x_inf, fixed.y_inf)
    assert abs(traj.final.x - fixed.x_inf) <= 1e-9 * scale
    assert abs(traj.final.y - fixed.y_inf) <= 1e-9 * scale


def test_without_hydrogen_inflow_an_orbit_from_no_hydrogen_stays_on_the_axis():
    # With mu_h = 0 the axis y = 0 is invariant: from y0 = 0 the orbit heads
    # for (mu_c/gamma_c, 0) = (65, 0), a saddle here as epsilon mu_c > gamma_c
    # gamma_h, and never for the fixed point (2, 63) that asymptotic_state
    # reports. Any y0 > 0 does reach the fixed point.
    p = LvmParams(0.01, 0.01, 0.005, 0.005, 0.65, 0.0)
    fixed = asymptotic_state(p)
    assert (fixed.x_inf, fixed.y_inf) == pytest.approx((2.0, 63.0), rel=1e-12)
    on_axis = run_scenario(ScenarioSpec("axis", p, FleetState(2020.0, 28.95, 0.0), 5020.0, 0.5))
    assert set(on_axis.y) == {0.0}
    assert on_axis.final.x == pytest.approx(p.mu_c / p.gamma_c, rel=1e-12)
    off_axis = run_scenario(ScenarioSpec("off", p, FleetState(2020.0, 28.95, 1e-6), 5020.0, 0.5))
    assert (off_axis.final.x, off_axis.final.y) == pytest.approx((2.0, 63.0), rel=1e-12)


@pytest.mark.parametrize("name", BUILTIN_SCENARIO_NAMES)
def test_builtin_step_error_is_below_one_printed_unit(trajectories, name):
    # Step doubling: an RK4 run's error is about 16/15 of its largest yearly
    # difference from a run at half the step. At dt = 0.1 each builtin's
    # estimate is below 1e-6 Mveh, the last printed digit (measured: low
    # 1.4e-11, moderate 7.4e-9, aggressive 1.1e-7 Mveh).
    half = sample_yearly(run_scenario(replace(builtin_scenario(name), dt=0.05)))
    rows = sample_yearly(trajectories[name])
    assert [year for year, _, _ in rows] == [year for year, _, _ in half]
    estimate = 16 / 15 * max(max(abs(x - hx), abs(y - hy))
                             for (_, x, y), (_, hx, hy) in zip(rows, half))
    assert estimate < 1e-6


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


def test_target_check_derives_passed_from_observed():
    template = TargetCheck(2050.0, "zev_share", 0.92, 0.05)
    assert template.observed is None and template.passed is None
    assert replace(template, observed=0.90).passed is True
    assert replace(template, observed=0.80).passed is False
    with pytest.raises(TypeError):
        TargetCheck(2050.0, "zev_share", 0.92, 0.05, observed=0.5, passed=True)


def test_builtin_targets_table():
    assert builtin_targets("low")[0].expected == 0.10
    assert builtin_targets("moderate")[0].expected == 0.92
    assert builtin_targets("aggressive") == []
    with pytest.raises(ValidationError):
        builtin_targets("fast")


def test_builtin_targets_read_the_scenario_table():
    assert [[(c.year, c.metric, c.expected, c.tolerance) for c in builtin_targets(name)]
            for name in BUILTIN_SCENARIO_NAMES] == [
        [(2050.0, "zev_share", 0.10, 0.05)], [(2050.0, "zev_share", 0.92, 0.05)], []]
    assert builtin_targets(" Moderate ") == builtin_targets("moderate")
    for unknown in ("fast", ""):
        with pytest.raises(ValidationError) as scenario:
            builtin_scenario(unknown)
        with pytest.raises(ValidationError) as targets:
            builtin_targets(unknown)
        assert str(targets.value) == str(scenario.value)


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



def by_open(path, text):
    """The reference the package's writer must match: a text-mode rewrite."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def test_write_text_replaces_in_place(tmp_path):
    path, twin = tmp_path / "out.csv", tmp_path / "twin.csv"
    write_text(path, "old,row\n" * 500)
    os.link(path, tmp_path / "link.csv")
    inode = path.stat().st_ino
    text = "new,\u00e9\r\nrow\n"  # non-ASCII and a CR stay as given
    write_text(path, text)
    by_open(twin, text)
    assert path.stat().st_ino == inode
    assert (tmp_path / "link.csv").read_bytes() == path.read_bytes() == twin.read_bytes()
    assert path.read_bytes() == text.encode("utf-8")
    write_text(tmp_path / "fresh.csv", text)  # creates a missing file
    assert (tmp_path / "fresh.csv").read_bytes() == twin.read_bytes()


def test_write_text_to_devices_and_pipes():
    write_text("/dev/null", "discarded\n")
    r, w = os.pipe()
    try:
        write_text(f"/dev/fd/{w}", "through,a,pipe\n")
        os.close(w)
        w = None
        assert os.read(r, 100) == b"through,a,pipe\n"
    finally:
        os.close(r)
        if w is not None:
            os.close(w)


def test_write_text_that_fails_leaves_an_empty_file(tmp_path):
    # as open(path, "w") does: the old content never stands in for the new
    for writer, path in [(write_text, tmp_path / "a.csv"), (by_open, tmp_path / "b.csv")]:
        path.write_text("old,row\n" * 500)
        with pytest.raises(UnicodeEncodeError):
            writer(path, "year,value\n\ud800\n")
        assert path.read_bytes() == b""


@pytest.mark.parametrize("name", ["dir", "missing/out.csv"])
def test_write_text_raises_what_open_raises(tmp_path, name):
    (tmp_path / "dir").mkdir()
    path = tmp_path / name
    with pytest.raises(OSError) as expected:
        by_open(path, "x\n")
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        write_text(path, "x\n")

def test_sample_yearly_matches_pointwise_sample(trajectories):
    params = LvmParams(0.02, 0.01, 0.004, 0.006, 0.5, 0.3)
    odd = run_scenario(ScenarioSpec("odd", params, FleetState(2020.4, 10.0, 1.0), 2030.7, 0.3))
    for traj, first, last in [(trajectories["low"], 2020, 2100), (odd, 2021, 2030)]:
        rows = sample_yearly(traj)
        assert [year for year, _, _ in rows] == list(range(first, last + 1))
        assert [(x, y) for _, x, y in rows] == [traj.sample(year) for year, _, _ in rows]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_trajectories())
def test_sample_yearly_rows_are_np_interp_at_whole_years(traj):
    # years within 1e-9 outside the span count, and take the end samples
    t = numpy_grid(traj)
    years = np.arange(math.ceil(traj.t0 - 1e-9), math.floor(traj.t_end + 1e-9) + 1, dtype=float)
    expected = zip(years, np.interp(years, t, traj.x), np.interp(years, t, traj.y))
    assert list(map(bits, sample_yearly(traj))) == list(map(bits, expected))


@pytest.mark.parametrize("t0, t_end, rows", [
    (0.0, 9.0, 10), (-1e-10, 9.0 + 1e-10, 10), (0.5, 10.5, 10),
    (0.0, 10.0, 11), (-1e-10, 10.0 - 1e-10, 11), (-0.5, 10.5, 11),
])
def test_sample_yearly_refuses_more_rows_than_the_step_cap(monkeypatch, t0, t_end, rows):
    # with the cap at 9 steps, 10 yearly rows pass and 11 are refused
    monkeypatch.setattr("fleetdyn.scenarios._MAX_STEPS", 9)
    traj = Trajectory(t0, t_end - t0, t_end, [1.0, 2.0], [0.0, 0.0])
    if rows <= 10:
        assert len(sample_yearly(traj)) == rows
        return
    with pytest.raises(ValidationError, match=rf"^the span from {re.escape(str(t0))} to "
                                              rf"{re.escape(str(t_end))} holds 11 yearly rows; "
                                              "at most 10 are allowed$"):
        sample_yearly(traj)


def test_sample_yearly_refuses_a_span_past_the_cap_before_sampling():
    # two 500000-year steps and a one-year rest: 1000002 whole years, one past the cap
    traj = Trajectory(0.0, 500000.0, 1000001.0, [1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="^the span from 0.0 to 1000001.0 holds 1000002 "
                                              "yearly rows; at most 1000001 are allowed$"):
        sample_yearly(traj)
