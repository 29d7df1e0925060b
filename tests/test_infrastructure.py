"""Refuelling-station sizing, deployment plans and cost arithmetic."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetdyn import (
    DeploymentPlan,
    PetrolEquivalence,
    StationSpec,
    ValidationError,
    VehicleSpec,
    deployment_plan,
    petrol_equivalence,
    stations_per_year,
)
from fleetdyn.infrastructure import (
    HFC_VEHICLE,
    HFCRE_VEHICLE,
    LARGE_STATION,
    PLAN_CSV_HEADER,
    SCENARIO_BINDINGS,
    SMALL_STATION,
    plan_report,
    vehicles_per_station_exact,
    write_plan_csv,
)


# ------------------------------------------------------------------- specs

def test_station_specs_satisfy_yearly_invariant():
    assert SMALL_STATION.capacity_per_year == 365 * SMALL_STATION.capacity_per_day == 73000
    assert LARGE_STATION.capacity_per_year == 365 * LARGE_STATION.capacity_per_day == 365000
    assert SMALL_STATION.capex == 1e6 and LARGE_STATION.capex == 5e6
    for bad in (0.0, math.nan, math.inf, 10**400):
        with pytest.raises(ValidationError, match="^capex must be positive and finite"):
            StationSpec("small", 200.0, bad)
        with pytest.raises(ValidationError, match="^capacity_per_day must be positive and finite"):
            StationSpec("small", bad, 1e6)
    ints = StationSpec("small", 200, 10**6)
    assert ints == SMALL_STATION and type(ints.capex) is float


def test_vehicle_specs_weekly_refuelling_invariant():
    assert HFC_VEHICLE.annual_consumption == 52 * HFC_VEHICLE.tank == 260
    assert HFCRE_VEHICLE.annual_consumption == 52 * HFCRE_VEHICLE.tank == 78
    for bad in (0.0, math.nan, math.inf, 10**400):
        with pytest.raises(ValidationError, match="^tank must be positive and finite"):
            VehicleSpec("hfc", bad)


# ------------------------------------------------------- vehicles per station

def test_vehicles_per_station_daily_fill_counts():
    counts = {sid: deployment_plan(sid).vehicles_per_station for sid in SCENARIO_BINDINGS}
    # S4 floors to 666; the published rounding is the nearest value 667
    assert counts == {"S1": 40, "S2": 133, "S3": 200, "S4": 666}
    exact = vehicles_per_station_exact(LARGE_STATION, HFCRE_VEHICLE)
    assert exact == pytest.approx(1000.0 / 1.5, rel=1e-12)
    assert round(exact) == 667


def test_vehicles_per_station_annual_model_is_seven_fold():
    # weekly refuelling vs daily fill: 365/52 times more supported vehicles
    daily = vehicles_per_station_exact(SMALL_STATION, HFC_VEHICLE)
    annual = vehicles_per_station_exact(SMALL_STATION, HFC_VEHICLE, basis="annual")
    assert annual == pytest.approx(daily * 365.0 / 52.0, rel=1e-12)
    assert deployment_plan("S1", basis="annual").vehicles_per_station == 280


def test_vehicles_per_station_utilization_scales():
    assert deployment_plan("S1", utilization=0.5).vehicles_per_station == 20
    with pytest.raises(ValidationError, match="utilization must be in"):
        deployment_plan("S1", utilization=0.0)
    with pytest.raises(ValidationError, match="^basis: 'weekly' is not one of daily, annual$"):
        deployment_plan("S1", basis="weekly")


# --------------------------------------------------------- stations per year

def test_stations_per_year_published_counts():
    assert stations_per_year(0.35, 40) == 8750
    # ceiling over the floored support count; the published 2625 comes
    # from the unrounded 133.33 vehicles per station
    assert stations_per_year(0.35, 133) == 2632
    assert stations_per_year(0.35, 1000.0 / 1.5) == 525
    assert stations_per_year(0.35, 667) == 525
    for bad in (0, math.nan, math.inf, 10**400):
        with pytest.raises(ValidationError, match="^vehicles per station must be positive and"):
            stations_per_year(0.35, bad)
    for bad in (-1.0, math.nan, math.inf, 10**400):
        with pytest.raises(ValidationError, match="^uptake must be non-negative and finite"):
            stations_per_year(bad, 40)


def test_stations_per_year_ceiling_covers_demand():
    import numpy as np

    rng = np.random.default_rng(13)
    for _ in range(200):
        uptake = rng.uniform(0.01, 2.0)
        vps = rng.integers(1, 2000)
        n = stations_per_year(uptake, int(vps))
        assert n * vps >= uptake * 1e6 - 1e-3
        assert (n - 1) * vps < uptake * 1e6


# ------------------------------------------------------------- deployment

def test_deployment_plan_published_figures():
    s1 = deployment_plan("S1", 0.35, 30)
    assert (s1.vehicles_per_station, s1.stations_per_year) == (40, 8750)
    assert s1.total_stations == 262500
    assert s1.annual_capex == pytest.approx(8.75e9)
    assert s1.total_capex == pytest.approx(262.5e9)

    s2 = deployment_plan("S2", 0.35, 30)
    assert s2.stations_per_year == 2625
    assert s2.stations_per_year_conservative == 2632
    assert s2.total_stations == 78750
    assert s2.annual_capex == pytest.approx(2.625e9)

    s3 = deployment_plan("S3", 0.35, 30)
    assert (s3.vehicles_per_station, s3.stations_per_year) == (200, 1750)
    assert s3.total_stations == 52500  # self-consistent; the published
    # total of 20010 is inconsistent with its own 1750/year over 30 years
    assert s3.annual_capex == pytest.approx(8.75e9)

    s4 = deployment_plan("S4", 0.35, 30)
    assert s4.stations_per_year == 525
    assert s4.total_stations == 15750
    assert s4.annual_capex == pytest.approx(2.625e9)


def test_deployment_plan_bindings_and_validation():
    assert deployment_plan("s2").station is SMALL_STATION
    assert deployment_plan("s2").vehicle is HFCRE_VEHICLE
    assert deployment_plan("S3").station is LARGE_STATION
    with pytest.raises(ValidationError):
        deployment_plan("S5")
    with pytest.raises(ValidationError):
        deployment_plan("S1", uptake=0.0)
    with pytest.raises(ValidationError):
        deployment_plan("S1", horizon_years=0)


@pytest.mark.parametrize("uptake", [math.inf, -math.inf, math.nan,
                                    pytest.param(10**400, id="int-beyond-float")])
def test_deployment_plan_rejects_non_finite_uptake(uptake):
    with pytest.raises(ValidationError, match=f"uptake must be positive and finite, got {uptake}"):
        deployment_plan("S2", uptake=uptake)


@pytest.mark.parametrize("horizon, rule", [
    (0, "positive and finite"), (-3, "positive and finite"), (2.5, "a whole number"),
    (math.nan, "positive and finite"), (math.inf, "positive and finite"),
    (-math.inf, "positive and finite"),
    (Fraction(10**20 - 1, 10**20), "a whole number"),  # whose float() is 1.0
], ids=str)
def test_deployment_plan_refuses_a_horizon_that_is_not_a_positive_whole_number(horizon, rule):
    with pytest.raises(ValidationError) as refused:
        deployment_plan("S1", horizon_years=horizon)
    assert str(refused.value) == f"horizon_years must be {rule}, got {horizon}"


def test_deployment_plan_counts_whole_years():
    plan = deployment_plan("S1", horizon_years=30.0)
    assert plan == deployment_plan("S1", horizon_years=30)
    assert type(plan.horizon_years) is type(plan.total_stations) is int


def test_deployment_cost_ordering():
    plans = {sid: deployment_plan(sid, 0.35, 30) for sid in ("S1", "S2", "S3", "S4")}
    assert plans["S1"].annual_capex == plans["S3"].annual_capex
    assert plans["S2"].annual_capex == plans["S4"].annual_capex
    # range-extender fleets are strictly cheaper for the same station kind
    assert plans["S2"].annual_capex < plans["S1"].annual_capex
    assert plans["S4"].annual_capex < plans["S3"].annual_capex


def test_deployment_scale_linearity():
    for sid in ("S1", "S2", "S3", "S4"):
        single = deployment_plan(sid, 0.35, 30)
        double = deployment_plan(sid, 0.70, 30)
        assert abs(double.stations_per_year - 2 * single.stations_per_year) <= 1


def test_deployment_invariants_hold():
    for sid in ("S1", "S2", "S3", "S4"):
        plan = deployment_plan(sid, 0.41, 25)
        assert plan.total_stations == plan.stations_per_year * plan.horizon_years
        assert plan.annual_capex == plan.stations_per_year * plan.station.capex
        assert plan.total_capex == plan.annual_capex * plan.horizon_years
        covered = plan.stations_per_year_conservative * plan.vehicles_per_station
        assert covered >= plan.uptake * 1e6


def test_deployment_annual_basis_flagged():
    plan = deployment_plan("S1", 0.35, 30, basis="annual")
    assert plan.basis == "annual"
    assert plan.stations_per_year == stations_per_year(
        0.35, vehicles_per_station_exact(SMALL_STATION, HFC_VEHICLE, basis="annual")
    )
    assert "annual" in plan_report(plan)


# ------------------------------------------------------ plan as a value type

def test_the_function_names_are_the_classes():
    assert deployment_plan is DeploymentPlan
    assert petrol_equivalence is PetrolEquivalence


@pytest.mark.parametrize("derived", [
    {"total_stations": 1},
    {"total_stations": 1, "annual_capex": -5.0},
    {"station": LARGE_STATION},
    {"vehicles_per_station_exact": 1.0},
])
def test_plan_replace_refuses_a_derived_field(derived):
    with pytest.raises(ValueError, match="init=False"):
        replace(deployment_plan("S2"), **derived)
    with pytest.raises(TypeError):
        DeploymentPlan("S2", **derived)


def test_plan_replace_rederives_every_field():
    plan = deployment_plan(" s2 ")
    assert plan.scenario_id == "S2" and plan == DeploymentPlan("S2")
    for uptake in (0.7, 0.01, 3.0):
        assert replace(plan, uptake=uptake) == deployment_plan("S2", uptake)
    assert replace(plan, scenario_id="s3", horizon_years=12, basis="annual",
                   utilization=0.5) == deployment_plan("S3", 0.35, 12, "annual", 0.5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["S1", "s2", " S3 ", "S4", "S5", ""]),
    st.floats(1e-6, 10.0) | st.floats() | st.sampled_from([0.0, -0.35, 1e300]),
    st.integers(-2, 60) | st.just(10**300),
    st.sampled_from(["daily", "annual", "weekly"]),
    st.floats(-0.5, 1.5) | st.sampled_from([1.0, 0.5, 1e-3]),
)
def test_plan_fields_are_the_free_functions_of_its_inputs(sid, uptake, horizon, basis, util):
    inputs = (sid, uptake, horizon, basis, util)
    try:
        plan = DeploymentPlan(*inputs)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as refused:
            deployment_plan(*inputs)
        assert str(refused.value) == str(exc)
        return
    assert plan == deployment_plan(*inputs)
    assert (plan.scenario_id, plan.uptake, plan.horizon_years, plan.basis,
            plan.utilization) == (sid.strip().upper(), uptake, horizon, basis, util)
    station, vehicle = SCENARIO_BINDINGS[plan.scenario_id]
    exact = vehicles_per_station_exact(station, vehicle, basis, util)
    floor = int(math.floor(round(exact, 6)))
    per_year = stations_per_year(uptake, exact)
    assert (plan.station, plan.vehicle) == (station, vehicle)
    assert (plan.vehicles_per_station_exact, plan.vehicles_per_station) == (exact, floor)
    assert plan.stations_per_year == per_year
    assert plan.stations_per_year_conservative == stations_per_year(uptake, floor)
    assert plan.total_stations == per_year * horizon
    assert plan.annual_capex == per_year * station.capex
    assert plan.total_capex == per_year * station.capex * horizon


# ----------------------------------------------------------------- petrol

def test_petrol_equivalence_published_ratio():
    eq = petrol_equivalence(20010, LARGE_STATION)
    assert eq.ratio_exact == pytest.approx(5e6 / 365000.0, rel=1e-12)
    assert eq.ratio_exact == pytest.approx(13.70, abs=5e-3)
    assert eq.rounded_ratio == 14
    assert eq.equivalent_at_rounded_ratio == 1429
    assert eq.equivalent_exact == pytest.approx(20010 * 365000.0 / 5e6, rel=1e-12)


def test_petrol_equivalence_zero_and_validation():
    eq = petrol_equivalence(0, LARGE_STATION)
    assert eq.equivalent_exact == 0.0
    assert eq.equivalent_at_rounded_ratio == 0
    for bad in (-1, math.nan, math.inf, 10**400):
        with pytest.raises(ValidationError,
                           match="^total_stations must be non-negative and finite, got"):
            petrol_equivalence(bad, LARGE_STATION)
    # finite, but 1e308 stations of 365000 kg/year overflow the equivalent
    with pytest.raises(ValidationError, match=r"^total_stations 1e\+308 at 365000 kg/year each "
                                              "puts the petrol equivalent beyond the float range$"):
        petrol_equivalence(1e308, LARGE_STATION)


def test_petrol_equivalence_holds_its_inputs_and_derives_the_rest():
    eq = petrol_equivalence(20010, LARGE_STATION)
    assert eq == PetrolEquivalence(20010, LARGE_STATION)
    assert replace(eq, total_stations=0) == petrol_equivalence(0, LARGE_STATION)
    assert replace(eq, station=SMALL_STATION) == petrol_equivalence(20010, SMALL_STATION)
    with pytest.raises(ValueError, match="init=False"):
        replace(eq, rounded_ratio=1)


# ------------------------------------------------------------------ report

def test_plan_csv_and_report(tmp_path):
    plans = [deployment_plan(sid, 0.35, 30) for sid in ("S1", "S2", "S3", "S4")]
    path = tmp_path / "plans.csv"
    write_plan_csv(plans, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(PLAN_CSV_HEADER)
    assert lines[1] == "S1,40,8750,262500,8750000000,262500000000"
    assert lines[4] == "S4,666,525,15750,2625000000,78750000000"

    report = plan_report(plans[3])
    assert "525" in report and "15750" in report
    assert "nearest 667" in report
