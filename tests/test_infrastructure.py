"""Refuelling-station sizing, deployment plans and cost arithmetic."""

import math

import pytest

from fleetdyn import (
    StationSpec,
    ValidationError,
    VehicleSpec,
    deployment_plan,
    petrol_equivalence,
    stations_per_year,
    vehicles_per_station,
)
from fleetdyn.infrastructure import (
    HFC_VEHICLE,
    HFCRE_VEHICLE,
    LARGE_STATION,
    PLAN_CSV_HEADER,
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
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            StationSpec("small", 200.0, bad)
        with pytest.raises(ValidationError):
            StationSpec("small", bad, 1e6)


def test_vehicle_specs_weekly_refuelling_invariant():
    assert HFC_VEHICLE.annual_consumption == 52 * HFC_VEHICLE.tank == 260
    assert HFCRE_VEHICLE.annual_consumption == 52 * HFCRE_VEHICLE.tank == 78
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            VehicleSpec("hfc", bad)


# ------------------------------------------------------- vehicles per station

def test_vehicles_per_station_daily_fill_counts():
    assert vehicles_per_station(SMALL_STATION, HFC_VEHICLE) == 40
    assert vehicles_per_station(SMALL_STATION, HFCRE_VEHICLE) == 133
    assert vehicles_per_station(LARGE_STATION, HFC_VEHICLE) == 200
    # floor gives 666; the published rounding is the nearest value 667
    assert vehicles_per_station(LARGE_STATION, HFCRE_VEHICLE) == 666
    exact = vehicles_per_station_exact(LARGE_STATION, HFCRE_VEHICLE)
    assert exact == pytest.approx(1000.0 / 1.5, rel=1e-12)
    assert round(exact) == 667


def test_vehicles_per_station_annual_model_is_seven_fold():
    # weekly refuelling vs daily fill: 365/52 times more supported vehicles
    daily = vehicles_per_station_exact(SMALL_STATION, HFC_VEHICLE)
    annual = vehicles_per_station_exact(SMALL_STATION, HFC_VEHICLE, basis="annual")
    assert annual == pytest.approx(daily * 365.0 / 52.0, rel=1e-12)
    assert vehicles_per_station(SMALL_STATION, HFC_VEHICLE, basis="annual") == 280


def test_vehicles_per_station_utilization_scales():
    assert vehicles_per_station(SMALL_STATION, HFC_VEHICLE, utilization=0.5) == 20
    with pytest.raises(ValidationError):
        vehicles_per_station(SMALL_STATION, HFC_VEHICLE, utilization=0.0)
    with pytest.raises(ValidationError):
        vehicles_per_station(SMALL_STATION, HFC_VEHICLE, basis="weekly")


# --------------------------------------------------------- stations per year

def test_stations_per_year_published_counts():
    assert stations_per_year(0.35, 40) == 8750
    # ceiling over the floored support count; the published 2625 comes
    # from the unrounded 133.33 vehicles per station
    assert stations_per_year(0.35, 133) == 2632
    assert stations_per_year(0.35, 1000.0 / 1.5) == 525
    assert stations_per_year(0.35, 667) == 525
    with pytest.raises(ValidationError):
        stations_per_year(0.35, 0)


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


@pytest.mark.parametrize("uptake", [math.inf, -math.inf, math.nan])
def test_deployment_plan_rejects_non_finite_uptake(uptake):
    with pytest.raises(ValidationError, match=f"uptake must be positive and finite, got {uptake}"):
        deployment_plan("S2", uptake=uptake)


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
    with pytest.raises(ValidationError):
        petrol_equivalence(-1, LARGE_STATION)


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
