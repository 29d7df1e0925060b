"""Hydrogen refuelling-station sizing and deployment cost planning.

Station support is computed with the daily-fill model: a station filling
tanks at full daily capacity powers capacity_per_day / tank vehicles. The
alternative annual model (capacity_per_year / annual_consumption, i.e.
weekly refuelling) supports 7x more vehicles per station and is exposed
for sensitivity analysis only; reports flag it as such.

Counts are rounded conservatively: floor for vehicles per station (the
capacity cannot be exceeded), ceiling for stations per year (the demand
must be covered). Plans also carry the exact-ratio station rate, which is
what the headline deployment figures and costs are based on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._files import write_text
from .dynamics import _FRACTION, _NONNEGATIVE_FINITE, _POSITIVE_FINITE, _Ruled, _checked, _chosen
from .errors import ValidationError

__all__ = [
    "StationSpec",
    "VehicleSpec",
    "DeploymentPlan",
    "PetrolEquivalence",
    "SMALL_STATION",
    "LARGE_STATION",
    "HFC_VEHICLE",
    "HFCRE_VEHICLE",
    "SCENARIO_BINDINGS",
    "PETROL_STATION_THROUGHPUT_KG_PER_YEAR",
    "vehicles_per_station_exact",
    "stations_per_year",
    "deployment_plan",
    "petrol_equivalence",
    "write_plan_csv",
    "plan_report",
]

PLAN_CSV_HEADER = (
    "scenario",
    "vps",
    "stations_per_year",
    "total_stations",
    "annual_capex_gbp",
    "total_capex_gbp",
)

DAYS_PER_YEAR = 365
REFUELLINGS_PER_YEAR = 52  # one tank a week

# A typical petrol filling station delivers about 5 Mkg of fuel a year,
# 14x (rounded) the output of a large hydrogen station.
PETROL_STATION_THROUGHPUT_KG_PER_YEAR = 5e6

@dataclass(frozen=True)
class StationSpec(_Ruled):
    """Refuelling-station production capacity and build cost."""

    kind: str  # label: "small" or "large"
    capacity_per_day: float  # kg/day
    capex: float  # GBP per station
    _rules = dict.fromkeys(("capacity_per_day", "capex"), _POSITIVE_FINITE)

    @property
    def capacity_per_year(self) -> float:
        """kg/year at full daily output every day of the year."""
        return DAYS_PER_YEAR * self.capacity_per_day


@dataclass(frozen=True)
class VehicleSpec(_Ruled):
    """Hydrogen vehicle storage: tank size and annual consumption (weekly fills)."""

    kind: str  # label: "hfc" or "hfcre"
    tank: float  # kg
    _rules = {"tank": _POSITIVE_FINITE}

    @property
    def annual_consumption(self) -> float:
        """kg/year with one full tank a week."""
        return REFUELLINGS_PER_YEAR * self.tank


SMALL_STATION = StationSpec("small", 200.0, 1e6)
LARGE_STATION = StationSpec("large", 1000.0, 5e6)
HFC_VEHICLE = VehicleSpec("hfc", 5.0)
HFCRE_VEHICLE = VehicleSpec("hfcre", 1.5)

# Deployment scenarios: which station powers which fleet.
SCENARIO_BINDINGS = {
    "S1": (SMALL_STATION, HFC_VEHICLE),
    "S2": (SMALL_STATION, HFCRE_VEHICLE),
    "S3": (LARGE_STATION, HFC_VEHICLE),
    "S4": (LARGE_STATION, HFCRE_VEHICLE),
}


@dataclass(frozen=True)
class DeploymentPlan:
    """Station build schedule and capital cost for one of the scenarios S1-S4.

    A plan holds its five arguments, scenario_id to utilization, and derives
    the other fields at construction, so dataclasses.replace(plan,
    uptake=...) re-derives them. deployment_plan is this class.

    stations_per_year and the derived totals/costs come from the
    exact-ratio rate (uptake / exact vehicles-per-station, rounded up);
    stations_per_year_conservative rounds the vehicles-per-station figure
    down first and is the strict worst case.
    """

    scenario_id: str
    # The fixed yearly hydrogen uptake, Mveh/year, the plan is sized for; the
    # default is the moderate builtin's mu_h, not a value read from a trajectory.
    uptake: float = 0.35
    horizon_years: int = 30
    basis: str = "daily"  # "daily" or "annual" support model
    utilization: float = 1.0
    station: StationSpec = field(init=False)
    vehicle: VehicleSpec = field(init=False)
    vehicles_per_station: int = field(init=False)
    vehicles_per_station_exact: float = field(init=False)
    stations_per_year: int = field(init=False)
    stations_per_year_conservative: int = field(init=False)
    total_stations: int = field(init=False)
    annual_capex: float = field(init=False)
    total_capex: float = field(init=False)

    def __post_init__(self):
        uptake, horizon_years, utilization = self.uptake, self.horizon_years, self.utilization
        key = _chosen("scenario_id", self.scenario_id.strip().upper(), SCENARIO_BINDINGS)
        _checked(_POSITIVE_FINITE, "uptake", uptake)
        _checked(_POSITIVE_FINITE, "horizon_years", horizon_years)
        if horizon_years % 1:  # the value as given: float() may round a fraction to a whole
            raise ValidationError(f"horizon_years must be a whole number, got {horizon_years}")
        horizon_years = int(horizon_years)
        station, vehicle = SCENARIO_BINDINGS[key]
        vps_exact = vehicles_per_station_exact(station, vehicle, self.basis, utilization)
        vps_floor = int(math.floor(round(vps_exact, 6)))
        if vps_floor < 1:
            raise ValidationError(f"utilization {utilization:g} leaves {vps_exact:g} vehicles per "
                                  "station; a station must support at least one whole vehicle")
        per_year = stations_per_year(uptake, vps_exact)
        annual_capex = per_year * station.capex
        if not math.isfinite(annual_capex):
            raise ValidationError(f"uptake {uptake:g} Mveh/year needs {per_year:.6g} stations a "
                                  "year, whose capex is beyond the float range")
        total_capex = annual_capex * horizon_years
        if not math.isfinite(total_capex):
            raise ValidationError(f"horizon {horizon_years} years at GBP {annual_capex:g} "
                                  "a year puts the total capex beyond the float range")
        self.__dict__.update(
            scenario_id=key, horizon_years=horizon_years, station=station, vehicle=vehicle,
            vehicles_per_station=vps_floor, vehicles_per_station_exact=vps_exact,
            stations_per_year=per_year,
            stations_per_year_conservative=stations_per_year(uptake, vps_floor),
            total_stations=per_year * horizon_years,
            annual_capex=annual_capex, total_capex=total_capex)


@dataclass(frozen=True)
class PetrolEquivalence:
    """How total_stations stations compare with petrol filling stations.

    rounded_ratio is the public-discussion figure (14 for a large
    station); equivalent_at_rounded_ratio divides by it instead of the
    exact ratio. The four figures are derived at construction.
    petrol_equivalence is this class.
    """

    total_stations: int
    station: StationSpec
    ratio_exact: float = field(init=False)  # petrol throughput / station yearly capacity
    equivalent_exact: float = field(init=False)  # stations * capacity / petrol throughput
    rounded_ratio: int = field(init=False)
    equivalent_at_rounded_ratio: int = field(init=False)

    def __post_init__(self):
        _checked(_NONNEGATIVE_FINITE, "total_stations", self.total_stations)
        petrol, capacity = PETROL_STATION_THROUGHPUT_KG_PER_YEAR, self.station.capacity_per_year
        equivalent = self.total_stations * capacity / petrol
        if not math.isfinite(equivalent):
            raise ValidationError(f"total_stations {self.total_stations:g} at {capacity:g} kg/year "
                                  "each puts the petrol equivalent beyond the float range")
        ratio = petrol / capacity
        rounded = round(ratio)
        self.__dict__.update(ratio_exact=ratio, equivalent_exact=equivalent,
                             rounded_ratio=rounded,
                             equivalent_at_rounded_ratio=round(self.total_stations / rounded))


deployment_plan = DeploymentPlan
petrol_equivalence = PetrolEquivalence


def vehicles_per_station_exact(
    st: StationSpec, v: VehicleSpec, basis: str = "daily", utilization: float = 1.0
) -> float:
    """Unrounded vehicles one station can support."""
    _checked(_FRACTION, "utilization", utilization)
    if _chosen("basis", basis, ("daily", "annual")) == "daily":
        return st.capacity_per_day * utilization / v.tank
    return st.capacity_per_year * utilization / v.annual_consumption


def stations_per_year(uptake: float, vps: float) -> int:
    """Stations needed each year to cover the vehicle uptake (ceiling).

    uptake is in Mveh/year; vps is the per-station support count, either
    the floored integer (conservative) or the exact ratio.
    """
    _checked(_POSITIVE_FINITE, "vehicles per station", vps)
    _checked(_NONNEGATIVE_FINITE, "uptake", uptake)
    need = uptake * 1e6 / vps
    if not math.isfinite(need):
        raise ValidationError(f"uptake {uptake:g} Mveh/year at {vps:g} vehicles per station "
                              "needs more stations a year than a float holds")
    # Round away float noise before taking the ceiling so that exact
    # ratios (e.g. 2625.0) do not overshoot by one station.
    return int(math.ceil(round(need, 6)))


def write_plan_csv(plans: list[DeploymentPlan], path) -> None:
    """Write plans as CSV rows under the standard header."""
    write_text(path, ",".join(PLAN_CSV_HEADER) + "\n" + "".join(
        f"{p.scenario_id},{p.vehicles_per_station},{p.stations_per_year},"
        f"{p.total_stations},{p.annual_capex:.0f},{p.total_capex:.0f}\n"
        for p in plans
    ))


def plan_report(plan: DeploymentPlan) -> str:
    """Human-readable summary of a deployment plan."""
    lines = [
        f"Scenario {plan.scenario_id}: {plan.vehicle.kind.upper()} fleet "
        f"on {plan.station.kind} stations"
        + (f" [{plan.basis} support model]" if plan.basis != "daily" else ""),
        f"  uptake                {plan.uptake:g} Mveh/year over {plan.horizon_years} years",
        f"  vehicles per station  {plan.vehicles_per_station} "
        f"(exact {plan.vehicles_per_station_exact:.2f}, "
        f"nearest {round(plan.vehicles_per_station_exact)})",
        f"  stations per year     {plan.stations_per_year} "
        f"(conservative {plan.stations_per_year_conservative})",
        f"  total stations        {plan.total_stations}",
        f"  annual capex          GBP {plan.annual_capex:,.0f}",
        f"  total capex           GBP {plan.total_capex:,.0f}",
    ]
    if plan.utilization != 1.0:
        lines.insert(1, f"  utilization           {plan.utilization:.0%}")
    equiv = petrol_equivalence(plan.total_stations, plan.station)
    lines += [
        f"  petrol equivalence    {equiv.equivalent_exact:.1f} filling stations "
        f"(exact ratio {equiv.ratio_exact:.2f}); "
        f"{equiv.equivalent_at_rounded_ratio} at the rounded ratio {equiv.rounded_ratio}",
    ]
    return "\n".join(lines)
