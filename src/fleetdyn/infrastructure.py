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
from dataclasses import dataclass

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
    "vehicles_per_station",
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
class StationSpec:
    """Refuelling-station production capacity and build cost."""

    kind: str  # label: "small" or "large"
    capacity_per_day: float  # kg/day
    capex: float  # GBP per station

    def __post_init__(self):
        for name in ("capacity_per_day", "capex"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be positive and finite, got {v}")

    @property
    def capacity_per_year(self) -> float:
        """kg/year at full daily output every day of the year."""
        return DAYS_PER_YEAR * self.capacity_per_day


@dataclass(frozen=True)
class VehicleSpec:
    """Hydrogen vehicle storage: tank size and annual consumption (weekly fills)."""

    kind: str  # label: "hfc" or "hfcre"
    tank: float  # kg

    def __post_init__(self):
        if not (self.tank > 0 and math.isfinite(self.tank)):
            raise ValidationError(f"tank must be positive and finite, got {self.tank}")

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
    """Station build schedule and cost for one scenario.

    stations_per_year and the derived totals/costs come from the
    exact-ratio rate (uptake / exact vehicles-per-station, rounded up);
    stations_per_year_conservative rounds the vehicles-per-station figure
    down first and is the strict worst case.
    """

    scenario_id: str
    station: StationSpec
    vehicle: VehicleSpec
    uptake: float  # Mveh/year absorbed by the hydrogen supply chain
    horizon_years: int
    basis: str  # "daily" or "annual" support model
    utilization: float
    vehicles_per_station: int
    vehicles_per_station_exact: float
    stations_per_year: int
    stations_per_year_conservative: int
    total_stations: int
    annual_capex: float
    total_capex: float


@dataclass(frozen=True)
class PetrolEquivalence:
    """How a station build-out compares with petrol filling stations.

    rounded_ratio is the public-discussion figure (14 for a large
    station); equivalent_at_rounded_ratio divides by it instead of the
    exact ratio.
    """

    ratio_exact: float  # petrol throughput / station yearly capacity
    equivalent_exact: float  # stations * capacity / petrol throughput
    rounded_ratio: int
    equivalent_at_rounded_ratio: int


def _ceil_count(value: float) -> int:
    # Round away float noise before taking the ceiling so that exact
    # ratios (e.g. 2625.0) do not overshoot by one station.
    return int(math.ceil(round(value, 6)))


def vehicles_per_station_exact(
    st: StationSpec, v: VehicleSpec, basis: str = "daily", utilization: float = 1.0
) -> float:
    """Unrounded vehicles one station can support."""
    if not 0 < utilization <= 1:
        raise ValidationError(f"utilization must be in (0, 1], got {utilization}")
    if basis == "daily":
        return st.capacity_per_day * utilization / v.tank
    if basis == "annual":
        return st.capacity_per_year * utilization / v.annual_consumption
    raise ValidationError(f"basis must be 'daily' or 'annual', got {basis!r}")


def vehicles_per_station(
    st: StationSpec, v: VehicleSpec, basis: str = "daily", utilization: float = 1.0
) -> int:
    """Whole vehicles one station can support (floor of the exact ratio)."""
    return int(math.floor(round(vehicles_per_station_exact(st, v, basis, utilization), 6)))


def stations_per_year(uptake: float, vps: float) -> int:
    """Stations needed each year to cover the vehicle uptake (ceiling).

    uptake is in Mveh/year; vps is the per-station support count, either
    the floored integer (conservative) or the exact ratio.
    """
    if vps <= 0:
        raise ValidationError("vehicles per station must be positive")
    if uptake < 0:
        raise ValidationError("uptake must be non-negative")
    return _ceil_count(uptake * 1e6 / vps)


def deployment_plan(
    scenario_id: str,
    uptake: float = 0.35,
    horizon_years: int = 30,
    basis: str = "daily",
    utilization: float = 1.0,
) -> DeploymentPlan:
    """Build schedule and capital cost for one of the scenarios S1-S4."""
    key = scenario_id.strip().upper()
    if key not in SCENARIO_BINDINGS:
        raise ValidationError(
            f"unknown scenario {scenario_id!r}; expected one of {', '.join(SCENARIO_BINDINGS)}"
        )
    if not (uptake > 0 and math.isfinite(uptake)):
        raise ValidationError(f"uptake must be positive and finite, got {uptake}")
    if horizon_years <= 0:
        raise ValidationError("horizon must be positive")

    station, vehicle = SCENARIO_BINDINGS[key]
    vps_exact = vehicles_per_station_exact(station, vehicle, basis, utilization)
    vps_floor = vehicles_per_station(station, vehicle, basis, utilization)
    per_year = stations_per_year(uptake, vps_exact)
    per_year_conservative = stations_per_year(uptake, vps_floor)
    return DeploymentPlan(
        scenario_id=key,
        station=station,
        vehicle=vehicle,
        uptake=uptake,
        horizon_years=horizon_years,
        basis=basis,
        utilization=utilization,
        vehicles_per_station=vps_floor,
        vehicles_per_station_exact=vps_exact,
        stations_per_year=per_year,
        stations_per_year_conservative=per_year_conservative,
        total_stations=per_year * horizon_years,
        annual_capex=per_year * station.capex,
        total_capex=per_year * station.capex * horizon_years,
    )


def petrol_equivalence(total_stations: int, st: StationSpec) -> PetrolEquivalence:
    """Express a hydrogen build-out as a number of petrol filling stations."""
    if total_stations < 0:
        raise ValidationError("total_stations must be non-negative")
    petrol = PETROL_STATION_THROUGHPUT_KG_PER_YEAR
    ratio = petrol / st.capacity_per_year
    rounded = round(ratio)
    return PetrolEquivalence(
        ratio_exact=ratio,
        equivalent_exact=total_stations * st.capacity_per_year / petrol,
        rounded_ratio=rounded,
        equivalent_at_rounded_ratio=round(total_stations / rounded),
    )


def write_plan_csv(plans: list[DeploymentPlan], path) -> None:
    """Write plans as CSV rows under the standard header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(PLAN_CSV_HEADER) + "\n")
        for p in plans:
            fh.write(
                f"{p.scenario_id},{p.vehicles_per_station},{p.stations_per_year},"
                f"{p.total_stations},{p.annual_capex:.0f},{p.total_capex:.0f}\n"
            )


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
