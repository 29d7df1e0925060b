"""Named policy scenarios for the UK fleet transition and their metrics.

The three built-in scenarios (low / moderate / aggressive) share the
growth rates calibrated on historical data and differ in the hydrogen
resource inflow and the switching incentive. All start in 2020 from the
calibrated conventional fleet of 28.95 Mveh and no hydrogen fleet, and run
to 2100 at a 0.1-year step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._files import write_text
from .dynamics import FleetState, LvmParams, Trajectory, _grid, integrate, modified_system
from .errors import ValidationError

__all__ = [
    "ScenarioSpec",
    "TargetCheck",
    "BUILTIN_SCENARIO_NAMES",
    "builtin_scenario",
    "builtin_targets",
    "run_scenario",
    "zev_share",
    "compare_targets",
    "new_hydrogen_vehicles_per_year",
    "sample_yearly",
    "write_trajectory_csv",
]

TRAJECTORY_CSV_HEADER = ("time", "conv", "hydro", "total")

# Shared scenario frame: start year and fleet, horizon, step.
START_YEAR = 2020.0
START_CONVENTIONAL = 28.95
START_HYDROGEN = 0.0
END_YEAR = 2100.0
DEFAULT_DT = 0.1

# Per-scenario (switching rate a = epsilon, hydrogen resources mu_h);
# growth rates 0.01/year and conventional resources 0.65 Mveh/year
# are common to all three.
_BUILTIN = {
    "low": (0.001, 0.05),
    "moderate": (0.005, 0.35),
    "aggressive": (0.01, 0.65),
}

BUILTIN_SCENARIO_NAMES = tuple(_BUILTIN)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named parameter set with initial state, horizon and step.

    The frame is checked at construction by the grid rule `integrate` uses.
    """

    name: str
    params: LvmParams
    initial: FleetState
    t_end: float
    dt: float

    def __post_init__(self):
        self.initial.require_nonnegative()
        _grid(self.initial.t, self.dt, self.t_end)


@dataclass(frozen=True)
class TargetCheck:
    """A published target at one year: filled in by compare_targets.

    metric names the compared quantity; "zev_share" is the only one.
    """

    year: float
    metric: str
    expected: float
    tolerance: float
    observed: float | None = None
    passed: bool | None = None


def builtin_scenario(name: str) -> ScenarioSpec:
    """One of the built-in policy scenarios: low, moderate or aggressive."""
    key = name.strip().lower()
    if key not in _BUILTIN:
        raise ValidationError(
            f"unknown scenario {name!r}; expected one of {', '.join(_BUILTIN)}"
        )
    switch_rate, mu_h = _BUILTIN[key]
    params = LvmParams(
        gamma_c=0.01,
        gamma_h=0.01,
        a=switch_rate,
        epsilon=switch_rate,
        mu_c=0.65,
        mu_h=mu_h,
    )
    return ScenarioSpec(
        name=key,
        params=params,
        initial=FleetState(START_YEAR, START_CONVENTIONAL, START_HYDROGEN),
        t_end=END_YEAR,
        dt=DEFAULT_DT,
    )


def builtin_targets(name: str) -> list[TargetCheck]:
    """Published 2050 zero-emission-share comparators, where one exists."""
    key = name.strip().lower()
    if key not in _BUILTIN:
        raise ValidationError(f"unknown scenario {name!r}")
    if key == "low":
        return [TargetCheck(year=2050.0, metric="zev_share", expected=0.10, tolerance=0.05)]
    if key == "moderate":
        return [TargetCheck(year=2050.0, metric="zev_share", expected=0.92, tolerance=0.05)]
    return []


def run_scenario(spec: ScenarioSpec) -> Trajectory:
    """Integrate the competition model over the scenario horizon."""
    return integrate(modified_system(spec.params), spec.initial, spec.t_end, spec.dt)


def zev_share(traj: Trajectory, year: float) -> float:
    """Zero-emission share y/(x+y), linearly interpolated at the given year."""
    x, y = traj.sample(year)
    total = x + y
    if total == 0:
        raise ValidationError(f"total fleet is zero at year {year}; share undefined")
    return y / total


def compare_targets(traj: Trajectory, checks: list[TargetCheck]) -> list[TargetCheck]:
    """Fill the observed ZEV share and pass flag of each target template."""
    results = []
    for check in checks:
        observed = zev_share(traj, check.year)
        results.append(
            replace(
                check,
                observed=observed,
                passed=abs(observed - check.expected) <= check.tolerance,
            )
        )
    return results


def new_hydrogen_vehicles_per_year(traj: Trajectory, year: float) -> float:
    """Hydrogen fleet growth rate (Mveh/year) by centred difference over one step."""
    dt = traj.step
    if not (traj.t0 + dt <= year <= traj.t_end - dt):
        raise ValidationError(f"year {year} must be at least one step "
                              f"inside [{traj.t0}, {traj.t_end}]")
    _, y_plus = traj.sample(year + dt)
    _, y_minus = traj.sample(year - dt)
    return (y_plus - y_minus) / (2.0 * dt)


def sample_yearly(traj: Trajectory) -> list[tuple[float, float, float]]:
    """(year, x, y) at the integer years inside the trajectory's span, x and
    y linearly interpolated on the integration grid at those years."""
    # a year within 1e-9 outside the span takes the nearest end sample, as np.interp would
    return traj._sample_many(
        map(float, range(math.ceil(traj.t0 - 1e-9), math.floor(traj.t_end + 1e-9) + 1)))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `time,conv,hydro,total` rows with fixed 6-decimal formatting,
    one per integer year (sample_yearly), as in the published figures."""
    write_text(path, ",".join(TRAJECTORY_CSV_HEADER) + "\n" + "".join([
        "%.6f,%.6f,%.6f,%.6f\n" % (t, x, y, x + y) for t, x, y in sample_yearly(traj)
    ]))
