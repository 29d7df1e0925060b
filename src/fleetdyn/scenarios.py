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
from .dynamics import (_MAX_STEPS, _NONNEGATIVE_FINITE, FleetState, LvmParams, Trajectory,
                       _checked, _chosen, _grid, integrate, modified_system)
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

# Per-scenario (switching rate a = epsilon, hydrogen resources mu_h,
# published 2050 zero-emission share or None); growth rates 0.01/year and
# conventional resources 0.65 Mveh/year are common to all three.
_BUILTIN = {
    "low": (0.001, 0.05, 0.10),
    "moderate": (0.005, 0.35, 0.92),
    "aggressive": (0.01, 0.65, None),
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
        _checked(_NONNEGATIVE_FINITE, "initial.x", self.initial.x)
        _checked(_NONNEGATIVE_FINITE, "initial.y", self.initial.y)
        _grid(self.initial.t, self.dt, self.t_end)


@dataclass(frozen=True)
class TargetCheck:
    """A published target at one year: compare_targets fills in observed.

    metric names the compared quantity; "zev_share" is the only one.
    """

    year: float
    metric: str
    expected: float
    tolerance: float
    observed: float | None = None

    @property
    def passed(self) -> bool | None:
        """None until observed is set, then whether it is within tolerance of expected."""
        observed = self.observed
        return None if observed is None else abs(observed - self.expected) <= self.tolerance


def _builtin(name: str) -> tuple[str, tuple]:
    """The key of the built-in scenario name and its _BUILTIN row."""
    key = _chosen("name", name.strip().lower(), _BUILTIN)
    return key, _BUILTIN[key]


def builtin_scenario(name: str) -> ScenarioSpec:
    """One of the built-in policy scenarios: low, moderate or aggressive."""
    key, (rate, mu_h, _) = _builtin(name)
    params = LvmParams(gamma_c=0.01, gamma_h=0.01, a=rate, epsilon=rate, mu_c=0.65, mu_h=mu_h)
    initial = FleetState(START_YEAR, START_CONVENTIONAL, START_HYDROGEN)
    return ScenarioSpec(name=key, params=params, initial=initial, t_end=END_YEAR, dt=DEFAULT_DT)


def builtin_targets(name: str) -> list[TargetCheck]:
    """Published 2050 zero-emission-share comparators, where one exists."""
    share = _builtin(name)[1][2]
    return [] if share is None else [
        TargetCheck(year=2050.0, metric="zev_share", expected=share, tolerance=0.05)]


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
    """Fill the observed ZEV share of each target template."""
    return [replace(check, observed=zev_share(traj, check.year)) for check in checks]


def new_hydrogen_vehicles_per_year(traj: Trajectory, year: float) -> float:
    """Net growth dy/dt of the hydrogen fleet (Mveh/year) by centred difference over one step.

    This is mu_h + eps x y - gamma_h y, the inflow less the retirements, not
    the gross inflow mu_h + eps x y of new vehicles.
    """
    dt = traj.step
    if not (traj.t0 + dt <= year <= traj.t_end - dt):
        raise ValidationError(f"year {year} must be at least one step "
                              f"inside [{traj.t0}, {traj.t_end}]")
    _, y_plus = traj.sample(year + dt)
    _, y_minus = traj.sample(year - dt)
    return (y_plus - y_minus) / (2.0 * dt)


def sample_yearly(traj: Trajectory) -> list[tuple[float, float, float]]:
    """(year, x, y) at the integer years inside the trajectory's span, x and
    y linearly interpolated on the integration grid at those years. More
    than _MAX_STEPS + 1 years, which only a step above one year spans, are
    refused with ValidationError."""
    # a year within 1e-9 outside the span takes the nearest end sample, as np.interp would
    first, last = math.ceil(traj.t0 - 1e-9), math.floor(traj.t_end + 1e-9)
    # compared as ints: len(range(...)) overflows past sys.maxsize
    if last - first > _MAX_STEPS:
        raise ValidationError(
            f"the span from {traj.t0} to {traj.t_end} holds {float(last - first) + 1:.7g} "
            f"yearly rows; at most {_MAX_STEPS + 1} are allowed")
    return traj._sample_many(map(float, range(first, last + 1)))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `time,conv,hydro,total` rows with fixed 6-decimal formatting,
    one per integer year (sample_yearly), as in the published figures."""
    write_text(path, ",".join(TRAJECTORY_CSV_HEADER) + "\n" + "".join([
        "%.6f,%.6f,%.6f,%.6f\n" % (t, x, y, x + y) for t, x, y in sample_yearly(traj)
    ]))
