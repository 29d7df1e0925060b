"""Seeded input generation for the benchmark workloads.

The same seed gives the same inputs. Only the stdlib `random` module is
used, so the inputs do not depend on the numpy version under test. The
program never sees the seed, only the values drawn from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Shared scenario frame of the published scenarios (kept here, not read
# from the package, so that the checks stay independent of the code under
# test).
START_YEAR = 2020
BUILTIN_X0 = 28.95
BUILTIN_GAMMA = 0.01
BUILTIN_MU_C = 0.65
BUILTIN = {  # name: (switching rate a = epsilon, mu_h)
    "low": (0.001, 0.05),
    "moderate": (0.005, 0.35),
    "aggressive": (0.01, 0.65),
}

# Sweep draws per (dt, horizon) cell of one pass. Fixed counts give every
# seed the same number of RK4 steps and CSV rows, and put p50 in the
# 500-step cell and p90 in the 1600-step cell rather than between two
# cells; the three builtins add to the (0.1, 80) cell.
SWEEP_CELLS = {
    (0.25, 30): 12, (0.25, 50): 12, (0.1, 30): 12, (0.25, 80): 12,
    (0.1, 50): 15, (0.05, 30): 15, (0.1, 80): 15,
    (0.05, 50): 8, (0.05, 80): 8,
}
# Every fourth draw of a cell leaves the published family (a != eps).
FREE_DRAW_EVERY = 4
# Fit iterations differ from seed to seed, so more series per pass give a
# steadier ops_per_s; but set-up writes each series to its own file, and
# file writes were the noisiest part of set-up (0.2-1.1 s for 1200 files
# on one ext4 disk). At 400, ops_per_s spread 6-9 % over five seeds.
STUDY_OPS_PER_PASS = 400
# Share of the seeded study series with an interior rate; the rest are
# near-linear. Above one half, so that p50 lies among the interior fits
# and p90 among the boundary fits instead of in the gap between them.
INTERIOR_SHARE = 0.6
PLAN_IDS = ("S1", "S2", "S3", "S4")


@dataclass(frozen=True)
class ScenarioDraw:
    """One sweep op: model parameters, initial state and grid.

    builtin names one of the published scenarios, which the op requests by
    name; the parameters here then repeat the published values.
    """

    gamma_c: float
    gamma_h: float
    a: float
    epsilon: float
    mu_c: float
    mu_h: float
    x0: float
    y0: float
    t0: float
    horizon: int
    dt: float
    builtin: str | None = None

    @property
    def params(self) -> tuple[float, ...]:
        return (self.gamma_c, self.gamma_h, self.a, self.epsilon, self.mu_c, self.mu_h)

    @property
    def published_family(self) -> bool:
        """a = epsilon and gamma_c = gamma_h: the total follows the growth model."""
        return self.a == self.epsilon and self.gamma_c == self.gamma_h

    @property
    def t_end(self) -> float:
        return self.t0 + self.horizon


@dataclass(frozen=True)
class Series:
    """A fleet series written to a `year,fleet_mveh` CSV during set-up.

    truth holds the generating growth parameters (gamma, mu, n0) of the
    interior-rate series and is None for the near-linear ones.
    """

    kind: str  # "interior", "linear" or "uk"
    years: tuple[int, ...]
    values: tuple[float, ...]
    truth: tuple[float, float, float] | None
    path: Path


@dataclass(frozen=True)
class StudyDraw:
    """One study op: a series to fit, a competition parameter set and a plan."""

    series: Series
    lvm: tuple[float, ...]  # gamma_c, gamma_h, a, epsilon, mu_c, mu_h
    uptake: float
    plan_horizon: int


def builtin_draws() -> list[ScenarioDraw]:
    """The three published scenarios as draws, in their published order."""
    return [
        ScenarioDraw(
            BUILTIN_GAMMA, BUILTIN_GAMMA, rate, rate, BUILTIN_MU_C, mu_h,
            BUILTIN_X0, 0.0, float(START_YEAR), 80, 0.1, builtin=name,
        )
        for name, (rate, mu_h) in BUILTIN.items()
    ]


def scenario_draw(rng: random.Random, dt: float, horizon: int, family: bool) -> ScenarioDraw:
    """Published family (a = eps, gamma_c = gamma_h) or four free rates."""
    if family:
        gamma_c = gamma_h = rng.uniform(0.005, 0.05)
        a = epsilon = rng.uniform(5e-4, 2e-2)
    else:
        gamma_c, gamma_h = rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05)
        a, epsilon = rng.uniform(5e-4, 2e-2), rng.uniform(5e-4, 2e-2)
    return ScenarioDraw(
        gamma_c=gamma_c,
        gamma_h=gamma_h,
        a=a,
        epsilon=epsilon,
        mu_c=rng.uniform(0.05, 0.65),
        mu_h=rng.uniform(0.05, 0.65),
        x0=rng.uniform(20.0, 35.0),
        y0=rng.uniform(0.0, 1.0),
        t0=float(START_YEAR),
        horizon=horizon,
        dt=dt,
    )


def sweep_inputs(seed: int) -> list[ScenarioDraw]:
    """One pass of the sweep: the three builtins, then seeded draws in seeded order."""
    rng = random.Random(f"sweep:{seed}")
    draws = [
        scenario_draw(rng, dt, horizon, family=j % FREE_DRAW_EVERY != FREE_DRAW_EVERY - 1)
        for (dt, horizon), count in SWEEP_CELLS.items()
        for j in range(count)
    ]
    rng.shuffle(draws)
    return builtin_draws() + draws


def _interior_series(rng: random.Random) -> tuple[list[int], list[float], tuple]:
    n = rng.randint(5, 40)
    gamma = rng.uniform(0.03, 0.2)
    # Span the data over 1-4 relaxation times so the rate is identifiable.
    step = max(1, round(rng.uniform(1.0, 4.0) / gamma / (n - 1)))
    n0 = rng.uniform(2.0, 20.0)
    n_inf = n0 * rng.uniform(1.5, 4.0)
    noise = rng.uniform(0.0, 0.02)
    years = [1970 + i * step for i in range(n)]
    values = []
    for year in years:
        t = year - years[0]
        clean = n0 * math.exp(-gamma * t) + n_inf * -math.expm1(-gamma * t)
        values.append(clean * (1.0 + noise * rng.gauss(0.0, 1.0)))
    return years, values, (gamma, gamma * n_inf, n0)


def _linear_series(rng: random.Random) -> tuple[list[int], list[float], None]:
    # A line with slight upward curvature, like the bundled UK series: the
    # least-squares optimum of the growth model is the gamma -> 0 limit.
    n = rng.randint(5, 40)
    step = rng.choice((1, 2, 5))
    b0 = rng.uniform(5.0, 10.0)
    b1 = rng.uniform(0.2, 0.6)
    curve = rng.uniform(0.0, 0.01) * b1 / (n * step)
    noise = rng.uniform(0.0, 0.005)
    years = [1970 + i * step for i in range(n)]
    values = [
        (b0 + b1 * (y - 1970) + curve * (y - 1970) ** 2) * (1.0 + noise * rng.gauss(0.0, 1.0))
        for y in years
    ]
    return years, values, None


def lvm_draw(rng: random.Random) -> tuple[float, ...]:
    """Competition parameters around the published gradient-study set."""
    return (
        rng.uniform(0.005, 0.05),  # gamma_c
        rng.uniform(0.005, 0.05),  # gamma_h
        rng.uniform(5e-4, 2e-2),  # a
        rng.uniform(5e-4, 2e-2),  # epsilon
        rng.uniform(0.05, 1.0),  # mu_c
        rng.uniform(0.05, 1.0),  # mu_h
    )


def write_series_csv(path: Path, years, values) -> tuple[float, ...]:
    """Write `year,fleet_mveh` rows; returns the values as written (6 decimals)."""
    lines = ["year,fleet_mveh"] + [f"{y},{v:.6f}" for y, v in zip(years, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tuple(float(f"{v:.6f}") for v in values)


def uk_study_draw(seed: int, uk_csv: Path) -> StudyDraw:
    """The bundled UK series with a seeded parameter set and plan."""
    rng = random.Random(f"study-uk:{seed}")
    years, values = read_series_csv(uk_csv)
    return StudyDraw(Series("uk", years, values, None, uk_csv),
                     lvm_draw(rng), rng.uniform(0.05, 1.0), rng.randint(5, 40))


def study_inputs(seed: int, workdir: Path, uk_csv: Path) -> list[StudyDraw]:
    """One pass of the study: the bundled UK series, then seeded series.

    Every series is written as a CSV under workdir so that the op exercises
    ingestion.
    """
    rng = random.Random(f"study:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    draws = [uk_study_draw(seed, uk_csv)]
    n_interior = round(INTERIOR_SHARE * (STUDY_OPS_PER_PASS - 1))
    kinds = ["interior"] * n_interior + ["linear"] * (STUDY_OPS_PER_PASS - 1 - n_interior)
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds, start=1):
        years, values, truth = (_interior_series if kind == "interior" else _linear_series)(rng)
        path = workdir / f"series_{i:03d}.csv"
        written = write_series_csv(path, years, values)
        draws.append(
            StudyDraw(
                Series(kind, tuple(years), written, truth, path),
                lvm_draw(rng), rng.uniform(0.05, 1.0), rng.randint(5, 40),
            )
        )
    return draws


def read_series_csv(path: Path) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Parse a `year,fleet_mveh` file with the stdlib, for the references."""
    rows = path.read_text(encoding="utf-8").split()[1:]
    pairs = [row.split(",") for row in rows]
    return tuple(int(y) for y, _ in pairs), tuple(float(v) for _, v in pairs)
