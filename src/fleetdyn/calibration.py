"""Historical-data ingestion and growth-model calibration.

The fit minimises the sum of squared residuals between the growth-model
closed form and the data over (gamma, mu, n0) with a damped Gauss-Newton
iteration (Levenberg-Marquardt style multiplicative damping). It is fully
deterministic: fixed initialisation, fixed damping schedule, fixed
stopping rule. Each trial point is evaluated once; a rejected step only
re-solves the damped normal equations of the current point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dynamics import GrowthParams, Trajectory, growth_closed_form
from .errors import FitError, ParseError, ValidationError

__all__ = [
    "FleetSeries",
    "FuelMassModel",
    "FitResult",
    "derive_growth_params",
    "pointwise_error",
    "mean_error",
    "fit_growth",
    "load_fleet_csv",
    "bundled_uk_fleet_series",
]

FLEET_CSV_HEADER = ("year", "fleet_mveh")
# FleetSeries holds its years as int64.
_YEAR_RANGE = np.iinfo(np.int64)

_MAX_ITER = 200
_REL_TOL = 1e-10
# Residual norm below this counts as an exact fit (noise-free data).
_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class FleetSeries:
    """Historical fleet sizes: strictly increasing integer years spanning at
    most 2**53 years, fleet in Mveh."""

    years: np.ndarray
    fleet: np.ndarray

    def __post_init__(self):
        years = np.asarray(self.years, dtype=int)
        fleet = np.asarray(self.fleet, dtype=float)
        if years.ndim != 1 or fleet.ndim != 1 or len(years) != len(fleet):
            raise ValidationError("years and fleet must be 1-d arrays of equal length")
        if len(years) == 0:
            raise ValidationError("series must not be empty")
        # On Python ints; within 2**53 neither np.diff nor fit_growth's
        # elapsed years can wrap, and those years are exact floats.
        span = int(years.max()) - int(years.min())
        if span > 2**53:
            raise ValidationError(f"years span {span} years, more than 2**53")
        if np.any(np.diff(years) <= 0):
            raise ValidationError("years must be strictly increasing")
        if np.any(fleet <= 0) or not np.all(np.isfinite(fleet)):
            raise ValidationError("fleet values must be positive and finite")
        years.setflags(write=False)
        fleet.setflags(write=False)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "fleet", fleet)

    def __len__(self) -> int:
        return len(self.years)


@dataclass(frozen=True)
class FuelMassModel:
    """Fuel mass balance for one fleet, all in kg and kg/year.

    m_dot     : total fuel mass consumed per year by the fleet
    m_i       : fuel mass per vehicle (tank basis)
    m_i_dot   : fuel mass consumed per vehicle per year

    The model assumes no fuel is wasted, so m_dot is also the total mass rate.
    """

    m_dot: float
    m_i: float
    m_i_dot: float

    def __post_init__(self):
        for name in ("m_dot", "m_i", "m_i_dot"):
            v = getattr(self, name)
            if not (v >= 0) or not math.isfinite(v):
                raise ValidationError(f"{name} must be non-negative, got {v}")


@dataclass(frozen=True)
class FitResult:
    """Fitted growth parameters with the residual statistics of the fit.

    n0 is the fitted fleet size at anchor_year (the earliest data year);
    mean_error/std_error are the mean and population standard deviation of
    the point-wise relative errors |data - model| / data at the data years.
    """

    params: GrowthParams
    n0: float
    anchor_year: float
    mean_error: float
    std_error: float
    n_iterations: int
    ssr: float


def derive_growth_params(f: FuelMassModel) -> GrowthParams:
    """Map fuel quantities to growth coefficients.

    gamma = m_i_dot / m_i (1/year); mu = m_dot / m_i vehicles/year,
    converted to Mveh/year. Scaling all masses by a common factor leaves
    both outputs unchanged.
    """
    if f.m_i == 0:
        raise ValidationError("m_i must be positive to derive growth parameters")
    gamma = f.m_i_dot / f.m_i
    mu = f.m_dot / f.m_i / 1e6  # vehicles/year -> Mveh/year
    return GrowthParams(gamma=gamma, mu=mu)


def pointwise_error(x_data: float, x_model: float) -> float:
    """Relative point-wise error |(x_data - x_model) / x_data|."""
    if x_data == 0:
        raise ValidationError("point-wise error is undefined for a zero data value")
    return abs((x_data - x_model) / x_data)


def mean_error(data: FleetSeries, model: Trajectory) -> tuple[float, float]:
    """Mean and population std of point-wise errors at the data years.

    The model total fleet is linearly interpolated in time; every data
    year must fall inside the trajectory range.
    """
    errors = []
    for year, value in zip(data.years, data.fleet):
        x, y = model.sample(float(year))
        errors.append(pointwise_error(float(value), x + y))
    errors = np.array(errors)
    return float(errors.mean()), float(errors.std())


def _model(theta, t):
    """Closed-form model values at theta, with e = exp(-gamma*t) for _jacobian."""
    gamma, mu, n0 = theta
    e = np.exp(-gamma * t)
    n_inf = mu / gamma
    return n_inf + (n0 - n_inf) * e, e


def _jacobian(theta, t, e):
    """Jacobian columns d/d(gamma, mu, n0) at theta, from the e of _model."""
    gamma, mu, n0 = theta
    n_inf = mu / gamma
    d_gamma = (mu / gamma**2) * (e - 1.0) - t * (n0 - n_inf) * e
    d_mu = (1.0 - e) / gamma
    return np.column_stack([d_gamma, d_mu, e])


def fit_growth(data: FleetSeries) -> FitResult:
    """Least-squares fit of (gamma, mu, n0) to a fleet series.

    Deterministic damped Gauss-Newton: start from gamma = 1/span,
    mu = gamma * last value, n0 = first value; damping is multiplied by 10
    on a rejected step and divided by 10 on an accepted one; stop when the
    relative residual-norm decrease falls below 1e-10 (or the residual is
    exactly fitted), failing after 200 iterations.

    Each trial point is evaluated once. The normal equations are built
    only at an accepted point, from that evaluation; a rejected step (a
    singular system, a candidate outside gamma > 0, mu >= 0, or no
    residual decrease) only raises the damping and re-solves them.
    """
    if len(data) < 3:
        raise ValidationError("fit needs at least 3 data points")

    t = (data.years - data.years[0]).astype(float)
    f = data.fleet
    span = float(t[-1])

    gamma = 1.0 / span
    mu = gamma * float(f[-1])
    n0 = float(f[0])
    theta = np.array([gamma, mu, n0])

    model, e = _model(theta, t)
    r = model - f
    norm = math.sqrt(r @ r)
    lam = 1e-3

    def result(theta, norm, it):
        params = GrowthParams(gamma=float(theta[0]), mu=float(theta[1]))
        fitted = np.array(
            [growth_closed_form(params, float(theta[2]), ti) for ti in t]
        )
        errs = np.abs((f - fitted) / f)
        return FitResult(
            params=params,
            n0=float(theta[2]),
            anchor_year=float(data.years[0]),
            mean_error=float(errs.mean()),
            std_error=float(errs.std()),
            n_iterations=it,
            ssr=norm**2,
        )

    def normal_equations(theta, r, e):
        jac = _jacobian(theta, t, e)
        jtj = jac.T @ jac
        return jtj, np.diag(np.diag(jtj)), -(jac.T @ r)

    jtj, damping, neg_grad = normal_equations(theta, r, e)
    for it in range(1, _MAX_ITER + 1):
        try:
            step = np.linalg.solve(jtj + lam * damping, neg_grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        candidate = theta + step
        # gamma must stay positive and mu non-negative (GrowthParams domain).
        if candidate[0] <= 0 or candidate[1] < 0:
            lam *= 10.0
            continue
        model2, e2 = _model(candidate, t)
        r2 = model2 - f
        norm2 = math.sqrt(r2 @ r2)
        if norm2 < norm:
            improvement = (norm - norm2) / norm
            theta, r, norm = candidate, r2, norm2
            lam = max(lam * 0.1, 1e-14)
            if improvement < _REL_TOL or norm < _NORM_FLOOR:
                return result(theta, norm, it)
            jtj, damping, neg_grad = normal_equations(theta, r, e2)
        else:
            lam *= 10.0
            if lam > 1e15:
                # Damping saturated: no step improves the residual anymore.
                return result(theta, norm, it)

    raise FitError(
        f"fit did not converge within {_MAX_ITER} iterations",
        best=result(theta, norm, _MAX_ITER),
    )


def _is_blank(row) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def load_fleet_csv(path) -> FleetSeries:
    """Read a `year,fleet_mveh` CSV into a validated FleetSeries.

    Each row is checked as it is read: a year that does not fit a 64-bit
    integer, a value that is not positive and finite, a year that does not
    follow the one before, or one more than 2**53 years after the first, is
    reported with its file and line.
    """
    years = []
    fleet = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if [c.strip().lower() for c in header] != list(FLEET_CSV_HEADER):
            raise ParseError(
                f"{path}: line 1: expected header 'year,fleet_mveh', got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if _is_blank(row):
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                year = int(row[0])
                value = float(row[1])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if not _YEAR_RANGE.min <= year <= _YEAR_RANGE.max:
                raise ValidationError(
                    f"{path}: line {lineno}: year {year} does not fit a 64-bit integer"
                )
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(
                    f"{path}: line {lineno}: fleet value {value} must be positive and finite"
                )
            if years and year <= years[-1]:
                raise ValidationError(
                    f"{path}: line {lineno}: year {year} does not follow {years[-1]}; "
                    "years must be strictly increasing"
                )
            # fit_growth takes the years elapsed since the first as floats
            if years and year - years[0] > 2**53:
                raise ValidationError(
                    f"{path}: line {lineno}: year {year} is more than 2**53 years after "
                    f"the first year {years[0]}; elapsed years must be exact as floats"
                )
            years.append(year)
            fleet.append(value)
    if not years:
        raise ParseError(f"{path}: no data rows")
    return FleetSeries(np.array(years), np.array(fleet))


def bundled_uk_fleet_series() -> FleetSeries:
    """The packaged UK car-fleet series (RAC Foundation data, 1971-2016)."""
    ref = resources.files("fleetdyn.data").joinpath("uk_fleet_rac.csv")
    with resources.as_file(ref) as path:
        return load_fleet_csv(path)
