"""Historical-data ingestion and growth-model calibration.

The fit minimises the sum of squared residuals (SSR) between the
growth-model closed form and the data over (gamma, mu, n0) by variable
projection: at a fixed gamma the model is linear in (n0, mu), so the fit
is a 1-D search over gamma of the profile SSR (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 1973; O'Leary & Rust, Comput. Optim. Appl. 54, 2013). It
is deterministic, with a fixed rate grid and fixed tolerances, and
reports whether it ended inside the domain or at the gamma -> 0 boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from numbers import Integral

import numpy as np

from .dynamics import _FMAX, GrowthParams
from .errors import FitError, ParseError, ValidationError

__all__ = [
    "FleetSeries",
    "FitResult",
    "pointwise_error",
    "fit_growth",
    "load_fleet_csv",
    "bundled_uk_fleet_series",
]

FLEET_CSV_HEADER = ("year", "fleet_mveh")
# A year must fit a signed 64-bit integer, well inside the float range, so that
# fit_growth's FitResult.anchor_year = float(years[0]) cannot overflow.
_YEAR_MIN, _YEAR_MAX = -2**63, 2**63 - 1

# Scaled rates gamma * span the profile SSR is scanned on: the gamma -> 0
# edge, then 25 log-spaced points from 1e-4 to 1e2 (10**(k/4), k = -16..8).
_EDGE = 1e-12
_RATES = np.concatenate(([_EDGE], 10.0 ** (np.arange(-16, 9) / 4.0)))
_LOG_RATES = np.log(_RATES)
_MAX_STEPS = 50
# Relative SSR change of a Newton step that ends the search.
_REL_TOL = 1e-10
# Residual norm below this fraction of the data norm counts as an exact fit.
_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class FleetSeries:
    """Historical fleet sizes: tuples of strictly increasing integer years,
    spanning at most 2**53 years, and of positive finite fleet values in Mveh."""

    years: tuple[int, ...]
    fleet: tuple[float, ...]

    def __post_init__(self):
        try:
            years = tuple(int(y) if isinstance(y, (int, Integral)) else float(y)
                          for y in self.years)
            fleet = tuple(map(float, self.fleet))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"years and fleet must be sequences of numbers: {exc}") from exc
        except OverflowError as exc:  # an int beyond the float range
            raise ValidationError(f"years and fleet must be finite numbers: {exc}") from exc
        if not 0 < len(years) == len(fleet):
            raise ValidationError("years and fleet must be non-empty and of equal length, "
                                  f"got {len(years)} and {len(fleet)}")
        for i, (year, value) in enumerate(zip(years, fleet)):
            defect = _row_defect(year, value, years[i - 1] if i else None, years[0])
            if defect:
                raise ValidationError(f"row {i}: {defect}")
        object.__setattr__(self, "years", tuple(map(int, years)))
        object.__setattr__(self, "fleet", fleet)

    @classmethod
    def _checked(cls, years, fleet) -> "FleetSeries":
        """The series of int years and float values known to pass _row_defect."""
        series = object.__new__(cls)
        series.__dict__.update(years=tuple(years), fleet=tuple(fleet))
        return series

    def __len__(self) -> int:
        return len(self.years)


def _row_defect(year, value, previous, first) -> str | None:
    """The first series rule a row breaks, or None. previous is the year of the
    row before, None for the first row; the rows before have passed."""
    if not (year % 1 == 0 and _YEAR_MIN <= year <= _YEAR_MAX):
        return f"year {year} does not fit a 64-bit integer"
    if not (value > 0 and math.isfinite(value)):
        return f"fleet value {value} must be positive and finite"
    if previous is None:
        return None
    year, previous, first = int(year), int(previous), int(first)
    if year <= previous:
        return f"year {year} does not follow {previous}; years must be strictly increasing"
    # fit_growth takes the years elapsed since the first as floats
    if year - first > 2**53:
        return (f"year {year} is more than 2**53 years after the first year {first}; "
                "elapsed years must be exact as floats")
    return None


@dataclass(frozen=True)
class FitResult:
    """Fitted growth parameters with the residual statistics of the fit.

    n0 is the fitted fleet size at anchor_year (the earliest data year);
    mean_error/std_error are the mean and population standard deviation of
    the point-wise relative errors |data - model| / data at the data years.
    n_iterations counts the Newton steps after the grid scan. termination
    is "interior" for an optimum at a positive rate and "boundary" for the
    gamma -> 0 limit, reported as the least-squares line at the vanishing
    rate gamma = 1e-12 / span; the best point a FitError carries says "not
    converged".
    """

    params: GrowthParams
    n0: float
    anchor_year: float
    mean_error: float
    std_error: float
    n_iterations: int
    ssr: float
    termination: str


def pointwise_error(x_data: float, x_model: float) -> float:
    """Relative point-wise error |(x_data - x_model) / x_data|."""
    if x_data == 0:
        raise ValidationError("point-wise error is undefined for a zero data value")
    return abs((x_data - x_model) / x_data)


def _mean_std(errs) -> tuple[float, float]:
    """ndarray.mean and .std of a 1-d array by their own arithmetic, without their
    Python wrappers: sum / n, then sqrt(sum(dev * dev) / n) with dev = errs - mean."""
    mean = np.add.reduce(errs, 0) / len(errs)
    dev = errs - mean
    return float(mean), math.sqrt(_dot(dev, dev) / len(errs))


def _project(s, tau, f):
    """Variable projection of the fit at scaled rates s = gamma * span.

    Either s is one rate and tau the 1-d elapsed times over the span, or s
    is a 1-d array of k rates and tau a column, and every result has one
    entry per rate. At each rate the model n0 e + mu phi, with e =
    exp(-s tau) and phi = -expm1(-s tau) / s, is linear in (n0, mu): its
    least-squares (n0, mu) come from a two-column QR (phi orthogonalised
    against e, so no determinant cancels), fitting e alone where the free
    mu would be negative, so mu >= 0. Returns the profile SSR, n0, mu (per
    unit tau), the residuals, the gradient of the SSR in log s by the
    envelope formula -2 r . dmodel/dlog s, and Kaufman's projected
    Gauss-Newton curvature 2 |P dmodel/dlog s|^2, P projecting out the
    columns in use.
    """
    ms_tau = -s * tau
    e = np.exp(ms_tau)
    phi = np.expm1(ms_tau) / -s
    ee = _dot(e, e)
    c = _dot(e, phi) / ee
    w = phi - c * e
    ww = _dot(w, w)
    mu = np.maximum(_dot(w, f), 0.0) / ww
    n0 = _dot(e, f) / ee - mu * c
    mu_phi = mu * phi
    r = f - n0 * e - mu_phi
    # d(model)/d(log s); s dphi/ds = tau e - phi, which cancels only where
    # s tau is far below the scan grid.
    d = (n0 * ms_tau + mu * tau) * e - mu_phi
    pd = d - _dot(e, d) / ee * e
    pd = pd - _dot(w, pd) / ww * (mu > 0) * w
    return _dot(r, r), n0, mu, r, -2.0 * _dot(r, d), 2.0 * _dot(pd, pd)


def _dot(a, b):
    """Dot products over the data points, the first axis, by ndarray.sum's reduce."""
    return np.add.reduce(a * b, 0)


def fit_growth(data: FleetSeries) -> FitResult:
    """Least-squares fit of (gamma, mu, n0) to a fleet series, by variable projection.

    Scan: the profile SSR (the SSR of the best n0 and mu >= 0 at a fixed
    gamma) is evaluated in one vectorised pass at gamma * span = 1e-12, the
    gamma -> 0 edge, and at 25 log-spaced points from 1e-4 to 1e2.

    Refine: from the grid argmin, a Newton iteration in log gamma, with the
    envelope gradient and Kaufman's Gauss-Newton curvature, stays inside
    the bracket of the argmin's grid neighbours and bisects it in log gamma
    where a step would leave it. A Newton step that changes the SSR by less
    than 1e-10 of it, or the residual norm by less than 1e-12 of the data
    norm, ends the search, as does a residual norm below 1e-12 of the data
    norm (an exact fit). n_iterations counts the Newton steps; after 50 the
    fit raises FitError.

    Edges: the argmin at gamma -> 0 ends the fit with termination
    "boundary" (the least-squares line, or the mean where the data fall,
    at gamma = 1e-12 / span) unless the profile falls from the line there;
    then the search runs up from the line, since an optimum can sit below
    the first grid rate. An argmin at the top of the grid, where the rate
    runs to infinity as on a step to a plateau, raises FitError carrying
    that point as `best`. Every other fit ends "interior".
    """
    if len(data) < 3:
        raise ValidationError("fit needs at least 3 data points")

    t = np.array([year - data.years[0] for year in data.years], dtype=float)
    span = float(t[-1])
    tau = t / span
    # The fit is equivariant in the scale of the data: dividing them by a
    # power of two near their largest value is exact and keeps squares in range.
    scale = math.ldexp(1.0, math.frexp(max(data.fleet))[1])
    f = np.array(data.fleet) / scale
    ff = float(f @ f)
    floor = _NORM_FLOOR**2 * ff

    def result(rate, ssr, n0, mu, r, steps, termination):
        mean_err, std_err = _mean_std(np.abs(r / f))
        return FitResult(
            params=GrowthParams(gamma=float(rate) / span, mu=float(mu) * scale / span),
            n0=float(n0) * scale,
            anchor_year=float(data.years[0]),
            mean_error=mean_err,
            std_error=std_err,
            n_iterations=steps,
            ssr=float(ssr) * scale * scale,
            termination=termination,
        )

    ssr, n0, mu, r, grad, curv = _project(_RATES, tau[:, None], f[:, None])
    # exact fits tie at the floor, and the lowest rate among them wins
    k = int(np.argmin(np.maximum(ssr, floor)))
    point = _RATES[k], ssr[k], n0[k], mu[k], r[:, k]
    g, h = grad[k], curv[k]
    if k == 0:
        # d SSR/ds at the line, in closed form since tau e - phi cancels
        # there; r is orthogonal to 1 and, if mu > 0, to tau
        slope = r[:, 0] @ (tau * (2.0 * n0[0] + mu[0] * tau))
        if slope >= 0 or ssr[0] <= floor:
            return result(*point, 0, "boundary")
        g = _EDGE * slope
    elif k == len(_RATES) - 1:
        raise FitError(
            f"fit did not converge: the rate runs to the top of the search grid, "
            f"gamma * span = {_RATES[k]:g}",
            best=result(*point, 0, "not converged"),
        )
    lo, hi = _LOG_RATES[max(k - 1, 0)], _LOG_RATES[k + 1]

    steps = 0
    while point[1] > floor:
        if steps == _MAX_STEPS:
            raise FitError(f"fit did not converge within {_MAX_STEPS} Newton steps",
                           best=result(*point, steps, "not converged"))
        steps += 1
        u, cur = math.log(point[0]), point[1]
        cand = u - g / h if h > 0 else math.inf
        newton = lo < cand < hi
        if not newton:
            cand = 0.5 * (u + (lo if g > 0 else hi))
        rate = math.exp(cand)
        c_ssr, c_n0, c_mu, c_r, c_g, c_h = _project(rate, tau, f)
        # keep the lower point inside the bracket, the other as its edge
        if c_ssr < cur:
            point, g, h = (rate, c_ssr, c_n0, c_mu, c_r), c_g, c_h
            lo, hi = (u, hi) if cand > u else (lo, u)
        else:
            lo, hi = (lo, cand) if cand > u else (cand, hi)
        # A Newton step that moves the SSR by under _REL_TOL of it, or the
        # residual norm by under _NORM_FLOOR of the data norm (rounding
        # alone moves a small SSR by more than _REL_TOL of it), ends it.
        if newton and abs(cur - c_ssr) <= _REL_TOL * cur + 2.0 * _NORM_FLOOR * math.sqrt(cur * ff):
            break
    return result(*point, steps, "boundary" if point[0] == _EDGE else "interior")


def load_fleet_csv(path) -> FleetSeries:
    """Read a `year,fleet_mveh` CSV into a validated FleetSeries.

    Each row is checked against the FleetSeries rules as it is read, and the
    first row that breaks one is reported with its file and line. A row
    passes on one chained test, lo < year <= hi and 0 < value <= max float,
    lo the previous year and hi the int64 maximum or 2**53 years after the
    first; _row_defect runs only on a failing row, to name the rule it breaks.
    """
    years = []
    fleet = []
    lo, hi = _YEAR_MIN - 1, _YEAR_MAX
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
            if len(row) != 2:
                if not row or len(row) == 1 and not row[0].strip():
                    continue  # a blank line
                raise ParseError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                year = int(row[0])
                value = float(row[1])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if not (lo < year <= hi and 0 < value <= _FMAX):
                defect = _row_defect(year, value, *(years[-1], years[0]) if years else (None, year))
                raise ValidationError(f"{path}: line {lineno}: {defect}")
            if not years:
                hi = min(year + 2**53, _YEAR_MAX)
            lo = year
            years.append(year)
            fleet.append(value)
    if not years:
        raise ParseError(f"{path}: no data rows")
    return FleetSeries._checked(years, fleet)


def bundled_uk_fleet_series() -> FleetSeries:
    """The packaged UK car-fleet series (RAC Foundation data, 1971-2016)."""
    ref = resources.files("fleetdyn.data").joinpath("uk_fleet_rac.csv")
    with resources.as_file(ref) as path:
        return load_fleet_csv(path)
