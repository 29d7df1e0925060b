"""Independent references and output checks.

Nothing here imports fleetdyn: every reference is computed from the model
equations with `math`, so a check catches a number the package would agree
with itself about. Each check returns a list of problems, empty when the
output is correct. Tolerances leave room for a justified change in the
last digits (another arithmetic order, vectorisation, another rounding of
the 6-decimal output) and sit far below the errors the self-tests inject.
"""

from __future__ import annotations

import bisect
import math
import re

# Final total against the growth closed form. RK4 truncation on the
# sweep grids stays below 1e-9 relative.
TOTAL_RTOL = 1e-7
# Program state against the reference RK4 in this module (same scheme).
STATE_RTOL = 1e-9
# A 6-decimal CSV or stdout value against its reference: half a unit in
# the last place plus margin.
PRINT_ATOL = 6e-7
# Fitted SSR against the reference SSR; the absolute floor covers the
# 6-decimal rounding of the data when the noise is zero.
SSR_RTOL = 1e-3
SSR_ATOL_PER_POINT = 1e-12
# Analytic against finite-difference gradient, relative to the largest
# component of the gradient vector.
GRAD_RTOL = 1e-5
# Fixed-point residual relative to the size of the cancelling terms.
EQ_RTOL = 1e-9
BOUNDARY_GAMMA = 1e-6

TRAJECTORY_HEADER = "time,conv,hydro,total"

# Station capacity (kg/day) and capex, and tank size (kg), of S1-S4.
PLAN_SPECS = {
    "S1": (200.0, 1e6, 5.0),
    "S2": (200.0, 1e6, 1.5),
    "S3": (1000.0, 5e6, 5.0),
    "S4": (1000.0, 5e6, 1.5),
}


# ---------------------------------------------------------------- references


def growth_total(n0: float, gamma: float, mu: float, t: float) -> float:
    """Closed-form growth model n(t) = n0 e^(-gamma t) + (mu/gamma)(1 - e^(-gamma t))."""
    return n0 * math.exp(-gamma * t) + (mu / gamma) * -math.expm1(-gamma * t)


def _rhs(x, y, p):
    gamma_c, gamma_h, a, epsilon, mu_c, mu_h = p
    return x * (-gamma_c - a * y) + mu_c, y * (epsilon * x - gamma_h) + mu_h


def reference_rk4(p, x0: float, y0: float, t0: float, t_end: float, dt: float):
    """Classical RK4 of the source-fed competition model on t0 + i*dt.

    The inputs are chosen so that (t_end - t0) is a whole number of steps.
    Returns the lists (ts, xs, ys).
    """
    n = round((t_end - t0) / dt)
    ts, xs, ys = [t0], [x0], [y0]
    x, y = x0, y0
    for i in range(n):
        k1x, k1y = _rhs(x, y, p)
        k2x, k2y = _rhs(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y, p)
        k3x, k3y = _rhs(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y, p)
        k4x, k4y = _rhs(x + dt * k3x, y + dt * k3y, p)
        x += dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        ts.append(t0 + (i + 1) * dt)
        xs.append(x)
        ys.append(y)
    ts[-1] = t_end
    return ts, xs, ys


def interp(ts, vs, t: float) -> float:
    """Linear interpolation of vs over the increasing grid ts."""
    i = min(max(bisect.bisect_right(ts, t), 1), len(ts) - 1)
    t0, t1 = ts[i - 1], ts[i]
    return vs[i - 1] + (vs[i] - vs[i - 1]) * (t - t0) / (t1 - t0)


def growth_ssr(t, f, gamma: float, mu: float, n0: float) -> float:
    return math.fsum((fi - growth_total(n0, gamma, mu, ti)) ** 2 for ti, fi in zip(t, f))


def line_ssr(t, f) -> float:
    """SSR of the ordinary least-squares line: the gamma -> 0 limit of the model."""
    n = len(t)
    mt, mf = math.fsum(t) / n, math.fsum(f) / n
    sxx = math.fsum((ti - mt) ** 2 for ti in t)
    slope = math.fsum((ti - mt) * (fi - mf) for ti, fi in zip(t, f)) / sxx
    return math.fsum((fi - mf - slope * (ti - mt)) ** 2 for ti, fi in zip(t, f))


def profile_ssr(t, f, gamma: float) -> float:
    """SSR of the best (n0, mu) at a fixed gamma: a 2x2 linear least squares.

    For fixed gamma the model n0 e^(-gamma t) + mu phi(t), with
    phi = -expm1(-gamma t) / gamma, is linear in (n0, mu).
    """
    e = [math.exp(-gamma * ti) for ti in t]
    phi = [-math.expm1(-gamma * ti) / gamma for ti in t]
    a11 = math.fsum(x * x for x in e)
    a12 = math.fsum(x * p for x, p in zip(e, phi))
    a22 = math.fsum(p * p for p in phi)
    b1 = math.fsum(x * fi for x, fi in zip(e, f))
    b2 = math.fsum(p * fi for p, fi in zip(phi, f))
    det = a11 * a22 - a12 * a12
    n0 = (b1 * a22 - b2 * a12) / det
    mu = (a11 * b2 - a12 * b1) / det
    return math.fsum((fi - n0 * x - mu * p) ** 2 for fi, x, p in zip(f, e, phi))


def reference_ssr(years, values, truth) -> float:
    """Lower of the SSR at the generating parameters and of the line fit."""
    t = [y - years[0] for y in years]
    ref = line_ssr(t, values)
    if truth is not None:
        ref = min(ref, growth_ssr(t, values, *truth))
    return ref


def ssr_excess(ssr_fit: float, ssr_ref: float, n: int) -> float:
    """Relative excess of a fitted SSR over the reference (floored like check_fit)."""
    return (ssr_fit - ssr_ref) / (ssr_ref + n * SSR_ATOL_PER_POINT)


def equilibrium(p) -> tuple[float, float]:
    """Positive fixed point, from the quadratic a gh y^2 - B y - mu_h gc = 0.

    Eliminating x = mu_c / (gamma_c + a y) from the fixed-point equations
    gives B = eps mu_c - gc gh + a mu_h; the root is taken in the form that
    does not cancel.
    """
    gamma_c, gamma_h, a, epsilon, mu_c, mu_h = p
    b = epsilon * mu_c - gamma_c * gamma_h + a * mu_h
    root = math.sqrt(b * b + 4.0 * a * gamma_h * mu_h * gamma_c)
    y = (b + root) / (2.0 * a * gamma_h) if b >= 0 else 2.0 * mu_h * gamma_c / (root - b)
    return mu_c / (gamma_c + a * y), y


def equilibrium_gradients(p, h_rel: float = 1e-6) -> tuple[list[float], list[float]]:
    """Central differences of (y_inf, x_inf) in the order mu_h, mu_c, eps, a, gh, gc."""
    order = (5, 4, 3, 2, 1, 0)  # indices into (gc, gh, a, eps, mu_c, mu_h)
    grad_y, grad_x = [], []
    for k in order:
        h = h_rel * abs(p[k])
        plus = list(p)
        minus = list(p)
        plus[k] += h
        minus[k] -= h
        (xp, yp), (xm, ym) = equilibrium(plus), equilibrium(minus)
        grad_y.append((yp - ym) / (2.0 * h))
        grad_x.append((xp - xm) / (2.0 * h))
    return grad_y, grad_x


# -------------------------------------------------------------------- checks


def close(got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def check_trajectory_csv(text: str, ref, first_year: int, last_year: int) -> list[str]:
    """A yearly `time,conv,hydro,total` file against a reference trajectory."""
    lines = text.split("\n")
    if lines[0] != TRAJECTORY_HEADER:
        return [f"csv header {lines[0]!r}"]
    if lines[-1] != "":
        return ["csv does not end with a newline"]
    rows = lines[1:-1]
    if len(rows) != last_year - first_year + 1:
        return [f"csv has {len(rows)} rows, expected {last_year - first_year + 1}"]
    ts, xs, ys = ref
    for year, row in zip(range(first_year, last_year + 1), rows):
        fields = row.split(",")
        try:
            _, x, y, total = map(float, fields)
        except ValueError:
            return [f"csv row for {year} unparsable: {row!r}"]
        if fields[0] != f"{year}.000000":
            return [f"csv row for {year}: {row!r}"]
        if x < 0 or y < 0:
            return [f"csv row for {year} has a negative fleet: {row!r}"]
        xr, yr = interp(ts, xs, year), interp(ts, ys, year)
        if not (close(x, xr, atol=PRINT_ATOL) and close(y, yr, atol=PRINT_ATOL)
                and close(total, xr + yr, atol=PRINT_ATOL)):
            return [f"csv row for {year}: {row!r}, reference {xr:.6f},{yr:.6f}"]
    return []


def check_scenario(draw, final, shares: dict, new_h: float, csv_text: str, ref) -> list[str]:
    """One sweep op: final state, ZEV shares, 2040 uptake and the yearly CSV."""
    problems = []
    t, x, y = final
    if not close(t, draw.t_end, atol=1e-9):
        problems.append(f"final time {t} != {draw.t_end}")
    if not (x >= 0 and y >= 0):
        problems.append(f"negative final fleet ({x}, {y})")
    if draw.published_family:
        want = growth_total(draw.x0 + draw.y0, draw.gamma_c, draw.mu_c + draw.mu_h, draw.horizon)
        if not close(x + y, want, rtol=TOTAL_RTOL):
            problems.append(f"final total {x + y!r} != closed form {want!r}")
    ts, xs, ys = ref
    if not (close(x, xs[-1], rtol=STATE_RTOL) and close(y, ys[-1], rtol=STATE_RTOL)):
        problems.append(f"final state ({x!r}, {y!r}) != reference ({xs[-1]!r}, {ys[-1]!r})")
    for year, share in shares.items():
        xr, yr = interp(ts, xs, year), interp(ts, ys, year)
        if not 0.0 <= share <= 1.0 or not close(share, yr / (xr + yr), atol=STATE_RTOL):
            problems.append(f"zev share {share!r} at {year}, reference {yr / (xr + yr)!r}")
    dt = draw.dt
    want = (interp(ts, ys, 2040 + dt) - interp(ts, ys, 2040 - dt)) / (2.0 * dt)
    if not close(new_h, want, rtol=1e-7, atol=1e-9):
        problems.append(f"new hydrogen vehicles at 2040 {new_h!r} != {want!r}")
    problems += check_trajectory_csv(csv_text, ref, int(draw.t0), int(draw.t_end))
    return problems


def check_fit(ssr_fit: float, ssr_ref: float, n: int) -> list[str]:
    if ssr_fit <= ssr_ref * (1.0 + SSR_RTOL) + n * SSR_ATOL_PER_POINT:
        return []
    return [f"fitted SSR {ssr_fit!r} above reference {ssr_ref!r} (excess "
            f"{ssr_excess(ssr_fit, ssr_ref, n):.3e})"]


def boundary_shortfall(ssr_fit: float, ssr_ref: float, n: int) -> bool:
    """A fit ending at gamma -> 0 whose SSR is above the line optimum by more than SSR_RTOL.

    This is the known early stop of the damped Gauss-Newton fit at the
    boundary: gamma reaches ~1e-10 while (n0, mu) are not yet the
    least-squares line. The benchmark measures it (see check_boundary_fit)
    instead of failing the op on it.
    """
    return bool(check_fit(ssr_fit, ssr_ref, n))


def check_boundary_fit(t, f, gamma: float, mu: float, n0: float) -> list[str]:
    """A fit that ended at gamma < BOUNDARY_GAMMA ended at the right kind of optimum.

    The gamma -> 0 limit of the model is the least-squares line, so ending
    there is right only when no interior gamma fits better: the profile SSR
    on a log grid of gamma from 1e-4 to 100 relaxations over the span must
    not undercut the line's SSR by more than SSR_RTOL. The parameters must
    be finite and in the model's domain.
    """
    if not (math.isfinite(mu) and math.isfinite(n0) and 0.0 < gamma and mu >= 0.0):
        return [f"boundary fit parameters gamma={gamma!r}, mu={mu!r}, n0={n0!r}"]
    line = line_ssr(t, f)
    floor = line * (1.0 - SSR_RTOL) - len(t) * SSR_ATOL_PER_POINT
    span = t[-1] - t[0]
    for k in range(-16, 9):
        g = 10.0 ** (k / 4.0) / span
        ssr = profile_ssr(t, f, g)
        if ssr < floor:
            return [f"fit ended at gamma -> 0, but gamma = {g:.3e} gives SSR {ssr!r} "
                    f"below the line's {line!r}"]
    return []


def gradient_gap(analytic, finite) -> float:
    """Largest |analytic - fd| relative to the largest analytic component."""
    scale = max(abs(g) for g in analytic)
    return max(abs(a - f) for a, f in zip(analytic, finite)) / scale


def check_gradients(analytic, finite) -> list[str]:
    gap = gradient_gap(analytic, finite)
    return [] if gap <= GRAD_RTOL else [f"analytic and FD gradients differ by {gap:.3e}"]


def check_equilibrium(p, x: float, y: float) -> list[str]:
    """The reported asymptotes solve both fixed-point equations."""
    gamma_c, gamma_h, a, epsilon, mu_c, mu_h = p
    res_x = mu_c - x * (gamma_c + a * y)
    res_y = mu_h + y * (epsilon * x - gamma_h)
    if (x > 0 and y > 0
            and abs(res_x) <= EQ_RTOL * (mu_c + x * (gamma_c + a * y))
            and abs(res_y) <= EQ_RTOL * (mu_h + y * (epsilon * x + gamma_h))):
        return []
    return [f"equilibrium ({x!r}, {y!r}) leaves residuals ({res_x:.3e}, {res_y:.3e})"]


def planned_stations(sid: str, uptake: float) -> int:
    """Ceiling of uptake over vehicles per station, float noise rounded away."""
    cap_day, _, tank = PLAN_SPECS[sid]
    return math.ceil(round(uptake * 1e6 * tank / cap_day, 6))


def check_plan(sid: str, uptake: float, horizon: int, per_year: int, total: int,
               total_capex: float) -> list[str]:
    want = planned_stations(sid, uptake)
    if per_year != want:
        return [f"{sid}: {per_year} stations per year, expected {want}"]
    if total != per_year * horizon or not close(total_capex, total * PLAN_SPECS[sid][1],
                                                rtol=1e-12):
        return [f"{sid}: total {total} or capex {total_capex!r} inconsistent"]
    return []


# ----------------------------------------------------------------------- cli

# Flags and defaults the cli workload relies on.
GROWTH_RUN = (0.38, 0.01, 0.65, 1960, 2100)  # n0, gamma, mu, t0, t1
SENSITIVITY_DEFAULTS = (0.01, 0.01, 0.01, 0.01, 0.65, 0.65)  # gc, gh, a, eps, mu_c, mu_h
GRADIENT_ORDER = ("mu_h", "mu_c", "epsilon", "a", "gamma_h", "gamma_c")
TARGET_YEAR = 2050
INFRA_RUN = ("S2", 0.35, 30)  # the infra command's scenario and default uptake, horizon


def cli_references(builtins, uk_years, uk_values) -> dict:
    return {
        "builtin": {d.builtin: reference_rk4(d.params, d.x0, d.y0, d.t0, d.t_end, d.dt)
                    for d in builtins},
        "uk": (uk_years, uk_values, reference_ssr(uk_years, uk_values, None)),
        "equilibrium": equilibrium(SENSITIVITY_DEFAULTS),
        "gradients": equilibrium_gradients(SENSITIVITY_DEFAULTS),
    }


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"expected header {header!r} and a final newline")
    return [line.split(",") for line in lines[1:-1]]


def _stdout_value(stdout: str, pattern: str) -> float:
    match = re.search(pattern, stdout)
    if match is None:
        raise ValueError(f"no {pattern!r} in stdout")
    return float(match.group(1))


def _share(refs, name: str) -> float:
    ts, xs, ys = refs["builtin"][name]
    x, y = interp(ts, xs, TARGET_YEAR), interp(ts, ys, TARGET_YEAR)
    return y / (x + y)


def _files_are(files, names) -> list[str]:
    return [] if sorted(files) == sorted(names) else [f"output files {sorted(files)}"]


def _cli_import(stdout, files, refs):
    return [] if stdout == "" and not files else ["import printed output or wrote files"]


def _cli_batch(stdout, files, refs):
    names = list(refs["builtin"])
    problems = _files_are(files, [f"{n}.csv" for n in names] + ["batch_targets.csv"])
    if problems:
        return problems
    for name in names:
        problems += check_trajectory_csv(files[f"{name}.csv"], refs["builtin"][name],
                                         2020, 2100)
    rows = _rows(files["batch_targets.csv"],
                 "scenario,year,metric,expected,tolerance,observed,pass")
    if "moderate" not in [r[0] for r in rows]:
        problems.append("batch targets lack the moderate scenario")
    for row in rows:
        if not close(float(row[5]), _share(refs, row[0]), atol=PRINT_ATOL):
            problems.append(f"batch target {row}: reference share {_share(refs, row[0]):.6f}")
    return problems


def _cli_scenario(stdout, files, refs):
    problems = _files_are(files, ["moderate.csv", "moderate_targets.csv"])
    if problems:
        return problems
    problems = check_trajectory_csv(files["moderate.csv"], refs["builtin"]["moderate"],
                                    2020, 2100)
    share = _share(refs, "moderate")
    row = _rows(files["moderate_targets.csv"],
                "year,metric,expected,tolerance,observed,pass")[0]
    printed = _stdout_value(stdout, r"observed ([0-9.]+)")
    if not (close(float(row[4]), share, atol=PRINT_ATOL) and close(printed, share, atol=6e-5)):
        problems.append(f"moderate 2050 share {row[4]} / {printed}, reference {share:.6f}")
    return problems


def _cli_growth(stdout, files, refs):
    problems = _files_are(files, ["growth.csv"])
    if problems:
        return problems
    n0, gamma, mu, t0, t1 = GROWTH_RUN
    rows = _rows(files["growth.csv"], "year,fleet_mveh")
    if [int(r[0]) for r in rows] != list(range(t0, t1 + 1)):
        return ["growth.csv years"]
    for year, value in rows:
        want = growth_total(n0, gamma, mu, int(year) - t0)
        if not close(float(value), want, atol=PRINT_ATOL):
            return [f"growth {year}: {value}, closed form {want:.6f}"]
    final = _stdout_value(stdout, r"fleet at [0-9.]+: ([0-9.]+) Mveh")
    if not close(final, growth_total(n0, gamma, mu, t1 - t0), atol=PRINT_ATOL):
        problems.append(f"growth final fleet {final}")
    return problems


def _cli_fit(stdout, files, refs):
    problems = _files_are(files, ["fit.csv"])
    if problems:
        return problems
    years, values, ssr_ref = refs["uk"]
    rows = _rows(files["fit.csv"], "year,data_mveh,model_mveh,error")
    if [(int(r[0]), float(r[1])) for r in rows] != list(zip(years, values)):
        return ["fit.csv data columns differ from the input series"]
    ssr = math.fsum((float(r[1]) - float(r[2])) ** 2 for r in rows)
    if not _stdout_value(stdout, r"gamma = (\S+) ") > 0:
        problems.append("fit gamma not positive")
    return problems + check_fit(ssr, ssr_ref, len(rows))


def _cli_sensitivity(stdout, files, refs):
    problems = _files_are(files, ["gradients.csv"])
    if problems:
        return problems
    x, y = refs["equilibrium"]
    for key, want in (("x_inf", x), ("y_inf", y), ("total", x + y)):
        got = _stdout_value(stdout, key + r"\s+= ([0-9.]+) Mveh")
        if not close(got, want, atol=PRINT_ATOL):
            problems.append(f"sensitivity {key} {got}, reference {want:.6f}")
    rows = _rows(files["gradients.csv"],
                 "param,grad_hydrogen,grad_conventional,plog_hydrogen,plog_conventional")
    if tuple(r[0] for r in rows) != GRADIENT_ORDER:
        return problems + ["gradients.csv parameter order"]
    grad_y, grad_x = refs["gradients"]
    for column, ref in ((1, grad_y), (2, grad_x)):
        problems += check_gradients([float(r[column]) for r in rows], ref)
    return problems


def _cli_infra(stdout, files, refs):
    sid, uptake, horizon = INFRA_RUN
    problems = _files_are(files, [f"infra_{sid}.csv"])
    if problems:
        return problems
    rows = _rows(files[f"infra_{sid}.csv"], "scenario,vps,stations_per_year,total_stations,"
                 "annual_capex_gbp,total_capex_gbp")
    name, vps, per_year, total, _, total_capex = rows[0]
    cap_day, _, tank = PLAN_SPECS[sid]
    if len(rows) != 1 or name != sid or int(vps) != math.floor(cap_day / tank):
        problems.append(f"infra row {rows}")
    problems += check_plan(sid, uptake, horizon, int(per_year), int(total), float(total_capex))
    if f"stations per year     {per_year} " not in stdout:
        problems.append("infra stdout lacks the stations-per-year line")
    return problems


_CLI_CHECKS = {
    "import": _cli_import,
    "batch": _cli_batch,
    "scenario": _cli_scenario,
    "growth": _cli_growth,
    "fit": _cli_fit,
    "sensitivity": _cli_sensitivity,
    "infra": _cli_infra,
}


def check_cli(cmd: str, stdout: str, files: dict, refs: dict) -> list[str]:
    """One CLI run: its stdout and output files (name -> bytes) against references."""
    try:
        text = {name: data.decode("utf-8") for name, data in files.items()}
        return _CLI_CHECKS[cmd](stdout, text, refs)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{cmd}: unparsable output: {exc!r}"]
