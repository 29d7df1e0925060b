"""Command-line front end.

Grammar: fleetdyn <growth|scenario|fit|sensitivity|infra|batch> [flags]

Exit codes: 0 success, 1 runtime/model failure, 2 usage or validation
failure. Every command is deterministic: the same invocation produces
byte-identical files. Numeric output uses fixed 6-decimal formatting.

The growth, scenario and sensitivity flags can also be supplied through a
flat key-value configuration file (`key = value`, `#` comments) passed
with --config; explicit flags win.
The output directory defaults to ./out, overridable with the FLEETDYN_OUT
environment variable or the --out flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import analytics, calibration, infrastructure, scenarios
from .dynamics import (
    FleetState,
    GrowthParams,
    LvmParams,
    growth_closed_form,
    growth_system,
    integrate,
)
from .errors import ModelError, ParseError, ValidationError

_GRAD_DEFAULTS = {
    "mu_h": 0.65,
    "mu_c": 0.65,
    "epsilon": 0.01,
    "a": 0.01,
    "gamma_h": 0.01,
    "gamma_c": 0.01,
}

_SCENARIO_PARAM_KEYS = ("gamma_c", "gamma_h", "a", "epsilon", "mu_c", "mu_h")
_SCENARIO_FRAME_KEYS = {
    "x0": scenarios.START_CONVENTIONAL,
    "y0": scenarios.START_HYDROGEN,
    "t0": scenarios.START_YEAR,
    "t_end": scenarios.END_YEAR,
    "dt": scenarios.DEFAULT_DT,
}


def load_config(path) -> dict[str, str]:
    """Parse a flat `key = value` file; keys mirror flag names."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _merge_config(args, keys: dict[str, type]) -> None:
    """Fill unset flags from the config file; flags override file values."""
    if args.config is None:
        return
    cfg = load_config(args.config)
    for key, typ in keys.items():
        if getattr(args, key, None) is None and key in cfg:
            try:
                setattr(args, key, typ(cfg[key]))
            except ValueError as exc:
                raise ParseError(f"{args.config}: key {key}: {exc}") from exc


def _outdir(args) -> Path:
    path = Path(args.out or os.environ.get("FLEETDYN_OUT") or "out")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out {path}: not a usable output directory: {exc}") from exc
    return path


def cmd_growth(args) -> int:
    _merge_config(
        args, {"gamma": float, "mu": float, "n0": float, "t0": float, "t1": float, "dt": float}
    )
    for key in ("gamma", "mu", "n0", "t0", "t1"):
        if getattr(args, key) is None:
            raise ValidationError(f"--{key} is required (flag or config)")
    dt = args.dt if args.dt is not None else 0.1

    params = GrowthParams(gamma=args.gamma, mu=args.mu)
    initial = FleetState(args.t0, args.n0, 0.0).require_nonnegative()
    traj = integrate(growth_system(params), initial, args.t1, dt)

    years, fleet, _ = scenarios.sample_yearly(traj)
    outdir = _outdir(args)
    path = outdir / "growth.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("year,fleet_mveh\n")
        for year, x in zip(years.tolist(), fleet.tolist()):
            fh.write(f"{year:.0f},{x:.6f}\n")
    print(f"wrote {path}")
    print(f"fleet at {traj.t[-1]:.1f}: {traj.final.x:.6f} Mveh")
    return 0


def _scenario_spec_from_args(args) -> scenarios.ScenarioSpec:
    given = [k for k in _SCENARIO_PARAM_KEYS if getattr(args, k) is not None]
    if args.name is not None:
        if given:
            raise ValidationError(
                "--name selects a builtin scenario; model parameters cannot also be set"
            )
        return scenarios.builtin_scenario(args.name)
    missing = [k for k in _SCENARIO_PARAM_KEYS if getattr(args, k) is None]
    if missing:
        raise ValidationError(
            "custom scenario needs all model parameters; missing: " + ", ".join(missing)
        )
    frame = {k: getattr(args, k) if getattr(args, k) is not None else default
             for k, default in _SCENARIO_FRAME_KEYS.items()}
    params = LvmParams(**{k: getattr(args, k) for k in _SCENARIO_PARAM_KEYS})
    return scenarios.ScenarioSpec(
        name="custom",
        params=params,
        initial=FleetState(frame["t0"], frame["x0"], frame["y0"]),
        t_end=frame["t_end"],
        dt=frame["dt"],
    )


def _write_target_report(path, checks) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("year,metric,expected,tolerance,observed,pass\n")
        for c in checks:
            fh.write(
                f"{c.year:.0f},{c.metric},{c.expected:.6f},"
                f"{c.tolerance:.6f},{c.observed:.6f},{'pass' if c.passed else 'fail'}\n"
            )


def cmd_scenario(args) -> int:
    keys: dict[str, type] = {"name": str}
    keys.update({k: float for k in _SCENARIO_PARAM_KEYS})
    keys.update({k: float for k in _SCENARIO_FRAME_KEYS})
    _merge_config(args, keys)

    spec = _scenario_spec_from_args(args)
    traj = scenarios.run_scenario(spec)

    outdir = _outdir(args)
    path = outdir / f"{spec.name}.csv"
    scenarios.write_trajectory_csv(traj, path)
    print(f"wrote {path}")

    if args.targets:
        checks = scenarios.compare_targets(traj, scenarios.builtin_targets(spec.name)
                                           if spec.name in scenarios.BUILTIN_SCENARIO_NAMES
                                           else [])
        report = outdir / f"{spec.name}_targets.csv"
        _write_target_report(report, checks)
        print(f"wrote {report}")
        for c in checks:
            print(
                f"{spec.name} {c.metric} {c.year:.0f}: observed {c.observed:.4f} "
                f"vs expected {c.expected:.2f} +- {c.tolerance:.2f} -> "
                f"{'pass' if c.passed else 'fail'}"
            )
    return 0


def cmd_fit(args) -> int:
    data = calibration.load_fleet_csv(args.data)
    fit = calibration.fit_growth(data)

    outdir = _outdir(args)
    path = outdir / "fit.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("year,data_mveh,model_mveh,error\n")
        for year, value in zip(data.years, data.fleet):
            model = growth_closed_form(fit.params, fit.n0, float(year) - fit.anchor_year)
            err = calibration.pointwise_error(float(value), model)
            fh.write(f"{year},{value:.6f},{model:.6f},{err:.6f}\n")

    print(f"gamma = {fit.params.gamma:.6g} 1/year")
    print(f"mu    = {fit.params.mu:.6f} Mveh/year")
    print(f"n0    = {fit.n0:.6f} Mveh at {fit.anchor_year:.0f}")
    print(f"error = {fit.mean_error:.6f} +- {fit.std_error:.6f} (relative, mean +- std)")
    print(f"wrote {path}")
    return 0


def cmd_sensitivity(args) -> int:
    _merge_config(args, {k: float for k in _GRAD_DEFAULTS})
    values = {
        k: getattr(args, k) if getattr(args, k) is not None else default
        for k, default in _GRAD_DEFAULTS.items()
    }
    params = LvmParams(**values)

    equilibrium = analytics.asymptotic_state(params)
    stability = analytics.classify_stability(params)
    grad_h = analytics.sensitivity_hydrogen(params)
    grad_c = analytics.sensitivity_conventional(params)

    outdir = _outdir(args)
    path = outdir / "gradients.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("param,grad_hydrogen,grad_conventional,plog_hydrogen,plog_conventional\n")
        for name in analytics.PARAM_NAMES:
            gh = grad_h[name]
            gc = grad_c[name]
            fh.write(
                f"{name},{gh:.6e},{gc:.6e},"
                f"{analytics.pseudo_log(gh):.6f},{analytics.pseudo_log(gc):.6f}\n"
            )

    print(f"delta     = {equilibrium.delta:.6e}")
    print(f"x_inf     = {equilibrium.x_inf:.6f} Mveh")
    print(f"y_inf     = {equilibrium.y_inf:.6f} Mveh")
    print(f"total     = {equilibrium.total:.6f} Mveh")
    print(f"stability = {stability.value}")
    print(f"wrote {path}")
    return 0


def cmd_infra(args) -> int:
    plan = infrastructure.deployment_plan(
        args.id,
        uptake=args.uptake,
        horizon_years=args.horizon,
        basis=args.basis,
        utilization=args.utilization,
    )
    outdir = _outdir(args)
    path = outdir / f"infra_{plan.scenario_id}.csv"
    infrastructure.write_plan_csv([plan], path)
    print(infrastructure.plan_report(plan))
    print(f"wrote {path}")
    return 0


def cmd_batch(args) -> int:
    outdir = _outdir(args)
    all_checks = []
    for name in scenarios.BUILTIN_SCENARIO_NAMES:
        spec = scenarios.builtin_scenario(name)
        traj = scenarios.run_scenario(spec)
        path = outdir / f"{name}.csv"
        scenarios.write_trajectory_csv(traj, path)
        print(f"wrote {path}")
        for check in scenarios.compare_targets(traj, scenarios.builtin_targets(name)):
            all_checks.append((name, check))
    report = outdir / "batch_targets.csv"
    with open(report, "w", newline="", encoding="utf-8") as fh:
        fh.write("scenario,year,metric,expected,tolerance,observed,pass\n")
        for name, c in all_checks:
            fh.write(
                f"{name},{c.year:.0f},{c.metric},{c.expected:.6f},"
                f"{c.tolerance:.6f},{c.observed:.6f},{'pass' if c.passed else 'fail'}\n"
            )
    print(f"wrote {report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetdyn",
        description="Fleet-growth and competition forecasting with infrastructure planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False):
        p.add_argument("--out", help="output directory (default ./out or $FLEETDYN_OUT)")
        if config:
            p.add_argument("--config", help="key = value configuration file; flags override")

    p = sub.add_parser("growth", help="simulate the first-order growth model")
    p.add_argument("--gamma", type=float, help="growth rate, 1/year")
    p.add_argument("--mu", type=float, help="resource inflow, Mveh/year")
    p.add_argument("--n0", type=float, help="initial fleet, Mveh")
    p.add_argument("--t0", type=float, help="start year")
    p.add_argument("--t1", type=float, help="end year")
    p.add_argument("--dt", type=float, help="integration step, years (default 0.1)")
    add_common(p, config=True)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("scenario", help="run a named or custom transition scenario")
    p.add_argument("--name", choices=scenarios.BUILTIN_SCENARIO_NAMES, help="builtin scenario")
    for key in _SCENARIO_PARAM_KEYS:
        p.add_argument(f"--{key}", type=float, help=f"custom model parameter {key}")
    for key in _SCENARIO_FRAME_KEYS:
        p.add_argument(f"--{key}", type=float, help=f"custom scenario frame value {key}")
    p.add_argument("--targets", action="store_true", help="append a target-check report")
    add_common(p, config=True)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("fit", help="fit the growth model to a fleet CSV")
    p.add_argument("--data", required=True, help="CSV file with header year,fleet_mveh")
    add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sensitivity", help="equilibrium and parameter gradients")
    for key, default in _GRAD_DEFAULTS.items():
        p.add_argument(f"--{key}", type=float, help=f"model parameter (default {default})")
    add_common(p, config=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("infra", help="refuelling-station deployment plan")
    p.add_argument("--id", required=True, help="deployment scenario S1..S4")
    p.add_argument("--uptake", type=float, default=0.35, help="Mveh/year absorbed (default 0.35)")
    p.add_argument("--horizon", type=int, default=30, help="build horizon in years (default 30)")
    p.add_argument(
        "--basis",
        choices=("daily", "annual"),
        default="daily",
        help="station support model; 'annual' is a sensitivity variant",
    )
    p.add_argument("--utilization", type=float, default=1.0, help="station utilization factor")
    add_common(p)
    p.set_defaults(func=cmd_infra)

    p = sub.add_parser("batch", help="run all builtin scenarios with target checks")
    add_common(p)
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
