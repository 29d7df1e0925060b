"""Command-line front end.

Grammar: fleetdyn <growth|scenario|fit|sensitivity|infra|batch> [flags]

Exit codes: 0 success, 1 runtime/model failure, 2 usage or validation
failure. Every command is deterministic: the same invocation produces
byte-identical files. Numeric output uses fixed 6-decimal formatting.

COMMANDS declares each subcommand's parameters once; flags, config keys,
defaults and input checks come from it. growth, scenario and sensitivity
also read a flat `key = value` file (`#` comments) given with --config: a
flag wins over the file, the file over the default. The output directory
defaults to ./out, overridable with FLEETDYN_OUT or the --out flag.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import analytics, calibration, infrastructure, scenarios
from .dynamics import (
    RK4_REAL_BOUND,
    FleetState,
    GrowthParams,
    LvmParams,
    growth_closed_form,
    growth_system,
    integrate,
)
from .errors import ModelError, ParseError, ValidationError

REQUIRED = "required"


class Param(NamedTuple):
    """Flag `--name` and config key `name`; default is a value, REQUIRED or None (unset)."""

    name: str
    help: str
    type: Callable = float
    default: object = None
    choices: tuple | None = None


class Command(NamedTuple):
    run: Callable
    help: str
    params: tuple[Param, ...] = ()
    config: bool = False


def load_config(path) -> dict[str, tuple[int, str]]:
    """Parse a flat `key = value` file into {key: (line number, value)}."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in cfg:
                raise ParseError(f"{path}: line {lineno}: {key} already set on line {cfg[key][0]}")
            cfg[key] = (lineno, value.strip())
    return cfg


def resolve(args, command: Command) -> None:
    """Set each parameter from its flag, else the config file, else its default.

    `args.given` maps each parameter the user set to its flag or config line.
    """
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    names = [p.name for p in command.params]
    for key, (lineno, _) in cfg.items():
        if key not in names:
            raise ParseError(f"{args.config}: line {lineno}: unknown key {key!r}")
    args.given = {}
    for p in command.params:
        value = getattr(args, p.name)
        if value is not None:
            args.given[p.name] = f"--{p.name}"
        elif p.name in cfg:
            lineno, text = cfg[p.name]
            where = args.given[p.name] = f"{args.config}: line {lineno}: {p.name}"
            try:
                value = p.type(text)
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            if p.choices and value not in p.choices:
                raise ParseError(f"{where}: {text!r} is not one of {', '.join(p.choices)}")
        elif p.default is REQUIRED:
            raise ValidationError(f"--{p.name} is required")
        else:
            value = p.default
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{args.given[p.name]} must be finite, got {value}")
        setattr(args, p.name, value)


def _outdir(args) -> Path:
    path = Path(args.out or os.environ.get("FLEETDYN_OUT") or "out")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out {path}: not a usable output directory: {exc}") from exc
    return path


def _target_line(c) -> str:
    return (f"{c.year:.0f},{c.metric},{c.expected:.6f},{c.tolerance:.6f},"
            f"{c.observed:.6f},{'pass' if c.passed else 'fail'}\n")


_TARGET_HEADER = "year,metric,expected,tolerance,observed,pass\n"


def cmd_growth(args) -> int:
    params = GrowthParams(gamma=args.gamma, mu=args.mu)
    initial = FleetState(args.t0, args.n0, 0.0).require_nonnegative()
    if args.dt * params.gamma > RK4_REAL_BOUND:
        largest = math.nextafter(RK4_REAL_BOUND / params.gamma, math.inf)
        while largest * params.gamma > RK4_REAL_BOUND:
            largest = math.nextafter(largest, 0.0)
        raise ValidationError(
            f"{args.given.get('dt', '--dt')} {args.dt} gives dt*gamma = "
            f"{args.dt * params.gamma:.6g}, above {RK4_REAL_BOUND}, the RK4 stability "
            f"bound; the largest --dt that passes is {largest!r}"
        )
    traj = integrate(growth_system(params), initial, args.t1, args.dt)

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


def cmd_scenario(args) -> int:
    if args.name is not None:
        clash = [where for key, where in args.given.items() if key != "name"]
        if clash:
            raise ValidationError(f"{clash[0]} cannot be set with --name, a builtin scenario")
        spec = scenarios.builtin_scenario(args.name)
    else:
        model = {key: getattr(args, key) for key, _, _ in _LVM}
        missing = [k for k, v in model.items() if v is None]
        if missing:
            raise ValidationError(
                "custom scenario needs all model parameters; missing: " + ", ".join(missing)
            )
        spec = scenarios.ScenarioSpec(
            name="custom",
            params=LvmParams(**model),
            initial=FleetState(args.t0, args.x0, args.y0),
            t_end=args.t_end,
            dt=args.dt,
        )
    traj = scenarios.run_scenario(spec)

    outdir = _outdir(args)
    path = outdir / f"{spec.name}.csv"
    scenarios.write_trajectory_csv(traj, path)
    print(f"wrote {path}")

    if args.targets:
        targets = scenarios.builtin_targets(spec.name) if args.name is not None else []
        checks = scenarios.compare_targets(traj, targets)
        report = outdir / f"{spec.name}_targets.csv"
        with open(report, "w", newline="", encoding="utf-8") as fh:
            fh.write(_TARGET_HEADER)
            fh.writelines(map(_target_line, checks))
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
            model = growth_closed_form(fit.params, fit.n0, float(year - data.years[0]))
            err = calibration.pointwise_error(float(value), model)
            fh.write(f"{year},{value:.6f},{model:.6f},{err:.6f}\n")

    print(f"gamma = {fit.params.gamma:.6g} 1/year")
    print(f"mu    = {fit.params.mu:.6f} Mveh/year")
    print(f"n0    = {fit.n0:.6f} Mveh at {fit.anchor_year:.0f}")
    print(f"error = {fit.mean_error:.6f} +- {fit.std_error:.6f} (relative, mean +- std)")
    print(f"termination = {fit.termination}")
    print(f"wrote {path}")
    return 0


def cmd_sensitivity(args) -> int:
    params = LvmParams(**{key: getattr(args, key) for key, _, _ in _LVM})

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
        traj = scenarios.run_scenario(scenarios.builtin_scenario(name))
        path = outdir / f"{name}.csv"
        scenarios.write_trajectory_csv(traj, path)
        print(f"wrote {path}")
        checks = scenarios.compare_targets(traj, scenarios.builtin_targets(name))
        all_checks += [(name, c) for c in checks]
    report = outdir / "batch_targets.csv"
    with open(report, "w", newline="", encoding="utf-8") as fh:
        fh.write("scenario," + _TARGET_HEADER)
        fh.writelines(f"{name},{_target_line(c)}" for name, c in all_checks)
    print(f"wrote {report}")
    return 0


# The competition model's parameters: name, help, and the value of the
# published gradient study that `sensitivity` defaults to.
_LVM = (
    ("gamma_c", "conventional-fleet rate, 1/year", 0.01),
    ("gamma_h", "hydrogen-fleet rate, 1/year", 0.01),
    ("a", "competition coefficient a, 1/(year*Mveh)", 0.01),
    ("epsilon", "competition coefficient epsilon, 1/(year*Mveh)", 0.01),
    ("mu_c", "conventional resource inflow, Mveh/year", 0.65),
    ("mu_h", "hydrogen resource inflow, Mveh/year", 0.65),
)

COMMANDS = {
    "growth": Command(cmd_growth, "simulate the first-order growth model", (
        Param("gamma", "growth rate, 1/year", default=REQUIRED),
        Param("mu", "resource inflow, Mveh/year", default=REQUIRED),
        Param("n0", "initial fleet, Mveh", default=REQUIRED),
        Param("t0", "start year", default=REQUIRED),
        Param("t1", "end year", default=REQUIRED),
        Param("dt", "integration step, years", default=0.1),
    ), config=True),
    "scenario": Command(cmd_scenario, "run a named or custom transition scenario", (
        Param("name", "builtin scenario, set alone; without it all six model parameters "
              "are required", str, choices=scenarios.BUILTIN_SCENARIO_NAMES),
        *(Param(key, text) for key, text, _ in _LVM),
        Param("x0", "initial conventional fleet, Mveh", default=scenarios.START_CONVENTIONAL),
        Param("y0", "initial hydrogen fleet, Mveh", default=scenarios.START_HYDROGEN),
        Param("t0", "start year", default=scenarios.START_YEAR),
        Param("t_end", "end year", default=scenarios.END_YEAR),
        Param("dt", "integration step, years", default=scenarios.DEFAULT_DT),
    ), config=True),
    "fit": Command(cmd_fit, "fit the growth model to a fleet CSV", (
        Param("data", "CSV file with header year,fleet_mveh", str, REQUIRED),
    )),
    "sensitivity": Command(cmd_sensitivity, "equilibrium and parameter gradients", tuple(
        Param(key, text, default=default) for key, text, default in _LVM
    ), config=True),
    "infra": Command(cmd_infra, "refuelling-station deployment plan", (
        Param("id", "deployment scenario S1..S4", str, REQUIRED),
        Param("uptake", "Mveh/year absorbed", default=0.35),
        Param("horizon", "build horizon in years", int, 30),
        Param("basis", "station support model; 'annual' is a sensitivity variant", str,
              "daily", ("daily", "annual")),
        Param("utilization", "station utilization factor", default=1.0),
    )),
    "batch": Command(cmd_batch, "run all builtin scenarios with target checks"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetdyn",
        description="Fleet-growth and competition forecasting with infrastructure planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for p in command.params:
            note = "required" if p.default is REQUIRED else f"default {p.default}"
            sp.add_argument(f"--{p.name}", type=p.type, choices=p.choices,
                            help=p.help if p.default is None else f"{p.help} ({note})")
        # --targets, --out and --config pick outputs and inputs; they are not parameters.
        if name == "scenario":
            sp.add_argument("--targets", action="store_true", help="append a target-check report")
        sp.add_argument("--out", help="output directory (default ./out or $FLEETDYN_OUT)")
        if command.config:
            sp.add_argument("--config", help="key = value configuration file; flags override")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    command = COMMANDS[args.command]
    try:
        resolve(args, command)
        return command.run(args)
    except (ValidationError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
