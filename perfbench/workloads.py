"""The sweep, study and cli workloads and the probes that complete a run.

Each workload is a closed loop with one client in one process: the next op
starts when the previous one has returned and been checked. An op's time
covers only the calls into the package, or the child process for cli; the
checks run outside it. `inputs` is one pass of the workload; a run repeats
whole passes.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import fleetdyn as fd
from fleetdyn import cli as fd_cli
from fleetdyn.analytics import PARAM_NAMES
from fleetdyn.infrastructure import plan_report
from fleetdyn.scenarios import write_trajectory_csv

import checks
import gen

UK_CSV = Path("src") / "fleetdyn" / "data" / "uk_fleet_rac.csv"

# The CLI commands, in round-robin order; "import" is a bare package import.
CLI_ARGS = {
    "import": None,
    "batch": ["batch"],
    "scenario": ["scenario", "--name", "moderate", "--targets"],
    "growth": ["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
               "--t0", "1960", "--t1", "2100"],
    "fit": ["fit", "--data", "<uk>"],
    "sensitivity": ["sensitivity"],
    "infra": ["infra", "--id", "S2"],
}
CHILD_TIMEOUT_S = 120


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the package from the checkout's src."""
    env = {k: v for k, v in os.environ.items() if k not in ("FLEETDYN_OUT", "PYTHONSTARTUP")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Sweep:
    """One op is one scenario: integrate, sample the shares, write the yearly CSV."""

    span = "sweep.op"

    def __init__(self, inputs: list[gen.ScenarioDraw], workdir: Path):
        self.inputs = inputs
        self.csv_path = workdir / "sweep.csv"
        self._refs: dict = {}

    def op(self, draw: gen.ScenarioDraw, tr):
        if draw.builtin:
            spec = fd.builtin_scenario(draw.builtin)
        else:
            spec = fd.ScenarioSpec(
                "sweep", fd.LvmParams(*draw.params),
                fd.FleetState(draw.t0, draw.x0, draw.y0), draw.t_end, draw.dt,
            )
        # run_scenario is the scenario-level entry to dynamics.integrate.
        traj = tr.call("dynamics.integrate", fd.run_scenario, spec)
        tr.work(len(traj) - 1)
        shares = {
            year: tr.call("scenarios.sample", fd.zev_share, traj, float(year))
            for year in range(int(draw.t0), int(draw.t_end) + 1, 10)
        }
        new_h = tr.call("scenarios.sample", fd.new_hydrogen_vehicles_per_year, traj, 2040.0)
        tr.call("scenarios.write_csv", write_trajectory_csv, traj, self.csv_path)
        final = traj.final
        return (final.t, final.x, final.y), shares, new_h, len(traj) - 1

    def inspect(self, draw, out, tr) -> list[str]:
        final, shares, new_h, steps = out
        if draw not in self._refs:
            self._refs[draw] = checks.reference_rk4(
                draw.params, draw.x0, draw.y0, draw.t0, draw.t_end, draw.dt)
        data = self.csv_path.read_bytes()
        tr.count("dynamics.steps", steps)
        tr.count("scenarios.csv_rows", data.count(b"\n") - 1)
        tr.count("scenarios.csv_bytes", len(data))
        return checks.check_scenario(
            draw, final, shares, new_h, data.decode("utf-8"), self._refs[draw])


class Study:
    """One op is one calibration-and-sensitivity study."""

    span = "study.op"

    def __init__(self, inputs: list[gen.StudyDraw]):
        self.inputs = inputs
        self._refs: dict = {}
        self._boundary: dict = {}  # (draw, fitted parameters) -> problems
        # Boundary fits whose SSR is above the line optimum (checks.boundary_shortfall).
        self.shortfalls = 0

    def op(self, draw: gen.StudyDraw, tr):
        series = tr.call("calibration.load", fd.load_fleet_csv, draw.series.path)
        try:
            fit = tr.call("calibration.fit", fd.fit_growth, series)
        except fd.FitError as exc:
            fit = exc
        p = fd.LvmParams(*draw.lvm)
        eq = tr.call("analytics.equilibrium", fd.asymptotic_state, p)
        tr.call("analytics.stability", fd.classify_stability, p)
        grad_h = tr.call("analytics.gradient", fd.sensitivity_hydrogen, p)
        grad_c = tr.call("analytics.gradient", fd.sensitivity_conventional, p)
        fd_h, fd_c = tr.call("analytics.fd_verify", fd.finite_difference_sensitivity, p)
        plans = []
        for sid in gen.PLAN_IDS:
            plan = tr.call("infrastructure.plan", fd.deployment_plan, sid,
                           uptake=draw.uptake, horizon_years=draw.plan_horizon)
            plans.append((plan, tr.call("infrastructure.report", plan_report, plan)))
        return fit, eq, (grad_h, grad_c, fd_h, fd_c), plans

    def inspect(self, draw, out, tr) -> list[str]:
        fit, eq, grads, plans = out
        s = draw.series
        if draw not in self._refs:
            self._refs[draw] = checks.reference_ssr(s.years, s.values, s.truth)
        ssr_ref = self._refs[draw]
        problems = []
        tr.count("calibration.fits")
        if isinstance(fit, fd.FitError):
            tr.count("calibration.fit_failed")
            problems.append(f"{s.path.name}: {fit}")
        else:
            t = [y - s.years[0] for y in s.years]
            ssr = checks.growth_ssr(t, s.values, fit.params.gamma, fit.params.mu, fit.n0)
            tr.count("calibration.fit_iterations", fit.n_iterations)
            tr.peak("calibration.ssr_excess", checks.ssr_excess(ssr, ssr_ref, len(t)))
            if fit.params.gamma < checks.BOUNDARY_GAMMA:
                # The known early stop at the boundary is measured, not failed.
                tr.count("calibration.boundary")
                shortfall = checks.boundary_shortfall(ssr, ssr_ref, len(t))
                tr.count("calibration.boundary_shortfall", shortfall)
                self.shortfalls += shortfall
                key = (draw, fit.params.gamma, fit.params.mu, fit.n0)
                if key not in self._boundary:
                    self._boundary[key] = checks.check_boundary_fit(
                        t, s.values, fit.params.gamma, fit.params.mu, fit.n0)
                found = self._boundary[key]
            else:
                found = checks.check_fit(ssr, ssr_ref, len(t))
            problems += [f"{s.path.name}: {p}" for p in found]
        problems += checks.check_equilibrium(draw.lvm, eq.x_inf, eq.y_inf)
        for analytic, finite in zip(grads[:2], grads[2:]):
            a = [analytic[name] for name in PARAM_NAMES]
            f = [finite[name] for name in PARAM_NAMES]
            tr.peak("analytics.fd_gap", checks.gradient_gap(a, f))
            problems += checks.check_gradients(a, f)
        for plan, report in plans:
            problems += checks.check_plan(plan.scenario_id, draw.uptake, draw.plan_horizon,
                                          plan.stations_per_year, plan.total_stations,
                                          plan.total_capex)
            if f" {plan.stations_per_year} " not in report:
                problems.append(f"{plan.scenario_id}: report lacks the station count")
        return problems


class Cli:
    """One op is one fresh `python -m fleetdyn ...` (or `import fleetdyn`) process.

    `warm` runs the same commands through `fleetdyn.cli.main` in this
    process. Outputs of every run are compared byte for byte with the first
    run of the same command, and parsed values with the references.
    """

    span = "cli.op"

    def __init__(self, root: Path, workdir: Path):
        self.inputs = list(CLI_ARGS)
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        uk = str(root / UK_CSV)
        self.args = {cmd: None if args is None else [uk if a == "<uk>" else a for a in args]
                     for cmd, args in CLI_ARGS.items()}
        self.refs = checks.cli_references(gen.builtin_draws(), *gen.read_series_csv(root / UK_CSV))
        self._first: dict = {}
        self._serial = 0

    def _new_out(self) -> str:
        self._serial += 1
        return str(self.workdir / f"cli-{self._serial:05d}")

    def op(self, cmd: str, tr):
        out = self._new_out()
        if self.args[cmd] is None:
            argv = [sys.executable, "-c", "import fleetdyn"]
        else:
            argv = [sys.executable, "-m", "fleetdyn", *self.args[cmd], "--out", out]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr, out

    def warm(self, cmd: str, tr):
        """Run one command in-process through the CLI entry point, output captured."""
        out = self._new_out()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = tr.call(f"cli.{cmd}.main", fd_cli.main, [*self.args[cmd], "--out", out])
        return code, stdout.getvalue(), stderr.getvalue(), out

    def inspect(self, cmd, out, tr) -> list[str]:
        code, stdout, stderr, outdir = out
        files = {}
        if os.path.isdir(outdir):
            files = {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())}
            shutil.rmtree(outdir)
        stdout = stdout.replace(outdir, "<out>")
        tr.count("cli.out_bytes", len(stdout.encode("utf-8")) + sum(map(len, files.values())))
        if code != 0 or stderr:
            return [f"{cmd}: exit {code}: {stderr.strip()[-300:]}"]
        first = self._first.setdefault(cmd, (stdout, files))
        problems = [] if (stdout, files) == first else [f"{cmd}: output differs between runs"]
        return problems + checks.check_cli(cmd, stdout, files, self.refs)


class WarmCli:
    """The cli commands run in-process through `fleetdyn.cli.main`, checked alike."""

    span = "cli.warm"

    def __init__(self, cli: Cli):
        self.cli = cli
        self.inputs = [cmd for cmd, args in CLI_ARGS.items() if args is not None]

    def op(self, cmd: str, tr):
        return self.cli.warm(cmd, tr)

    def inspect(self, cmd, out, tr) -> list[str]:
        return self.cli.inspect(cmd, out, tr)


def proc_probe(env: dict, tr, reps: int) -> None:
    """Bare interpreter start and the numpy import, each in fresh processes."""
    for _ in range(reps):
        tr.call("proc.python", subprocess.run, [sys.executable, "-c", "pass"],
                env=env, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import numpy"],
                              env=env, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        tr.sample("proc.numpy_import_ms", numpy_import_ms(proc.stderr))


def numpy_import_ms(importtime_log: str) -> float:
    """Cumulative time of the top-level numpy import from `-X importtime` output."""
    for line in importtime_log.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "numpy":
            return int(fields[1]) / 1000.0
    raise ValueError("numpy missing from the -X importtime log")
