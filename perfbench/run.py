"""fleetdyn benchmark.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,study,cli} --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. Every run also
appends a run record (versions, machine, and per metric the sample count,
median and quartiles) to .perfbench_runs/records.jsonl, or to --record
FILE; a traced run writes the spans of its layer probe and first traced
pass to .perfbench_runs/trace-*.json.

Compare two record files, one row per metric and workload:

    python3 perfbench/run.py --compare BASE.jsonl CHANGE.jsonl

Workloads (one client, one process, closed loop; a run repeats whole
passes of the seeded inputs until the ops have taken --seconds):

- sweep: one op is one scenario integrated, sampled and written as CSV.
  The RK4 loop is most of it; calibration does no work.
- study: one op is one calibration-and-sensitivity study. The fit is most
  of it, with its tail from fits that end at the gamma -> 0 boundary;
  dynamics does no work.
- cli: one op is one fresh `python -m fleetdyn ...` process (or
  `import fleetdyn`), round robin over the commands. Interpreter start and
  import are most of it. It is not in BENCHMARK.json: on a shared 2-vCPU
  Intel Xeon VM its best-of figures spread by 23-32 % over five seeds,
  wider than any bound the benchmark may set. The commands' fresh-process
  times are the per-layer proc.<command>_ms of every traced run, and
  setup_s of every workload includes a fresh `import fleetdyn`.

Times are best-of-run. Each input's op time is its fastest repetition over
the run's passes; op_ms_p50 and op_ms_p90 are percentiles over the inputs
of a pass, and ops_per_s is a pass's inputs over the sum of their best
times. On a shared 2-vCPU Intel Xeon VM the CPU speed was seen to swing
by up to 2x over seconds, which moved all-ops averages of a 30 s run by
15-30 % from run to run; the best-of figures moved by 5-9 %. The all-ops
figures are kept in the run record under "raw". setup_s is the median of
SETUP_REPS set-ups spread over the run. The swings were seen on one vCPU
at a time, so successive passes run pinned to successive CPUs (see
PASS_CPUS).

Every metric is reported on every workload. In a traced run the layers
a workload's ops do not reach are timed by a fixed probe (the builtin
scenarios, the UK study, warm `fleetdyn.cli.main` calls, fresh processes
for each cli command and bare interpreter starts), so those layer numbers
do not depend on the workload.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import compare
import gen
from stats import percentile, summary
from tracing import NullTracer, Tracer

WORKLOADS = ("sweep", "study", "cli")
# Set-ups per untraced run: one before the loop, the rest spread evenly
# over its busy time, so that their median spans the run's swings in host
# speed rather than one burst at its start.
SETUP_REPS = 11
# Rounds of the fresh-process cli commands in the layer probe.
FRESH_ROUNDS = 3
# Ten samples beyond the 90th percentile.
MIN_OPS = 100
# Passes of the layer probe's builtin scenarios and UK study, and of its
# warm in-process CLI commands.
PROBE_PASSES = 5
WARM_ROUNDS = 10
PROC_REPS = 5
# Each pass runs pinned to the next CPU this process may use, children
# included. A slow phase of the host then holds back one CPU's passes, not
# the whole run, and an input's best time comes from whichever CPU was fast.
PASS_CPUS = itertools.cycle(sorted(os.sched_getaffinity(0)))
# A loop ends after this much wall time even if its ops took less.
LOOP_WALL_CAP_S = 110
COMMANDS = ("import", "batch", "scenario", "growth", "fit", "sensitivity", "infra")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}

# Per-call timings: metric stem -> (span name, scale, divide by the span's work).
LAYER_TIMES = {
    "dynamics.integrate_ms": ("dynamics.integrate", 1e3, False),
    "dynamics.step_us": ("dynamics.integrate", 1e6, True),
    "scenarios.sample_us": ("scenarios.sample", 1e6, False),
    "scenarios.csv_write_ms": ("scenarios.write_csv", 1e3, False),
    "calibration.load_ms": ("calibration.load", 1e3, False),
    "calibration.fit_ms": ("calibration.fit", 1e3, False),
    "analytics.equilibrium_us": ("analytics.equilibrium", 1e6, False),
    "analytics.gradient_us": ("analytics.gradient", 1e6, False),
    "analytics.fd_verify_us": ("analytics.fd_verify", 1e6, False),
    "infrastructure.plan_us": ("infrastructure.plan", 1e6, False),
    **{f"cli.{cmd}.main_ms": (f"cli.{cmd}.main", 1e3, False) for cmd in COMMANDS[1:]},
    "proc.python_ms": ("proc.python", 1e3, False),
}
# Per-call timings recorded as plain samples: fresh-process wall time of
# each cli command, and the numpy import time from `-X importtime`.
SAMPLED = (*(f"proc.{cmd}_ms" for cmd in COMMANDS), "proc.numpy_import_ms")
LAYER_COUNTS = ("dynamics.steps", "scenarios.csv_rows", "scenarios.csv_bytes",
                "calibration.fit_iterations", "cli.out_bytes")
LAYER_RATIOS = ("calibration.fit_failed", "calibration.boundary_share",
                "calibration.boundary_shortfall_share", "calibration.ssr_excess_max",
                "analytics.fd_gap_max", "trace.overhead_ratio")


def per_layer_units() -> dict[str, str]:
    units = {}
    for stem in [*LAYER_TIMES, *SAMPLED]:
        unit = stem.rsplit("_", 1)[1]
        units[f"{stem}_p50"] = units[f"{stem}_p90"] = unit
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    return units


# Which end-to-end metrics each layer should move, and on which workload.
LAYER_MAP = {
    "dynamics": "sweep ops_per_s, op_ms_p50, op_ms_p90; cli ops a little (batch, scenario, "
                "growth); not study",
    "scenarios": "sweep op_ms_p50; cli ops a little (batch, scenario)",
    "calibration": "study ops_per_s, op_ms_p90; cli ops a little (fit); not sweep",
    "analytics": "study op_ms_p50; cli ops a little (sensitivity)",
    "infrastructure": "study a little; cli ops a little (infra)",
    "cli": "cli ops of the matching command (proc.<command>_ms)",
    "proc": "cli ops_per_s, op_ms_p50, op_ms_p90 and setup_s of every workload; "
            "no sweep or study ops_per_s",
}


@dataclass
class Loop:
    """Latencies and outcomes of the ops of one closed loop over whole passes."""

    index: list[int] = field(default_factory=list)  # each op's input position in the pass
    latencies: list[float] = field(default_factory=list)
    pass_rates: list[float] = field(default_factory=list)
    busy: float = 0.0
    failed: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def of_input(self, i: int) -> list[float]:
        return [t for k, t in zip(self.index, self.latencies) if k == i]


def best_latencies(*loops: Loop) -> list[float]:
    """Each input's fastest op over every pass of the loops, in input order."""
    best: dict[int, float] = {}
    for loop in loops:
        for i, t in zip(loop.index, loop.latencies):
            best[i] = min(t, best.get(i, t))
    return [best[i] for i in sorted(best)]


def report_problems(problems: list[str], loop: Loop) -> None:
    if problems and loop.failed <= 3:
        print("check failed: " + "; ".join(problems)[:2000], file=sys.stderr)


def run_loop(wl, tr, seconds: float = 0.0, min_ops: int = 0, passes: int | None = None,
             after_pass=None) -> Loop:
    """Repeat whole passes over wl.inputs: `passes` of them, or until the ops took `seconds`.

    after_pass(loop), if given, runs between passes, outside the op times.
    """
    loop = Loop()
    start = perf_counter()
    while True:
        os.sched_setaffinity(0, {next(PASS_CPUS)})
        pass_busy = 0.0
        for index, item in enumerate(wl.inputs):
            t = perf_counter()
            try:
                out = tr.call(wl.span, wl.op, item, tr)
            except Exception:
                out, problems = None, [traceback.format_exc()]
            elapsed = perf_counter() - t
            if out is not None:
                try:
                    problems = wl.inspect(item, out, tr)
                except Exception:
                    problems = ["check raised: " + traceback.format_exc()]
            loop.index.append(index)
            loop.latencies.append(elapsed)
            loop.failed += bool(problems)
            report_problems(problems, loop)
            pass_busy += elapsed
        loop.busy += pass_busy
        loop.pass_rates.append(len(wl.inputs) / pass_busy)
        if after_pass is not None:
            after_pass(loop)
        if passes is not None:
            if len(loop.pass_rates) >= passes:
                return loop
        elif loop.busy >= seconds and loop.ops >= min_ops:
            return loop
        if perf_counter() - start > LOOP_WALL_CAP_S:
            print("warning: loop stopped at the wall-time cap", file=sys.stderr)
            return loop


def metric(value: float, unit: str, samples=None) -> dict:
    entry = {"value": value, "unit": unit}
    if samples:
        entry.update(summary(samples))
    return entry


def setup(workload: str, seed: int, root: Path, workdir: Path):
    """Fresh `import fleetdyn` in a child process plus input generation; returns (s, wl)."""
    import workloads

    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import fleetdyn"], cwd=root,
                   env=workloads.child_env(root), check=True,
                   timeout=workloads.CHILD_TIMEOUT_S)
    if workload == "sweep":
        wl = workloads.Sweep(gen.sweep_inputs(seed), workdir)
    elif workload == "study":
        wl = workloads.Study(gen.study_inputs(seed, workdir / "series", root / workloads.UK_CSV))
    else:
        wl = workloads.Cli(root, workdir / "cli")
    return perf_counter() - t, wl


def end_to_end(wl, seconds: float, setup_rep) -> tuple[dict, dict, list[Loop]]:
    """Best-of-run figures as metrics; the all-ops figures go to the record as raw.

    setup_rep() times one more set-up; it runs each time the loop's busy
    time passes another 1/(SETUP_REPS - 1) of `seconds`.
    """
    setup_times = [setup_rep()]

    def more_setups(loop: Loop) -> None:
        while (len(setup_times) < SETUP_REPS
               and loop.busy >= seconds * len(setup_times) / (SETUP_REPS - 1)):
            setup_times.append(setup_rep())

    main = run_loop(wl, NullTracer(), seconds, min_ops=MIN_OPS, after_pass=more_setups)
    while len(setup_times) < SETUP_REPS:
        setup_times.append(setup_rep())
    best_ms = [t * 1e3 for t in best_latencies(main)]
    all_ms = [t * 1e3 for t in main.latencies]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s", setup_times),
        "ops_per_s": metric(1e3 * len(best_ms) / sum(best_ms), "1/s", main.pass_rates),
        "op_ms_p50": metric(percentile(best_ms, 50), "ms", best_ms),
        "op_ms_p90": metric(percentile(best_ms, 90), "ms", best_ms),
    }
    raw = {"ops_per_s": main.ops / main.busy, "op_ms_p50": percentile(all_ms, 50),
           "op_ms_p90": percentile(all_ms, 90), "ops": main.ops, "passes": len(main.pass_rates)}
    return metrics, raw, [main]


def layer_probe(wl, seed: int, root: Path, workdir: Path, tr) -> list[Loop]:
    """Fixed calls into every layer, so each layer is timed on every workload."""
    import workloads

    cli = wl if isinstance(wl, workloads.Cli) else workloads.Cli(root, workdir / "cli")
    loops = [
        run_loop(workloads.Sweep(gen.builtin_draws(), workdir / "probe"), tr,
                 passes=PROBE_PASSES),
        run_loop(workloads.Study([gen.uk_study_draw(seed, root / workloads.UK_CSV)]), tr,
                 passes=PROBE_PASSES),
        run_loop(workloads.WarmCli(cli), tr, passes=WARM_ROUNDS),
    ]
    workloads.proc_probe(cli.env, tr, PROC_REPS)
    fresh = run_loop(cli, tr, passes=FRESH_ROUNDS)
    for i, cmd in enumerate(cli.inputs):
        for t in fresh.of_input(i):
            tr.sample(f"proc.{cmd}_ms", t * 1e3)
    return loops + [fresh]


def per_layer(wl, seed: int, seconds: float, root: Path, workdir: Path,
              trace_path: Path) -> tuple[dict, dict, list[Loop]]:
    """The probe, then untraced and traced passes in turn for the remaining time.

    Alternating the passes exposes both sides to the same swings in host
    speed. Counts, and the spans written out, cover the probe and the first
    traced pass, so they repeat exactly for a seed.
    """
    tr = Tracer()
    (workdir / "probe").mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    loops = layer_probe(wl, seed, root, workdir, tr)
    remaining = max(seconds - (perf_counter() - start), seconds / 2)
    untraced, traced = [], []
    while not traced or sum(loop.busy for loop in untraced + traced) < remaining:
        untraced.append(run_loop(wl, NullTracer(), passes=1))
        traced.append(run_loop(wl, tr, passes=1))
        if len(traced) == 1:
            counts, peaks, counted_spans = dict(tr.counts), dict(tr.peaks), len(tr.spans)
    loops += untraced + traced
    try:
        tr.dump(trace_path, counted_spans)
    except OSError as exc:
        print(f"warning: trace not written: {exc}", file=sys.stderr)

    units = per_layer_units()
    metrics = {}
    samples = {stem: [d * scale for d in tr.durations(span, per_work)]
               for stem, (span, scale, per_work) in LAYER_TIMES.items()}
    samples.update({stem: tr.samples[stem] for stem in SAMPLED})
    for stem, values in samples.items():
        for q in (50, 90):
            name = f"{stem}_p{q}"
            metrics[name] = metric(percentile(values, q), units[name], values)
    for name in LAYER_COUNTS:
        metrics[name] = metric(counts.get(name, 0), "count")
    fits = counts.get("calibration.fits", 0)
    ratios = {
        "calibration.fit_failed": counts.get("calibration.fit_failed", 0) / fits,
        "calibration.boundary_share": counts.get("calibration.boundary", 0) / fits,
        # Fits that stopped at gamma -> 0 above the line optimum: measured, not failed.
        "calibration.boundary_shortfall_share":
            counts.get("calibration.boundary_shortfall", 0) / fits,
        # Absent only when every fit raised, which the checks already count.
        "calibration.ssr_excess_max": peaks.get("calibration.ssr_excess", 0.0),
        "analytics.fd_gap_max": peaks["analytics.fd_gap"],
        # Traced over untraced ops_per_s, both best-of like the end-to-end figure.
        "trace.overhead_ratio": sum(best_latencies(*untraced)) / sum(best_latencies(*traced)),
    }
    for name, value in ratios.items():
        metrics[name] = metric(value, "ratio")
    raw = {name: sum(loop.ops for loop in side) / sum(loop.busy for loop in side)
           for name, side in (("untraced_ops_per_s", untraced), ("traced_ops_per_s", traced))}
    return metrics, raw, loops


def git_sha(root: Path) -> str:
    """HEAD commit read from the checkout's .git, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0))}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fleetdyn benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two record files instead of running")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if args.compare:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        return compare.main(*args.compare, spec)

    src = root / "src"
    if not (src / "fleetdyn" / "__init__.py").is_file():
        print(f"error: no fleetdyn package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fleetdyn

    if not Path(fleetdyn.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: fleetdyn imported from {fleetdyn.__file__}, not {src}", file=sys.stderr)
        return 2

    runs = root / ".perfbench_runs"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = runs / f"work-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, wl = setup(args.workload, args.seed, root, workdir)
        if args.trace:
            metrics, raw, loops = per_layer(wl, args.seed, args.seconds, root, workdir,
                                            runs / f"trace-{tag}.json")
        else:
            # Timed set-ups build their own copy of the inputs, beside the one in use.
            spare = workdir / "setup"
            metrics, raw, loops = end_to_end(
                wl, args.seconds, lambda: setup(args.workload, args.seed, root, spare)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.ops for loop in loops)
    failed = sum(loop.failed for loop in loops)
    shortfalls = getattr(wl, "shortfalls", 0)
    if shortfalls:
        print(f"finding: {shortfalls} study fit calls stopped at the gamma -> 0 boundary with an "
              f"SSR more than {checks.SSR_RTOL:g} above the least-squares line",
              file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), **machine(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "error_ratio": failed / attempted, "boundary_shortfalls": shortfalls,
        "metrics": metrics, "raw": raw,
        "layer_map": LAYER_MAP,
    }
    record_path = Path(args.record) if args.record else runs / "records.jsonl"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with open(record_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    result = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
