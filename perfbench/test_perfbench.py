"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import statistics
from pathlib import Path

import pytest

import checks
import compare
import gen
import run
from stats import percentile, summary

ROOT = Path(__file__).resolve().parent.parent
UK_CSV = ROOT / "src" / "fleetdyn" / "data" / "uk_fleet_rac.csv"


# ---------------------------------------------------------------- generators


def test_sweep_inputs_are_deterministic_per_seed():
    assert gen.sweep_inputs(7) == gen.sweep_inputs(7)
    assert gen.sweep_inputs(7) != gen.sweep_inputs(8)
    draws = gen.sweep_inputs(7)
    assert [d.builtin for d in draws[:3]] == ["low", "moderate", "aggressive"]
    assert any(d.published_family for d in draws[3:])
    assert any(not d.published_family for d in draws[3:])


def test_study_inputs_are_deterministic_per_seed(tmp_path):
    a = gen.study_inputs(7, tmp_path / "a", UK_CSV)
    b = gen.study_inputs(7, tmp_path / "b", UK_CSV)
    c = gen.study_inputs(8, tmp_path / "c", UK_CSV)
    strip = [(d.series.years, d.series.values, d.series.truth, d.lvm, d.uptake, d.plan_horizon)
             for d in a]
    assert strip == [(d.series.years, d.series.values, d.series.truth, d.lvm, d.uptake,
                      d.plan_horizon) for d in b]
    assert strip != [(d.series.years, d.series.values, d.series.truth, d.lvm, d.uptake,
                      d.plan_horizon) for d in c]
    for da, db in zip(a[1:], b[1:]):
        assert da.series.path.read_bytes() == db.series.path.read_bytes()
        assert gen.read_series_csv(da.series.path) == (da.series.years, da.series.values)
    assert a[0].series.kind == "uk"
    assert {d.series.kind for d in a[1:]} == {"interior", "linear"}


# ------------------------------------------------------------------ checkers


def trajectory_csv(ref, first, last) -> str:
    """Format a reference trajectory the way the package writes one."""
    ts, xs, ys = ref
    lines = [checks.TRAJECTORY_HEADER]
    for year in range(first, last + 1):
        x, y = checks.interp(ts, xs, year), checks.interp(ts, ys, year)
        lines.append(f"{year:.6f},{x:.6f},{y:.6f},{x + y:.6f}")
    return "\n".join(lines) + "\n"


def scenario_output(draw):
    """A correct sweep op output computed from the reference integrator."""
    ref = checks.reference_rk4(draw.params, draw.x0, draw.y0, draw.t0, draw.t_end, draw.dt)
    ts, xs, ys = ref
    shares = {}
    for year in range(int(draw.t0), int(draw.t_end) + 1, 10):
        x, y = checks.interp(ts, xs, year), checks.interp(ts, ys, year)
        shares[year] = y / (x + y)
    dt = draw.dt
    new_h = (checks.interp(ts, ys, 2040 + dt) - checks.interp(ts, ys, 2040 - dt)) / (2 * dt)
    csv = trajectory_csv(ref, int(draw.t0), int(draw.t_end))
    return (ts[-1], xs[-1], ys[-1]), shares, new_h, csv, ref


@pytest.fixture
def family_draw():
    return next(d for d in gen.sweep_inputs(3)[3:] if d.published_family)


def test_scenario_check_accepts_the_reference(family_draw):
    final, shares, new_h, csv, ref = scenario_output(family_draw)
    assert checks.check_scenario(family_draw, final, shares, new_h, csv, ref) == []


def test_scenario_check_rejects_a_total_off_by_1e3(family_draw):
    (t, x, y), shares, new_h, csv, ref = scenario_output(family_draw)
    problems = checks.check_scenario(family_draw, (t, x + 1e-3, y), shares, new_h, csv, ref)
    assert any("closed form" in p for p in problems)


def test_scenario_check_rejects_a_share_outside_the_unit_interval(family_draw):
    final, shares, new_h, csv, ref = scenario_output(family_draw)
    shares[2030] = 1.5
    assert checks.check_scenario(family_draw, final, shares, new_h, csv, ref)


def test_csv_check_rejects_every_flipped_byte_above_the_last_digit(family_draw):
    *_, csv, ref = scenario_output(family_draw)
    first, last = int(family_draw.t0), int(family_draw.t_end)
    data = csv.encode()
    end_of_rows = data.index(b"\n", data.index(b"\n") + 1) + 1  # header and first row
    end_of_rows = data.index(b"\n", end_of_rows + 200)
    tested = 0
    for i in range(end_of_rows):
        if data[i + 1:i + 2] in (b",", b"\n"):
            continue  # a last-decimal flip can stay within the printing tolerance
        corrupted = data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]
        text = corrupted.decode("utf-8", errors="replace")
        assert checks.check_trajectory_csv(text, ref, first, last), (i, text[:300])
        tested += 1
    assert tested > 200


def test_csv_check_rejects_a_missing_row(family_draw):
    *_, csv, ref = scenario_output(family_draw)
    lines = csv.split("\n")
    del lines[5]
    text = "\n".join(lines)
    assert checks.check_trajectory_csv(text, ref, int(family_draw.t0), int(family_draw.t_end))


def test_fit_check_rejects_an_ssr_one_percent_above_the_reference():
    years, values = gen.read_series_csv(UK_CSV)
    ref = checks.reference_ssr(years, values, None)
    assert ref == pytest.approx(10.896970, abs=1e-6)
    assert checks.check_fit(ref * 1.01, ref, len(years))
    assert checks.check_fit(ref * (1 + 1e-5), ref, len(years)) == []
    # The known early stop of the bundled-series fit is within tolerance.
    assert checks.check_fit(10.897262, ref, len(years)) == []


def test_boundary_check_rejects_a_boundary_stop_on_interior_data():
    gamma, mu, n0 = 0.1, 2.0, 5.0
    t = list(range(0, 30, 2))
    values = [checks.growth_total(n0, gamma, mu, ti) for ti in t]
    assert checks.profile_ssr(t, values, gamma) == pytest.approx(0, abs=1e-20)
    assert checks.check_boundary_fit(t, values, 1e-9, 0.5, 5.0)
    # Bundled series: the data prefers gamma -> 0, so a boundary stop is right in kind.
    years, values = gen.read_series_csv(UK_CSV)
    t = [y - years[0] for y in years]
    assert checks.check_boundary_fit(t, values, 1.46e-9, 0.6, 12.0) == []
    assert checks.check_boundary_fit(t, values, 1.46e-9, float("nan"), 12.0)
    ref = checks.reference_ssr(years, values, None)
    assert checks.boundary_shortfall(ref * 1.01, ref, len(t))
    assert not checks.boundary_shortfall(10.897262, ref, len(t))


def test_reference_ssr_is_the_lower_of_truth_and_line():
    gamma, mu, n0 = 0.1, 2.0, 5.0
    years = list(range(2000, 2030, 2))
    values = [checks.growth_total(n0, gamma, mu, y - 2000) for y in years]
    assert checks.reference_ssr(years, values, (gamma, mu, n0)) == pytest.approx(0, abs=1e-20)
    assert checks.reference_ssr(years, values, None) > 1.0


def test_gradient_check_rejects_a_disagreeing_component():
    analytic = [100.4, -0.5, 3.0, -2.0, 1e-3, 7.0]
    assert checks.check_gradients(analytic, analytic) == []
    finite = list(analytic)
    finite[2] += 1e-3 * 100.4
    assert checks.check_gradients(analytic, finite)


def test_equilibrium_reference_solves_the_fixed_point():
    p = checks.SENSITIVITY_DEFAULTS
    x, y = checks.equilibrium(p)
    assert (x, y) == pytest.approx((0.498077, 129.501923), abs=1e-6)
    assert checks.check_equilibrium(p, x, y) == []
    assert checks.check_equilibrium(p, x * (1 + 1e-6), y)


def test_plan_check_uses_the_published_s2_figure():
    assert checks.planned_stations("S2", 0.35) == 2625
    assert checks.check_plan("S2", 0.35, 30, 2625, 78750, 78750 * 1e6) == []
    assert checks.check_plan("S2", 0.35, 30, 2626, 78780, 78780 * 1e6)


def test_cli_infra_check_rejects_a_wrong_count():
    refs = {}
    good = ("scenario,vps,stations_per_year,total_stations,annual_capex_gbp,total_capex_gbp\n"
            "S2,133,2625,78750,2625000000,78750000000\n")
    stdout = "  stations per year     2625 (conservative 2632)\n"
    assert checks.check_cli("infra", stdout, {"infra_S2.csv": good.encode()}, refs) == []
    bad = good.replace("2625,78750", "2626,78750")
    assert checks.check_cli("infra", stdout, {"infra_S2.csv": bad.encode()}, refs)
    assert checks.check_cli("infra", stdout, {}, refs)


# ------------------------------------------------------------------ statistics


def test_percentile_on_known_data():
    data = [7, 1, 10, 3, 2, 9, 4, 8, 6, 5]
    assert percentile(data, 0) == 1
    assert percentile(data, 50) == 5.5
    assert percentile(data, 90) == pytest.approx(9.1)
    assert percentile(data, 100) == 10
    assert percentile([4.2], 90) == 4.2
    assert percentile(list(range(101)), 90) == 90
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summary_matches_statistics_quartiles():
    data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    q1, med, q3 = statistics.quantiles(data, n=4)
    assert summary(data) == {"n": 8, "median": med, "q1": q1, "q3": q3}
    assert med == statistics.median(data)


# --------------------------------------------------------------------- compare


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]  # spread about 5 around 104.5
    faster = [b - 20 for b in base]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, pairs, True, 0.1) == "improved"
    assert compare.verdict(base, base, list(zip(base, base)), True, 0.1) == "no worse"
    slower = [b + 20 for b in base]
    assert compare.verdict(base, slower, list(zip(base, slower)), True, 0.1) == "worse"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), True, 0.1) == "unresolved"
    # Fewer than ten pairs never claim a gain.
    assert compare.verdict(base[:5], faster[:5], pairs[:5], True, 0.1) == "no worse"
    assert compare.verdict(base, slower, list(zip(base, slower)), True, None) == "worse"


# ------------------------------------------------------------------ the spec


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    # cli runs on request only; its spread is wider than any allowed bound.
    assert [w["name"] for w in spec["workloads"]] == [w for w in run.WORKLOADS if w != "cli"]
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_numpy_import_time_is_read_from_the_importtime_log():
    import workloads

    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       120 |        140 |   numpy._utils\n"
           "import time:      2000 |     116707 | numpy\n")
    assert workloads.numpy_import_ms(log) == 116.707


def test_tracer_self_time_excludes_child_spans(tmp_path):
    from tracing import Tracer

    tr = Tracer()

    def inner():
        return sum(range(10000))

    def outer():
        tr.call("inner", inner)
        tr.call("inner", inner)
        return 1

    assert tr.call("outer", outer) == 1
    path = tmp_path / "trace.json"
    tr.dump(path, len(tr.spans))
    rows = json.loads(path.read_text())["spans"]
    (outer_row, *inner_rows) = rows
    assert [r[0] for r in rows] == ["outer", "inner", "inner"]
    assert [r[3] for r in inner_rows] == [0, 0] and [r[4] for r in rows] == [0, 0, 0]
    children = sum(r[2] - r[1] for r in inner_rows)
    assert outer_row[5] == pytest.approx(outer_row[2] - outer_row[1] - children)
    assert all(r[5] == pytest.approx(r[2] - r[1]) for r in inner_rows)


def test_best_latencies_take_each_inputs_fastest_pass():
    a, b = run.Loop(), run.Loop()
    a.index, a.latencies = [0, 1, 2, 0, 1, 2], [5.0, 3.0, 9.0, 4.0, 6.0, 8.5]
    b.index, b.latencies = [0, 1, 2], [4.5, 2.0, 9.5]
    assert run.best_latencies(a) == [4.0, 3.0, 8.5]
    assert run.best_latencies(a, b) == [4.0, 2.0, 8.5]
    assert a.of_input(1) == [3.0, 6.0]


class _Counting:
    """A workload whose ops take no time and always pass their check."""

    span = "test.op"
    inputs = ["a", "b"]

    def op(self, item, tr):
        return item

    def inspect(self, item, out, tr):
        return [] if out == item else ["wrong"]


def test_run_loop_runs_exactly_the_requested_passes():
    from tracing import NullTracer

    loop = run.run_loop(_Counting(), NullTracer(), passes=3)
    assert loop.ops == 6 and loop.index == [0, 1, 0, 1, 0, 1] and loop.failed == 0
    loop = run.run_loop(_Counting(), NullTracer(), 0.0, min_ops=5)
    assert loop.ops == 6
