"""Command-line interface: flags, config files, exit codes, output files."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fleetdyn import (
    GrowthParams,
    ValidationError,
    fit_growth,
    growth_closed_form,
    load_fleet_csv,
)
from fleetdyn.cli import COMMANDS, REQUIRED, build_parser, main, resolve

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------- growth

def test_growth_writes_yearly_series(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
        "--t0", "1960", "--t1", "2020", "--out", str(out),
    )
    assert code == 0
    header, rows = read_rows(out / "growth.csv")
    assert header == ["year", "fleet_mveh"]
    assert len(rows) == 61
    assert rows[0] == ["1960", "0.380000"]
    assert float(rows[-1][1]) == pytest.approx(29.5358, abs=1e-3)


def test_growth_csv_round_trips_through_loader(tmp_path):
    from fleetdyn import load_fleet_csv

    out = tmp_path / "o"
    run_cli(
        "growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
        "--t0", "1960", "--t1", "2020", "--out", str(out),
    )
    series = load_fleet_csv(out / "growth.csv")
    assert len(series) == 61
    assert series.years[0] == 1960
    assert series.fleet[-1] == pytest.approx(29.535792, abs=1e-6)


def test_growth_invalid_usage_exits_2(tmp_path):
    out = str(tmp_path / "o")
    base = ["growth", "--mu", "0.65", "--n0", "0.38", "--out", out]
    assert run_cli(*base, "--gamma", "0.01", "--t0", "2020", "--t1", "2000") == 2
    assert run_cli(*base, "--gamma", "0", "--t0", "1960", "--t1", "2020") == 2
    assert run_cli(*base, "--gamma", "0.01", "--t0", "1960") == 2  # missing t1
    assert run_cli("growth", "--gamma", "x") == 2  # argparse rejects


def test_growth_non_finite_horizon_or_step_exits_2(tmp_path, capsys):
    base = ["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38", "--t0", "1960",
            "--out", str(tmp_path / "o")]
    assert run_cli(*base, "--t1", "inf") == 2
    assert capsys.readouterr().err == "error: --t1 must be finite, got inf\n"
    assert run_cli(*base, "--t1", "2020", "--dt", "inf") == 2
    assert capsys.readouterr().err == "error: --dt must be finite, got inf\n"
    assert not (tmp_path / "o").exists()


def test_growth_step_count_over_cap_exits_2(tmp_path, capsys):
    code = run_cli(
        "growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
        "--t0", "2020", "--t1", "2100", "--dt", "1e-9", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dt = 1e-09 needs 8e+10 steps")
    assert "at most 1000000" in err


def test_scenario_infinite_horizon_exits_2(tmp_path, capsys):
    code = run_cli(
        "scenario", "--gamma_c", "0.01", "--gamma_h", "0.01", "--a", "0.005",
        "--epsilon", "0.005", "--mu_c", "0.65", "--mu_h", "0.35", "--t_end", "inf",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "got inf" in capsys.readouterr().err


def test_scenario_horizon_before_start_exits_2(tmp_path, capsys):
    code = run_cli(
        "scenario", "--gamma_c", "0.01", "--gamma_h", "0.01", "--a", "0.005",
        "--epsilon", "0.005", "--mu_c", "0.65", "--mu_h", "0.35", "--t_end", "2010",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: t_end (2010.0) must exceed the initial time (2020.0)\n"
    )


def test_growth_non_finite_start_names_the_flag(tmp_path, capsys):
    code = run_cli(
        "growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
        "--t0", "inf", "--t1", "2020", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --t0 must be finite, got inf\n"


def test_growth_integrator_blowup_exits_1(tmp_path):
    # a stable step, but the fleet heads for mu/gamma = 1e310, past the floats
    code = run_cli(
        "growth", "--gamma", "0.01", "--mu", "1e308", "--n0", "0.38",
        "--t0", "1960", "--t1", "2020", "--out", str(tmp_path / "o"),
    )
    assert code == 1


def test_growth_step_above_rk4_bound_exits_2(tmp_path, capsys):
    # dt*gamma = 3: RK4 amplifies the decay, 16.44 at t = 10 against mu/gamma = 1/3
    base = ["growth", "--gamma", "3", "--mu", "1", "--n0", "1", "--t0", "0", "--t1", "10",
            "--out", str(tmp_path / "o")]
    assert run_cli(*base, "--dt", "1") == 2
    largest = 0.9284311876666668
    assert capsys.readouterr().err == (
        "error: --dt 1.0 gives dt*gamma = 3, above 2.785293563, the RK4 stability bound; "
        f"the largest --dt that passes is {largest}\n"
    )
    assert not (tmp_path / "o").exists()
    assert run_cli(*base, "--dt", repr(math.nextafter(largest, 1.0))) == 2
    capsys.readouterr()
    # below the start of 1 Mveh: decaying, if slowly at the bound itself
    for dt in ("0.9", repr(largest)):
        assert run_cli(*base, "--dt", dt) == 0
        assert "fleet at 10.0: 0." in capsys.readouterr().out
    # the default step of 0.1 is refused alike
    assert run_cli(*base[:-2], "--gamma", "1e8", "--out", str(tmp_path / "p")) == 2
    assert capsys.readouterr().err.startswith("error: --dt 0.1 gives dt*gamma = 1e+07,")


# ---------------------------------------------------------------- scenario

def test_scenario_moderate_share_at_2050(tmp_path):
    out = tmp_path / "o"
    assert run_cli("scenario", "--name", "moderate", "--out", str(out)) == 0
    header, rows = read_rows(out / "moderate.csv")
    assert header == ["time", "conv", "hydro", "total"]
    row2050 = next(r for r in rows if r[0] == "2050.000000")
    share = float(row2050[2]) / float(row2050[3])
    assert share == pytest.approx(0.92, abs=0.05)


def test_scenario_targets_report(tmp_path):
    out = tmp_path / "o"
    assert run_cli("scenario", "--name", "low", "--targets", "--out", str(out)) == 0
    header, rows = read_rows(out / "low_targets.csv")
    assert header == ["year", "metric", "expected", "tolerance", "observed", "pass"]
    assert rows[0][0] == "2050" and rows[0][1] == "zev_share"
    assert float(rows[0][2]) == 0.10
    assert rows[0][5] in ("pass", "fail")


def test_scenario_unknown_name_exits_2(tmp_path):
    assert run_cli("scenario", "--name", "fast", "--out", str(tmp_path)) == 2


def test_scenario_name_excludes_custom_params(tmp_path):
    assert (
        run_cli("scenario", "--name", "low", "--mu_h", "0.2", "--out", str(tmp_path)) == 2
    )


def test_scenario_custom_config_symmetric_collapse(tmp_path):
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(
        "# symmetric transition\n"
        "gamma_c = 0.01\n"
        "gamma_h = 0.01\n"
        "a = 0.005\n"
        "epsilon = 0.005\n"
        "mu_c = 0.5\n"
        "mu_h = 0.5\n"
        "x0 = 10\n"
        "y0 = 0\n"
        "t0 = 2020\n"
        "t_end = 2060\n"
    )
    out = tmp_path / "o"
    assert run_cli("scenario", "--config", str(cfg), "--out", str(out)) == 0
    _, rows = read_rows(out / "custom.csv")
    gp = GrowthParams(0.01, 1.0)
    for row in rows:
        expected = growth_closed_form(gp, 10.0, float(row[0]) - 2020.0)
        assert float(row[3]) == pytest.approx(expected, abs=1e-5)


def test_scenario_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("name = low\n")
    out = tmp_path / "o"
    assert run_cli("scenario", "--config", str(cfg), "--name", "moderate", "--out", str(out)) == 0
    assert (out / "moderate.csv").exists()
    assert not (out / "low.csv").exists()


def test_scenario_missing_params_exits_2(tmp_path):
    assert run_cli("scenario", "--mu_h", "0.3", "--out", str(tmp_path)) == 2


def test_scenario_name_excludes_frame_flags(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli("scenario", "--name", "moderate", "--t_end", "2040", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --t_end cannot be set with --name, a builtin scenario\n"
    )
    assert not out.exists()


def test_scenario_name_excludes_frame_values_from_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("t_end = 2040\n")
    out = tmp_path / "o"
    assert run_cli("scenario", "--name", "moderate", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 1: t_end cannot be set with --name, a builtin scenario\n"
    )
    assert not out.exists()


def test_config_parse_error_exits_2(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("gamma_c 0.01\n")
    assert run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path)) == 2


def test_config_unknown_key_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("gama_c = 0.01\n")
    assert run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 1: unknown key 'gama_c'\n"
    assert not (tmp_path / "o").exists()


def test_config_duplicate_key_names_both_lines(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("mu_h = 0.65\nmu_h = 0.1\n")
    assert run_cli("sensitivity", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 2: mu_h already set on line 1\n"
    assert not (tmp_path / "o").exists()


def test_config_bad_value_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# custom\ngamma_c = abc\n")
    assert run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: line 2: gamma_c: ")


def test_config_bad_choice_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("name = fast\n")
    assert run_cli("scenario", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 1: name: 'fast' is not one of low, moderate, aggressive\n"
    )


def test_config_non_finite_value_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("mu_c = 0.5\nmu_h = nan\n")
    assert run_cli("sensitivity", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 2: mu_h must be finite, got nan\n"


def test_resolve_precedence_flag_config_default(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mu_h = 0.3\nmu_c = 0.4\n")
    args = build_parser().parse_args(["sensitivity", "--config", str(cfg), "--mu_h", "0.2"])
    resolve(args, COMMANDS["sensitivity"])
    assert (args.mu_h, args.mu_c, args.a) == (0.2, 0.4, 0.01)
    assert args.given == {"mu_h": "--mu_h", "mu_c": f"{cfg}: line 2: mu_c"}


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
def test_table_declares_every_help_entry(cmd, capsys):
    assert run_cli(cmd, "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    for p in COMMANDS[cmd].params:
        assert f"--{p.name} " in text
        if p.default is REQUIRED:
            assert f"{p.help} (required)" in text
        elif p.default is not None:
            assert f"{p.help} (default {p.default})" in text


@pytest.mark.parametrize(
    "cmd,param",
    [(cmd, p) for cmd, c in sorted(COMMANDS.items()) if c.config for p in c.params],
    ids=lambda v: v if isinstance(v, str) else v.name,
)
def test_table_key_is_accepted_in_config(cmd, param, tmp_path):
    text = param.choices[0] if param.choices else "7"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"# one key\n{param.name} = {text}\n")
    others = [a for q in COMMANDS[cmd].params if q.default is REQUIRED and q != param
              for a in (f"--{q.name}", "1")]
    args = build_parser().parse_args([cmd, "--config", str(cfg), *others])
    resolve(args, COMMANDS[cmd])
    assert getattr(args, param.name) == param.type(text)
    assert args.given[param.name] == f"{cfg}: line 2: {param.name}"


# -------------------------------------------------------------------- fit

def test_fit_bundled_data(tmp_path, capsys):
    data = Path(SRC) / "fleetdyn" / "data" / "uk_fleet_rac.csv"
    out = tmp_path / "o"
    assert run_cli("fit", "--data", str(data), "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "gamma" in printed and "mu" in printed
    header, rows = read_rows(out / "fit.csv")
    assert header == ["year", "data_mveh", "model_mveh", "error"]
    assert len(rows) == 10


def test_fit_synthetic_exact_recovery(tmp_path, capsys):
    gp = GrowthParams(0.02, 0.8)
    csv = tmp_path / "syn.csv"
    lines = ["year,fleet_mveh"]
    for year in range(1980, 2021, 5):
        lines.append(f"{year},{growth_closed_form(gp, 5.0, year - 1980.0):.12f}")
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run_cli("fit", "--data", str(csv), "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "mu    = 0.800000" in printed
    assert "n0    = 5.000000" in printed
    _, rows = read_rows(out / "fit.csv")
    assert all(float(r[3]) < 1e-6 for r in rows)


def test_fit_bad_value_names_file_and_line(tmp_path, capsys):
    csv = tmp_path / "nan.csv"
    csv.write_text("year,fleet_mveh\n1971,8.0\n1976,nan\n1981,10.0\n")
    assert run_cli("fit", "--data", str(csv), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}: line 3: fleet value nan must be positive and finite\n"
    )


@pytest.mark.parametrize("year", ["99999999999999999999", "-99999999999999999999"])
def test_fit_year_beyond_int64_names_file_and_line(tmp_path, capsys, year):
    csv = tmp_path / "big.csv"
    csv.write_text(f"year,fleet_mveh\n1971,8.0\n1976,9.0\n{year},10.0\n")
    assert run_cli("fit", "--data", str(csv), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}: line 4: year {year} does not fit a 64-bit integer\n"
    )


def test_fit_years_too_far_apart_for_floats_names_file_and_line(tmp_path, capsys):
    # int64 years elapsed would wrap past 2**63; above 2**53 they are not exact floats
    csv = tmp_path / "far.csv"
    csv.write_text("year,fleet_mveh\n-9000000000000000000,9.0\n1980,10\n"
                   "9000000000000000000,11.0\n")
    assert run_cli("fit", "--data", str(csv), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}: line 3: year 1980 is more than 2**53 years after the first year "
        "-9000000000000000000; elapsed years must be exact as floats\n"
    )
    csv.write_text(f"year,fleet_mveh\n0,9.0\n1,10\n{2**53},11.0\n{2**53 + 1},12.0\n")
    with pytest.raises(ValidationError, match=r"^\S+: line 5: year 9007199254740993 is more"):
        load_fleet_csv(csv)


def test_fit_csv_errors_match_the_fit_for_large_years(tmp_path, capsys):
    # float(year) rounds beyond 2**53; the elapsed years must stay exact
    csv = tmp_path / "late.csv"
    csv.write_text("year,fleet_mveh\n" + "".join(
        f"{2**62 + i},{v}\n" for i, v in enumerate((9, 10, 11.5, 12))
    ))
    out = tmp_path / "o"
    assert run_cli("fit", "--data", str(csv), "--out", str(out)) == 0
    fit = fit_growth(load_fleet_csv(csv))
    _, rows = read_rows(out / "fit.csv")
    assert len({r[2] for r in rows}) == 4
    assert sum(float(r[3]) for r in rows) / len(rows) == pytest.approx(fit.mean_error, abs=1e-6)


def test_fit_missing_file_exits_2(tmp_path):
    assert run_cli("fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 2


# ------------------------------------------------------------- sensitivity

def test_sensitivity_defaults(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("sensitivity", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "total     = 130.000000 Mveh" in printed
    assert "stability = monotone-equilibrium" in printed
    header, rows = read_rows(out / "gradients.csv")
    assert header == ["param", "grad_hydrogen", "grad_conventional",
                      "plog_hydrogen", "plog_conventional"]
    grads = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    assert grads["mu_h"][0] > 0 and grads["mu_c"][0] > 0
    assert grads["mu_h"][1] < 0
    assert float(rows[0][3]) == pytest.approx(math.log10(1 + grads["mu_h"][0]), rel=1e-5)


def test_sensitivity_small_component_digits(tmp_path):
    # The conventional gamma_c component is eight orders below the largest
    # one; every printed digit must still be right (50-digit reference).
    out = tmp_path / "o"
    assert run_cli(
        "sensitivity", "--gamma_c", "0.003629", "--gamma_h", "0.001063", "--a", "0.2547",
        "--epsilon", "0.001656", "--mu_c", "0.04024", "--mu_h", "0.9216", "--out", str(out),
    ) == 0
    _, rows = read_rows(out / "gradients.csv")
    assert rows[-1] == ["gamma_c", "-1.114244e-03", "-8.245132e-07", "-0.000484", "-0.000000"]


def test_sensitivity_zero_sources_valid(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("sensitivity", "--mu_c", "0", "--mu_h", "0", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "x_inf     = 0.000000 Mveh" in printed
    assert "y_inf     = 0.000000 Mveh" in printed


def test_sensitivity_degenerate_point_exits_1(tmp_path):
    # exactly on the zero-discriminant surface: no fixed point to report
    code = run_cli(
        "sensitivity", "--mu_h", "0", "--mu_c", "0.5", "--epsilon", "0.25",
        "--gamma_c", "0.25", "--gamma_h", "0.5", "--a", "0.05", "--out", str(tmp_path),
    )
    assert code == 1


@pytest.mark.parametrize("flags", [
    ("--a", "1e-323", "--gamma_h", "0.001"),  # 2*a*gamma_h underflows to zero
    ("--a", "1e-320"),  # y_inf overflows
])
def test_sensitivity_subnormal_rates_are_a_model_failure(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert run_cli("sensitivity", *flags, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("model failure: no finite competition equilibrium")
    assert not (out / "gradients.csv").exists()


@pytest.mark.parametrize("flags", [("--a", "1e200"), ("--mu_h", "1e300")])
def test_sensitivity_overflowing_discriminant_is_a_model_failure(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert run_cli("sensitivity", *flags, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("model failure: the discriminant overflows a float")
    assert not (out / "gradients.csv").exists()


# ------------------------------------------------------------------ infra

def test_infra_s1_and_s4(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("infra", "--id", "S1", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "stations per year     8750" in printed
    header, rows = read_rows(out / "infra_S1.csv")
    assert rows[0][:4] == ["S1", "40", "8750", "262500"]

    assert run_cli("infra", "--id", "S4", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "stations per year     525" in printed
    assert "total stations        15750" in printed


def test_infra_uptake_scales(tmp_path):
    out = tmp_path / "o"
    assert run_cli("infra", "--id", "S2", "--uptake", "0.70", "--out", str(out)) == 0
    _, rows = read_rows(out / "infra_S2.csv")
    assert abs(int(rows[0][2]) - 2 * 2625) <= 1


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_infra_non_finite_uptake_exits_2(tmp_path, capsys, value):
    out = tmp_path / "o"
    assert run_cli("infra", "--id", "S2", "--uptake", value, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: --uptake must be finite, got {value}\n"
    assert not out.exists()


def test_infra_invalid_id_exits_2(tmp_path):
    assert run_cli("infra", "--id", "S9", "--out", str(tmp_path)) == 2


# ------------------------------------------------------------------ batch

def test_batch_runs_all_scenarios(tmp_path):
    out = tmp_path / "o"
    assert run_cli("batch", "--out", str(out)) == 0
    for name in ("low", "moderate", "aggressive"):
        assert (out / f"{name}.csv").exists()
    header, rows = read_rows(out / "batch_targets.csv")
    assert header[0] == "scenario"
    assert {r[0] for r in rows} == {"low", "moderate"}


# ----------------------------------------------------------- environment

def test_fleetdyn_out_env_var(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("FLEETDYN_OUT", str(target))
    assert run_cli("infra", "--id", "S1") == 0
    assert (target / "infra_S1.csv").exists()


def test_out_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FLEETDYN_OUT", str(tmp_path / "env_out"))
    flag_dir = tmp_path / "flag_out"
    assert run_cli("infra", "--id", "S1", "--out", str(flag_dir)) == 0
    assert (flag_dir / "infra_S1.csv").exists()
    assert not (tmp_path / "env_out").exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_text("")
    assert run_cli("batch", "--out", str(existing)) == 2
    assert "--out" in capsys.readouterr().err
    assert existing.read_text() == ""


def test_config_only_on_commands_that_read_it(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("uptake = 0.9\n")
    out = str(tmp_path / "o")
    assert run_cli("infra", "--id", "S2", "--config", str(cfg), "--out", out) == 2
    assert run_cli("batch", "--config", str(tmp_path / "missing.cfg"), "--out", out) == 2
    assert run_cli("fit", "--data", "x.csv", "--config", str(cfg), "--out", out) == 2
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------- module runner

def test_python_m_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-m", "fleetdyn", "sensitivity", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "stability = monotone-equilibrium" in result.stdout
    helpres = subprocess.run(
        [sys.executable, "-m", "fleetdyn", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert helpres.returncode == 0
    assert "growth" in helpres.stdout and "infra" in helpres.stdout
