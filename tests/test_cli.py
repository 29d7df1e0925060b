"""Command-line interface: flags, config files, exit codes, output files."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import anywhere, anywhere_or_zero
from fleetdyn import (
    DegenerateCaseError,
    GrowthParams,
    LvmParams,
    ParseError,
    ValidationError,
    asymptotic_state,
    classify_stability,
    fit_growth,
    growth_closed_form,
    load_fleet_csv,
    pseudo_log,
    sensitivity_conventional,
    sensitivity_hydrogen,
)
from fleetdyn.analytics import PARAM_NAMES
from fleetdyn.cli import COMMANDS, REQUIRED, build_parser, main, resolve
from fleetdyn.infrastructure import (HFC_VEHICLE, SCENARIO_BINDINGS, SMALL_STATION,
                                     vehicles_per_station_exact)
from fleetdyn.scenarios import BUILTIN_SCENARIO_NAMES

SRC = str(Path(__file__).resolve().parents[1] / "src")
UK_CSV = str(Path(SRC) / "fleetdyn" / "data" / "uk_fleet_rac.csv")


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


def test_growth_invalid_usage_exits_2(tmp_path, capsys):
    out = str(tmp_path / "o")
    base = ["growth", "--mu", "0.65", "--n0", "0.38", "--out", out]
    assert run_cli(*base, "--gamma", "0.01", "--t0", "2020", "--t1", "2000") == 2
    assert run_cli(*base, "--gamma", "0", "--t0", "1960", "--t1", "2020") == 2
    assert run_cli(*base, "--gamma", "0.01", "--t0", "1960") == 2  # missing t1
    capsys.readouterr()
    assert run_cli("growth", "--gamma", "x") == 2  # one line, no usage text
    assert capsys.readouterr().err == "error: --gamma: could not convert string to float: 'x'\n"


def test_a_repeated_flag_takes_its_last_text(tmp_path, capsys):
    # argparse keeps the last text of a repeated flag, and only that one is converted
    base = ["growth", "--mu", "0.65", "--n0", "0.38", "--t0", "1960", "--t1", "2020",
            "--out", str(tmp_path / "o")]
    assert run_cli(*base, "--gamma", "x", "--gamma", "0.01") == 0
    assert "fleet at 2020.0: 29.53" in capsys.readouterr().out
    assert run_cli(*base, "--gamma", "0.01", "--gamma", "x") == 2
    assert capsys.readouterr().err == "error: --gamma: could not convert string to float: 'x'\n"


def test_growth_non_finite_horizon_or_step_exits_2(tmp_path, capsys):
    base = ["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38", "--t0", "1960",
            "--out", str(tmp_path / "o")]
    assert run_cli(*base, "--t1", "inf") == 2
    assert capsys.readouterr().err == "error: --t1 must be finite, got inf\n"
    assert run_cli(*base, "--t1", "2020", "--dt", "inf") == 2
    assert capsys.readouterr().err == "error: --dt must be positive and finite, got inf\n"
    assert not (tmp_path / "o").exists()


def test_growth_step_count_over_cap_exits_2(tmp_path, capsys):
    code = run_cli(
        "growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
        "--t0", "2020", "--t1", "2100", "--dt", "1e-9", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert capsys.readouterr().err == ("error: --dt = 1e-09 needs 8e+10 steps from 2020.0 to "
                                       "2100.0; at most 1000000 are allowed\n")


@pytest.mark.parametrize("argv, span", [
    (["growth", "--gamma", "1e-20", "--mu", "0", "--n0", "1", "--t0", "0", "--t1", "1000001",
      "--dt", "500000"], "0.0 to 1000001.0"),
    (["scenario", "--gamma_c", "1e-13", "--gamma_h", "1e-13", "--a", "1e-15", "--epsilon",
      "1e-15", "--mu_c", "0", "--mu_h", "0", "--t_end", "1002021", "--dt", "500000"],
     "2020.0 to 1002021.0"),
])
def test_yearly_rows_over_cap_exit_2(tmp_path, capsys, argv, span):
    # three RK4 steps, but one more whole year than the yearly output may hold
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: the span from {span} holds 1000002 "
                                       "yearly rows; at most 1000001 are allowed\n")
    assert list(out.iterdir()) == []


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
    assert capsys.readouterr().err == "error: --t_end (2010.0) must exceed --t0 (2020.0)\n"


def test_growth_non_finite_start_names_the_flag(tmp_path, capsys):
    code = run_cli(
        "growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
        "--t0", "inf", "--t1", "2020", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --t0 must be finite, got inf\n"


_CUSTOM = ["--gamma_c", "0.01", "--gamma_h", "0.01", "--a", "0.005", "--epsilon", "0.005",
           "--mu_c", "0.65", "--mu_h", "0.35"]
_GROWTH = ["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38"]
_BELOW_RESOLUTION = "1e-14 is below the time resolution 4.547473508864641e-13 from 2020.0 to "


@pytest.mark.parametrize("argv, line, message", [
    # a span that does not run forward
    ([*_GROWTH, "--t0", "2000", "--t1", "1990"], None,
     "--t1 (1990.0) must exceed --t0 (2000.0)"),
    ([*_GROWTH, "--t0", "2000"], "t1 = 1990",
     "{cfg}: line 1: t1 (1990.0) must exceed --t0 (2000.0)"),
    (["scenario", *_CUSTOM, "--t0", "2100"], None,
     "--t_end (2100.0) must exceed --t0 (2100.0)"),
    (["scenario", *_CUSTOM], "t0 = 2100",
     "--t_end (2100.0) must exceed {cfg}: line 1: t0 (2100.0)"),
    # more steps than the cap
    ([*_GROWTH, "--t0", "2020", "--t1", "2100", "--dt", "1e-9"], None,
     "--dt = 1e-09 needs 8e+10 steps from 2020.0 to 2100.0; at most 1000000 are allowed"),
    (["scenario", *_CUSTOM], "dt = 1e-12",
     "{cfg}: line 1: dt = 1e-12 needs 8e+13 steps from 2020.0 to 2100.0; "
     "at most 1000000 are allowed"),
    # a step too small to tell grid times apart
    ([*_GROWTH, "--t0", "2020", "--t1", "2020.000000001", "--dt", "1e-14"], None,
     "--dt = " + _BELOW_RESOLUTION + "2020.000000001"),
    (["scenario", *_CUSTOM, "--t_end", "2020.000000001"], "dt = 1e-14",
     "{cfg}: line 1: dt = " + _BELOW_RESOLUTION + "2020.000000001"),
], ids=["span-flag", "span-config", "span-default", "span-config-t0", "cap-flag", "cap-config",
        "resolution-flag", "resolution-config"])
def test_grid_refusals_name_the_flag_or_config_line(tmp_path, capsys, argv, line, message):
    # the grid rule runs once every value has passed its own rule, before the command
    cfg = tmp_path / "c.cfg"
    if line is not None:
        cfg.write_text(line + "\n")
        argv = [*argv, "--config", str(cfg)]
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, value", [
    (["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "-1", "--t0", "1960", "--t1", "2020"],
     "--n0", "-1.0"),
    (["scenario", *_CUSTOM, "--y0", "-1"], "--y0", "-1.0"),
    (["scenario", *_CUSTOM, "--x0", "-2.5", "--y0", "-1"], "--x0", "-2.5"),
])
def test_negative_initial_fleet_names_the_flag(tmp_path, capsys, argv, flag, value):
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} must be non-negative and finite, got {value}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, text, key, line", [
    ("growth", "gamma = 0.01\nmu = 0.65\nn0 = -2\nt0 = 1960\nt1 = 2020\n", "n0", 3),
    ("scenario", "x0 = 28.95\n# hydrogen\ny0 = -0.5\n", "y0", 3),
])
def test_negative_initial_fleet_names_the_config_line(tmp_path, capsys, command, text, key,
                                                      line):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert run_cli(*argv, *(_CUSTOM if command == "scenario" else [])) == 2
    value = float(text.split(f"{key} = ")[1].split()[0])
    assert capsys.readouterr().err == (
        f"error: {cfg}: line {line}: {key} must be non-negative and finite, got {value}\n"
    )


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

def test_scenario_step_beyond_the_span_writes_the_one_step_run(tmp_path):
    # a dt of 1e12 spans or more is one step of the span, as a dt of 80 is
    custom = ["scenario", "--gamma_c", "0.01", "--gamma_h", "0.01", "--a", "0.005",
              "--epsilon", "0.005", "--mu_c", "0.65", "--mu_h", "0.35"]
    for dt in ("1e14", "80"):
        assert run_cli(*custom, "--dt", dt, "--out", str(tmp_path / dt)) == 0
    assert (tmp_path / "1e14" / "custom.csv").read_bytes() == (
        tmp_path / "80" / "custom.csv").read_bytes()


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


def test_scenario_unknown_name_exits_2(tmp_path, capsys):
    assert run_cli("scenario", "--name", "fast", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        "error: --name: 'fast' is not one of low, moderate, aggressive\n")


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
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 2: mu_h must be non-negative and finite, got nan\n")


@pytest.mark.parametrize("raw, line, offset", [
    (b"mu_c = 0.5\nmu_h = 0.\xff\n", 2, 20),
    (b"mu_c = 0.5\r\n# caf\xe9\r\nmu_h = 0.3\r\n", 2, 17),
    (b"mu_c = 0.5\rmu_h = 0.3\r\xc3", 3, 22),
])
def test_config_that_is_not_utf8_names_file_and_line(tmp_path, capsys, raw, line, offset):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(raw)
    assert run_cli("sensitivity", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line {line}: not UTF-8 text, ")
    assert err.endswith(f" at byte {offset}\n")
    assert not (tmp_path / "o").exists()


def test_config_lines_end_as_in_a_text_file(tmp_path):
    cfg = tmp_path / "endings.cfg"
    cfg.write_bytes(b"mu_h = 0.3\r\n\rmu_c = 0.4\r# a = 1\n\x0ca = 0.02\n")
    args = build_parser().parse_args(["sensitivity", "--config", str(cfg)])
    resolve(args, COMMANDS["sensitivity"])
    assert (args.mu_h, args.mu_c, args.a) == (0.3, 0.4, 0.02)
    assert args.given == {"mu_h": f"{cfg}: line 1: mu_h", "mu_c": f"{cfg}: line 3: mu_c",
                          "a": f"{cfg}: line 5: a"}


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


# Values every command runs from: each required parameter, and a custom scenario's model.
_VALID = {
    "growth": {"gamma": "0.01", "mu": "0.65", "n0": "0.38", "t0": "1960", "t1": "2020"},
    "scenario": {flag[2:]: text for flag, text in zip(_CUSTOM[::2], _CUSTOM[1::2])},
    "sensitivity": {},
    "infra": {"id": "S1"},
}


def _outside_the_rule(param):
    """Texts of values that break param.rule: nan and inf for a float, past
    the float range for an int, and 0 or -1 where the rule's lower end is 0 or more."""
    lo, _, _ = param.rule
    values = ["nan", "inf"] if param.type is float else [str(10**310)]
    if lo >= 0:
        values.append("0" if lo > 0 else "-1")
    return values


def test_every_numeric_param_has_a_range_rule():
    assert [(cmd, p.name) for cmd, c in COMMANDS.items() for p in c.params
            if (p.type in (float, int)) != (p.rule is not None)] == []
    assert set(_VALID) == {cmd for cmd, c in COMMANDS.items()
                           if any(p.rule for p in c.params)}


@pytest.mark.parametrize("cmd, param, value, source", [
    (cmd, p, value, source)
    for cmd, c in COMMANDS.items() for p in c.params if p.rule
    for value in _outside_the_rule(p)
    for source in ("flag", "config")[:1 + c.config]
], ids=lambda v: v.name if hasattr(v, "rule") else v[:6])
def test_a_value_outside_its_range_rule_names_its_flag_or_config_line(
        tmp_path, capsys, cmd, param, value, source):
    out = tmp_path / "o"
    flags = {**_VALID[cmd], param.name: value}
    if source == "config":
        cfg = tmp_path / "range.cfg"
        cfg.write_text(f"# out of range\n{param.name} = {flags.pop(param.name)}\n")
        flags["config"] = str(cfg)
        where = f"{cfg}: line 2: {param.name}"
    else:
        where = f"--{param.name}"
    argv = [cmd, *(a for key, text in flags.items() for a in (f"--{key}", text))]
    assert run_cli(*argv, "--out", str(out)) == 2
    text = param.rule[2].format(where, param.type(value))
    assert capsys.readouterr().err == f"error: {text}\n"
    assert text.startswith(f"{where} must be ")
    assert not out.exists()


def _bad_texts(param):
    """Texts param refuses before its range rule: no number or no choice, an
    empty value, and a near miss (a float for an int, a choice with its case swapped)."""
    near = param.choices[0].swapcase() if param.choices else "1.5" if param.type is int else "0x1"
    return ["x", "", near]


def _resolve_message(argv, cfg=None, error=ParseError):
    """The text of the error resolve raises for argv, with --config cfg if given."""
    args = build_parser().parse_args(argv)
    if cfg is not None:  # resolve reads a config line alike for every command
        args.config = str(cfg)
    with pytest.raises(error) as refused:
        resolve(args, COMMANDS[argv[0]])
    return str(refused.value)


def _valid_flags(cmd, but):
    """Flags giving cmd's _VALID values, all but the one named."""
    return [a for key, value in _VALID[cmd].items() if key != but for a in (f"--{key}", value)]


_TYPED = [(cmd, p) for cmd, c in COMMANDS.items() for p in c.params
          if p.type is not str or p.choices]


@pytest.mark.parametrize("cmd, param, text", [
    (cmd, p, text) for cmd, p in _TYPED for text in _bad_texts(p)
], ids=lambda v: v.name if hasattr(v, "rule") else v or "empty")
def test_a_bad_text_is_worded_alike_as_a_flag_and_as_a_config_line(tmp_path, capsys, cmd,
                                                                  param, text):
    others = _valid_flags(cmd, but=param.name)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# one key\n{param.name} = {text}\n")
    try:  # the conversion's own words, else the choice refusal
        param.type(text)
    except ValueError as exc:
        rest, error = str(exc), ParseError
    else:
        rest, error = f"{text!r} is not one of {', '.join(param.choices)}", ValidationError
    assert _resolve_message([cmd, *others, f"--{param.name}", text],
                            error=error) == f"--{param.name}: {rest}"
    assert _resolve_message([cmd, *others], cfg, error) == f"{cfg}: line 2: {param.name}: {rest}"
    # and through main: exit 2, the one message, nothing written
    out = tmp_path / "o"
    argv = [cmd, *others, f"--{param.name}", text, "--out", str(out)]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: --{param.name}: {rest}\n"
    if COMMANDS[cmd].config:
        assert run_cli(cmd, *others, "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: {param.name}: {rest}\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd, param", _TYPED, ids=lambda v: v if isinstance(v, str) else v.name)
def test_a_good_text_resolves_alike_as_a_flag_and_as_a_config_line(tmp_path, cmd, param):
    text = param.choices[-1] if param.choices else "1"  # 1 passes every range rule
    others = _valid_flags(cmd, but=param.name)
    cfg = tmp_path / "good.cfg"
    cfg.write_text(f"{param.name} = {text}\n")
    by_flag = build_parser().parse_args([cmd, *others, f"--{param.name}", text])
    by_line = build_parser().parse_args([cmd, *others])
    by_line.config = str(cfg)
    for args in (by_flag, by_line):
        resolve(args, COMMANDS[cmd])
    value = getattr(by_flag, param.name)
    assert (type(value), repr(value)) == (param.type, repr(param.type(text)))
    assert (type(getattr(by_line, param.name)), repr(getattr(by_line, param.name))) == (
        type(value), repr(value))


@pytest.mark.parametrize("value", ["-1e3", "-1.5E-3", "-.5e2", "-1e+3", "-2.", "-1", "-1.5",
                                   "-inf", "-Infinity", "-nan"])
def test_a_negative_number_in_any_float_form_is_a_flag_value(value):
    args = build_parser().parse_args([*_GROWTH, "--t1", "2020", "--t0", value])
    assert args.t0 == value  # argparse keeps the text; resolve converts it
    if math.isfinite(float(value)):
        resolve(args, COMMANDS["growth"])
        assert repr(args.t0) == repr(float(value))
    else:  # t0's rule refuses it, showing the float the text converted to
        with pytest.raises(ValidationError) as refused:
            resolve(args, COMMANDS["growth"])
        assert str(refused.value) == f"--t0 must be finite, got {float(value)!r}"


@pytest.mark.parametrize("value", ["-e3", "-1e", "-.", "-1.5.2", "-x1", "-in", "-nanx"])
def test_a_dash_word_that_is_not_a_number_is_still_an_option(value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["growth", "--t0", value])
    assert exc.value.code == 2
    assert "argument --t0: expected one argument" in capsys.readouterr().err


def test_exponent_negatives_run_or_are_refused_by_the_range_rule(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
                   "--t0", "-1e3", "--t1", "-9.9e2", "--out", str(out)) == 0
    _, rows = read_rows(out / "growth.csv")
    assert (rows[0][0], rows[-1][0], len(rows)) == ("-1000", "-990", 11)
    capsys.readouterr()
    assert run_cli("scenario", *_CUSTOM, "--x0", "-1e-300", "--out", str(tmp_path / "s")) == 2
    assert capsys.readouterr().err == "error: --x0 must be non-negative and finite, got -1e-300\n"
    assert run_cli("scenario", *_CUSTOM, "--t0", "-inf", "--out", str(tmp_path / "s")) == 2
    assert capsys.readouterr().err == "error: --t0 must be finite, got -inf\n"
    assert not (tmp_path / "s").exists()


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


def test_fit_with_fewer_than_three_rows_names_the_file(tmp_path, capsys):
    csv = tmp_path / "short.csv"
    csv.write_text("year,fleet_mveh\n1971,8.0\n1976,9.0\n")
    assert run_cli("fit", "--data", str(csv), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: {csv}: fit needs at least 3 data points\n"
    assert not (tmp_path / "o").exists()


def test_fit_missing_file_exits_2(tmp_path):
    assert run_cli("fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 2


def test_fit_data_that_is_not_utf8_names_file_and_line(tmp_path, capsys):
    csv = tmp_path / "latin.csv"
    csv.write_bytes(b"year,fleet_mveh\n1971,8.0\n1976,10.0\xff\n1981,nan\n")
    assert run_cli("fit", "--data", str(csv), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}: line 3: not UTF-8 text, invalid start byte at byte 34\n"
    )
    assert not (tmp_path / "o").exists()


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


def test_sensitivity_degenerate_point_exits_1(tmp_path, capsys):
    for i, flags in enumerate([
        # the transcritical point on delta = 0: the fixed point (2, 0) exists, but det J = 0
        ("--mu_h", "0", "--mu_c", "0.5", "--epsilon", "0.25", "--gamma_c", "0.25",
         "--gamma_h", "0.5", "--a", "0.05"),
        # x* underflows to 0 and J22 = -mu_h / y* = -0, so det J = 0
        ("--gamma_h", "1e-162", "--epsilon", "1e162", "--mu_c", "1e-20", "--mu_h", "0",
         "--a", "1e200"),
        # J11 = -gamma_c - a y* overflows, so det J = inf * 0 = nan
        ("--mu_h", "0", "--gamma_h", "1e-200", "--epsilon", "1e200", "--a", "1e200"),
    ]):
        out = tmp_path / str(i)
        assert run_cli("sensitivity", *flags, "--out", str(out)) == 1, flags
        err = capsys.readouterr().err
        assert err.startswith("model failure: det J = ") and "not in (0, inf)" in err, flags
        assert not (out / "gradients.csv").exists()


def test_sensitivity_underflowing_discriminant_has_a_fixed_point(tmp_path, capsys):
    # delta = 1e-340 underflows to 0, yet x* = 1e-90, y* = 1e-80 and
    # det J = a eps x* y* = 1e-170 are floats.
    out = tmp_path / "o"
    assert run_cli(
        "sensitivity", "--gamma_c", "1e-90", "--gamma_h", "1e-90", "--a", "1", "--epsilon", "1",
        "--mu_c", "1e-170", "--mu_h", "0", "--out", str(out),
    ) == 0
    assert capsys.readouterr().out.startswith("delta     = 0.000000e+00\n")
    _, rows = read_rows(out / "gradients.csv")
    assert float(rows[0][1]) == pytest.approx(1e90, rel=1e-9)  # d y*/d mu_h = -J11 / det J


@pytest.mark.parametrize("flags", [
    ("--a", "1e-323", "--gamma_h", "0.001"),  # 2*a*gamma_h underflows to zero
    ("--a", "1e-320"),  # y_inf overflows
])
def test_sensitivity_subnormal_rates_are_a_model_failure(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert run_cli("sensitivity", *flags, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("model failure: no finite competition equilibrium")
    assert not (out / "gradients.csv").exists()


def test_sensitivity_overflowed_rate_product_is_a_model_failure(tmp_path, capsys):
    # gamma_c*gamma_h overflows and would zero both asymptotes, which are
    # about 1e-160, and then name det J = inf at the wrong fixed point (0, 0)
    out = tmp_path / "o"
    assert run_cli("sensitivity", "--gamma_c", "1e160", "--gamma_h", "1e160",
                   "--mu_c", "1", "--mu_h", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("model failure: no finite competition equilibrium")
    assert not (out / "gradients.csv").exists()


@pytest.mark.parametrize("flags, y_inf", [
    (("--a", "1e200"), 65.0),  # x_inf = 1e-202
    (("--mu_h", "1e300"), 1e302),  # x_inf = 6.5e-301
], ids=["a", "mu_h"])
def test_sensitivity_overflowing_discriminant_has_finite_asymptotes(tmp_path, capsys, flags, y_inf):
    # delta is above the float range, but sqrt(delta) and the asymptotes are not.
    out = tmp_path / "o"
    assert run_cli("sensitivity", *flags, "--out", str(out)) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()[:4])
    assert printed["delta    "] == "inf"
    assert printed["x_inf    "] == "0.000000 Mveh"
    assert float(printed["y_inf    "].removesuffix(" Mveh")) == pytest.approx(y_inf, rel=1e-12)
    assert (out / "gradients.csv").exists()


def test_sensitivity_solves_the_fixed_point_once(tmp_path, solve_calls):
    assert run_cli("sensitivity", "--out", str(tmp_path)) == 0
    assert solve_calls == [(0.01, 0.01, 0.01, 0.01, 0.65, 0.65)]


def _reference_sensitivity(p, out):
    """sensitivity's (exit code, stdout, stderr, gradients.csv or None),
    assembled from the four public analytics calls in the order it made them
    when each solved the fixed point itself."""
    try:
        eq = asymptotic_state(p)
        stability = classify_stability(p)
        grad_h = sensitivity_hydrogen(p)
        grad_c = sensitivity_conventional(p)
    except DegenerateCaseError as exc:
        return 1, "", f"model failure: {exc}\n", None
    path = Path(out) / "gradients.csv"
    csv = "param,grad_hydrogen,grad_conventional,plog_hydrogen,plog_conventional\n" + "".join(
        f"{name},{grad_h[name]:.6e},{grad_c[name]:.6e},"
        f"{pseudo_log(grad_h[name]):.6f},{pseudo_log(grad_c[name]):.6f}\n" for name in PARAM_NAMES)
    stdout = (f"delta     = {eq.delta:.6e}\nx_inf     = {eq.x_inf:.6f} Mveh\n"
              f"y_inf     = {eq.y_inf:.6f} Mveh\ntotal     = {eq.total:.6f} Mveh\n"
              f"stability = {stability.value}\nwrote {path}\n")
    return 0, stdout, "", csv


# The domain of test_analytics.py::test_finite_fixed_point_and_signed_gradients_or_refusal.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.builds(LvmParams, anywhere, anywhere, anywhere, anywhere,
                 anywhere_or_zero, anywhere_or_zero))
@example(LvmParams(0.25, 0.5, 0.05, 0.25, 0.5, 0.0))  # the transcritical point: det J = 0
@example(LvmParams(1e160, 1e160, 0.01, 0.01, 0.65, 0.65))  # gamma_c gamma_h overflows
@example(LvmParams(0.01, 0.01, 1e200, 0.01, 0.65, 1e200))  # a mu_h overflows, still a failure
def test_sensitivity_writes_what_the_four_public_calls_give(p):
    argv = [arg for name in PARAM_NAMES for arg in (f"--{name}", repr(getattr(p, name)))]
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()) as stdout, \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(["sensitivity", *argv, "--out", out])
        path = Path(out) / "gradients.csv"
        written = path.read_text() if path.exists() else None
        expected = _reference_sensitivity(p, out)
    assert (code, stdout.getvalue(), stderr.getvalue(), written) == expected


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
    assert capsys.readouterr().err == (
        f"error: --uptake must be positive and finite, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--uptake", "1e303", "uptake 1e+303 Mveh/year at 40 vehicles per station needs more "
     "stations a year than a float holds"),
    ("--uptake", "1e300", "uptake 1e+300 Mveh/year needs 2.5e+304 stations a year, whose "
     "capex is beyond the float range"),
    ("--utilization", "0.001", "utilization 0.001 leaves 0.04 vehicles per station; a station "
     "must support at least one whole vehicle"),
    ("--horizon", str(10**300), f"horizon {10**300} years at GBP 8.75e+09 a year puts the "
     "total capex beyond the float range"),
    ("--horizon", str(10**310), f"--horizon must be positive and finite, got {10**310}"),
], ids=["count-overflow", "capex-overflow", "under-one-vehicle", "total-capex-inf",
        "horizon-beyond-float"])
def test_infra_refuses_an_overflowing_plan(tmp_path, capsys, flag, value, message):
    out = tmp_path / "o"
    assert run_cli("infra", "--id", "S1", flag, value, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_infra_invalid_id_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("infra", "--id", "S9", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: --id: 'S9' is not one of S1, S2, S3, S4\n"
    assert not out.exists()


def test_cli_choices_are_the_library_tables():
    # cli does not import infrastructure, so --id and --basis spell out the
    # library's choices; these must stay the tables the library accepts.
    choices = {p.name: p.choices for c in COMMANDS.values() for p in c.params if p.choices}
    assert choices.keys() == {"id", "basis", "name"}
    assert choices["id"] == tuple(SCENARIO_BINDINGS)
    assert choices["name"] is BUILTIN_SCENARIO_NAMES
    for basis in choices["basis"]:
        assert vehicles_per_station_exact(SMALL_STATION, HFC_VEHICLE, basis) > 0
    with pytest.raises(ValidationError) as refused:
        vehicles_per_station_exact(SMALL_STATION, HFC_VEHICLE, "weekly")
    assert str(refused.value) == f"basis: 'weekly' is not one of {', '.join(choices['basis'])}"


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


OUTPUTS = [
    (["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38", "--t0", "1960",
      "--t1", "2100"], "growth.csv"),
    (["scenario", "--name", "low", "--targets"], "low_targets.csv"),
    (["fit", "--data", UK_CSV], "fit.csv"),
    (["sensitivity"], "gradients.csv"),
    (["infra", "--id", "S2"], "infra_S2.csv"),
    (["batch"], "batch_targets.csv"),
]


@pytest.mark.parametrize("argv, name", OUTPUTS)
def test_output_file_taken_by_a_directory_exits_2(tmp_path, capsys, argv, name):
    (tmp_path / name).mkdir()
    with pytest.raises(IsADirectoryError) as expected:
        open(tmp_path / name, "w")
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {expected.value}\n"


@pytest.mark.parametrize("argv, name", OUTPUTS)
def test_rerun_replaces_longer_files_byte_for_byte(tmp_path, argv, name):
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert name in first
    for p in out.iterdir():
        p.write_bytes(p.read_bytes() * 3 + b"stale\n")
    assert run_cli(*argv, "--out", str(out)) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


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


# In a fresh interpreter: run `python -m fleetdyn` with the given arguments,
# or only `import fleetdyn` without any, and print which of the watched
# modules got loaded.
_WATCHED = ("numpy", "fleetdyn.analytics", "fleetdyn.calibration", "fleetdyn.infrastructure")
_STARTUP_PROBE = f"""\
import runpy, sys
if len(sys.argv) > 1:
    try:
        runpy.run_module("fleetdyn", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
else:
    import fleetdyn
print(" ".join(m for m in {_WATCHED!r} if m in sys.modules))
"""


# Each command loads only the modules it runs: numpy only with calibration,
# which fits with arrays, and analytics or infrastructure only for their command.
@pytest.mark.parametrize("argv, loads", [
    ((), ""),
    (("sensitivity",), "fleetdyn.analytics"),
    (("infra", "--id", "S2"), "fleetdyn.infrastructure"),
    (("--help",), ""),
    (("batch",), ""),
    (("scenario", "--name", "moderate"), ""),
    (("growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38", "--t0", "1960", "--t1", "2020"),
     ""),
    (("fit", "--data", UK_CSV), "numpy fleetdyn.calibration"),
], ids=["import", "sensitivity", "infra", "help", "batch", "scenario", "growth", "fit"])
def test_fresh_process_imports_numpy_only_where_used(tmp_path, argv, loads):
    env = dict(os.environ, PYTHONPATH=SRC, FLEETDYN_OUT=str(tmp_path / "o"))
    result = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == loads


def test_fresh_import_loads_no_submodule_and_no_numpy(tmp_path):
    # perfbench's set-up times exactly this child for every workload, so
    # whatever it loads beyond the package's __init__ counts against setup_s.
    probe = ("import sys, fleetdyn; print(sorted(m for m in sys.modules "
             "if m.startswith('fleetdyn.') or m.partition('.')[0] == 'numpy'))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------------------------ fuzz

# Odd values for any flag: the float range's edges and beyond, ints past
# it and text that is no number.
_ODD = ["nan", "inf", "-inf", "1e308", "-1e308", "1e309", "5e-324", "1" + "0" * 29,
        "-1" + "0" * 29, "", "x", None]  # None leaves the flag out
_RATES = ["0.01", "0.005", "0.5", "0.65", "0"]
# Ordinary values for each fuzzed flag. Every span is at most about 2100
# years and every step at least 0.1, so no run takes more than about 21000 RK4 steps.
_ORDINARY = {
    "growth": {"gamma": _RATES, "mu": _RATES, "n0": ["0.38", "0", "65"],
               "t0": ["1960", "2020"], "t1": ["2050", "2100"],
               "dt": ["0.1", "1", "80", "1e14"]},
    "scenario": {**dict.fromkeys(["gamma_c", "gamma_h", "a", "epsilon", "mu_c", "mu_h"], _RATES),
                 "x0": ["28.95", "0"], "y0": ["0", "1"], "t0": ["2020", "1960"],
                 "t_end": ["2100", "2050"], "dt": ["0.1", "1", "80", "1e14"]},
    "sensitivity": dict.fromkeys(["gamma_c", "gamma_h", "a", "epsilon", "mu_c", "mu_h"], _RATES),
    "infra": {"id": ["S1", "S4", "S9"], "uptake": ["0.35", "0", "2"], "horizon": ["30", "1"],
              "basis": ["daily", "annual"], "utilization": ["1", "0.5"]},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ORDINARY)))
    flags = _ORDINARY[command]
    values = {flag: draw(st.sampled_from(ordinary)) for flag, ordinary in flags.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        values[flag] = draw(st.sampled_from(_ODD))
    return [command, *(arg for flag, value in values.items() if value is not None
                       for arg in (f"--{flag}", value))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_no_argv_raises_or_writes_a_non_finite_number(argv):
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", out]) in (0, 1, 2)
        cells = [cell for path in Path(out).iterdir()
                 for line in path.read_text().splitlines() for cell in line.split(",")]
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            continue
        assert math.isfinite(value), (argv, cell)


# Input files for `fit --data` and `--config`. A config gives each key of its
# command an ordinary value, odd values to up to three keys, and may leave a
# key out or add an unknown, duplicate or `novalue` line. Spans reach one year
# past the yearly-row cap (1002021 from 2020) and no further; the 500000-year
# step crosses such a span in three steps.
_PAST_CAP = "1002021"
_LVM_VALUES = {**dict.fromkeys(["gamma_c", "gamma_h", "a", "epsilon"], _RATES[:-1]),
               "mu_c": _RATES, "mu_h": _RATES}
_FRAME = {"t0": ["1960", "2020"], "dt": ["0.1", "1", "80", "500000", "1e14"]}
_CONFIG = {
    "growth": {"gamma": _RATES[:-1], "mu": _RATES, "n0": ["0.38", "0", "65"],
               "t1": ["2050", "2100", _PAST_CAP], **_FRAME},
    "scenario": {"name": [None] * 6 + ["moderate", "x"], **_LVM_VALUES,
                 "x0": ["28.95", "0"], "y0": ["0", "1"], "t_end": ["2100", "2050", _PAST_CAP],
                 **_FRAME},
    "sensitivity": _LVM_VALUES,
}
_HEADERS = ["year,fleet_mveh"] * 4 + [" Year , FLEET_MVEH ", "year,fleet",
                                      "year,fleet_mveh,extra", ""]
_DEFECTS = ["odd year", "odd fleet", "repeat", "blank", "1 field", "3 fields"]
_FLEET = ["0.38", "20", "29.5", "65", "1e-3"]


@st.composite
def _config_file(draw, command):
    keys = _CONFIG[command]
    values = {key: draw(st.sampled_from(pool)) for key, pool in keys.items()}
    for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=3, unique=True)):
        values[key] = draw(st.sampled_from(_ODD))
    lines = [f"{key} = {value}" for key, value in values.items() if value is not None]
    extra = draw(st.sampled_from([None] * 4 + ["unknown = 1", "duplicate", "novalue"]))
    if extra is not None:
        line = draw(st.sampled_from(lines)) if extra == "duplicate" and lines else extra
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@st.composite
def _fleet_data(draw):
    # a series of up to eight rows, then up to two defective lines inserted anywhere
    year = draw(st.integers(1960, 2000))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        lines.append(f"{year},{draw(st.sampled_from(_FLEET))}")
        year += draw(st.sampled_from([1, 1, 1, 5]))
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)):
        odd = draw(st.sampled_from([*_ODD[:-1], _PAST_CAP]))
        line = {"odd year": f"{odd},20", "odd fleet": f"{year},{odd}", "repeat":
                lines[-1] if lines else "", "blank": "", "1 field": str(year),
                "3 fields": f"{year},20,20"}[defect]
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join([draw(st.sampled_from(_HEADERS)), *lines]) + "\n"


@pytest.mark.parametrize("command", ["fit", *_CONFIG])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_no_input_file_raises_or_writes_a_non_finite_number(command, data):
    text = data.draw(_fleet_data() if command == "fit" else _config_file(command))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path, out = Path(tmp) / "input", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        flag = "--data" if command == "fit" else "--config"
        assert main([command, flag, str(path), "--out", str(out)]) in (0, 1, 2)
        cells = [cell for written in (out.iterdir() if out.exists() else ())
                 for line in written.read_text().splitlines() for cell in line.split(",")]
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            continue
        assert math.isfinite(value), (command, text, cell)


# Byte sequences that are not UTF-8 wherever they stand in ASCII text: a stray
# continuation byte, bytes never used, cut-off sequences and a surrogate.
_NOT_UTF8 = [b"\x80", b"\xff", b"\xfe\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


@pytest.mark.parametrize("command", ["fit", *_CONFIG])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_input_file_that_is_not_utf8_exits_2(command, data):
    # the files of the test above, with a byte sequence that is not UTF-8 inserted
    raw = data.draw(_fleet_data() if command == "fit" else _config_file(command)).encode()
    at = data.draw(st.integers(0, len(raw)))
    raw = raw[:at] + data.draw(st.sampled_from(_NOT_UTF8)) + raw[at:]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path, out = Path(tmp) / "input", Path(tmp) / "out"
        path.write_bytes(raw)
        flag = "--data" if command == "fit" else "--config"
        assert main([command, flag, str(path), "--out", str(out)]) == 2, (command, raw)
        assert not out.exists()
    assert err.getvalue().startswith(f"error: {path}: line "), (command, raw)
    assert "not UTF-8 text" in err.getvalue(), (command, raw)
