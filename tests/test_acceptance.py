"""Acceptance suite: the binding numerical criteria for the package.

Each test prints one `[criterion N] ... PASS/FAIL` line (run with -s to
see them alongside the pytest dots). Criteria 2 and 7 each contain one
clause that the implemented model genuinely cannot meet; those clauses
are asserted as specified and fail honestly rather than being weakened
(see the failure detail for the measured values).
"""

import math
from pathlib import Path

import numpy as np

import fleetdyn as fd
from conftest import random_lvm_params
from fleetdyn.analytics import PARAM_NAMES
from fleetdyn.cli import main as cli_main
from fleetdyn.scenarios import BUILTIN_SCENARIO_NAMES


def report(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def test_criterion_1_growth_asymptote():
    failures = []
    p = fd.GrowthParams(gamma=0.01, mu=0.65)
    asymptote = fd.growth_closed_form(p, 0.38, 1e6)
    if abs(asymptote - 65.0) / 65.0 > 1e-9:
        failures.append(f"asymptote {asymptote} != 65 within 1e-9 relative")
    traj = fd.integrate(fd.growth_system(p), fd.FleetState(1960.0, 0.38, 0.0), 2100.0, 0.1)
    end = traj.final.x
    if abs(end - 49.07) > 0.05:
        failures.append(f"fleet at 2100 = {end:.4f}, expected 49.07 +- 0.05")
    if abs(end - 48.5) > 1.0:
        failures.append(f"fleet at 2100 = {end:.4f} not within 1 Mveh of published 48.5")
    report(1, "growth asymptote", failures)


def test_criterion_2_fit_recovery():
    failures = []
    fit = fd.fit_growth(fd.bundled_uk_fleet_series())
    # NOTE: expected to fail. The ten-point series is nearly linear and
    # the least-squares optimum sits at gamma -> 0 (SSR 10.90 there vs
    # 19.37 at gamma = 0.01, decreasing monotonically); no unconstrained
    # fit of this model returns a rate inside the published band.
    if not 0.005 <= fit.params.gamma <= 0.02:
        failures.append(
            f"gamma = {fit.params.gamma:.3e} outside [0.005, 0.02] "
            "(least-squares optimum of this data is the near-linear gamma -> 0 valley)"
        )
    if not 0.4 <= fit.params.mu <= 0.9:
        failures.append(f"mu = {fit.params.mu:.4f} outside [0.4, 0.9]")

    true = fd.GrowthParams(0.01, 0.65)
    years = np.arange(1960, 2021, 5)
    fleet = np.array([fd.growth_closed_form(true, 0.38, float(y - 1960)) for y in years])
    synth = fd.fit_growth(fd.FleetSeries(years, fleet))
    for label, got, want in (
        ("gamma", synth.params.gamma, 0.01),
        ("mu", synth.params.mu, 0.65),
        ("n0", synth.n0, 0.38),
    ):
        if abs(got - want) / want > 1e-3:
            failures.append(f"synthetic round-trip {label} = {got} vs {want}")
    report(2, "fit recovery", failures)


def test_criterion_3_collapse_identity():
    failures = []
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        gamma = 10.0 ** rng.uniform(-3, -1)
        rate = 10.0 ** rng.uniform(-3, math.log10(0.02))
        mu_c, mu_h = rng.uniform(0.01, 1.0, size=2)
        x0, y0 = rng.uniform(0.0, 30.0, size=2)
        p = fd.LvmParams(gamma, gamma, rate, rate, mu_c, mu_h)
        traj = fd.integrate(fd.modified_system(p), fd.FleetState(0.0, x0, y0), 100.0, 0.1)
        gp = fd.GrowthParams(gamma, mu_c + mu_h)
        exact = np.array([fd.growth_closed_form(gp, x0 + y0, t) for t in traj.t])
        worst = max(worst, float(np.max(np.abs(np.asarray(traj.total) - exact) / np.abs(exact))))
    if worst >= 1e-8:
        failures.append(f"worst relative deviation {worst:.3e} >= 1e-8")
    report(3, "collapse identity", failures)


def test_criterion_4_equilibrium_formulas(tab_grad_params):
    failures = []
    eq = fd.asymptotic_state(tab_grad_params)
    if abs(eq.x_inf - 0.498) > 1e-3:
        failures.append(f"x_inf = {eq.x_inf:.6f} not 0.498 +- 1e-3")
    if abs(eq.y_inf - 129.502) > 1e-3:
        failures.append(f"y_inf = {eq.y_inf:.6f} not 129.502 +- 1e-3")
    if abs(eq.total - 130.0) / 130.0 > 1e-9:
        failures.append(f"x_inf + y_inf = {eq.total} != 130 within 1e-9 relative")
    traj = fd.integrate(
        fd.modified_system(tab_grad_params), fd.FleetState(0.0, 28.95, 0.0), 5000.0, 0.1
    )
    if abs(traj.final.x - eq.x_inf) > 1e-6 or abs(traj.final.y - eq.y_inf) > 1e-6:
        failures.append(
            f"t=5000 state ({traj.final.x}, {traj.final.y}) vs formulas "
            f"({eq.x_inf}, {eq.y_inf}) beyond 1e-6 Mveh"
        )
    report(4, "equilibrium formulas", failures)


def _gradient_mismatch(p, h_rel=1e-5, tol=1e-6):
    """Worst mismatch between analytic and central-difference gradients.

    Components are compared relatively, against the larger of the pair or
    the max-norm of that asymptote's gradient vector: components crossing
    zero are exactly the ones whose both evaluations are dominated by
    rounding, and the vector norm is the scale the 1e-6 tolerance is
    meaningful against.
    """
    fd_h, fd_c = fd.finite_difference_sensitivity(p, h_rel)
    worst = 0.0
    for analytic, numeric in (
        (fd.sensitivity_hydrogen(p), fd_h),
        (fd.sensitivity_conventional(p), fd_c),
    ):
        a = np.array([analytic[n] for n in PARAM_NAMES])
        b = np.array([numeric[n] for n in PARAM_NAMES])
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
        for av, bv in zip(a, b):
            worst = max(worst, abs(av - bv) / max(abs(av), abs(bv), scale))
    return worst


def test_criterion_5_gradient_correctness(tab_grad_params):
    failures = []
    worst = _gradient_mismatch(tab_grad_params)
    if worst >= 1e-6:
        failures.append(f"published-parameter gradients mismatch {worst:.3e} >= 1e-6")

    # Every draw has rates >= 1e-3 and sources >= 0.01, so no step of
    # 1e-5 relative leaves the parameter domain.
    rng = np.random.default_rng(7)
    worst_random = 0.0
    for _ in range(100):
        worst_random = max(worst_random, _gradient_mismatch(random_lvm_params(rng)))
    if worst_random >= 1e-6:
        failures.append(f"random-sample gradients mismatch {worst_random:.3e} >= 1e-6")

    hyd = fd.sensitivity_hydrogen(tab_grad_params)
    conv = fd.sensitivity_conventional(tab_grad_params)
    if not (hyd.d_mu_h > 0 and hyd.d_mu_c > 0):
        failures.append("hydrogen supply-chain gradients not positive")
    if not conv.d_mu_h < 0:
        failures.append("conventional asymptote does not fall with hydrogen resources")
    report(5, "gradient correctness", failures)


def test_criterion_6_classical_conservation(orbit_params):
    failures = []
    # t in [0, 20] covers more than two full orbits of this initial condition
    traj = fd.integrate(
        fd.classical_system(orbit_params), fd.FleetState(0.0, 1.5, 0.75), 20.0, 1e-3
    )
    v = np.array([fd.lv_conserved_quantity(s, orbit_params) for s in traj])
    drift = float(np.max(np.abs(v - v[0]) / abs(v[0])))
    if drift >= 1e-6:
        failures.append(f"first-integral drift {drift:.3e} >= 1e-6")
    report(6, "classical conservation", failures)


def test_criterion_7_scenario_targets():
    failures = []
    trajs = {n: fd.run_scenario(fd.builtin_scenario(n)) for n in BUILTIN_SCENARIO_NAMES}
    shares = {n: fd.zev_share(trajs[n], 2050.0) for n in BUILTIN_SCENARIO_NAMES}

    if not 0.87 <= shares["moderate"] <= 0.97:
        failures.append(f"moderate 2050 share {shares['moderate']:.4f} outside [0.87, 0.97]")
    if not 0.05 <= shares["low"] <= 0.15:
        failures.append(f"low 2050 share {shares['low']:.4f} outside [0.05, 0.15]")
    # NOTE: expected to fail. With the decided start (2020, 28.95, 0) and
    # the published aggressive parameters, the conventional fleet is
    # 4.125 Mveh in 2035 and only crosses 1 Mveh around 2066; "barely
    # conventional vehicles by 2035" holds as a share (9.6%) but not as
    # an absolute < 1 Mveh.
    conv_2035 = trajs["aggressive"].sample(2035.0)[0]
    if not conv_2035 < 1.0:
        failures.append(f"aggressive conventional fleet at 2035 = {conv_2035:.4f} >= 1 Mveh")
    if not shares["low"] < shares["moderate"] < shares["aggressive"]:
        failures.append(f"2050 share ordering violated: {shares}")
    report(7, "scenario targets", failures)


def test_criterion_8_infrastructure_arithmetic():
    failures = []
    expectations = {
        "S1": dict(per_year=(8750, 0), total=(262500, 0), capex=8.75e9),
        "S2": dict(per_year=(2625, 7), total=(78750, 210), capex=2.625e9),
        "S3": dict(per_year=(1750, 0), total=None, capex=8.75e9),
        "S4": dict(per_year=(525, 0), total=(15750, 0), capex=2.625e9),
    }
    for sid, want in expectations.items():
        plan = fd.deployment_plan(sid, uptake=0.35, horizon_years=30)
        per, tol = want["per_year"]
        if abs(plan.stations_per_year - per) > tol:
            failures.append(f"{sid} stations/year {plan.stations_per_year} != {per} +- {tol}")
        if want["total"] is not None:
            total, ttol = want["total"]
            if abs(plan.total_stations - total) > ttol:
                failures.append(f"{sid} total {plan.total_stations} != {total} +- {ttol}")
        if abs(plan.annual_capex - want["capex"]) > tol * plan.station.capex:
            failures.append(f"{sid} annual capex {plan.annual_capex:.3e} != {want['capex']:.3e}")

    from fleetdyn.infrastructure import LARGE_STATION

    equiv = fd.petrol_equivalence(20010, LARGE_STATION)
    if abs(equiv.ratio_exact - 13.70) > 0.005:
        failures.append(f"petrol ratio {equiv.ratio_exact:.4f} != 13.70")
    if equiv.rounded_ratio != 14 or abs(equiv.equivalent_at_rounded_ratio - 1429) > 2:
        failures.append(
            f"equivalence at rounded ratio = {equiv.equivalent_at_rounded_ratio} != 1429 +- 2"
        )
    report(8, "infrastructure arithmetic", failures)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    data_csv = Path(fd.__file__).parent / "data" / "uk_fleet_rac.csv"
    commands = [
        ["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
         "--t0", "1960", "--t1", "2020"],
        ["scenario", "--name", "moderate", "--targets"],
        ["fit", "--data", str(data_csv)],
        ["sensitivity"],
        ["infra", "--id", "S2"],
        ["batch"],
    ]
    failures = []
    for argv in commands:
        outputs = []
        for run in ("a", "b"):
            outdir = tmp_path / f"{argv[0]}_{run}"
            code = cli_main([*argv, "--out", str(outdir)])
            stdout = capsys.readouterr().out.replace(str(outdir), "<out>")
            if code != 0:
                failures.append(f"{argv[0]} exited {code}")
            files = {
                f.name: f.read_bytes() for f in sorted(outdir.iterdir())
            }
            outputs.append((stdout, files))
        if outputs[0] != outputs[1]:
            failures.append(f"{argv[0]} output differs between identical runs")
    report(9, "CLI determinism", failures)
