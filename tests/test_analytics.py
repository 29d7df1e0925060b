"""Equilibrium formulas, stability classification and the analytic
sensitivity gradients against the finite-difference oracle."""

import math
from dataclasses import fields
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_lvm_params
from fleetdyn import (
    DegenerateCaseError,
    FleetState,
    LvmParams,
    NoFixedPointError,
    OracleError,
    StabilityClass,
    ValidationError,
    asymptotic_state,
    classify_stability,
    discriminant,
    finite_difference_sensitivity,
    integrate,
    modified_system,
    pseudo_log,
    sensitivity_conventional,
    sensitivity_hydrogen,
)
from fleetdyn.analytics import PARAM_NAMES

MODERATE = LvmParams(gamma_c=0.01, gamma_h=0.01, a=0.005, epsilon=0.005, mu_c=0.65, mu_h=0.35)
# A focus: the Jacobian at the fixed point has eigenvalues -0.0147 +- 0.0102i.
FOCUS = LvmParams(gamma_c=0.0079, gamma_h=0.0185, a=0.0012, epsilon=0.0024, mu_c=0.103, mu_h=0.087)


def hand_discriminant(p):
    """Direct six-term evaluation, the oracle for the packaged formula."""
    return (
        p.a**2 * p.mu_h**2
        + 2 * p.a * p.epsilon * p.mu_c * p.mu_h
        + 2 * p.a * p.gamma_c * p.gamma_h * p.mu_h
        + p.epsilon**2 * p.mu_c**2
        + p.gamma_c**2 * p.gamma_h**2
        - 2 * p.epsilon * p.gamma_c * p.gamma_h * p.mu_c
    )


# ------------------------------------------------------------ discriminant

def test_discriminant_published_parameter_sets(tab_grad_params):
    assert discriminant(tab_grad_params) == pytest.approx(1.6901e-4, rel=1e-10)
    assert discriminant(MODERATE) == pytest.approx(2.471e-5, rel=1e-10)


def test_discriminant_zero_sources_leaves_squared_term():
    p = LvmParams(gamma_c=0.3, gamma_h=0.2, a=0.1, epsilon=0.4, mu_c=0.0, mu_h=0.0)
    assert discriminant(p) == pytest.approx((0.3 * 0.2) ** 2, rel=1e-12)


def test_discriminant_matches_hand_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_lvm_params(rng)
        assert discriminant(p) == pytest.approx(hand_discriminant(p), rel=1e-12, abs=1e-300)


def test_discriminant_finite_where_its_terms_overflow():
    # B = eps mu_c and G = gamma_c gamma_h are 1e200: B^2, G^2 and 2BG
    # overflow, but they cancel and delta = 4AG + A^2 is a finite float.
    p = LvmParams(gamma_c=1e100, gamma_h=1e100, a=1e-100, epsilon=1e100, mu_c=1e100, mu_h=1.0)
    assert discriminant(p) == pytest.approx(4e100, rel=1e-12)
    with pytest.raises(DegenerateCaseError, match="discriminant overflows"):
        discriminant(LvmParams(0.01, 0.01, 1e200, 0.01, 0.65, 0.65))


def test_discriminant_monotone_in_mu_h_and_a():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_lvm_params(rng)
        up_mu = LvmParams(p.gamma_c, p.gamma_h, p.a, p.epsilon, p.mu_c, p.mu_h * 1.7)
        up_a = LvmParams(p.gamma_c, p.gamma_h, p.a * 1.7, p.epsilon, p.mu_c, p.mu_h)
        assert discriminant(up_mu) >= discriminant(p)
        assert discriminant(up_a) >= discriminant(p)


def test_discriminant_nonnegative_for_valid_params():
    # (eps mu_c - gamma_c gamma_h)^2 plus mu_h times positive terms: the
    # oscillatory regime cannot be reached from the valid parameter domain.
    rng = np.random.default_rng(7)
    for _ in range(200):
        assert discriminant(random_lvm_params(rng)) >= 0.0


# ---------------------------------------------------------------- stability

def test_classify_stability_monotone_for_scenarios(tab_grad_params):
    for p in (
        tab_grad_params,
        MODERATE,
        LvmParams(0.01, 0.01, 0.001, 0.001, 0.65, 0.05),
        LvmParams(0.01, 0.01, 0.01, 0.01, 0.65, 0.65),
    ):
        assert classify_stability(p) is StabilityClass.MONOTONE_EQUILIBRIUM


def test_degenerate_discriminant_raises():
    # eps*mu_c == gamma_c*gamma_h with mu_h = 0 sits exactly on delta = 0;
    # dyadic values keep the float evaluation exactly zero too.
    p = LvmParams(gamma_c=0.25, gamma_h=0.5, a=0.05, epsilon=0.25, mu_c=0.5, mu_h=0.0)
    assert discriminant(p) == 0.0
    with pytest.raises(NoFixedPointError):
        classify_stability(p)


def fd_jacobian(p):
    """Central-difference Jacobian of the modified_system field at the fixed point.

    The rates are quadratic, so central differences are exact up to rounding
    for any step; a step of 1e-3 of each coordinate keeps rounding small.
    """
    eq = asymptotic_state(p)
    z = np.array([eq.x_inf, eq.y_inf])
    field = modified_system(p)
    jac = np.empty((2, 2))
    for j in range(2):
        h = 1e-3 * max(z[j], 1e-6)
        step = np.eye(2)[j] * h
        jac[:, j] = (np.array(field(*(z + step)))
                     - np.array(field(*(z - step)))) / (2 * h)
    return jac


rate = st.floats(-3.0, 0.0).map(lambda e: 10.0**e)
source = st.floats(0.01, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.builds(LvmParams, rate, rate, rate, rate, source, source))
def test_focus_exactly_when_eigenvalues_are_complex(p):
    jac = fd_jacobian(p)
    trace, det = np.trace(jac), np.linalg.det(jac)
    assume(abs(trace**2 - 4 * det) > 1e-6 * trace**2)
    complex_pair = bool(np.any(np.linalg.eigvals(jac).imag != 0))
    focus = classify_stability(p) is StabilityClass.DAMPED_OSCILLATION
    assert focus == complex_pair


def sign_changes_of_x_deviation(p):
    """How often x - x* changes sign over 1500 years from the 2020 UK state."""
    traj = integrate(modified_system(p), FleetState(0.0, 28.95, 0.0), 1500.0, 0.5)
    signs = np.sign(traj.x - asymptotic_state(p).x_inf)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def test_focus_spirals_and_node_does_not():
    # The focus has a period of about 616 years; over 1500 years its
    # deviation stays far above rounding.
    assert classify_stability(FOCUS) is StabilityClass.DAMPED_OSCILLATION
    assert sign_changes_of_x_deviation(FOCUS) >= 2
    assert classify_stability(MODERATE) is StabilityClass.MONOTONE_EQUILIBRIUM
    assert sign_changes_of_x_deviation(MODERATE) <= 1


# -------------------------------------------------------------- equilibrium

def test_asymptotic_state_published_values(tab_grad_params):
    eq = asymptotic_state(tab_grad_params)
    assert eq.x_inf == pytest.approx(0.498, abs=1e-3)
    assert eq.y_inf == pytest.approx(129.502, abs=1e-3)
    assert eq.total == pytest.approx(130.0, rel=1e-12)
    mod = asymptotic_state(MODERATE)
    assert mod.x_inf == pytest.approx(1.291, abs=1e-3)
    assert mod.y_inf == pytest.approx(98.709, abs=1e-3)
    assert mod.total == pytest.approx(100.0, rel=1e-12)


def test_asymptotic_state_matches_printed_formulas():
    # The stable evaluation must agree with the direct transcription.
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 100:
        p = random_lvm_params(rng)
        delta = discriminant(p)
        if delta <= 0:
            continue
        sq = math.sqrt(delta)
        num_x = p.a * p.mu_h + p.epsilon * p.mu_c + p.gamma_c * p.gamma_h - sq
        num_y = p.a * p.mu_h + p.epsilon * p.mu_c - p.gamma_c * p.gamma_h + sq
        direct_x = num_x / (2 * p.epsilon * p.gamma_c)
        direct_y = num_y / (2 * p.a * p.gamma_h)
        eq = asymptotic_state(p)
        # the direct form loses precision in proportion to its cancellation
        scale = p.a * p.mu_h + p.epsilon * p.mu_c + p.gamma_c * p.gamma_h + sq
        tol_x = max(1e-9, 1e-12 * scale / max(num_x, 1e-300))
        tol_y = max(1e-9, 1e-12 * scale / max(num_y, 1e-300))
        assert eq.x_inf == pytest.approx(direct_x, rel=tol_x, abs=1e-300)
        assert eq.y_inf == pytest.approx(direct_y, rel=tol_y, abs=1e-300)
        checked += 1


def test_asymptotic_state_against_long_integration(tab_grad_params):
    eq = asymptotic_state(tab_grad_params)
    traj = integrate(
        modified_system(tab_grad_params), FleetState(0.0, 28.95, 0.0), 5000.0, 0.1
    )
    assert abs(traj.final.x - eq.x_inf) < 1e-6
    assert abs(traj.final.y - eq.y_inf) < 1e-6


def test_symmetric_sum_rule():
    rng = np.random.default_rng(9)
    for _ in range(50):
        gamma = 10 ** rng.uniform(-3, 0)
        rate = 10 ** rng.uniform(-3, 0)
        mu_c, mu_h = rng.uniform(0.01, 1.0, size=2)
        p = LvmParams(gamma, gamma, rate, rate, mu_c, mu_h)
        eq = asymptotic_state(p)
        assert eq.total == pytest.approx((mu_c + mu_h) / gamma, rel=1e-12)


def test_asymptotic_state_zero_sources_is_origin():
    p = LvmParams(gamma_c=0.01, gamma_h=0.01, a=0.01, epsilon=0.01, mu_c=0.0, mu_h=0.0)
    eq = asymptotic_state(p)
    assert eq.x_inf == 0.0
    assert eq.y_inf == 0.0


def test_asymptotic_state_errors():
    p = LvmParams(gamma_c=0.25, gamma_h=0.5, a=0.05, epsilon=0.25, mu_c=0.5, mu_h=0.0)
    with pytest.raises(NoFixedPointError):
        asymptotic_state(p)  # delta == 0 here
    degenerate = SimpleNamespace(
        gamma_c=0.01, gamma_h=0.01, a=0.0, epsilon=0.01, mu_c=0.5, mu_h=0.5
    )
    with pytest.raises(DegenerateCaseError):
        asymptotic_state(degenerate)


# ---------------------------------------------------------------- gradients

def test_hydrogen_gradient_published_value(tab_grad_params):
    grad = sensitivity_hydrogen(tab_grad_params)
    delta = discriminant(tab_grad_params)
    sq = math.sqrt(delta)
    expected = (0.01 * 0.65 + 0.01 * 0.65 + 0.01 * 0.01 + sq) / (2 * 0.01 * sq)
    assert grad.d_mu_h == pytest.approx(expected, rel=1e-12)
    assert grad.d_mu_h == pytest.approx(100.4, abs=0.05)
    assert [f.name for f in fields(grad)] == ["d_" + name for name in PARAM_NAMES]
    assert grad["mu_h"] == grad.d_mu_h


def test_gradients_match_finite_differences(tab_grad_params):
    fd_h, fd_c = finite_difference_sensitivity(tab_grad_params, 1e-5)
    an_h = sensitivity_hydrogen(tab_grad_params)
    an_c = sensitivity_conventional(tab_grad_params)
    for name in PARAM_NAMES:
        for an, fd in ((an_h, fd_h), (an_c, fd_c)):
            assert abs(an[name] - fd[name]) / max(abs(an[name]), abs(fd[name])) < 1e-6


def decimal_asymptotes(q):
    """(x_inf, y_inf) from the closed forms in the current decimal context."""
    a, eps, gc, gh, mc, mh = (q[k] for k in ("a", "epsilon", "gamma_c", "gamma_h", "mu_c", "mu_h"))
    gg = gc * gh
    coupling = a * mh + eps * mc
    sq = ((eps * mc - gg) ** 2 + mh * (a * a * mh + 2 * a * eps * mc + 2 * a * gg)).sqrt()
    x_inf = 2 * gh * mc / (coupling + gg + sq)
    if coupling >= gg:
        y_inf = (coupling - gg + sq) / (2 * a * gh)
    else:
        y_inf = 2 * gc * mh / (sq + gg - coupling)
    return x_inf, y_inf


def decimal_gradients(p):
    """50-digit central differences of the closed forms: (hydrogen, conventional)."""
    with localcontext() as ctx:
        ctx.prec = 50
        base = {name: Decimal(getattr(p, name)) for name in PARAM_NAMES}
        grad_h, grad_c = {}, {}
        for name in PARAM_NAMES:
            h = base[name] * Decimal("1e-20")
            x_plus, y_plus = decimal_asymptotes({**base, name: base[name] + h})
            x_minus, y_minus = decimal_asymptotes({**base, name: base[name] - h})
            grad_h[name] = float((y_plus - y_minus) / (2 * h))
            grad_c[name] = float((x_plus - x_minus) / (2 * h))
    return grad_h, grad_c


def wide_lvm_params(rng):
    """Rates log-uniform on [1e-4, 10], sources on [0.01, 1]."""
    return LvmParams(*(10.0 ** rng.uniform(-4, 1, size=4)), *rng.uniform(0.01, 1.0, size=2))


@pytest.mark.parametrize("draw, seed", [(random_lvm_params, 7), (wide_lvm_params, 3)])
def test_gradients_match_decimal_reference(draw, seed):
    # Every component, however small beside the others, to 1e-12 relative.
    rng = np.random.default_rng(seed)
    for _ in range(200):
        p = draw(rng)
        ref_h, ref_c = decimal_gradients(p)
        for grad, ref in ((sensitivity_hydrogen(p), ref_h), (sensitivity_conventional(p), ref_c)):
            for name in PARAM_NAMES:
                assert grad[name] == pytest.approx(ref[name], rel=1e-12, abs=0), (p, name)


def test_gradient_signs_published_pattern(tab_grad_params):
    h = sensitivity_hydrogen(tab_grad_params)
    c = sensitivity_conventional(tab_grad_params)
    # hydrogen asymptote rises with either supply chain, falls with its
    # own decay, the attack rate and the conventional decay
    assert h.d_mu_h > 0 and h.d_mu_c > 0 and h.d_epsilon > 0
    assert h.d_a < 0 and h.d_gamma_h < 0 and h.d_gamma_c < 0
    # conventional asymptote falls with the hydrogen supply chain
    assert c.d_mu_h < 0 and c.d_mu_c > 0
    assert c.d_epsilon < 0 and c.d_a < 0 and c.d_gamma_h > 0 and c.d_gamma_c < 0


def test_supply_chain_signs_hold_across_samples():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 100:
        p = random_lvm_params(rng)
        if discriminant(p) <= 0:
            continue
        checked += 1
        h = sensitivity_hydrogen(p)
        c = sensitivity_conventional(p)
        assert h.d_mu_h > 0
        assert h.d_mu_c > 0
        assert c.d_mu_h < 0
        sq = math.sqrt(discriminant(p))
        sign_term = -p.a * p.mu_h - p.epsilon * p.mu_c + p.gamma_c * p.gamma_h + sq
        assert c.d_mu_c * sign_term >= 0


def test_gradients_require_fixed_point():
    p = LvmParams(gamma_c=0.25, gamma_h=0.5, a=0.05, epsilon=0.25, mu_c=0.5, mu_h=0.0)
    with pytest.raises(NoFixedPointError):
        sensitivity_hydrogen(p)
    with pytest.raises(NoFixedPointError):
        sensitivity_conventional(p)


# --------------------------------------------------------- finite differences

def test_fd_symmetric_total_gradient_is_inverse_rate():
    # In the collapsed symmetric model d(x_inf + y_inf)/d mu_h = 1/gamma.
    p = LvmParams(gamma_c=0.01, gamma_h=0.01, a=0.005, epsilon=0.005, mu_c=0.65, mu_h=0.35)
    fd_h, fd_c = finite_difference_sensitivity(p, 1e-6)
    assert fd_h.d_mu_h + fd_c.d_mu_h == pytest.approx(100.0, rel=1e-6)


def test_fd_error_decreases_quadratically(tab_grad_params):
    an = sensitivity_hydrogen(tab_grad_params)
    errs = []
    for h_rel in (1e-2, 1e-3):
        fd_h, _ = finite_difference_sensitivity(tab_grad_params, h_rel)
        errs.append(max(abs(fd_h[n] - an[n]) / abs(an[n]) for n in PARAM_NAMES))
    assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.3)


def test_fd_rejects_invalid_step_and_invalid_region():
    p = LvmParams(gamma_c=0.1, gamma_h=0.1, a=0.05, epsilon=0.0100001, mu_c=1.0, mu_h=0.0)
    # delta > 0 but within h of the delta = 0 surface: oracle must refuse
    with pytest.raises(OracleError):
        finite_difference_sensitivity(p, 1e-2)
    with pytest.raises(ValidationError):
        finite_difference_sensitivity(p, -1e-6)


# ---------------------------------------------------------------- pseudo log

def test_pseudo_log_values():
    assert pseudo_log(0.0) == 0.0
    assert pseudo_log(100.4) == pytest.approx(math.log10(101.4), rel=1e-12)
    assert pseudo_log(100.4) == pytest.approx(2.006, abs=5e-4)
    assert pseudo_log(-99.0) == -2.0
    assert pseudo_log(-5.0) == -pseudo_log(5.0)


def test_pseudo_log_monotone_and_continuous():
    xs = np.linspace(-50, 50, 401)
    ys = np.array([pseudo_log(x) for x in xs])
    assert np.all(np.diff(ys) > 0)
    assert abs(pseudo_log(1e-9)) < 1e-8
