"""Equilibrium formulas, stability classification and the analytic
sensitivity gradients against the finite-difference oracle."""

import math
import re
from dataclasses import fields
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import anywhere, anywhere_or_zero, bits, random_lvm_params
from fleetdyn import (
    DegenerateCaseError,
    FleetState,
    LvmParams,
    OracleError,
    SensitivityVector,
    StabilityClass,
    ValidationError,
    asymptotic_state,
    classify_stability,
    finite_difference_sensitivity,
    integrate,
    modified_system,
    pseudo_log,
    sensitivity_conventional,
    sensitivity_hydrogen,
)
from fleetdyn.analytics import PARAM_NAMES, _linearise

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
    assert asymptotic_state(tab_grad_params).delta == pytest.approx(1.6901e-4, rel=1e-10)
    assert asymptotic_state(MODERATE).delta == pytest.approx(2.471e-5, rel=1e-10)


def test_discriminant_zero_sources_leaves_squared_term():
    p = LvmParams(gamma_c=0.3, gamma_h=0.2, a=0.1, epsilon=0.4, mu_c=0.0, mu_h=0.0)
    assert asymptotic_state(p).delta == pytest.approx((0.3 * 0.2) ** 2, rel=1e-12)


def test_discriminant_matches_hand_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_lvm_params(rng)
        delta = asymptotic_state(p).delta
        assert delta == pytest.approx(hand_discriminant(p), rel=1e-12, abs=1e-300)


def test_discriminant_finite_where_its_terms_overflow():
    # B = eps mu_c and G = gamma_c gamma_h are 1e200: B^2, G^2 and 2BG
    # overflow, but they cancel and delta = 4AG + A^2 is a finite float.
    p = LvmParams(gamma_c=1e100, gamma_h=1e100, a=1e-100, epsilon=1e100, mu_c=1e100, mu_h=1.0)
    assert asymptotic_state(p).delta == pytest.approx(4e100, rel=1e-12)
    # At a = 1e200 delta itself (about 4.2e399) is above the float range,
    # yet sqrt(delta) is not, and both asymptotes are finite.
    eq = asymptotic_state(LvmParams(0.01, 0.01, 1e200, 0.01, 0.65, 0.65))
    assert eq.delta == math.inf
    assert eq.y_inf == pytest.approx(65.0, rel=1e-12)
    assert eq.x_inf == pytest.approx(1e-202, rel=1e-12)


def test_discriminant_monotone_in_mu_h_and_a():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_lvm_params(rng)
        up_mu = LvmParams(p.gamma_c, p.gamma_h, p.a, p.epsilon, p.mu_c, p.mu_h * 1.7)
        up_a = LvmParams(p.gamma_c, p.gamma_h, p.a * 1.7, p.epsilon, p.mu_c, p.mu_h)
        assert asymptotic_state(up_mu).delta >= asymptotic_state(p).delta
        assert asymptotic_state(up_a).delta >= asymptotic_state(p).delta


def test_discriminant_nonnegative_for_valid_params():
    # (eps mu_c - gamma_c gamma_h)^2 plus mu_h times positive terms: the
    # oscillatory regime cannot be reached from the valid parameter domain.
    rng = np.random.default_rng(7)
    for _ in range(200):
        assert asymptotic_state(random_lvm_params(rng)).delta >= 0.0


# ---------------------------------------------------------------- stability

def test_classify_stability_monotone_for_scenarios(tab_grad_params):
    for p in (
        tab_grad_params,
        MODERATE,
        LvmParams(0.01, 0.01, 0.001, 0.001, 0.65, 0.05),
        LvmParams(0.01, 0.01, 0.01, 0.01, 0.65, 0.65),
    ):
        assert classify_stability(p) is StabilityClass.MONOTONE_EQUILIBRIUM


# eps*mu_c == gamma_c*gamma_h with mu_h = 0 sits exactly on delta = 0, the
# transcritical point: the fixed point (gamma_h/eps, 0) exists, det J = 0.
# Dyadic values keep the float evaluation exact too.
TRANSCRITICAL = LvmParams(gamma_c=0.25, gamma_h=0.5, a=0.05, epsilon=0.25, mu_c=0.5, mu_h=0.0)


def test_degenerate_discriminant_raises():
    assert asymptotic_state(TRANSCRITICAL).delta == 0.0
    with pytest.raises(DegenerateCaseError, match=r"det J = 0\.0"):
        classify_stability(TRANSCRITICAL)


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
    signs = np.sign(np.asarray(traj.x) - asymptotic_state(p).x_inf)
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
    for _ in range(100):
        p = random_lvm_params(rng)
        sq = math.sqrt(asymptotic_state(p).delta)
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


@pytest.mark.parametrize("p", [
    LvmParams(1e160, 1e160, 0.01, 0.01, 1.0, 1.0),  # gamma_c*gamma_h: x*, y* ~ 1e-160
    LvmParams(1e160, 1e160, 0.01, 0.01, 1.0, 0.0),  # the same for x* alone
    LvmParams(0.01, 1e10, 1e300, 0.01, 0.65, 1.0),  # 2*a*gamma_h: y* ~ 1e-10
], ids=["both", "x", "y"])
def test_overflowed_denominator_refuses_instead_of_zeroing(p):
    # A positive source keeps its asymptote positive, so an overflowed
    # denominator that would zero it is refused; without sources (0, 0) is exact.
    with pytest.raises(DegenerateCaseError, match="no finite competition equilibrium"):
        asymptotic_state(p)
    eq = asymptotic_state(LvmParams(p.gamma_c, p.gamma_h, p.a, p.epsilon, 0.0, 0.0))
    assert (eq.x_inf, eq.y_inf) == (0.0, 0.0)


def test_asymptotic_state_errors():
    eq = asymptotic_state(TRANSCRITICAL)  # delta == 0 here, and the fixed point exists
    assert (eq.x_inf, eq.y_inf, eq.delta) == (2.0, 0.0, 0.0)
    degenerate = SimpleNamespace(
        gamma_c=0.01, gamma_h=0.01, a=0.0, epsilon=0.01, mu_c=0.5, mu_h=0.5
    )
    with pytest.raises(DegenerateCaseError):
        asymptotic_state(degenerate)


def _equilibrium_or_refusal(p):
    try:
        return asymptotic_state(p)
    except DegenerateCaseError as exc:
        return str(exc)


int_rate = st.integers(1, 10) | st.integers(0, 308).map(lambda e: 10**e)
int_source = st.just(0) | int_rate


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(int_rate, int_rate, int_rate, int_rate, int_source, int_source))
@example((10**300, 10**300, 1, 1, 1, 1))  # exact int arithmetic overflowed here
@example((1, 1, 1, 1, 1, 1))
def test_int_and_float_inputs_give_the_same_equilibrium_or_refusal(values):
    as_ints, as_floats = LvmParams(*values), LvmParams(*map(float, values))
    assert all(type(v) is float for v in vars(as_ints).values())
    assert _equilibrium_or_refusal(as_ints) == _equilibrium_or_refusal(as_floats)


# ---------------------------------------------------------------- gradients

def test_hydrogen_gradient_published_value(tab_grad_params):
    grad = sensitivity_hydrogen(tab_grad_params)
    delta = asymptotic_state(tab_grad_params).delta
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
    for _ in range(100):
        p = random_lvm_params(rng)
        h = sensitivity_hydrogen(p)
        c = sensitivity_conventional(p)
        assert h.d_mu_h > 0
        assert h.d_mu_c > 0
        assert c.d_mu_h < 0
        sq = math.sqrt(asymptotic_state(p).delta)
        sign_term = -p.a * p.mu_h - p.epsilon * p.mu_c + p.gamma_c * p.gamma_h + sq
        assert c.d_mu_c * sign_term >= 0


def test_gradients_require_fixed_point():
    # a hyperbolic one: at the transcritical point the fixed point exists, but det J = 0
    with pytest.raises(DegenerateCaseError, match=r"det J = 0\.0"):
        sensitivity_hydrogen(TRANSCRITICAL)
    with pytest.raises(DegenerateCaseError, match=r"det J = 0\.0"):
        sensitivity_conventional(TRANSCRITICAL)


@pytest.mark.parametrize("reader", [asymptotic_state, classify_stability, sensitivity_hydrogen,
                                    sensitivity_conventional], ids=lambda f: f.__name__)
def test_each_public_reader_solves_the_fixed_point_once(reader, solve_calls):
    reader(MODERATE)
    assert solve_calls == [(0.01, 0.01, 0.005, 0.005, 0.65, 0.35)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.builds(LvmParams, anywhere, anywhere, anywhere, anywhere,
                 anywhere_or_zero, anywhere_or_zero))
@example(TRANSCRITICAL)
@example(LvmParams(1e-90, 1e-90, 1.0, 1.0, 1e-170, 0.0))  # delta underflows to 0
@example(LvmParams(0.01, 1e-162, 1e200, 1e162, 1e-20, 0.0))  # det J = 0 by underflow
@example(LvmParams(0.01, 1e-200, 1e200, 1e200, 0.65, 0.0))  # det J = inf * 0
@example(LvmParams(1e-200, 1e-200, 0.01, 0.01, 0.0, 0.0))  # every product underflows
@example(LvmParams(1e160, 1e160, 0.01, 0.01, 1.0, 1.0))  # gamma_c*gamma_h overflows
def test_finite_fixed_point_and_signed_gradients_or_refusal(p):
    # Each function returns finite values, with x*, y* >= 0 and the signs
    # that J11 < 0 and det J > 0 force on the gradients, or refuses.
    def returned(f):
        try:
            return f(p)
        except DegenerateCaseError:
            return None

    eq = returned(asymptotic_state)
    if eq is not None:
        assert math.isfinite(eq.x_inf) and eq.x_inf >= 0
        assert math.isfinite(eq.y_inf) and eq.y_inf >= 0
    returned(classify_stability)
    h, c = returned(sensitivity_hydrogen), returned(sensitivity_conventional)
    for grad in (g for g in (h, c) if g is not None):
        assert all(math.isfinite(grad[name]) for name in PARAM_NAMES)
    if h is not None:
        assert h.d_mu_h >= 0
    if c is not None:
        assert c.d_mu_c >= 0 and c.d_mu_h <= 0


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
    # mu_h = 0, so the step mu_h - h leaves the parameter domain: the oracle must refuse
    with pytest.raises(OracleError, match="perturbing mu_h by 1e-10 leaves the parameter domain"):
        finite_difference_sensitivity(p, 1e-2)
    with pytest.raises(ValidationError):
        finite_difference_sensitivity(p, -1e-6)


def _reference_fd(p, h_rel):
    """The verifier built as before the private closed form: one Equilibrium
    from asymptotic_state for each probe."""
    base = {name: getattr(p, name) for name in PARAM_NAMES}
    grads_h, grads_c = {}, {}
    for name in PARAM_NAMES:
        h = h_rel * max(abs(base[name]), 1e-8)
        try:
            plus = asymptotic_state(LvmParams(**{**base, name: base[name] + h}))
            minus = asymptotic_state(LvmParams(**{**base, name: base[name] - h}))
        except ValidationError as exc:
            raise OracleError(
                f"perturbing {name} by {h} leaves the parameter domain: {exc}") from exc
        grads_h["d_" + name] = (plus.y_inf - minus.y_inf) / (2.0 * h)
        grads_c["d_" + name] = (plus.x_inf - minus.x_inf) / (2.0 * h)
    return SensitivityVector(**grads_h), SensitivityVector(**grads_c)


def _fd_outcome(fd, p, h_rel):
    """The gradients' bits, or the refusal's type and text."""
    try:
        grad_h, grad_c = fd(p, h_rel)
    except (DegenerateCaseError, OracleError) as exc:
        return type(exc), str(exc)
    return bits(grad_h[name] for name in PARAM_NAMES) + bits(grad_c[name] for name in PARAM_NAMES)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.builds(LvmParams, anywhere, anywhere, anywhere, anywhere,
                 anywhere_or_zero, anywhere_or_zero)
       | st.builds(LvmParams, rate, rate, rate, rate, source, source),
       st.sampled_from([1e-5, 1e-3, 1e-8]))
@example(MODERATE, 1e-5)
# mu_h = 0: the probe mu_h - h is refused, as test_fd_rejects_invalid_step_and_invalid_region checks
@example(LvmParams(gamma_c=0.1, gamma_h=0.1, a=0.05, epsilon=0.0100001, mu_c=1.0, mu_h=0.0), 1e-2)
def test_fd_verifier_is_the_equilibrium_built_reference(p, h_rel):
    outcome = _fd_outcome(finite_difference_sensitivity, p, h_rel)
    assert outcome == _fd_outcome(_reference_fd, p, h_rel)
    if p.mu_c == 0 or p.mu_h == 0:
        # the probe below a zero source leaves the domain, if no probe before it is degenerate
        assert outcome[0] in (OracleError, DegenerateCaseError)
    # the linearisation that sensitivity reads holds the Equilibrium's bits, or refuses
    try:
        eq = asymptotic_state(p)
    except DegenerateCaseError as exc:
        with pytest.raises(DegenerateCaseError, match=f"^{re.escape(str(exc))}$"):
            _linearise(p)
        return
    try:
        x_inf, y_inf, sq = _linearise(p)[:3]
    except DegenerateCaseError as exc:
        assert str(exc).startswith("det J = "), exc
        return
    assert bits((eq.x_inf, eq.y_inf, eq.delta)) == bits((x_inf, y_inf, sq * sq))


def test_fd_verifier_builds_no_parameters_and_refuses_a_probe_by_its_rule(monkeypatch):
    calls = []
    post_init = LvmParams.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    p = LvmParams(gamma_c=0.1, gamma_h=0.1, a=0.05, epsilon=0.0100001, mu_c=1.0, mu_h=0.0)
    monkeypatch.setattr(LvmParams, "__post_init__", counting)
    finite_difference_sensitivity(MODERATE)
    # mu_h = 0: the probe mu_h - h is the one refused, by mu_h's rule, in LvmParams' words
    with pytest.raises(OracleError) as refused:
        finite_difference_sensitivity(p, 1e-2)
    assert str(refused.value) == ("perturbing mu_h by 1e-10 leaves the parameter domain: "
                                  "mu_h must be non-negative and finite, got -1e-10")
    # h_rel = 1 takes each - probe to exactly 0: in the domain for the
    # sources mu_h and mu_c, solved there, and refused for the first rate
    outcome = _fd_outcome(finite_difference_sensitivity, MODERATE, 1.0)
    assert outcome == (OracleError, "perturbing epsilon by 0.005 leaves the parameter domain: "
                                    "epsilon must be positive and finite, got 0.0")
    assert calls == []
    assert outcome == _fd_outcome(_reference_fd, MODERATE, 1.0)


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
