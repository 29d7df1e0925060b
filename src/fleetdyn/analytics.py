"""Closed-form equilibrium, stability classification and parameter
sensitivities of the competition model.

Setting both rates of change to zero reduces the fixed point to a quadratic
in each fleet. The two quadratics share one discriminant delta, reported as
Equilibrium.delta, and it is never negative: the fixed point always exists.
Everything else is read off the Jacobian J of the rates there, and needs
0 < det J < inf: its trace and determinant separate a node (monotone
approach) from a focus (damped oscillation), and the implicit function
theorem gives the twelve analytic gradients of the asymptotes, which are
paired with an independent central-difference verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dynamics import _FMAX, LvmParams
from .errors import DegenerateCaseError, OracleError, ValidationError

__all__ = [
    "Equilibrium",
    "SensitivityVector",
    "StabilityClass",
    "PARAM_NAMES",
    "classify_stability",
    "asymptotic_state",
    "sensitivity_hydrogen",
    "sensitivity_conventional",
    "finite_difference_sensitivity",
    "pseudo_log",
]

# Reporting order for per-parameter quantities.
PARAM_NAMES = ("mu_h", "mu_c", "epsilon", "a", "gamma_h", "gamma_c")


class StabilityClass(Enum):
    """How trajectories approach the (always stable) fixed point."""

    MONOTONE_EQUILIBRIUM = "monotone-equilibrium"  # node: real eigenvalues
    DAMPED_OSCILLATION = "damped-oscillation"  # focus: complex eigenvalues


@dataclass(frozen=True)
class Equilibrium:
    """Asymptotic fleet sizes (Mveh) and the discriminant they derive from.

    delta = (a mu_h + eps mu_c - gamma_c gamma_h)^2 + 4 a mu_h gamma_c gamma_h
    is zero only at the transcritical point mu_h = 0, eps mu_c = gamma_c
    gamma_h, and inf where delta itself is above the float range.
    """

    x_inf: float
    y_inf: float
    delta: float

    @property
    def total(self) -> float:
        return self.x_inf + self.y_inf


@dataclass(frozen=True)
class SensitivityVector:
    """Partial derivatives of one asymptote w.r.t. each model parameter."""

    d_mu_h: float
    d_mu_c: float
    d_epsilon: float
    d_a: float
    d_gamma_h: float
    d_gamma_c: float

    def __getitem__(self, param: str) -> float:
        return getattr(self, "d_" + param)


def _coefficients(p: LvmParams) -> list[float]:
    """p's six coefficients in field order: gamma_c, gamma_h, a, epsilon, mu_c, mu_h."""
    return [p.gamma_c, p.gamma_h, p.a, p.epsilon, p.mu_c, p.mu_h]


def _root_discriminant(gamma_c, gamma_h, a, epsilon, mu_c, mu_h) -> float:
    """sqrt(delta) without forming delta: with A = a mu_h, B = eps mu_c and
    G = gamma_c gamma_h, delta = (A + B - G)^2 + 4AG, so sqrt(delta) is
    hypot(A + B - G, 2 sqrt(A) sqrt(G)), which squares nothing."""
    a_mu, g_g = a * mu_h, gamma_c * gamma_h
    return math.hypot(a_mu + epsilon * mu_c - g_g, 2.0 * math.sqrt(a_mu) * math.sqrt(g_g))


def asymptotic_state(p: LvmParams) -> Equilibrium:
    """Closed-form asymptotic fleet sizes (the fixed point exists for every delta >= 0).

    x_inf = (a mu_h + eps mu_c + gamma_c gamma_h - sqrt(delta)) / (2 eps gamma_c)
    y_inf = (a mu_h + eps mu_c - gamma_c gamma_h + sqrt(delta)) / (2 a gamma_h)

    Both are evaluated through their conjugate forms where the direct
    subtraction would cancel: with s = a mu_h + eps mu_c and g = gamma_c
    gamma_h, the exact identities (s + g)^2 - delta = 4 g eps mu_c and
    delta - (s - g)^2 = 4 g a mu_h turn the differences into quotients of
    positive sums, so the equilibrium is accurate to rounding even when a
    fleet's asymptote is many orders below the coefficient scale. sqrt(delta)
    is taken without forming delta, so it stays finite where delta overflows
    (a = 1e200 gives y_inf = 65 Mveh at the other defaults) or underflows.

    Raises DegenerateCaseError where the rates are so small or so large
    that an asymptote is not a finite float, or where an overflowed
    denominator would round to 0 an asymptote that a positive source keeps positive.
    """
    x_inf, y_inf, sq = _asymptotes(p)
    return Equilibrium(x_inf=x_inf, y_inf=y_inf, delta=sq * sq)


def _asymptotes(p: LvmParams) -> tuple[float, float, float]:
    """asymptotic_state's (x_inf, y_inf, sqrt(delta)), without building an Equilibrium."""
    return _solve(*_coefficients(p))


def _solve(gamma_c, gamma_h, a, epsilon, mu_c, mu_h) -> tuple[float, float, float]:
    """_asymptotes of the six coefficients, which must pass LvmParams' rules."""
    sq = _root_discriminant(gamma_c, gamma_h, a, epsilon, mu_c, mu_h)
    coupling = a * mu_h + epsilon * mu_c
    gg = gamma_c * gamma_h
    # sq >= |coupling - gg| keeps y's second denominator positive; the
    # other two are zero only where every product in them underflows.
    x_den = coupling + gg + sq
    x_inf = 2.0 * gamma_h * mu_c / x_den if x_den else math.inf
    if coupling >= gg:
        y_den = 2.0 * a * gamma_h
        y_inf = (coupling - gg + sq) / y_den if y_den else math.inf
    else:
        y_den = sq + gg - coupling
        y_inf = 2.0 * gamma_c * mu_h / y_den
    if (not (math.isfinite(x_inf) and math.isfinite(y_inf))
            or x_den == math.inf and mu_c > 0 or y_den == math.inf and mu_h > 0):
        raise DegenerateCaseError(f"no finite competition equilibrium for a = {a}, "
                                  f"epsilon = {epsilon}, gamma_h = {gamma_h}")
    return x_inf, y_inf, sq


def _linearise(p: LvmParams):
    """The fixed point (x*, y*), the Jacobian J of the rates there, and det J.

    J = [[-gamma_c - a y*, -a x*], [eps y*, eps x* - gamma_h]]. Where y* > 0
    the fixed-point condition turns J22 into -mu_h / y*, free of the
    cancellation in eps x* - gamma_h, so det = J11 J22 + a eps x* y* is a
    sum of positive terms. Raises DegenerateCaseError unless 0 < det < inf;
    det = 0 at the transcritical point, where the fixed point is not hyperbolic.
    """
    x, y, _ = _asymptotes(p)
    j11 = -p.gamma_c - p.a * y
    j12 = -p.a * x
    j21 = p.epsilon * y
    j22 = -p.mu_h / y if y > 0 else p.epsilon * x - p.gamma_h
    det = j11 * j22 - j12 * j21
    if not 0 < det < math.inf:
        raise DegenerateCaseError(f"det J = {det} at the fixed point ({x}, {y}), not in (0, inf)")
    return x, y, (j11, j12), (j21, j22), det


def classify_stability(p: LvmParams) -> StabilityClass:
    """Node or focus, from the trace and determinant of the Jacobian.

    The trace is negative and the determinant positive, so the fixed point
    is stable: a node (monotone approach) when tr^2 >= 4 det, a focus
    (damped oscillation) otherwise. Raises DegenerateCaseError where det J
    is not a positive finite float.
    """
    _, _, (j11, _), (_, j22), det = _linearise(p)
    trace = j11 + j22
    if trace * trace >= 4.0 * det:
        return StabilityClass.MONOTONE_EQUILIBRIUM
    return StabilityClass.DAMPED_OSCILLATION


def _gradient(x: float, y: float, r1: float, r2: float) -> SensitivityVector:
    """One asymptote's gradient at the fixed point (x, y) from its row (r1, r2) of -J^-1.

    By the implicit function theorem d(x*, y*)/dp = -J^-1 dF/dp, and for
    every parameter dF/dp has a single nonzero entry: mu_h (0, 1), mu_c
    (1, 0), epsilon (0, x* y*), a (-x* y*, 0), gamma_h (0, -y*), gamma_c
    (-x*, 0). Each component is then one product, with no subtraction; a
    non-finite one raises DegenerateCaseError.
    """
    grad = (r2, r1, r2 * x * y, -r1 * x * y, -r2 * y, -r1 * x)
    if not all(map(math.isfinite, grad)):
        raise DegenerateCaseError(f"a gradient at the fixed point ({x}, {y}) is not finite")
    return SensitivityVector(*grad)


def sensitivity_hydrogen(p: LvmParams) -> SensitivityVector:
    """Analytic gradient of the hydrogen asymptote y_inf."""
    x, y, (j11, _), (j21, _), det = _linearise(p)
    return _gradient(x, y, j21 / det, -j11 / det)


def sensitivity_conventional(p: LvmParams) -> SensitivityVector:
    """Analytic gradient of the conventional asymptote x_inf."""
    x, y, (_, j12), (_, j22), det = _linearise(p)
    return _gradient(x, y, -j22 / det, j12 / det)


def finite_difference_sensitivity(
    p: LvmParams, h_rel: float = 1e-5
) -> tuple[SensitivityVector, SensitivityVector]:
    """Central-difference gradients of the asymptotes, (hydrogen, conventional).

    Each parameter is perturbed by h = h_rel * max(|value|, 1e-8). This is
    the independent verifier for the analytic gradients; it only evaluates
    the closed-form asymptotes, never the closed-form derivatives.

    A probe changes one coefficient of p, so it is checked against that
    coefficient's rule alone and solved on the six floats; only a probe that
    breaks the rule builds the LvmParams whose refusal the OracleError
    carries. Each + probe is checked and solved before its - probe.
    """
    if not h_rel > 0:
        raise ValidationError(f"h_rel must be positive, got {h_rel}")

    base = _coefficients(p)
    grads_h, grads_c = [], []
    # PARAM_NAMES is the field order reversed; the last two fields are the sources
    for i, name in zip(range(5, -1, -1), PARAM_NAMES):
        h = h_rel * max(abs(base[i]), 1e-8)
        solved = []
        for v in (base[i] + h, base[i] - h):
            probe = base.copy()
            probe[i] = v
            if not (0 < v <= _FMAX or v == 0 and i > 3):
                try:
                    LvmParams(*probe)
                except ValidationError as exc:
                    raise OracleError(
                        f"perturbing {name} by {h} leaves the parameter domain: {exc}") from exc
            solved.append(_solve(*probe))
        (x_plus, y_plus, _), (x_minus, y_minus, _) = solved
        grads_h.append((y_plus - y_minus) / (2.0 * h))
        grads_c.append((x_plus - x_minus) / (2.0 * h))
    return SensitivityVector(*grads_h), SensitivityVector(*grads_c)


def pseudo_log(g: float) -> float:
    """Signed pseudo-log display transform: sign(g) * log10(1 + |g|).

    Continuous at zero, identity-signed, and compresses large magnitudes
    for bar-chart display. Applied at presentation time only; gradients
    are stored in raw dimensional form.
    """
    return math.copysign(math.log10(1.0 + abs(g)), g)
