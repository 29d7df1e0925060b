"""Closed-form equilibrium, stability classification and parameter
sensitivities of the competition model.

Setting both rates of change to zero reduces the fixed point to a quadratic
in each fleet; ``discriminant`` is the quadratic discriminant shared by the
two closed forms, and a fixed point exists exactly where it is positive.
Everything else is read off the Jacobian of the rates at that point: its
trace and determinant separate a node (monotone approach) from a focus
(damped oscillation), and the implicit function theorem gives the twelve
analytic gradients of the asymptotes, which are paired with an independent
central-difference verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dynamics import LvmParams
from .errors import DegenerateCaseError, NoFixedPointError, OracleError, ValidationError

__all__ = [
    "Equilibrium",
    "SensitivityVector",
    "StabilityClass",
    "PARAM_NAMES",
    "discriminant",
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
    """Asymptotic fleet sizes (Mveh) and the discriminant they derive from."""

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


def discriminant(p: LvmParams) -> float:
    """Discriminant of the fixed-point quadratic; a fixed point exists iff it is positive.

    With A = a mu_h, B = eps mu_c and G = gamma_c gamma_h,
    delta = A^2 + 2AB + 2AG + B^2 + G^2 - 2BG = (A + B - G)^2 + 4AG,
    so it is zero only on a boundary of the domain. The six terms are
    summed exactly with A, B and G scaled by one power of two, which is
    undone without rounding, so no square overflows or underflows on its
    own. Raises DegenerateCaseError where delta itself is not a finite float.
    """
    a_mu, e_mu, g_g = p.a * p.mu_h, p.epsilon * p.mu_c, p.gamma_c * p.gamma_h
    largest = max(a_mu, e_mu, g_g)
    if largest < math.inf:
        k = -math.frexp(largest)[1]
        a, b, g = math.ldexp(a_mu, k), math.ldexp(e_mu, k), math.ldexp(g_g, k)
        d = math.fsum((a * a, 2.0 * a * b, 2.0 * a * g, b * b, g * g, -2.0 * b * g))
        try:
            return math.ldexp(d, -2 * k)
        except OverflowError:
            pass
    raise DegenerateCaseError(
        f"the discriminant overflows a float for a*mu_h = {a_mu:g}, "
        f"epsilon*mu_c = {e_mu:g}, gamma_c*gamma_h = {g_g:g}"
    )


def asymptotic_state(p: LvmParams) -> Equilibrium:
    """Closed-form asymptotic fleet sizes for delta > 0.

    x_inf = (a mu_h + eps mu_c + gamma_c gamma_h - sqrt(delta)) / (2 eps gamma_c)
    y_inf = (a mu_h + eps mu_c - gamma_c gamma_h + sqrt(delta)) / (2 a gamma_h)

    Both are evaluated through their conjugate forms where the direct
    subtraction would cancel: with s = a mu_h + eps mu_c and g = gamma_c
    gamma_h, the exact identities (s + g)^2 - delta = 4 g eps mu_c and
    delta - (s - g)^2 = 4 g a mu_h turn the differences into quotients of
    positive sums, so the equilibrium is accurate to rounding even when a
    fleet's asymptote is many orders below the coefficient scale.

    Raises NoFixedPointError where delta <= 0, and DegenerateCaseError
    where the rates are so small that an asymptote is not a finite float.
    """
    delta = discriminant(p)
    if delta <= 0:
        raise NoFixedPointError(
            f"discriminant {delta} <= 0: the competition model has no fixed point"
        )
    sq = math.sqrt(delta)
    coupling = p.a * p.mu_h + p.epsilon * p.mu_c
    gg = p.gamma_c * p.gamma_h
    # With delta > 0 the other denominators are positive; 2 a gamma_h is
    # zero where the product underflows.
    x_inf = 2.0 * p.gamma_h * p.mu_c / (coupling + gg + sq)
    if coupling >= gg:
        y_den = 2.0 * p.a * p.gamma_h
        y_inf = (coupling - gg + sq) / y_den if y_den else math.inf
    else:
        y_inf = 2.0 * p.gamma_c * p.mu_h / (sq + gg - coupling)
    if not (math.isfinite(x_inf) and math.isfinite(y_inf)):
        raise DegenerateCaseError(f"no finite competition equilibrium for a = {p.a}, "
                                  f"epsilon = {p.epsilon}, gamma_h = {p.gamma_h}")
    return Equilibrium(x_inf=x_inf, y_inf=y_inf, delta=delta)


def _linearise(p: LvmParams):
    """The fixed point, the Jacobian J of the rates there, and det J.

    J = [[-gamma_c - a y*, -a x*], [eps y*, eps x* - gamma_h]]. Where y* > 0
    the fixed-point condition turns J22 into -mu_h / y*, free of the
    cancellation in eps x* - gamma_h, so det = J11 J22 + a eps x* y* is a
    sum of positive terms. Raises NoFixedPointError where delta <= 0.
    """
    eq = asymptotic_state(p)
    x, y = eq.x_inf, eq.y_inf
    j11 = -p.gamma_c - p.a * y
    j12 = -p.a * x
    j21 = p.epsilon * y
    j22 = -p.mu_h / y if y > 0 else p.epsilon * x - p.gamma_h
    return eq, (j11, j12), (j21, j22), j11 * j22 - j12 * j21


def classify_stability(p: LvmParams) -> StabilityClass:
    """Node or focus, from the trace and determinant of the Jacobian.

    The trace is negative and the determinant positive, so the fixed point
    is always stable: a node (monotone approach) when tr^2 >= 4 det, a
    focus (damped oscillation) otherwise. Raises NoFixedPointError where
    delta <= 0.
    """
    _, (j11, _), (_, j22), det = _linearise(p)
    trace = j11 + j22
    if trace * trace >= 4.0 * det:
        return StabilityClass.MONOTONE_EQUILIBRIUM
    return StabilityClass.DAMPED_OSCILLATION


def _gradient(eq: Equilibrium, r1: float, r2: float) -> SensitivityVector:
    """One asymptote's gradient from its row (r1, r2) of -J^-1.

    By the implicit function theorem d(x*, y*)/dp = -J^-1 dF/dp, and for
    every parameter dF/dp has a single nonzero entry: mu_h (0, 1), mu_c
    (1, 0), epsilon (0, x* y*), a (-x* y*, 0), gamma_h (0, -y*), gamma_c
    (-x*, 0). Each component is then one product, with no subtraction.
    """
    x, y = eq.x_inf, eq.y_inf
    return SensitivityVector(r2, r1, r2 * x * y, -r1 * x * y, -r2 * y, -r1 * x)


def sensitivity_hydrogen(p: LvmParams) -> SensitivityVector:
    """Analytic gradient of the hydrogen asymptote y_inf."""
    eq, (j11, _), (j21, _), det = _linearise(p)
    return _gradient(eq, j21 / det, -j11 / det)


def sensitivity_conventional(p: LvmParams) -> SensitivityVector:
    """Analytic gradient of the conventional asymptote x_inf."""
    eq, (_, j12), (_, j22), det = _linearise(p)
    return _gradient(eq, -j22 / det, j12 / det)


def finite_difference_sensitivity(
    p: LvmParams, h_rel: float = 1e-5
) -> tuple[SensitivityVector, SensitivityVector]:
    """Central-difference gradients of the asymptotes, (hydrogen, conventional).

    Each parameter is perturbed by h = h_rel * max(|value|, 1e-8). This is
    the independent verifier for the analytic gradients; it only evaluates
    asymptotic_state, never the closed-form derivatives.
    """
    if not h_rel > 0:
        raise ValidationError(f"h_rel must be positive, got {h_rel}")

    base = {name: getattr(p, name) for name in PARAM_NAMES}
    grads_h = {}
    grads_c = {}
    for name in PARAM_NAMES:
        h = h_rel * max(abs(base[name]), 1e-8)
        try:
            plus = asymptotic_state(LvmParams(**{**base, name: base[name] + h}))
            minus = asymptotic_state(LvmParams(**{**base, name: base[name] - h}))
        except (NoFixedPointError, ValidationError) as exc:
            raise OracleError(
                f"perturbing {name} by {h} leaves the region with a fixed point: {exc}"
            ) from exc
        grads_h["d_" + name] = (plus.y_inf - minus.y_inf) / (2.0 * h)
        grads_c["d_" + name] = (plus.x_inf - minus.x_inf) / (2.0 * h)
    return SensitivityVector(**grads_h), SensitivityVector(**grads_c)


def pseudo_log(g: float) -> float:
    """Signed pseudo-log display transform: sign(g) * log10(1 + |g|).

    Continuous at zero, identity-signed, and compresses large magnitudes
    for bar-chart display. Applied at presentation time only; gradients
    are stored in raw dimensional form.
    """
    return math.copysign(math.log10(1.0 + abs(g)), g)
