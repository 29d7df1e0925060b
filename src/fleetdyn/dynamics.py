"""Fleet dynamics: first-order growth model, classical and modified
predator-prey systems, and a fixed-step RK4 integrator.

All three models are one bilinear `Field` with different coefficients, so
one RK4 kernel, `integrate`, serves them all with the field written inline.

All fleet sizes are carried in Mveh (millions of vehicles) and all times in
calendar years. Every function here is pure; the parameter and state types
are immutable value types, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
import sys
from math import isfinite
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import IntegrationError, ValidationError

__all__ = [
    "GrowthParams",
    "ClassicalLvmParams",
    "LvmParams",
    "FleetState",
    "Trajectory",
    "Field",
    "growth_system",
    "classical_system",
    "modified_system",
    "integrate",
    "growth_closed_form",
    "lv_conserved_quantity",
]

# A span within this fraction of a step of a whole number of steps counts
# as whole: no shortened final step is added for the rounding left over.
_STEP_RTOL = 1e-12

# RK4 decays on dx/dt = -gamma*x only for dt*gamma up to this bound, where
# its amplification factor per step, R(-dt*gamma), is back up to 1.
RK4_REAL_BOUND = 2.785293563

# Most steps one integrate call may take: a run of 10**6 steps peaks at
# about 97 MB of Python-side allocations (tracemalloc, CPython 3.11).
_MAX_STEPS = 10**6

# The range rules, (lo, hi, refusal text): a value v passes where lo <= v <= hi.
# For a float or an int, v >= _TINY, the least positive float, holds exactly
# where v > 0, and v <= _FMAX holds for a float exactly where v < inf; an int
# beyond the float range fails the comparison instead of overflowing math.isfinite.
_FMAX, _TINY = sys.float_info.max, math.ulp(0.0)
_POSITIVE = (_TINY, _FMAX, "{} must be strictly positive, got {}")
_NONNEGATIVE = (0.0, _FMAX, "{} must be non-negative, got {}")
_FINITE = (-_FMAX, _FMAX, "{} must be finite, got {}")
_POSITIVE_FINITE = (_TINY, _FMAX, "{} must be positive and finite, got {}")
_NONNEGATIVE_FINITE = (0.0, _FMAX, "{} must be non-negative and finite, got {}")
_STATE_FINITE = (-_FMAX, _FMAX, "FleetState.{} must be finite, got {}")


def _shown(v) -> str:
    """str(v), or a phrase for an int past sys.get_int_max_str_digits(), which str() refuses."""
    try:
        return str(v)
    except ValueError:
        return "an int too long to print"


def _checked(rule, name, v) -> float:
    """float(v) for a v that passes rule; otherwise the ValidationError naming it."""
    lo, hi, text = rule
    if not lo <= v <= hi:
        raise ValidationError(text.format(name, _shown(v)))
    return float(v)


def _refuse(obj, rule, *names):
    """Refuse the first of names whose value breaks rule; store the values as floats."""
    for name in names:
        object.__setattr__(obj, name, _checked(rule, name, getattr(obj, name)))


@dataclass(frozen=True)
class GrowthParams:
    """First-order growth model coefficients: dn/dt = -gamma*n + mu.

    gamma : decay-to-equilibrium rate, 1/year (strictly positive)
    mu    : resource inflow, Mveh/year (the fleet the supply chain can
            sustain each year); the long-time fleet is mu/gamma
    """

    gamma: float
    mu: float

    def __post_init__(self):
        _refuse(self, _POSITIVE, "gamma")
        _refuse(self, _NONNEGATIVE, "mu")

    @property
    def equilibrium(self) -> float:
        """Fleet size ultimately supported by the resources, mu/gamma."""
        return self.mu / self.gamma


@dataclass(frozen=True)
class ClassicalLvmParams:
    """Classical predator-prey coefficients (all strictly positive).

    gamma_c : prey growth rate, 1/year
    gamma_h : predator decay rate, 1/year
    a       : attack rate, 1/(year*Mveh)
    epsilon : conversion efficiency, 1/(year*Mveh)
    """

    gamma_c: float
    gamma_h: float
    a: float
    epsilon: float

    def __post_init__(self):
        _refuse(self, _POSITIVE, "gamma_c", "gamma_h", "a", "epsilon")


@dataclass(frozen=True)
class LvmParams:
    """Competition model coefficients with supply-chain source terms.

    The four rate coefficients follow ClassicalLvmParams; mu_c and mu_h are
    the resource inflows (Mveh/year) for the conventional and hydrogen
    fleets. With a == epsilon, vehicles only transition between fleets and
    the total fleet follows the first-order growth model.
    """

    gamma_c: float
    gamma_h: float
    a: float
    epsilon: float
    mu_c: float
    mu_h: float

    def __post_init__(self):
        _refuse(self, _POSITIVE, "gamma_c", "gamma_h", "a", "epsilon")
        _refuse(self, _NONNEGATIVE, "mu_c", "mu_h")


@dataclass(frozen=True)
class FleetState:
    """Fleet sizes at one instant: t in years, x conventional, y hydrogen (Mveh).

    Physically meaningful states have x >= 0 and y >= 0; this is enforced
    where states enter as user input (require_nonnegative) but not on
    integrator output, so that parameter regimes driving a fleet negative
    are surfaced in the trajectory rather than masked.
    """

    t: float
    x: float
    y: float

    def __post_init__(self):
        _refuse(self, _STATE_FINITE, "t", "x", "y")

    def require_nonnegative(self) -> "FleetState":
        if self.x < 0 or self.y < 0:
            raise ValidationError(f"fleet sizes must be non-negative, got ({self.x}, {self.y})")
        return self


@dataclass(frozen=True)
class Trajectory:
    """Fleet sizes x, y on the uniform time grid from t0 to t_end with step dt.

    The final step is shortened when (t_end - t0) is not a whole number of
    steps. x and y are tuples of finite floats, one sample per grid time; the
    grid times t are derived on access, t0 + i*dt with the last one t_end exactly.
    """

    t0: float
    dt: float
    t_end: float
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        n_full, remainder = _grid(self.t0, self.dt, self.t_end)
        n = n_full + 1 + (remainder > 0)
        want = (f"x and y must be 1-d sequences of {n} samples, one per grid time "
                f"from {self.t0} to {self.t_end} with step {self.dt}")
        try:
            x, y = tuple(map(float, self.x)), tuple(map(float, self.y))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{want}: {exc}") from exc
        if not len(x) == len(y) == n:
            raise ValidationError(f"{want}; got {len(x)} and {len(y)}")
        for name, samples in (("x", x), ("y", y)):
            # Any non-finite sample makes the sum non-finite, so only such a
            # sum, which finite samples also reach by overflow, is scanned.
            if not isfinite(sum(samples)):
                for i, v in enumerate(samples):
                    if not isfinite(v):
                        raise ValidationError(f"Trajectory.{name}[{i}] must be finite, got {v}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def _checked(cls, t0, dt, t_end, xs, ys) -> "Trajectory":
        """The Trajectory of samples known to be finite floats, one per grid time."""
        traj = object.__new__(cls)
        traj.__dict__.update(t0=t0, dt=dt, t_end=t_end, x=tuple(xs), y=tuple(ys))
        return traj

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[FleetState]:
        return map(FleetState, self.t, self.x, self.y)

    @property
    def t(self) -> tuple[float, ...]:
        return (*(self.t0 + i * self.dt for i in range(len(self.x) - 1)), self.t_end)

    @property
    def step(self) -> float:
        return (self.t0 + self.dt if len(self.x) > 2 else self.t_end) - self.t0

    @property
    def final(self) -> FleetState:
        return FleetState(self.t_end, self.x[-1], self.y[-1])

    @property
    def total(self) -> tuple[float, ...]:
        return tuple(x + y for x, y in zip(self.x, self.y))

    def sample(self, t: float) -> tuple[float, float]:
        """(x, y) at t in range: np.interp's value, bit for bit."""
        if not self.t0 <= t <= self.t_end:
            raise ValidationError(f"time {t} outside trajectory range [{self.t0}, {self.t_end}]")
        return self._sample_many((t,))[0][1:]

    def _sample_many(self, times) -> list[tuple[float, float, float]]:
        """(q, x, y) for each q of times: np.interp's (x, y) at q, bit for bit,
        a q outside the range taking the nearest end sample as np.interp does."""
        t0, dt, t_end, xs, ys = self.t0, self.dt, self.t_end, self.x, self.y
        last = len(xs) - 1
        rows = []
        row = rows.append
        for q in times:
            t = t0 if q < t0 else q
            if t >= t_end:
                row((q, xs[-1], ys[-1]))
                continue
            # the cell t_j <= t < t_k, k = j + 1; the quotient misses it where t0 + j*dt rounds
            j = min(int((t - t0) / dt), last - 1)
            tj = t0 + j * dt
            while t < tj:
                j -= 1
                tj = t0 + j * dt
            k = j + 1
            tk = t0 + k * dt if k < last else t_end
            while tk <= t:
                j, tj, k = k, tk, k + 1
                tk = t0 + k * dt if k < last else t_end
            if t == tj:
                row((q, xs[j], ys[j]))
                continue
            x, y, span = xs[j], ys[j], tk - tj
            row((q, (xs[k] - x) / span * (t - tj) + x, (ys[k] - y) / span * (t - tj) + y))
        return rows


class Field(NamedTuple):
    """The bilinear field dx/dt = x*(c1 + c2*y) + c3, dy/dt = y*(c4*x + c5) + c6;
    calling it gives (dx/dt, dy/dt) at (x, y)."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        c1, c2, c3, c4, c5, c6 = self
        return x * (c1 + c2 * y) + c3, y * (c4 * x + c5) + c6


def growth_system(p: GrowthParams) -> Field:
    """Growth model on the x component: dx = -gamma*x + mu; y stays constant."""
    return Field(-p.gamma, 0.0, p.mu, 0.0, 0.0, 0.0)


def classical_system(p: ClassicalLvmParams) -> Field:
    """Classical predator-prey: dx = x(gamma_c - a*y), dy = y(epsilon*x - gamma_h)."""
    return Field(p.gamma_c, -p.a, 0.0, p.epsilon, -p.gamma_h, 0.0)


def modified_system(p: LvmParams) -> Field:
    """Source-fed competition: dx = x(-gamma_c - a*y) + mu_c,
    dy = y(epsilon*x - gamma_h) + mu_h."""
    return Field(-p.gamma_c, -p.a, p.mu_c, p.epsilon, -p.gamma_h, p.mu_h)


def _grid(t0: float, dt: float, t_end: float) -> tuple[int, float]:
    """The uniform grid from t0 to t_end: n_full steps of dt, then one
    shortened step of `remainder` when remainder > 0.

    Raises ValidationError for a t_end or dt that is nan, infinite or an int
    beyond the float range, a t_end not past t0, more than _MAX_STEPS steps,
    or a dt too small to tell grid times apart.
    """
    _checked(_POSITIVE_FINITE, "dt", dt)
    _checked(_FINITE, "t_end", t_end)
    if not t_end > t0:
        raise ValidationError(f"t_end ({t_end}) must exceed the initial time ({t0})")

    span = t_end - t0
    steps = span / dt
    if steps > _MAX_STEPS:
        raise ValidationError(
            f"dt = {dt} needs {steps:.4g} steps from {t0} to {t_end}; "
            f"at most {_MAX_STEPS} are allowed"
        )
    # Below two float spacings of the times, t0 + i*dt can round two grid
    # times onto one value. From there on consecutive times are more than
    # a spacing apart (i*dt is exact to 1e-10 within _MAX_STEPS steps), so
    # they round apart.
    resolution = 2 * math.ulp(max(abs(t0), abs(t_end)))
    if dt < resolution:
        raise ValidationError(
            f"dt = {dt} is below the time resolution {resolution} from {t0} to {t_end}"
        )
    n_full = int(math.floor(steps + _STEP_RTOL))
    remainder = span - n_full * dt
    # A remainder that leaves the last full grid time rounded onto t_end
    # is below the resolution of the times: the span is whole.
    if remainder <= _STEP_RTOL * dt or t0 + n_full * dt >= t_end:
        return max(n_full, 1), 0.0
    return n_full, remainder


def integrate(field: Field, s0: FleetState, t_end: float, dt: float) -> Trajectory:
    """Integrate field from s0.t to t_end inclusive with classical RK4 on a
    uniform grid of step dt.

    The final step is shortened when (t_end - s0.t) is not a whole number
    of steps. Negative components are not clamped, so that blow-up regimes
    stay visible. Raises ValidationError for a t_end or dt that is nan,
    infinite or an int beyond the float range, or for more than _MAX_STEPS
    steps, and IntegrationError if the state stops being finite.
    """
    n_full, remainder = _grid(s0.t, dt, t_end)
    # As floats: numpy scalars would step 3x slower and warn on overflow.
    c1, c2, c3, c4, c5, c6 = map(float, field)
    x, y = float(s0.x), float(s0.y)
    xs, ys = [x], [y]
    append_x, append_y = xs.append, ys.append
    # field(x, y) written out at each stage: the same IEEE operations in
    # the same order as calling it, without the calls.
    for h, n in ((dt, n_full), (remainder, int(remainder > 0))):
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(n):
            k1x, k1y = x * (c1 + c2 * y) + c3, y * (c4 * x + c5) + c6
            x2, y2 = x + half * k1x, y + half * k1y
            k2x, k2y = x2 * (c1 + c2 * y2) + c3, y2 * (c4 * x2 + c5) + c6
            x3, y3 = x + half * k2x, y + half * k2y
            k3x, k3y = x3 * (c1 + c2 * y3) + c3, y3 * (c4 * x3 + c5) + c6
            x4, y4 = x + h * k3x, y + h * k3y
            k4x, k4y = x4 * (c1 + c2 * y4) + c3, y4 * (c4 * x4 + c5) + c6
            x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            append_x(x)
            append_y(y)
    # A non-finite stage makes its rates non-finite, whatever the coefficients
    # (inf*0 is nan), and they enter the step's result through a sum nothing
    # cancels. A non-finite sample is absorbing, as inf or nan plus anything is
    # never finite, so the last state is finite exactly when every stage was.
    if not (isfinite(x) and isfinite(y)):
        i = next(i for i, (u, v) in enumerate(zip(xs, ys)) if not (isfinite(u) and isfinite(v)))
        # the previous grid time plus dt, or t_end after a shortened step
        near = s0.t + (i - 1) * dt + dt if i <= n_full else t_end
        raise IntegrationError(f"state became non-finite near t={near}")
    return Trajectory._checked(s0.t, dt, t_end, xs, ys)


def growth_closed_form(p: GrowthParams, n0: float, t: float) -> float:
    """Exact growth-model solution after t elapsed years from n0.

    n(t) = mu/gamma + (n0 - mu/gamma) * exp(-gamma * t), evaluated as the
    cancellation-free mix n0 * exp(-gamma t) + (mu/gamma) * (1 - exp(-gamma t)).
    """
    if t < 0:
        raise ValidationError(f"elapsed time must be non-negative, got {t}")
    decay = math.exp(-p.gamma * t)
    return n0 * decay + (p.mu / p.gamma) * (-math.expm1(-p.gamma * t))


def lv_conserved_quantity(s: FleetState, p: ClassicalLvmParams) -> float:
    """First integral of the classical system, constant along exact orbits.

    V = epsilon*x - gamma_h*ln(x) + a*y - gamma_c*ln(y), defined on the
    open positive quadrant. Used to validate the integrator: RK4 drift of
    V measures the numerical error over an orbit.
    """
    if s.x <= 0 or s.y <= 0:
        raise ValidationError(f"conserved quantity needs x > 0 and y > 0, got ({s.x}, {s.y})")
    return p.epsilon * s.x - p.gamma_h * math.log(s.x) + p.a * s.y - p.gamma_c * math.log(s.y)
