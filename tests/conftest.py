import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from fleetdyn import ClassicalLvmParams, LvmParams, Trajectory, ValidationError, analytics
from fleetdyn.dynamics import _grid

# A runaway allocation fails its test with MemoryError instead of exhausting
# the host: the soft address-space limit of the test process (and of the
# processes it starts) is lowered to 4 GiB, unless it is lower already.
_ADDRESS_SPACE = 4 * 2**30
try:
    import resource
except ImportError:  # no resource module, as on Windows
    pass
else:
    _soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if _soft == resource.RLIM_INFINITY or _soft > _ADDRESS_SPACE:
        resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _hard))


@pytest.fixture
def tab_grad_params():
    """Parameter set used for the published gradient bar chart."""
    return LvmParams(gamma_c=0.01, gamma_h=0.01, a=0.01, epsilon=0.01, mu_c=0.65, mu_h=0.65)


@pytest.fixture
def solve_calls(monkeypatch):
    """The arguments of each fixed-point solve, analytics._solve, the test makes."""
    calls = []
    solve = analytics._solve
    monkeypatch.setattr(analytics, "_solve", lambda *coefficients: calls.append(coefficients)
                        or solve(*coefficients))
    return calls


@pytest.fixture
def orbit_params():
    """Classical predator-prey coefficients of the reference phase plot."""
    return ClassicalLvmParams(gamma_c=2.0 / 3.0, gamma_h=1.0, a=4.0 / 3.0, epsilon=1.0)


# Rates log-uniform over the float range, sources too or exactly zero.
anywhere = st.floats(-320.0, 300.0).map(lambda e: 10.0**e)
anywhere_or_zero = st.one_of(st.just(0.0), anywhere)


def random_lvm_params(rng: np.random.Generator) -> LvmParams:
    """Valid random parameters: rates log-uniform on [1e-3, 1], sources on [0.01, 1]."""
    return LvmParams(
        gamma_c=10.0 ** rng.uniform(-3, 0),
        gamma_h=10.0 ** rng.uniform(-3, 0),
        a=10.0 ** rng.uniform(-3, 0),
        epsilon=10.0 ** rng.uniform(-3, 0),
        mu_c=rng.uniform(0.01, 1.0),
        mu_h=rng.uniform(0.01, 1.0),
    )


@st.composite
def random_trajectories(draw) -> Trajectory:
    """Random finite samples on a random grid: a whole or shortened last
    step, dt from within 4x of the time resolution up to years, and ends
    on, next to or between whole years."""
    t0 = draw(st.integers(-3000, 3000)) + draw(
        st.sampled_from([0.0, 1e-10, -1e-10]) | st.floats(0.0, 1.0))
    if draw(st.booleans()):
        dt = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]) | st.floats(1e-3, 5.0))
    else:  # the resolution is two float spacings of the times
        dt = 2 * math.ulp(abs(t0)) * draw(st.floats(1.0, 4.0))
    steps = draw(st.integers(0, 40)) + draw(st.just(0.0) | st.floats(0.0, 1.0))
    t_end = t0 + steps * dt
    try:
        n_full, remainder = _grid(t0, dt, t_end)
    except ValidationError:
        assume(False)
    samples = st.lists(st.floats(-1e300, 1e300), min_size=n_full + 1 + (remainder > 0),
                       max_size=n_full + 1 + (remainder > 0))
    return Trajectory(t0, dt, t_end, draw(samples), draw(samples))


def numpy_grid(traj: Trajectory) -> np.ndarray:
    """The grid times as an array, built as t0 + i*dt with the last one t_end."""
    t = traj.t0 + np.arange(len(traj)) * traj.dt
    t[-1] = traj.t_end
    return t


def bits(values) -> list[str]:
    """Each float's exact bits, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]
