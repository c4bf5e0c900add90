"""Fixed-step Runge-Kutta integration for the nonlinear epidemic model."""

from __future__ import annotations

import numpy as np

from .errors import NumericsError


def stage_times(t0: float, t1: float, num_steps: int):
    """Times at which `rk4` evaluates its field over num_steps steps from t0 to t1.

    Returns (times, mids, ends): the grid of num_steps + 1 times, and per step
    k the midpoint times[k] + h/2 of the second and third stages and the end
    times[k] + h of the fourth.  `ends` is not always `times[1:]` bit for bit,
    so a table of a time-dependent field must cover all three arrays.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    h = (t1 - t0) / num_steps
    times = np.linspace(t0, t1, num_steps + 1)
    return times, times[:-1] + 0.5 * h, times[:-1] + h


def rk4(field, t0: float, t1: float, y0: np.ndarray, num_steps: int):
    """Classical fourth-order Runge-Kutta from t0 to t1 (t1 < t0 integrates backward).

    Returns (times, states) with states[k] the state at times[k].  The field is
    evaluated only at the times `stage_times` returns.  Non-finite states
    abort with NumericsError rather than propagating NaNs.
    """
    times, mids, ends = stage_times(t0, t1, num_steps)
    h = (t1 - t0) / num_steps
    y = np.array(y0, dtype=float)
    states = np.empty((num_steps + 1,) + y.shape)
    states[0] = y
    for k in range(num_steps):
        k1 = field(times[k], y)
        k2 = field(mids[k], y + 0.5 * h * k1)
        k3 = field(mids[k], y + 0.5 * h * k2)
        k4 = field(ends[k], y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NumericsError(f"state became non-finite at t={times[k + 1]:.6g}")
        states[k + 1] = y
    return times, states
