"""Fixed-step Runge-Kutta integration shared by the control and epidemic solvers."""

from __future__ import annotations

import numpy as np

from .errors import NumericsError


def rk4(field, t0: float, t1: float, y0: np.ndarray, num_steps: int):
    """Classical fourth-order Runge-Kutta from t0 to t1 (t1 < t0 integrates backward).

    Returns (times, states) with states[k] the state at times[k].  Non-finite
    states abort with NumericsError rather than propagating NaNs.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    h = (t1 - t0) / num_steps
    y = np.array(y0, dtype=float)
    times = np.linspace(t0, t1, num_steps + 1)
    states = np.empty((num_steps + 1,) + y.shape)
    states[0] = y
    for k in range(num_steps):
        t = times[k]
        k1 = field(t, y)
        k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = field(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NumericsError(f"state became non-finite at t={times[k + 1]:.6g}")
        states[k + 1] = y
    return times, states
