"""Lawson's integrating-factor RK4 for the nonlinear epidemic model.

For y' = L(t) y + N(t, y), L moves by its exact transitions and classical RK4
steps only N, so a stiff decaying L does not bound the step (Lawson, SIAM J.
Numer. Anal. 4, 1967; Hochbruck and Ostermann, Acta Numerica 19, 2010).
"""

from __future__ import annotations

import numpy as np


def lawson_rk4(propagate, field, times, y0: np.ndarray) -> np.ndarray:
    """States of y' = L(t) y + N(t, y) at the uniform grid `times`, one row each.

    propagate(k, half, pair) applies L's transition over the first (half 0,
    from times[k] to times[k] + h/2) or second (half 1, on to times[k + 1])
    half of step k to both rows of `pair`; field(k, t, y) is N in step k.
    With P_m and P_e those transitions, a step from y is N1 = N(y),
    [a, b] = P_m [y, N1], N2 = N(a + h/2 b), N3 = N(a + h/2 N2),
    [u4, c] = P_e [a + h N3, a + h/6 (b + 2 N2 + 2 N3)], y+ = c + h/6 N(u4).
    Stepping stops at the first non-finite state; the rows after it are NaN.
    """
    times = np.asarray(times, dtype=float)
    h = (times[-1] - times[0]) / (times.size - 1)
    y = np.array(y0, dtype=float)
    states = np.full((times.size,) + y.shape, np.nan)
    states[0] = y
    for k in range(times.size - 1):
        mid = times[k] + 0.5 * h
        a, b = propagate(k, 0, np.stack((y, field(k, times[k], y))))
        n2 = field(k, mid, a + 0.5 * h * b)
        n3 = field(k, mid, a + 0.5 * h * n2)
        u4, c = propagate(k, 1, np.stack((a + h * n3, a + (h / 6.0) * (b + 2.0 * n2 + 2.0 * n3))))
        y = states[k + 1] = c + (h / 6.0) * field(k, times[k + 1], u4)
        if not np.isfinite(y).all():
            break
    return states
