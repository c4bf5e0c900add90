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
    Both pairs are one (2, ...) buffer, refilled every stage, and propagate may
    return it itself (or views of it): the rows it returns are read before the
    buffer is written again.  Stepping stops at the first non-finite state; the
    rows after it are NaN.
    """
    times = np.asarray(times, dtype=float)
    h = float((times[-1] - times[0]) / (times.size - 1))
    half, sixth, grid = 0.5 * h, h / 6.0, times.tolist()  # Python floats, the same bits
    y = np.array(y0, dtype=float)
    states = np.full((times.size,) + y.shape, np.nan)
    states[0] = y
    pair = np.empty((2,) + y.shape)
    for k in range(times.size - 1):
        mid = grid[k] + half
        pair[0], pair[1] = y, field(k, grid[k], y)
        a, b = propagate(k, 0, pair)
        n2 = field(k, mid, a + half * b)
        n3 = field(k, mid, a + half * n2)
        # a and b may be rows of the buffer: both new rows are formed before either is written
        pair[0], pair[1] = a + h * n3, a + sixth * (b + 2.0 * n2 + 2.0 * n3)
        u4, c = propagate(k, 1, pair)
        y = states[k + 1] = c + sixth * field(k, grid[k + 1], u4)
        if not np.isfinite(y).all():
            break
    return states
