import numpy as np
import pytest

from graphonctl.control import Trajectory
from graphonctl.errors import NumericsError
from graphonctl.integrate import lawson_rk4


def scalar_run(rate, nonlinear, y0, horizon, num_steps):
    """lawson_rk4 on y' = rate y + nonlinear(y), the linear part moved by exp."""
    times = np.linspace(0.0, horizon, num_steps + 1)
    half_step = np.exp(rate * 0.5 * horizon / num_steps)
    return times, lawson_rk4(lambda k, half, pair: half_step * pair,
                             lambda k, t, y: nonlinear(y), times, np.array([y0]))


def semilinear_error(rate, num_steps):
    # y' = rate y - y^2 from y(0) = 1: (1/y - 1/rate) e^{rate t} is constant
    _, states = scalar_run(rate, lambda y: -y * y, 1.0, 1.0, num_steps)
    return abs(states[-1, 0] - rate / (1.0 + (rate - 1.0) * np.exp(-rate)))


class TestRK4:
    @pytest.mark.parametrize("rate", [-1.3, 0.7])
    def test_fourth_order_convergence(self, rate):
        coarse, fine = semilinear_error(rate, 40), semilinear_error(rate, 80)
        assert fine < 1e-7
        assert 14.0 < coarse / fine < 18.0

    def test_zero_nonlinearity_reproduces_the_propagator(self):
        rng = np.random.default_rng(7)
        factors = rng.uniform(0.2, 3.0, size=(2, 30, 3))
        times = np.linspace(0.0, 0.9, 31)
        y0 = rng.normal(size=3)
        states = lawson_rk4(lambda k, half, pair: factors[half, k] * pair,
                            lambda k, t, y: np.zeros_like(y), times, y0)
        expected = [y0]
        for k in range(30):
            expected.append(factors[1, k] * (factors[0, k] * expected[-1]))
        assert np.array_equal(states, np.array(expected))

    def test_blow_up_names_the_time(self):
        # y' = y^2 from y(0) = 1 has its pole at t = 1
        with np.errstate(over="ignore", invalid="ignore"):
            times, states = scalar_run(0.0, lambda y: y * y, 1.0, 2.0, 20)
        with pytest.raises(NumericsError, match=r"t=1\.3\b"):
            Trajectory(times, states)

    def test_stops_at_the_first_non_finite_state(self):
        # y' = y^2 from y(0) = 1 again: no step follows the one that overflows
        steps = []

        def field(k, t, y):
            steps.append(k)
            return y * y

        times = np.linspace(0.0, 2.0, 21)
        with np.errstate(over="ignore", invalid="ignore"):
            states = lawson_rk4(lambda k, half, pair: pair, field, times, np.array([1.0]))
        first = np.flatnonzero(~np.isfinite(states[:, 0]))[0]
        assert np.isfinite(states[:first]).all() and np.isnan(states[first + 1:]).all()
        assert steps == [k for k in range(first) for _ in range(4)]


class TestStageTimes:
    @pytest.mark.parametrize("t0, t1, num_steps",
                             [(0.0, 1.0, 1000), (0.0, 0.7, 137), (2.5, -1.0, 33),
                              (0.0, 1.0, 1)])
    def test_are_the_times_rk4_evaluates(self, t0, t1, num_steps):
        # N at the step start, twice at its midpoint and at the next grid time
        seen = []

        def field(k, t, y):
            seen.append((k, t))
            return -y

        grid = np.linspace(t0, t1, num_steps + 1)
        lawson_rk4(lambda k, half, pair: pair, field, grid, np.array([1.0]))
        mids = grid[:-1] + 0.5 * ((t1 - t0) / num_steps)
        expected = np.stack([grid[:-1], mids, mids, grid[1:]], axis=1).ravel()
        assert np.array_equal(np.array([t for _, t in seen]), expected)
        assert [k for k, _ in seen] == [k for k in range(num_steps) for _ in range(4)]


def stacked_lawson_rk4(propagate, field, times, y0):
    """The step of `lawson_rk4`'s docstring, each pair a fresh np.stack: the bitwise
    reference for its reused stage buffer."""
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


class TestStageBuffer:
    """lawson_rk4 refills one (2, n) buffer; whatever propagate returns, the states
    are those of fresh stacks, bit for bit."""

    rng = np.random.default_rng(11)
    factors = rng.uniform(0.5, 1.5, size=(2, 40, 3))
    mixing = np.eye(3) + 0.05 * rng.normal(size=(2, 40, 3, 3))

    @staticmethod
    def field(k, t, y):
        return -0.8 * y * y + np.sin(3.0 * t) * y[::-1] + 0.01 * k

    @pytest.mark.parametrize("propagate", [
        lambda k, half, pair: pair,  # its argument itself
        lambda k, half, pair: np.multiply(pair, TestStageBuffer.factors[half, k], out=pair),
        lambda k, half, pair: pair @ TestStageBuffer.mixing[half, k],  # a fresh product
    ], ids=["identity", "scaled-in-place", "fresh-product"])
    def test_equals_fresh_stacks(self, propagate):
        times = np.linspace(0.0, 1.3, 41)
        y0 = np.array([0.3, -0.2, 0.9])
        reference = stacked_lawson_rk4(propagate, self.field, times, y0)
        assert np.isfinite(reference).all()
        assert np.array_equal(lawson_rk4(propagate, self.field, times, y0), reference)

    def test_non_finite_rows_match(self):
        # y' = y^2 from y(0) = 1 through the identity transition overflows midway
        times = np.linspace(0.0, 2.0, 21)
        with np.errstate(over="ignore", invalid="ignore"):
            runs = [stepper(lambda k, half, pair: pair, lambda k, t, y: y * y, times,
                            np.array([1.0, 0.5]))
                    for stepper in (lawson_rk4, stacked_lawson_rk4)]
        assert np.isnan(runs[1][-1]).all()
        assert np.array_equal(*runs, equal_nan=True)
