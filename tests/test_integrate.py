import numpy as np
import pytest

from graphonctl.errors import NumericsError
from graphonctl.integrate import rk4, stage_times


def exponential_error(rate, num_steps):
    _, states = rk4(lambda t, y: rate * y, 0.0, 1.0, np.array([1.0]), num_steps)
    return abs(states[-1, 0] - np.exp(rate))


class TestRK4:
    @pytest.mark.parametrize("rate", [-1.3, 0.7])
    def test_fourth_order_convergence(self, rate):
        coarse, fine = exponential_error(rate, 20), exponential_error(rate, 40)
        assert fine < 1e-7
        assert 14.0 < coarse / fine < 18.0

    def test_backward_integration(self):
        rate = -0.8
        times, states = rk4(lambda t, y: rate * y, 1.0, 0.0,
                            np.array([np.exp(rate)]), 200)
        assert times[0] == 1.0 and times[-1] == 0.0
        assert np.all(np.diff(times) < 0.0)
        np.testing.assert_allclose(states[:, 0], np.exp(rate * times), rtol=1e-10)

    def test_blow_up_names_the_time(self):
        # y' = y^2 from y(0) = 1 has its pole at t = 1
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match=r"t=1\.3\b"):
                rk4(lambda t, y: y * y, 0.0, 2.0, np.array([1.0]), 20)

    @pytest.mark.parametrize("num_steps", [0, -3])
    def test_needs_a_step(self, num_steps):
        with pytest.raises(ValueError, match="num_steps"):
            rk4(lambda t, y: y, 0.0, 1.0, np.array([1.0]), num_steps)
        with pytest.raises(ValueError, match="num_steps"):
            stage_times(0.0, 1.0, num_steps)


class TestStageTimes:
    @pytest.mark.parametrize("t0, t1, num_steps",
                             [(0.0, 1.0, 1000), (0.0, 0.7, 137), (2.5, -1.0, 33),
                              (0.0, 1.0, 1)])
    def test_are_the_times_rk4_evaluates(self, t0, t1, num_steps):
        seen = []

        def field(t, y):
            seen.append(t)
            return -y

        times, _ = rk4(field, t0, t1, np.array([1.0]), num_steps)
        grid, mids, ends = stage_times(t0, t1, num_steps)
        assert np.array_equal(grid, times)
        expected = np.stack([grid[:-1], mids, mids, ends], axis=1).ravel()
        assert np.array_equal(np.array(seen), expected)

    def test_step_ends_are_not_the_next_grid_times(self):
        # why a table of field values must cover `ends` as well as the grid
        times, _, ends = stage_times(0.0, 1.0, 1000)
        assert np.any(ends != times[1:])
