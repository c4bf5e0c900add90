import math

import numpy as np
import pytest

from graphonctl.errors import IncompatibleOperandsError
from graphonctl.functions import PiecewiseConstantFunction, TrigPolynomial
from graphonctl.graphons import (
    RANGE_TOL,
    SinusoidalGraphon,
    StepGraphon,
    apply,
    exponential,
    l2_norm,
    power,
    subtract,
)

import oracles
from conftest import random_symmetric_graphon


class TestStepGraphon:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            StepGraphon([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="1"):
            StepGraphon([[1.5]])
        # unvalidated construction allows both
        assert StepGraphon([[1.5]], validate=False).coeffs[0, 0] == 1.5

    @pytest.mark.parametrize("upper,lower", [
        (0.5, 0.5), (0.5, 0.5 + 1e-13), (0.5, 0.5 + 1e-11), (-0.0, 0.0), (np.nan, np.nan),
        (np.nan, 0.5), (np.inf, np.inf), (np.inf, -np.inf), (np.inf, 0.5)])
    def test_symmetry_verdict_is_allclose_s(self, upper, lower):
        # the exact compare only settles early what allclose at RANGE_TOL would settle
        coeffs = np.array([[0.1, upper], [lower, 0.2]])
        expected = np.allclose(coeffs, coeffs.T, rtol=0.0, atol=RANGE_TOL)
        try:
            StepGraphon(coeffs)
            refused = False
        except ValueError as exc:
            refused = "symmetric" in str(exc)
        assert refused == (not expected)

    def test_coeffs_are_immutable(self):
        g = StepGraphon([[0.5]])
        with pytest.raises(ValueError):
            g.coeffs[0, 0] = 0.0

    def test_probability_kernel_flag(self):
        assert StepGraphon([[0.0, 1.0], [1.0, 0.5]]).probability_kernel
        assert not StepGraphon([[-0.5]]).probability_kernel
        assert SinusoidalGraphon(0.5, [0.25, -0.25]).probability_kernel
        assert not SinusoidalGraphon(0.2, [0.5]).probability_kernel

    def test_pixel_indexing(self):
        g = StepGraphon([[0.1, 0.2], [0.2, 0.4]])
        assert g.value(0.0, 0.0) == 0.1
        assert g.value(0.9, 0.2) == 0.2
        assert g.value(1.0, 1.0) == 0.4  # the endpoint belongs to the last block
        grid = g.value(np.array([[0.1], [0.7]]), np.array([[0.1, 0.7]]))
        np.testing.assert_array_equal(grid, g.coeffs)


class TestSinusoidalGraphon:
    def test_validation(self):
        SinusoidalGraphon(0.5, [0.3, 0.2])  # |a0| + sum|b| = 1.0 is fine
        with pytest.raises(ValueError):
            SinusoidalGraphon(0.5, [0.6])
        assert SinusoidalGraphon(0.5, [0.8], validate=False).harmonics == 1

    def test_value_formula(self):
        g = SinusoidalGraphon(0.4, [0.3, -0.1])
        x, y = 0.3, 0.8
        expected = 0.4
        for k, b in enumerate([0.3, -0.1], start=1):
            expected += b * math.cos(2 * math.pi * k * (x - y))
        assert g.value(x, y) == pytest.approx(expected, rel=1e-14)
        assert g.value(y, x) == pytest.approx(expected, rel=1e-14)  # symmetric

    @pytest.mark.parametrize("shape", ["scalar", "grid", "broadcast-rows", "matched"])
    def test_value_keeps_the_bits_of_the_summed_expression(self, rng, shape):
        # the in-place sum against `out = out + b_k * cos(2*pi*k * (x - y))`
        latents = rng.uniform(0.0, 1.0, 40)
        x, y = {"scalar": (0.3, 0.8),
                "grid": (latents[:, None], latents[None, :]),
                "broadcast-rows": (latents[:, None], latents[None, :7]),
                "matched": (latents, latents[::-1])}[shape]
        for coeffs in ([], [0.3], [0.3, -0.1, 0.05, 1e-300, -0.2]):
            g = SinusoidalGraphon(0.4, coeffs, validate=False)
            xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            expected = np.full(np.broadcast(xs, ys).shape, 0.4)
            for k, b in enumerate(g.cosine_coeffs, start=1):
                expected = expected + b * np.cos(2.0 * math.pi * k * (xs - ys))
            got = np.asarray(g.value(x, y))
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def random_sinusoid(rng, max_harmonics: int = 3) -> SinusoidalGraphon:
    """Random valid sinusoidal kernel with 0..max_harmonics harmonics."""
    raw = rng.uniform(-1.0, 1.0, int(rng.integers(0, max_harmonics + 1)) + 1)
    raw = raw / max(1.0, np.abs(raw).sum())
    return SinusoidalGraphon(raw[0], raw[1:])


def random_trig(rng, max_order: int = 4) -> TrigPolynomial:
    return TrigPolynomial(rng.normal(size=2 * int(rng.integers(0, max_order + 1)) + 1))


class TestApply:
    def test_step_on_step_function(self, rng):
        for _ in range(5):
            g = random_symmetric_graphon(rng)
            f = PiecewiseConstantFunction(rng.normal(size=int(rng.integers(1, 7))))
            result = apply(g, f)
            m = 16 * result.num_blocks
            xs = (np.arange(m) + 0.5) / m
            np.testing.assert_allclose(result(xs), oracles.quad_apply(g, f, m),
                                       atol=1e-12)

    def test_step_on_trig(self, rng):
        for _ in range(5):
            g = random_symmetric_graphon(rng)
            f = random_trig(rng)
            result = apply(g, f)
            assert isinstance(result, PiecewiseConstantFunction)
            # the oracle's exact integral of f over each block, one indicator at a time
            block_integrals = [oracles.exact_inner_product(PiecewiseConstantFunction(e), f)
                               for e in np.eye(g.num_blocks)]
            np.testing.assert_allclose(result.values, g.coeffs @ block_integrals,
                                       rtol=0.0, atol=1e-12)

    def test_sinusoidal_on_trig_closed_form(self, rng):
        g = SinusoidalGraphon(0.4, [0.3, 0.2])
        f = TrigPolynomial([1.0, 1.0, 0.0, 5.0, 0.0, 2.0, 0.0])
        # eigen-action: constant -> a0, harmonic k -> b_k / 2; order truncates
        np.testing.assert_allclose(apply(g, f).coeffs, [0.4, 0.15, 0.0, 0.0, 0.2])
        for _ in range(8):
            g, f = random_sinusoid(rng), random_trig(rng)
            result = apply(g, f)
            assert isinstance(result, TrigPolynomial)
            np.testing.assert_allclose(
                result.coeffs, oracles.sinusoidal_apply(g.constant, g.cosine_coeffs, f),
                rtol=0.0, atol=1e-12)
            m = 512
            xs = (np.arange(m) + 0.5) / m
            np.testing.assert_allclose(result(xs), oracles.quad_apply(g, f, m),
                                       atol=1e-10)

    def test_sinusoidal_on_step_function(self, rng):
        for _ in range(8):
            g = random_sinusoid(rng)
            f = PiecewiseConstantFunction(rng.normal(size=int(rng.integers(1, 7))))
            result = apply(g, f)
            assert isinstance(result, TrigPolynomial)
            np.testing.assert_allclose(
                result.coeffs, oracles.sinusoidal_apply(g.constant, g.cosine_coeffs, f),
                rtol=0.0, atol=1e-12)
        m = f.num_blocks * 2048
        xs = (np.arange(m) + 0.5) / m
        np.testing.assert_allclose(result(xs), oracles.quad_apply(g, f, m),
                                   atol=1e-8)

    def test_incompatible(self):
        with pytest.raises(IncompatibleOperandsError):
            apply(StepGraphon([[0.5]]), 3.0)


class TestComposePower:
    def test_power_matches_repeated_composition(self, rng):
        g = random_symmetric_graphon(rng)
        n = g.num_blocks
        np.testing.assert_allclose(power(g, 3).coeffs, oracles.grid_power(g, 3, n),
                                   atol=1e-12)
        s = SinusoidalGraphon(0.5, [0.3, 0.1])
        m = 64  # the midpoint rule integrates these trigonometric products exactly
        np.testing.assert_allclose(oracles.midpoint_grid(power(s, 3), m),
                                   oracles.grid_power(s, 3, m), atol=1e-14)

    def test_power_one_is_identity_map(self, rng):
        g = random_symmetric_graphon(rng)
        np.testing.assert_array_equal(power(g, 1).coeffs, g.coeffs)

    def test_zeroth_power_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            power(StepGraphon([[0.5]]), 0)


class TestExponential:
    def test_step_matches_series(self, rng):
        g = random_symmetric_graphon(rng)
        t = 0.7
        out = exponential(g, t)
        assert isinstance(out.kernel, StepGraphon)
        series = oracles.series_exponential_grid(g, t, m=g.num_blocks)
        np.testing.assert_allclose(out.kernel.coeffs, series, atol=1e-13)

    @pytest.mark.parametrize("t", [1e-9, 1e-3])
    def test_small_times_keep_their_digits(self, rng, t):
        # U_t is of size t: forming it as e^{tA} - I would cancel all but ~|log10 t| digits
        for _ in range(20):
            g = random_symmetric_graphon(rng)
            series = oracles.series_exponential_grid(g, t, m=g.num_blocks)
            off = np.abs(exponential(g, t).kernel.coeffs - series).max()
            assert off <= 1e-13 * np.abs(series).max()

    def test_asymmetric_step_kernel_refused(self):
        bad = StepGraphon([[0.0, 1.0], [0.0, 0.0]], validate=False)
        with pytest.raises(ValueError, match="cannot exponentiate an asymmetric kernel"):
            exponential(bad, 0.5)

    def test_sinusoidal_matches_series(self):
        g = SinusoidalGraphon(0.5, [0.3, -0.2])
        t = 1.3
        out = exponential(g, t)
        m = 128
        series = oracles.series_exponential_grid(g, t, m=m)
        np.testing.assert_allclose(oracles.midpoint_grid(out.kernel, m), series,
                                   atol=1e-12)

    def test_zero_time_is_identity(self, rng):
        g = random_symmetric_graphon(rng)
        out = exponential(g, 0.0)
        np.testing.assert_allclose(out.kernel.coeffs, 0.0, atol=1e-15)

    def test_apply_includes_identity_part(self):
        g = StepGraphon([[0.5]])
        f = PiecewiseConstantFunction([2.0])
        out = exponential(g, 1.0).apply(f)
        # rank-one kernel: e^{tA} f = f + (e^{0.5} - 1) f for the constant mode
        assert out.values[0] == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)


class TestNorms:
    def test_step_norms_match_quadrature(self, rng):
        for _ in range(5):
            g = random_symmetric_graphon(rng)
            m = g.num_blocks * 32
            assert l2_norm(g) == pytest.approx(oracles.quad_l2_norm(g, m), rel=1e-12)

    def test_sinusoidal_norms_closed_form(self):
        g = SinusoidalGraphon(0.4, [0.3, 0.2])
        assert l2_norm(g) == pytest.approx(math.sqrt(0.4**2 + 0.5 * (0.09 + 0.04)))
        assert l2_norm(g) == pytest.approx(oracles.quad_l2_norm(g, 512), rel=1e-9)

    def test_subtract(self, rng):
        g = random_symmetric_graphon(rng)
        h = random_symmetric_graphon(rng)
        diff = subtract(g, h)
        m = diff.num_blocks
        np.testing.assert_allclose(oracles.midpoint_grid(diff, m),
                                   oracles.midpoint_grid(g, m)
                                   - oracles.midpoint_grid(h, m), atol=1e-14)

