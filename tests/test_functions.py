import math

import numpy as np
import pytest

from graphonctl.errors import PartitionMismatchError
from graphonctl.functions import (
    PiecewiseConstantFunction,
    TrigPolynomial,
    block_index,
    common_block_count,
    fourier_block_integrals,
)

import oracles


def test_block_index_covers_endpoints():
    assert block_index(0.0, 4) == 0
    assert block_index(1.0, 4) == 3  # right endpoint belongs to the last block
    assert block_index(0.25, 4) == 1
    np.testing.assert_array_equal(block_index([0.0, 0.26, 0.999, 1.0], 4),
                                  [0, 1, 3, 3])


def test_common_block_count_is_lcm():
    assert common_block_count(6, 4) == 12
    assert common_block_count(5, 5) == 5
    assert common_block_count(1, 7) == 7


def test_common_block_count_caps_blowup():
    with pytest.raises(PartitionMismatchError, match="common"):
        common_block_count(99991, 99989)


def test_fourier_block_integrals_against_quadrature():
    import scipy.integrate

    for num_blocks, order in [(3, 1), (4, 2), (7, 5)]:
        ints = fourier_block_integrals(num_blocks, order)
        assert ints.shape == (2 * order + 1, num_blocks)
        for k in range(1, order + 1):
            for block in range(num_blocks):
                lo, hi = block / num_blocks, (block + 1) / num_blocks
                ref_c, _ = scipy.integrate.quad(
                    lambda x: math.sqrt(2) * math.cos(2 * math.pi * k * x), lo, hi)
                ref_s, _ = scipy.integrate.quad(
                    lambda x: math.sqrt(2) * math.sin(2 * math.pi * k * x), lo, hi)
                assert ints[k, block] == pytest.approx(ref_c, abs=1e-14)
                assert ints[order + k, block] == pytest.approx(ref_s, abs=1e-14)
        # the constant integrates to the block width; whole-period integrals vanish
        np.testing.assert_allclose(ints[0], 1.0 / num_blocks, rtol=1e-15)
        np.testing.assert_allclose(ints[1:].sum(axis=1), 0.0, atol=1e-14)


class TestPiecewiseConstant:
    def test_evaluation_and_refine(self):
        f = PiecewiseConstantFunction([1.0, -2.0, 3.0])
        assert f(0.1) == 1.0
        assert f(0.5) == -2.0
        assert f(1.0) == 3.0

    def test_values_are_immutable(self):
        f = PiecewiseConstantFunction([1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_rejects_empty_and_matrix_input(self):
        with pytest.raises(ValueError):
            PiecewiseConstantFunction([])
        with pytest.raises(ValueError):
            PiecewiseConstantFunction([[1.0, 2.0]])

    def test_arithmetic_merges_partitions(self):
        f = PiecewiseConstantFunction([1.0, 3.0])
        g = PiecewiseConstantFunction([1.0, 1.0, 1.0])
        total = f + g
        assert total.num_blocks == 6
        np.testing.assert_allclose(total.values, [2.0, 2.0, 2.0, 4.0, 4.0, 4.0])
        np.testing.assert_allclose((f - g).values, [0.0, 0.0, 0.0, 2.0, 2.0, 2.0])
        np.testing.assert_allclose((2.0 * f).values, [2.0, 6.0])
        np.testing.assert_allclose((-f).values, [-1.0, -3.0])

    def test_l2_norm_matches_quadrature(self, rng):
        f = PiecewiseConstantFunction(rng.normal(size=7))
        assert f.l2_norm() == pytest.approx(
            math.sqrt(oracles.quad_inner_product(f, f, m=7 * 128)), rel=1e-12)


class TestTrigPolynomial:
    def test_mode_constructors_are_orthonormal(self):
        basis = [TrigPolynomial([1.0]),
                 TrigPolynomial.cosine_mode(1), TrigPolynomial.sine_mode(1),
                 TrigPolynomial.cosine_mode(3), TrigPolynomial.sine_mode(2)]
        for i, f in enumerate(basis):
            for j, g in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert oracles.exact_inner_product(f, g) == pytest.approx(
                    expected, abs=1e-15)
                assert oracles.quad_inner_product(f, g, m=4096) == pytest.approx(
                    expected, abs=1e-9)

    def test_coeffs_are_orthonormal_coefficients(self):
        # coeffs[i] = <p, φ_i> for φ = [1, √2cos_1, √2cos_2, √2sin_1, √2sin_2]
        p = TrigPolynomial([0.3, 0.1, -0.2, 0.5, 0.0])
        assert p.order == 2
        quad = [oracles.fourier_coefficient(p, 0, "const")]
        quad += [oracles.fourier_coefficient(p, k, kind)
                 for kind in ("cos", "sin") for k in (1, 2)]
        np.testing.assert_allclose(quad, p.coeffs, atol=1e-12)

    @pytest.mark.parametrize("coeffs", [[], [1.0, 2.0], 1.0, [[1.0, 2.0, 3.0]]])
    def test_rejects_anything_but_an_odd_length_vector(self, coeffs):
        with pytest.raises(ValueError, match="odd length"):
            TrigPolynomial(coeffs)

    def test_coeffs_are_immutable(self):
        p = TrigPolynomial([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    def test_mixed_length_padding(self):
        p = TrigPolynomial([0.0, 1.0, 0.0]) + TrigPolynomial([0.0, 0.0, 0.0, 0.0, 2.0])
        assert p.order == 2
        np.testing.assert_array_equal(p.coeffs, [0.0, 1.0, 0.0, 0.0, 2.0])

    def test_l2_norm_matches_quadrature(self):
        p = TrigPolynomial([0.4, 0.3, -0.1, 0.2, 0.0])
        assert p.l2_norm() == pytest.approx(
            math.sqrt(oracles.quad_inner_product(p, p, m=4096)), rel=1e-9)

    def test_block_integrals_sum_to_mean(self):
        p = TrigPolynomial([0.7, 0.3, 0.0, 0.4, -0.2])
        assert p.block_integrals(5).sum() == pytest.approx(0.7, abs=1e-14)

    def test_arithmetic(self):
        p = TrigPolynomial([1.0, 2.0, 0.0])
        q = TrigPolynomial([0.5, 0.0, 1.0, 1.0, 0.0])
        total = p + q
        xs = np.linspace(0.0, 1.0, 31)
        np.testing.assert_allclose(total(xs), p(xs) + q(xs), atol=1e-14)
        np.testing.assert_allclose((p - q)(xs), p(xs) - q(xs), atol=1e-14)
        np.testing.assert_allclose((3.0 * p)(xs), 3.0 * p(xs), atol=1e-14)
