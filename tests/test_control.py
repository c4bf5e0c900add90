import functools
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from graphonctl.control import (
    GraphonSystem,
    exact_controllability_check,
    gramian,
    gramian_inverse,
    gramian_quadrature_matrix,
    growth_integral,
    min_energy_control,
    simulate,
)
from graphonctl.errors import (
    ExactControllabilityError,
    IncompatibleOperandsError,
    NumericsError,
)
from graphonctl.functions import PiecewiseConstantFunction, TrigPolynomial
from graphonctl.graphons import SinusoidalGraphon, StepGraphon
from graphonctl.spectral import decompose

import oracles
from conftest import random_symmetric_graphon


def random_system(rng, max_blocks=6, max_poly=3):
    kernel = random_symmetric_graphon(rng, max_blocks)
    alpha0 = float(rng.uniform(-1.0, 1.0))
    beta0 = float(rng.uniform(0.3, 1.5))
    degree = int(rng.integers(0, max_poly + 1))
    poly = tuple(rng.uniform(-0.5, 0.5, degree).tolist())
    horizon = float(rng.uniform(0.4, 2.0))
    return GraphonSystem(alpha0, beta0, kernel, poly, horizon)


class TestGrowthIntegral:
    def test_exponential_value(self):
        assert growth_integral(1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
        assert growth_integral(-2.0, 0.5) == pytest.approx(
            (math.exp(-1.0) - 1.0) / -2.0, rel=1e-15)

    def test_zero_rate_limit(self):
        assert growth_integral(0.0, 0.7) == 0.7
        assert growth_integral(1e-15, 0.7) == pytest.approx(0.7, rel=1e-12)

    def test_overflow_is_a_numeric_failure(self):
        # G itself is inf beyond the float range; the Gramian refuses it
        assert growth_integral(800.0, 1.0) == np.inf
        assert growth_integral(-800.0, 1.0) == pytest.approx(1.0 / 800.0)
        sys = GraphonSystem(400.0, 1.0, StepGraphon([[0.5]]), (), 1.0)
        with pytest.raises(NumericsError, match=r"^exp\(800\) exceeds the float range$"):
            gramian(sys)


def assert_within_ulps(got, want, ulps=2):
    got, want = np.broadcast_arrays(got, want)
    off = np.abs(got - want) > ulps * np.spacing(np.abs(want))
    assert not off.any(), (got[off][:5], want[off][:5])


class TestGrowthIntegralOracle:
    """The array G against a 50-digit decimal route, to within 2 ulp."""

    def check(self, rates, horizons):
        got = growth_integral(rates, horizons)
        want = np.vectorize(oracles.decimal_growth_integral)(rates, horizons)
        assert got.shape == want.shape
        assert_within_ulps(got, want)

    def test_rates_below_the_cutoff(self):
        rates = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-20, -3e-17, 1.1e-16])
        self.check(rates, 0.7)
        self.check(rates[:, None], np.array([1e-3, 0.05, 1.0, 2.5]))

    def test_cutoff_error_is_bounded_by_rate_times_horizon(self):
        # around 1e-12, G differs from the horizon by about r T / 2 relative: thousands of ulp
        self.check(np.array([0.99e-12, -0.99e-12, 3e-13]), 1.5)
        self.check(np.array([1.01e-12, -1.01e-12]), 1.5)

    def test_exponent_near_the_float_range(self):
        # power-of-two horizons keep rate * T exact: a rounded exponent near 700
        # moves e^x by hundreds of ulps whatever evaluates it
        for horizon in (0.0625, 1.0, 4.0):
            products = np.array([-709.9, -700.0, -699.5, 1.0, 699.5, 700.0, 705.3, 709.7])
            self.check(products / horizon, horizon)

    def test_rates_by_remaining_horizons(self):
        # the steered simulation's table: rates -2|a| by remaining horizons T - t
        decay = -2.0 * np.abs([0.0, 1e-18, 0.3, -2.5, 40.0, 355.0])
        horizon = 1.3
        remaining = (horizon - np.linspace(0.0, horizon, 51))[:, None]
        self.check(decay, remaining)
        assert (growth_integral(decay, remaining)[-1] == 0.0).all()

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = growth_integral(np.array([[800.0], [-800.0], [709.0]]), np.array([1.0, 2.0]))
        assert values.shape == (3, 2)
        assert np.isinf(values[0]).all() and np.isinf(values[2, 1])
        assert np.isfinite(values[1]).all() and np.isfinite(values[2, 0])


class TestGraphonSystem:
    def test_input_eta_is_polynomial_in_eigenvalue(self):
        sys = GraphonSystem(0.0, 2.0, StepGraphon([[0.5]]), (0.3, -0.1), 1.0)
        lam = 0.5
        assert sys.input_eta(lam) == pytest.approx(2.0 + 0.3 * lam - 0.1 * lam**2)
        np.testing.assert_allclose(sys.mode_etas, [sys.input_eta(0.5)])

    def test_input_operator_is_evaluated_once(self, monkeypatch):
        sys = GraphonSystem(0.0, 2.0, StepGraphon([[0.5, 0.1], [0.1, -0.3]]), (0.3, -0.1), 1.0)
        assert sys.input_operator.values[0] == 2.0
        np.testing.assert_array_equal(
            sys.mode_etas, [sys.input_eta(lam) for lam in sys.modes.eigenvalues])
        monkeypatch.setattr(GraphonSystem, "input_eta", None)  # later reads must not call it
        gramian(sys)
        min_energy_control(sys, PiecewiseConstantFunction([1.0, -1.0]))
        assert sys.mode_etas.size == 2

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            GraphonSystem(0.0, 1.0, StepGraphon([[0.5]]), (), 0.0)

    def test_modes_are_precomputed(self):
        sys = GraphonSystem(0.0, 1.0, StepGraphon([[0.0, 0.5], [0.5, 0.0]]), (), 1.0)
        np.testing.assert_allclose(sys.modes.eigenvalues, [0.25, -0.25])

    def test_values_only_modes_serve_the_gramian(self, rng):
        kernel = random_symmetric_graphon(rng)
        modes = decompose(kernel, vectors=False)
        sys = GraphonSystem(-0.2, 0.8, kernel, (0.4, -0.1), 1.3, modes)
        assert sys.modes is modes
        full = GraphonSystem(-0.2, 0.8, kernel, (0.4, -0.1), 1.3)
        np.testing.assert_allclose(gramian(sys).values, gramian(full).values, rtol=1e-13)
        np.testing.assert_allclose(sys.mode_etas, full.mode_etas, rtol=1e-13)
        verdict, reference = exact_controllability_check(sys), exact_controllability_check(full)
        assert verdict.controllable == reference.controllable
        assert verdict.spectral_lower_bound == pytest.approx(reference.spectral_lower_bound,
                                                             rel=1e-13)
        # steering reads the eigenfunctions, which a values-only decomposition lacks
        x0 = PiecewiseConstantFunction(np.ones(kernel.num_blocks))
        with pytest.raises(IncompatibleOperandsError, match="values-only"):
            min_energy_control(sys, x0)
        with pytest.raises(IncompatibleOperandsError, match="values-only"):
            simulate(sys, x0)

    def test_modes_of_another_kernel_are_refused(self):
        kernel = StepGraphon([[0.5]])
        for other in (StepGraphon([[0.5]]), StepGraphon([[0.3]])):
            with pytest.raises(ValueError, match="own kernel"):
                GraphonSystem(0.0, 1.0, kernel, (), 1.0, decompose(other))
        assert GraphonSystem(0.0, 1.0, kernel, (), 1.0, decompose(kernel)).modes.rank == 1


class TestGramianOperator:
    def test_apply_rejects_mixed_function_families(self, rng):
        sys = random_system(rng)
        with pytest.raises(IncompatibleOperandsError):
            gramian(sys).apply(TrigPolynomial([1.0]))

    def test_compose_matches_matrix_product(self, rng):
        sys = random_system(rng)
        w = gramian(sys)
        inv = gramian_inverse(sys)
        np.testing.assert_allclose(w.compose(inv).as_matrix(),
                                   w.as_matrix() @ inv.as_matrix(), atol=1e-10)

    def test_compose_needs_the_same_modes(self):
        a = GraphonSystem(0.0, 1.0, StepGraphon([[0.5]]), (), 1.0)
        b = GraphonSystem(0.0, 1.0, StepGraphon([[0.3]]), (), 1.0)
        with pytest.raises(IncompatibleOperandsError):
            gramian(a).compose(gramian(b))

    def test_spectral_lower_bound_is_min_direction(self):
        # a negative eigenvalue pulls its direction below the complement, a positive one not
        for kernel, lowest in (([[-1.0]], 1), ([[1.0]], 0)):
            sys = GraphonSystem(0.0, 1.0, StepGraphon(kernel), (), 1.0)
            values = gramian(sys).values
            assert values[0] == 1.0
            assert exact_controllability_check(sys).spectral_lower_bound == values[lowest]


class TestGramian:
    def test_matches_simpson_oracle(self, rng):
        for _ in range(6):
            sys = random_system(rng)
            state, inp = oracles.system_matrices(sys.kernel.coeffs, sys.alpha0,
                                                 sys.beta0, sys.input_poly)
            reference = oracles.simpson_gramian(state, inp, sys.horizon, 512)
            closed = gramian(sys).as_matrix()
            err = np.linalg.norm(closed - reference) / np.linalg.norm(reference)
            assert err < 1e-6

    def test_eigen_action(self, rng):
        sys = random_system(rng)
        w = gramian(sys)
        for idx, lam in enumerate(sys.modes.eigenvalues):
            func = sys.modes.combine(np.eye(sys.modes.rank)[idx])
            image = w.apply(func)
            expected = (sys.input_eta(lam) ** 2
                        * growth_integral(2.0 * (sys.alpha0 + lam), sys.horizon))
            np.testing.assert_allclose(image.values, expected * func.values,
                                       atol=1e-12)
            assert w.values[idx + 1] == pytest.approx(expected, rel=1e-12)

    def test_sinusoidal_system_scalar_action_off_modes(self):
        kernel = SinusoidalGraphon(0.4, [0.3])
        sys = GraphonSystem(-0.1, 1.0, kernel, (), 1.0)
        w = gramian(sys)
        off_mode = TrigPolynomial.sine_mode(5)  # orthogonal to all kernel modes
        image = w.apply(off_mode)
        xs = np.linspace(0.0, 1.0, 33)
        np.testing.assert_allclose(image(xs), w.values[0] * off_mode(xs), atol=1e-12)


    def test_overflow_through_eta_names_its_direction(self):
        kernel = StepGraphon(np.diag([1.0, 0.5]))
        with pytest.raises(NumericsError, match=r"^Gramian exceeds the float range on the "
                           r"complement \(lambda=0, eta=1e\+200\)$"):
            gramian(GraphonSystem(0.0, 1e200, kernel, (), 1.0))
        with pytest.raises(NumericsError, match=r"^Gramian exceeds the float range on "
                           r"eigendirection 0 \(lambda=1, eta=inf\)$"):
            gramian(GraphonSystem(0.0, 1.0, StepGraphon(np.ones((2, 2))), (1e308, 1e308), 1.0))
        # an exponent beyond the float range is named first, whatever eta is
        with pytest.raises(NumericsError, match=r"^exp\(1400\) exceeds the float range$"):
            gramian(GraphonSystem(700.0, 1e200, kernel, (), 1.0))


class TestGramianInverse:
    def test_composition_is_identity(self, rng):
        for _ in range(4):
            sys = random_system(rng)
            inv = gramian_inverse(sys)
            product = gramian(sys).as_matrix() @ inv.as_matrix()
            np.testing.assert_allclose(product, np.eye(sys.kernel.num_blocks),
                                       atol=1e-8)

    def test_zero_gain_refused(self):
        sys = GraphonSystem(0.0, 0.0, StepGraphon([[0.5]]), (0.5,), 1.0)
        with pytest.raises(ExactControllabilityError, match="beta0"):
            gramian_inverse(sys)

    def test_dead_eigendirection_refused(self):
        # beta0 + beta1 * lambda = 1 - 2 * 0.5 = 0 kills the only direction
        sys = GraphonSystem(0.0, 1.0, StepGraphon([[0.5]]), (-2.0,), 1.0)
        with pytest.raises(ExactControllabilityError, match="eigendirection"):
            gramian_inverse(sys)

    def test_first_refused_eigendirection_is_named(self):
        # eta = 1 - 24 lambda + 128 lambda^2 is 3, 0, 0 on lambda = 1/4, 1/8, 1/16
        kernel = StepGraphon(np.diag([1.0, 0.5, 0.25, 0.0]))
        sys = GraphonSystem(0.0, 1.0, kernel, (-24.0, 128.0), 1.0)
        with pytest.raises(ExactControllabilityError, match=r"^Gramian vanishes on "
                           r"eigendirection 1 \(lambda=0\.125, eta=0\)$"):
            gramian_inverse(sys)
        # eta^2 overflows to inf on both directions, and the first is named
        sys = GraphonSystem(0.0, 1.0, StepGraphon(np.diag([1.0, 0.5])), (1e200,), 1.0)
        with pytest.raises(NumericsError, match=r"float range on eigendirection 0 "
                           r"\(lambda=0\.5, eta=5e\+199\)$"):
            gramian_inverse(sys)


class TestControllabilityCheck:
    def test_positive_verdict(self, rng):
        sys = random_system(rng)
        report = exact_controllability_check(sys)
        assert report.controllable
        assert report.identity_gain_nonzero
        assert report.spectral_lower_bound > 0.0
        assert report.horizon == sys.horizon

    def test_zero_gain_verdict(self):
        sys = GraphonSystem(0.0, 0.0, StepGraphon([[0.5]]), (1.0,), 1.0)
        report = exact_controllability_check(sys)
        assert not report.controllable
        assert not report.identity_gain_nonzero


class TestMinEnergyControl:
    def test_scalar_closed_form(self):
        # A = 0, alpha0 = 0, beta0 = 1, T = 1: W = 1, u(t) = -x0, J = |x0|^2
        sys = GraphonSystem(0.0, 1.0, StepGraphon([[0.0]]), (), 1.0)
        x0 = PiecewiseConstantFunction([1.0])
        u, energy = min_energy_control(sys, x0)
        assert energy == pytest.approx(1.0, rel=1e-12)
        for t in (0.0, 0.4, 1.0):
            assert u(t).values[0] == pytest.approx(-1.0, rel=1e-12)

    def test_steers_to_origin_and_energy_matches_integral(self, rng):
        for _ in range(3):
            sys = random_system(rng, max_blocks=5)
            x0 = PiecewiseConstantFunction(rng.normal(size=sys.kernel.num_blocks))
            u, energy = min_energy_control(sys, x0)
            trajectory = simulate(sys, x0, u, step=sys.horizon / 4000)
            final = trajectory.state_norms()[-1]
            assert final <= 1e-6 * x0.l2_norm()
            # the reported energy is the integral of ||u(t)||^2
            times = np.linspace(0.0, sys.horizon, 2001)
            norms_sq = [u(t).l2_norm() ** 2 for t in times]
            quad = np.trapezoid(norms_sq, times)
            assert energy == pytest.approx(quad, rel=1e-6)

    def test_steering_from_a_coarser_initial_partition(self):
        # 3-block kernel, 2-block x0: state, coordinates and control meet on 6 blocks
        kernel = StepGraphon([[0.6, 0.2, -0.3], [0.2, 0.1, 0.5], [-0.3, 0.5, 0.4]])
        sys = GraphonSystem(-0.3, 0.8, kernel, (0.4,), 1.2)
        x0 = PiecewiseConstantFunction([1.0, -0.7])
        u, energy = min_energy_control(sys, x0)
        trajectory = simulate(sys, x0, u, step=sys.horizon / 4000)
        assert trajectory.num_blocks == 6
        assert trajectory.state_norms()[-1] <= 1e-6 * x0.l2_norm()
        times = np.linspace(0.0, sys.horizon, 2001)
        quad = np.trapezoid([u(t).l2_norm() ** 2 for t in times], times)
        assert energy == pytest.approx(quad, rel=1e-6)

    def test_sinusoidal_steering_via_variation_of_constants(self):
        kernel = SinusoidalGraphon(0.5, [0.3])
        sys = GraphonSystem(-0.2, 1.0, kernel, (0.5,), 1.0)
        x0 = TrigPolynomial([1.0, 0.8, 0.0, 0.0, 0.4])
        u, energy = min_energy_control(sys, x0)
        assert energy > 0.0
        t_final = sys.horizon

        def final_coefficient(lam, func):
            rate = sys.alpha0 + lam
            eta = sys.input_eta(lam)
            free = math.exp(rate * t_final) * oracles.exact_inner_product(x0, func)

            def integrand(s):
                return (math.exp(rate * (t_final - s))
                        * oracles.exact_inner_product(u(s), func))

            forced, _ = scipy.integrate.quad(integrand, 0.0, t_final, limit=200)
            return free + eta * forced

        for lam, unit in zip(sys.modes.eigenvalues, np.eye(sys.modes.rank)):
            assert final_coefficient(lam, sys.modes.combine(unit)) == pytest.approx(0.0, abs=1e-9)
        # the part orthogonal to every mode (here the second sine harmonic)
        assert final_coefficient(0.0, TrigPolynomial.sine_mode(2)) == pytest.approx(
            0.0, abs=1e-9)

    def test_zero_gain_refused(self):
        sys = GraphonSystem(0.0, 0.0, StepGraphon([[0.5]]), (1.0,), 1.0)
        with pytest.raises(ExactControllabilityError, match="beta0"):
            min_energy_control(sys, PiecewiseConstantFunction([1.0]))

    def test_dead_eigendirection_refused(self):
        # same refusal as gramian_inverse: 1 - 2 * 0.5 = 0 kills the only direction
        sys = GraphonSystem(0.0, 1.0, StepGraphon([[0.5]]), (-2.0,), 1.0)
        with pytest.raises(ExactControllabilityError, match="eigendirection 0"):
            min_energy_control(sys, PiecewiseConstantFunction([1.0]))

    @pytest.mark.parametrize("kernel,x0", [
        (StepGraphon([[0.5, 0.2], [0.2, 0.1]]), TrigPolynomial([1.0, 0.5, 0.0])),
        (SinusoidalGraphon(0.4, [0.3]), PiecewiseConstantFunction([1.0, -1.0])),
    ])
    def test_other_function_family_refused(self, kernel, x0):
        sys = GraphonSystem(0.0, 1.0, kernel, (), 1.0)
        with pytest.raises(IncompatibleOperandsError):
            min_energy_control(sys, x0)


class TestSimulate:
    def test_uncontrolled_matches_matrix_exponential(self, rng):
        sys = random_system(rng)
        n = sys.kernel.num_blocks
        x0 = PiecewiseConstantFunction(rng.normal(size=n))
        trajectory = simulate(sys, x0, None, step=sys.horizon / 2000)
        state, _ = oracles.system_matrices(sys.kernel.coeffs, sys.alpha0, sys.beta0)
        expected = scipy.linalg.expm(state * sys.horizon) @ x0.values
        np.testing.assert_allclose(trajectory.states[-1], expected, atol=1e-8)
        assert trajectory.controls is None

    def test_state_lives_on_common_refinement(self):
        sys = GraphonSystem(0.0, 1.0, StepGraphon(np.full((3, 3), 0.3)), (), 1.0)
        x0 = PiecewiseConstantFunction([1.0, -1.0])
        trajectory = simulate(sys, x0, None, step=0.25)
        assert trajectory.num_blocks == 6
        assert trajectory.times.size == 5
        np.testing.assert_allclose(trajectory.state_norms()[0], x0.l2_norm())

    def test_other_controls_refused(self, rng):
        sys = random_system(rng)
        other = random_system(rng)
        x0 = PiecewiseConstantFunction(np.ones(sys.kernel.num_blocks))
        u, _ = min_energy_control(sys, x0)
        for control in (lambda t: u(t),
                        u.__call__,
                        min_energy_control(sys, PiecewiseConstantFunction(x0.values))[0],
                        min_energy_control(other, PiecewiseConstantFunction(
                            np.ones(other.kernel.num_blocks)))[0]):
            with pytest.raises(TypeError, match="min_energy_control"):
                simulate(sys, x0, control, step=0.5)

    def test_wrapped_control_is_read_not_called(self, rng):
        sys = random_system(rng)
        x0 = PiecewiseConstantFunction(rng.normal(size=sys.kernel.num_blocks))
        u, _ = min_energy_control(sys, x0)
        calls = []

        @functools.wraps(u)
        def counted(t):
            calls.append(t)
            return u(t)

        got = simulate(sys, x0, counted, step=sys.horizon / 50)
        want = simulate(sys, x0, u, step=sys.horizon / 50)
        assert not calls
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.controls, want.controls)

    def test_overflowing_state_names_the_time(self):
        sys = GraphonSystem(800.0, 1.0, StepGraphon([[0.5]]), (), 1.0)
        with pytest.raises(NumericsError, match="non-finite at t=0.89"):
            simulate(sys, PiecewiseConstantFunction([1.0]), None, step=0.01)

    @pytest.mark.parametrize("step", [0.0, -0.5, float("nan")])
    def test_step_must_be_positive(self, rng, step):
        sys = random_system(rng)
        x0 = PiecewiseConstantFunction(np.ones(sys.kernel.num_blocks))
        with pytest.raises(ValueError, match="step must be positive"):
            simulate(sys, x0, None, step=step)

    def test_sinusoidal_kernel_refused(self):
        sys = GraphonSystem(0.0, 1.0, SinusoidalGraphon(0.5, []), (), 1.0)
        with pytest.raises(IncompatibleOperandsError, match="step kernel"):
            simulate(sys, TrigPolynomial([1.0]))


class TestClosedFormTrajectory:
    """simulate against tests/oracles.py: expm for the free flow, converged RK4
    of x' = A x + B u(t) under the min-energy control."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(1, 4),
           refine=st.integers(1, 3), alpha0=st.floats(-3.0, 3.0),
           beta0=st.floats(0.3, 2.0), degree=st.integers(0, 2),
           horizon=st.floats(0.3, 1.5))
    @example(seed=1, blocks=3, refine=2, alpha0=-3.0, beta0=1.0, degree=1, horizon=1.5)
    @example(seed=2, blocks=1, refine=3, alpha0=0.0, beta0=0.5, degree=0, horizon=1.0)
    def test_matches_independent_integration(self, seed, blocks, refine, alpha0,
                                             beta0, degree, horizon):
        gen = np.random.default_rng(seed)
        raw = gen.uniform(-1.0, 1.0, (blocks, blocks))
        kernel = StepGraphon((raw + raw.T) / 2.0)
        sys = GraphonSystem(alpha0, beta0, kernel,
                            tuple(gen.uniform(-0.5, 0.5, degree)), horizon)
        assume(np.abs(np.append(sys.mode_etas, beta0)).min() > 0.05)
        # x0 on a finer partition: states live on blocks * refine blocks
        merged = blocks * refine
        x0 = PiecewiseConstantFunction(gen.normal(size=merged))
        num_steps = 20
        free = simulate(sys, x0, None, step=horizon / num_steps)
        fine = np.repeat(np.repeat(kernel.coeffs, refine, 0), refine, 1)
        state_mat, input_mat = oracles.system_matrices(fine, alpha0, beta0,
                                                       sys.input_poly)
        np.testing.assert_allclose(
            free.states, oracles.expm_states(state_mat, x0.values, free.times),
            rtol=1e-12, atol=1e-12 * np.abs(free.states).max())
        assert free.controls is None

        u, _ = min_energy_control(sys, x0)
        steered = simulate(sys, x0, u, step=horizon / num_steps)
        reference = oracles.step_halving(
            lambda k: oracles.rk4_states(
                lambda t, x: state_mat @ x + input_mat @ u(t).values,
                x0.values, horizon, k),
            num_steps)
        np.testing.assert_allclose(steered.states, reference, rtol=0.0,
                                   atol=1e-8 * np.abs(reference).max())
        assert not steered.states[-1].any()
        np.testing.assert_allclose(
            steered.controls, np.stack([u(t).values for t in steered.times]),
            rtol=1e-12, atol=1e-13 * np.abs(steered.controls).max())


class TestQuadratureGramian:
    @pytest.mark.parametrize("degree", range(4))
    def test_matches_expm_stepped_simpson(self, rng, degree):
        # the same rule on nodes built by repeated expm steps, with no eigensolve
        kernel = random_symmetric_graphon(rng)
        poly = tuple(rng.uniform(-0.5, 0.5, degree).tolist())
        sys = GraphonSystem(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 1.5)),
                            kernel, poly, float(rng.uniform(0.4, 2.0)))
        state, inp = oracles.system_matrices(kernel.coeffs, sys.alpha0, sys.beta0, poly)
        reference = oracles.simpson_gramian(state, inp, sys.horizon, 2048)
        quadrature = gramian_quadrature_matrix(sys)
        assert np.linalg.norm(quadrature - reference) <= 1e-10 * np.linalg.norm(reference)

    def test_rejects_sinusoidal(self):
        sys = GraphonSystem(0.0, 1.0, SinusoidalGraphon(0.5, []), (), 1.0)
        with pytest.raises(IncompatibleOperandsError):
            gramian_quadrature_matrix(sys)
