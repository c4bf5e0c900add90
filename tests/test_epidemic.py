import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from graphonctl.epidemic import (
    EpidemicModel,
    RegulatorParams,
    closed_loop_cost,
    linear_costs,
    linear_feedback,
    optimal_control_finite,
    simulate_linearized,
    simulate_nonlinear,
    solve_riccati_finite,
    solve_riccati_graphon,
    stability_threshold,
)
import graphonctl.epidemic as epidemic
from graphonctl.errors import NumericsError
from graphonctl.graphons import SinusoidalGraphon, StepGraphon
from graphonctl.netio import sample_graph
from graphonctl.spectral import SpectralMultiplier

import oracles
from conftest import random_probability_graphon
from test_integrate import stacked_lawson_rk4

BASELINE_REGULATOR = dict(alpha=0.5, beta0=1.0, state_weight=2.0,
                          terminal_weight=4.0, horizon=1.0)


def random_model(rng, max_blocks=6, **overrides):
    contact = random_probability_graphon(rng, max_blocks)
    kwargs = dict(BASELINE_REGULATOR, eta=1.5 / contact.num_blocks)
    kwargs.update(overrides)
    return EpidemicModel(contact, **kwargs)


class TestRegulatorParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegulatorParams(0.0, 1.0, 1.0, terminal_weight=-1.0)
        with pytest.raises(ValueError):
            RegulatorParams(0.0, 1.0, 1.0, state_weight=-2.0)
        with pytest.raises(ValueError):
            RegulatorParams(0.0, 1.0, 1.0, horizon=0.0)


class TestEpidemicModel:
    def test_eta_resolution(self):
        contact = StepGraphon(np.full((3, 3), 0.5))
        by_pair = EpidemicModel(contact, alpha=1.0, eta=0.5)
        assert by_pair.eta_total == pytest.approx(1.5)
        by_total = EpidemicModel(contact, alpha=1.0, eta_total=1.5)
        assert by_total.eta == pytest.approx(0.5)
        consistent = EpidemicModel(contact, alpha=1.0, eta=0.5, eta_total=1.5)
        assert consistent.eta == 0.5
        with pytest.raises(ValueError, match="inconsistent"):
            EpidemicModel(contact, alpha=1.0, eta=0.5, eta_total=2.0)
        with pytest.raises(ValueError, match="eta"):
            EpidemicModel(contact, alpha=1.0)

    def test_contact_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EpidemicModel(StepGraphon([[-0.5]]), alpha=1.0, eta=1.0)


class TestStabilityThreshold:
    def test_two_cycle_threshold_at_one(self):
        contact = StepGraphon([[0.0, 1.0], [1.0, 0.0]])
        lam_max, stable = stability_threshold(
            EpidemicModel(contact, alpha=1.1, eta=1.0))
        assert lam_max == pytest.approx(1.0)
        assert stable
        _, unstable_flag = stability_threshold(
            EpidemicModel(contact, alpha=0.9, eta=1.0))
        assert not unstable_flag

    def test_matches_adjacency_eigenvalue(self, rng):
        model = random_model(rng)
        lam_max, _ = stability_threshold(model)
        assert lam_max == pytest.approx(
            np.linalg.eigvalsh(model.adjacency).max(), abs=1e-10)

    def test_zero_kernel(self):
        model = EpidemicModel(StepGraphon([[0.0]]), alpha=0.0, eta=1.0)
        lam_max, stable = stability_threshold(model)
        assert lam_max == 0.0
        assert stable


class TestRiccati:
    def test_single_node_matches_closed_form(self):
        contact = StepGraphon([[0.8]])
        model = EpidemicModel(contact, eta=1.5, **BASELINE_REGULATOR)
        sol = solve_riccati_finite(model, num_steps=4000)
        lam = 0.8
        for column, lam_val in ((sol.auxiliary, 0.0), (sol.modes[:, 0], lam)):
            linear = 2.0 * (model.alpha - model.eta_total * lam_val)
            quadratic = model.beta0 ** 2 / (lam_val ** 2 - 2.0 * lam_val + 2.0)
            exact = oracles.scalar_riccati_closed_form(
                linear, quadratic, 2.0, 4.0, 1.0)
            for idx in (0, len(sol.times) // 2, -1):
                assert column[idx] == pytest.approx(exact(sol.times[idx]),
                                                    rel=1e-9)

    def test_finite_and_graphon_solvers_share_floats(self, rng):
        model = random_model(rng)
        finite = solve_riccati_finite(model, num_steps=2000)
        limit = solve_riccati_graphon(model.contact, model.regulator_params(),
                                      num_steps=2000)
        np.testing.assert_array_equal(finite.auxiliary, limit.auxiliary)
        np.testing.assert_array_equal(finite.modes, limit.modes)

    def test_values_on_the_grid_are_the_table(self, rng):
        model = random_model(rng)
        sol = solve_riccati_finite(model, num_steps=40)
        lams = np.concatenate(([0.0], sol.eigenvalues))
        table = np.column_stack((sol.auxiliary, sol.modes))
        np.testing.assert_array_equal(sol.values(sol.times), table)
        np.testing.assert_array_equal(
            epidemic._riccati_values(sol.params, lams, sol.times), table)
        coarse = sol.times[::2]  # another grid: the closed form is evaluated there
        np.testing.assert_array_equal(sol.values(coarse),
                                      epidemic._riccati_values(sol.params, lams, coarse))
        np.testing.assert_allclose(sol.values(coarse), table[::2], rtol=1e-14)

    def test_value_at_interpolates_grid(self, rng):
        model = random_model(rng)
        sol = solve_riccati_finite(model, num_steps=500)
        aux, pis = sol.value_at(float(sol.times[123]))
        assert aux == pytest.approx(sol.auxiliary[123], rel=1e-14)
        np.testing.assert_allclose(pis, sol.modes[123], rtol=1e-14)


def _direction_coefficients(params, lam):
    linear = 2.0 * (params.alpha0 - params.eta_total * lam)
    quadratic = params.beta0 ** 2 / (lam ** 2 - 2.0 * lam + 2.0)
    return linear, quadratic


# With tiny weights the reference has to step through hundreds of e-folds of
# growth; test_tiny_weight_does_not_underflow covers that end instead.
weights = st.one_of(st.just(0.0), st.floats(1e-12, 100.0))


class TestClosedForm:
    @settings(max_examples=30, deadline=None)
    @given(alpha0=st.floats(-1e4, 1e4), eta_total=st.floats(0.0, 100.0),
           lam=st.floats(-1.0, 1.0), beta0=st.floats(0.05, 10.0),
           q=weights, q_terminal=weights, horizon=st.floats(0.01, 10.0),
           fraction=st.floats(0.0, 1.0))
    def test_matches_independent_integration(self, alpha0, eta_total, lam,
                                             beta0, q, q_terminal, horizon,
                                             fraction):
        params = RegulatorParams(alpha0, beta0, eta_total, q, q_terminal, horizon)
        sol = solve_riccati_graphon(StepGraphon([[lam]]), params, num_steps=8)
        table = np.column_stack((sol.auxiliary, sol.modes))
        assert np.all(np.isfinite(table)) and np.all(table >= 0.0)
        # one direction per example keeps the stiff reference affordable;
        # lam = 0 leaves only the auxiliary, which is the same family at 0
        off_grid = fraction * horizon
        aux, pis = sol.value_at(off_grid)
        if sol.eigenvalues.size:
            direction, mine = sol.eigenvalues[0], np.append(sol.modes[:, 0], pis[0])
        else:
            direction, mine = 0.0, np.append(sol.auxiliary, aux)
        times = np.append(sol.times, off_grid)
        reference = oracles.scalar_riccati_ode(
            *_direction_coefficients(params, direction), q, q_terminal,
            horizon, times)
        assert np.all(np.isfinite(mine)) and np.all(mine >= 0.0)
        # below 1e-12 of the weights only the reference's own atol is resolved
        np.testing.assert_allclose(mine, reference, rtol=1e-9,
                                   atol=1e-12 * max(q, q_terminal))

    @pytest.mark.parametrize("eta_total, expected", [(1.5e4, 30001.0000666),
                                                     (3e4, 60001.0000333)])
    def test_stiff_constant_kernel(self, eta_total, expected):
        model = EpidemicModel(StepGraphon([[1.0]]), eta_total=eta_total,
                              **dict(BASELINE_REGULATOR, alpha=-0.5))
        sol = solve_riccati_finite(model)
        exact = oracles.scalar_riccati_closed_form(
            *_direction_coefficients(model.regulator_params(), 1.0), 2.0, 4.0, 1.0)
        assert sol.modes[0, 0] == pytest.approx(exact(0.0), rel=1e-12)
        assert sol.modes[0, 0] == pytest.approx(expected, rel=1e-11)

    def test_zero_weights_give_exact_zeros(self):
        params = RegulatorParams(-3.0, 1.0, 2.0, state_weight=0.0,
                                 terminal_weight=0.0)
        sol = solve_riccati_graphon(StepGraphon([[0.7]]), params, num_steps=10)
        assert not sol.auxiliary.any() and not sol.modes.any()
        aux, pis = sol.value_at(0.3)
        assert aux == 0.0 and not pis.any()

    def test_tiny_weight_does_not_underflow(self):
        # h = 0, so c = sqrt(b q) ~ 1e-134 and q (1 - e) would underflow
        params = RegulatorParams(0.0, 1.0, 0.0, state_weight=1.341390309501434e-267,
                                 terminal_weight=0.0)
        sol = solve_riccati_graphon(StepGraphon([[0.5]]), params, num_steps=4)
        tau = params.horizon - sol.times
        np.testing.assert_allclose(sol.auxiliary, params.state_weight * tau,
                                   rtol=1e-12)

    def test_critical_direction_is_rational(self):
        # h = alpha0 - eta_total * lam vanishes for the auxiliary (alpha0 = 0)
        # and, with q = 0, so does c = sqrt(h^2 + b q)
        params = RegulatorParams(0.0, 1.0, 1.0, state_weight=0.0,
                                 terminal_weight=4.0, horizon=2.0)
        sol = solve_riccati_graphon(StepGraphon([[0.5]]), params, num_steps=20)
        tau = params.horizon - sol.times
        np.testing.assert_allclose(sol.auxiliary, 4.0 / (1.0 + 0.5 * 4.0 * tau),
                                   rtol=1e-15)
        critical = RegulatorParams(0.5, 1.0, 1.0, state_weight=0.0,
                                   terminal_weight=4.0, horizon=2.0)
        sol = solve_riccati_graphon(StepGraphon([[0.5]]), critical, num_steps=20)
        b = 1.0 / (0.5 ** 2 - 2.0 * 0.5 + 2.0)
        np.testing.assert_allclose(sol.modes[:, 0], 4.0 / (1.0 + b * 4.0 * tau),
                                   rtol=1e-15)

    def test_zero_gain_supercritical_direction_is_named(self):
        model = EpidemicModel(StepGraphon(np.full((2, 2), 1.0)), alpha=0.5,
                              beta0=0.0, eta_total=1000.0)
        with pytest.raises(NumericsError,
                           match="eigendirection with eigenvalue 1"):
            solve_riccati_finite(model, num_steps=100)


class TestFeedbackAgainstMatrixOracle:
    def test_control_matches_full_matrix_regulator(self, rng):
        for _ in range(3):
            model = random_model(rng, max_blocks=5)
            sol = solve_riccati_finite(model, num_steps=4000)
            _, _, oracle_feedback = oracles.epidemic_lqr_oracle(
                model.adjacency, model.alpha, model.eta, model.beta0,
                2.0, 4.0, 1.0, num_steps=4000)
            for t in (0.0, 0.37, 0.92):
                state = rng.normal(size=model.num_nodes)
                mine = optimal_control_finite(model, sol, state, t)
                ref = oracle_feedback(t, state)
                np.testing.assert_allclose(mine, ref, atol=2e-6)


class TestFeedbackTable:
    def test_law_is_optimal_control_finite_at_any_time(self, rng, monkeypatch):
        model = random_model(rng)
        sol = solve_riccati_finite(model, num_steps=500)
        law = linear_feedback(model, sol)
        state = rng.uniform(0.0, 0.3, size=model.num_nodes)
        times = np.concatenate((np.linspace(0.0, model.horizon, 7),
                                rng.uniform(0.0, model.horizon, 20),
                                [-0.1, model.horizon + 0.1]))
        expected = [optimal_control_finite(model, sol, state, t) for t in times]

        calls = []

        def counted(*args):
            calls.append(args[-1])
            return optimal_control_finite(*args)

        monkeypatch.setattr(epidemic, "optimal_control_finite", counted)
        for t, e in zip(times, expected):
            assert np.array_equal(law(t, state), e)
        assert calls == list(times)

    def test_linear_run_reads_the_law_without_calling_it(self, rng):
        model = random_model(rng)
        sol = solve_riccati_finite(model, num_steps=100)
        law = linear_feedback(model, sol)
        calls = []

        @functools.wraps(law)
        def counted(t, p):
            calls.append(t)
            return law(t, p)

        p0 = np.full(model.num_nodes, 0.1)
        got = simulate_linearized(model, p0, counted, num_steps=50)
        want = simulate_linearized(model, p0, law, num_steps=50)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.controls, want.controls)
        got = simulate_nonlinear(model, p0, counted, num_steps=50)
        want = simulate_nonlinear(model, p0, law, num_steps=50)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.controls, want.controls)
        assert not calls

    def test_other_controls_refused(self, rng):
        model = random_model(rng)
        sol = solve_riccati_finite(model, num_steps=100)
        law = linear_feedback(model, sol)
        twin = EpidemicModel(model.contact, **BASELINE_REGULATOR,
                             eta=model.eta)
        for control in (lambda t, p: law(t, p),
                        linear_feedback(twin, solve_riccati_finite(twin, 100))):
            with pytest.raises(TypeError, match="linear_feedback"):
                simulate_linearized(model, np.full(model.num_nodes, 0.1), control)
        other_weight = dataclasses.replace(model.regulator_params(), state_weight=1.0)
        other_kernel = random_model(rng)
        for sol in (solve_riccati_graphon(model.contact, other_weight, 100),
                    solve_riccati_finite(other_kernel, 100)):
            with pytest.raises(ValueError, match="another model"):
                simulate_linearized(model, np.full(model.num_nodes, 0.1),
                                    linear_feedback(model, sol))

    def test_foreign_solution_refused_by_the_nonlinear_run(self, rng):
        model = random_model(rng)
        other_weight = dataclasses.replace(model.regulator_params(), state_weight=1.0)
        law = linear_feedback(model, solve_riccati_graphon(model.contact, other_weight, 100))
        with pytest.raises(ValueError, match="another model"):
            simulate_nonlinear(model, np.full(model.num_nodes, 0.1), law, 50)

    def test_foreign_solution_refused_by_the_finite_control(self):
        contact = StepGraphon([[0.6, 0.3], [0.3, 0.5]])
        model, other = (EpidemicModel(contact, **dict(BASELINE_REGULATOR, beta0=beta0), eta=0.5)
                        for beta0 in (1.0, 0.2))
        state = np.array([0.3, 0.1])
        optimal_control_finite(model, solve_riccati_finite(model, 100), state, 0.0)
        with pytest.raises(ValueError, match="another model"):
            optimal_control_finite(model, solve_riccati_finite(other, 100), state, 0.0)


class TestSimulation:
    @pytest.mark.parametrize("num_steps", [0, -3])
    def test_needs_a_step(self, rng, num_steps):
        model = random_model(rng)
        p0 = np.full(model.num_nodes, 0.1)
        law = linear_feedback(model, solve_riccati_finite(model, num_steps=4))
        for run in (lambda: solve_riccati_finite(model, num_steps),
                    lambda: simulate_linearized(model, p0, law, num_steps),
                    lambda: simulate_nonlinear(model, p0, law, num_steps)):
            with pytest.raises(ValueError, match="num_steps"):
                run()

    def test_uncontrolled_linear_flow_matches_expm(self, rng):
        import scipy.linalg

        model = random_model(rng)
        p0 = rng.uniform(0.0, 0.2, size=model.num_nodes)
        trajectory = simulate_linearized(model, p0, None, num_steps=2000)
        drift = -model.alpha * np.eye(model.num_nodes) + model.eta * model.adjacency
        expected = scipy.linalg.expm(drift * model.horizon) @ p0
        np.testing.assert_allclose(trajectory.states[-1], expected, atol=1e-9)

    def test_closed_loop_records_controls(self, rng):
        model = random_model(rng)
        sol = solve_riccati_finite(model, num_steps=1000)
        law = linear_feedback(model, sol)
        trajectory = simulate_linearized(model, np.full(model.num_nodes, 0.1),
                                         law, num_steps=200)
        assert trajectory.controls.shape == trajectory.states.shape
        np.testing.assert_allclose(
            trajectory.controls[0],
            optimal_control_finite(model, sol, trajectory.states[0], 0.0))

    def test_nonlinear_requires_fractions(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            simulate_nonlinear(model, np.full(model.num_nodes, 1.2))

    def test_nonlinear_stays_in_box_uncontrolled(self, rng):
        model = random_model(rng)
        p0 = rng.uniform(0.0, 1.0, size=model.num_nodes)
        trajectory = simulate_nonlinear(model, p0, None, num_steps=500)
        assert not trajectory.range_warning
        assert trajectory.states.min() >= -1e-9
        assert trajectory.states.max() <= 1.0 + 1e-9

    def test_forced_escape_sets_range_warning(self, rng):
        model = random_model(rng)

        def push(t, p):
            return np.full(model.num_nodes, 5.0)

        with pytest.warns(RuntimeWarning, match="unreliable"):
            trajectory = simulate_nonlinear(model, np.full(model.num_nodes, 0.9),
                                            push, num_steps=200)
        assert trajectory.range_warning


def _nonlinear_against_radau(model, p0, controlled, num_steps, rtol):
    """Largest distance of simulate_nonlinear from the Radau oracle, relative
    to the largest state, after checking the recorded controls."""
    law = linear_feedback(model, solve_riccati_finite(model, num_steps=4)) if controlled else None
    trajectory = simulate_nonlinear(model, p0, law, num_steps)
    if controlled:
        per_call = np.stack([law(t, p) for t, p in zip(trajectory.times, trajectory.states)])
        np.testing.assert_allclose(trajectory.controls, per_call, rtol=0.0,
                                   atol=1e-13 * np.abs(per_call).max())
    else:
        assert trajectory.controls is None
    weights = (model.state_weight, model.terminal_weight) if controlled else None
    expected = oracles.radau_states(model.adjacency, model.alpha, model.eta, model.beta0,
                                    p0, model.horizon, trajectory.times, weights, rtol=rtol)
    return np.abs(trajectory.states - expected).max() / np.abs(expected).max()


class TestNonlinearAgainstRadau:
    @pytest.mark.parametrize("controlled", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_models(self, seed, controlled):
        gen = np.random.default_rng(seed)
        model = EpidemicModel(random_probability_graphon(gen, 6),
                              alpha=gen.uniform(-1.0, 1.0), beta0=gen.uniform(0.5, 2.0),
                              eta_total=gen.uniform(0.5, 6.0),
                              state_weight=gen.uniform(0.5, 5.0),
                              terminal_weight=gen.uniform(0.5, 5.0),
                              horizon=gen.uniform(0.5, 1.5))
        p0 = gen.uniform(0.0, 0.5, model.num_nodes)
        assert _nonlinear_against_radau(model, p0, controlled, 200, 1e-12) < 1e-10

    def test_stiff_draw(self):
        # explicit RK4 at this step leaves its stability region within a few steps
        gen = np.random.default_rng(13)
        model = EpidemicModel(random_probability_graphon(gen, 6), eta_total=7200.0,
                              **dict(BASELINE_REGULATOR, alpha=-0.5))
        p0 = gen.uniform(0.0, 0.3, model.num_nodes)
        assert _nonlinear_against_radau(model, p0, True, 1000, 1e-10) < 1e-2

    @pytest.mark.parametrize("control", ["none", "idle feedback", "zero forcing"])
    @pytest.mark.parametrize("eta_total_step, bound", [(1.2, 2e-3), (2.0, 2e-2), (2.5, 6e-2)])
    def test_saturated_open_loop(self, eta_total_step, bound, control):
        # complete 4-partite graph, parts 2, 4, 6, 8, at h = 1e-3; the Perron
        # mode grows at g with g h = 0.85, 1.42 and 1.78.  The spread
        # saturates near p = 1, where N damps that mode at -2g: moved
        # exactly, its growth made the step unstable from g h ~ 1.  Plain
        # RK4 is off Radau by 8.8e-4, 8.4e-3 and 2.9e-2 here.
        parts = np.repeat(np.arange(4), [2, 4, 6, 8])
        adjacency = (parts[:, None] != parts[None, :]).astype(float)
        weights = (0.0, 0.0) if control == "idle feedback" else (2.0, 4.0)
        model = EpidemicModel(StepGraphon(adjacency), alpha=0.5,
                              eta_total=1000.0 * eta_total_step,
                              state_weight=weights[0], terminal_weight=weights[1])
        law = {"none": None, "zero forcing": lambda t, p: np.zeros_like(p),
               "idle feedback": linear_feedback(model, solve_riccati_finite(model, 4))}[control]
        p0 = np.full(model.num_nodes, 0.1)
        trajectory = simulate_nonlinear(model, p0, law)
        assert not trajectory.range_warning
        expected = oracles.radau_states(adjacency, model.alpha, model.eta, model.beta0, p0,
                                        model.horizon, trajectory.times, rtol=1e-10)
        assert np.abs(trajectory.states - expected).max() < bound


def _closed_form_against_oracles(model, p0, num_steps=20):
    """simulate_linearized against expm (open loop) and the converged RK4 of
    the full-matrix LQR closed loop, both from tests/oracles.py."""
    n = model.num_nodes
    drift = -model.alpha * np.eye(n) + model.eta * model.adjacency
    idle = simulate_linearized(model, p0, None, num_steps)
    expected = oracles.expm_states(drift, p0, idle.times)
    np.testing.assert_allclose(idle.states, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
    assert idle.controls is None

    sol = solve_riccati_finite(model, num_steps=4)
    controlled = simulate_linearized(model, p0, linear_feedback(model, sol), num_steps)
    averaging = np.eye(n) - model.adjacency / n
    states, controls = oracles.lqr_closed_loop(
        drift, model.beta0 * np.eye(n), model.state_weight * np.eye(n),
        np.eye(n) + averaging.T @ averaging, model.terminal_weight * np.eye(n),
        p0, model.horizon, num_steps, rtol=1e-8)
    np.testing.assert_allclose(controlled.states, states, rtol=0.0,
                               atol=1e-7 * np.abs(states).max())
    np.testing.assert_allclose(controlled.controls, controls, rtol=0.0,
                               atol=1e-7 * max(np.abs(controls).max(), 1e-300))


class TestClosedFormTrajectory:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(1, 3),
           refine=st.integers(1, 2),
           alpha0=st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
           eta_total=st.floats(0.0, 15.0), beta0=st.floats(0.2, 2.0),
           q=st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
           q_terminal=st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
           horizon=st.floats(0.2, 1.0))
    # repeated blocks leave a complement, where alpha0 = 0 and q = 0 give c = 0
    @example(seed=3, blocks=1, refine=2, alpha0=0.0, eta_total=2.0, beta0=1.0,
             q=0.0, q_terminal=4.0, horizon=1.0)
    @example(seed=4, blocks=2, refine=2, alpha0=-4.0, eta_total=15.0, beta0=1.0,
             q=0.0, q_terminal=0.0, horizon=1.0)
    def test_matches_independent_integration(self, seed, blocks, refine, alpha0,
                                             eta_total, beta0, q, q_terminal,
                                             horizon):
        gen = np.random.default_rng(seed)
        raw = gen.uniform(0.0, 1.0, (blocks, blocks))
        contact = StepGraphon(np.repeat(np.repeat((raw + raw.T) / 2.0, refine, 0),
                                        refine, 1))
        model = EpidemicModel(contact, alpha=alpha0, beta0=beta0,
                              eta_total=eta_total, state_weight=q,
                              terminal_weight=q_terminal, horizon=horizon)
        _closed_form_against_oracles(model, gen.uniform(0.0, 0.2, model.num_nodes))

    def test_critical_eigendirection(self):
        # h = alpha0 - eta_total * lam = 1 - 2 * 0.5 = 0 and q = 0, so c = 0
        model = EpidemicModel(StepGraphon([[0.5]]), alpha=1.0, eta_total=2.0,
                              state_weight=0.0, terminal_weight=4.0, horizon=2.0)
        _closed_form_against_oracles(model, np.array([0.1]))

    @pytest.mark.parametrize("eta_total", [1.5e4, 3e4])
    def test_stiff_constant_kernel(self, eta_total):
        # too stiff for the RK4 reference: y(t) = y(0) exp(-integral of h + b pi)
        # by quadrature, with pi from the scalar closed form of tests/oracles.py
        model = EpidemicModel(StepGraphon([[1.0]]), eta_total=eta_total,
                              **dict(BASELINE_REGULATOR, alpha=-0.5))
        params = model.regulator_params()
        linear, b = _direction_coefficients(params, 1.0)
        pi = oracles.scalar_riccati_closed_form(linear, b, 2.0, 4.0, 1.0)
        sol = solve_riccati_finite(model, num_steps=4)
        trajectory = simulate_linearized(model, np.array([0.1]),
                                         linear_feedback(model, sol), num_steps=1000)
        for k in range(1, 41):
            t = trajectory.times[k]
            exponent, _ = scipy.integrate.quad(lambda s: 0.5 * linear + b * pi(s),
                                               0.0, t, epsabs=0.0, epsrel=1e-13)
            assert trajectory.states[k, 0] == pytest.approx(0.1 * np.exp(-exponent),
                                                           rel=1e-9)


class TestCostAndProjections:
    def test_cost_formula_recomputed(self, rng):
        model = random_model(rng)
        sol = solve_riccati_finite(model, num_steps=1000)
        law = linear_feedback(model, sol)
        trajectory = simulate_linearized(model, np.full(model.num_nodes, 0.1),
                                         law, num_steps=300)
        cost = closed_loop_cost(model, trajectory)
        averaging = np.eye(model.num_nodes) - model.adjacency / model.num_nodes
        integrand = []
        for p, u in zip(trajectory.states, trajectory.controls):
            integrand.append(2.0 * p @ p + u @ u + (averaging @ u) @ (averaging @ u))
        expected = np.trapezoid(integrand, trajectory.times)
        expected += 4.0 * trajectory.states[-1] @ trajectory.states[-1]
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_feedback_beats_zero_control(self, rng):
        model = random_model(rng)
        sol = solve_riccati_finite(model, num_steps=2000)
        law = linear_feedback(model, sol)
        p0 = np.full(model.num_nodes, 0.15)
        controlled = simulate_linearized(model, p0, law, num_steps=500)
        idle = simulate_linearized(model, p0, None, num_steps=500)
        assert closed_loop_cost(model, controlled) < closed_loop_cost(model, idle)


def repeated_block_model(seed, **overrides):
    """Random kernel on 2k nodes, every block value repeated over two nodes, so
    its rank is at most k and a generic p0 has a part off every eigendirection."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    raw = rng.uniform(0.0, 1.0, (k, k))
    contact = StepGraphon(np.kron((raw + raw.T) / 2.0, np.ones((2, 2))))
    kwargs = dict(BASELINE_REGULATOR, eta=1.5 / contact.num_blocks)
    kwargs.update(overrides)
    return EpidemicModel(contact, **kwargs), rng.uniform(0.0, 0.3, 2 * k)


class TestLinearCosts:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("alpha", [0.5, -0.5])
    @pytest.mark.parametrize("weights", [(2.0, 4.0), (0.0, 4.0), (2.0, 0.0), (0.0, 0.0)])
    def test_value_and_converged_trapezoid(self, seed, alpha, weights):
        q, q_terminal = weights
        model, p0 = repeated_block_model(seed, alpha=alpha, state_weight=q,
                                         terminal_weight=q_terminal)
        basis = model.modes.basis
        residual = p0 - basis @ (basis.T @ p0) / model.num_nodes
        assert np.linalg.norm(residual) > 1e-3  # p0 is off the adjacency's range
        optimal, zero_control = linear_costs(model, p0)

        _, sheets, _ = oracles.epidemic_lqr_oracle(
            model.adjacency, model.alpha, model.eta, model.beta0, q, q_terminal,
            model.horizon)
        value = p0 @ sheets[0] @ p0
        # a trapezoid extrapolated from steps h and h/2 leaves an O(h^4) error
        coarse, fine = (closed_loop_cost(model, simulate_linearized(model, p0, None, k))
                        for k in (2000, 4000))
        trapezoid = (4.0 * fine - coarse) / 3.0
        if weights == (0.0, 0.0):
            assert (optimal, zero_control) == (0.0, 0.0)
            assert value == 0.0 and trapezoid == 0.0
        else:
            assert optimal == pytest.approx(value, rel=1e-9)
            assert zero_control == pytest.approx(trapezoid, rel=1e-10)

    def test_overflowing_open_loop_is_exactly_zero_or_infinite(self):
        # eta_total 400 on a constant kernel: its one mode (eigenvalue 1) grows
        # as exp(399.5 t) without control, while the complement decays as exp(-t/2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = EpidemicModel(StepGraphon(np.ones((4, 4))), alpha=0.5,
                                  eta_total=400.0)
            optimal, zero_control = linear_costs(model, np.full(4, 0.1))
            assert math.isfinite(optimal) and zero_control == math.inf
            # off the growing mode its weight is exactly 0 and adds nothing
            off_mode = np.array([0.1, -0.1, 0.0, 0.0])
            assert linear_costs(model, off_mode)[1] == pytest.approx(
                0.02 * (2.0 * -math.expm1(-1.0) + 4.0 * math.exp(-1.0)), rel=1e-14)
            assert linear_costs(model, np.zeros(4)) == (0.0, 0.0)
            unweighted = EpidemicModel(model.contact, alpha=0.5, eta_total=400.0,
                                       state_weight=0.0, terminal_weight=0.0)
            assert linear_costs(unweighted, np.full(4, 0.1)) == (0.0, 0.0)


class TestGraphonLimitCost:
    def test_cost_per_node_approaches_the_graphon_value(self):
        # W = 0.5 + 0.3 cos 2 pi (x - y): p0 = 0.1 lies on its constant
        # eigenfunction (eigenvalue 0.5) with squared L2 norm 0.01
        kernel = SinusoidalGraphon(0.5, [0.3])
        sol = solve_riccati_graphon(kernel, RegulatorParams(-0.5, 1.0, 1.5), num_steps=1)
        assert sol.eigenvalues[0] == pytest.approx(0.5)
        limit = sol.value_at(0.0)[1][0] * 0.01
        assert limit == pytest.approx(0.0379128, abs=5e-8)
        gaps = {}
        for n in (100, 300):
            costs = [linear_costs(EpidemicModel(StepGraphon(sample_graph(kernel, n, seed)
                                                            .adjacency()),
                                                alpha=-0.5, eta_total=1.5),
                                  np.full(n, 0.1))[0] for seed in range(5)]
            gaps[n] = np.abs(np.array(costs) / n / limit - 1.0).max()
        # measured: 2.4e-3 at n = 100 and 5.0e-4 at n = 300
        assert gaps[100] < 5e-3
        assert gaps[300] < 1.5e-3
        assert gaps[300] < gaps[100]


def stacked_route_states(model, p0, control, num_steps):
    """simulate_nonlinear's states, and its count of growth steps, by the route that
    kept each half-step table as a SpectralMultiplier and stacked fresh stage pairs."""
    law = epidemic._own_law(model, control)
    forcing = None if law is not None else control
    params, modes = model.regulator_params(), model.modes
    times = np.linspace(0.0, model.horizon, num_steps + 1)
    step = model.horizon / num_steps
    mids = times[:-1] + 0.5 * step
    with np.errstate(over="ignore", invalid="ignore"):
        halves = [epidemic._modal_transition(params, modes.spectrum, start, stop, law is not None)
                  for start, stop in ((times[:-1], mids), (mids, times[1:]))]
        rates = np.log(np.maximum(halves[0] * halves[1], 1.0)) / step
        halves = [SpectralMultiplier(modes, factors * np.exp(-0.5 * step * rates))
                  for factors in halves]
        growth, grows = SpectralMultiplier(modes, rates), rates.any(axis=1)

        def nonlinear(k, t, p):
            rate = -model.eta * p * (model.adjacency @ p)
            rate = rate + growth.apply(p, k) if grows[k] else rate
            return rate if forcing is None else rate + model.beta0 * forcing(t, p)

        states = stacked_lawson_rk4(lambda k, half, pair: halves[half].apply(pair, k),
                                    nonlinear, times, p0)
    return states, int(grows.sum())


def full_rank_gnp_model(seed, n=12, p=0.4):
    """The CLI's model of a full-rank G(n, p) at its default epidemic flags."""
    rng = np.random.default_rng(seed)
    while True:
        upper = np.triu(rng.random((n, n)) < p, k=1)
        adjacency = (upper | upper.T).astype(float)
        magnitudes = np.abs(np.linalg.eigvalsh(adjacency))
        if magnitudes.min() > 1e-6 * magnitudes.max():
            return EpidemicModel(StepGraphon(adjacency), alpha=-0.5, beta0=1.0, eta=1.5)


class TestNonlinearRoute:
    """simulate_nonlinear moves each stage by one expression on the lead and the
    lead-subtracted modes of its half-step table, in a reused stage buffer: the
    states are those of SpectralMultiplier.apply on fresh stacks, bit for bit."""

    @pytest.mark.filterwarnings("ignore:infection fractions left")
    def test_full_rank_closed_loop_with_growth_steps(self):
        model = full_rank_gnp_model(3)
        assert model.modes.rank == model.num_nodes
        law = linear_feedback(model, solve_riccati_finite(model, 1000))
        p0 = np.full(model.num_nodes, 0.1)
        reference, growing = stacked_route_states(model, p0, law, 1000)
        assert 0 < growing < 1000
        trajectory = simulate_nonlinear(model, p0, law, 1000)
        assert np.array_equal(trajectory.states, reference)

    @pytest.mark.filterwarnings("ignore:infection fractions left")
    def test_open_loop_forcing(self, rng):
        model = random_model(rng, max_blocks=7, alpha=-0.3, eta=2.0)

        def forcing(t, p):
            return -0.4 * (1.0 + t) * p

        p0 = rng.uniform(0.0, 1.0, model.num_nodes)
        reference, _ = stacked_route_states(model, p0, forcing, 400)
        trajectory = simulate_nonlinear(model, p0, forcing, 400)
        assert np.array_equal(trajectory.states, reference)
        assert np.array_equal(trajectory.controls,
                              np.stack([forcing(t, p) for t, p in zip(trajectory.times, reference)]))

    def test_non_finite_run(self, rng, monkeypatch):
        model = random_model(rng, max_blocks=5)

        def forcing(t, p):  # p' ~ 40 p^2 has its pole near t = 0.25
            return 40.0 * p * p

        runs, original = [], epidemic.lawson_rk4

        def recording(*args):
            runs.append(original(*args))
            return runs[-1]

        monkeypatch.setattr(epidemic, "lawson_rk4", recording)
        p0 = np.full(model.num_nodes, 0.1)
        with pytest.raises(NumericsError):
            simulate_nonlinear(model, p0, forcing, 1000)
        reference, _ = stacked_route_states(model, p0, forcing, 1000)
        assert np.isnan(reference[-1]).all()
        assert np.array_equal(runs[0], reference, equal_nan=True)
