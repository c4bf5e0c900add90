"""End-to-end acceptance checks for the whole toolkit.

Each test covers one advertised guarantee at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest -s` to see them).  Tolerances here are
contracts, not suggestions; loosening one is a bug somewhere else.
"""

import functools
import json
import time

import numpy as np
import scipy.linalg

from graphonctl.cli import main
from graphonctl.control import (
    GraphonSystem,
    gramian,
    gramian_inverse,
    min_energy_control,
    simulate,
)
from graphonctl.epidemic import (
    EpidemicModel,
    closed_loop_cost,
    linear_feedback,
    optimal_control_finite,
    simulate_linearized,
    simulate_nonlinear,
    solve_riccati_finite,
    solve_riccati_graphon,
    stability_threshold,
)
from graphonctl.functions import PiecewiseConstantFunction
from graphonctl.graphons import SinusoidalGraphon, StepGraphon, l2_norm
from graphonctl.netio import parse_edge_list, sample_graph, spectral_report
from graphonctl.spectral import (
    bound_for_exponential,
    bound_for_power,
    decompose,
    fourier_truncate,
    l2_distance,
    measured_function_discrepancy,
    truncate,
    truncation_error,
)

import oracles
from conftest import DATA


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=1)
def _fifty_random_kernels():
    gen = np.random.default_rng(20260815)
    kernels = []
    for _ in range(50):
        n = int(gen.integers(2, 17))
        raw = gen.uniform(-1.0, 1.0, (n, n))
        kernels.append(StepGraphon(np.clip((raw + raw.T) / 2.0, -1.0, 1.0)))
    return tuple(kernels)


def _random_linear_system(gen) -> GraphonSystem:
    """Random controllable system: N <= 8, input polynomial degree <= 3."""
    while True:
        n = int(gen.integers(2, 9))
        raw = gen.uniform(-1.0, 1.0, (n, n))
        kernel = StepGraphon(np.clip((raw + raw.T) / 2.0, -1.0, 1.0))
        alpha0 = float(gen.uniform(-1.0, 1.0))
        beta0 = float(gen.uniform(0.3, 1.5))
        poly = tuple(gen.uniform(-0.5, 0.5, size=int(gen.integers(0, 4))))
        horizon = float(gen.uniform(0.5, 1.5))
        sys = GraphonSystem(alpha0, beta0, kernel, poly, horizon)
        # keep every direction's effective gain away from zero so the
        # Gramian inverse is well conditioned
        gains = np.concatenate(([sys.beta0], np.atleast_1d(sys.mode_etas)))
        if np.abs(gains).min() >= 0.05:
            return sys


def test_01_sinusoidal_spectrum_closed_form():
    kernel = SinusoidalGraphon(0.5, [0.3])
    # the gate times the closed form alone, not the 2048-point quadrature oracle
    start = time.perf_counter()
    values = decompose(kernel).eigenvalues
    elapsed = time.perf_counter() - start
    exact = np.array_equal(values, [0.5, 0.15, 0.15])
    quad = oracles.quad_eigenvalues(kernel, 2048)[:3]
    gap = float(np.abs(np.sort(values)[::-1] - np.sort(quad)[::-1]).max())
    _verdict(1, "sinusoidal spectrum {0.5, 0.15, 0.15}",
             exact and gap <= 1e-4 and elapsed < 5.0,
             f"quad gap {gap:.2e}, {elapsed:.2f}s")


def test_02_step_spectra_match_matrix_and_quadrature():
    worst = 0.0
    exact_all = True
    for kernel in _fifty_random_kernels():
        n = kernel.num_blocks
        values = decompose(kernel).eigenvalues
        # same solver and pipeline as the implementation: the identity is
        # lambda_operator = lambda_matrix / N, float for float
        raw = np.linalg.eigh(0.5 * (kernel.coeffs + kernel.coeffs.T))[0] / n
        ordered = raw[np.lexsort((raw < 0.0, -np.abs(raw)))]
        expected = ordered[np.abs(ordered) > 1e-12 * np.abs(ordered).max()]
        exact_all &= np.array_equal(values, expected)
        quad = oracles.quad_eigenvalues(kernel, 16 * n)
        mine = np.sort(np.concatenate((values, np.zeros(16 * n - values.size))))
        worst = max(worst, float(np.abs(mine - np.sort(quad)).max()))
    _verdict(2, "50 step spectra = matrix eigs / N, quadrature-checked",
             exact_all and worst <= 1e-6, f"max quad gap {worst:.2e}")


def test_03_truncation_error_identity():
    worst = 0.0
    for kernel in _fifty_random_kernels():
        decomp = decompose(kernel)
        n = kernel.num_blocks
        for rank in range(decomp.rank + 1):
            closed = truncation_error(decomp, rank)
            kept = (truncate(decomp, rank).coeffs if rank
                    else np.zeros_like(kernel.coeffs))
            direct = float(np.linalg.norm(kernel.coeffs - kept) / n)
            worst = max(worst, abs(closed - direct))
    _verdict(3, "closed-form truncation error = direct L2 error, every rank",
             worst <= 1e-8, f"max gap {worst:.2e}")


def test_04_operator_function_bounds_hold():
    worst_ratio = 0.0
    ok = True
    for seed in range(20):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(3, 9))
        raw = gen.uniform(-1.0, 1.0, (n, n))
        kernel = StepGraphon(np.clip((raw + raw.T) / 2.0, -1.0, 1.0))
        decomp = decompose(kernel)
        approx, _ = fourier_truncate(decomp, min(2, decomp.rank), 3)
        c = max(l2_norm(kernel), approx.l2_norm())
        delta = l2_distance(kernel, approx)
        # resolution a multiple of the block count keeps the step side exact
        resolution = n * (256 // n)
        checks = [(bound_for_power(c, delta, 2),
                   measured_function_discrepancy(kernel, approx, "power", 2,
                                                 resolution)),
                  (bound_for_power(c, delta, 3),
                   measured_function_discrepancy(kernel, approx, "power", 3,
                                                 resolution)),
                  (bound_for_exponential(c, delta),
                   measured_function_discrepancy(kernel, approx, "exponential",
                                                 resolution=resolution))]
        for bound, measured in checks:
            ok &= measured <= bound + 1e-12
            if bound > 0.0:
                worst_ratio = max(worst_ratio, measured / bound)
    _verdict(4, "power/exponential discrepancies within certified bounds, 20 pairs",
             ok, f"worst measured/bound {worst_ratio:.3f}")


def test_05_gramian_closed_form_and_inverse():
    start = time.perf_counter()
    gen = np.random.default_rng(42)
    worst_rel = 0.0
    worst_residual = 0.0
    for _ in range(20):
        sys = _random_linear_system(gen)
        state, inp = oracles.system_matrices(sys.kernel.coeffs, sys.alpha0,
                                             sys.beta0, sys.input_poly)
        reference = oracles.simpson_gramian(state, inp, sys.horizon, 512)
        closed = gramian(sys).as_matrix()
        worst_rel = max(worst_rel, float(
            np.linalg.norm(closed - reference) / np.linalg.norm(reference)))
        product = closed @ gramian_inverse(sys).as_matrix()
        worst_residual = max(worst_residual, float(
            np.abs(product - np.eye(sys.kernel.num_blocks)).max()))
    elapsed = time.perf_counter() - start
    _verdict(5, "Gramian matches Simpson quadrature and inverts, 20 systems",
             worst_rel <= 1e-4 and worst_residual <= 1e-8 and elapsed < 30.0,
             f"rel {worst_rel:.2e}, inverse residual {worst_residual:.2e}, "
             f"{elapsed:.2f}s")


def test_06_minimum_energy_steering():
    gen = np.random.default_rng(7)
    worst_final = 0.0
    worst_energy_rel = 0.0
    for _ in range(5):
        sys = _random_linear_system(gen)
        n = sys.kernel.num_blocks
        x0 = PiecewiseConstantFunction(gen.normal(size=n))
        control, energy = min_energy_control(sys, x0)
        trajectory = simulate(sys, x0, control, step=sys.horizon / 4000)
        norms = trajectory.state_norms()
        worst_final = max(worst_final, float(norms[-1] / norms[0]))
        state, _ = oracles.system_matrices(sys.kernel.coeffs, sys.alpha0,
                                           sys.beta0, sys.input_poly)
        pushed = scipy.linalg.expm(state * sys.horizon) @ x0.values
        reference = float(pushed @ (gramian_inverse(sys).as_matrix() @ pushed) / n)
        worst_energy_rel = max(worst_energy_rel,
                               abs(energy - reference) / abs(reference))
    _verdict(6, "min-energy control reaches the origin at the Gramian cost",
             worst_final <= 1e-5 and worst_energy_rel <= 1e-6,
             f"|x_T|/|x_0| {worst_final:.2e}, energy rel {worst_energy_rel:.2e}")


def test_07_spectral_regulator_matches_full_matrix_lqr():
    start = time.perf_counter()
    gen = np.random.default_rng(99)
    worst_rel = 0.0
    costs_ordered = True
    for _ in range(10):
        n = int(gen.integers(2, 9))
        raw = gen.uniform(0.0, 1.0, (n, n))
        contact = StepGraphon((raw + raw.T) / 2.0)
        model = EpidemicModel(contact, alpha=-0.5, beta0=1.0, eta=1.5,
                              state_weight=2.0, terminal_weight=4.0, horizon=1.0)
        sol = solve_riccati_finite(model, num_steps=10_000)
        _, _, oracle_feedback = oracles.epidemic_lqr_oracle(
            model.adjacency, model.alpha, model.eta, model.beta0,
            2.0, 4.0, 1.0, num_steps=4000)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            p = gen.uniform(0.0, 0.2, size=n)
            mine = optimal_control_finite(model, sol, p, t)
            ref = oracle_feedback(t, p)
            worst_rel = max(worst_rel, float(
                np.linalg.norm(mine - ref) / max(np.linalg.norm(ref), 1e-12)))
        p0 = np.full(n, 0.1)
        controlled = simulate_linearized(model, p0, linear_feedback(model, sol),
                                         num_steps=1000)
        idle = simulate_linearized(model, p0, None, num_steps=1000)
        costs_ordered &= (closed_loop_cost(model, controlled)
                          < closed_loop_cost(model, idle))
    elapsed = time.perf_counter() - start
    _verdict(7, "spectral feedback = full-matrix LQR and beats zero control",
             worst_rel <= 1e-4 and costs_ordered and elapsed < 60.0,
             f"control rel {worst_rel:.2e}, {elapsed:.2f}s")


def test_08_finite_and_limit_riccati_identical():
    gen = np.random.default_rng(5)
    worst = 0.0
    for _ in range(3):
        n = int(gen.integers(2, 7))
        raw = gen.uniform(0.0, 1.0, (n, n))
        contact = StepGraphon((raw + raw.T) / 2.0)
        model = EpidemicModel(contact, alpha=0.5, eta=1.0, horizon=1.0)
        finite = solve_riccati_finite(model, num_steps=2000)
        limit = solve_riccati_graphon(contact, model.regulator_params(),
                                      num_steps=2000)
        worst = max(worst,
                    float(np.abs(finite.auxiliary - limit.auxiliary).max()),
                    float(np.abs(finite.modes - limit.modes).max()))
    _verdict(8, "network and limit Riccati sweeps agree", worst <= 1e-12,
             f"max gap {worst:.2e}")


def test_09_epidemic_threshold_on_two_cycle():
    contact = StepGraphon([[0.0, 1.0], [1.0, 0.0]])
    p0 = np.full(2, 1e-3)

    sub = EpidemicModel(contact, alpha=1.1, eta=1.0, horizon=20.0)
    lam_max, stable = stability_threshold(sub)
    decayed = simulate_nonlinear(sub, p0, None, num_steps=8000)
    decay_ratio = float(np.abs(decayed.states[-1]).max() / 1e-3)

    sup = EpidemicModel(contact, alpha=0.9, eta=1.0, horizon=20.0)
    _, unstable_flag = stability_threshold(sup)
    grown = simulate_nonlinear(sup, p0, None, num_steps=8000)
    # the leading eigenstate of the 2-cycle is the uniform direction
    coeff0 = float(p0.sum() / 2.0)
    coeffT = float(grown.states[-1].sum() / 2.0)
    growth_ratio = coeffT / coeff0

    _verdict(9, "two-cycle epidemic threshold at alpha = eta * lambda_max",
             lam_max == 1.0 and stable and not unstable_flag
             and decay_ratio <= 0.5 and growth_ratio >= 2.0,
             f"decay x{decay_ratio:.3f}, growth x{growth_ratio:.2f}")


def test_10_dense_random_graph_spectrum():
    start = time.perf_counter()
    kernel = StepGraphon([[0.5]])
    tops = []
    bulk = []
    for seed in range(20):
        adjacency = sample_graph(kernel, 100, seed).adjacency()
        values = np.linalg.eigvalsh(adjacency)
        tops.append(values[-1])
        bulk.extend(np.abs(values[:-1]))
    median_top = float(np.median(tops))
    bulk_fraction = float(np.mean(np.asarray(bulk) <= 15.0))
    elapsed = time.perf_counter() - start
    _verdict(10, "G(100, 1/2) spectra: top near 50, bulk within 15",
             45.0 <= median_top <= 55.0 and bulk_fraction >= 0.95
             and elapsed < 20.0,
             f"median top {median_top:.2f}, bulk fraction {bulk_fraction:.3f}, "
             f"{elapsed:.2f}s")


def test_11_zero_diagonal_trace():
    ds = parse_edge_list((DATA / "zero_diag8.edges").read_text(), name="ring")
    report = spectral_report(ds)
    _verdict(11, "loop-free network has (near) zero spectral trace",
             abs(report.trace) <= 1e-8, f"trace {report.trace:.2e}")


def test_12_cli_runs_are_reproducible(tmp_path):
    fixture = str(DATA / "zero_diag8.edges")
    ok = True
    details = []
    for label, args in (
            ("spectra", ["spectra", fixture]),
            ("epidemic", ["epidemic", fixture, "--riccati-steps", "1500",
                          "--step", "0.02"])):
        first = tmp_path / f"{label}_a"
        second = tmp_path / f"{label}_b"
        ok &= main(args + ["--out", str(first)]) == 0
        ok &= main(args + ["--out", str(second)]) == 0
        blobs_a = {p.name: p.read_bytes() for p in sorted(first.iterdir())}
        blobs_b = {p.name: p.read_bytes() for p in sorted(second.iterdir())}
        manifests = json.loads(blobs_a["manifest.json"]) == \
            json.loads(blobs_b["manifest.json"])
        ok &= manifests and blobs_a == blobs_b
        details.append(f"{label}: {len(blobs_a)} files")
    _verdict(12, "identical manifests give byte-identical artifacts",
             ok, "; ".join(details))
