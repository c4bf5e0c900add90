import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphonctl.errors import IncompatibleOperandsError
from graphonctl.functions import PiecewiseConstantFunction, TrigPolynomial
from graphonctl.graphons import (
    SinusoidalGraphon,
    StepGraphon,
    apply,
    l2_norm,
    subtract,
)
from graphonctl.netio import sample_graph, to_step_graphon
from graphonctl.spectral import (
    FiniteRankKernel,
    SpectralMultiplier,
    bound_for_exponential,
    bound_for_power,
    decompose,
    eigenvalue_convergence_experiment,
    fourier_bounds,
    fourier_truncate,
    l2_distance,
    measured_function_discrepancy,
    truncate,
    truncation_error,
)

import oracles
from conftest import DATA, random_symmetric_graphon


def eigenpairs(decomp):
    """(λ_l, f_l) for every mode, f_l read as the combination with unit coordinate l."""
    return [(lam, decomp.combine(unit)) for lam, unit in zip(decomp.eigenvalues,
                                                              np.eye(decomp.rank))]


class TestDecomposeStep:
    def test_eigenvalues_scale_as_matrix_over_blocks(self, rng):
        for _ in range(6):
            g = random_symmetric_graphon(rng)
            decomp = decompose(g)
            expected = np.linalg.eigvalsh(g.coeffs) / g.num_blocks
            np.testing.assert_allclose(np.sort(decomp.eigenvalues),
                                       np.sort(expected[np.abs(expected) > 1e-12]),
                                       atol=1e-12)

    def test_matches_quadrature_operator(self, rng):
        g = random_symmetric_graphon(rng)
        m = 16 * g.num_blocks
        quad = oracles.quad_eigenvalues(g, m)
        quad = quad[np.abs(quad) > 1e-9]
        decomp = decompose(g)
        np.testing.assert_allclose(np.sort(decomp.eigenvalues), np.sort(quad),
                                   atol=1e-9)

    def test_eigenpairs_satisfy_eigen_equation(self, rng):
        g = random_symmetric_graphon(rng)
        for lam, func in eigenpairs(decompose(g)):
            image = apply(g, func)
            np.testing.assert_allclose(image.values, lam * func.values, atol=1e-12)

    def test_eigenfunctions_are_orthonormal(self, rng):
        g = random_symmetric_graphon(rng)
        funcs = [f for _, f in eigenpairs(decompose(g))]
        for i, f in enumerate(funcs):
            for j, h in enumerate(funcs):
                assert oracles.exact_inner_product(f, h) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-10)

    def test_ordering_and_sign_convention(self):
        decomp = decompose(StepGraphon([[0.0, 1.0], [1.0, 0.0]]))
        # magnitude tie 0.5 vs -0.5: positive first
        np.testing.assert_allclose(decomp.eigenvalues, [0.5, -0.5])
        for _, func in eigenpairs(decomp):
            leading = func.values[np.abs(func.values) > 1e-12][0]
            assert leading > 0.0
        np.testing.assert_allclose(decomp.positive_eigenvalues, [0.5])

    def test_zero_modes_are_dropped(self):
        decomp = decompose(StepGraphon(np.full((3, 3), 0.6)))
        assert decomp.rank == 1
        assert decomp.eigenvalues[0] == pytest.approx(0.6)
        np.testing.assert_allclose(eigenpairs(decomp)[0][1].values, np.ones(3))

    def test_asymmetric_kernel_rejected(self):
        bad = StepGraphon([[0.0, 1.0], [0.0, 0.0]], validate=False)
        with pytest.raises(ValueError, match="asymmetric"):
            decompose(bad)

    @pytest.mark.parametrize("gap,rejected", [(1e-9, True), (1e-11, False)])
    def test_unvalidated_kernels_keep_the_symmetry_test(self, gap, rejected):
        kernel = StepGraphon([[0.5, 0.2], [0.2 + gap, 0.1]], validate=False)
        if rejected:
            with pytest.raises(ValueError, match="cannot decompose an asymmetric kernel"):
                decompose(kernel)
        else:
            assert decompose(kernel).rank == 2

    def test_validated_kernel_is_checked_once(self, rng, monkeypatch):
        # a validated kernel passed the stricter RANGE_TOL test on construction
        kernel = random_symmetric_graphon(rng)
        raw = StepGraphon(kernel.coeffs, validate=False)
        calls = []
        original = np.allclose

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "allclose", counting)
        validated, unvalidated = decompose(kernel), decompose(raw)
        assert len(calls) == 1
        np.testing.assert_array_equal(validated.eigenvalues, unvalidated.eigenvalues)
        np.testing.assert_array_equal(validated.basis, unvalidated.basis)


def _sampled_kernel():
    """The max-abs pixel kernel of a seeded G(600, 0.05) sample."""
    return to_step_graphon(sample_graph(SinusoidalGraphon(0.05), 600, seed=5))


class TestSymmetricKernelAsItIs:
    """A validated kernel equal to its transpose reaches the eigensolver unaveraged."""

    @staticmethod
    def _kernels(rng):
        yield _sampled_kernel()
        raw = rng.choice([0.0, -0.0, 5e-324, -1e-310, 0.25, -1.0, 1.0], (7, 7))
        yield StepGraphon(np.triu(raw) + np.triu(raw, 1).T)
        # within RANGE_TOL of symmetric, but not equal: still averaged
        raw = rng.uniform(-1.0, 1.0, (6, 6))
        near = (raw + raw.T) / 2.0
        near[0, 1] += 1e-13
        yield StepGraphon(near)

    @pytest.mark.parametrize("vectors", [False, True])
    def test_bitwise_equal_to_the_averaged_route(self, rng, vectors):
        for kernel in self._kernels(rng):
            c = kernel.coeffs
            averaged = StepGraphon(0.5 * (c + c.T), validate=False)
            mine, reference = decompose(kernel, vectors), decompose(averaged, vectors)
            np.testing.assert_array_equal(mine.eigenvalues, reference.eigenvalues)
            if vectors:
                np.testing.assert_array_equal(mine.basis, reference.basis)

    def test_values_only_peak_is_a_fraction_of_the_kernel(self):
        kernel = _sampled_kernel()
        tracemalloc.start()
        try:
            decompose(kernel, vectors=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the symmetry mask is an eighth of the kernel; no averaged copy is made
        assert peak <= 0.25 * kernel.coeffs.nbytes


class TestDecomposeSinusoidal:
    def test_closed_form_spectrum(self):
        decomp = decompose(SinusoidalGraphon(0.5, [0.3]))
        np.testing.assert_allclose(decomp.eigenvalues, [0.5, 0.15, 0.15])
        kinds = [type(f) for _, f in eigenpairs(decomp)]
        assert kinds == [TrigPolynomial] * 3

    def test_agrees_with_quadrature(self):
        g = SinusoidalGraphon(0.4, [0.2, -0.3])
        decomp = decompose(g)
        quad = oracles.quad_eigenvalues(g, 2048)
        quad = quad[np.abs(quad) > 1e-6]
        np.testing.assert_allclose(np.sort(decomp.eigenvalues), np.sort(quad),
                                   atol=1e-4)

    def test_eigen_equation(self):
        g = SinusoidalGraphon(0.4, [0.0, 0.25])
        for lam, func in eigenpairs(decompose(g)):
            image = apply(g, func)
            xs = np.linspace(0.0, 1.0, 64)
            np.testing.assert_allclose(image(xs), lam * func(xs), atol=1e-14)

    def test_zero_harmonics_dropped(self):
        decomp = decompose(SinusoidalGraphon(0.5, [0.0, 0.3]))
        # the k=1 couple carries weight zero and disappears
        np.testing.assert_allclose(decomp.eigenvalues, [0.5, 0.15, 0.15])
        assert eigenpairs(decomp)[1][1].order == 2


def _values_only_kernels():
    """(label, kernel): every tests/data network, a rank-deficient complete
    multipartite graph and seeded G(n, p) graphs, as pixel step kernels."""
    from graphonctl.cli import load_dataset
    from graphonctl.netio import to_step_graphon

    kernels = []
    for path in sorted(DATA.iterdir()):
        dataset = load_dataset(str(path))
        kernels.append((path.name, to_step_graphon(dataset.symmetrized())))
    part = np.repeat(np.arange(4), [2, 4, 6, 8])
    kernels.append(("multipartite", StepGraphon((part[:, None] != part).astype(float))))
    rng = np.random.default_rng(26)
    for n, p in ((30, 0.3), (80, 0.1), (120, 0.05)):
        upper = np.triu(rng.random((n, n)) < p, k=1)
        kernels.append((f"gnp{n}", StepGraphon((upper | upper.T).astype(float))))
    return kernels


class TestValuesOnlyDecomposition:
    """decompose(kernel, vectors=False): one eigvalsh, the eigenvalues without a basis."""

    @pytest.mark.filterwarnings("ignore:negative edge weights")
    @pytest.mark.parametrize("label,kernel", _values_only_kernels(),
                             ids=[label for label, _ in _values_only_kernels()])
    def test_same_rank_and_eigenvalues_as_the_eigenpairs(self, label, kernel):
        full, values = decompose(kernel), decompose(kernel, vectors=False)
        assert values.rank == full.rank
        scale = np.abs(full.eigenvalues).max(initial=1.0)
        # the order is |λ| descending, positive first on ties; a bipartite graph's pair ±λ
        # ties exactly, and the two solvers' rounding may put either one first
        np.testing.assert_allclose(np.abs(values.eigenvalues), np.abs(full.eigenvalues),
                                   rtol=0.0, atol=1e-13 * scale)
        np.testing.assert_allclose(np.sort(values.eigenvalues), np.sort(full.eigenvalues),
                                   rtol=0.0, atol=1e-13 * scale)
        np.testing.assert_array_equal(values.spectrum[1:], values.eigenvalues)

    def test_one_eigvalsh_and_no_eigh(self, rng, monkeypatch):
        kernel = random_symmetric_graphon(rng)
        calls = []
        for solver in ("eigh", "eigvalsh"):
            def counted(*args, _solver=solver, _original=getattr(np.linalg, solver)):
                calls.append(_solver)
                return _original(*args)

            monkeypatch.setattr(np.linalg, solver, counted)
        decompose(kernel, vectors=False)
        assert calls == ["eigvalsh"]

    def test_eigenfunctions_are_refused(self, rng):
        kernel = random_symmetric_graphon(rng)
        modes = decompose(kernel, vectors=False)
        func = PiecewiseConstantFunction(rng.normal(size=kernel.num_blocks))
        multiplier = SpectralMultiplier(modes, np.ones(modes.rank + 1))
        attempts = [lambda: modes.basis, lambda: modes.coordinates(func),
                    lambda: modes.combine(np.ones(modes.rank)), lambda: modes.split(func),
                    lambda: multiplier.apply(func), lambda: multiplier.apply(func.values),
                    lambda: multiplier.apply_split(np.ones(modes.rank), func.values),
                    multiplier.as_matrix, lambda: truncate(modes, 1),
                    lambda: fourier_bounds(modes, 2)]
        for attempt in attempts:
            with pytest.raises(IncompatibleOperandsError, match="values-only"):
                attempt()
        # what reads the spectrum alone still works
        assert truncation_error(modes, 1) == pytest.approx(truncation_error(decompose(kernel), 1),
                                                           rel=1e-13)

    def test_sinusoidal_kernels_keep_their_closed_form(self):
        kernel = SinusoidalGraphon(0.4, [0.2, -0.3])
        full, values = decompose(kernel), decompose(kernel, vectors=False)
        np.testing.assert_array_equal(values.eigenvalues, full.eigenvalues)
        np.testing.assert_array_equal(values.basis, full.basis)


class TestBasis:
    def test_basis_is_orthonormal(self, rng):
        step = decompose(random_symmetric_graphon(rng))
        gram = step.basis.T @ step.basis / step.basis.shape[0]  # block mean = L2
        np.testing.assert_allclose(gram, np.eye(step.rank), atol=1e-10)
        trig = decompose(SinusoidalGraphon(0.4, [0.0, 0.25, -0.1]))
        assert trig.basis.shape == (7, 5)
        np.testing.assert_array_equal(trig.basis.T @ trig.basis, np.eye(5))

    def test_coordinates_and_combine_invert_each_other(self, rng):
        for decomp in (decompose(random_symmetric_graphon(rng)),
                       decompose(SinusoidalGraphon(0.4, [0.2, -0.3]))):
            coeffs = rng.normal(size=decomp.rank)
            func = decomp.combine(coeffs)
            np.testing.assert_allclose(decomp.coordinates(func), coeffs, atol=1e-12)
            for l, (_, f) in enumerate(eigenpairs(decomp)):
                assert oracles.exact_inner_product(func, f) == pytest.approx(coeffs[l], abs=1e-12)

    def test_coordinates_on_the_kernel_partition_do_not_copy_the_basis(self, rng):
        n = 300
        coeffs = rng.uniform(-1.0, 1.0, (n, n))
        modes = decompose(StepGraphon((coeffs + coeffs.T) / 2.0))
        assert modes.rank == n
        func = PiecewiseConstantFunction(rng.normal(size=n))
        tracemalloc.start()
        try:
            coords = modes.coordinates(func)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < modes.basis.nbytes / 4
        np.testing.assert_array_equal(coords, func.values @ modes.basis / n)


def _multiplier_modes(family, rng):
    if family == "step":
        return decompose(random_symmetric_graphon(rng))
    if family == "sinusoidal":
        return decompose(SinusoidalGraphon(0.4, [0.3, -0.2]))
    return decompose(StepGraphon(np.zeros((3, 3))))


class TestSpectralMultiplier:
    @pytest.mark.parametrize("family", ["step", "sinusoidal", "rank-zero"])
    def test_forms_agree(self, rng, family):
        modes = _multiplier_modes(family, rng)
        f, g = rng.normal(size=(2, modes.rank + 1))
        op = SpectralMultiplier(modes, f)
        # the third harmonic lies outside the sinusoidal kernel's modes
        x = (TrigPolynomial(rng.normal(size=7)) if family == "sinusoidal"
             else PiecewiseConstantFunction(rng.normal(size=modes.basis.shape[0])))
        coords, residual = modes.split(x)
        assert (modes.combine(coords) + residual - x).l2_norm() < 1e-12
        for _, eigenfunction in eigenpairs(modes):
            assert oracles.exact_inner_product(residual, eigenfunction) == pytest.approx(
                0.0, abs=1e-12)
        image = op.apply(x)
        image_coords, image_residual = modes.split(image)
        np.testing.assert_allclose(image_coords, f[1:] * coords, atol=1e-12)
        assert (image_residual - f[0] * residual).l2_norm() < 1e-12
        np.testing.assert_array_equal(op.compose(SpectralMultiplier(modes, g)).values, f * g)
        if family == "sinusoidal":  # no block values
            for block_form in (op.as_matrix, lambda: op.apply(np.ones(5)),
                               lambda: op.apply_split(coords, np.ones(5))):
                with pytest.raises(IncompatibleOperandsError):
                    block_form()
            return
        np.testing.assert_allclose(op.as_matrix() @ x.values, image.values, atol=1e-12)
        np.testing.assert_allclose(op.apply_split(coords, residual.values), image.values,
                                   atol=1e-12)
        rows = np.stack((x.values, -2.0 * x.values))
        np.testing.assert_allclose(op.apply(rows), [image.values, -2.0 * image.values],
                                   atol=1e-12)
        # a table applies its row k to rows[k], or one chosen row to every row
        table = SpectralMultiplier(modes, np.stack((f, g)))
        np.testing.assert_array_equal(table.apply(rows, 0), op.apply(rows))
        np.testing.assert_allclose(table.apply(rows)[0], image.values, atol=1e-12)

    def test_one_value_per_member_of_the_complemented_spectrum(self):
        modes = decompose(StepGraphon([[0.6, 0.2], [0.2, 0.4]]))
        np.testing.assert_array_equal(modes.spectrum, np.append(0.0, modes.eigenvalues))
        with pytest.raises(ValueError, match="3 values per row"):
            SpectralMultiplier(modes, modes.eigenvalues)


class TestTruncation:
    def test_error_identity_on_random_instances(self, rng):
        for _ in range(8):
            g = random_symmetric_graphon(rng)
            decomp = decompose(g)
            for m in range(decomp.rank + 1):
                closed = truncation_error(decomp, m)
                if m == 0:
                    direct = l2_norm(g)
                else:
                    direct = l2_norm(subtract(g, truncate(decomp, m)))
                # the tail-sum evaluation avoids the near-full-rank
                # cancellation of the subtraction form
                assert closed == pytest.approx(direct, abs=1e-12)

    def test_full_rank_truncation_recovers_kernel(self, rng):
        g = random_symmetric_graphon(rng)
        decomp = decompose(g)
        full = truncate(decomp, decomp.rank)
        np.testing.assert_allclose(full.coeffs, g.coeffs, atol=1e-10)

    def test_rank_bounds_enforced(self, rng):
        decomp = decompose(random_symmetric_graphon(rng))
        with pytest.raises(ValueError):
            truncate(decomp, 0)
        with pytest.raises(ValueError):
            truncate(decomp, decomp.rank + 1)
        with pytest.raises(ValueError):
            truncation_error(decomp, -1)

    def test_sinusoidal_truncation_keeps_family_when_pairs_close(self):
        g = SinusoidalGraphon(0.5, [0.3, 0.1])
        decomp = decompose(g)  # eigenvalues 0.5, 0.15, 0.15, 0.05, 0.05
        kept = truncate(decomp, 3)
        assert isinstance(kept, SinusoidalGraphon)
        assert kept.constant == pytest.approx(0.5)
        np.testing.assert_allclose(kept.cosine_coeffs, [0.3])

    def test_sinusoidal_truncation_falls_back_on_split_pair(self):
        g = SinusoidalGraphon(0.5, [0.3])
        decomp = decompose(g)
        split = truncate(decomp, 2)  # cuts through the cos/sin couple
        assert isinstance(split, FiniteRankKernel)
        assert split.rank == 2

    def test_truncation_error_of_full_rank_is_zero(self, rng):
        decomp = decompose(random_symmetric_graphon(rng))
        assert truncation_error(decomp, decomp.rank) == 0.0


def _quad_distance(a, b, m):
    grid = oracles.midpoint_grid(a, m) - oracles.midpoint_grid(b, m)
    return float(np.sqrt(np.mean(grid ** 2)))


class TestFiniteRankKernel:
    # The midpoint rule on m points integrates harmonics below m exactly, so a
    # grid wider than twice the largest order measures Fourier kernels exactly.

    def test_value_and_norm_against_quadrature(self, rng):
        weights = rng.normal(size=3)
        coords = rng.normal(size=(5, 3))
        frk = FiniteRankKernel(weights, coords)
        xs = rng.uniform(size=7)
        factors = [coords[0, l] + np.sqrt(2.0) * sum(
            coords[k, l] * np.cos(2 * np.pi * k * xs)
            + coords[2 + k, l] * np.sin(2 * np.pi * k * xs) for k in (1, 2))
            for l in range(3)]
        direct = sum(w * np.outer(f, f) for w, f in zip(weights, factors))
        np.testing.assert_allclose(frk.value(xs[:, None], xs[None, :]), direct,
                                   rtol=1e-12, atol=1e-12)
        assert frk.l2_norm() == pytest.approx(oracles.quad_l2_norm(frk, 16), rel=1e-12)
        g = SinusoidalGraphon(0.4, [0.2, -0.3])
        decomp = decompose(g)
        full = FiniteRankKernel(decomp.eigenvalues, decomp.basis)
        assert full.l2_norm() == pytest.approx(l2_norm(g), rel=1e-14)
        np.testing.assert_allclose(oracles.midpoint_grid(full, 64),
                                   oracles.midpoint_grid(g, 64), atol=1e-14)

    def test_distance_pads_to_common_order(self, rng):
        one = FiniteRankKernel([1.0], [[1.0]])
        assert l2_distance(one, FiniteRankKernel([0.4], [[1.0]])) == pytest.approx(
            0.6, rel=1e-15)
        low = FiniteRankKernel(rng.normal(size=2), rng.normal(size=(3, 2)))
        high = FiniteRankKernel(rng.normal(size=4), rng.normal(size=(9, 4)))
        expected = _quad_distance(low, high, 32)
        assert l2_distance(low, high) == pytest.approx(expected, rel=1e-12)
        assert l2_distance(high, low) == pytest.approx(expected, rel=1e-12)

    def test_sinusoidal_against_split_pair_truncation(self):
        g = SinusoidalGraphon(0.5, [0.3, -0.2])
        split = truncate(decompose(g), 2)
        assert isinstance(split, FiniteRankKernel)
        for other in (g, SinusoidalGraphon(0.1, [0.0, 0.0, 0.4])):
            expected = _quad_distance(other, split, 32)
            assert l2_distance(other, split) == pytest.approx(expected, rel=1e-12)
            assert l2_distance(split, other) == pytest.approx(expected, rel=1e-12)

    def test_step_against_fourier_truncation(self, rng):
        for _ in range(3):
            g = random_symmetric_graphon(rng)
            decomp = decompose(g)
            approx, _ = fourier_truncate(decomp, min(3, decomp.rank), order=3)
            # midpoint sums of a step times a polynomial carry an O(m^-2) error
            expected = _quad_distance(g, approx, g.num_blocks * 256)
            assert l2_distance(g, approx) == pytest.approx(expected, rel=1e-4)
            assert l2_distance(approx, g) == l2_distance(g, approx)

    def test_empty_kernel_has_zero_norm(self, rng):
        empty = FiniteRankKernel(np.zeros(0), np.zeros((5, 0)))
        assert empty.rank == 0
        assert empty.l2_norm() == 0.0
        g = random_symmetric_graphon(rng)
        s = SinusoidalGraphon(0.4, [0.2])
        frk = FiniteRankKernel([0.3, -0.2], rng.normal(size=(3, 2)))
        for kernel in (g, s, frk):
            norm = kernel.l2_norm() if kernel is frk else l2_norm(kernel)
            assert l2_distance(kernel, empty) == pytest.approx(norm, rel=1e-14)

    def test_l2_distance_dispatch(self, rng):
        g = random_symmetric_graphon(rng)
        h = random_symmetric_graphon(rng)
        direct = l2_norm(subtract(g, h))
        assert l2_distance(g, h) == pytest.approx(direct, rel=1e-12)
        # cross-family distance through the coefficient matrix of the sinusoid
        s = SinusoidalGraphon(0.4, [0.2])
        cross = l2_distance(g, s)
        assert cross == pytest.approx(_quad_distance(g, s, g.num_blocks * 256), rel=1e-4)
        decomp = decompose(s)
        assert l2_distance(s, FiniteRankKernel(decomp.eigenvalues, decomp.basis)) == \
            pytest.approx(0.0, abs=1e-15)
        with pytest.raises(IncompatibleOperandsError):
            l2_distance(g, decomp)


class TestFourier:
    def test_fourier_truncate_bound_dominates_measured_error(self, rng):
        for _ in range(5):
            g = random_symmetric_graphon(rng)
            decomp = decompose(g)
            bounds, measured = fourier_bounds(decomp, 4)
            for rank in range(decomp.rank + 1):
                approx, bound = fourier_truncate(decomp, rank, order=4)
                distance = l2_distance(g, approx)
                assert bound == bounds[rank]
                assert distance <= bound + 1e-10
                assert distance == pytest.approx(measured[rank], rel=1e-10)
            assert bounds[-1] == measured[-1]

    def test_fourier_truncate_rank_zero(self, rng):
        g = random_symmetric_graphon(rng)
        approx, bound = fourier_truncate(decompose(g), 0, order=2)
        assert approx.rank == 0
        assert bound == pytest.approx(l2_norm(g), rel=1e-12)

    def test_sinusoidal_eigenfunctions_are_their_own_projections(self):
        decomp = decompose(SinusoidalGraphon(0.3, [0.4, -0.2, 0.1]))
        tails = [truncation_error(decomp, m) for m in range(decomp.rank + 1)]
        for order in (3, 5):
            bound, measured = fourier_bounds(decomp, order)
            assert bound.tolist() == tails
            np.testing.assert_allclose(measured, tails, rtol=1e-15)
        # dropping the third harmonic leaves its two eigenfunctions unprojected
        bound, _ = fourier_bounds(decomp, 2)
        assert bound[-1] == pytest.approx(math.sqrt(2.0) * 0.05, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(1, 12),
           groups=st.integers(1, 12), order=st.integers(1, 6))
    @example(seed=0, blocks=1, groups=1, order=1)
    @example(seed=1, blocks=6, groups=1, order=3)
    @example(seed=2, blocks=7, groups=2, order=6)
    @example(seed=3, blocks=12, groups=12, order=6)
    def test_sweep_matches_pair_by_pair_reference(self, seed, blocks, groups, order):
        # `groups` distinct block types make a kernel of rank at most `groups`
        gen = np.random.default_rng(seed)
        groups = min(groups, blocks)
        raw = gen.uniform(-1.0, 1.0, (groups, groups))
        label = gen.integers(0, groups, blocks)
        decomp = decompose(StepGraphon(((raw + raw.T) / 2.0)[np.ix_(label, label)]))
        bound, measured = fourier_bounds(decomp, order)
        projection, reference = oracles.fourier_sweep_reference(
            decomp.eigenvalues, decomp.basis, order)
        tails = [truncation_error(decomp, m) for m in range(decomp.rank + 1)]
        # Both routes form the residual norms ||f_l - p_l||^2 from Gram entries
        # near 1, so each squared error carries an absolute rounding floor of a
        # few eps * (sum |λ|)^2; an eigenfunction that is its own projection
        # (one block) sits on that floor.
        floor = 1e-14 * np.abs(decomp.eigenvalues).sum() ** 2
        np.testing.assert_allclose((bound - tails) ** 2, projection ** 2,
                                   rtol=1e-12, atol=floor)
        np.testing.assert_allclose(measured ** 2, reference ** 2, rtol=1e-12, atol=floor)
        assert bound[-1] == measured[-1]


class TestOperatorFunctionBounds:
    def test_rank_one_counterexample_to_printed_exponential_constant(self):
        # constant kernels commute, so e^A - e^B has operator norm
        # |e^a - e^b| > c e^c (a - b) when c < 1; the derived bound still holds
        a = StepGraphon([[0.5]])
        b = StepGraphon([[0.4]])
        measured = measured_function_discrepancy(a, b, "exponential", resolution=64)
        assert measured == pytest.approx(math.exp(0.5) - math.exp(0.4), rel=1e-10)
        assert measured > 0.5 * math.exp(0.5) * 0.1
        assert measured <= bound_for_exponential(0.5, 0.1) + 1e-12

    def test_derived_bounds_hold_on_random_pairs(self, rng):
        assert bound_for_power(1.0, 0.2, 3) == pytest.approx(3 * 0.2, rel=1e-15)
        for _ in range(6):
            g = random_symmetric_graphon(rng)
            decomp = decompose(g)
            approx, _ = fourier_truncate(decomp, min(2, decomp.rank), order=3)
            c = max(l2_norm(g), approx.l2_norm())
            delta = l2_distance(g, approx)
            for exponent in (2, 3):
                measured = measured_function_discrepancy(g, approx, "power",
                                                         exponent, resolution=128)
                assert measured <= bound_for_power(c, delta, exponent) + 1e-10
            measured = measured_function_discrepancy(g, approx, "exponential",
                                                     resolution=128)
            assert measured <= bound_for_exponential(c, delta) + 1e-10

    def test_measured_discrepancy_vanishes_for_identical_kernels(self, rng):
        g = random_symmetric_graphon(rng)
        assert measured_function_discrepancy(g, g, "power", 2,
                                             resolution=64) == pytest.approx(0.0)
        assert measured_function_discrepancy(g, g, "exponential",
                                             resolution=64) == pytest.approx(0.0)

    def test_measured_power_discrepancy_exact_for_aligned_steps(self):
        a = StepGraphon([[0.8, 0.1], [0.1, 0.3]])
        b = StepGraphon([[0.5, 0.2], [0.2, 0.1]])
        from graphonctl.graphons import power

        exact = l2_norm(subtract(power(a, 2), power(b, 2)))
        measured = measured_function_discrepancy(a, b, "power", 2, resolution=64)
        assert measured == pytest.approx(exact, rel=1e-12)
        # exponent 1 against the zero kernel is the norm of the midpoint samples;
        # the step kernel's 3 blocks do not align with 64 samples, so shifted
        # samples land in other blocks
        zero = StepGraphon([[0.0]])
        for kernel in (SinusoidalGraphon(0.5, [0.3]),
                       StepGraphon([[0.9, 0.1, 0.4], [0.1, 0.2, 0.7], [0.4, 0.7, 0.5]])):
            assert measured_function_discrepancy(kernel, zero, "power", 1,
                                                 resolution=64) == \
                np.linalg.norm(oracles.midpoint_grid(kernel, 64)) / 64


class TestConvergenceExperiment:
    def test_exact_sampler_converges(self):
        limit = StepGraphon([[0.8, 0.2], [0.2, 0.6]])

        def pixel_sampler(size):
            x = (np.arange(size) + 0.5) / size
            return limit.value(x[:, None], x[None, :])

        rows = eigenvalue_convergence_experiment(pixel_sampler, [4, 8, 64], limit)
        assert [row.size for row in rows] == [4, 8, 64]
        assert rows[-1].max_error < 1e-10  # aligned grids represent the limit exactly
        assert len(rows[0].scaled_eigenvalues) == 5

    def test_shape_mismatch_rejected(self):
        limit = StepGraphon([[0.5]])
        with pytest.raises(ValueError, match="shape"):
            eigenvalue_convergence_experiment(lambda size: np.zeros((2, 2)),
                                              [3], limit)
