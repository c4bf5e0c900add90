import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from graphonctl.cli import main
from graphonctl.errors import ParseError
from graphonctl.graphons import SinusoidalGraphon, StepGraphon
from graphonctl.netio import (
    NetworkDataset,
    _pixel_graphon,
    parse_edge_list,
    parse_matrix_market,
    sample_graph,
    spectral_report,
    to_step_graphon,
    write_edge_list,
)


def entries(ds):
    """The dataset's (row, col, weight) entries as Python values, in order."""
    return list(zip(ds.rows.tolist(), ds.cols.tolist(), ds.weights.tolist()))


def looped_adjacency(ds):
    """The dense matrix by one assignment per entry, in order: the last one wins."""
    mat = np.zeros((ds.num_nodes, ds.num_nodes))
    for i, j, weight in entries(ds):
        mat[i, j] = weight
        if not ds.directed:
            mat[j, i] = weight
    return mat


MTX_GENERAL = "%%MatrixMarket matrix coordinate real general\n"


class TestParseEdgeList:
    def test_bipartite_fixture(self, data_dir):
        ds = parse_edge_list((data_dir / "k22.edges").read_text(), name="k22")
        assert ds.num_nodes == 4
        assert ds.num_edges == 4
        assert not ds.directed
        # percent-comment line skipped, 1-based indices shifted down
        assert entries(ds)[0] == (0, 2, 1.0)
        assert ds.rows.dtype == ds.cols.dtype == np.int64
        assert ds.weights.dtype == np.float64
        eigs = np.linalg.eigvalsh(ds.adjacency())
        np.testing.assert_allclose(sorted(eigs), [-2.0, 0.0, 0.0, 2.0],
                                   atol=1e-12)

    def test_weights_and_mirroring(self, data_dir):
        ds = parse_edge_list((data_dir / "path3_weighted.edges").read_text())
        mat = ds.adjacency()
        expected = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
        np.testing.assert_array_equal(mat, expected)

    def test_zero_based_input_kept_verbatim(self):
        ds = parse_edge_list("0 1\n1 2\n")
        assert ds.num_nodes == 3
        assert entries(ds) == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_accepts_bytes(self):
        ds = parse_edge_list(b"# header\n1 2 0.5\n")
        assert entries(ds) == [(0, 1, 0.5)]

    def test_line_numbers_in_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("1 2\n3 4 5 6\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("1 x\n")
        with pytest.raises(ParseError, match="negative node index"):
            parse_edge_list("-1 2\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_edge_list("1 2 nan\n")
        with pytest.raises(ParseError, match="no edges"):
            parse_edge_list("# only comments\n\n")

    def test_first_bad_line_wins(self):
        # a rule break on line 1 comes before a malformed line 2
        with pytest.raises(ParseError, match="^line 1: negative node index$"):
            parse_edge_list("-1 2\n1 2 3 4\n")
        with pytest.raises(ParseError, match="^line 2: non-finite weight$"):
            parse_edge_list("1 2\n1 3 inf\n-1 2\n")
        # on one line, the index is checked before the weight
        with pytest.raises(ParseError, match="^line 1: negative node index$"):
            parse_edge_list("-1 2 nan\n")
        with pytest.raises(ParseError, match="^line 3: expected 'i j"):
            parse_edge_list("1 2\n\n1 2 3 4\n-1 2\n")

    def test_last_weight_of_a_repeated_pair_wins(self):
        ds = parse_edge_list("1 2 0.5\n2 1 0.25\n1 2 0.75\n")
        mat = ds.adjacency()
        assert mat[0, 1] == mat[1, 0] == 0.75
        ds = parse_edge_list("1 2 0.5\n2 1 0.25\n")
        assert ds.adjacency()[0, 1] == ds.adjacency()[1, 0] == 0.25

    def test_negative_weights_warn_but_parse(self):
        with pytest.warns(UserWarning, match="signed"):
            ds = parse_edge_list("1 2 -0.5\n")
        assert entries(ds) == [(0, 1, -0.5)]


class TestParseMatrixMarket:
    def test_pattern_symmetric_fixture(self, data_dir):
        ds = parse_matrix_market((data_dir / "two_cycle.mtx").read_text())
        assert ds.num_nodes == 2
        assert not ds.directed
        assert entries(ds) == [(1, 0, 1.0)]
        np.testing.assert_array_equal(ds.adjacency(),
                                      [[0.0, 1.0], [1.0, 0.0]])

    def test_general_symmetry_is_directed(self, data_dir):
        ds = parse_matrix_market((data_dir / "directed3.mtx").read_text())
        assert ds.directed
        mat = ds.adjacency()
        expected = np.zeros((3, 3))
        expected[0, 1] = 3.0
        expected[1, 0] = 1.0
        expected[0, 2] = 2.0
        np.testing.assert_array_equal(mat, expected)

    def test_rejections(self):
        with pytest.raises(ParseError, match="banner"):
            parse_matrix_market("1 2\n")
        with pytest.raises(ParseError, match="banner"):
            parse_matrix_market("%%MatrixMarket matrix coordinate real\n")
        with pytest.raises(ParseError, match="array"):
            parse_matrix_market("%%MatrixMarket matrix array real general\n")
        with pytest.raises(ParseError, match="field"):
            parse_matrix_market(
                "%%MatrixMarket matrix coordinate complex general\n")
        with pytest.raises(ParseError, match="symmetry"):
            parse_matrix_market(
                "%%MatrixMarket matrix coordinate real skew-symmetric\n")
        with pytest.raises(ParseError, match="square"):
            parse_matrix_market(
                "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1.0\n")
        with pytest.raises(ParseError, match="does not match"):
            parse_matrix_market(
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n")
        with pytest.raises(ParseError, match="size line"):
            parse_matrix_market("%%MatrixMarket matrix coordinate real general\n")
        with pytest.raises(ParseError, match="expected 3 fields"):
            parse_matrix_market(
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n")
        with pytest.raises(ParseError, match="outside"):
            parse_matrix_market(
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1.0\n")

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_no_entries_is_a_network_without_edges(self, as_bytes):
        # a size line of nnz 0 and no entry line: there is no first entry to read a width from
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n"
        ds = parse_matrix_market(text.encode() if as_bytes else text)
        assert ds.num_nodes == 3 and ds.num_edges == 0
        assert entries(ds) == []
        np.testing.assert_array_equal(ds.adjacency(), np.zeros((3, 3)))

    def test_header_count_comes_before_entry_lines(self):
        with pytest.raises(ParseError, match="does not match"):
            parse_matrix_market(MTX_GENERAL + "2 2 3\n1 2 x\n1 3 1.0\n")
        with pytest.raises(ParseError, match="^line 3: index \\(1, 3\\) outside 1..2$"):
            parse_matrix_market(MTX_GENERAL + "2 2 2\n1 3 1.0\n1 2 3 4\n")

    def test_last_weight_of_a_repeated_pair_wins(self):
        with pytest.warns(UserWarning, match="signed"):
            ds = parse_matrix_market(MTX_GENERAL + "2 2 2\n1 2 3\n1 2 -4\n")
        np.testing.assert_array_equal(ds.adjacency(), [[0.0, -4.0], [0.0, 0.0]])
        ds = parse_matrix_market("%%MatrixMarket matrix coordinate real symmetric\n"
                                 "2 2 3\n2 1 0.5\n1 2 0.25\n2 1 0.75\n")
        np.testing.assert_array_equal(ds.adjacency(), [[0.0, 0.75], [0.75, 0.0]])


class TestParserRules:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("matrix_market", [False, True])
    def test_non_finite_weights_rejected(self, text, matrix_market):
        with pytest.raises(ParseError, match="^line 4: non-finite weight$"):
            if matrix_market:
                parse_matrix_market(MTX_GENERAL + f"3 3 2\n1 2 1.0\n2 3 {text}\n")
            else:
                parse_edge_list(f"# header\n\n1 2 1.0\n2 3 {text}\n")

    @pytest.mark.parametrize("text", [
        "1 2\n9223372036854775808 1\n",
        "1 2\n2 18446744073709551616 1.0\n",
        MTX_GENERAL + "9223372036854775809 9223372036854775809 1\n9223372036854775808 1 1\n",
        MTX_GENERAL + "3 3 1\n1 9223372036854775808 1\n",
    ])
    def test_index_beyond_int64_names_its_line(self, text):
        parse = parse_matrix_market if text.startswith("%%") else parse_edge_list
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="^line [23]: "):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # nothing sized by the index is allocated

    def test_index_beyond_int64_exits_two(self, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("1 9223372036854775808\n")
        out = tmp_path / "out"
        assert main(["spectra", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_largest_int64_index_parses(self):
        ds = parse_edge_list("0 9223372036854775806\n")
        assert ds.num_nodes == 2**63 - 1
        assert ds.cols[0] == 2**63 - 2


class TestNetworkDataset:
    def test_edge_range_validated(self):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) outside 0..1"):
            NetworkDataset(2, [0, 0], [1, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="outside"):
            NetworkDataset(2, [-1], [0], [1.0])
        with pytest.raises(ValueError, match="num_nodes"):
            NetworkDataset(0, [], [], [])
        with pytest.raises(ValueError, match="one length"):
            NetworkDataset(2, [0, 1], [1], [1.0, 1.0])

    def test_arrays_are_read_only_copies(self):
        rows = np.array([0, 1])
        ds = NetworkDataset(3, rows, [1, 2], [0.5, 2.0])
        rows[0] = 2
        assert ds.rows.tolist() == [0, 1]
        assert ds.num_edges == 2
        for array in (ds.rows, ds.cols, ds.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("directed", [False, True])
    def test_adjacency_matches_entry_by_entry_assignment(self, rng, directed):
        # few nodes and many entries: most pairs repeat, in both orientations
        n, m = 5, 60
        ds = NetworkDataset(n, rng.integers(0, n, m), rng.integers(0, n, m),
                            rng.choice([-0.0, 0.0, 0.5, -1.5, 2.0], m), directed=directed)
        np.testing.assert_array_equal(ds.adjacency(), looped_adjacency(ds))
        assert np.array_equal(np.signbit(ds.adjacency()), np.signbit(looped_adjacency(ds)))

    def test_symmetrized_keeps_the_larger_orientation(self):
        ds = NetworkDataset(3, [0, 1, 0, 2, 0], [1, 0, 2, 0, 1], [1.0, -3.0, 2.0, 2.0, 5.0],
                            directed=True)
        sym = ds.symmetrized()
        assert not sym.directed
        # row-major upper triangle; 0 -> 1 ends at 5.0, and the 2.0 tie keeps 0 -> 2
        assert entries(sym) == [(0, 1, 5.0), (0, 2, 2.0)]

    def test_symmetrized_matches_the_dense_rule(self, rng):
        # repeated pairs in both orientations, self-loops and signed zeros, against the
        # dense definition: the upper triangle of where(|A| >= |Aᵀ|, A, Aᵀ), row-major
        n, m = 5, 60
        ds = NetworkDataset(n, rng.integers(0, n, m), rng.integers(0, n, m),
                            rng.choice([-0.0, 0.0, 0.5, -1.5, 2.0, -2.0], m), directed=True)
        mat = looped_adjacency(ds)
        mat = np.triu(np.where(np.abs(mat) >= np.abs(mat.T), mat, mat.T))
        rows, cols = np.nonzero(mat)
        assert entries(ds.symmetrized()) == list(zip(rows.tolist(), cols.tolist(),
                                                     mat[rows, cols].tolist()))

    @pytest.mark.parametrize("directed", [False, True])
    def test_degree_sorted_matches_the_dense_rule(self, rng, directed):
        # repeated pairs (the last entry wins), self-loops and signed decimal weights: the
        # order is the stable one of each row-plus-column sum of the dense matrix, summed
        # exactly and rounded once, so sums of other weights that round to one float tie
        n, m = 7, 50
        for _ in range(20):
            ds = NetworkDataset(n, rng.integers(0, n, m), rng.integers(0, n, m),
                                rng.choice([-0.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.7, -0.9], m),
                                directed=directed)
            mat = np.abs(looped_adjacency(ds))
            degrees = [float(sum(map(Fraction, mat[i].tolist() + mat[:, i].tolist())))
                       for i in range(n)]
            relabel = np.argsort(np.argsort(-np.array(degrees), kind="stable"))
            sorted_ds = ds.degree_sorted()
            np.testing.assert_array_equal(sorted_ds.rows, relabel[ds.rows])
            np.testing.assert_array_equal(sorted_ds.cols, relabel[ds.cols])
            assert sorted_ds.directed == directed

    @pytest.mark.parametrize("directed", [False, True])
    def test_equal_degree_multisets_tie(self, directed):
        # nodes 0 and 1 each meet the weights {0.1, 0.3, 0.6}, node 0 at the first end
        # of its lines and node 1 at the second, in another file order; summed in file
        # order, node 1's degree rounds above node 0's and the tie is lost
        ds = NetworkDataset(8, [0, 0, 0, 5, 6, 7], [2, 3, 4, 1, 1, 1],
                            [0.6, 0.3, 0.1, 0.1, 0.6, 0.3], directed=directed)
        relabel = np.array([0, 1, 2, 4, 6, 7, 3, 5])  # ties keep input order throughout
        sorted_ds = ds.degree_sorted()
        np.testing.assert_array_equal(sorted_ds.rows, relabel[ds.rows])
        np.testing.assert_array_equal(sorted_ds.cols, relabel[ds.cols])

    def test_degree_sorted_builds_no_adjacency(self, monkeypatch):
        ds = NetworkDataset(4, [0, 1, 2], [2, 2, 3], [1.0, 1.0, 1.0])
        monkeypatch.setattr(NetworkDataset, "adjacency", None)
        assert entries(ds.degree_sorted()) == [(1, 0, 1.0), (2, 0, 1.0), (0, 3, 1.0)]

    def test_is_symmetric_matches_the_dense_rule(self, rng):
        # few values and many repeats: about half the draws are symmetric
        n, m = 4, 12
        seen = set()
        for _ in range(200):
            rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
            weights = rng.choice([-0.0, 0.0, 1.0, 2.0], m)
            ds = NetworkDataset(n, np.r_[rows, cols], np.r_[cols, rows],
                                np.r_[weights, rng.permutation(weights)], directed=True)
            mat = looped_adjacency(ds)
            assert ds.is_symmetric() == np.array_equal(mat, mat.T)
            seen.add(ds.is_symmetric())
        assert seen == {False, True}
        assert NetworkDataset(2, [0], [1], [1.0]).is_symmetric()  # undirected data always is

    def test_degree_sorted_puts_hub_first(self):
        star = NetworkDataset(4, [0, 1, 2], [2, 2, 3], [1.0, 1.0, 1.0])
        relabeled = star.degree_sorted()
        degrees = relabeled.adjacency().sum(axis=0)
        assert degrees[0] == degrees.max()
        assert list(degrees) == sorted(degrees, reverse=True)
        # relabeling permutes, so the spectrum is untouched
        np.testing.assert_allclose(
            np.linalg.eigvalsh(relabeled.adjacency()),
            np.linalg.eigvalsh(star.adjacency()), atol=1e-12)
        # hub 2 becomes node 0, and the rest keep their input order
        assert entries(relabeled) == [(1, 0, 1.0), (2, 0, 1.0), (0, 3, 1.0)]


class TestToStepGraphon:
    def test_max_abs_lands_in_unit_range(self, data_dir):
        ds = parse_edge_list((data_dir / "path3_weighted.edges").read_text())
        g = to_step_graphon(ds)
        assert np.abs(g.coeffs).max() == 1.0
        np.testing.assert_array_equal(g.coeffs, ds.adjacency() / 2.0)
        assert g.probability_kernel

    def test_none_keeps_raw_weights(self, data_dir):
        ds = parse_edge_list((data_dir / "path3_weighted.edges").read_text())
        g = to_step_graphon(ds, normalize="none")
        np.testing.assert_array_equal(g.coeffs, ds.adjacency())

    def test_unknown_normalization(self, data_dir):
        ds = parse_edge_list((data_dir / "k22.edges").read_text())
        with pytest.raises(ValueError, match="normalization"):
            to_step_graphon(ds, normalize="l2")

    def test_asymmetric_requires_symmetrize(self, data_dir):
        ds = parse_matrix_market((data_dir / "directed3.mtx").read_text())
        with pytest.raises(ValueError, match="symmetrize"):
            to_step_graphon(ds)
        g = to_step_graphon(ds.symmetrized())
        # the larger-magnitude orientation wins each pair
        expected = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 0.0],
                             [2.0, 0.0, 0.0]]) / 3.0
        np.testing.assert_array_equal(g.coeffs, expected)

    def test_only_a_directed_dataset_is_compared_with_its_transpose(self, data_dir,
                                                                     monkeypatch):
        # the symmetry verdict comes from the arrays: no n×n matrix meets its transpose
        compared, consulted = [], []
        array_equal, is_symmetric = np.array_equal, NetworkDataset.is_symmetric

        def counting_equal(a, b, *args, **kwargs):
            compared.append(np.shape(a))
            return array_equal(a, b, *args, **kwargs)

        def counting_symmetric(ds):
            consulted.append(ds.directed)
            return is_symmetric(ds)

        monkeypatch.setattr(np, "array_equal", counting_equal)
        monkeypatch.setattr(NetworkDataset, "is_symmetric", counting_symmetric)
        undirected = parse_edge_list((data_dir / "k22.edges").read_text())
        to_step_graphon(undirected)
        spectral_report(undirected)
        assert consulted == []
        general = parse_matrix_market(MTX_GENERAL + "3 3 4\n1 2 1\n2 1 1\n2 3 0.5\n3 2 0.5\n")
        np.testing.assert_array_equal(to_step_graphon(general).coeffs,
                                      to_step_graphon(general.symmetrized()).coeffs)
        assert consulted == [True]
        asymmetric = parse_matrix_market(MTX_GENERAL + "3 3 2\n1 2 1\n2 1 2\n")
        with pytest.raises(ValueError, match=r"asymmetric; symmetrize it \(--symmetrize\)"):
            to_step_graphon(asymmetric)
        assert consulted == [True, True]
        assert compared == []

    def test_self_loops_warn(self):
        ds = NetworkDataset(2, [0, 0], [0, 1], [1.0, 0.5])
        with pytest.warns(UserWarning, match="trace"):
            to_step_graphon(ds)


class TestPixelGraphon:
    """The kernel is built from the diagonal and min/max reductions, with no n×n |a|."""

    def test_only_a_nonzero_diagonal_warns(self):
        off_diagonal = np.array([[0.0, -3.0], [-3.0, -0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel, scale = _pixel_graphon(off_diagonal, "max-abs")
        assert scale == 3.0
        np.testing.assert_array_equal(kernel.coeffs, off_diagonal / 3.0)
        with pytest.warns(UserWarning, match="trace"):
            _pixel_graphon(np.array([[0.0, 1.0], [1.0, -1e-300]]), "none")

    def test_signed_zeros_get_unit_scale(self):
        kernel, scale = _pixel_graphon(np.full((3, 3), -0.0), "max-abs")
        assert scale == 1.0
        assert np.signbit(kernel.coeffs).all() and not kernel.coeffs.any()

    @pytest.mark.parametrize("at", [(0, 1), (1, 1)])
    def test_nan_entry_is_refused_as_asymmetric(self, at):
        mat = np.array([[0.0, 0.5], [0.5, 0.0]])
        mat[at], mat[at[::-1]] = np.nan, np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN trace is not a self-loop
            with pytest.raises(ValueError, match="^coeffs must be symmetric$"):
                _pixel_graphon(mat, "max-abs")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_range_check_keeps_its_slack(self, sign):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            StepGraphon([[0.0, sign * (1.0 + 2e-12)], [sign * (1.0 + 2e-12), 0.0]])
        StepGraphon([[0.0, sign * (1.0 + 5e-13)], [sign * (1.0 + 5e-13), 0.0]])
        # under max-abs the largest entry becomes exactly 1
        kernel, scale = _pixel_graphon(np.array([[0.0, sign * (1.0 + 2e-12)],
                                                 [sign * (1.0 + 2e-12), 0.0]]), "max-abs")
        assert (scale, np.abs(kernel.coeffs).max()) == (1.0 + 2e-12, 1.0)

    def test_kernel_build_peaks_near_two_matrices(self):
        ds = sample_graph(SinusoidalGraphon(0.05), 600, seed=5)
        unit = 600 * 600 * 8
        tracemalloc.start()
        try:
            kernel = to_step_graphon(ds)
            peak = tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()
        # the adjacency, the kernel (frozen in place, not copied) and the symmetry mask
        assert peak <= 2.25
        np.testing.assert_array_equal(kernel.coeffs, ds.adjacency())


class TestSampleGraph:
    def test_draw_order_is_frozen(self):
        kernel = StepGraphon([[0.9, 0.1], [0.1, 0.9]])
        ds = sample_graph(kernel, 30, seed=7)
        # replay the documented generator contract by hand
        gen = np.random.default_rng(7)
        latents = gen.random(30)
        thresholds = gen.random((30, 30))
        probs = kernel.value(latents[:, None], latents[None, :])
        expected = [
            (i, j, 1.0) for i in range(30) for j in range(i + 1, 30)
            if thresholds[i, j] < probs[i, j]]
        assert entries(ds) == expected
        assert ds.name == "sample_n30_seed7"
        assert entries(sample_graph(kernel, 30, seed=7)) == expected

    def test_extreme_kernels(self):
        full = sample_graph(StepGraphon([[1.0]]), 6, seed=0)
        assert full.num_edges == 15
        assert (full.rows != full.cols).all()
        empty = sample_graph(StepGraphon([[0.0]]), 6, seed=0)
        assert empty.num_edges == 0

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="probability"):
            sample_graph(StepGraphon([[-0.5]]), 4, seed=0)
        with pytest.raises(ValueError, match="probability"):
            # legal signed kernel, range [-0.3, 0.7], but not a probability
            sample_graph(SinusoidalGraphon(0.2, [0.5]), 4, seed=0)
        with pytest.raises(ValueError, match="probability"):
            sample_graph(StepGraphon(np.full((3, 3), 1.2), validate=False), 4, seed=0)
        # a sinusoidal kernel spans constant -/+ sum|b_k|: [0, 1] exactly is a probability
        assert sample_graph(SinusoidalGraphon(0.5, [0.5]), 4, seed=0).num_nodes == 4
        with pytest.raises(ValueError, match="probability"):
            sample_graph(SinusoidalGraphon(0.5, [0.5 + 1e-9], validate=False), 4, seed=0)
        with pytest.raises(ValueError, match="num_nodes"):
            sample_graph(StepGraphon([[0.5]]), 0, seed=0)

    def test_sinusoidal_and_sampled_kernels_accepted(self):
        smooth = sample_graph(SinusoidalGraphon(0.5, [0.3]), 12, seed=3)
        assert smooth.num_nodes == 12
        gridded = sample_graph(StepGraphon(np.full((3, 3), 0.5), validate=False), 12,
                               seed=3)
        assert gridded.num_nodes == 12


class TestWriteEdgeList:
    def test_round_trip_preserves_everything(self, data_dir):
        ds = parse_edge_list((data_dir / "zero_diag8.edges").read_text(),
                             name="ring")
        text = write_edge_list(ds)
        assert text.startswith("# ring: 8 nodes, 12 edges\n")
        back = parse_edge_list(text, name="ring")
        assert back.num_nodes == ds.num_nodes
        assert entries(back) == entries(ds)

    def test_seventeen_digits_survive(self):
        ds = NetworkDataset(2, [0], [1], [0.1])
        back = parse_edge_list(write_edge_list(ds))
        assert back.weights[0] == 0.1

    def test_lines_are_formatted_one_by_one(self):
        ds = NetworkDataset(4, [0, 3, 2], [1, 0, 2], [0.1, -2.5, 1e-300], name="x")
        assert write_edge_list(ds) == (
            "# x: 4 nodes, 3 edges\n"
            + "".join(f"{i + 1} {j + 1} {w:.17g}\n" for i, j, w in entries(ds)))
        assert write_edge_list(NetworkDataset(1, [], [], [])) == "# network: 1 nodes, 0 edges\n"

    @pytest.mark.parametrize("directed", [False, True])
    def test_lookup_matches_the_per_edge_format(self, rng, directed):
        # -0.0 beside 0.0, NaN, ±inf and subnormals are distinct bit patterns, and
        # repeated weights share one formatted number
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 0.1, 1.0]
        for draw in range(40):
            n = int(rng.integers(1, 30))
            m = 0 if draw % 10 == 0 else int(rng.integers(1, 60))
            pool = np.r_[special, rng.normal(size=3)] if draw % 2 else rng.normal(size=m)
            ds = NetworkDataset(n, rng.integers(0, n, m), rng.integers(0, n, m),
                                rng.choice(pool, m), name=f"d{draw}", directed=directed)
            assert write_edge_list(ds) == (
                f"# d{draw}: {n} nodes, {m} edges\n"
                + "".join(f"{i + 1} {j + 1} {w:.17g}\n" for i, j, w in entries(ds)))

    @pytest.mark.parametrize("last", [2**63 - 2, 2**63 - 1])
    def test_labels_come_from_the_nodes_that_occur(self, last):
        ds = parse_edge_list(f"0 {last}\n")
        assert ds.num_nodes == last + 1
        tracemalloc.start()
        try:
            text = write_edge_list(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 1-based label of node 2**63 - 1 is a Python int, beyond int64
        assert text == f"# network: {last + 1} nodes, 1 edges\n1 {last + 1} 1\n"
        assert peak < 1_000_000  # nothing sized by the node count is allocated


class TestSpectralReport:
    def test_bipartite_summary(self, data_dir):
        ds = parse_edge_list((data_dir / "k22.edges").read_text(), name="k22")
        report = spectral_report(ds, top_fraction=0.1)
        np.testing.assert_allclose(report.eigenvalues, [2.0, 0.0, 0.0, -2.0],
                                   atol=1e-12)
        assert report.top_k == 1  # ceil(0.1 * 4)
        assert report.trace == pytest.approx(0.0, abs=1e-12)
        # normalized pixel spectrum is {1/2, -1/2, 0, 0}; dropping one of the
        # two half-magnitude directions leaves exactly half the energy
        assert report.truncation_error == pytest.approx(0.5, abs=1e-12)
        assert report.histogram_edges.shape == (51,)
        assert report.histogram_counts.sum() == 4
        assert report.histogram_edges[-1] == pytest.approx(2.0)

    def test_zero_diagonal_fixture_trace(self, data_dir):
        ds = parse_edge_list((data_dir / "zero_diag8.edges").read_text())
        report = spectral_report(ds)
        assert abs(report.trace) <= 1e-8

    def test_full_fraction_keeps_whole_spectrum(self, data_dir):
        ds = parse_edge_list((data_dir / "zero_diag8.edges").read_text())
        report = spectral_report(ds, top_fraction=1.0)
        assert report.top_k == ds.num_nodes
        assert report.truncation_error < 1e-7

    def test_validation(self, data_dir):
        directed = parse_matrix_market((data_dir / "directed3.mtx").read_text())
        with pytest.raises(ValueError, match="symmetric"):
            spectral_report(directed)
        ds = parse_edge_list((data_dir / "k22.edges").read_text())
        with pytest.raises(ValueError, match="top_fraction"):
            spectral_report(ds, top_fraction=0.0)
        with pytest.raises(ValueError, match="top_fraction"):
            spectral_report(ds, top_fraction=1.5)

    @pytest.mark.parametrize("top_fraction", [0.1, 0.3, 1.0])
    @pytest.mark.parametrize("name", ["k22.edges", "zero_diag8.edges", "two_cycle.mtx",
                                      "path3_weighted.edges"])
    def test_error_is_the_scaled_eigvalsh_tail(self, data_dir, name, top_fraction):
        text = (data_dir / name).read_text()
        ds = (parse_matrix_market if name.endswith(".mtx") else parse_edge_list)(text)
        report = spectral_report(ds, top_fraction=top_fraction)
        adjacency = ds.adjacency()
        lam = np.linalg.eigvalsh(adjacency) / (ds.num_nodes * np.abs(adjacency).max())
        by_size = np.sort(np.abs(lam))[::-1]
        tail = math.sqrt(np.sum(by_size[math.ceil(top_fraction * ds.num_nodes):] ** 2))
        # eigensolver dust in a zero tail reads ~1e-17 here and exactly 0 in the report
        assert report.truncation_error == pytest.approx(tail, rel=1e-12, abs=1e-15)

    def test_zero_weight_network(self):
        report = spectral_report(NetworkDataset(3, [0], [1], [0.0]))
        assert report.truncation_error == 0.0
        assert report.histogram_edges[-1] == 1.0

    def test_json_schema(self, data_dir):
        ds = parse_edge_list((data_dir / "k22.edges").read_text(), name="k22")
        blob = json.dumps(spectral_report(ds).to_json_dict())
        decoded = json.loads(blob)
        assert set(decoded) == {"name", "n", "eigenvalues", "histogram",
                                "trace", "top_k", "truncation_error"}
        assert set(decoded["histogram"]) == {"edges", "counts"}
        assert decoded["n"] == 4
        assert math.isfinite(decoded["truncation_error"])
