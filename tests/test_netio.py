import json
import math

import numpy as np
import pytest

from graphonctl.errors import ParseError
from graphonctl.graphons import SinusoidalGraphon, StepGraphon
from graphonctl.netio import (
    NetworkDataset,
    parse_edge_list,
    parse_matrix_market,
    sample_graph,
    spectral_report,
    to_step_graphon,
    write_edge_list,
)


class TestParseEdgeList:
    def test_bipartite_fixture(self, data_dir):
        ds = parse_edge_list((data_dir / "k22.edges").read_text(), name="k22")
        assert ds.num_nodes == 4
        assert ds.num_edges == 4
        assert not ds.directed
        # percent-comment line skipped, 1-based indices shifted down
        assert ds.edges[0] == (0, 2, 1.0)
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
        assert ds.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_accepts_bytes(self):
        ds = parse_edge_list(b"# header\n1 2 0.5\n")
        assert ds.edges == ((0, 1, 0.5),)

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

    def test_negative_weights_warn_but_parse(self):
        with pytest.warns(UserWarning, match="signed"):
            ds = parse_edge_list("1 2 -0.5\n")
        assert ds.edges == ((0, 1, -0.5),)


class TestParseMatrixMarket:
    def test_pattern_symmetric_fixture(self, data_dir):
        ds = parse_matrix_market((data_dir / "two_cycle.mtx").read_text())
        assert ds.num_nodes == 2
        assert not ds.directed
        assert ds.edges == ((1, 0, 1.0),)
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


class TestNetworkDataset:
    def test_edge_range_validated(self):
        with pytest.raises(ValueError, match="outside"):
            NetworkDataset(2, ((0, 2, 1.0),))
        with pytest.raises(ValueError, match="num_nodes"):
            NetworkDataset(0, ())

    def test_self_loop_flag(self):
        assert NetworkDataset(2, ((0, 0, 1.0),)).has_self_loops
        assert not NetworkDataset(2, ((0, 1, 1.0),)).has_self_loops

    def test_degree_sorted_puts_hub_first(self):
        star = NetworkDataset(4, ((0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        relabeled = star.degree_sorted()
        degrees = relabeled.adjacency().sum(axis=0)
        assert degrees[0] == degrees.max()
        assert list(degrees) == sorted(degrees, reverse=True)
        # relabeling permutes, so the spectrum is untouched
        np.testing.assert_allclose(
            np.linalg.eigvalsh(relabeled.adjacency()),
            np.linalg.eigvalsh(star.adjacency()), atol=1e-12)


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
        g = to_step_graphon(ds, symmetrize=True)
        # the larger-magnitude orientation wins each pair
        expected = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 0.0],
                             [2.0, 0.0, 0.0]]) / 3.0
        np.testing.assert_array_equal(g.coeffs, expected)

    def test_self_loops_warn(self):
        ds = NetworkDataset(2, ((0, 0, 1.0), (0, 1, 0.5)))
        with pytest.warns(UserWarning, match="trace"):
            to_step_graphon(ds)


class TestSampleGraph:
    def test_draw_order_is_frozen(self):
        kernel = StepGraphon([[0.9, 0.1], [0.1, 0.9]])
        ds = sample_graph(kernel, 30, seed=7)
        # replay the documented generator contract by hand
        gen = np.random.default_rng(7)
        latents = gen.random(30)
        thresholds = gen.random((30, 30))
        probs = kernel.value(latents[:, None], latents[None, :])
        expected = tuple(
            (i, j, 1.0) for i in range(30) for j in range(i + 1, 30)
            if thresholds[i, j] < probs[i, j])
        assert ds.edges == expected
        assert ds.name == "sample_n30_seed7"
        assert sample_graph(kernel, 30, seed=7).edges == ds.edges

    def test_extreme_kernels(self):
        full = sample_graph(StepGraphon([[1.0]]), 6, seed=0)
        assert full.num_edges == 15
        assert not full.has_self_loops
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
        assert back.edges == ds.edges

    def test_seventeen_digits_survive(self):
        ds = NetworkDataset(2, ((0, 1, 0.1),))
        back = parse_edge_list(write_edge_list(ds))
        assert back.edges[0][2] == 0.1


class TestSpectralReport:
    def test_bipartite_summary(self, data_dir):
        ds = parse_edge_list((data_dir / "k22.edges").read_text(), name="k22")
        report = spectral_report(ds, top_fraction=0.1, bins=10)
        np.testing.assert_allclose(report.eigenvalues, [2.0, 0.0, 0.0, -2.0],
                                   atol=1e-12)
        assert report.top_k == 1  # ceil(0.1 * 4)
        assert report.trace == pytest.approx(0.0, abs=1e-12)
        # normalized pixel spectrum is {1/2, -1/2, 0, 0}; dropping one of the
        # two half-magnitude directions leaves exactly half the energy
        assert report.truncation_error == pytest.approx(0.5, abs=1e-12)
        assert report.histogram_edges.shape == (11,)
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
        report = spectral_report(NetworkDataset(3, ((0, 1, 0.0),)))
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
