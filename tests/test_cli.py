import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphonctl.cli as cli
import graphonctl.epidemic as epidemic
from graphonctl import netio
from graphonctl.cli import main
from graphonctl.errors import NumericsError
from graphonctl.graphons import SinusoidalGraphon
import oracles
from oracles import csv_cell


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def reference_csv(header, rows) -> str:
    """The CSV text of `rows` (sequences of Python or numpy scalars), one cell
    at a time through the oracle formatter."""
    lines = [",".join(header)] + [",".join(csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestWriter:
    FLOATS = [-0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e16,
              0.1, -1.0 / 3.0]

    def test_float_int_and_bool_columns(self, tmp_path):
        ints = np.array([2**53 + 1, -(2**62), 0, 7, 1, -1, 10**16, 3],
                        dtype=np.int64)
        flags = np.array([True, False] * 4)
        py_flags = [False, True, True, False, True, True, False, False]
        header = ["i", "x", "b", "pb"]
        cli.write_csv(tmp_path / "t.csv", header, ints, self.FLOATS, flags, py_flags)
        rows = zip(ints.tolist(), self.FLOATS, flags, py_flags)
        assert (tmp_path / "t.csv").read_text() == reference_csv(header, rows)

    def test_single_columns(self, tmp_path):
        cli.write_csv(tmp_path / "f.csv", ["x"], np.array(self.FLOATS))
        assert (tmp_path / "f.csv").read_text() == reference_csv(
            ["x"], [(v,) for v in self.FLOATS])
        big = [2**53 + 1, -(2**53 + 1), np.int64(2**63 - 1)]
        cli.write_csv(tmp_path / "i.csv", ["n"], big)
        assert (tmp_path / "i.csv").read_text() == reference_csv(
            ["n"], [(v,) for v in big])
        assert (tmp_path / "i.csv").read_text().splitlines()[1] == "9007199254740993"

    def test_column_blocks(self, tmp_path):
        times = np.linspace(0.0, 1.0, 5)
        block = np.arange(15.0).reshape(5, 3) / 7.0 - 1.0
        cli.write_csv(tmp_path / "b.csv", ["t", "a", "b", "c"], times, block)
        rows = [(t, *row) for t, row in zip(times, block)]
        assert (tmp_path / "b.csv").read_text() == reference_csv(
            ["t", "a", "b", "c"], rows)

    def test_rows_past_one_stack(self, tmp_path):
        # write_csv formats 2**16 cells at a time, 16384 rows of these four columns;
        # 33000 rows cross two seams
        ints = np.arange(33000) - 300
        floats = np.linspace(-1.0, 1.0, 33000) / 3.0
        block = np.sin(np.arange(66000.0)).reshape(33000, 2)
        cli.write_csv(tmp_path / "l.csv", ["i", "x", "a", "b"], ints, floats, block)
        rows = [(i, x, *row) for i, x, row in zip(ints.tolist(), floats, block)]
        assert (tmp_path / "l.csv").read_text() == reference_csv(["i", "x", "a", "b"], rows)

    @pytest.mark.parametrize("lengths", [(3, 5), (5, 3), (512, 600), (600, 512), (0, 2)])
    def test_ragged_columns_refused(self, tmp_path, lengths):
        with pytest.raises(ValueError):
            cli.write_csv(tmp_path / "r.csv", ["a", "b"], *(np.zeros(k) for k in lengths))
        assert list(tmp_path.iterdir()) == []

    def test_header_only(self, tmp_path):
        cli.write_csv(tmp_path / "e.csv", ["size", "seed", "x"],
                      [], np.zeros(0, dtype=int), np.zeros((0, 1)))
        text = (tmp_path / "e.csv").read_text()
        assert text == reference_csv(["size", "seed", "x"], []) == "size,seed,x\n"

    @staticmethod
    def spy_routes(monkeypatch):
        """The route of every chunk write_csv formats: "repeat" or "row"."""
        routes = []
        original = cli._repeated_chunk_lines

        def spying(chunk, formats):
            lines = original(chunk, formats)
            routes.append("row" if lines is None else "repeat")
            return lines

        monkeypatch.setattr(cli, "_repeated_chunk_lines", spying)
        return routes

    def test_repeated_special_values(self, tmp_path, monkeypatch):
        # -0.0 and 0.0, and the two NaNs, have different bits: each keeps its own string
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
        values = np.array([-0.0, 0.0, *nans, np.inf, -np.inf, 5e-324])
        block = np.resize(values, (40, 5))
        routes = self.spy_routes(monkeypatch)
        cli.write_csv(tmp_path / "s.csv", list("abcde"), block)
        assert routes == ["repeat"]
        assert (tmp_path / "s.csv").read_text() == reference_csv(list("abcde"), block.tolist())

    def test_int_with_a_floats_bits(self, tmp_path, monkeypatch):
        ints = np.full(10, 4607182418800017408, dtype=np.int64)
        assert (ints.view(float) == 1.0).all()
        ones = np.ones(10)
        routes = self.spy_routes(monkeypatch)
        cli.write_csv(tmp_path / "i.csv", ["i", "x"], ints, ones)
        assert routes == ["repeat"]
        assert (tmp_path / "i.csv").read_text() == reference_csv(
            ["i", "x"], zip(ints.tolist(), ones))

    def test_bool_block(self, tmp_path, monkeypatch):
        flags = np.array([[True, False, True]] * 6)
        routes = self.spy_routes(monkeypatch)
        cli.write_csv(tmp_path / "b.csv", ["p", "q", "r"], flags)
        assert routes == ["repeat"]
        assert (tmp_path / "b.csv").read_text() == reference_csv(["p", "q", "r"], flags.tolist())

    def test_route_switches_at_the_seam(self, tmp_path, monkeypatch):
        # 128 columns make 512-row chunks: the first repeats four values, the second
        # holds 1024 distinct ones
        rng = np.random.default_rng(5)
        block = np.vstack([rng.choice([0.25, -1.0 / 3.0, 7.0, 1e300], size=(512, 128)),
                           rng.standard_normal((8, 128))])
        routes = self.spy_routes(monkeypatch)
        header = [f"c{j}" for j in range(128)]
        cli.write_csv(tmp_path / "m.csv", header, block)
        assert routes == ["repeat", "row"]
        text, expected = (tmp_path / "m.csv").read_text(), reference_csv(header, block.tolist())
        assert text.splitlines() == expected.splitlines()  # reports the first bad row quickly
        assert text == expected

    @staticmethod
    def spy_index_routes(monkeypatch):
        """(distinct count, route) of every column block the repeated route indexes:
        "compare" or "argsort"."""
        routes, ranked = [], []
        original_index, original_argsort = cli._distinct_index, cli._argsort_index

        def argsorting(key, first):
            ranked.append(key.size)
            return original_argsort(key, first)

        def indexing(key, distinct, first):
            before = len(ranked)
            index = original_index(key, distinct, first)
            routes.append((distinct.size, "argsort" if len(ranked) > before else "compare"))
            return index

        monkeypatch.setattr(cli, "_distinct_index", indexing)
        monkeypatch.setattr(cli, "_argsort_index", argsorting)
        return routes

    @pytest.mark.parametrize("count, route", [(2, "compare"), (3, "argsort"), (16, "argsort"),
                                              (17, "argsort")])
    def test_index_route_by_distinct_count(self, tmp_path, monkeypatch, count, route):
        rng = np.random.default_rng(count)
        values = np.concatenate(([-0.0, 0.0], rng.standard_normal(count - 2)))
        block = rng.choice(values, size=(300, 7))
        assert np.unique(block.view(np.uint64)).size == count
        routes = self.spy_index_routes(monkeypatch)
        cli.write_csv(tmp_path / "c.csv", list("abcdefg"), block)
        assert routes == [(count, route)]
        assert (tmp_path / "c.csv").read_text() == reference_csv(list("abcdefg"), block.tolist())

    def test_both_index_routes_in_a_trajectory_table(self, tmp_path, monkeypatch):
        # a time column and 180 node columns of four blocks, each block's nodes moving
        # alike: thousands of distinct values per chunk, and a 0/1 flag block of two
        times = np.linspace(0.0, 1.0, 1001)
        paths = np.cumsum(np.random.default_rng(9).normal(size=(1001, 4)), axis=0) / 30.0
        states = paths[:, np.repeat(np.arange(4), [18, 36, 54, 72])]
        flags = (states[:, ::20] > 0.0).astype(np.int64)
        routes = self.spy_index_routes(monkeypatch)
        header = ["time"] + [f"node{i}" for i in range(180)] + [f"f{j}" for j in range(9)]
        cli.write_csv(tmp_path / "t.csv", header, times, states, flags)
        assert {route for _, route in routes} == {"compare", "argsort"}
        assert max(count for count, _ in routes) > 1000
        text = (tmp_path / "t.csv").read_text()
        expected = reference_csv(header, [(t, *row, *f) for t, row, f
                                          in zip(times, states.tolist(), flags.tolist())])
        assert text.splitlines() == expected.splitlines()  # reports the first bad row quickly
        assert text == expected

    def test_failure_midway_leaves_no_file(self, tmp_path):
        # the second table fails while it is formatted: the run removes every .tmp
        # sibling it wrote and the directories it made
        column = np.array([1.0, 2.0, "not a number", 4.0], dtype=object)
        args = cli.build_parser().parse_args(["approx", "net.edges"])
        with pytest.raises(TypeError):
            cli.write_artifacts(tmp_path / "a" / "b",
                                {"a.csv": (["a"], [1.0]), "x.csv": (["x"], column)}, args)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_sibling(self, tmp_path):
        # a directory at an artifact's name fails its rename during the commit: the file
        # renamed before it stays, and no .tmp sibling or manifest is left
        (tmp_path / "x.csv").mkdir()
        args = cli.build_parser().parse_args(["approx", "net.edges"])
        with pytest.raises(IsADirectoryError):
            cli.write_artifacts(tmp_path, {"a.csv": (["a"], [1.0]), "x.csv": (["x"], [2.0])},
                                args)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "x.csv"]
        assert (tmp_path / "a.csv").read_text() == "a\n1\n"
        assert (tmp_path / "x.csv").is_dir()

    def test_failed_fork_leaves_one_writer(self, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(cli, "_second_share", lambda artifacts, staged: ["b.csv"])
        monkeypatch.setattr(cli.os, "fork", no_fork)
        args = cli.build_parser().parse_args(["approx", "net.edges"])
        cli.write_artifacts(tmp_path, {"a.csv": (["x"], [1.0]), "b.csv": (["y"], [2.0])},
                            args)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv",
                                                              "manifest.json"]
        assert (tmp_path / "b.csv").read_text() == "y\n2\n"

    def test_failed_run_keeps_previous_files(self, tmp_path):
        # nothing is renamed before every file was written, so an earlier run's files
        # keep their bytes when a later table fails
        args = cli.build_parser().parse_args(["approx", "net.edges"])
        cli.write_artifacts(tmp_path, {"a.csv": (["a"], [1.0, 2.0]), "x.csv": (["x"], [3.0])},
                            args)
        before = tree_bytes(tmp_path)
        with pytest.raises(TypeError):
            cli.write_artifacts(tmp_path, {"a.csv": (["a"], [5.0]),
                                           "x.csv": (["x"], np.array([3.0, "bad"], dtype=object))},
                                args)
        assert tree_bytes(tmp_path) == before

    def test_nothing_is_renamed_before_the_nonlinear_run_returns(self, data_dir, tmp_path,
                                                                 monkeypatch):
        # one writer, as under taskset -c 0: every file is renamed after simulate_nonlinear
        # returned, in artifact order, manifest.json last
        events, simulate_nonlinear, replace = [], cli.simulate_nonlinear, os.replace

        def simulated(*args):
            trajectory = simulate_nonlinear(*args)
            events.append("simulated")
            return trajectory

        def replaced(source, target):
            events.append(Path(target).name)
            replace(source, target)

        monkeypatch.setattr(cli, "simulate_nonlinear", simulated)
        monkeypatch.setattr(cli.os, "replace", replaced)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["epidemic", str(data_dir / "k22.edges"), "--nonlinear",
                     "--out", str(tmp_path)]) == 0
        assert events == ["simulated", "riccati.csv", "states.csv", "controls.csv",
                          "eigenstates.csv", "eigencontrols.csv", "auxiliary.csv",
                          "auxiliary_residual.csv", "nonlinear_states.csv", "cost.json",
                          "manifest.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(events[1:])


class TestArtifactFormat:
    """Every CSV cell is in canonical form: re-rendering the parsed value with
    the oracle formatter gives back the same bytes.  Needs no stored digests,
    so it holds whatever BLAS build computed the values."""

    INT_COLUMNS = {"index", "rank", "size", "seed"}

    def assert_canonical(self, path):
        text = path.read_text()
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header), f"{path.name}: ragged row"
            rows.append([int(c) if name in self.INT_COLUMNS else float(c)
                         for name, c in zip(header, cells)])
        expected = reference_csv(header, rows)
        assert lines == expected.splitlines(), path.name  # reports the first bad row quickly
        assert text == expected, path.name

    def test_every_csv_is_canonical(self, data_dir, tmp_path):
        network = str(data_dir / "k22.edges")
        runs = {
            "spectra": ["spectra", network],
            "approx": ["approx", network, "--fourier-order", "2"],
            "minenergy": ["minenergy", network],
            "epidemic": ["epidemic", network, "--nonlinear",
                         "--riccati-steps", "400", "--step", "0.01"],
            "sample": ["sample", "--kernel", network, "--converge",
                       "--sizes", "8,12", "--num-seeds", "2"],
        }
        written = []
        for name, argv in runs.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            written += sorted((tmp_path / name).glob("*.csv"))
        assert len(written) == 15
        for path in written:
            self.assert_canonical(path)

    def test_block_structured_csv_is_canonical(self, tmp_path, monkeypatch):
        # complete 4-partite graph, parts 2, 4, 6 and 8: its kernel and trajectories
        # repeat a few values, so write_csv formats them one distinct value at a time
        part = np.repeat(np.arange(4), [2, 4, 6, 8])
        network = tmp_path / "multipartite.edges"
        network.write_text("".join(f"{i} {j}\n" for i in range(20) for j in range(i)
                                   if part[i] != part[j]))
        routes = TestWriter.spy_routes(monkeypatch)
        written = []
        for name, argv in {"spectra": ["spectra", str(network)],
                           "epidemic": ["epidemic", str(network), "--nonlinear"]}.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            written += sorted((tmp_path / name).glob("*.csv"))
        assert len(written) == 11
        assert "repeat" in routes
        for path in written:
            self.assert_canonical(path)


class TestSpectraDecomposesOnce:
    @pytest.mark.parametrize("normalize", ["max-abs", "none"])
    def test_one_decompose_call(self, data_dir, tmp_path, monkeypatch, normalize):
        # the kernel's modes come from the report's eigenpair, through decompose's helper
        calls = []
        original = cli._step_decomposition

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "_step_decomposition", counting)
        argv = ["spectra", str(data_dir / "zero_diag8.edges"),
                "--normalize", normalize, "--top-fraction", "0.3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_failed_eigensolve_writes_nothing(self, data_dir, tmp_path, monkeypatch, capsys):
        # the report's eigensolve has succeeded by then: every artifact waits for the run
        def failing(*args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "_step_decomposition", failing)
        out = tmp_path / "out"
        assert main(["spectra", str(data_dir / "k22.edges"), "--out", str(out)]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()

    def test_modes_are_built_without_the_adjacency(self, tmp_path, monkeypatch):
        n = 400
        unit = n * n * 8
        dataset = netio.sample_graph(SinusoidalGraphon(0.05), n, seed=5)
        network = tmp_path / "g.edges"
        network.write_text(netio.write_edge_list(dataset))
        args = cli.build_parser().parse_args(["spectra", str(network)])
        live, original = [], cli._step_decomposition

        def measuring(*args):
            live.append(tracemalloc.get_traced_memory()[0] / unit)
            return original(*args)

        monkeypatch.setattr(cli, "_step_decomposition", measuring)
        tracemalloc.start()
        try:
            artifacts = cli.cmd_spectra(args)
            peak = tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()
        # the kernel and the raw eigenvectors are live as the modes are built, and
        # the peak is the kernel's build: the adjacency, the eigenvectors, the quotient
        # and its read-only copy
        assert len(live) == 1 and live[0] <= 2.5
        assert peak <= 4.5
        assert artifacts["approx_kernel.json"]["rank"] > 0


class TestSpectraReadsOneGraph:
    # each reader builds its own dense matrix from the dataset's arrays; the report
    # and the kernel must still read one graph, the symmetrized one under --symmetrize
    @pytest.mark.parametrize("name,flags", [("zero_diag8.edges", []),
                                            ("directed3.mtx", ["--symmetrize"])])
    def test_report_and_kernel_bytes(self, data_dir, tmp_path, name, flags):
        path = data_dir / name
        dataset = cli.load_dataset(str(path))
        if flags:
            dataset = dataset.symmetrized()
        report = netio.spectral_report(dataset, top_fraction=0.3)
        kernel = netio.to_step_graphon(dataset)
        assert main(["spectra", str(path), "--top-fraction", "0.3",
                     "--out", str(tmp_path)] + flags) == 0
        assert ((tmp_path / "spectral_report.json").read_text()
                == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
        _, written = read_csv(tmp_path / "original_kernel.csv")
        np.testing.assert_array_equal(written, kernel.coeffs)


class TestSpectraSolvesOnce:
    # the report and the kernel share one dense adjacency and one eigensolve of it;
    # --symmetrize builds the symmetric copy from the arrays
    @pytest.mark.parametrize("name,flags", [("k22.edges", []),
                                            ("directed3.mtx", ["--symmetrize"]),
                                            ("zero_diag8.edges", ["--degree-sort"]),
                                            ("directed3.mtx", ["--symmetrize", "--degree-sort"])])
    def test_one_adjacency_and_one_eigensolve(self, data_dir, tmp_path, monkeypatch,
                                              name, flags):
        calls = []

        def counted(label, original):
            def wrapper(*args, **kwargs):
                calls.append(label)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(netio.NetworkDataset, "adjacency",
                            counted("adjacency", netio.NetworkDataset.adjacency))
        for solver in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, solver,
                                counted("eigensolve", getattr(np.linalg, solver)))
        assert main(["spectra", str(data_dir / name), "--out", str(tmp_path)] + flags) == 0
        assert sorted(calls) == ["adjacency", "eigensolve"]


class TestEigensolveCounts:
    """A run solves for eigenvectors only when it reads them: the default `approx`
    and `gramian` read the spectrum alone and take one eigvalsh."""

    @pytest.mark.parametrize("command,flags,counts", [
        ("approx", [], {"eigvalsh": 1}),
        ("gramian", [], {"eigvalsh": 1}),
        ("gramian", ["--b-poly", "0.5,-0.2", "--alpha0", "-0.3"], {"eigvalsh": 1}),
        ("approx", ["--fourier-order", "2"], {"eigh": 1}),
        ("gramian", ["--oracle"], {"eigh": 2}),  # the modes, then the quadrature's own
        ("minenergy", [], {"eigh": 1}),
        ("epidemic", [], {"eigh": 1}),
        ("epidemic", ["--nonlinear"], {"eigh": 1}),
    ])
    def test_solver_calls(self, data_dir, tmp_path, monkeypatch, command, flags, counts):
        calls = {"eigh": 0, "eigvalsh": 0}
        for solver in calls:
            original = getattr(np.linalg, solver)

            def counted(*args, _solver=solver, _original=original, **kwargs):
                calls[_solver] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, solver, counted)
        assert main([command, str(data_dir / "zero_diag8.edges"), "--out", str(tmp_path)]
                    + flags) == 0
        assert calls == {"eigh": 0, "eigvalsh": 0, **counts}

    def test_values_only_gramian_matches_the_eigenpair_route(self, data_dir, tmp_path):
        args = ["gramian", str(data_dir / "zero_diag8.edges"), "--b-poly", "0.5",
                "--alpha0", "-0.3"]
        assert main(args + ["--out", str(tmp_path / "values")]) == 0
        assert main(args + ["--oracle", "--out", str(tmp_path / "pairs")]) == 0
        values, pairs = (json.loads((tmp_path / d / "gramian.json").read_text())
                         for d in ("values", "pairs"))
        for key in ("eigenvalue", "eta", "coefficient"):
            got = np.array([d[key] for d in values["directions"]])
            want = np.array([d[key] for d in pairs["directions"]])
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())
        assert values["controllable"] == pairs["controllable"]


class TestApproxKernelModes:
    """approx_kernel.csv holds the rank-k truncation as its k modes: row l is l, λ_l
    and the block values of the unit-L2 eigenfunction f_l."""

    @staticmethod
    def modes(out):
        header, rows = read_csv(out / "approx_kernel.csv")
        rows = rows.reshape(-1, len(header))
        n = json.loads((out / "approx_kernel.json").read_text())["n"]
        assert header == ["mode", "eigenvalue"] + [f"b{j}" for j in range(n)]
        np.testing.assert_array_equal(rows[:, 0], np.arange(len(rows)))
        return rows[:, 1], rows[:, 2:]

    @pytest.mark.parametrize("name,flags", [("k22.edges", []), ("zero_diag8.edges", []),
                                            ("directed3.mtx", ["--symmetrize"])])
    def test_full_fraction_rebuilds_the_kernel(self, data_dir, tmp_path, name, flags):
        assert main(["spectra", str(data_dir / name), "--top-fraction", "1.0",
                     "--out", str(tmp_path)] + flags) == 0
        lam, basis = self.modes(tmp_path)
        _, kernel = read_csv(tmp_path / "original_kernel.csv")
        rebuilt = (basis.T * lam) @ basis
        assert np.abs(rebuilt - kernel).max() <= 1e-12 * np.abs(kernel).max()

    def test_default_fraction_matches_the_oracle(self, tmp_path):
        # G(200, 0.1): |λ_20| and |λ_21| differ by 2e-3 of the largest, no tie at the cut
        assert main(["sample", "--kernel", "constant:0.1", "--num-nodes", "200",
                     "--seed", "2", "--out", str(tmp_path / "g")]) == 0
        network = tmp_path / "g" / "sample_n200_seed2.edges"
        assert main(["spectra", str(network), "--out", str(tmp_path / "sp")]) == 0
        i, j, w = np.loadtxt(network, comments="#", unpack=True)
        adjacency = np.zeros((200, 200))
        adjacency[i.astype(int) - 1, j.astype(int) - 1] = w
        adjacency[j.astype(int) - 1, i.astype(int) - 1] = w
        lam, basis = self.modes(tmp_path / "sp")
        assert json.loads((tmp_path / "sp" / "approx_kernel.json").read_text()) == {
            "n": 200, "family": "step", "normalization": "max-abs", "rank": 20}
        expected = oracles.pixel_truncation(adjacency, 20)
        assert np.abs((basis.T * lam) @ basis - expected).max() <= 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(np.mean(basis ** 2, axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_rank_zero_is_the_header(self, tmp_path):
        network = tmp_path / "zero.edges"
        network.write_text("0 1 0\n1 2 0\n")
        assert main(["spectra", str(network), "--out", str(tmp_path / "sp")]) == 0
        assert (tmp_path / "sp" / "approx_kernel.csv").read_text() == "mode,eigenvalue,b0,b1,b2\n"
        assert json.loads((tmp_path / "sp" / "approx_kernel.json").read_text())["rank"] == 0


class TestSpectra:
    def test_artifacts_and_values(self, data_dir, tmp_path):
        code = main(["spectra", str(data_dir / "k22.edges"),
                     "--out", str(tmp_path)])
        assert code == 0
        expected = {"spectral_report.json", "eigenvalues.csv",
                    "original_kernel.csv", "original_kernel.json",
                    "approx_kernel.csv", "approx_kernel.json", "manifest.json"}
        assert expected <= {p.name for p in tmp_path.iterdir()}

        header, rows = read_csv(tmp_path / "eigenvalues.csv")
        assert header == ["index", "eigenvalue"]
        from graphonctl.netio import parse_edge_list
        adjacency = parse_edge_list(
            (data_dir / "k22.edges").read_text()).adjacency()
        # %.17g round-trips doubles exactly, eigensolver dust included
        np.testing.assert_array_equal(rows[:, 1],
                                      np.linalg.eigh(adjacency)[0][::-1])

        report = json.loads((tmp_path / "spectral_report.json").read_text())
        assert report["n"] == 4
        kernel_meta = json.loads((tmp_path / "original_kernel.json").read_text())
        assert kernel_meta == {"n": 4, "family": "step",
                               "normalization": "max-abs"}

    def test_symmetrize_flag_reaches_the_report(self, data_dir, tmp_path):
        path = data_dir / "directed3.mtx"
        assert main(["spectra", str(path), "--symmetrize", "--out", str(tmp_path)]) == 0
        from graphonctl.netio import parse_matrix_market
        adjacency = parse_matrix_market(path.read_text()).adjacency()
        # the larger-magnitude orientation of each pair, as the kernel keeps it
        symmetric = np.where(np.abs(adjacency) >= np.abs(adjacency.T), adjacency, adjacency.T)
        _, rows = read_csv(tmp_path / "eigenvalues.csv")
        np.testing.assert_array_equal(rows[:, 1], np.linalg.eigh(symmetric)[0][::-1])
        _, kernel = read_csv(tmp_path / "original_kernel.csv")
        np.testing.assert_array_equal(kernel, symmetric / 3.0)

    def test_manifest_shape(self, data_dir, tmp_path):
        main(["spectra", str(data_dir / "k22.edges"), "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == {"command", "config", "seed", "version"}
        assert manifest["command"] == "spectra"
        assert "out" not in manifest["config"]
        assert "handler" not in manifest["config"]


class TestApprox:
    def test_curve_covers_every_rank(self, data_dir, tmp_path):
        assert main(["approx", str(data_dir / "zero_diag8.edges"),
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "truncation_curve.csv")
        assert rows[0, 0] == 0.0
        assert (np.diff(rows[:, 1]) <= 1e-12).all()  # error shrinks with rank
        assert rows[-1, 1] == pytest.approx(0.0, abs=1e-7)

    def test_fourier_bounds_dominate_measured(self, data_dir, tmp_path):
        network = str(data_dir / "zero_diag8.edges")
        assert main(["approx", network, "--fourier-order", "3",
                     "--out", str(tmp_path / "sweep")]) == 0
        _, rows = read_csv(tmp_path / "sweep" / "fourier_bounds.csv")
        assert (rows[:, 1] >= rows[:, 2] - 1e-12).all()
        assert rows[-1, 1] == rows[-1, 2]  # at full rank only the projection error is left
        # a single rank writes that rank's row of the sweep, byte for byte
        assert main(["approx", network, "--rank", "3", "--fourier-order", "3",
                     "--out", str(tmp_path / "single")]) == 0
        sweep = (tmp_path / "sweep" / "fourier_bounds.csv").read_text().splitlines()
        single = (tmp_path / "single" / "fourier_bounds.csv").read_text().splitlines()
        assert single == [sweep[0], sweep[4]]

    def test_single_rank_and_range_check(self, data_dir, tmp_path):
        assert main(["approx", str(data_dir / "k22.edges"), "--rank", "1",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "truncation_curve.csv")
        assert rows.shape[0] == 1
        assert main(["approx", str(data_dir / "k22.edges"), "--rank", "99",
                     "--out", str(tmp_path)]) == 2
        # the order is checked before any file is written, or the directory made
        out = tmp_path / "order0"
        assert main(["approx", str(data_dir / "k22.edges"), "--fourier-order", "0",
                     "--out", str(out)]) == 2
        assert not out.exists()


class TestGramian:
    def test_closed_form_with_oracle_gap(self, data_dir, tmp_path):
        assert main(["gramian", str(data_dir / "k22.edges"), "--oracle",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "gramian.json").read_text())
        assert payload["controllable"]
        assert payload["beta0_nonzero"]
        assert payload["oracle_relative_error"] < 1e-8
        assert len(payload["directions"]) == 2  # rank of K22 pixel kernel

    def test_rank_zero_kernel_oracle_gap(self, tmp_path):
        network = tmp_path / "zero.edges"
        network.write_text("1 2 0\n2 3 0\n")
        assert main(["gramian", str(network), "--oracle", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "gramian.json").read_text())
        assert payload["directions"] == []
        assert payload["oracle_relative_error"] <= 1e-12

    def test_zero_gain_reports_uncontrollable(self, data_dir, tmp_path):
        assert main(["gramian", str(data_dir / "k22.edges"), "--beta0", "0",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "gramian.json").read_text())
        assert not payload["controllable"]
        assert not payload["beta0_nonzero"]


class TestMinEnergy:
    def test_steering_to_origin(self, data_dir, tmp_path):
        assert main(["minenergy", str(data_dir / "k22.edges"),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "minenergy.json").read_text())
        assert payload["energy"] > 0.0
        assert payload["final_norm"] <= 1e-5 * payload["initial_norm"]
        header, rows = read_csv(tmp_path / "minenergy_trajectory.csv")
        assert header == ["time", "state_norm", "control_norm"]
        assert rows[0, 1] == pytest.approx(payload["initial_norm"])

    def test_initial_state_from_file(self, data_dir, tmp_path):
        x0 = tmp_path / "x0.txt"
        x0.write_text("1.0\n-0.5\n0.25\n0.0\n")
        assert main(["minenergy", str(data_dir / "k22.edges"),
                     "--x0", str(x0), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "minenergy.json").read_text())
        expected = np.sqrt(np.mean([1.0, 0.25, 0.0625, 0.0]))
        assert payload["initial_norm"] == pytest.approx(expected, rel=1e-12)

    def test_zero_gain_cannot_steer(self, data_dir, tmp_path, capsys):
        assert main(["minenergy", str(data_dir / "k22.edges"), "--beta0", "0",
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestEpidemic:
    ARGS = ["--riccati-steps", "2000", "--step", "0.01"]

    def test_full_artifact_set_and_cost_ordering(self, data_dir, tmp_path):
        assert main(["epidemic", str(data_dir / "k22.edges"),
                     "--out", str(tmp_path)] + self.ARGS) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"riccati.csv", "states.csv", "controls.csv", "eigenstates.csv",
                "eigencontrols.csv", "auxiliary.csv", "auxiliary_residual.csv",
                "cost.json", "manifest.json"} <= names
        costs = json.loads((tmp_path / "cost.json").read_text())
        assert costs["optimal"] < costs["zero_control"]
        _, states = read_csv(tmp_path / "states.csv")
        assert states.shape[1] == 5  # time + one column per node

    def test_nonlinear_flag(self, data_dir, tmp_path):
        assert main(["epidemic", str(data_dir / "k22.edges"), "--nonlinear",
                     "--out", str(tmp_path)] + self.ARGS) == 0
        costs = json.loads((tmp_path / "cost.json").read_text())
        assert "nonlinear_closed_loop" in costs
        assert costs["nonlinear_range_warning"] in (False, True)
        assert (tmp_path / "nonlinear_states.csv").exists()

    def test_zero_weights_cost_nothing_when_states_overflow_their_squares(
            self, data_dir, tmp_path):
        # exp(400) states are finite, their squares are not
        assert main(["epidemic", str(data_dir / "k22.edges"), "--alpha0", "-400",
                     "--qt", "0", "--qT", "0", "--out", str(tmp_path)]) == 0
        costs = json.loads((tmp_path / "cost.json").read_text())
        assert costs == {"optimal": 0.0, "zero_control": 0.0}

    @pytest.mark.parametrize("eta", ["200", "400"])
    def test_overflowing_zero_control_reported_infinite(self, data_dir, tmp_path, eta):
        # the closed loop stays bounded; without control only the squared
        # states (eta 200) or the states themselves (eta 400) overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["epidemic", str(data_dir / "k22.edges"), "--eta", eta,
                         "--out", str(tmp_path)]) == 0
        costs = json.loads((tmp_path / "cost.json").read_text())
        assert math.isfinite(costs["optimal"])
        assert costs["zero_control"] == math.inf

    @pytest.mark.parametrize("simulation", ["simulate_linearized", "simulate_nonlinear"])
    def test_controlled_overflow_exits_three(self, data_dir, tmp_path, capsys,
                                             monkeypatch, simulation):
        def overflow_under_control(model, p0, control, num_steps):
            raise NumericsError("state became non-finite at t=0.5")

        monkeypatch.setattr(cli, simulation, overflow_under_control)
        out = tmp_path / "out"
        assert main(["epidemic", str(data_dir / "k22.edges"), "--nonlinear",
                     "--out", str(out)] + self.ARGS) == 3
        assert "numeric failure: state became non-finite" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def multipartite(tmp_path):
        """Complete 4-partite graph, parts of 2, 4, 6 and 8 nodes: its file and adjacency."""
        part = np.repeat(np.arange(4), [2, 4, 6, 8])
        network = tmp_path / "multipartite.edges"
        network.write_text("".join(f"{i} {j}\n" for i in range(20) for j in range(i)
                                   if part[i] != part[j]))
        return network, (part[:, None] != part[None, :]).astype(float)

    def test_stiff_nonlinear_run_matches_radau(self, tmp_path):
        # at eta 360 the closed loop's fastest rate is about 5000, five times 1/step
        network, adjacency = self.multipartite(tmp_path)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["epidemic", str(network), "--eta", "360", "--nonlinear",
                         "--out", str(out)]) == 0
        costs = json.loads((out / "cost.json").read_text())
        assert math.isfinite(costs["nonlinear_closed_loop"])
        _, table = read_csv(out / "nonlinear_states.csv")
        expected = oracles.radau_states(adjacency, -0.5, 360.0, 1.0, np.full(20, 0.1), 1.0,
                                        table[:, 0], (2.0, 4.0), rtol=1e-10)
        assert np.abs(table[:, 1:] - expected).max() < 1e-2 * np.abs(expected).max()

    def test_stiff_optimal_cost_is_the_value_function(self, tmp_path):
        # the closed loop is fast here: a trapezoid over the default grid gives 269.65
        network, adjacency = self.multipartite(tmp_path)
        assert main(["epidemic", str(network), "--eta", "40", "--out", str(tmp_path)]) == 0
        costs = json.loads((tmp_path / "cost.json").read_text())
        _, sheets, _ = oracles.epidemic_lqr_oracle(adjacency, -0.5, 40.0, 1.0, 2.0, 4.0, 1.0)
        p0 = np.full(20, 0.1)
        assert costs["optimal"] == pytest.approx(p0 @ sheets[0] @ p0, rel=1e-9)

    def test_costs_do_not_depend_on_the_step(self, data_dir, tmp_path):
        for name, flags in (("default", []), ("fine", ["--step", "0.0001"])):
            assert main(["epidemic", str(data_dir / "k22.edges"),
                         "--out", str(tmp_path / name)] + flags) == 0
        assert ((tmp_path / "default" / "cost.json").read_bytes()
                == (tmp_path / "fine" / "cost.json").read_bytes())

    def test_factored_layout_rebuilds_states_and_controls(self, data_dir, tmp_path):
        # k22 has rank 2 with parts {0, 1} and {2, 3}; this p0 is off its range
        p0 = np.array([0.05, 0.3, 0.2, 0.1])
        (tmp_path / "p0.txt").write_text("".join(f"{v!r}\n" for v in p0.tolist()))
        out = tmp_path / "out"
        assert main(["epidemic", str(data_dir / "k22.edges"), "--p0",
                     str(tmp_path / "p0.txt"), "--out", str(out)] + self.ARGS) == 0
        edges = np.loadtxt(data_dir / "k22.edges", dtype=int, comments="%") - 1
        adjacency = np.zeros((4, 4))
        adjacency[edges[:, 0], edges[:, 1]] = adjacency[edges[:, 1], edges[:, 0]] = 1.0
        vectors = oracles.nonzero_eigenvectors(adjacency)

        header, residual = read_csv(out / "auxiliary_residual.csv")
        assert header == ["node", "residual"]
        np.testing.assert_array_equal(residual[:, 0], np.arange(4))
        residual = residual[:, 1]
        assert np.abs(residual).max() > 0.1
        np.testing.assert_allclose(residual, p0 - vectors @ (vectors.T @ p0), atol=1e-15)
        np.testing.assert_allclose(vectors.T @ residual, 0.0, atol=1e-15)

        header, auxiliary = read_csv(out / "auxiliary.csv")
        assert header == ["time", "state", "control"]
        _, eigenstates = read_csv(out / "eigenstates.csv")
        _, eigencontrols = read_csv(out / "eigencontrols.csv")
        # match each mode to its eigh vector and sign by the coordinates of p0,
        # whose magnitudes (0.325 and 0.025) differ
        coords = vectors.T @ p0
        first = eigenstates[0, 1:]
        order = [int(np.argmin(np.abs(np.abs(coords) - abs(c)))) for c in first]
        assert sorted(order) == [0, 1]
        unit = vectors[:, order] * np.sign(first * coords[order])
        np.testing.assert_allclose(first, unit.T @ p0, rtol=0.0, atol=1e-15)
        for name, modal, column in (("states.csv", eigenstates, 1),
                                    ("controls.csv", eigencontrols, 2)):
            _, table = read_csv(out / name)
            for times in (modal[:, 0], auxiliary[:, 0]):
                np.testing.assert_array_equal(times, table[:, 0])
            rebuilt = modal[:, 1:] @ unit.T + np.outer(auxiliary[:, column], residual)
            np.testing.assert_allclose(rebuilt, table[:, 1:], rtol=0.0,
                                       atol=1e-14 * np.abs(table[:, 1:]).max())

    @pytest.mark.parametrize("step,num_steps", [(None, 1000), ("0.02", 50)])
    def test_riccati_table_defaults_to_the_simulation_grid(self, data_dir, tmp_path,
                                                           step, num_steps):
        flags = [] if step is None else ["--step", step]
        runs = {"default": [], "explicit": ["--riccati-steps", str(num_steps)]}
        for name, extra in runs.items():
            assert main(["epidemic", str(data_dir / "k22.edges"),
                         "--out", str(tmp_path / name)] + flags + extra) == 0
        _, riccati = read_csv(tmp_path / "default" / "riccati.csv")
        _, states = read_csv(tmp_path / "default" / "states.csv")
        np.testing.assert_array_equal(riccati[:, 0], states[:, 0])
        manifest = json.loads((tmp_path / "default" / "manifest.json").read_text())
        assert manifest["config"]["riccati_steps"] == num_steps
        assert tree_bytes(tmp_path / "default") == tree_bytes(tmp_path / "explicit")

    @pytest.mark.parametrize("riccati_steps", ["50", "7", "2000"])
    def test_simulations_read_the_table_on_their_grid(self, data_dir, tmp_path,
                                                      monkeypatch, riccati_steps):
        # the table holds the floats the closed form gives on the same grid, so
        # where the grids match the simulations read it and evaluate nothing more
        grids = []
        original = epidemic._riccati_values

        def counting(params, lams, t):
            grids.append(np.size(t))
            return original(params, lams, t)

        argv = ["epidemic", str(data_dir / "k22.edges"), "--step", "0.02", "--nonlinear"]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        monkeypatch.setattr(epidemic, "_riccati_values", counting)
        assert main(argv + ["--riccati-steps", riccati_steps,
                            "--out", str(tmp_path / "explicit")]) == 0
        # one table on the simulation grid, whatever grid riccati.csv asks for
        assert grids.count(51) == 1
        default, explicit = tree_bytes(tmp_path / "default"), tree_bytes(tmp_path / "explicit")
        for name in ("states.csv", "controls.csv", "eigenstates.csv", "eigencontrols.csv",
                     "auxiliary.csv", "auxiliary_residual.csv", "nonlinear_states.csv",
                     "cost.json"):
            assert explicit[name] == default[name], name

    def test_explicit_riccati_steps_size_the_table(self, data_dir, tmp_path):
        assert main(["epidemic", str(data_dir / "k22.edges"), "--step", "0.02",
                     "--riccati-steps", "7", "--out", str(tmp_path)]) == 0
        _, riccati = read_csv(tmp_path / "riccati.csv")
        np.testing.assert_array_equal(riccati[:, 0], np.linspace(0.0, 1.0, 8))
        _, states = read_csv(tmp_path / "states.csv")
        assert states.shape[0] == 51

    def test_zero_riccati_steps_exits_two(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["epidemic", str(data_dir / "k22.edges"), "--riccati-steps", "0",
                     "--out", str(out)]) == 2
        assert "num_steps must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_running_weight_rejected(self, data_dir, tmp_path):
        assert main(["epidemic", str(data_dir / "k22.edges"), "--qt", "-1",
                     "--out", str(tmp_path)] + self.ARGS) == 2


class TestSample:
    def test_writes_named_edge_list(self, tmp_path):
        assert main(["sample", "--kernel", "constant:0.5", "--num-nodes", "20",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        target = tmp_path / "sample_n20_seed3.edges"
        assert target.exists()
        from graphonctl.netio import parse_edge_list
        assert parse_edge_list(target.read_text()).num_nodes == 20

    def test_convergence_table(self, tmp_path):
        assert main(["sample", "--kernel", "constant:0.5", "--converge",
                     "--sizes", "16,32", "--num-seeds", "2",
                     "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header[:3] == ["size", "seed", "max_error"]
        assert rows.shape[0] == 4  # two sizes, two seeds
        assert set(rows[:, 0]) == {16.0, 32.0}

    def test_converge_requires_sizes(self, tmp_path):
        assert main(["sample", "--kernel", "constant:0.5", "--converge",
                     "--out", str(tmp_path)]) == 2

    def test_invalid_kernel_spec(self, tmp_path):
        assert main(["sample", "--kernel", "sinusoidal:0.9,0.5",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("num_seeds", ["0", "-2"])
    def test_num_seeds_below_one_exits_two(self, tmp_path, capsys, num_seeds):
        out = tmp_path / "out"
        assert main(["sample", "--kernel", "constant:0.5", "--converge", "--sizes", "8,12",
                     "--num-seeds", num_seeds, "--out", str(out)]) == 2
        assert f"--num-seeds must be at least 1, got {num_seeds}" in capsys.readouterr().err
        assert not out.exists()

    def test_asymmetric_kernel_file_names_no_flag(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sample", "--kernel", str(data_dir / "directed3.mtx"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "asymmetric" in err and "--symmetrize" not in err
        assert not out.exists()
        # a general file whose entries are symmetric is a kernel all the same
        general = tmp_path / "general.mtx"
        general.write_text("%%MatrixMarket matrix coordinate real general\n"
                           "3 3 4\n1 2 1\n2 1 1\n2 3 0.5\n3 2 0.5\n")
        assert main(["sample", "--kernel", str(general), "--num-nodes", "12",
                     "--out", str(out)]) == 0

    def test_undirected_kernel_file_builds_one_adjacency(self, data_dir, tmp_path, monkeypatch):
        built = []
        adjacency = netio.NetworkDataset.adjacency

        def counting(ds):
            built.append(ds)
            return adjacency(ds)

        monkeypatch.setattr(netio.NetworkDataset, "adjacency", counting)
        assert main(["sample", "--kernel", str(data_dir / "k22.edges"), "--num-nodes", "12",
                     "--out", str(tmp_path)]) == 0
        assert len(built) == 1

    @pytest.mark.filterwarnings("ignore:self-loops present")
    def test_general_kernel_file_builds_one_adjacency(self, tmp_path, monkeypatch):
        # a general file's symmetry is read from its arrays; the kernel is the one matrix
        built = []
        adjacency = netio.NetworkDataset.adjacency

        def counting(ds):
            built.append(ds)
            return adjacency(ds)

        monkeypatch.setattr(netio.NetworkDataset, "adjacency", counting)
        general = tmp_path / "general.mtx"
        general.write_text("%%MatrixMarket matrix coordinate real general\n"
                           "3 3 5\n1 2 1\n2 1 1\n2 3 0.5\n3 2 0.5\n3 3 0.25\n")
        assert main(["sample", "--kernel", str(general), "--num-nodes", "12",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1
        general.write_text("%%MatrixMarket matrix coordinate real general\n"
                           "3 3 4\n1 2 1\n2 1 1\n2 3 0.5\n3 2 0.25\n")
        assert main(["sample", "--kernel", str(general), "--num-nodes", "12",
                     "--out", str(tmp_path / "refused")]) == 2
        assert len(built) == 1

    @pytest.mark.parametrize("command", ["spectra", "approx", "gramian", "minenergy", "epidemic"])
    def test_network_subcommands_name_symmetrize(self, data_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, str(data_dir / "directed3.mtx"), "--out", str(out)]) == 2
        assert "symmetrize it (--symmetrize)" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminismAndErrors:
    def test_reruns_are_byte_identical_across_directories(self, data_dir, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        args = ["epidemic", str(data_dir / "k22.edges"),
                "--riccati-steps", "1000", "--step", "0.02"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert tree_bytes(first) == tree_bytes(second)

    @pytest.mark.parametrize("command", ["minenergy", "epidemic"])
    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_non_positive_step_exits_two(self, data_dir, tmp_path, capsys,
                                         command, step):
        assert main([command, str(data_dir / "k22.edges"), "--step", step,
                     "--out", str(tmp_path)]) == 2
        assert "step must be positive" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["gramian", "minenergy"])
    def test_overflowing_gramian_exits_three(self, data_dir, tmp_path, capsys,
                                             command):
        assert main([command, str(data_dir / "k22.edges"), "--alpha0", "400",
                     "--out", str(tmp_path)]) == 3
        assert "numeric failure: exp(800) exceeds the float range" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gramian", "minenergy"])
    def test_gramian_overflowing_through_eta_exits_three(self, data_dir, tmp_path, capsys,
                                                         command):
        out = tmp_path / "out"
        assert main([command, str(data_dir / "k22.edges"), "--b-poly", "1e200",
                     "--out", str(out)]) == 3
        assert "float range" in capsys.readouterr().err
        assert not out.exists()

    def test_riccati_weight_overflowing_through_beta0_exits_three(self, data_dir,
                                                                  tmp_path, capsys):
        # beta0^2 is inf as a float, not an OverflowError
        out = tmp_path / "out"
        assert main(["epidemic", str(data_dir / "k22.edges"), "--beta0", "1e200",
                     "--out", str(out)]) == 3
        assert "numeric failure: Riccati blow-up" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon,message", [
        ("1e-320", "steering energy is inf"),  # the Gramian is subnormal
        ("1e-200", "control norm became non-finite at t=0"),  # finite controls of 1e200
    ])
    def test_minenergy_beyond_the_float_range_exits_three(self, data_dir, tmp_path, capsys,
                                                          horizon, message):
        out = tmp_path / "out"
        assert main(["minenergy", str(data_dir / "k22.edges"), "--horizon", horizon,
                     "--out", str(out)]) == 3
        assert f"numeric failure: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_p0_length_must_match_the_network(self, data_dir, tmp_path, capsys):
        p0 = tmp_path / "p0.txt"
        p0.write_text("0.1\n0.2\n0.3\n")
        assert main(["epidemic", str(data_dir / "k22.edges"), "--p0", str(p0),
                     "--out", str(tmp_path)]) == 2
        assert "--p0 has 3 values, the network has 4 nodes" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("value", ["2.0", "-0.5"])
    def test_nonlinear_refuses_p0_outside_the_unit_interval(self, data_dir, tmp_path, capsys,
                                                            value):
        # the nonlinear model reads fractions; the linear one reads any deviation
        p0 = tmp_path / "p0.txt"
        p0.write_text(f"0.1\n{value}\n0.1\n0.1\n")
        out = tmp_path / "out"
        assert main(["epidemic", str(data_dir / "k22.edges"), "--p0", str(p0), "--nonlinear",
                     "--out", str(out)]) == 2
        assert "error: --p0 values must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()
        assert main(["epidemic", str(data_dir / "k22.edges"), "--p0", str(p0),
                     "--out", str(out)]) == 0
        np.testing.assert_allclose(read_csv(out / "states.csv")[1][0, 1:],
                                   [0.1, float(value), 0.1, 0.1], rtol=1e-12)

    @pytest.mark.parametrize("command", [["spectra"], ["approx"], ["gramian"], ["minenergy"],
                                         ["epidemic", "--nonlinear"]])
    def test_network_without_edges_runs(self, tmp_path, command):
        network = tmp_path / "empty.mtx"
        network.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n")
        out = tmp_path / "out"
        assert main([command[0], str(network), *command[1:], "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        if command == ["spectra"]:  # the zero kernel has rank 0: no mode rows
            assert (out / "approx_kernel.csv").read_text() == "mode,eigenvalue,b0,b1,b2\n"
        if command == ["gramian"]:
            assert json.loads((out / "gramian.json").read_text())["directions"] == []

    def test_x0_length_must_match_the_network(self, data_dir, tmp_path, capsys):
        # a 3-value file once ran on the 4-node network as a 12-block refinement
        x0 = tmp_path / "x0.txt"
        x0.write_text("1.0\n-0.5\n0.25\n")
        assert main(["minenergy", str(data_dir / "k22.edges"), "--x0", str(x0),
                     "--out", str(tmp_path)]) == 2
        assert "--x0 has 3 values, the network has 4 nodes" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command,flag,bad", [("epidemic", "--p0", "nan"),
                                                  ("minenergy", "--x0", "inf")])
    def test_non_finite_vector_exits_two(self, data_dir, tmp_path, capsys, recwarn,
                                         command, flag, bad):
        vector = tmp_path / "vector.txt"
        vector.write_text(f"0.1\n{bad}\n0.1\n0.1\n")
        assert main([command, str(data_dir / "k22.edges"), flag, str(vector),
                     "--out", str(tmp_path)]) == 2
        assert f"error: {vector}: non-finite value" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("spectra", "--top-fraction", "nan"),
        ("gramian", "--alpha0", "nan"),
        ("gramian", "--beta0", "inf"),
        ("gramian", "--horizon", "inf"),
        ("gramian", "--b-poly", "nan"),
        ("minenergy", "--b-poly", "0.5,-inf"),
        ("minenergy", "--step", "nan"),
        ("epidemic", "--alpha0", "-inf"),
        ("epidemic", "--beta0", "nan"),
        ("epidemic", "--eta", "nan"),
        ("epidemic", "--qt", "nan"),
        ("epidemic", "--qT", "inf"),
        ("epidemic", "--horizon", "nan"),
        ("epidemic", "--step", "inf"),
        ("sample", "--kernel", "constant:nan"),
        ("sample", "--kernel", "sinusoidal:0.5,inf"),
    ])
    def test_non_finite_number_exits_two(self, data_dir, tmp_path, capsys,
                                         command, flag, value):
        network = [] if command == "sample" else [str(data_dir / "k22.edges")]
        out = tmp_path / "out"
        try:  # --flag=value: a separate "-inf" would read as an option
            code = main([command] + network + [f"{flag}={value}", "--out", str(out)])
        except SystemExit as exc:  # argparse refuses a float flag's value itself
            code = exc.code
        assert code == 2
        bad = value.rpartition(":")[2].rpartition(",")[2]
        err = capsys.readouterr().err
        assert f"invalid finite_float value: '{bad}'" in err \
            or f"error: '{bad}' is not a finite number" in err
        assert not out.exists()

    FLOAT_ERROR = "could not convert string to float: "

    @pytest.mark.parametrize("argv,message", [
        (["epidemic", "k22.edges", "--p0", "VECTOR"], "--p0 file VECTOR: " + FLOAT_ERROR),
        (["minenergy", "k22.edges", "--x0", "VECTOR"], "--x0 file VECTOR: " + FLOAT_ERROR),
        (["gramian", "k22.edges", "--b-poly", "0.5,x"], "--b-poly: " + FLOAT_ERROR),
        (["sample", "--kernel", "constant:x"], "--kernel: " + FLOAT_ERROR),
        (["sample", "--kernel", "sinusoidal:0.5,x"], "--kernel: " + FLOAT_ERROR),
        (["sample", "--kernel", "constant:0.5", "--converge", "--sizes", "8,x"],
         "--sizes: invalid literal for int() with base 10: "),
    ], ids=["p0", "x0", "b-poly", "kernel-constant", "kernel-sinusoidal", "sizes"])
    def test_a_token_that_is_no_number_names_its_flag(self, data_dir, tmp_path, capsys,
                                                      argv, message):
        vector = tmp_path / "vector.txt"
        vector.write_text("0.1\nx\n0.1\n0.1\n")
        argv = [str(data_dir / a) if a.endswith(".edges") else a for a in argv]
        argv = [str(vector) if a == "VECTOR" else a for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        expected = "error: " + message.replace("VECTOR", str(vector)) + "'x'\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,line", [("epidemic", "--p0", "nan"),
                                                   ("minenergy", "--x0", "inf"),
                                                   ("approx", "--rank", None)],
                             ids=["epidemic-nan-p0", "minenergy-inf-x0", "approx-rank-99"])
    def test_refused_run_leaves_no_output_directory(self, data_dir, tmp_path, command,
                                                     flag, line):
        value = "99"
        if line is not None:
            value = str(tmp_path / "vector.txt")
            (tmp_path / "vector.txt").write_text(f"0.1\n{line}\n0.1\n0.1\n")
        out = tmp_path / "out"
        assert main([command, str(data_dir / "k22.edges"), flag, value,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["spectra", str(tmp_path / "nope.edges"),
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectra", "--bogus"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestImportsOnlyWhatARunUses:
    """No module of the package imports scipy at all: not at start-up, not in a
    subcommand and not in the operator exponential of either kernel family.
    The check runs in a fresh interpreter: this test session imports scipy itself."""

    SCRIPT = """
import json, sys

def check(stage):
    loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
    assert not loaded, f"{stage}: {loaded[:5]}"

import graphonctl
check("import graphonctl")
import graphonctl.cli as cli
check("import graphonctl.cli")
runs, out = json.loads(sys.argv[1]), sys.argv[2]
for k, argv in enumerate(runs):
    code = cli.main(argv + ["--out", f"{out}/{k}"])
    assert code == 0, f"{argv}: exit {code}"
    check(" ".join(argv[:1] + argv[2:]))
graphonctl.exponential(graphonctl.StepGraphon([[0.5, 0.25], [0.25, 0.5]]), 0.7)
graphonctl.exponential(graphonctl.SinusoidalGraphon(0.5, [0.3, -0.2]), 1.3)
check("exponential")
print("no scipy")
"""

    def test_no_scipy_module_is_loaded(self, data_dir, tmp_path):
        network = str(data_dir / "k22.edges")
        runs = [["spectra", network], ["approx", network],
                ["approx", network, "--fourier-order", "2"], ["gramian", network],
                ["minenergy", network], ["epidemic", network],
                ["epidemic", network, "--nonlinear"],
                ["sample", "--kernel", network, "--num-nodes", "8"]]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(runs),
                               str(tmp_path)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "no scipy"


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="the forked second writer runs only on Linux with two CPUs allowed")
class TestTwoWriters:
    """A single-threaded run allowed two CPUs writes its CSV tables in two processes.
    Each case runs in a fresh interpreter under GRAPHON_CTL_THREADS=1, since a BLAS
    thread pool (or any second thread) keeps one writer; spies record the share the
    child was given, and each fork, nonlinear run and rename in order."""

    SCRIPT = """
import json, os, sys, threading
import graphonctl.cli as cli

cpus, thread, interrupt, runs = json.loads(sys.argv[1])
if cpus:
    os.sched_setaffinity(0, cpus)
if thread:  # a second OS thread, as a BLAS thread pool would start; a daemon, so
    # an error in this script ends the interpreter instead of waiting on the thread
    threading.Thread(target=threading.Event().wait, daemon=True).start()
shares, events = [], []
fork_writer, fork, replace, simulate_nonlinear = (
    cli._fork_writer, os.fork, os.replace, cli.simulate_nonlinear)

def spy(out, artifacts, share):
    shares[-1] = share
    return fork_writer(out, artifacts, share)

def forked():
    pid = fork()
    events[-1].append("fork")
    return pid

def replaced(source, target):
    events[-1].append("replace")
    replace(source, target)

def simulated(*args):
    events[-1].append("simulate")
    if interrupt:
        raise KeyboardInterrupt
    return simulate_nonlinear(*args)

cli._fork_writer, os.fork, os.replace, cli.simulate_nonlinear = spy, forked, replaced, simulated
sys.stdout.write("buffered\\n")  # a child that flushed its copy would print it twice
results = []
for argv in runs:
    shares.append([])
    events.append([])
    try:
        code = cli.main(argv)
    except KeyboardInterrupt:
        code = "KeyboardInterrupt"
    try:
        left = os.waitpid(-1, os.WNOHANG) is not None
    except ChildProcessError:  # no child, running or unreaped
        left = False
    results.append({"code": code, "share": shares[-1], "children_left": left,
                    "events": events[-1]})
print(json.dumps(results))
"""

    @pytest.fixture(scope="class")
    def network(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sample")
        assert main(["sample", "--kernel", "constant:0.05", "--num-nodes", "200",
                     "--seed", "3", "--out", str(out)]) == 0
        return str(out / "sample_n200_seed3.edges")

    def run(self, runs, cpus=None, thread=False, interrupt=False):
        """The per-run results and the stderr of one interpreter that runs `runs`;
        with `interrupt`, simulate_nonlinear raises KeyboardInterrupt."""
        env = dict(os.environ, GRAPHON_CTL_THREADS="1",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT,
                               json.dumps([cpus, thread, interrupt, runs])],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        buffered, results = done.stdout.splitlines()
        assert buffered == "buffered"
        results = json.loads(results)
        assert not any(r["children_left"] for r in results)
        return results, done.stderr

    def one_cpu(self):
        return [min(os.sched_getaffinity(0))]

    def test_artifacts_match_a_run_pinned_to_one_cpu(self, network, tmp_path):
        commands = {"spectra": ["spectra", network],
                    "spectra-all-modes": ["spectra", network, "--top-fraction", "1"],
                    "epidemic": ["epidemic", network, "--nonlinear"],
                    "minenergy": ["minenergy", network]}
        runs = {route: [argv + ["--out", str(tmp_path / route / name)]
                        for name, argv in commands.items()]
                for route in ("two", "pinned")}
        two, two_err = self.run(runs["two"])
        pinned, pinned_err = self.run(runs["pinned"], cpus=self.one_cpu())
        assert two_err == pinned_err
        assert [r["code"] for r in two + pinned] == [0] * 8
        # a second share under 2**14 cells stays with the parent: 20 of 200 modes and
        # 200 eigenvalues beside the 200x200 kernel, and minenergy's one table
        assert [bool(r["share"]) for r in two] == [False, True, True, False]
        assert not any(r["share"] for r in pinned)
        for name in commands:
            written = tree_bytes(tmp_path / "two" / name)
            assert "manifest.json" in written
            assert written == tree_bytes(tmp_path / "pinned" / name), name

    def test_child_failure_ends_as_with_one_writer(self, network, tmp_path):
        argv = ["epidemic", network, "--nonlinear", "--out"]
        (probe,), _ = self.run([argv + [str(tmp_path / "probe")]])
        target = probe["share"][0]  # a table the child writes
        for route in ("two", "pinned"):
            (tmp_path / route / target).mkdir(parents=True)
        two, two_err = self.run([argv + [str(tmp_path / "two")]])
        pinned, pinned_err = self.run([argv + [str(tmp_path / "pinned")]], cpus=self.one_cpu())
        assert two[0]["share"] == probe["share"] and not pinned[0]["share"]
        assert two[0]["code"] == pinned[0]["code"] == 2
        assert two_err.replace("/two/", "/pinned/") == pinned_err
        assert pinned_err.count("\n") == 1 and "Is a directory" in pinned_err
        for route in ("two", "pinned"):
            names = {p.name for p in (tmp_path / route).iterdir()}
            assert "manifest.json" not in names
            assert not [name for name in names if name.endswith(".tmp")]

    def test_a_second_thread_keeps_one_writer(self, network, tmp_path):
        results, err = self.run([["epidemic", network, "--nonlinear",
                                  "--out", str(tmp_path / "threaded")]], thread=True)
        assert results == [{"code": 0, "share": [], "children_left": False,
                            "events": ["simulate"] + ["replace"] * 10}]
        assert (tmp_path / "threaded" / "manifest.json").exists()

    def test_linear_tables_are_written_while_the_nonlinear_model_runs(self, network,
                                                                     tmp_path):
        # the seven linear tables are final before simulate_nonlinear starts, so the
        # child takes all of them, forked before it; a run without --nonlinear deals
        # its tables largest first between the two writers
        (staged, linear), _ = self.run([
            ["epidemic", network, "--nonlinear", "--out", str(tmp_path / "staged")],
            ["epidemic", network, "--out", str(tmp_path / "linear")]])
        tables = ["riccati.csv", "states.csv", "controls.csv", "eigenstates.csv",
                  "eigencontrols.csv", "auxiliary.csv", "auxiliary_residual.csv"]
        assert staged["code"] == linear["code"] == 0
        assert staged["share"] == tables
        # and every file is renamed into place after the nonlinear run
        assert staged["events"] == ["fork", "simulate"] + ["replace"] * 10
        assert linear["events"] == ["fork"] + ["replace"] * 9
        assert 0 < len(linear["share"]) < len(tables)
        assert {name for name in tree_bytes(tmp_path / "staged")} == {
            *tables, "nonlinear_states.csv", "cost.json", "manifest.json"}

    def test_a_failed_write_leaves_the_directory_as_it_was(self, network, tmp_path):
        # a directory at controls.csv.tmp fails that table's write, in the child that
        # takes the linear tables or, pinned, in this process; an earlier run's files
        # keep their bytes either way
        errors = {}
        for route, cpus in (("two", None), ("pinned", self.one_cpu())):
            out = tmp_path / route
            assert main(["epidemic", network, "--eta", "1", "--out", str(out)]) == 0
            (out / "controls.csv.tmp").mkdir()
            before = {p.name: p.is_dir() or p.read_bytes() for p in sorted(out.iterdir())}
            results, errors[route] = self.run(
                [["epidemic", network, "--nonlinear", "--out", str(out)]], cpus)
            assert [r["code"] for r in results] == [2]
            assert bool(results[0]["share"]) == (route == "two")
            assert "replace" not in results[0]["events"]
            assert {p.name: p.is_dir() or p.read_bytes() for p in sorted(out.iterdir())} == before
        assert errors["two"].replace("/two/", "/pinned/") == errors["pinned"]
        assert errors["pinned"] == (f"error: [Errno 21] Is a directory: "
                                    f"'{tmp_path / 'pinned' / 'controls.csv.tmp'}'\n")

    @pytest.fixture(scope="class")
    def bipartite(self, tmp_path_factory):
        """Complete bipartite K(100, 100), on which a recovery rate of -500 drives the
        nonlinear state out of the float range at t = 0.118."""
        path = tmp_path_factory.mktemp("bipartite") / "k100_100.edges"
        path.write_text("".join(f"{i} {j}\n" for i in range(1, 101) for j in range(101, 201)))
        return str(path)

    def test_a_failure_after_the_fork_writes_nothing(self, bipartite, tmp_path):
        failing = ["epidemic", bipartite, "--alpha0", "-500", "--qt", "0", "--qT", "0",
                   "--nonlinear", "--out"]
        errors = {}
        for route, cpus in (("two", None), ("pinned", self.one_cpu())):
            root = tmp_path / route
            # an earlier run's files, none of them the bytes the failing run computes
            assert main(["epidemic", bipartite, "--out", str(root / "old")]) == 0
            before = tree_bytes(root / "old")
            results, errors[route] = self.run(
                [failing + [str(root / "a" / "b")], failing + [str(root / "old")]], cpus)
            assert [r["code"] for r in results] == [3, 3]
            assert [bool(r["share"]) for r in results] == [route == "two"] * 2
            assert [r["events"][0] for r in results] == [
                "fork" if route == "two" else "simulate"] * 2
            assert sorted(p.name for p in root.iterdir()) == ["old"]
            assert tree_bytes(root / "old") == before
        assert errors["two"] == errors["pinned"]
        assert errors["two"] == "numeric failure: state became non-finite at t=0.118\n" * 2

    def test_an_interrupt_after_the_fork_writes_nothing(self, network, tmp_path):
        for route, cpus in (("two", None), ("pinned", self.one_cpu())):
            out = tmp_path / route / "a" / "b"
            results, _ = self.run([["epidemic", network, "--nonlinear", "--out", str(out)]],
                                  cpus, interrupt=True)
            assert [r["code"] for r in results] == ["KeyboardInterrupt"]
            assert bool(results[0]["share"]) == (route == "two")
            assert not (tmp_path / route / "a").exists()
