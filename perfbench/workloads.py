"""Seeded benchmark inputs and the graphonctl command sequence of each workload.

Every input is generated here from the workload seed, before any timing, and
written into the run's work directory.  The program only ever sees the files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

import checks

# Sizes are chosen so one pass over a workload's sequence takes a few seconds
# on a 2-core machine; "tiny" is the self-test scale.
SIZES = {
    "full": {"dense": (600, 0.05), "modal": (12, 0.4), "fourier": (10, 0.4),
             "lowrank": 180, "coverage": (10, 0.4)},
    "tiny": {"dense": (60, 0.2), "modal": (6, 0.6), "fourier": (5, 0.7),
             "lowrank": 40, "coverage": (6, 0.6)},
}

# eta * n stays fixed on the multipartite graph, so its dynamics do not change
# with n; at the CLI default eta the zero-control cost overflows.
LOWRANK_ETA_TOTAL = 6.0
SAMPLE_KERNEL = ("sinusoidal:0.5,0.3", 0.5)  # spec and its mean edge probability


@dataclass
class Network:
    """A generated input file and the dense adjacency it encodes."""

    path: Path
    adjacency: np.ndarray

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Adjacency eigenvalues, descending, from an independent eigvalsh."""
        return np.linalg.eigvalsh(self.adjacency)[::-1]


@dataclass
class Step:
    """One `graphonctl.cli.main` call: its metric label, argv and output check."""

    label: str
    argv: list
    check: object  # callable(out_dir) -> list of problems


def _gnp_adjacency(rng, n: int, p: float) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adjacency = (upper | upper.T).astype(float)
    if not adjacency[n - 1].any():
        # the edge-list parser infers n from the largest index, so the last
        # node must appear in some edge
        adjacency[0, n - 1] = adjacency[n - 1, 0] = 1.0
    return adjacency


def _full_rank_gnp(rng, n: int, p: float) -> np.ndarray:
    """G(n, p) redrawn until every eigenvalue is clearly nonzero (rank r = n)."""
    for _ in range(10_000):
        adjacency = _gnp_adjacency(rng, n, p)
        magnitudes = np.abs(np.linalg.eigvalsh(adjacency))
        if magnitudes.min() > 1e-6 * magnitudes.max():
            return adjacency
    raise RuntimeError(f"no full-rank G({n}, {p}) draw found")


def write_edge_list(path: Path, adjacency: np.ndarray) -> Network:
    """1-based "i j" lines, one per undirected edge."""
    rows, cols = np.nonzero(np.triu(adjacency, k=1))
    lines = [f"# benchmark graph: {adjacency.shape[0]} nodes, {rows.size} edges"]
    lines.extend(f"{i} {j}" for i, j in zip(rows + 1, cols + 1))
    path.write_text("\n".join(lines) + "\n")
    return Network(path, adjacency)


def write_multipartite(path: Path, rng, n: int) -> Network:
    """Complete 4-partite graph with part sizes 1:2:3:4, labels and entry order
    shuffled by the seed, as a symmetric MatrixMarket file (lower triangle)."""
    sizes = [n * k // 10 for k in (1, 2, 3, 4)]
    sizes[-1] += n - sum(sizes)
    part = rng.permutation(np.repeat(np.arange(4), sizes))
    adjacency = (part[:, None] != part[None, :]).astype(float)
    rows, cols = np.nonzero(np.tril(adjacency, k=-1))
    order = rng.permutation(rows.size)
    lines = ["%%MatrixMarket matrix coordinate real symmetric",
             f"{n} {n} {rows.size}"]
    lines.extend(f"{i} {j} 1" for i, j in zip(rows[order] + 1, cols[order] + 1))
    path.write_text("\n".join(lines) + "\n")
    return Network(path, adjacency)


def _epidemic_step(net: Network, extra: list, eta: float) -> Step:
    argv = ["epidemic", str(net.path), "--eta", repr(eta)] + extra
    return Step("epidemic", argv, partial(checks.epidemic, net=net, eta=eta))


def _approx_step(net: Network, fourier_order: int | None = None) -> Step:
    if fourier_order is None:
        return Step("approx", ["approx", str(net.path)],
                    partial(checks.truncation_curve, net=net))
    return Step("fourier", ["approx", str(net.path), "--fourier-order",
                            str(fourier_order)],
                partial(checks.fourier, net=net))


def dense_report(work: Path, rng, sizes: dict, seed: int) -> list:
    n, p = sizes["dense"]
    net = write_edge_list(work / "dense.edges", _gnp_adjacency(rng, n, p))
    kernel, mean = SAMPLE_KERNEL
    return [
        Step("spectra", ["spectra", str(net.path)], partial(checks.spectra, net=net)),
        _approx_step(net),
        Step("gramian", ["gramian", str(net.path)], partial(checks.gramian, net=net)),
        Step("sample", ["sample", "--kernel", kernel, "--num-nodes", str(n),
                        "--seed", str(seed)],
             partial(checks.sample, num_nodes=n, seed=seed, mean=mean)),
    ]


def modal_control(work: Path, rng, sizes: dict, seed: int) -> list:
    net = write_edge_list(work / "modal.edges", _full_rank_gnp(rng, *sizes["modal"]))
    small = write_edge_list(work / "fourier.edges",
                            _full_rank_gnp(rng, *sizes["fourier"]))
    return [
        Step("minenergy", ["minenergy", str(net.path)],
             partial(checks.minenergy, net=net)),
        _epidemic_step(net, [], 1.5),
        _approx_step(small, fourier_order=4),
    ]


def lowrank_epidemic(work: Path, rng, sizes: dict, seed: int) -> list:
    n = sizes["lowrank"]
    net = write_multipartite(work / "lowrank.mtx", rng, n)
    return [
        _epidemic_step(net, ["--nonlinear"], LOWRANK_ETA_TOTAL / n),
        Step("minenergy", ["minenergy", str(net.path)],
             partial(checks.minenergy, net=net)),
    ]


def coverage(work: Path, rng, sizes: dict, seed: int) -> list:
    """Every subcommand once on a tiny graph, so each layer metric is measured
    on every workload.  Runs only in trace runs, never in end-to-end reps."""
    n, p = sizes["coverage"]
    net = write_edge_list(work / "coverage.edges", _full_rank_gnp(rng, n, p))
    return [
        Step("spectra", ["spectra", str(net.path)], partial(checks.spectra, net=net)),
        _approx_step(net),
        _approx_step(net, fourier_order=1),
        Step("gramian", ["gramian", str(net.path)], partial(checks.gramian, net=net)),
        Step("minenergy", ["minenergy", str(net.path), "--step", "0.01"],
             partial(checks.minenergy, net=net)),
        _epidemic_step(net, ["--step", "0.01", "--riccati-steps", "2000",
                             "--nonlinear"], 0.5),
        Step("sample", ["sample", "--kernel", str(net.path), "--num-nodes", str(n),
                        "--seed", str(seed)],
             partial(checks.sample, num_nodes=n, seed=seed,
                     mean=float(net.adjacency.mean()))),
    ]


WORKLOADS = {
    "dense-report": dense_report,
    "modal-control": modal_control,
    "lowrank-epidemic": lowrank_epidemic,
}


def build(name: str, seed: int, work: Path, scale: str = "full"):
    """Write the inputs of workload `name` and return (main steps, coverage steps)."""
    sizes = SIZES[scale]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    main = WORKLOADS[name](work, rng, sizes, seed)
    return main, coverage(work, np.random.default_rng([seed, 99]), sizes, seed)
