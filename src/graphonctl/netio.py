"""Network data ingestion, graph sampling from kernels, and spectral reports.

Datasets stay in sparse edge-list form until a pixel-picture step graphon or a
dense adjacency is requested.  Sampling uses the exchangeable-graph generative
model: i.i.d. uniform latents per node, then independent edges with kernel
probabilities.  All randomness flows through numpy's seeded default generator
(PCG64), which is stable across platforms for a fixed 64-bit seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .graphons import Graphon, SinusoidalGraphon, StepGraphon
from .spectral import _nonzero_ordered


@dataclass(frozen=True, eq=False)
class NetworkDataset:
    """Weighted graph as an edge list with 0-based node indices.

    Undirected datasets list each edge once (either orientation); directed
    ones are taken literally.  Self-loops are kept and only flagged when a
    kernel is built.
    """

    num_nodes: int
    edges: tuple  # of (i: int, j: int, weight: float)
    name: str = ""
    source: str = ""
    directed: bool = False

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        for i, j, _ in self.edges:
            if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
                raise ValueError(f"edge ({i}, {j}) outside 0..{self.num_nodes - 1}")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def has_self_loops(self) -> bool:
        return any(i == j for i, j, _ in self.edges)

    def adjacency(self) -> np.ndarray:
        """Dense weight matrix; undirected edges fill both orientations."""
        mat = np.zeros((self.num_nodes, self.num_nodes))
        for i, j, weight in self.edges:
            mat[i, j] = weight
            if not self.directed:
                mat[j, i] = weight
        return mat

    def symmetrized(self) -> "NetworkDataset":
        """Undirected copy keeping the larger-magnitude orientation of each node
        pair (the i -> j weight, i < j, on a tie); an undirected dataset is its own."""
        if not self.directed:
            return self
        mat = self.adjacency()
        mat = np.triu(np.where(np.abs(mat) >= np.abs(mat.T), mat, mat.T))
        edges = tuple((int(i), int(j), float(mat[i, j])) for i, j in zip(*np.nonzero(mat)))
        return NetworkDataset(self.num_nodes, edges, self.name, self.source)

    def degree_sorted(self) -> "NetworkDataset":
        """Relabel nodes by descending weighted degree (ties keep input order)."""
        mat = np.abs(self.adjacency())
        degrees = mat.sum(axis=0) + mat.sum(axis=1)
        order = np.argsort(-degrees, kind="stable")
        relabel = np.empty(self.num_nodes, dtype=int)
        relabel[order] = np.arange(self.num_nodes)
        edges = tuple((int(relabel[i]), int(relabel[j]), w) for i, j, w in self.edges)
        return NetworkDataset(self.num_nodes, edges, self.name, self.source,
                              self.directed)


def _decoded(data) -> str:
    return data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data


def parse_edge_list(data, name: str = "") -> NetworkDataset:
    """Whitespace-separated "i j [weight]" lines; '%' and '#' start comments.

    Indexing base is auto-detected from the minimum index (1-based when no 0
    appears); missing weights default to 1.0.  Negative weights are legal for
    signed kernels and only warned about.
    """
    raw_edges = []
    for lineno, line in enumerate(_decoded(data).splitlines(), start=1):
        text = line.strip()
        if not text or text[0] in "%#":
            continue
        fields = text.split()
        if len(fields) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'i j [weight]', got {text!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
            weight = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if i < 0 or j < 0:
            raise ParseError(f"line {lineno}: negative node index")
        if not math.isfinite(weight):
            raise ParseError(f"line {lineno}: non-finite weight")
        raw_edges.append((i, j, weight))
    if not raw_edges:
        raise ParseError("no edges found in input")
    base = min(min(i, j) for i, j, _ in raw_edges)
    base = 1 if base >= 1 else 0
    edges = tuple((i - base, j - base, w) for i, j, w in raw_edges)
    if any(w < 0.0 for _, _, w in edges):
        warnings.warn("negative edge weights present; kernel will be signed")
    num_nodes = 1 + max(max(i, j) for i, j, _ in edges)
    return NetworkDataset(num_nodes, edges, name=name, source="edge-list")


def parse_matrix_market(data, name: str = "") -> NetworkDataset:
    """MatrixMarket coordinate format, real/integer/pattern, general/symmetric.

    Indices are 1-based by definition of the format.  Dense 'array' files and
    complex/skew symmetries are rejected as unsupported.
    """
    lines = _decoded(data).splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket banner")
    banner = lines[0].split()
    if len(banner) != 5 or banner[1].lower() != "matrix":
        raise ParseError(f"malformed banner: {lines[0]!r}")
    layout, field, symmetry = (token.lower() for token in banner[2:5])
    if layout == "array":
        raise ParseError("dense 'array' layout is not supported; use coordinate")
    if layout != "coordinate":
        raise ParseError(f"unsupported layout {layout!r}")
    if field not in ("real", "integer", "pattern"):
        raise ParseError(f"unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}")

    body = [(n, ln.strip()) for n, ln in enumerate(lines[1:], start=2)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ParseError("missing size line")
    size_fields = body[0][1].split()
    if len(size_fields) != 3:
        raise ParseError(f"line {body[0][0]}: expected 'rows cols nnz'")
    try:
        rows, cols, nnz = (int(fld) for fld in size_fields)
    except ValueError:
        raise ParseError(f"line {body[0][0]}: non-integer size entry") from None
    if rows != cols:
        raise ParseError(f"adjacency must be square, got {rows}x{cols}")
    if len(body) - 1 != nnz:
        raise ParseError(f"entry count {len(body) - 1} does not match header {nnz}")

    expected = 2 if field == "pattern" else 3
    edges = []
    for lineno, text in body[1:]:
        fields = text.split()
        if len(fields) != expected:
            raise ParseError(f"line {lineno}: expected {expected} fields")
        try:
            i, j = int(fields[0]), int(fields[1])
            weight = float(fields[2]) if expected == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise ParseError(f"line {lineno}: index ({i}, {j}) outside 1..{rows}")
        edges.append((i - 1, j - 1, weight))
    if any(w < 0.0 for _, _, w in edges):
        warnings.warn("negative edge weights present; kernel will be signed")
    return NetworkDataset(rows, tuple(edges), name=name, source="matrix-market",
                          directed=(symmetry == "general"))


def to_step_graphon(dataset: NetworkDataset, normalize: str = "max-abs",
                    symmetrize: bool = False,
                    adjacency: np.ndarray | None = None) -> StepGraphon:
    """Pixel picture of the dataset: block (i, j) carries the edge weight.

    normalize="max-abs" divides by the largest magnitude so values land in
    [-1, 1]; "none" keeps raw weights (unvalidated kernel, e.g. for stability
    thresholds on raw adjacencies).  Asymmetric data needs `symmetrize`, which
    reads `dataset.symmetrized()`.  `adjacency` is the matrix these would
    build, when the caller has built it already.
    """
    mat = ((dataset.symmetrized() if symmetrize else dataset).adjacency()
           if adjacency is None else adjacency)
    if not np.array_equal(mat, mat.T):
        raise ValueError("dataset is asymmetric; pass symmetrize=True")
    if np.trace(np.abs(mat)) > 0.0:
        warnings.warn("self-loops present: diagonal is nonzero and so is the trace")
    if normalize == "max-abs":
        peak = np.abs(mat).max()
        if peak > 0.0:
            mat = mat / peak
        return StepGraphon(mat)
    if normalize == "none":
        return StepGraphon(mat, validate=False)
    raise ValueError(f"unknown normalization {normalize!r}; "
                     "expected 'max-abs' or 'none'")


def _probability_check(graphon: Graphon):
    if isinstance(graphon, StepGraphon):
        if graphon.probability_kernel:
            return
    elif isinstance(graphon, SinusoidalGraphon):
        # the kernel range is [a0 - sum|b_k|, a0 + sum|b_k|]
        spread = np.abs(graphon.cosine_coeffs).sum()
        if graphon.constant - spread >= -1e-12 and graphon.constant + spread <= 1.0 + 1e-12:
            return
    raise ValueError("kernel takes values outside [0, 1]; cannot be used "
                     "as an edge-probability model")


def sample_graph(graphon: Graphon, num_nodes: int, seed: int) -> NetworkDataset:
    """Draw an exchangeable random graph: uniform latents, independent edges.

    Node i receives latent u_i ~ U[0,1]; edge (i, j), i < j, appears with
    probability kernel(u_i, u_j).  No self-loops.  The draw order (latents
    first, then one uniform matrix) is part of the determinism contract.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    _probability_check(graphon)
    rng = np.random.default_rng(seed)
    latents = rng.random(num_nodes)
    thresholds = rng.random((num_nodes, num_nodes))
    probs = graphon.value(latents[:, None], latents[None, :])
    upper_i, upper_j = np.triu_indices(num_nodes, k=1)
    present = thresholds[upper_i, upper_j] < np.asarray(probs)[upper_i, upper_j]
    edges = tuple((int(i), int(j), 1.0)
                  for i, j in zip(upper_i[present], upper_j[present]))
    return NetworkDataset(num_nodes, edges, name=f"sample_n{num_nodes}_seed{seed}",
                          source="sample")


def write_edge_list(dataset: NetworkDataset) -> str:
    """Serialize as 1-based "i j weight" lines (stable, round-trippable)."""
    lines = [f"# {dataset.name or 'network'}: {dataset.num_nodes} nodes, "
             f"{dataset.num_edges} edges"]
    for i, j, weight in dataset.edges:
        lines.append(f"{i + 1} {j + 1} {weight:.17g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Eigenvalue summary of a network: spectrum, |eigenvalue| histogram,
    trace, and the L2 error of keeping only the top fraction of directions."""

    name: str
    num_nodes: int
    eigenvalues: np.ndarray  # descending by value
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    trace: float
    top_k: int
    truncation_error: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.num_nodes,
            "eigenvalues": self.eigenvalues.tolist(),
            "histogram": {
                "edges": self.histogram_edges.tolist(),
                "counts": self.histogram_counts.tolist(),
            },
            "trace": self.trace,
            "top_k": self.top_k,
            "truncation_error": self.truncation_error,
        }


def spectral_report(dataset: NetworkDataset, top_fraction: float = 0.10,
                    bins: int = 50, adjacency: np.ndarray | None = None) -> SpectralReport:
    """Adjacency spectrum with a histogram of magnitudes and a top-k error.

    The truncation error is the closed-form L2 error of keeping the top
    ceil(top_fraction * N) eigendirections of the max-abs-normalized pixel
    graphon (capped at its nonzero rank).  That graphon's eigenvalues are the
    adjacency's divided by N * max|a_ij|, so its tail is read off the same
    spectrum, zeros dropped and ordered as `decompose` orders them.
    `adjacency` is `dataset.adjacency()` when the caller has built it already.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must be in (0, 1]")
    mat = dataset.adjacency() if adjacency is None else adjacency
    if not np.array_equal(mat, mat.T):
        raise ValueError("spectral report requires a symmetric dataset")
    values = np.linalg.eigvalsh(mat)[::-1]
    magnitudes = np.abs(values)
    peak = float(magnitudes.max())
    counts, edges = np.histogram(magnitudes, bins=bins,
                                 range=(0.0, peak if peak > 0.0 else 1.0))
    top_k = math.ceil(top_fraction * dataset.num_nodes)
    lam = values / (dataset.num_nodes * (np.abs(mat).max() or 1.0))
    error = np.sqrt(np.sum(lam[_nonzero_ordered(lam)][top_k:] ** 2))
    return SpectralReport(dataset.name, dataset.num_nodes, values, edges, counts,
                          float(values.sum()), top_k, float(error))
