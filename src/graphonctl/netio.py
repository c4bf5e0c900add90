"""Network data ingestion, graph sampling from kernels, and spectral reports.

A dataset is three arrays, one entry per edge line, until a pixel-picture step
graphon or a dense adjacency is requested.  Sampling uses the exchangeable-graph
generative model: i.i.d. uniform latents per node, then independent edges with
kernel probabilities.  All randomness flows through numpy's seeded default
generator (PCG64), which is stable across platforms for a fixed 64-bit seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .functions import _readonly_vector
from .graphons import Graphon, StepGraphon
from .spectral import _nonzero_ordered


@dataclass(frozen=True, eq=False)
class NetworkDataset:
    """Weighted graph as read-only edge arrays with 0-based node indices.

    Undirected datasets list each edge once (either orientation); directed
    ones are taken literally, and the last entry of a repeated pair sets its
    weight.  Self-loops are kept and only flagged when a kernel is built.
    """

    num_nodes: int
    rows: np.ndarray  # int64
    cols: np.ndarray  # int64
    weights: np.ndarray  # float64
    name: str = ""
    source: str = ""
    directed: bool = False

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        for field, dtype in (("rows", np.int64), ("cols", np.int64), ("weights", float)):
            object.__setattr__(self, field, _readonly_vector(getattr(self, field), dtype))
        if not self.rows.shape == self.cols.shape == self.weights.shape == (self.num_edges,):
            raise ValueError("rows, cols and weights must be vectors of one length")
        # four reductions settle the in-range case with no per-edge temporaries
        if self.num_edges and (min(self.rows.min(), self.cols.min()) < 0
                               or max(self.rows.max(), self.cols.max()) >= self.num_nodes):
            outside = ((np.minimum(self.rows, self.cols) < 0)
                       | (np.maximum(self.rows, self.cols) >= self.num_nodes))
            at = np.argmax(outside)
            raise ValueError(f"edge ({self.rows[at]}, {self.cols[at]}) "
                             f"outside 0..{self.num_nodes - 1}")

    @property
    def num_edges(self) -> int:
        return self.weights.size

    def adjacency(self) -> np.ndarray:
        """Dense weight matrix; undirected edges fill both orientations."""
        mat = np.zeros((self.num_nodes, self.num_nodes))
        rows, cols = self.rows, self.cols
        if not self.directed:  # an undirected pair as (lower, higher) node
            rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        # numpy leaves the winner among repeated targets unspecified, but ufunc.at
        # takes every entry in turn: each pair keeps the number of its last entry
        order = np.arange(1.0, self.num_edges + 1)
        np.maximum.at(mat, (rows, cols), order)
        latest = mat[rows, cols] == order
        mat[rows[latest], cols[latest]] = self.weights[latest]
        if not self.directed:
            mat[cols[latest], rows[latest]] = self.weights[latest]
        return mat

    def _last_entries(self, low: np.ndarray, high: np.ndarray, back: np.ndarray) -> tuple:
        """(order, pair, last) over the entries sorted by (low, high, back), file order
        kept within each: the sorting index, the first entry of each pair {low, high}
        and the last entry of each (low, high, back) triple, the one `adjacency` keeps."""
        order = np.lexsort((back, high, low))  # stable: file order within an ordered pair
        low, high, back = low[order], high[order], back[order]
        pair = np.ones(low.size, dtype=bool)
        pair[1:] = (low[1:] != low[:-1]) | (high[1:] != high[:-1])
        last = np.ones(low.size, dtype=bool)
        last[:-1] = pair[1:] | (back[1:] != back[:-1])
        return order, pair, last

    def _pair_weights(self) -> tuple:
        """(low, high, forward, backward), one entry per node pair low <= high: the
        weights that `adjacency` puts at (low, high) and at (high, low), 0 when no
        entry sets them.  A self-loop counts as a backward entry."""
        low, high = np.minimum(self.rows, self.cols), np.maximum(self.rows, self.cols)
        back = self.rows >= self.cols
        order, pair, last = self._last_entries(low, high, back)
        back, weights = back[order], self.weights[order]
        index = np.cumsum(pair) - 1
        forward, backward = np.zeros((2, np.count_nonzero(pair)))
        forward[index[last & ~back]] = weights[last & ~back]
        backward[index[last & back]] = weights[last & back]
        return low[order][pair], high[order][pair], forward, backward

    def is_symmetric(self) -> bool:
        """Whether `adjacency` equals its transpose, read from the arrays: undirected
        data always does, directed data when each pair's two weights are equal."""
        if not self.directed:
            return True
        low, high, forward, backward = self._pair_weights()
        return bool(((forward == backward) | (low == high)).all())

    def symmetrized(self) -> "NetworkDataset":
        """Undirected copy keeping the larger-magnitude orientation of each node
        pair (the i -> j weight, i < j, on a tie); an undirected dataset is its own."""
        if not self.directed:
            return self
        # the arrays, with no dense matrix; a self-loop meets a forward |0| as the
        # dense `where` over a matrix and its transpose would
        low, high, forward, backward = self._pair_weights()
        kept = np.where(np.abs(forward) >= np.abs(backward), forward, backward)
        nonzero = kept != 0.0
        return NetworkDataset(self.num_nodes, low[nonzero], high[nonzero],
                              kept[nonzero], self.name, self.source)

    def degree_sorted(self) -> "NetworkDataset":
        """Relabel nodes by descending weighted degree (ties keep input order).

        The degree of a node is the exactly rounded sum (`math.fsum`), from the
        arrays, of |weight| over its row and column of `adjacency`: each pair's
        last entry once at each end, twice for an undirected edge (both
        orientations).  Equal multisets of terms tie, whatever their file order."""
        low, high = self.rows, self.cols
        if not self.directed:
            low, high = np.minimum(low, high), np.maximum(low, high)
        order, _, last = self._last_entries(low, high, np.zeros(low.size, dtype=bool))
        kept = order[last]
        weights = np.abs(self.weights[kept])
        if not self.directed:
            weights = np.where(low[kept] == high[kept], weights, 2.0 * weights)
        ends = np.r_[low[kept], high[kept]]
        terms = np.split(np.r_[weights, weights][np.argsort(ends)],
                         np.cumsum(np.bincount(ends, minlength=self.num_nodes))[:-1])
        degrees = np.array([_exact_sum(t) for t in terms])
        relabel = np.argsort(np.argsort(-degrees, kind="stable"))  # the order's inverse
        return NetworkDataset(self.num_nodes, relabel[self.rows], relabel[self.cols],
                              self.weights, self.name, self.source, self.directed)


def _exact_sum(terms: np.ndarray) -> float:
    """The exactly rounded sum of nonnegative terms, inf beyond the float range."""
    try:
        return math.fsum(terms.tolist())
    except OverflowError:  # fsum raises where the rounded sum is inf
        return math.inf


def _lines(data, comments: str) -> tuple:
    """Lines of a text or UTF-8 bytes, and the 1-based numbers of those not blank or comments."""
    lines = (data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data).splitlines()
    return lines, [n for n, ln in enumerate(lines, start=1)
                   if ln.strip() and ln.lstrip()[0] not in comments]


def _tokenize(lines: list, numbers: list, widths: tuple, usage: str, low: int, high,
              outside: str) -> tuple:
    """int64 rows and cols and float64 weights (1.0 when absent) of the lines `numbers`.
    Each needs a field count in `widths` (else `usage`), indices in low..high (else
    `outside`, naming {i} and {j}) and below 2**63, and a finite weight, or it raises.

    The lines are converted first and the rules checked on the arrays; only when some
    line fails are they walked again in file order, so the first bad one is named."""
    rows, cols, weights = [], [], []
    try:
        for lineno in numbers:
            fields = lines[lineno - 1].split()
            if len(fields) not in widths:
                raise ValueError
            rows.append(int(fields[0]))
            cols.append(int(fields[1]))
            weights.append(float(fields[2]) if len(fields) == 3 else 1.0)
        # an index beyond int64 raises OverflowError here
        rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
        weights = np.array(weights, dtype=float)
        broken = ((np.minimum(rows, cols) < low) | (np.maximum(rows, cols) > high)
                  | ~np.isfinite(weights)).any()
    except (ValueError, OverflowError):
        broken = True
    if broken:
        table = np.array(list(_checked_entries(lines, numbers, widths, usage, low, high,
                                               outside)),
                         dtype=[("i", np.int64), ("j", np.int64), ("w", float)])
        rows, cols, weights = table["i"], table["j"], table["w"]
    if (weights < 0.0).any():
        warnings.warn("negative edge weights present; kernel will be signed")
    return rows, cols, weights


def _checked_entries(lines: list, numbers: list, widths: tuple, usage: str, low: int, high,
                     outside: str):
    """`_tokenize`'s (i, j, weight) entries one line at a time, in file order, raising
    ParseError at the first line that breaks a rule."""
    for lineno in numbers:
        fields = lines[lineno - 1].split()
        try:  # every rule a line breaks lands in the except clause
            if len(fields) not in widths:
                raise ValueError(usage.format(lines[lineno - 1].strip()))
            i, j = int(fields[0]), int(fields[1])
            weight = float(fields[2]) if len(fields) == 3 else 1.0
            if not (low <= i <= high and low <= j <= high):
                raise ValueError(outside.format(i=i, j=j))
            problem = "" if math.isfinite(weight) else "non-finite weight"
            if problem or i >= 2**63 or j >= 2**63:
                raise ValueError(problem or "node index beyond int64")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        yield i, j, weight


def parse_edge_list(data, name: str = "") -> NetworkDataset:
    """Whitespace-separated "i j [weight]" lines; '%' and '#' start comments.

    Indexing base is auto-detected from the minimum index (1-based when no 0
    appears); missing weights default to 1.0.  Negative weights are legal for
    signed kernels and only warned about; non-finite ones are rejected.
    """
    lines, body = _lines(data, "%#")
    if not body:
        raise ParseError("no edges found in input")
    rows, cols, weights = _tokenize(lines, body, (2, 3), "expected 'i j [weight]', got {!r}",
                                    0, math.inf, "negative node index")
    base = 1 if min(rows.min(), cols.min()) >= 1 else 0
    return NetworkDataset(1 + int(max(rows.max(), cols.max())) - base, rows - base,
                          cols - base, weights, name=name, source="edge-list")


def parse_matrix_market(data, name: str = "") -> NetworkDataset:
    """MatrixMarket coordinate format, real/integer/pattern, general/symmetric.

    Indices are 1-based by definition of the format, and weights finite.  Dense
    'array' files and complex/skew symmetries are rejected as unsupported.
    """
    lines, body = _lines(data, "%")  # the banner is a comment line too
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

    if not body:
        raise ParseError("missing size line")
    size_fields = lines[body[0] - 1].split()
    if len(size_fields) != 3:
        raise ParseError(f"line {body[0]}: expected 'rows cols nnz'")
    try:
        size, num_cols, nnz = (int(fld) for fld in size_fields)
    except ValueError:
        raise ParseError(f"line {body[0]}: non-integer size entry") from None
    if size != num_cols:
        raise ParseError(f"adjacency must be square, got {size}x{num_cols}")
    if len(body) - 1 != nnz:
        raise ParseError(f"entry count {len(body) - 1} does not match header {nnz}")

    expected = 2 if field == "pattern" else 3
    rows, cols, weights = _tokenize(lines, body[1:], (expected,), f"expected {expected} fields",
                                    1, size, f"index ({{i}}, {{j}}) outside 1..{size}")
    return NetworkDataset(size, rows - 1, cols - 1, weights, name=name,
                          source="matrix-market", directed=(symmetry == "general"))


def _symmetric_adjacency(dataset: NetworkDataset) -> np.ndarray:
    """The dense adjacency, refused from the arrays when asymmetric (undirected never is)."""
    if dataset.directed and not dataset.is_symmetric():
        raise ValueError("dataset is asymmetric; symmetrize it (--symmetrize)")
    return dataset.adjacency()


def to_step_graphon(dataset: NetworkDataset, normalize: str = "max-abs") -> StepGraphon:
    """Pixel picture of the dataset: block (i, j) carries the edge weight.

    normalize="max-abs" divides by the largest magnitude so values land in
    [-1, 1]; "none" keeps raw weights (unvalidated kernel, e.g. for stability
    thresholds on raw adjacencies).  Asymmetric data is refused: pass
    `dataset.symmetrized()` instead.
    """
    return _pixel_graphon(_symmetric_adjacency(dataset), normalize)[0]


def _pixel_graphon(mat: np.ndarray, normalize: str) -> tuple:
    """(kernel, scale): `to_step_graphon`'s kernel of a symmetric adjacency, which is
    the adjacency divided by `scale` (its largest magnitude under max-abs, else 1)."""
    if np.abs(mat.diagonal()).sum() > 0.0:
        warnings.warn("self-loops present: diagonal is nonzero and so is the trace")
    if normalize == "max-abs":
        scale = _max_abs(mat) or 1.0
        return StepGraphon._owning(mat / scale), scale
    if normalize == "none":
        return StepGraphon(mat, validate=False), 1.0
    raise ValueError(f"unknown normalization {normalize!r}; "
                     "expected 'max-abs' or 'none'")


def _max_abs(mat: np.ndarray):
    """max|a_ij| from two reductions, with no n×n |mat| (NaN when an entry is)."""
    return max(-mat.min(), mat.max())


def _probability_check(graphon: Graphon):
    if not graphon.probability_kernel:
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
    rows, cols = np.nonzero(np.triu(thresholds < np.asarray(probs), k=1))
    return NetworkDataset(num_nodes, rows, cols, np.ones(rows.size),
                          name=f"sample_n{num_nodes}_seed{seed}", source="sample")


def write_edge_list(dataset: NetworkDataset) -> str:
    """Serialize as 1-based "i j weight" lines (stable, round-trippable)."""
    # the bytes of f"{i + 1} {j + 1} {w:.17g}\n" per edge, with each node that occurs
    # and each weight bit pattern formatted once, then looked up per cell
    ends = np.r_[dataset.rows, dataset.cols]
    if dataset.num_nodes <= ends.size:  # a table of the nodes is no larger than the ends
        seen = np.zeros(dataset.num_nodes, dtype=bool)
        seen[ends] = True
        nodes, ends = np.flatnonzero(seen), (np.cumsum(seen) - 1)[ends]
    else:  # only the nodes that occur: num_nodes may reach 2**63 - 1
        nodes, ends = np.unique(ends, return_inverse=True)
    bits, weight_at = np.unique(dataset.weights.view(np.int64), return_inverse=True)
    labels = np.array([f"{i + 1} " for i in nodes.tolist()], dtype=object)
    numbers = np.array([f"{w:.17g}\n" for w in bits.view(float).tolist()], dtype=object)
    rows, cols = ends.reshape(2, -1)
    cells = np.column_stack([labels[rows], labels[cols], numbers[weight_at]])
    return (f"# {dataset.name or 'network'}: {dataset.num_nodes} nodes, "
            f"{dataset.num_edges} edges\n" + "".join(cells.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Eigenvalue summary of a network: the adjacency spectrum from one `eigh`,
    |eigenvalue| histogram, trace, and the L2 error of keeping only the top
    fraction of directions."""

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


def spectral_report(dataset: NetworkDataset, top_fraction: float = 0.10) -> SpectralReport:
    """Adjacency spectrum with a 50-bin histogram of magnitudes and a top-k error.

    The spectrum is the eigenvalues of one `np.linalg.eigh` of the dense
    adjacency, the solve whose eigenvectors also decompose `spectra`'s kernel.
    The truncation error is the closed-form L2 error of keeping the top
    ceil(top_fraction * N) eigendirections of the max-abs-normalized pixel
    graphon (capped at its nonzero rank).  That graphon's eigenvalues are the
    adjacency's divided by N * max|a_ij|, so its tail is read off the same
    spectrum, zeros dropped and ordered as `decompose` orders them.
    """
    return _solved_report(dataset, top_fraction)[0]


def _solved_report(dataset: NetworkDataset, top_fraction: float) -> tuple:
    """(report, adjacency, vecs): `spectral_report`'s report, the dense adjacency it
    read and that matrix's eigenvectors, column l for report.eigenvalues[::-1][l]."""
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must be in (0, 1]")
    mat = _symmetric_adjacency(dataset)
    ascending, vecs = np.linalg.eigh(mat)
    values = ascending[::-1]
    magnitudes = np.abs(values)
    peak = float(magnitudes.max())
    counts, edges = np.histogram(magnitudes, bins=50,
                                 range=(0.0, peak if peak > 0.0 else 1.0))
    top_k = math.ceil(top_fraction * dataset.num_nodes)
    lam = values / (dataset.num_nodes * (_max_abs(mat) or 1.0))
    error = np.sqrt(np.sum(lam[_nonzero_ordered(lam)][top_k:] ** 2))
    report = SpectralReport(dataset.name, dataset.num_nodes, values, edges, counts,
                            float(values.sum()), top_k, float(error))
    return report, mat, vecs
