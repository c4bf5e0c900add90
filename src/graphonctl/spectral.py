"""Spectral decomposition of graphon operators and low-rank approximation.

Decompositions are exact per family: a dense symmetric eigensolve for step
kernels (graphon eigenvalues are the matrix eigenvalues over N) and closed
forms for sinusoidal kernels.  `decompose(kernel, vectors=False)` solves a
step kernel for its eigenvalues alone, one `eigvalsh`, for runs that read
nothing but the spectrum (truncation-error curves, Gramian values); that
decomposition has no basis, and whatever reads its eigenfunctions raises.
Truncations, Fourier-projected truncations and all the error formulas here
are evaluated analytically; a Fourier-truncated `FiniteRankKernel` is one
coefficient matrix over the orthonormal Fourier functions, so its L2 norms
and distances are matrix norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleOperandsError, NumericsError
from .functions import (
    Function,
    PiecewiseConstantFunction,
    TrigPolynomial,
    _fourier_layout,
    _fourier_values,
    common_block_count,
    fourier_block_integrals,
)
from .graphons import (
    Graphon,
    SinusoidalGraphon,
    StepGraphon,
    l2_norm,
    subtract,
)

# Relative cutoff below which eigenvalues count as numerically zero.
ZERO_EIGENVALUE_RTOL = 1e-12


def _tie_ordered(values: np.ndarray) -> np.ndarray:
    """Indices sorting by |value| descending, positive before negative on ties.

    The sort is stable, so exact ties of equal sign keep their input order.
    """
    return np.lexsort((values < 0.0, -np.abs(values)))


def _nonzero_ordered(values: np.ndarray) -> np.ndarray:
    """Indices of the values above ZERO_EIGENVALUE_RTOL of the largest
    magnitude, in `_tie_ordered` order (none when every value is 0)."""
    magnitudes = np.abs(values)
    kept = np.flatnonzero(magnitudes > ZERO_EIGENVALUE_RTOL * magnitudes.max(initial=0.0))
    return kept[_tie_ordered(values[kept])]


@dataclass(frozen=True, eq=False, init=False)
class SpectralDecomposition:
    """Ordered nonzero eigenvalues and eigenfunctions of a graphon operator.

    Column l of `basis` is the eigenfunction of eigenvalues[l]; ordering is |λ|
    descending with positive eigenvalues ahead of negative ones on ties.  Zero
    eigenvalues are dropped; `rank` is the number kept.  Step sources store the
    (n, r) block values of unit-L2 eigenfunctions, sinusoidal sources with H
    harmonics the (2H+1, r) coordinates over the orthonormal functions
    [1, sqrt(2)cos_1..H, sqrt(2)sin_1..H].  Built with basis None, it holds
    the eigenvalues alone: `basis`, and every method that reads it, raises
    IncompatibleOperandsError.  The arrays are stored as read-only C-ordered
    float copies; copy=False takes fresh arrays that no caller keeps, and
    freezes them in place unless their dtype or order needs a copy anyway.
    """

    eigenvalues: np.ndarray
    source: Graphon
    _basis: np.ndarray | None = field(repr=False)

    def __init__(self, eigenvalues, basis, source: Graphon, *, copy: bool = True):
        for name, value in (("eigenvalues", eigenvalues), ("_basis", basis)):
            if value is not None:
                value = np.array(value, dtype=float, order="C", copy=True if copy else None)
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "source", source)

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            raise IncompatibleOperandsError(
                "a values-only decomposition has no eigenfunctions; "
                "decompose with vectors=True")
        return self._basis

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @property
    def positive_eigenvalues(self) -> np.ndarray:
        """Positive eigenvalues, largest first."""
        pos = self.eigenvalues[self.eigenvalues > 0.0]
        return np.sort(pos)[::-1]

    def coordinates(self, func: Function) -> np.ndarray:
        """Exact inner products <func, f_l> with a function of the source's family."""
        sinusoidal = isinstance(self.source, SinusoidalGraphon)
        if not isinstance(func, TrigPolynomial if sinusoidal else PiecewiseConstantFunction):
            raise IncompatibleOperandsError(
                f"{type(func).__name__} has no coordinates over the eigenfunctions "
                f"of a {type(self.source).__name__}")
        n = self.basis.shape[0]
        if sinusoidal:
            return _fourier_layout(func.coeffs, (n - 1) // 2) @ self.basis
        merged = common_block_count(n, func.num_blocks)
        basis = self.basis if merged == n else np.repeat(self.basis, merged // n, axis=0)
        return np.repeat(func.values, merged // func.num_blocks) @ basis / merged

    def combine(self, coeffs) -> Function:
        """The function sum_l coeffs[l] f_l."""
        column = self.basis @ np.asarray(coeffs, dtype=float)
        if isinstance(self.source, StepGraphon):
            return PiecewiseConstantFunction(column)
        return TrigPolynomial(column)

    @property
    def spectrum(self) -> np.ndarray:
        """The complemented spectrum [0, λ_1..λ_r]: the operator's value on the
        orthogonal complement of the eigenfunctions, then along each f_l."""
        return np.pad(self.eigenvalues, (1, 0))

    def split(self, func: Function) -> tuple[np.ndarray, Function]:
        """(c, r): the coordinates c_l = <func, f_l> and the residual
        r = func - sum_l c_l f_l, the part of func orthogonal to every f_l."""
        coords = self.coordinates(func)
        return coords, func - self.combine(coords)


@dataclass(frozen=True, eq=False)
class SpectralMultiplier:
    """The operator f(A) for a function f of the decomposed operator A.

    f(A) acts as f(0) on the orthogonal complement of the eigenfunctions of
    `modes` and as f(λ_l) along each f_l, so it is the vector `values` of f
    over `modes.spectrum`; a 2-D `values` holds one such row per time.  Over
    a step source it also acts on block values, where each unit-L2 f_l is a
    basis column of Euclidean norm sqrt(n).
    """

    modes: SpectralDecomposition
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()  # large tables are not copied
        if values.ndim not in (1, 2) or values.shape[-1] != self.modes.rank + 1:
            raise ValueError(f"{self.modes.rank + 1} values per row required, one per "
                             f"member of the complemented spectrum; got shape {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def _block_basis(self) -> np.ndarray:
        if not isinstance(self.modes.source, StepGraphon):
            raise IncompatibleOperandsError("block values need piecewise-constant modes")
        return self.modes.basis

    def apply(self, x, row: int | None = None):
        """f(A) x, with the values of 1-D `values` or of row `row` of a table.

        x is a Function of the source's family, or block-value rows; without
        `row`, a table applies its row k to x[k].
        """
        values = self.values if row is None else self.values[row]
        lead = values[..., :1]
        if not isinstance(x, np.ndarray):
            return float(lead[0]) * x + self.modes.combine(
                (values[1:] - lead) * self.modes.coordinates(x))
        return _modal_rows(self._block_basis(), lead, values[..., 1:] - lead, x)

    def apply_split(self, coords: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """Block-value rows of f(A) x for x split by `SpectralDecomposition.split`:
        sum_l values[..., l + 1] coords[l] f_l + values[..., 0] residual.

        `residual` holds block values on the modes' partition or a refinement
        of it.  Non-finite values leave non-finite rows, without a warning.
        """
        basis = self._block_basis()
        if residual.shape[-1] != basis.shape[0]:
            basis = np.repeat(basis, residual.shape[-1] // basis.shape[0], axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            return _plus_scaled((self.values[..., 1:] * coords) @ basis.T,
                                self.values[..., :1], residual)

    def compose(self, other: "SpectralMultiplier") -> "SpectralMultiplier":
        """f(A) g(A), the multiplier of the product f g over the same `modes`."""
        if other.modes is not self.modes:
            raise IncompatibleOperandsError("multipliers over different modes")
        return SpectralMultiplier(self.modes, self.values * other.values)

    def as_matrix(self) -> np.ndarray:
        """Matrix of f(A) on block values of a step source's partition (1-D values)."""
        basis = self._block_basis()
        n = basis.shape[0]
        lead = self.values[0]
        return lead * np.eye(n) + (basis * ((self.values[1:] - lead) / n)) @ basis.T


def _modal_rows(basis: np.ndarray, lead, relative, x: np.ndarray) -> np.ndarray:
    """f(A) on block-value rows x, with f(A) given as its value `lead` on the
    complement and its lead-subtracted values `relative` along the columns of
    the (n, r) block basis: x lead + (x basis / n * relative) basisᵀ."""
    return _plus_scaled((x @ basis / basis.shape[0] * relative) @ basis.T, lead, x)


_ROW_BLOCK = 128


def _plus_scaled(out: np.ndarray, lead, x) -> np.ndarray:
    """out + lead * x, with lead and x broadcast to out's shape.  A table of more than
    _ROW_BLOCK rows is summed into `out` that many rows at a time: the same bits as the
    one expression, without a temporary as large as a trajectory."""
    if out.ndim < 2 or len(out) <= _ROW_BLOCK:
        return out + lead * x
    lead, x = np.broadcast_to(lead, out.shape), np.broadcast_to(x, out.shape)
    for start in range(0, len(out), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        out[rows] += lead[rows] * x[rows]
    return out


def _step_decomposition(graphon: StepGraphon, mu: np.ndarray,
                        vecs: np.ndarray | None = None) -> SpectralDecomposition:
    """The decomposition of a step kernel from an eigenpair (mu, vecs) of its block
    matrix: eigenvalues mu / N, zeros dropped, and each column v of `vecs` lifted to
    the unit-L2 block values sqrt(N) * v, signed by `decompose`'s rule.  Without
    `vecs` it holds the eigenvalues alone."""
    n = graphon.num_blocks
    lam = mu / n
    order = _nonzero_ordered(lam)
    if vecs is None:
        return SpectralDecomposition(lam[order], None, graphon)
    vecs = vecs.take(order, axis=1)  # a fresh C-ordered copy, scaled in place and kept
    # |v| > cutoff without an n×n |vecs|, and a sign of ±1 times sqrt(N) rounds as
    # sqrt(N) does, so one product gives the bits of two
    cutoff = 1e-12 * np.maximum(vecs.max(axis=0), -vecs.min(axis=0))
    first = np.argmax((vecs > cutoff) | (vecs < -cutoff), axis=0)
    vecs *= np.sign(vecs[first, np.arange(vecs.shape[1])]) * np.sqrt(n)
    return SpectralDecomposition(lam[order], vecs, graphon, copy=False)


def decompose(graphon: Graphon, vectors: bool = True) -> SpectralDecomposition:
    """Eigenvalues and orthonormal eigenfunctions of the integral operator.

    Step kernels: symmetric eigensolve of the block matrix; operator
    eigenvalues are matrix eigenvalues divided by the block count, and each
    eigenvector v lifts to the piecewise-constant function sqrt(N) * v (unit
    L2 norm), signed so that its first entry above 1e-12 of its largest is
    positive.  With vectors=False a step kernel takes `eigvalsh` instead of
    `eigh`, and the result holds its eigenvalues alone, with no basis; they
    agree with the eigenpair route's to rounding.  Sinusoidal kernels
    decompose in closed form onto the constant function and the
    sqrt(2) cos / sqrt(2) sin harmonics, whatever `vectors` says.
    """
    if isinstance(graphon, StepGraphon):
        graphon._check_symmetric("decompose")
        symmetric = graphon._symmetric_coeffs()
        if not vectors:
            return _step_decomposition(graphon, np.linalg.eigvalsh(symmetric))
        return _step_decomposition(graphon, *np.linalg.eigh(symmetric))
    if isinstance(graphon, SinusoidalGraphon):
        k = np.arange(1, graphon.harmonics + 1)
        # Fourier-layout rows in the order constant, cos_1, sin_1, cos_2, sin_2, ...
        rows = np.concatenate(([0], np.column_stack((k, k + graphon.harmonics)).ravel()))
        lam = graphon.fourier_weights[rows]
        order = _nonzero_ordered(lam)
        return SpectralDecomposition(lam[order], np.eye(rows.size)[:, rows[order]], graphon)
    raise IncompatibleOperandsError(f"cannot decompose {type(graphon).__name__}")


@dataclass(frozen=True, eq=False)
class FiniteRankKernel:
    """Fourier-truncated kernel K(x,y) = sum_l weights[l] p_l(x) p_l(y).

    Column l of `coords` holds p_l's coordinates over the orthonormal functions
    φ = [1, sqrt(2)cos_1..H, sqrt(2)sin_1..H], the layout of a sinusoidal
    decomposition's basis.  So K(x,y) = φ(x)ᵀ M φ(y) with the coefficient matrix
    M = coords diag(weights) coordsᵀ, and the kernel's L2 norm is ||M||_F.
    """

    weights: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        for name in ("weights", "coords"):
            array = np.array(getattr(self, name), dtype=float, order="C")
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def matrix(self) -> np.ndarray:
        """The coefficient matrix M over φ."""
        return (self.coords * self.weights) @ self.coords.T

    def value(self, x, y):
        order = (self.coords.shape[0] - 1) // 2
        left, right = (_fourier_values(t, order) for t in (x, y))
        return np.einsum("...i,...i->...", left @ self.matrix, right)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def __repr__(self):
        return f"FiniteRankKernel(rank={self.rank})"


def _coefficient_matrix(kernel) -> np.ndarray:
    """Matrix M over φ with kernel(x,y) = φ(x)ᵀ M φ(y), for a Fourier kernel."""
    if isinstance(kernel, FiniteRankKernel):
        return kernel.matrix
    if isinstance(kernel, SinusoidalGraphon):
        return np.diag(kernel.fourier_weights)
    raise IncompatibleOperandsError(f"no L2 distance for {type(kernel).__name__}")


def _padded_matrix(matrix: np.ndarray, order: int) -> np.ndarray:
    return _fourier_layout(_fourier_layout(matrix, order).T, order)


def l2_distance(a, b) -> float:
    """Exact L2 distance between kernels, across families.

    Same-family graphons subtract directly.  Two Fourier kernels (sinusoidal or
    finite-rank) differ by ||M_a - M_b||_F once both coefficient matrices are
    padded to a common order.  A step kernel with block values A (block
    integrals B of φ) against a Fourier kernel M takes the square
    ||A||^2 - 2 sum A∘(BᵀMB) + ||M||_F^2.
    """
    if isinstance(a, StepGraphon) and isinstance(b, StepGraphon):
        return l2_norm(subtract(a, b))
    if isinstance(a, SinusoidalGraphon) and isinstance(b, SinusoidalGraphon):
        return l2_norm(subtract(a, b))
    if isinstance(b, StepGraphon):
        a, b = b, a
    fourier = _coefficient_matrix(b)
    if not isinstance(a, StepGraphon):
        other = _coefficient_matrix(a)
        order = (max(len(fourier), len(other)) - 1) // 2
        return float(np.linalg.norm(_padded_matrix(other, order) - _padded_matrix(fourier, order)))
    blocks = fourier_block_integrals(a.num_blocks, (len(fourier) - 1) // 2)
    sq = (l2_norm(a) ** 2 - 2.0 * np.sum(a.coeffs * (blocks.T @ fourier @ blocks))
          + np.linalg.norm(fourier) ** 2)
    if sq < -1e-10:
        raise NumericsError(f"negative squared distance {sq} from the closed form")
    return float(np.sqrt(max(sq, 0.0)))


def truncate(decomp: SpectralDecomposition, rank: int):
    """Keep the `rank` leading eigenvalues and eigenfunctions as a kernel.

    Step sources reconstruct to a step kernel.  Sinusoidal sources reconstruct
    to a sinusoidal kernel when the kept pairs close every cos/sin harmonic
    couple; a cut through the middle of a couple is not diagonally constant,
    so it falls back to an explicit finite-rank kernel.
    """
    if not 1 <= rank <= decomp.rank:
        raise ValueError(f"rank must be in [1, {decomp.rank}], got {rank}")
    lam = decomp.eigenvalues[:rank]
    vecs = decomp.basis[:, :rank]
    coeffs = (vecs * lam) @ vecs.T
    if isinstance(decomp.source, StepGraphon):
        return StepGraphon(coeffs, validate=False)
    # sinusoidal basis columns are unit vectors, so coeffs is diagonal and exact
    cos_weights, sin_weights = np.split(np.diag(coeffs)[1:], 2)
    if (cos_weights != sin_weights).any():
        return FiniteRankKernel(lam, vecs)
    top = int(np.flatnonzero(cos_weights).max(initial=-1)) + 1
    return SinusoidalGraphon(coeffs[0, 0], 2.0 * cos_weights[:top], validate=False)


def truncation_error(decomp: SpectralDecomposition, rank: int) -> float:
    """L2 error of the rank-`rank` truncation: sqrt(||A||_2^2 - sum of kept λ^2).

    Evaluated as the dropped-tail sum sqrt(sum of λ^2 past `rank`), the same
    number without the near-full-rank cancellation of the subtraction form.
    """
    if not 0 <= rank <= decomp.rank:
        raise ValueError(f"rank must be in [0, {decomp.rank}], got {rank}")
    return float(np.sqrt(np.sum(decomp.eigenvalues[rank:] ** 2)))


# -- Fourier approximation of eigenfunctions ----------------------------------

def _fourier_coordinates(decomp: SpectralDecomposition, rank: int, order: int) -> np.ndarray:
    """(2*order+1, rank) Fourier coordinates of the projections of f_0..f_{rank-1}."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if isinstance(decomp.source, StepGraphon):
        return fourier_block_integrals(len(decomp.basis), order) @ decomp.basis[:, :rank]
    return _fourier_layout(decomp.basis[:, :rank], order)


def fourier_bounds(decomp: SpectralDecomposition, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Bound and measured L2 error of the Fourier-projected truncation of each rank 0..r.

    With G = <p_i, p_j> for the projections p_l of the f_l and R = <f_i, f_j> - G for the
    residuals, p⊗(f-p), (f-p)⊗p and (f-p)⊗(f-p) are mutually orthogonal.  So the squared
    rank-m projection error is the leading m x m sum of λλᵀ∘R∘(2G+R), and the squared measured
    error adds the trailing sum of λλᵀ∘G∘G to the full-rank one; rounding is clamped at 0.
    """
    coords = _fourier_coordinates(decomp, decomp.rank, order)
    gram = coords.T @ coords
    blocks = len(decomp.basis) if isinstance(decomp.source, StepGraphon) else 1
    resid = decomp.basis.T @ decomp.basis / blocks - gram  # <f_i, f_j> is I to rounding only
    weights = np.outer(decomp.eigenvalues, decomp.eigenvalues)
    kept, dropped = (np.maximum(np.pad(terms, (1, 0)).cumsum(0).cumsum(1).diagonal(), 0.0)
                     for terms in (weights * resid * (2.0 * gram + resid),
                                   (weights * gram * gram)[::-1, ::-1]))
    tails = [truncation_error(decomp, m) for m in range(decomp.rank + 1)]
    return tails + np.sqrt(kept), np.sqrt(dropped[::-1] + kept[-1])


def fourier_truncate(decomp: SpectralDecomposition, rank: int,
                     order: int) -> tuple[FiniteRankKernel, float]:
    """Kernel sum of λ_l p_l(x) p_l(y) over the first `rank` modes, and its bound: row `rank` of
    a full `fourier_bounds` sweep, so to scan several ranks call `fourier_bounds` once."""
    if not 0 <= rank <= decomp.rank:
        raise ValueError(f"rank must be in [0, {decomp.rank}], got {rank}")
    approx = FiniteRankKernel(decomp.eigenvalues[:rank], _fourier_coordinates(decomp, rank, order))
    return approx, float(fourier_bounds(decomp, order)[0][rank])


# -- error bounds for functions of operators -----------------------------------

def bound_for_power(c: float, delta: float, exponent: int) -> float:
    """Valid power-discrepancy bound exponent * c**(exponent-1) * delta.

    From the telescoping A^n - B^n = sum_j A^j (A-B) B^(n-1-j): each of the n
    terms is at most c**(n-1) * delta because operator norms are below L2 norms.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    return exponent * c ** (exponent - 1) * delta


def bound_for_exponential(c: float, delta: float) -> float:
    """Valid exponential-discrepancy bound exp(c) * delta.

    From e^A - e^B = integral of e^{sA} (A-B) e^{(1-s)B} ds over s in [0,1].
    """
    return float(np.exp(c)) * delta


def measured_function_discrepancy(kernel, approx, mode: str,
                                  exponent: int | None = None,
                                  resolution: int = 512) -> float:
    """Quadrature measurement of the discrepancy the bounds above control.

    Both kernels are midpoint-sampled at the given resolution and the operator
    function is evaluated on the sampled matrices (exact for step kernels when
    the resolution is a multiple of the block count).
    """
    m = resolution
    mids = (np.arange(m) + 0.5) / m
    grid_a, grid_b = (np.asarray(k.value(mids[:, None], mids[None, :]), dtype=float)
                      for k in (kernel, approx))
    if mode == "power":
        if exponent is None or exponent < 1:
            raise ValueError("power mode needs an exponent >= 1")
        diff = (np.linalg.matrix_power(grid_a, exponent)
                - np.linalg.matrix_power(grid_b, exponent)) / float(m) ** (exponent - 1)
        return float(np.linalg.norm(diff) / m)
    if mode == "exponential":
        # e^A - e^B of the sampled step kernels is (U_A - U_B) / m: the identities cancel
        u_a, u_b = (StepGraphon(g, validate=False)._expm1_blocks(1.0) for g in (grid_a, grid_b))
        return float(np.linalg.norm(u_a - u_b, 2) / m)
    raise ValueError(f"unknown mode {mode!r}; expected 'power' or 'exponential'")


# -- convergence of sampled-graph spectra --------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    """One size in an eigenvalue-convergence experiment."""

    size: int
    scaled_eigenvalues: tuple
    limit_eigenvalues: tuple
    max_error: float


def eigenvalue_convergence_experiment(sampler, sizes, limit: Graphon) -> list[ConvergenceRow]:
    """Top scaled adjacency eigenvalues of sampled graphs against the limit kernel.

    `sampler(size)` must return a symmetric adjacency matrix.  For each size
    the top 5 eigenvalues by magnitude of adjacency/size are compared with the
    limit graphon's leading eigenvalues (padded with zeros past its rank).
    """
    top_k = 5
    limit_vals = decompose(limit, vectors=False).eigenvalues
    target = np.zeros(top_k)
    count = min(top_k, limit_vals.size)
    target[:count] = limit_vals[:count]
    rows = []
    for size in sizes:
        adjacency = np.asarray(sampler(size), dtype=float)
        if adjacency.shape != (size, size):
            raise ValueError(f"sampler returned shape {adjacency.shape} for size {size}")
        scaled = np.linalg.eigvalsh(adjacency) / size
        scaled = scaled[_tie_ordered(scaled)][:top_k]
        padded = np.zeros(top_k)
        padded[:scaled.size] = scaled
        error = float(np.abs(padded - target).max())
        rows.append(ConvergenceRow(int(size), tuple(padded.tolist()),
                                   tuple(target.tolist()), error))
    return rows
