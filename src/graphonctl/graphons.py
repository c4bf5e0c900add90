"""Graphon representations and the integral-operator algebra on them.

Two kernel families, each with an exact spectral representation:

* ``StepGraphon`` -- constant on the blocks of a uniform partition; the pixel
  picture of a finite network lives here.  A grid of kernel samples is the
  step kernel ``StepGraphon(grid, validate=False)``.
* ``SinusoidalGraphon`` -- diagonally constant trigonometric kernels
  ``constant + sum_k b_k cos(2*pi*k*(x - y))`` with finitely many harmonics.

All operations (`apply`, `power`, `exponential`, `subtract`, `l2_norm`) are
exact within each family; nothing in this module integrates numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleOperandsError
from .functions import (
    Function,
    PiecewiseConstantFunction,
    TrigPolynomial,
    _phi_coordinates,
    block_index,
    common_block_count,
)

# Slack applied to the [-1, 1] range and symmetry checks.
RANGE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Kernel constant on the blocks of a uniform partition (pixel picture).

    coeffs[i, j] is the kernel value on block (i, j); each pixel has side 1/N.
    Validated kernels are symmetric with entries in [-1, 1].  ``validate=False``
    skips both checks so intermediate algebra results (products, differences,
    truncations) that leave the box remain representable.
    """

    coeffs: np.ndarray
    validate: bool = True

    def __post_init__(self):
        self._freeze(np.array(self.coeffs, dtype=float))

    @classmethod
    def _owning(cls, coeffs: np.ndarray) -> "StepGraphon":
        """A validated kernel that freezes `coeffs`, a fresh float array no caller
        keeps, in place instead of copying it."""
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "validate", True)
        kernel._freeze(coeffs)
        return kernel

    def _freeze(self, c: np.ndarray):
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] == 0:
            raise ValueError("coeffs must be a non-empty square matrix")
        if self.validate:
            # the exact compare settles almost every kernel at a fraction of allclose's cost
            if not ((c == c.T).all() or np.allclose(c, c.T, rtol=0.0, atol=RANGE_TOL)):
                raise ValueError("coeffs must be symmetric")
            if c.max() > 1.0 + RANGE_TOL or c.min() < -1.0 - RANGE_TOL:
                raise ValueError("kernel values must lie in [-1, 1]")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def num_blocks(self) -> int:
        return self.coeffs.shape[0]

    @property
    def probability_kernel(self) -> bool:
        """True when all values lie in [0, 1], i.e. the kernel can drive edge sampling."""
        return bool(self.coeffs.min() >= -RANGE_TOL and self.coeffs.max() <= 1.0 + RANGE_TOL)

    def value(self, x, y):
        ix = block_index(x, self.num_blocks)
        iy = block_index(y, self.num_blocks)
        return self.coeffs[ix, iy]

    def _check_symmetric(self, action: str):
        # a validated kernel already passed the stricter RANGE_TOL symmetry test
        if not self.validate and not np.allclose(self.coeffs, self.coeffs.T, rtol=0.0, atol=1e-10):
            raise ValueError(f"cannot {action} an asymmetric kernel")

    def _symmetric_coeffs(self) -> np.ndarray:
        """0.5 * (coeffs + coeffs.T), the matrix an eigensolve reads: coeffs itself when
        validated and equal to its transpose, as 0.5 * (c + c) is c bitwise in [-1, 1]."""
        c = self.coeffs
        if self.validate and (c == c.T).all():
            return c
        return 0.5 * (c + c.T)

    def _expm1_blocks(self, t: float) -> np.ndarray:
        """U_t in e^{tA} = I + U_t: n V diag(expm1(t mu / n)) Vᵀ with mu, V = eigh(coeffs)."""
        mu, vecs = np.linalg.eigh(self._symmetric_coeffs())
        return self.num_blocks * (vecs * np.expm1(mu * (t / self.num_blocks))) @ vecs.T

    def __repr__(self):
        return f"StepGraphon(num_blocks={self.num_blocks})"


@dataclass(frozen=True, eq=False)
class SinusoidalGraphon:
    """Diagonally constant kernel constant + sum_k b_k cos(2*pi*k*(x-y)).

    ``cosine_coeffs[k-1]`` is the coefficient b_k of harmonic k.  Validated
    kernels satisfy |constant| + sum |b_k| <= 1, which keeps values in [-1, 1].
    """

    constant: float = 0.0
    cosine_coeffs: np.ndarray = ()
    validate: bool = True

    def __post_init__(self):
        b = np.atleast_1d(np.array(self.cosine_coeffs, dtype=float)) \
            if np.size(self.cosine_coeffs) else np.zeros(0)
        object.__setattr__(self, "constant", float(self.constant))
        if self.validate and abs(self.constant) + np.abs(b).sum() > 1.0 + RANGE_TOL:
            raise ValueError("|constant| + sum|cosine_coeffs| must not exceed 1")
        b.setflags(write=False)
        object.__setattr__(self, "cosine_coeffs", b)

    @property
    def harmonics(self) -> int:
        return self.cosine_coeffs.size

    @property
    def probability_kernel(self) -> bool:
        """True when all values lie in [0, 1]; they span constant -/+ sum |b_k|."""
        spread = np.abs(self.cosine_coeffs).sum()
        return bool(self.constant - spread >= -RANGE_TOL
                    and self.constant + spread <= 1.0 + RANGE_TOL)

    @property
    def fourier_weights(self) -> np.ndarray:
        """The operator's diagonal [a0, b/2, b/2] over φ = [1, sqrt(2)cos_1..H, sqrt(2)sin_1..H]."""
        half = 0.5 * self.cosine_coeffs
        return np.concatenate(([self.constant], half, half))

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast(x, y).shape, self.constant)
        # out + b_k * cos(2*pi*k * (x - y)) per harmonic, in that expression's order
        # of operations, so in one scratch array with the same bits
        term = np.empty_like(out)
        for k, coeff in enumerate(self.cosine_coeffs.tolist(), start=1):
            np.subtract(x, y, out=term)
            term *= 2.0 * math.pi * k
            np.cos(term, out=term)
            term *= coeff
            out += term
        return out

    def __repr__(self):
        return f"SinusoidalGraphon(constant={self.constant}, harmonics={self.harmonics})"


Graphon = StepGraphon | SinusoidalGraphon


def _refine_matrix(coeffs: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return coeffs
    return np.repeat(np.repeat(coeffs, factor, axis=0), factor, axis=1)


def apply(graphon: Graphon, f):
    """Integral-operator action: x -> integral of A(x, y) f(y) dy, exact per family."""
    if isinstance(graphon, StepGraphon):
        n = graphon.num_blocks
        if isinstance(f, PiecewiseConstantFunction):
            merged = common_block_count(n, f.num_blocks)
            coeffs = _refine_matrix(graphon.coeffs, merged // n)
            vals = np.repeat(f.values, merged // f.num_blocks)
            return PiecewiseConstantFunction(coeffs @ vals / merged)
        if isinstance(f, TrigPolynomial):
            # integrate f exactly over each y-block
            return PiecewiseConstantFunction(graphon.coeffs @ f.block_integrals(n))
    if isinstance(graphon, SinusoidalGraphon) and isinstance(f, Function):
        # the operator is diagonal over φ
        return TrigPolynomial(graphon.fourier_weights * _phi_coordinates(f, graphon.harmonics))
    raise IncompatibleOperandsError(
        f"cannot apply {type(graphon).__name__} to {type(f).__name__}")


def power(graphon: Graphon, exponent: int) -> Graphon:
    """Operator power as a kernel, exponent >= 1.

    The zeroth power is the identity, which is not a graphon (it has no
    kernel), so exponent 0 is rejected.
    """
    if not isinstance(exponent, (int, np.integer)) or exponent < 1:
        raise ValueError("exponent must be an integer >= 1; "
                         "the identity operator has no kernel representation")
    if isinstance(graphon, StepGraphon):
        n = graphon.num_blocks
        mat = np.linalg.matrix_power(graphon.coeffs, exponent) / float(n) ** (exponent - 1)
        return StepGraphon(mat, validate=False)
    if isinstance(graphon, SinusoidalGraphon):
        b = graphon.cosine_coeffs
        return SinusoidalGraphon(graphon.constant ** exponent,
                                 (0.5 * b) ** (exponent - 1) * b,
                                 validate=False)
    raise IncompatibleOperandsError(f"cannot take powers of {type(graphon).__name__}")


@dataclass(frozen=True, eq=False)
class IdentityPlusGraphon:
    """Bounded operator I + (integral operator of `kernel`).

    Operator exponentials live here: e^{tA} = I + U_t where U_t is again a
    kernel in the same family as A.
    """

    kernel: Graphon

    def apply(self, f):
        return f + apply(self.kernel, f)


def exponential(graphon: Graphon, t: float) -> IdentityPlusGraphon:
    """Operator exponential e^{tA} = I + U_t, returned as the kernel U_t, in-family,
    wrapped in an `IdentityPlusGraphon`.

    Exact per family: a step kernel's U_t comes from one symmetric eigensolve
    of its block matrix, and an unvalidated asymmetric one raises ValueError.
    """
    if isinstance(graphon, StepGraphon):
        graphon._check_symmetric("exponentiate")
        return IdentityPlusGraphon(StepGraphon(graphon._expm1_blocks(t), validate=False))
    if isinstance(graphon, SinusoidalGraphon):
        const = np.expm1(graphon.constant * t)
        coeffs = 2.0 * np.expm1(0.5 * graphon.cosine_coeffs * t)
        return IdentityPlusGraphon(SinusoidalGraphon(const, coeffs, validate=False))
    raise IncompatibleOperandsError(f"cannot exponentiate {type(graphon).__name__}")


def l2_norm(graphon: Graphon) -> float:
    """Kernel L2 norm on [0,1]^2."""
    if isinstance(graphon, StepGraphon):
        return float(np.linalg.norm(graphon.coeffs) / graphon.num_blocks)
    if isinstance(graphon, SinusoidalGraphon):
        return float(np.sqrt(graphon.constant ** 2
                             + 0.5 * np.sum(graphon.cosine_coeffs ** 2)))
    raise IncompatibleOperandsError(f"no L2 norm for {type(graphon).__name__}")


def subtract(g: Graphon, h: Graphon) -> Graphon:
    """Kernel difference g - h within a family (unvalidated result)."""
    if isinstance(g, StepGraphon) and isinstance(h, StepGraphon):
        merged = common_block_count(g.num_blocks, h.num_blocks)
        return StepGraphon(_refine_matrix(g.coeffs, merged // g.num_blocks)
                           - _refine_matrix(h.coeffs, merged // h.num_blocks),
                           validate=False)
    if isinstance(g, SinusoidalGraphon) and isinstance(h, SinusoidalGraphon):
        order = max(g.harmonics, h.harmonics)
        bg = np.pad(g.cosine_coeffs, (0, order - g.harmonics))
        bh = np.pad(h.cosine_coeffs, (0, order - h.harmonics))
        return SinusoidalGraphon(g.constant - h.constant, bg - bh, validate=False)
    raise IncompatibleOperandsError(
        f"cannot subtract {type(h).__name__} from {type(g).__name__}")

