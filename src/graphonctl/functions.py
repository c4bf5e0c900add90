"""Function-space primitives on [0,1]: piecewise-constant and trigonometric functions.

Both families admit exact inner products and L2 norms, including mixed pairs,
which keeps every projection and error formula in the package quadrature-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PartitionMismatchError

TWO_PI = 2.0 * math.pi

# Largest uniform partition produced automatically when two block counts are
# merged; guards against lcm blow-up for near-coprime sizes.
MAX_COMMON_BLOCKS = 100_000


def block_index(x, num_blocks: int):
    """Index of the uniform-partition block containing x; x = 1 falls in the last block."""
    idx = np.floor(np.asarray(x, dtype=float) * num_blocks).astype(int)
    return np.clip(idx, 0, num_blocks - 1)


def common_block_count(n: int, m: int) -> int:
    """Size of the coarsest uniform partition refining both inputs."""
    merged = n * m // math.gcd(n, m)
    if merged > MAX_COMMON_BLOCKS:
        raise PartitionMismatchError(
            f"partitions with {n} and {m} blocks have no affordable common "
            f"refinement (lcm {merged} exceeds {MAX_COMMON_BLOCKS})"
        )
    return merged


def fourier_block_integrals(num_blocks: int, order: int) -> np.ndarray:
    """(2*order+1, num_blocks) integrals of φ = [1, sqrt(2)cos_1..order, sqrt(2)sin_1..order]
    over each block of the uniform partition."""
    edges = np.arange(num_blocks + 1) / num_blocks
    k = np.arange(1, order + 1, dtype=float)[:, None]
    s = np.sin(TWO_PI * k * edges)
    c = np.cos(TWO_PI * k * edges)
    cos_ints = (s[:, 1:] - s[:, :-1]) / (TWO_PI * k)
    sin_ints = (c[:, :-1] - c[:, 1:]) / (TWO_PI * k)
    return np.vstack([np.full(num_blocks, 1.0 / num_blocks),
                      math.sqrt(2.0) * cos_ints, math.sqrt(2.0) * sin_ints])


def _fourier_values(x, order: int) -> np.ndarray:
    """(..., 2*order+1) values of φ = [1, sqrt(2)cos_1..order, sqrt(2)sin_1..order] at x."""
    x = np.asarray(x, dtype=float)[..., None]
    phase = TWO_PI * np.arange(1, order + 1) * x
    return np.concatenate((np.ones_like(x), np.sqrt(2.0) * np.cos(phase),
                           np.sqrt(2.0) * np.sin(phase)), axis=-1)


def _fourier_layout(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Coordinates over φ (rows [1, cos_1..h, sin_1..h]) cut or zero-padded to `order`."""
    h = (coeffs.shape[0] - 1) // 2
    kept = min(h, order)
    out = np.zeros((2 * order + 1,) + coeffs.shape[1:])
    out[:kept + 1] = coeffs[:kept + 1]
    out[order + 1:order + 1 + kept] = coeffs[h + 1:h + 1 + kept]
    return out


def _readonly_vector(values, dtype=float) -> np.ndarray:
    arr = np.atleast_1d(np.array(values, dtype=dtype))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PiecewiseConstantFunction:
    """Function constant on every block of a uniform partition of [0,1].

    Block i covers [i/N, (i+1)/N); the final block is closed at 1.  Instances
    are immutable after construction.
    """

    values: np.ndarray

    def __post_init__(self):
        v = _readonly_vector(self.values)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty vector")
        object.__setattr__(self, "values", v)

    @property
    def num_blocks(self) -> int:
        return self.values.size

    def __call__(self, x):
        return self.values[block_index(x, self.num_blocks)]

    def l2_norm(self) -> float:
        return float(np.sqrt(np.mean(self.values ** 2)))

    def __add__(self, other):
        if not isinstance(other, PiecewiseConstantFunction):
            return NotImplemented
        merged = common_block_count(self.num_blocks, other.num_blocks)
        a = np.repeat(self.values, merged // self.num_blocks)
        b = np.repeat(other.values, merged // other.num_blocks)
        return PiecewiseConstantFunction(a + b)

    def __sub__(self, other):
        if not isinstance(other, PiecewiseConstantFunction):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return PiecewiseConstantFunction(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"PiecewiseConstantFunction(num_blocks={self.num_blocks})"


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """The function coeffs · φ(x) over the orthonormal Fourier functions
    φ = [1, sqrt(2)cos_1..H, sqrt(2)sin_1..H], so `coeffs` has odd length 2H+1.

    `TrigPolynomial([c])` is the constant c.  Instances are immutable after
    construction.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be a vector of odd length 2H+1")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def cosine_mode(cls, harmonic: int) -> "TrigPolynomial":
        """Unit-L2-norm cosine mode sqrt(2)*cos(2*pi*k*x)."""
        return cls(np.eye(2 * harmonic + 1)[harmonic])

    @classmethod
    def sine_mode(cls, harmonic: int) -> "TrigPolynomial":
        """Unit-L2-norm sine mode sqrt(2)*sin(2*pi*k*x)."""
        return cls(np.eye(2 * harmonic + 1)[2 * harmonic])

    @property
    def order(self) -> int:
        return (self.coeffs.size - 1) // 2

    def __call__(self, x):
        return _fourier_values(x, self.order) @ self.coeffs

    def block_integrals(self, num_blocks: int) -> np.ndarray:
        """Exact integral of the function over every block of the uniform partition."""
        return self.coeffs @ fourier_block_integrals(num_blocks, self.order)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        order = max(self.order, other.order)
        return TrigPolynomial(_fourier_layout(self.coeffs, order)
                              + _fourier_layout(other.coeffs, order))

    def __sub__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return TrigPolynomial(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"TrigPolynomial(order={self.order})"


Function = PiecewiseConstantFunction | TrigPolynomial


def _phi_coordinates(func: Function, order: int) -> np.ndarray:
    """Coordinates over φ of func's projection onto harmonics 0..order: exact inner
    products, from the analytic block integrals for a piecewise-constant func."""
    if isinstance(func, TrigPolynomial):
        return _fourier_layout(func.coeffs, order)
    return fourier_block_integrals(func.num_blocks, order) @ func.values

