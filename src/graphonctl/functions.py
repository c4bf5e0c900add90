"""Function-space primitives on [0,1]: piecewise-constant and trigonometric functions.

Both families admit exact inner products and L2 norms, including mixed pairs,
which keeps every projection and error formula in the package quadrature-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleOperandsError, PartitionMismatchError

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


def trig_block_integrals(num_blocks: int, harmonics) -> tuple[np.ndarray, np.ndarray]:
    """Exact integrals of cos(2*pi*k*x) and sin(2*pi*k*x) over each partition block.

    Returns two arrays of shape (len(harmonics), num_blocks).
    """
    harmonics = np.atleast_1d(np.asarray(harmonics, dtype=float))
    edges = np.arange(num_blocks + 1) / num_blocks
    k = harmonics[:, None]
    s = np.sin(TWO_PI * k * edges)
    c = np.cos(TWO_PI * k * edges)
    cos_ints = (s[:, 1:] - s[:, :-1]) / (TWO_PI * k)
    sin_ints = (c[:, :-1] - c[:, 1:]) / (TWO_PI * k)
    return cos_ints, sin_ints


def fourier_block_integrals(num_blocks: int, order: int) -> np.ndarray:
    """(2*order+1, num_blocks) integrals of 1, sqrt(2)cos_k, sqrt(2)sin_k over each block."""
    cos_ints, sin_ints = trig_block_integrals(num_blocks, np.arange(1, order + 1))
    return np.vstack([np.full(num_blocks, 1.0 / num_blocks),
                      math.sqrt(2.0) * cos_ints, math.sqrt(2.0) * sin_ints])


def _readonly_vector(values) -> np.ndarray:
    arr = np.atleast_1d(np.array(values, dtype=float))
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

    def refine(self, factor: int) -> "PiecewiseConstantFunction":
        """Same function expressed on a partition `factor` times finer."""
        if factor < 1:
            raise ValueError("refinement factor must be a positive integer")
        return PiecewiseConstantFunction(np.repeat(self.values, factor))

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
    """constant + sum_k cos_amps[k-1]*cos(2*pi*k*x) + sin_amps[k-1]*sin(2*pi*k*x)."""

    constant: float = 0.0
    cos_amps: np.ndarray = ()
    sin_amps: np.ndarray = ()

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.cos_amps, dtype=float)) if np.size(self.cos_amps) else np.zeros(0)
        s = np.atleast_1d(np.array(self.sin_amps, dtype=float)) if np.size(self.sin_amps) else np.zeros(0)
        order = max(c.size, s.size)
        c = np.pad(c, (0, order - c.size))
        s = np.pad(s, (0, order - s.size))
        c.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "cos_amps", c)
        object.__setattr__(self, "sin_amps", s)

    @classmethod
    def constant_function(cls, value: float) -> "TrigPolynomial":
        return cls(constant=value)

    @classmethod
    def cosine_mode(cls, harmonic: int) -> "TrigPolynomial":
        """Unit-L2-norm cosine mode sqrt(2)*cos(2*pi*k*x)."""
        amps = np.zeros(harmonic)
        amps[harmonic - 1] = math.sqrt(2.0)
        return cls(cos_amps=amps)

    @classmethod
    def sine_mode(cls, harmonic: int) -> "TrigPolynomial":
        """Unit-L2-norm sine mode sqrt(2)*sin(2*pi*k*x)."""
        amps = np.zeros(harmonic)
        amps[harmonic - 1] = math.sqrt(2.0)
        return cls(sin_amps=amps)

    @classmethod
    def from_orthonormal(cls, constant, cos_coeffs=(), sin_coeffs=()) -> "TrigPolynomial":
        """Build from coefficients over the orthonormal basis {1, sqrt(2)cos, sqrt(2)sin}."""
        r = math.sqrt(2.0)
        return cls(constant, r * np.asarray(cos_coeffs, dtype=float),
                   r * np.asarray(sin_coeffs, dtype=float))

    @property
    def order(self) -> int:
        return self.cos_amps.size

    def orthonormal_coefficients(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Coefficients over the orthonormal basis {1, sqrt(2)cos, sqrt(2)sin}."""
        r = math.sqrt(2.0)
        return self.constant, self.cos_amps / r, self.sin_amps / r

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.constant)
        for k in range(1, self.order + 1):
            phase = TWO_PI * k * x
            out = out + self.cos_amps[k - 1] * np.cos(phase) + self.sin_amps[k - 1] * np.sin(phase)
        return out

    def block_integrals(self, num_blocks: int) -> np.ndarray:
        """Exact integral of the function over every block of the uniform partition."""
        out = np.full(num_blocks, self.constant / num_blocks)
        if self.order:
            cos_ints, sin_ints = trig_block_integrals(num_blocks, np.arange(1, self.order + 1))
            out = out + self.cos_amps @ cos_ints + self.sin_amps @ sin_ints
        return out

    def l2_norm(self) -> float:
        return float(np.sqrt(self.constant ** 2
                             + 0.5 * (np.sum(self.cos_amps ** 2) + np.sum(self.sin_amps ** 2))))

    def _padded(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        pad = order - self.order
        return np.pad(self.cos_amps, (0, pad)), np.pad(self.sin_amps, (0, pad))

    def __add__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        order = max(self.order, other.order)
        ca, sa = self._padded(order)
        cb, sb = other._padded(order)
        return TrigPolynomial(self.constant + other.constant, ca + cb, sa + sb)

    def __sub__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        s = float(scalar)
        return TrigPolynomial(self.constant * s, self.cos_amps * s, self.sin_amps * s)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"TrigPolynomial(order={self.order})"


Function = PiecewiseConstantFunction | TrigPolynomial


def inner_product(f: Function, g: Function) -> float:
    """Exact L2 inner product on [0,1] for any pairing of the two families.

    Step pairs average their product on the common refinement of both
    partitions, a mixed pair sums the step values against the polynomial's
    exact block integrals, and polynomial pairs dot their amplitudes.
    """
    if isinstance(f, TrigPolynomial) and isinstance(g, PiecewiseConstantFunction):
        f, g = g, f
    if isinstance(f, PiecewiseConstantFunction) and isinstance(g, PiecewiseConstantFunction):
        merged = common_block_count(f.num_blocks, g.num_blocks)
        return float(np.mean(np.repeat(f.values, merged // f.num_blocks)
                             * np.repeat(g.values, merged // g.num_blocks)))
    if isinstance(f, PiecewiseConstantFunction) and isinstance(g, TrigPolynomial):
        return float(f.values @ g.block_integrals(f.num_blocks))
    if isinstance(f, TrigPolynomial) and isinstance(g, TrigPolynomial):
        h = min(f.order, g.order)
        amps = f.cos_amps[:h] @ g.cos_amps[:h] + f.sin_amps[:h] @ g.sin_amps[:h]
        return float(f.constant * g.constant + 0.5 * amps)
    raise IncompatibleOperandsError(
        f"no inner product between {type(f).__name__} and {type(g).__name__}")
