"""Linear systems driven by graphon couplings: simulation, Gramians, steering.

A system pairs the state operator alpha0*I + A with the input operator
beta0*I + B where B is constrained to be a polynomial in the coupling kernel
A.  Under that constraint the controllability Gramian, its inverse and the
minimum-energy steering control all have closed forms over the spectral
decomposition of A; the only numerics left are scalar exponentials.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExactControllabilityError, IncompatibleOperandsError, NumericsError
from .functions import Function, PiecewiseConstantFunction
from .graphons import Graphon, StepGraphon, _refine_matrix
from .spectral import SpectralDecomposition, decompose

# Below this magnitude the growth rate in exp-integrals is treated as zero.
RATE_EPS = 1e-12


def growth_integral(rate: float, horizon: float) -> float:
    """Exact value of the integral of exp(rate * t) over [0, horizon].

    A value beyond the float range raises NumericsError.
    """
    if abs(rate) < RATE_EPS:
        return horizon
    try:
        return math.expm1(rate * horizon) / rate
    except OverflowError:
        raise NumericsError(f"exp({rate * horizon:.6g}) exceeds the float range") from None


@dataclass(frozen=True, eq=False)
class GraphonSystem:
    """State operator alpha0*I + A with input operator beta0*I + sum_k poly[k] A^k.

    `input_poly` holds the coefficients (beta_1, ..., beta_d) of the kernel
    polynomial part of the input operator; beta0 sits on the identity.  The
    spectral decomposition of the kernel is computed once at construction.
    """

    alpha0: float
    beta0: float
    kernel: Graphon
    input_poly: tuple = ()
    horizon: float = 1.0
    modes: SpectralDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        object.__setattr__(self, "input_poly",
                           tuple(float(b) for b in self.input_poly))
        object.__setattr__(self, "modes", decompose(self.kernel))

    def input_eta(self, eigenvalue: float) -> float:
        """Input-operator eigenvalue on an eigendirection: sum_k beta_k lambda^k."""
        eta = self.beta0
        for k, beta in enumerate(self.input_poly, start=1):
            eta += beta * eigenvalue ** k
        return eta

    @property
    def mode_etas(self) -> np.ndarray:
        return np.array([self.input_eta(lam) for lam in self.modes.eigenvalues])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States (and optionally controls) sampled on a uniform time grid.

    Rows of `states` are block-value vectors; states[k] belongs to times[k].
    A non-finite state raises NumericsError naming the first such time.
    `range_warning` flags epidemic runs that left the model's validity box.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray | None = None
    range_warning: bool = False

    def __post_init__(self):
        finite = np.isfinite(self.states).all(axis=1)
        if not finite.all():
            raise NumericsError(
                f"state became non-finite at t={self.times[np.argmin(finite)]:.6g}")

    @property
    def num_blocks(self) -> int:
        return self.states.shape[1]

    def state_function(self, index: int) -> PiecewiseConstantFunction:
        return PiecewiseConstantFunction(self.states[index])

    @property
    def final_state(self) -> PiecewiseConstantFunction:
        return self.state_function(-1)

    def state_norms(self) -> np.ndarray:
        """L2 norm of the state at each grid time."""
        return np.linalg.norm(self.states, axis=1) / np.sqrt(self.num_blocks)


def _system_matrices(sys: GraphonSystem, num_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """State and input matrices acting on block values of a partition refining the kernel's."""
    a_op = _refine_matrix(sys.kernel.coeffs, num_blocks // sys.kernel.num_blocks) / num_blocks
    state_mat = sys.alpha0 * np.eye(num_blocks) + a_op
    input_mat = sys.beta0 * np.eye(num_blocks)
    power = np.eye(num_blocks)
    for beta in sys.input_poly:
        power = power @ a_op
        input_mat = input_mat + beta * power
    return state_mat, input_mat


def simulate(sys: GraphonSystem, x0: PiecewiseConstantFunction,
             control=None, step: float | None = None) -> Trajectory:
    """Closed-form trajectory from x0, free or under its minimum-energy control.

    Step kernels only.  States live on the common refinement of the kernel and
    x0 partitions, at K + 1 uniform times with K = round(T / step); `step`
    must be positive and defaults to T / 1000.  With a_l = alpha0 + lambda_l
    and G = `growth_integral`, eigen-coordinate l starting at c_l is
    exp(a_l t) c_l when free.  Under the control it is
    exp(a_l t) c_l (1 - G(-2a_l, t) / G(-2a_l, T)), evaluated as the equal,
    cancellation-free c_l exp(-|a_l| t) G(-2|a_l|, T - t) / G(-2|a_l|, T).
    The complement of the eigendirections is the lambda = 0 member.
    `control` is None or what `min_energy_control(sys, x0)` returned (or a
    `functools.wraps` wrapper of it); its data are read, it is never called,
    and its values at the grid times are recorded.  Any other control raises
    TypeError.
    """
    if not isinstance(sys.kernel, StepGraphon):
        raise IncompatibleOperandsError(
            "simulation requires a step kernel; sinusoidal systems are handled "
            "analytically through their decomposition")
    law = None if control is None else inspect.unwrap(control)
    if law is not None and not (isinstance(law, MinEnergyControl)
                                and law.sys is sys and law.x0 is x0):
        raise TypeError("control must be None or the min_energy_control of "
                        "this system and initial state")
    if step is None:
        step = sys.horizon / 1000.0
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    times = np.linspace(0.0, sys.horizon, max(1, round(sys.horizon / step)) + 1)

    rates = sys.alpha0 + np.concatenate(([0.0], sys.modes.eigenvalues))
    if law is None:
        coords = sys.modes.coordinates(x0)
        residual = x0 - sys.modes.combine(coords)
        with np.errstate(over="ignore"):
            factors = np.exp(np.outer(times, rates))
    else:
        coords, residual = law.coords, law.residual
        factors = np.exp(np.outer(times, -np.abs(rates))) * _remaining_fraction(
            2.0 * np.abs(rates), times, sys.horizon)
    basis = np.repeat(sys.modes.basis, residual.num_blocks // sys.modes.basis.shape[0],
                      axis=0)
    states = _modal_sum(factors[:, 1:] * coords, factors[:, :1], basis, residual.values)
    controls = None if law is None else law.values_at(times, basis)
    return Trajectory(times, states, controls)


def _remaining_fraction(rates: np.ndarray, times: np.ndarray, horizon: float) -> np.ndarray:
    """G(-rate, horizon - t) / G(-rate, horizon) per time (rows) and rate (columns).

    Rates are nonnegative, so every factor lies in [0, 1] and the value at the
    horizon is exactly 0.
    """
    remaining = (horizon - times)[:, None]
    small = rates < RATE_EPS
    safe = np.where(small, 1.0, rates)
    fraction = np.expm1(-safe * remaining) / np.expm1(-safe * horizon)
    return np.where(small, remaining / horizon, fraction)


def _modal_sum(mode_values: np.ndarray, complement: np.ndarray, basis: np.ndarray,
               residual: np.ndarray) -> np.ndarray:
    """Block-value rows sum_l mode_values[k, l] f_l + complement[k] * residual.

    Non-finite inputs leave non-finite rows, without a warning; `Trajectory`
    rejects them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return mode_values @ basis.T + complement * residual


@dataclass(frozen=True, eq=False)
class GramianOperator:
    """Operator scalar*I + sum_l corrections[l] <., f_l> f_l (self-adjoint).

    The f_l are the orthonormal eigenfunctions of `modes`, the directions
    carrying the rank-one corrections; on their orthogonal complement the
    operator is pure scaling.
    """

    scalar: float
    corrections: np.ndarray
    modes: SpectralDecomposition

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.corrections, dtype=float))
        if c.size != self.modes.rank:
            raise ValueError("one correction per eigenfunction required")
        c.setflags(write=False)
        object.__setattr__(self, "corrections", c)

    @property
    def direction_values(self) -> np.ndarray:
        """Eigenvalues of the operator on the correction directions."""
        return self.scalar + self.corrections

    @property
    def spectral_lower_bound(self) -> float:
        values = self.direction_values
        return float(min(self.scalar, values.min())) if values.size else self.scalar

    def apply(self, z: Function) -> Function:
        coeffs = self.corrections * self.modes.coordinates(z)
        return self.scalar * z + self.modes.combine(coeffs)

    def compose(self, other: "GramianOperator") -> "GramianOperator":
        """Operator product of two operators over the same `modes`."""
        if other.modes is not self.modes:
            raise IncompatibleOperandsError("operators decompose over different modes")
        mixed = (self.scalar * other.corrections + other.scalar * self.corrections
                 + self.corrections * other.corrections)
        return GramianOperator(self.scalar * other.scalar, mixed, self.modes)

    def as_matrix(self) -> np.ndarray:
        """Matrix acting on block-value vectors (step-kernel systems only)."""
        if not isinstance(self.modes.source, StepGraphon):
            raise IncompatibleOperandsError("matrix form needs piecewise-constant modes")
        basis = self.modes.basis
        n = basis.shape[0]
        return self.scalar * np.eye(n) + (basis * (self.corrections / n)) @ basis.T

    def identity_deviation(self) -> float:
        dev = abs(self.scalar - 1.0)
        if self.corrections.size:
            dev = max(dev, float(np.abs(self.corrections).max()))
        return dev


def gramian(sys: GraphonSystem) -> GramianOperator:
    """Closed-form controllability Gramian over the horizon.

    Scalar part beta0^2 * integral of exp(2*alpha0*t); each eigendirection of
    the kernel carries the correction eta^2 * integral of
    exp(2*(alpha0+lambda)*t) minus the scalar part.
    """
    t = sys.horizon
    scalar = sys.beta0 ** 2 * growth_integral(2.0 * sys.alpha0, t)
    lams = sys.modes.eigenvalues
    etas = sys.mode_etas
    direction = np.array([eta ** 2 * growth_integral(2.0 * (sys.alpha0 + lam), t)
                          for lam, eta in zip(lams, etas)])
    return GramianOperator(scalar, direction - scalar, sys.modes)


def _steerable_gramian(sys: GraphonSystem) -> GramianOperator:
    """The Gramian, refused unless it is positive and finite on every direction.

    Requires beta0 != 0 (a compact input operator can never give exact
    controllability over a finite horizon) and every eigendirection excited
    (eta != 0, otherwise the Gramian is singular on that direction).
    """
    if sys.beta0 == 0.0:
        raise ExactControllabilityError(
            "beta0 = 0 leaves a compact input operator; the Gramian is not invertible")
    w = gramian(sys)
    for idx, value in enumerate(w.direction_values):
        if value <= 0.0 or not np.isfinite(value):
            raise ExactControllabilityError(
                f"Gramian vanishes on eigendirection {idx} "
                f"(lambda={sys.modes.eigenvalues[idx]:.6g}, "
                f"eta={sys.mode_etas[idx]:.6g})")
    return w


def gramian_inverse(sys: GraphonSystem) -> GramianOperator:
    """Closed-form inverse Gramian; composition with the Gramian is checked.

    Refused as in `_steerable_gramian`.
    """
    w = _steerable_gramian(sys)
    direction = w.direction_values
    inv = GramianOperator(1.0 / w.scalar, 1.0 / direction - 1.0 / w.scalar, w.modes)
    residual = w.compose(inv).identity_deviation()
    if residual > 1e-8:
        raise NumericsError(f"inverse Gramian composition residual {residual:.3e}")
    return inv


@dataclass(frozen=True)
class ControllabilityReport:
    """Verdict of the spectral exact-controllability test."""

    controllable: bool
    spectral_lower_bound: float
    identity_gain_nonzero: bool  # beta0 != 0, the necessary condition
    horizon: float


def exact_controllability_check(sys: GraphonSystem,
                                tolerance: float = 1e-12) -> ControllabilityReport:
    """Exact controllability via uniform positivity of the Gramian spectrum."""
    bound = gramian(sys).spectral_lower_bound
    nonzero_gain = sys.beta0 != 0.0
    return ControllabilityReport(bool(nonzero_gain and bound > tolerance),
                                 bound, nonzero_gain, sys.horizon)


@dataclass(frozen=True, eq=False)
class MinEnergyControl:
    """The control t -> u(t) that `min_energy_control` returns, with its modal data.

    u(t) = -B* exp(A*(T-t)) W^-1 exp(A*T) x0.  On eigendirection l its
    coordinate is -etas[l] exp((alpha0 + lambda_l) (2T - t)) coords[l] /
    directions[l], with coords the coordinates of x0 and directions the
    Gramian's values there.  On the complement it is
    -beta0 exp(alpha0 (2T - t)) / scalar times `residual`, the part of x0
    orthogonal to every eigenfunction.
    """

    sys: GraphonSystem
    x0: Function
    coords: np.ndarray
    residual: Function
    etas: np.ndarray
    directions: np.ndarray
    scalar: float

    def _gains(self, lead):
        """Eigendirection coordinates of u at the times 2T - lead (a scalar or a column)."""
        rates = self.sys.alpha0 + self.sys.modes.eigenvalues
        return -self.etas * np.exp(rates * lead) / self.directions * self.coords

    def __call__(self, t: float) -> Function:
        lead = 2.0 * self.sys.horizon - t
        return ((-self.sys.beta0 * math.exp(self.sys.alpha0 * lead) / self.scalar)
                * self.residual + self.sys.modes.combine(self._gains(lead)))

    def values_at(self, times: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Block values of u at each of `times` (rows); `basis` is the modal
        basis refined to the residual's partition."""
        lead = 2.0 * self.sys.horizon - times
        complement = -self.sys.beta0 * np.exp(self.sys.alpha0 * lead) / self.scalar
        return _modal_sum(self._gains(lead[:, None]), complement[:, None], basis,
                          self.residual.values)


def min_energy_control(sys: GraphonSystem, x0: Function):
    """Control steering x0 to the origin at the horizon with minimal energy.

    Returns (u, energy): u is a `MinEnergyControl`, the callable
    t -> -B* exp(A*(T-t)) W^-1 exp(A*T) x0 expanded over the kernel
    eigendirections, and energy is <exp(A*T) x0, W^-1 exp(A*T) x0>, the
    energy of that control.  Refused as in `_steerable_gramian`.
    """
    w = _steerable_gramian(sys)
    direction = w.direction_values
    t_final = sys.horizon
    lams = sys.modes.eigenvalues
    coords = sys.modes.coordinates(x0)
    residual = x0 - sys.modes.combine(coords)

    energy = (math.exp(2.0 * sys.alpha0 * t_final) * residual.l2_norm() ** 2 / w.scalar
              + float(np.sum(np.exp(2.0 * (sys.alpha0 + lams) * t_final)
                             * coords ** 2 / direction)))
    control = MinEnergyControl(sys, x0, coords, residual, sys.mode_etas, direction,
                               w.scalar)
    return control, float(energy)


def gramian_quadrature_matrix(sys: GraphonSystem, num_intervals: int = 2048) -> np.ndarray:
    """Simpson-rule Gramian matrix for step-kernel systems (verification path).

    Integrates exp(At) B B^T exp(A^T t) on the kernel partition; used to check
    the closed form, never to produce it.
    """
    if not isinstance(sys.kernel, StepGraphon):
        raise IncompatibleOperandsError("quadrature Gramian needs a step kernel")
    if num_intervals % 2:
        num_intervals += 1
    n = sys.kernel.num_blocks
    state_mat, input_mat = _system_matrices(sys, n)
    rates, basis = np.linalg.eigh(state_mat)
    bbt_eig = basis.T @ (input_mat @ input_mat.T) @ basis

    grid = np.linspace(0.0, sys.horizon, num_intervals + 1)
    weights = np.full(num_intervals + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= (grid[1] - grid[0]) / 3.0
    acc = np.zeros((n, n))
    for t, wgt in zip(grid, weights):
        gains = np.exp(rates * t)
        acc += wgt * (np.outer(gains, gains) * bbt_eig)
    return basis @ acc @ basis.T
