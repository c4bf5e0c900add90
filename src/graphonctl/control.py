"""Linear systems driven by graphon couplings: simulation, Gramians, steering.

A system pairs the state operator alpha0*I + A with the input operator
beta0*I + B where B is constrained to be a polynomial in the coupling kernel
A.  Under that constraint the controllability Gramian, its inverse and the
minimum-energy steering control all have closed forms over the spectral
decomposition of A, each one array expression over its complemented spectrum.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import ExactControllabilityError, IncompatibleOperandsError, NumericsError
from .functions import Function, PiecewiseConstantFunction
from .graphons import Graphon, StepGraphon
from .spectral import SpectralDecomposition, SpectralMultiplier, decompose


def growth_integral(rate, horizon):
    """G(rate, horizon), the integral of exp(rate * t) over [0, horizon], elementwise.

    The arguments broadcast.  The value is expm1(rate * horizon) / rate, and
    the horizon where |rate * horizon| is below the smallest normal float (0
    or subnormal), where that quotient loses its digits; a value beyond the
    float range is inf, without a warning.
    """
    with np.errstate(over="ignore"):
        exponent = np.multiply(rate, horizon)
        small = np.abs(exponent) < np.finfo(float).tiny
        growth = np.expm1(exponent) / np.where(small, 1.0, rate)
    return np.where(small, horizon, growth)[()]


@dataclass(frozen=True, eq=False)
class GraphonSystem:
    """State operator alpha0*I + A with input operator beta0*I + sum_k poly[k] A^k.

    `input_poly` holds the coefficients (beta_1, ..., beta_d) of the kernel
    polynomial part of the input operator; beta0 sits on the identity.
    `modes`, the spectral decomposition of the kernel, is `decompose(kernel)`
    unless one is given; a given one must be of this very kernel, else
    ValueError.  `gramian`, `exact_controllability_check` and `input_eta` read
    only its spectrum, so a values-only `decompose(kernel, vectors=False)`
    serves them; `simulate` and `min_energy_control` read its eigenfunctions.
    The input operator, `input_eta` over the complemented spectrum (beta0 at
    0), is computed once at construction.
    """

    alpha0: float
    beta0: float
    kernel: Graphon
    input_poly: tuple = ()
    horizon: float = 1.0
    modes: SpectralDecomposition | None = field(default=None, repr=False)
    input_operator: SpectralMultiplier = field(init=False, repr=False)

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        object.__setattr__(self, "input_poly",
                           tuple(float(b) for b in self.input_poly))
        if self.modes is None:
            object.__setattr__(self, "modes", decompose(self.kernel))
        elif self.modes.source is not self.kernel:
            raise ValueError("modes must be a decomposition of the system's own kernel")
        object.__setattr__(self, "input_operator", SpectralMultiplier(
            self.modes, self.input_eta(self.modes.spectrum)))

    def input_eta(self, eigenvalue):
        """Input-operator eigenvalue, elementwise: beta0 + sum_k beta_k lambda^k."""
        eta = np.full(np.shape(eigenvalue), self.beta0)
        with np.errstate(over="ignore", invalid="ignore"):  # `gramian` refuses an overflow
            for k, beta in enumerate(self.input_poly, start=1):
                eta = eta + beta * eigenvalue ** k
        return eta

    @property
    def mode_etas(self) -> np.ndarray:
        return self.input_operator.values[1:]


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

    rates = sys.alpha0 + sys.modes.spectrum
    if law is None:
        coords, residual = sys.modes.split(x0)
        with np.errstate(over="ignore"):
            factors = np.exp(np.outer(times, rates))
    else:
        coords, residual = law.coords, law.residual
        decay = -np.abs(rates)
        factors = np.exp(np.outer(times, decay)) * (
            growth_integral(2.0 * decay, (sys.horizon - times)[:, None])
            / growth_integral(2.0 * decay, sys.horizon))
    states = SpectralMultiplier(sys.modes, factors).apply_split(coords, residual.values)
    controls = None if law is None else law.gains(times).apply_split(coords, residual.values)
    return Trajectory(times, states, controls)


def gramian(sys: GraphonSystem) -> SpectralMultiplier:
    """Closed-form controllability Gramian over the horizon, a function of A.

    Its value at each lambda of the complemented spectrum is eta^2 times the
    integral of exp(2*(alpha0+lambda)*t), with eta the input operator's value
    there: beta0^2 * integral of exp(2*alpha0*t) on the complement.  A value
    beyond the float range raises NumericsError naming its first direction.
    """
    spectrum, etas = sys.modes.spectrum, sys.input_operator.values
    rates = 2.0 * (sys.alpha0 + spectrum)
    growth = growth_integral(rates, sys.horizon)
    if not np.isfinite(growth).all():
        idx = int(np.argmin(np.isfinite(growth)))
        raise NumericsError(f"exp({rates[idx] * sys.horizon:.6g}) exceeds the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        values = etas ** 2 * growth
    if not np.isfinite(values).all():
        idx = int(np.argmin(np.isfinite(values)))
        name = "the complement" if idx == 0 else f"eigendirection {idx - 1}"
        raise NumericsError(f"Gramian exceeds the float range on {name} "
                            f"(lambda={spectrum[idx]:.6g}, eta={etas[idx]:.6g})")
    return SpectralMultiplier(sys.modes, values)


def _steerable_gramian(sys: GraphonSystem) -> SpectralMultiplier:
    """The Gramian, refused unless it is positive on every direction.

    Requires beta0 != 0 (a compact input operator can never give exact
    controllability over a finite horizon) and every eigendirection excited
    (eta != 0, otherwise the Gramian is singular on that direction).
    """
    if sys.beta0 == 0.0:
        raise ExactControllabilityError(
            "beta0 = 0 leaves a compact input operator; the Gramian is not invertible")
    w = gramian(sys)
    failing = ~(w.values[1:] > 0.0)
    if failing.any():
        idx = int(np.argmax(failing))
        raise ExactControllabilityError(
            f"Gramian vanishes on eigendirection {idx} "
            f"(lambda={sys.modes.eigenvalues[idx]:.6g}, "
            f"eta={sys.mode_etas[idx]:.6g})")
    return w


def gramian_inverse(sys: GraphonSystem) -> SpectralMultiplier:
    """Closed-form inverse Gramian; composition with the Gramian is checked.

    Refused as in `_steerable_gramian`.
    """
    w = _steerable_gramian(sys)
    inv = SpectralMultiplier(w.modes, 1.0 / w.values)
    residual = float(np.abs(w.compose(inv).values - 1.0).max())
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
    bound = float(gramian(sys).values.min())
    nonzero_gain = sys.beta0 != 0.0
    return ControllabilityReport(bool(nonzero_gain and bound > tolerance),
                                 bound, nonzero_gain, sys.horizon)


@dataclass(frozen=True, eq=False)
class MinEnergyControl:
    """The control t -> u(t) that `min_energy_control` returns, with its modal data.

    u(t) = -B* exp(A*(T-t)) W^-1 exp(A*T) x0 is `gains(t)` applied to x0, the
    function -eta exp((alpha0 + lambda) (2T - t)) / w of A, with eta the input
    operator's and w the Gramian's values.  `coords` and `residual` are x0
    split over the eigenfunctions.
    """

    sys: GraphonSystem
    x0: Function
    coords: np.ndarray
    residual: Function
    gramian: SpectralMultiplier

    def gains(self, times) -> SpectralMultiplier:
        """The operator taking x0 to u(t), one row per time when `times` is an array."""
        lead = 2.0 * self.sys.horizon - np.asarray(times, dtype=float)[..., None]
        rates = self.sys.alpha0 + self.sys.modes.spectrum
        return SpectralMultiplier(self.sys.modes, -self.sys.input_operator.values
                                  * np.exp(rates * lead) / self.gramian.values)

    def __call__(self, t: float) -> Function:
        values = self.gains(t).values
        return float(values[0]) * self.residual + self.sys.modes.combine(values[1:] * self.coords)


def min_energy_control(sys: GraphonSystem, x0: Function):
    """Control steering x0 to the origin at the horizon with minimal energy.

    Returns (u, energy): u is a `MinEnergyControl`, the callable
    t -> -B* exp(A*(T-t)) W^-1 exp(A*T) x0 expanded over the kernel
    eigendirections, and energy is <exp(A*T) x0, W^-1 exp(A*T) x0>, the
    energy of that control.  Refused as in `_steerable_gramian`, and with
    NumericsError when the energy is beyond the float range.
    """
    w = _steerable_gramian(sys)
    coords, residual = sys.modes.split(x0)
    weights = np.concatenate(([residual.l2_norm() ** 2], coords ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(np.sum(np.exp(2.0 * (sys.alpha0 + sys.modes.spectrum) * sys.horizon)
                              * weights / w.values))
    if not np.isfinite(energy):
        raise NumericsError(f"steering energy is {energy}, beyond the float range")
    return MinEnergyControl(sys, x0, coords, residual, w), energy


def gramian_quadrature_matrix(sys: GraphonSystem, num_intervals: int = 2048) -> np.ndarray:
    """Simpson-rule Gramian matrix for step-kernel systems (verification path).

    Integrates exp(At) B B^T exp(A^T t) on the kernel partition; used to check
    the closed form, never to produce it.  In the eigenbasis of the state
    matrix, with E[k, i] = exp(r_i t_k) at the nodes t_k and Simpson weights
    w_k, the sum over nodes is one product: (E^T diag(w) E) times the rotated
    B B^T, entry by entry.
    """
    if not isinstance(sys.kernel, StepGraphon):
        raise IncompatibleOperandsError("quadrature Gramian needs a step kernel")
    if num_intervals % 2:
        num_intervals += 1
    n = sys.kernel.num_blocks
    a_op = sys.kernel.coeffs / n
    input_mat = sys.beta0 * np.eye(n)
    power = np.eye(n)
    for beta in sys.input_poly:
        power = power @ a_op
        input_mat = input_mat + beta * power
    rates, basis = np.linalg.eigh(sys.alpha0 * np.eye(n) + a_op)
    bbt_eig = basis.T @ (input_mat @ input_mat.T) @ basis

    grid = np.linspace(0.0, sys.horizon, num_intervals + 1)
    weights = np.full(num_intervals + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= (grid[1] - grid[0]) / 3.0
    gains = np.exp(np.outer(grid, rates))
    return basis @ (((gains.T * weights) @ gains) * bbt_eig) @ basis.T
