"""Epidemic regulation on contact networks via spectrally decoupled LQR.

The meta-population infection model is linearized around the origin and the
finite-horizon regulator splits, thanks to the cost being polynomial in the
contact operator, into one scalar Riccati equation per adjacency
eigendirection plus a single auxiliary equation on the orthogonal complement.
The auxiliary equation is the member of the same scalar family at eigenvalue
zero.  Every member is a constant-coefficient scalar Riccati equation with a
nonnegative quadratic coefficient and nonnegative weights, so the whole family
is evaluated in closed form, vectorized over directions and times.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericsError
from .functions import Function
from .graphons import Graphon, StepGraphon
from .integrate import rk4, stage_times
from .spectral import SpectralDecomposition, decompose
from .control import Trajectory, _modal_sum


@dataclass(frozen=True)
class RegulatorParams:
    """Scalars defining the linearized regulation problem.

    eta_total is the network-size-scaled infection strength (per-pair strength
    times node count); the Riccati equations consume it together with the
    normalized eigenvalues.
    """

    alpha0: float
    beta0: float
    eta_total: float
    state_weight: float = 2.0
    terminal_weight: float = 4.0
    horizon: float = 1.0

    def __post_init__(self):
        if self.terminal_weight < 0.0:
            raise ValueError("terminal_weight must be nonnegative")
        if self.state_weight < 0.0:
            raise ValueError("state_weight must be nonnegative")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True, eq=False)
class EpidemicModel:
    """Infection spread over a nonnegative contact kernel, with control gain beta0.

    Exactly one of `eta` (per-pair infection strength) and `eta_total` (= eta
    times node count) must be given; the other is derived.  `alpha` is the
    recovery rate of the nonlinear model and doubles as the linear drift
    coefficient, where negative values describe supercritical spread.
    """

    contact: StepGraphon
    alpha: float
    beta0: float = 1.0
    eta: float | None = None
    eta_total: float | None = None
    state_weight: float = 2.0
    terminal_weight: float = 4.0
    horizon: float = 1.0
    modes: SpectralDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        if self.contact.coeffs.min() < 0.0:
            raise ValueError("contact kernel must be nonnegative")
        n = self.contact.num_blocks
        if self.eta is None and self.eta_total is None:
            raise ValueError("one of eta or eta_total is required")
        if self.eta is None:
            object.__setattr__(self, "eta", self.eta_total / n)
        elif self.eta_total is None:
            object.__setattr__(self, "eta_total", self.eta * n)
        elif abs(self.eta_total - self.eta * n) > 1e-12 * max(1.0, abs(self.eta_total)):
            raise ValueError(f"eta_total={self.eta_total} inconsistent with "
                             f"eta*N={self.eta * n}")
        object.__setattr__(self, "modes", decompose(self.contact))

    @property
    def num_nodes(self) -> int:
        return self.contact.num_blocks

    @property
    def adjacency(self) -> np.ndarray:
        """Unscaled contact matrix."""
        return self.contact.coeffs

    def regulator_params(self) -> RegulatorParams:
        return RegulatorParams(self.alpha, self.beta0, self.eta_total,
                               self.state_weight, self.terminal_weight, self.horizon)


def stability_threshold(model: EpidemicModel) -> tuple[float, bool]:
    """Largest adjacency eigenvalue and whether uncontrolled spread dies out.

    The origin of the nonlinear model is globally asymptotically stable
    exactly when alpha >= eta * lambda_max(adjacency).
    """
    positive = model.modes.positive_eigenvalues
    lambda_max = float(positive[0] * model.num_nodes) if positive.size else 0.0
    return lambda_max, bool(model.alpha >= model.eta * lambda_max)


def _riccati_coefficients(params: RegulatorParams, lams: np.ndarray):
    """h, b, c, c+h and c-h of the scalar Riccati family, one entry per lams entry.

    h = alpha0 - eta_total*lam, b = beta0^2 / ((lam-1)^2 + 1) and
    c = sqrt(h^2 + b q).  Of c+h and c-h, whose product is b q, the one that
    would cancel is formed as a quotient, so both are nonnegative.
    """
    q = params.state_weight
    h = params.alpha0 - params.eta_total * lams
    b = params.beta0 ** 2 / (lams ** 2 - 2.0 * lams + 2.0)
    c = np.sqrt(h * h + b * q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c_plus = np.where(h < 0.0, b * q / (c - h), c + h)
        c_minus = np.where(h > 0.0, b * q / (c + h), c - h)
    return h, b, c, c_plus, c_minus


def _riccati_values(params: RegulatorParams, lams: np.ndarray, t) -> np.ndarray:
    """pi(t) of pi' = 2h pi + b pi^2 - q, pi(horizon) = q_T, one column per lams entry.

    With h, b and c from `_riccati_coefficients`, tau = horizon - t and
    e = exp(-2c tau) the solution is N(tau) / D(tau), where
    N = q_T (c-h) + e q_T (c+h) + q (1-e) and D = (c+h) + e (c-h) + b q_T (1-e);
    every term is nonnegative.  The numerator is homogeneous in the weights,
    so it takes them as fractions of the larger one and tiny weights do not
    underflow; accuracy holds while b q and b q_T are zero or normal floats.
    c = 0 leaves the rational limit (q_T + q tau) / (1 + b q_T tau).  `t` is a
    scalar or a 1-D array of times (one row each).
    """
    q, q_terminal = params.state_weight, params.terminal_weight
    scale = max(q, q_terminal)
    tau = params.horizon - np.asarray(t, dtype=float)[..., None]
    if scale == 0.0:
        return np.zeros(np.broadcast_shapes(tau.shape, lams.shape))
    _, b, c, c_plus, c_minus = _riccati_coefficients(params, lams)
    w, w_terminal = q / scale, q_terminal / scale
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rate = -2.0 * c * tau
        e = np.exp(rate)
        e_bar = -np.expm1(rate)
        pi = scale * ((w_terminal * c_minus + e * (w_terminal * c_plus) + w * e_bar)
                      / (c_plus + e * c_minus + (b * q_terminal) * e_bar))
        critical = (q_terminal + q * tau) / (1.0 + (b * q_terminal) * tau)
    return np.where(c == 0.0, critical, pi)


def _closed_loop_decay(params: RegulatorParams, lams: np.ndarray,
                       times: np.ndarray) -> np.ndarray:
    """y(t) / y(0) of y' = -(h + b pi(t)) y, one row per time and column per lams entry.

    This is exp(-c t) D(T - t) / D(T) with D the denominator of
    `_riccati_values`, expanded into nonnegative terms with one exponential
    each.  c = 0 leaves (1 + b q_T (T - t)) / (1 + b q_T T).  Where
    c+h + b q_T = 0, pi vanishes or b does, and the loop is the open one,
    exp(-h t); the general form would be 0/0 there once exp(-2cT) underflows.
    """
    h, b, c, c_plus, c_minus = _riccati_coefficients(params, lams)
    horizon = params.horizon
    terminal = b * params.terminal_weight
    t = times[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        numerator = (np.exp(-c * t) * (c_plus - terminal * np.expm1(-2.0 * c * (horizon - t)))
                     + np.exp(-c * (2.0 * horizon - t)) * c_minus)
        denominator = (c_plus - terminal * np.expm1(-2.0 * c * horizon)
                       + np.exp(-2.0 * c * horizon) * c_minus)
        general = numerator / denominator
        critical = (1.0 + terminal * (horizon - t)) / (1.0 + terminal * horizon)
        open_loop = np.exp(-h * t)
    return np.where(c_plus + terminal == 0.0, open_loop,
                    np.where(c == 0.0, critical, general))


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Riccati family tabulated in closed form: auxiliary plus one column per eigendirection.

    times ascend from 0 to the horizon; modes[k, l] is the l-th eigendirection
    value at times[k] and eigenvalues[l] the matching normalized eigenvalue.
    `value_at` evaluates the closed form at any time, off the table's grid too.
    """

    times: np.ndarray
    auxiliary: np.ndarray
    modes: np.ndarray
    eigenvalues: np.ndarray
    params: RegulatorParams

    def value_at(self, t: float) -> tuple[float, np.ndarray]:
        values = _riccati_values(self.params,
                                 np.concatenate(([0.0], self.eigenvalues)), t)
        return float(values[0]), values[1:]

    @property
    def quadratic_denominators(self) -> np.ndarray:
        """Control-weight denominators lambda^2 - 2*lambda + 2 per eigendirection."""
        return self.eigenvalues ** 2 - 2.0 * self.eigenvalues + 2.0


def _solve_family(params: RegulatorParams, eigenvalues: np.ndarray,
                  num_steps: int) -> RiccatiSolution:
    """Riccati family on num_steps + 1 uniform times; index 0 is the auxiliary.

    Only a direction whose true solution exceeds the float range (zero control
    gain on a supercritical direction) leaves a non-finite column; it aborts.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    lams = np.concatenate(([0.0], eigenvalues))
    times = np.linspace(0.0, params.horizon, num_steps + 1)
    table = _riccati_values(params, lams, times)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        idx = int(np.argmin(finite))
        which = "auxiliary direction" if idx == 0 else \
            f"eigendirection with eigenvalue {lams[idx]:.6g}"
        raise NumericsError(f"Riccati blow-up in the {which}")
    return RiccatiSolution(times, np.ascontiguousarray(table[:, 0]),
                           np.ascontiguousarray(table[:, 1:]),
                           np.array(eigenvalues, dtype=float), params)


def solve_riccati_finite(model: EpidemicModel,
                         num_steps: int = 10_000) -> RiccatiSolution:
    """Riccati family for the finite network, one equation per nonzero eigenvalue.

    Eigenvalues enter normalized by the node count, exactly as the pixel
    graphon of the adjacency produces them, so this shares every float with
    `solve_riccati_graphon` on that graphon.
    """
    return _solve_family(model.regulator_params(), model.modes.eigenvalues,
                         num_steps)


def solve_riccati_graphon(kernel: Graphon, params: RegulatorParams,
                          num_steps: int = 10_000) -> RiccatiSolution:
    """Riccati family for a graphon limit, one equation per nonzero eigenvalue."""
    return _solve_family(params, decompose(kernel).eigenvalues, num_steps)


def optimal_control_finite(model: EpidemicModel, sol: RiccatiSolution,
                           state: np.ndarray, t: float) -> np.ndarray:
    """Optimal vaccination/medication rates at time t for the linearized model.

    Feedback mixes a uniform term on the state with per-eigendirection
    corrections on its projections.  (Stabilizing sign, which is the negation
    of one common statement of this law; validated against a full-matrix
    regulator.)
    """
    aux, pis = sol.value_at(t)
    half, gains = _feedback_gains(model, sol, aux, pis)
    basis = model.modes.basis
    return -half * np.asarray(state, dtype=float) - basis @ (gains * (basis.T @ state))


def _feedback_gains(model: EpidemicModel, sol: RiccatiSolution, aux, pis):
    """Uniform half-gain and per-eigendirection gains of the finite feedback.

    `aux` and `pis` are Riccati values at one time (a scalar and an r-vector)
    or at K times (shapes (K, 1) and (K, r)); the arithmetic is the same.
    """
    half = 0.5 * model.beta0 * aux
    # basis columns have Euclidean norm sqrt(N), so each projector carries 1/N
    gains = (model.beta0 * pis / sol.quadratic_denominators - half) / model.num_nodes
    return half, gains


def optimal_control_graphon(kernel: Graphon, sol: RiccatiSolution,
                            state: Function, t: float, beta0: float,
                            modes: SpectralDecomposition | None = None) -> Function:
    """Graphon-limit version of the feedback, acting on L2 functions."""
    if modes is None:
        modes = decompose(kernel)
    aux, pis = sol.value_at(t)
    half = 0.5 * beta0 * aux
    gains = beta0 * pis / sol.quadratic_denominators - half
    return -half * state - modes.combine(gains * modes.coordinates(state))


@dataclass(frozen=True, eq=False)
class FeedbackLaw:
    """Closed-loop control law (t, state) -> control vector of `linear_feedback`.

    The gains depend on time only.  On its first call the law tabulates them,
    in one vectorized Riccati evaluation, at every distinct time at which `rk4`
    evaluates a field over num_steps steps of the horizon.  At a tabulated
    time a call is two matvecs; at any other time it calls
    `optimal_control_finite`.  Both routes give the same bits.
    `simulate_linearized` reads `model` and `sol` instead of calling it.
    """

    model: EpidemicModel
    sol: RiccatiSolution
    num_steps: int = 1000

    @cached_property
    def _table(self):
        times = np.unique(np.concatenate(stage_times(0.0, self.model.horizon,
                                                     self.num_steps)))
        values = _riccati_values(self.sol.params,
                                 np.concatenate(([0.0], self.sol.eigenvalues)), times)
        halves, gains = _feedback_gains(self.model, self.sol, values[:, :1], values[:, 1:])
        return times, halves[:, 0], gains

    def __call__(self, t: float, state: np.ndarray) -> np.ndarray:
        times, halves, gains = self._table
        row = np.searchsorted(times, t)
        if row == times.size or times[row] != t:
            return optimal_control_finite(self.model, self.sol, state, t)
        basis = self.model.modes.basis
        return (-halves[row] * np.asarray(state, dtype=float)
                - basis @ (gains[row] * (basis.T @ state)))


def linear_feedback(model: EpidemicModel, sol: RiccatiSolution,
                    num_steps: int = 1000) -> FeedbackLaw:
    """Optimal closed-loop law of the linearized model, for simulations of num_steps steps."""
    return FeedbackLaw(model, sol, num_steps)


def simulate_linearized(model: EpidemicModel, p0: np.ndarray, control=None,
                        num_steps: int = 1000) -> Trajectory:
    """Linearized spread dp = (-alpha0 I + eta A) p + beta0 u(t, p), in closed form.

    States (and, under feedback, controls) are sampled at num_steps + 1
    uniform times.  Each eigen-coordinate y_l solves a scalar linear ODE, and
    the complement of the eigendirections is its eigenvalue-zero member.
    With h, b, c and D as in `_riccati_values`, the open loop has
    y_l(t) = exp(-h_l t) y_l(0), and under the optimal feedback
    y_l(t) = y_l(0) exp(-c_l t) D_l(T - t) / D_l(T), with control
    -beta0 pi_l(t) / (lambda_l^2 - 2 lambda_l + 2) y_l(t) on that direction.
    `control` is None or a `linear_feedback` law for this model and its
    regulator parameters (or a `functools.wraps` wrapper of one), whose
    Riccati solution is read, never called; any other control raises
    TypeError.
    """
    law = None if control is None else inspect.unwrap(control)
    params = model.regulator_params()
    if law is not None:
        if not (isinstance(law, FeedbackLaw) and law.model is model):
            raise TypeError("control must be None or a linear_feedback law for this model")
        if not (law.sol.params == params
                and np.array_equal(law.sol.eigenvalues, model.modes.eigenvalues)):
            raise ValueError("the feedback's Riccati solution belongs to another model")
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    times = np.linspace(0.0, model.horizon, num_steps + 1)
    p0 = np.asarray(p0, dtype=float)
    basis = model.modes.basis
    coords = basis.T @ p0 / model.num_nodes
    residual = p0 - basis @ coords
    lams = np.concatenate(([0.0], model.modes.eigenvalues))
    if law is None:
        with np.errstate(over="ignore"):
            decay = np.exp(-np.outer(times, params.alpha0 - params.eta_total * lams))
    else:
        decay = _closed_loop_decay(params, lams, times)
    states = _modal_sum(decay[:, 1:] * coords, decay[:, :1], basis, residual)
    controls = None
    if law is not None:
        gains = (-model.beta0 * _riccati_values(params, lams, times)
                 / (lams ** 2 - 2.0 * lams + 2.0) * decay)
        controls = _modal_sum(gains[:, 1:] * coords, gains[:, :1], basis, residual)
    return Trajectory(times, states, controls)


def simulate_nonlinear(model: EpidemicModel, p0: np.ndarray, control=None,
                       num_steps: int = 1000) -> Trajectory:
    """Nonlinear spread dp_i = -alpha p_i + eta (1-p_i) sum_j a_ij p_j + beta0 u_i.

    Initial fractions must lie in [0,1].  States escaping [-0.1, 1.1] mark the
    trajectory with `range_warning` (the meta-population reading breaks down)
    but do not abort.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.min() < 0.0 or p0.max() > 1.0:
        raise ValueError("initial infected fractions must lie in [0, 1]")
    adjacency = model.adjacency

    if control is None:
        def fn(t, p):
            return -model.alpha * p + model.eta * (1.0 - p) * (adjacency @ p)
    else:
        def fn(t, p):
            return (-model.alpha * p + model.eta * (1.0 - p) * (adjacency @ p)
                    + model.beta0 * control(t, p))

    with np.errstate(over="ignore", invalid="ignore"):  # rk4 reports a non-finite state
        times, states = rk4(fn, 0.0, model.horizon, p0, num_steps)
    out_of_range = bool(states.min() < -0.1 or states.max() > 1.1)
    if out_of_range:
        warnings.warn("infection fractions left [-0.1, 1.1]; the model "
                      "interpretation is unreliable", RuntimeWarning)
    controls = None
    if control is not None:
        controls = np.stack([control(t, p) for t, p in zip(times, states)])
    return Trajectory(times, states, controls, range_warning=out_of_range)


def closed_loop_cost(model: EpidemicModel, trajectory: Trajectory,
                     controls: np.ndarray | None = None) -> float:
    """Quadratic cost: state weight, control effort, and neighbor-equity penalty.

    The running integrand is q_t |p|^2 + |u|^2 + |(I - A/N) u|^2 in Euclidean
    norms, integrated by the trapezoid rule on the trajectory grid, plus the
    terminal term q_T |p_T|^2.  A zero weight contributes exactly 0, even
    where its squared norm overflows; an overflowing sum is inf, without a
    warning.
    """
    if controls is None:
        controls = trajectory.controls
    if controls is None:
        controls = np.zeros_like(trajectory.states)
    states = trajectory.states
    averaging = np.eye(model.num_nodes) - model.adjacency / model.num_nodes
    with np.errstate(over="ignore"):
        weighted = (model.state_weight * np.sum(states ** 2, axis=1)
                    if model.state_weight else 0.0)
        running = (weighted + np.sum(controls ** 2, axis=1)
                   + np.sum((controls @ averaging.T) ** 2, axis=1))
        terminal = (model.terminal_weight * float(np.sum(states[-1] ** 2))
                    if model.terminal_weight else 0.0)
        return float(np.trapezoid(running, trajectory.times) + terminal)


@dataclass(frozen=True, eq=False)
class ProjectionReport:
    """States and controls split into eigendirection projections plus residuals.

    state_coefficients[k, l] is the Euclidean projection of the state at
    times[k] onto eigenvector l; auxiliary arrays hold what remains after all
    projections are removed.
    """

    times: np.ndarray
    eigenvalues: np.ndarray
    state_coefficients: np.ndarray
    auxiliary_states: np.ndarray
    control_coefficients: np.ndarray | None = None
    auxiliary_controls: np.ndarray | None = None

    def reconstruction_error(self, states: np.ndarray,
                             basis: np.ndarray) -> float:
        rebuilt = self.state_coefficients @ basis.T + self.auxiliary_states
        return float(np.abs(rebuilt - states).max())


def project_trajectories(trajectory: Trajectory,
                         decomposition: SpectralDecomposition,
                         controls: np.ndarray | None = None) -> ProjectionReport:
    """Split a trajectory into eigenstates, eigencontrols and auxiliary parts."""
    n = trajectory.num_blocks
    if not isinstance(decomposition.source, StepGraphon) or decomposition.basis.shape[0] != n:
        raise ValueError("decomposition partition does not match the trajectory")
    basis = decomposition.basis / np.sqrt(n)
    if controls is None:
        controls = trajectory.controls
    state_coeffs = trajectory.states @ basis
    aux_states = trajectory.states - state_coeffs @ basis.T
    control_coeffs = aux_controls = None
    if controls is not None:
        control_coeffs = controls @ basis
        aux_controls = controls - control_coeffs @ basis.T
    return ProjectionReport(trajectory.times, decomposition.eigenvalues,
                            state_coeffs, aux_states, control_coeffs, aux_controls)
