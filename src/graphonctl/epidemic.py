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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericsError
from .functions import PiecewiseConstantFunction
from .graphons import Graphon, StepGraphon
from .integrate import lawson_rk4
from .spectral import (SpectralDecomposition, SpectralMultiplier, _ROW_BLOCK, _modal_rows,
                       decompose)
from .control import Trajectory, growth_integral


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
    would cancel is formed as a quotient, so both are nonnegative.  Where b q is
    0, c is |h| itself: the bits of sqrt(h * h) unless h * h underflows or
    overflows, where c - h or c + h would no longer be 2|h|.
    """
    q = params.state_weight
    h = params.alpha0 - params.eta_total * lams
    b = params.beta0 * params.beta0 / (lams ** 2 - 2.0 * lams + 2.0)
    c = np.where(b * q == 0.0, np.abs(h), np.sqrt(h * h + b * q))
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


def _modal_transition(params: RegulatorParams, lams: np.ndarray, start, stop,
                      closed: bool) -> np.ndarray:
    """y(stop) / y(start) of y' = -(h + b pi(t)) y, or of y' = -h y unless `closed`.

    One column per lams entry and one row per time of `start` and `stop`
    (scalars or 1-D arrays).  With s = stop - start the open loop moves by
    exp(-h s), the closed one by exp(-c s) D(T - stop) / D(T - start) with D
    the denominator of `_riccati_values`, in nonnegative terms with one
    exponential each, so it stays bounded where D underflows; c = 0 leaves
    (1 + b q_T (T - stop)) / (1 + b q_T (T - start)).  Where c+h + b q_T = 0
    the loop is the open one, and the general form would be 0/0.
    """
    h, b, c, c_plus, c_minus = _riccati_coefficients(params, lams)
    start = np.asarray(start, dtype=float)[..., None]
    stop = np.asarray(stop, dtype=float)[..., None]
    t = stop - start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        open_loop = np.exp(-h * t)
        if not closed:
            return open_loop
        horizon = params.horizon
        terminal = b * params.terminal_weight
        numerator = (np.exp(-c * t) * (c_plus - terminal * np.expm1(-2.0 * c * (horizon - stop)))
                     + np.exp(-c * (2.0 * (horizon - start) - t)) * c_minus)
        denominator = (c_plus - terminal * np.expm1(-2.0 * c * (horizon - start))
                       + np.exp(-2.0 * c * (horizon - start)) * c_minus)
        general = numerator / denominator
        critical = (1.0 + terminal * (horizon - stop)) / (1.0 + terminal * (horizon - start))
    return np.where(c_plus + terminal == 0.0, open_loop,
                    np.where(c == 0.0, critical, general))


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Riccati family tabulated in closed form, one column per member of `spectrum`.

    times ascend from 0 to the horizon; table[k, l] is the value at times[k]
    for the normalized eigenvalue spectrum[l], the complemented spectrum
    [0, lambda_1..lambda_r].  Column 0 is the auxiliary; `auxiliary`, `modes`
    and `eigenvalues` read the table and the spectrum without it.  `values`
    evaluates the closed form at any time, off the table's grid too.
    """

    times: np.ndarray
    table: np.ndarray
    spectrum: np.ndarray
    params: RegulatorParams

    @property
    def auxiliary(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def modes(self) -> np.ndarray:
        return self.table[:, 1:]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum[1:]

    def values(self, t) -> np.ndarray:
        """`_riccati_values` at `t`, auxiliary in column 0; on the table's own
        grid the table is read instead, which holds the same floats."""
        if np.array_equal(t, self.times):
            return self.table
        return _riccati_values(self.params, self.spectrum, t)


def _uniform_times(horizon: float, num_steps: int) -> np.ndarray:
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    return np.linspace(0.0, horizon, num_steps + 1)


def _solve_family(params: RegulatorParams, spectrum: np.ndarray,
                  num_steps: int) -> RiccatiSolution:
    """Riccati family over the complemented spectrum on num_steps + 1 uniform times.

    Only a direction whose true solution exceeds the float range (zero control
    gain on a supercritical direction) leaves a non-finite column; it aborts.
    """
    times = _uniform_times(params.horizon, num_steps)
    table = _riccati_values(params, spectrum, times)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        idx = int(np.argmin(finite))
        which = "auxiliary direction" if idx == 0 else \
            f"eigendirection with eigenvalue {spectrum[idx]:.6g}"
        raise NumericsError(f"Riccati blow-up in the {which}")
    table.setflags(write=False)
    return RiccatiSolution(times, table, spectrum, params)


def solve_riccati_finite(model: EpidemicModel,
                         num_steps: int = 10_000) -> RiccatiSolution:
    """Riccati family for the finite network, one equation per nonzero eigenvalue.

    Eigenvalues enter normalized by the node count, exactly as the pixel
    graphon of the adjacency produces them, so this shares every float with
    `solve_riccati_graphon` on that graphon.
    """
    return _solve_family(model.regulator_params(), model.modes.spectrum, num_steps)


def solve_riccati_graphon(kernel: Graphon, params: RegulatorParams,
                          num_steps: int = 10_000) -> RiccatiSolution:
    """Riccati family for a graphon limit, one equation per nonzero eigenvalue."""
    return _solve_family(params, decompose(kernel).spectrum, num_steps)


def _feedback(modes: SpectralDecomposition, sol: RiccatiSolution, t) -> SpectralMultiplier:
    """The optimal control per unit state at `t`, the function
    -beta0 pi(t) / (lambda^2 - 2 lambda + 2) of the contact operator."""
    lams = sol.spectrum
    return SpectralMultiplier(
        modes, -sol.params.beta0 * sol.values(t) / (lams ** 2 - 2.0 * lams + 2.0))


def optimal_control_finite(model: EpidemicModel, sol: RiccatiSolution,
                           state: np.ndarray, t: float) -> np.ndarray:
    """Optimal vaccination/medication rates at time t for the linearized model.

    Feedback mixes a uniform term on the state with per-eigendirection
    corrections on its projections.  (Stabilizing sign, which is the negation
    of one common statement of this law; validated against a full-matrix
    regulator.)  A `sol` of another model raises ValueError.
    """
    _require_own_solution(model, sol)
    return _feedback(model.modes, sol, t).apply(np.asarray(state, dtype=float))


@dataclass(frozen=True, eq=False)
class FeedbackLaw:
    """Closed-loop control law (t, state) -> control vector of `linear_feedback`.

    A call is `optimal_control_finite`.  The simulations read `model` and `sol`
    instead: they move the closed loop by its closed-form modal transitions.
    """

    model: EpidemicModel
    sol: RiccatiSolution

    def __call__(self, t: float, state: np.ndarray) -> np.ndarray:
        return optimal_control_finite(self.model, self.sol, state, t)


def linear_feedback(model: EpidemicModel, sol: RiccatiSolution) -> FeedbackLaw:
    """Optimal closed-loop law of the linearized model."""
    return FeedbackLaw(model, sol)


def _require_own_solution(model: EpidemicModel, sol: RiccatiSolution):
    """Raise ValueError unless `sol` was solved for `model`'s regulator and spectrum."""
    if not (sol.params == model.regulator_params()
            and np.array_equal(sol.eigenvalues, model.modes.eigenvalues)):
        raise ValueError("the Riccati solution belongs to another model")


def _own_law(model: EpidemicModel, control) -> FeedbackLaw | None:
    """This model's `linear_feedback` law behind `control` (unwrapped), or None."""
    law = None if control is None else inspect.unwrap(control)
    if not (isinstance(law, FeedbackLaw) and law.model is model):
        return None
    _require_own_solution(model, law.sol)
    return law


@dataclass(frozen=True, eq=False, kw_only=True)
class ModalTrajectory(Trajectory):
    """A `simulate_linearized` trajectory together with the closed-form factors it sums.

    With coordinates = basis.T p0 / N and residual = p0 - basis @ coordinates
    (the part of p0 orthogonal to every eigendirection), states[k] is
    basis @ (decay[k, 1:] * coordinates) + decay[k, 0] * residual, and
    controls[k] the same sum over `gains` (None in the open loop).  Column 0
    of `decay` and `gains` is the complement's eigenvalue-zero member, so the
    complement trajectory is the rank-one decay[:, 0] (outer) residual.
    """

    coordinates: np.ndarray
    residual: np.ndarray
    decay: np.ndarray
    gains: np.ndarray | None = None

    @property
    def eigenstates(self) -> np.ndarray:
        """Euclidean projections of the states on the unit eigenvectors basis / sqrt(N)."""
        return self.decay[:, 1:] * (np.sqrt(self.num_blocks) * self.coordinates)

    @property
    def eigencontrols(self) -> np.ndarray | None:
        """Euclidean projections of the controls on the unit eigenvectors basis / sqrt(N)."""
        if self.gains is None:
            return None
        return self.gains[:, 1:] * (np.sqrt(self.num_blocks) * self.coordinates)


def simulate_linearized(model: EpidemicModel, p0: np.ndarray, control=None,
                        num_steps: int = 1000) -> ModalTrajectory:
    """Linearized spread dp = (-alpha0 I + eta A) p + beta0 u(t, p), in closed form.

    States (and, under feedback, controls) are sampled at num_steps + 1
    uniform times.  Each eigen-coordinate y_l solves a scalar linear ODE, and
    the complement of the eigendirections is its eigenvalue-zero member; it
    moves by `_modal_transition` from 0: exp(-h_l t) in the open loop and
    exp(-c_l t) D_l(T - t) / D_l(T) under the optimal feedback (h, b, c and D
    as in `_riccati_values`), whose control on that direction is
    -beta0 pi_l(t) / (lambda_l^2 - 2 lambda_l + 2) y_l(t).  The result keeps
    these per-direction factors (`ModalTrajectory`).  `control` is None
    or this model's `linear_feedback` law (or a `functools.wraps` wrapper of
    one), whose Riccati solution is read, never called; any other control
    raises TypeError, and a law with another model's solution ValueError.
    """
    law = _own_law(model, control)
    if control is not None and law is None:
        raise TypeError("control must be None or a linear_feedback law for this model")
    modes = model.modes
    times = _uniform_times(model.horizon, num_steps)
    coords, residual = _split(model, p0)
    decay = SpectralMultiplier(modes, _modal_transition(
        model.regulator_params(), modes.spectrum, 0.0, times, law is not None))
    states = decay.apply_split(coords, residual)
    controls = gains = None
    if law is not None:
        closed = _feedback(modes, law.sol, times).compose(decay)
        controls, gains = closed.apply_split(coords, residual), closed.values
    return ModalTrajectory(times, states, controls, coordinates=coords,
                           residual=residual, decay=decay.values, gains=gains)


def _split(model: EpidemicModel, p0) -> tuple[np.ndarray, np.ndarray]:
    """`modes.split` of p0, one value per node (else ValueError), the residual as node values."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (model.num_nodes,):
        raise ValueError(f"p0 has shape {p0.shape}; the network has {model.num_nodes} nodes")
    coords, residual = model.modes.split(PiecewiseConstantFunction(p0))
    return coords, residual.values


def simulate_nonlinear(model: EpidemicModel, p0: np.ndarray, control=None,
                       num_steps: int = 1000) -> Trajectory:
    """Nonlinear spread dp_i = -alpha p_i + eta (1-p_i) sum_j a_ij p_j + beta0 u_i.

    p' = L(t) p + N(t, p) with N = -eta p∘(A p) and L the loop of
    `simulate_linearized`: closed under this model's `linear_feedback` law
    (refused as there if its Riccati solution is another's), open otherwise,
    when any other control joins N.  `lawson_rk4` moves L by its modal
    transitions and steps N, except that a mode L grows over a step (rate g)
    joins N as +g p_l: exact growth against N's saturation at -2g is unstable
    from g h ~ 1, RK4 up to g h ~ 2.8.  Initial fractions must lie in [0,1].
    States escaping [-0.1, 1.1] set `range_warning` but do not abort.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.min() < 0.0 or p0.max() > 1.0:
        raise ValueError("initial infected fractions must lie in [0, 1]")
    law = _own_law(model, control)
    forcing = None if law is not None else control
    params, modes = model.regulator_params(), model.modes
    times = _uniform_times(model.horizon, num_steps)
    step = model.horizon / num_steps
    mids = times[:-1] + 0.5 * step
    adjacency, neg_eta, basis = model.adjacency, -model.eta, modes.basis

    def nonlinear(k, t, p):
        rate = neg_eta * p
        rate *= adjacency @ p
        if grows[k]:
            rate += growth.apply(p, k)
        return rate if forcing is None else rate + model.beta0 * forcing(t, p)

    def propagate(k, half, pair):
        table = halves[half]
        return _modal_rows(basis, table.item(k, 0), table[k, 1:], pair)

    with np.errstate(over="ignore", invalid="ignore"):  # Trajectory reports a non-finite state
        # one table per half-step transition, read by row in every RK stage
        halves = (_modal_transition(params, modes.spectrum, times[:-1], mids, law is not None),
                  _modal_transition(params, modes.spectrum, mids, times[1:], law is not None))
        rates = np.log(np.maximum(halves[0] * halves[1], 1.0)) / step
        for table in halves:
            # in place, each row becomes its lead and its lead-subtracted modes, the
            # operands of SpectralMultiplier.apply's row product
            table *= np.exp(-0.5 * step * rates)
            table[:, 1:] -= table[:, :1]
        growth, grows = SpectralMultiplier(modes, rates), rates.any(axis=1).tolist()
        states = lawson_rk4(propagate, nonlinear, times, p0)
        trajectory = Trajectory(times, states,
                                range_warning=bool(states.min() < -0.1 or states.max() > 1.1))
        controls = None
        if law is not None:
            controls = _feedback(modes, law.sol, times).apply(states)
        elif forcing is not None:
            controls = np.stack([forcing(t, p) for t, p in zip(times, states)])
    if trajectory.range_warning:
        warnings.warn("infection fractions left [-0.1, 1.1]; the model "
                      "interpretation is unreliable", RuntimeWarning)
    return replace(trajectory, controls=controls)


def linear_costs(model: EpidemicModel, p0: np.ndarray) -> tuple[float, float]:
    """Exact (optimal, zero_control) costs of the linearized regulator from p0.

    Each direction costs its weight w times a scalar: w = |r|^2 on the
    complement and N c_l^2 along mode l, with c = basis.T p0 / N and
    r = p0 - basis @ c.  Under the optimal feedback the scalar is the value
    pi(0) of `_riccati_values`, so the sum is p0' Pi(0) p0.  Without control
    each direction decays as exp(-h t), and the scalar is
    q G(-2h, T) + q_T exp(-2h T), with G(a, T) = `growth_integral`, the
    integral of exp(a t) over [0, T].  A zero weight, q or q_T adds exactly
    0; an overflowing sum is inf, without a warning.
    """
    params = model.regulator_params()
    q, q_terminal, horizon = params.state_weight, params.terminal_weight, params.horizon
    coords, residual = _split(model, p0)
    weights = np.concatenate(([residual @ residual], model.num_nodes * coords ** 2))
    lams = model.modes.spectrum
    rate = -2.0 * _riccati_coefficients(params, lams)[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        idle = ((q * growth_integral(rate, horizon) if q else 0.0)
                + (q_terminal * np.exp(rate * horizon) if q_terminal else 0.0))
        scalars = np.stack(np.broadcast_arrays(_riccati_values(params, lams, 0.0), idle))
        terms = np.where((weights == 0.0) | (scalars == 0.0), 0.0, weights * scalars)
        optimal, zero_control = terms.sum(axis=1)
    return float(optimal), float(zero_control)


def closed_loop_cost(model: EpidemicModel, trajectory: Trajectory) -> float:
    """Quadratic cost: state weight, control effort, and neighbor-equity penalty.

    The running integrand is q_t |p|^2 + |u|^2 + |(I - A/N) u|^2 in Euclidean
    norms, integrated by the trapezoid rule on the trajectory grid, plus the
    terminal term q_T |p_T|^2.  A zero weight contributes exactly 0, even
    where its squared norm overflows; an overflowing sum is inf, without a
    warning.  The integrand is reduced _ROW_BLOCK rows at a time, so no temporary is
    as large as the trajectory; each row's sums are the ones the whole table gives.
    """
    controls = trajectory.controls
    if controls is None:
        controls = np.zeros_like(trajectory.states)
    states = trajectory.states
    n = model.num_nodes
    averaging = model.adjacency / n
    np.subtract(0.0, averaging, out=averaging)  # the bits of np.eye(n) - A/n, in place
    averaging.flat[::n + 1] += 1.0
    running = np.empty(len(states))
    with np.errstate(over="ignore"):
        for start in range(0, len(states), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            weighted = (model.state_weight * np.sum(states[rows] ** 2, axis=1)
                        if model.state_weight else 0.0)
            running[rows] = (weighted + np.sum(controls[rows] ** 2, axis=1)
                             + np.sum((controls[rows] @ averaging.T) ** 2, axis=1))
        terminal = (model.terminal_weight * float(np.sum(states[-1] ** 2))
                    if model.terminal_weight else 0.0)
        return float(np.trapezoid(running, trajectory.times) + terminal)
