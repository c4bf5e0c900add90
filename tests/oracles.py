"""Independent reference computations for the test suite.

Everything here is written from mathematical definitions using different
algorithms than the package (generic quadrature, repeated grid products,
repeated matrix exponentials, full-matrix Riccati integration, fine-step RK4,
implicit Radau), so agreement between the two routes is evidence, not tautology.
Nothing here imports graphonctl.
"""

import decimal
import math
from types import SimpleNamespace

import numpy as np
import scipy.integrate
import scipy.linalg


# -- quadrature for kernels and functions ----------------------------------------

def midpoint_grid(kernel, m: int) -> np.ndarray:
    x = (np.arange(m) + 0.5) / m
    return np.asarray(kernel.value(x[:, None], x[None, :]), dtype=float)


def quad_l2_norm(kernel, m: int = 1024) -> float:
    return float(np.sqrt(np.mean(midpoint_grid(kernel, m) ** 2)))


def quad_eigenvalues(kernel, m: int = 1024) -> np.ndarray:
    """Operator spectrum of the midpoint quadrature matrix, descending by value."""
    return np.linalg.eigvalsh(midpoint_grid(kernel, m))[::-1] / m


def quad_apply(kernel, func, m: int = 1024) -> np.ndarray:
    """(A f) sampled at midpoints via plain Riemann sums."""
    x = (np.arange(m) + 0.5) / m
    return midpoint_grid(kernel, m) @ np.asarray(func(x), dtype=float) / m


def quad_inner_product(f, g, m: int = 4096) -> float:
    x = (np.arange(m) + 0.5) / m
    return float(np.mean(np.asarray(f(x), float) * np.asarray(g(x), float)))


def _harmonics(coeffs):
    """(constant, cos list, sin list): coordinates over the orthonormal functions
    [1, √2cos_1..h, √2sin_1..h], split into the constant, √2cos_k and √2sin_k parts."""
    coeffs = [float(c) for c in coeffs]
    h = (len(coeffs) - 1) // 2
    return coeffs[0], coeffs[1:h + 1], coeffs[h + 1:]


def _block_harmonic_integrals(values, k: int) -> tuple[float, float]:
    """∫ f cos(2πkx) dx and ∫ f sin(2πkx) dx for block values of f, from the
    sin/cos antiderivatives across each block."""
    n = len(values)
    w = 2.0 * math.pi * k
    cos_int = sum(v * (math.sin(w * (i + 1) / n) - math.sin(w * i / n)) / w
                  for i, v in enumerate(values))
    sin_int = sum(v * (math.cos(w * i / n) - math.cos(w * (i + 1) / n)) / w
                  for i, v in enumerate(values))
    return cos_int, sin_int


def exact_inner_product(f, g) -> float:
    """Closed-form L2 inner product of two functions, pair by pair.

    Piecewise-constant functions (anything with `values`) integrate their
    product over the sorted union of both partitions' breakpoints; trigonometric
    polynomials (`coeffs` over [1, √2cos_1..h, √2sin_1..h]) pair harmonic by
    harmonic, orthonormally; a mixed pair sums each block value times the
    antiderivative of the polynomial across that block.
    """
    if hasattr(f, "values") and hasattr(g, "values"):
        a, b = np.asarray(f.values, float), np.asarray(g.values, float)
        # i/n == j/m in floats exactly when the fractions are equal
        edges = np.union1d(np.arange(a.size + 1) / a.size, np.arange(b.size + 1) / b.size)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.sum(np.diff(edges) * a[(mids * a.size).astype(int)]
                            * b[(mids * b.size).astype(int)]))
    if not hasattr(f, "values") and not hasattr(g, "values"):
        (fc, fcos, fsin), (gc, gcos, gsin) = _harmonics(f.coeffs), _harmonics(g.coeffs)
        total = fc * gc
        for k in range(min(len(fcos), len(gcos))):
            total += fcos[k] * gcos[k] + fsin[k] * gsin[k]
        return float(total)
    if hasattr(g, "values"):
        f, g = g, f
    constant, cos_coords, sin_coords = _harmonics(g.coeffs)
    total = constant * float(np.mean(f.values))
    for k in range(1, len(cos_coords) + 1):
        cos_int, sin_int = _block_harmonic_integrals(f.values, k)
        total += math.sqrt(2.0) * (cos_coords[k - 1] * cos_int + sin_coords[k - 1] * sin_int)
    return total


def sinusoidal_apply(constant: float, cosine_coeffs, func) -> np.ndarray:
    """Coordinates over [1, √2cos_1..H, √2sin_1..H] of A f for the kernel
    A(x, y) = constant + sum_k b_k cos(2πk(x - y)), harmonic by harmonic.

    cos(2πk(x - y)) = cos_k(x) cos_k(y) + sin_k(x) sin_k(y), so A f is
    constant ∫f + sum_k b_k (cos_k ∫cos_k f + sin_k ∫sin_k f).  A step function
    (`values`) gives each integral through the block antiderivatives, a
    trigonometric polynomial (`coeffs`) through orthogonality: ∫cos_k f is its
    √2cos_k coordinate over √2, and zero past its order.
    """
    b = [float(v) for v in cosine_coeffs]
    if hasattr(func, "values"):
        mean = float(np.mean(func.values))
        integrals = [_block_harmonic_integrals(func.values, k) for k in range(1, len(b) + 1)]
    else:
        mean, cos_coords, sin_coords = _harmonics(func.coeffs)
        integrals = [(cos_coords[k] / math.sqrt(2.0), sin_coords[k] / math.sqrt(2.0))
                     if k < len(cos_coords) else (0.0, 0.0) for k in range(len(b))]
    # the √2cos_k coordinate of b_k cos_k(x) ∫cos_k f is b_k ∫cos_k f / √2
    cos_out = [bk * c / math.sqrt(2.0) for bk, (c, _) in zip(b, integrals)]
    sin_out = [bk * s / math.sqrt(2.0) for bk, (_, s) in zip(b, integrals)]
    return np.array([float(constant) * mean] + cos_out + sin_out)


def grid_power(kernel, exponent: int, m: int) -> np.ndarray:
    """Grid values of the kernel of A^exponent, one operator product at a time.

    Operator products on the midpoint grid are G @ G / m; no matrix power and no
    closed-form spectrum is involved.
    """
    grid = midpoint_grid(kernel, m)
    out = grid
    for _ in range(exponent - 1):
        out = out @ grid / m
    return out


def series_exponential_grid(kernel, t: float, m: int = 256,
                            terms: int = 40) -> np.ndarray:
    """Grid values of e^{tA} - Id via the Taylor series of the operator powers.

    Operator products on the midpoint grid are G @ G / m; the result is the
    grid of the kernel of the series sum, no scipy.expm involved.
    """
    grid = midpoint_grid(kernel, m)
    term = t * grid
    total = term.copy()
    for k in range(2, terms + 1):
        term = (t / k) * (term @ grid) / m
        total += term
    return total


def fourier_coefficient(func, harmonic: int, kind: str) -> float:
    """Orthonormal Fourier coefficient by adaptive quadrature."""
    if kind == "const":
        def weight(x):
            return 1.0
    elif kind == "cos":
        def weight(x):
            return math.sqrt(2.0) * math.cos(2.0 * math.pi * harmonic * x)
    elif kind == "sin":
        def weight(x):
            return math.sqrt(2.0) * math.sin(2.0 * math.pi * harmonic * x)
    else:
        raise ValueError(kind)
    value, _ = scipy.integrate.quad(lambda x: float(func(x)) * weight(x),
                                    0.0, 1.0, limit=400)
    return value


def fourier_sweep_reference(eigenvalues, vectors, order: int):
    """Projection and measured error of every Fourier-projected truncation, rank by rank.

    Column l of `vectors` holds the block values of the unit eigenfunction f_l
    of eigenvalues[l].  Its projection p_l onto harmonics 0..order takes its
    coordinates from the sin/cos antiderivatives across each block.  With
    E_m = sum_{l<m} λ_l f_l⊗f_l and A_m the same sum over the p_l, the squared
    L2 norm of a sum of weighted separable terms is the double sum of weight
    products times squared `exact_inner_product`s, taken pair by pair.  For
    every rank m this returns the projection error ||E_m - A_m|| and the
    measured error ||E_r - A_m||.
    """
    lam = [float(v) for v in eigenvalues]
    vecs = np.asarray(vectors, dtype=float)
    n = vecs.shape[0]
    steps = [SimpleNamespace(values=column) for column in vecs.T]
    polys = []
    for column in vecs.T:
        # <f, √2cos_k> and <f, √2sin_k>: the projection's coordinates
        pairs = [_block_harmonic_integrals(column, k) for k in range(1, order + 1)]
        polys.append(SimpleNamespace(coeffs=[sum(column) / n]
                                     + [math.sqrt(2.0) * c for c, _ in pairs]
                                     + [math.sqrt(2.0) * s for _, s in pairs]))
    funcs = steps + polys
    gram = [[exact_inner_product(f, g) for g in funcs] for f in funcs]

    def norm(terms):
        """L2 norm of sum_i w_i g_i⊗g_i for terms (w_i, index of g_i in funcs)."""
        square = math.fsum(wa * wb * gram[a][b] ** 2 for wa, a in terms for wb, b in terms)
        return math.sqrt(max(square, 0.0))

    rank = len(lam)
    exact = [(lam[l], l) for l in range(rank)]
    projection, measured = [], []
    for m in range(rank + 1):
        approx = [(-lam[l], rank + l) for l in range(m)]
        projection.append(norm(exact[:m] + approx))
        measured.append(norm(exact + approx))
    return np.array(projection), np.array(measured)


# -- controllability Gramian -----------------------------------------------------

def system_matrices(coeffs: np.ndarray, alpha0: float, beta0: float,
                    b_poly=()) -> tuple[np.ndarray, np.ndarray]:
    """Finite state/input matrices of the block system on its own partition."""
    n = coeffs.shape[0]
    op = np.asarray(coeffs, dtype=float) / n
    state = alpha0 * np.eye(n) + op
    inp = beta0 * np.eye(n)
    power = np.eye(n)
    for coeff in b_poly:
        power = power @ op
        inp = inp + coeff * power
    return state, inp


def decimal_growth_integral(rate: float, horizon: float, digits: int = 50) -> float:
    """∫₀ᵀ e^{rt} dt in `digits`-digit decimal arithmetic, rounded once to a float.

    From the exact decimal values of the float arguments: the series
    T Σ_k (rT)^k / (k+1)! while |rT| < 1, which has no cancellation, and
    (e^{rT} − 1) / r beyond.  A value beyond the float range rounds to inf.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        r, t = decimal.Decimal(rate), decimal.Decimal(horizon)
        x = r * t
        if abs(x) >= 1:
            return float((x.exp() - 1) / r)
        total = term = t
        k = 1
        while term and abs(term) > abs(total).scaleb(-digits - 2):
            term = term * x / (k + 1)
            total += term
            k += 1
        return float(total)


def simpson_gramian(state: np.ndarray, inp: np.ndarray, horizon: float,
                    num_intervals: int = 512) -> np.ndarray:
    """Simpson rule on e^{At} B B^T e^{A^T t}, nodes built by repeated expm steps."""
    if num_intervals % 2:
        raise ValueError("num_intervals must be even")
    h = horizon / num_intervals
    step = scipy.linalg.expm(state * h)
    bbt = inp @ inp.T
    total = np.zeros_like(bbt)
    node = np.eye(state.shape[0])
    for k in range(num_intervals + 1):
        weight = 1.0 if k in (0, num_intervals) else (4.0 if k % 2 else 2.0)
        total += weight * (node @ bbt @ node.T)
        node = step @ node
    return total * (h / 3.0)


# -- LQR -------------------------------------------------------------------------

def matrix_riccati(drift: np.ndarray, input_mat: np.ndarray,
                   state_weight: np.ndarray, control_weight: np.ndarray,
                   terminal: np.ndarray, horizon: float,
                   num_steps: int = 4000) -> tuple[np.ndarray, np.ndarray]:
    """Backward RK4 on P' = -(S^T P + P S - P B R^-1 B^T P + Q).

    Returns (times ascending from 0, P stacked with P[k] at times[k]).
    """
    gain = input_mat @ np.linalg.solve(control_weight, input_mat.T)

    def f(p):
        return -(drift.T @ p + p @ drift - p @ gain @ p + state_weight)

    h = -horizon / num_steps
    p = np.asarray(terminal, dtype=float).copy()
    sheets = [p.copy()]
    for _ in range(num_steps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sheets.append(p.copy())
    sheets.reverse()
    return np.linspace(0.0, horizon, num_steps + 1), np.stack(sheets)


def epidemic_lqr_oracle(adjacency: np.ndarray, alpha: float, eta: float,
                        beta0: float, q: float, q_terminal: float,
                        horizon: float, num_steps: int = 4000):
    """Full-matrix LQR for the linearized spread problem.

    Returns (times, P trajectory, feedback) where feedback(t, p) evaluates
    -R^{-1} B^T P(t) p with P interpolated to the nearest grid time.
    """
    n = adjacency.shape[0]
    drift = -alpha * np.eye(n) + eta * adjacency
    averaging = np.eye(n) - adjacency / n
    control_weight = np.eye(n) + averaging.T @ averaging
    times, sheets = matrix_riccati(drift, beta0 * np.eye(n), q * np.eye(n),
                                   control_weight, q_terminal * np.eye(n),
                                   horizon, num_steps)
    rinv_bt = np.linalg.solve(control_weight, beta0 * np.eye(n))

    def feedback(t, state):
        idx = min(int(round(t / horizon * num_steps)), num_steps)
        return -rinv_bt @ sheets[idx] @ np.asarray(state, dtype=float)

    return times, sheets, feedback


def nonzero_eigenvectors(matrix: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Unit eigenvectors (columns, by np.linalg.eigh) of a symmetric matrix whose
    eigenvalues exceed rtol times the largest magnitude: an orthonormal basis of
    its range."""
    values, vectors = np.linalg.eigh(np.asarray(matrix, dtype=float))
    return vectors[:, np.abs(values) > rtol * np.abs(values).max()]


def pixel_truncation(adjacency: np.ndarray, rank: int) -> np.ndarray:
    """Block values of the rank-`rank` truncation of a symmetric network's max-abs
    pixel graphon.  Its operator is the matrix adjacency / (N·peak) on block values;
    keep the `rank` eigenpairs (λ, v) of largest |λ| and sum λ N v vᵀ, the kernel
    sum λ f(x) f(y) with the unit-L2 eigenfunction f = sqrt(N) v."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = len(adjacency)
    values, vectors = np.linalg.eigh(adjacency / (n * np.abs(adjacency).max()))
    kept = np.argsort(-np.abs(values), kind="stable")[:rank]
    return n * (vectors[:, kept] * values[kept]) @ vectors[:, kept].T


def scalar_riccati_closed_form(linear: float, quadratic: float, q: float,
                               terminal: float, horizon: float):
    """Closed form for pi' = linear*pi + quadratic*pi^2 - q, pi(horizon) = terminal.

    In reversed time tau = horizon - t the equation separates; with
    s = sqrt(linear^2/4 + quadratic*q) ... written for the substitution
    d(pi)/d(tau) = -quadratic (pi - r_plus)(pi - r_minus) where r are the roots
    of quadratic*x^2 + linear*x - q.  Requires a positive discriminant.
    """
    disc = linear * linear + 4.0 * quadratic * q
    if disc <= 0.0 or quadratic == 0.0:
        raise ValueError("closed form needs a positive discriminant")
    s = math.sqrt(disc)
    r_plus = (-linear + s) / (2.0 * quadratic)
    r_minus = (-linear - s) / (2.0 * quadratic)
    k = (terminal - r_plus) / (terminal - r_minus)

    def solution(t: float) -> float:
        decay = k * math.exp(-s * (horizon - t))
        return (r_plus - r_minus * decay) / (1.0 - decay)

    return solution


def scalar_riccati_ode(linear: float, quadratic: float, q: float,
                       terminal: float, horizon: float, times) -> np.ndarray:
    """pi(times) for pi' = linear*pi + quadratic*pi^2 - q, pi(horizon) = terminal.

    Implicit Radau integration backward from the horizon at rtol 1e-12, with
    the exact Jacobian, so stiff and long-horizon cases need no closed form.
    The absolute tolerance is 1e-14 times the larger weight.
    """
    grid, inverse = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    result = scipy.integrate.solve_ivp(
        lambda t, y: linear * y + quadratic * y * y - q,
        (horizon, float(grid[0])), [terminal], method="Radau",
        t_eval=grid[::-1], rtol=1e-12, atol=1e-14 * max(q, terminal, 1e-300),
        jac=lambda t, y: [[linear + 2.0 * quadratic * y[0]]])
    if not result.success:
        raise RuntimeError(result.message)
    return result.y[0][::-1][inverse]


# -- linear trajectories ------------------------------------------------------------

def expm_states(matrix: np.ndarray, y0: np.ndarray, times) -> np.ndarray:
    """Rows exp(matrix * t) y0 for each of `times`, one scipy expm per time."""
    return np.stack([scipy.linalg.expm(matrix * t) @ y0 for t in times])


def rk4_states(field, y0: np.ndarray, horizon: float, num_steps: int) -> np.ndarray:
    """Classical RK4 for y' = field(t, y) on num_steps equal steps of [0, horizon]."""
    h = horizon / num_steps
    y = np.array(y0, dtype=float)
    states = [y]
    for k in range(num_steps):
        t = k * h
        k1 = field(t, y)
        k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = field(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.stack(states)


def step_halving(run, num_steps: int, rtol: float = 1e-10,
                 max_halvings: int = 10) -> np.ndarray:
    """Values of run(k) (rows on k + 1 uniform times) at num_steps + 1 grid times.

    The step is halved until two successive runs agree on that grid within
    rtol of their largest value, and the finer run is returned; if they never
    do, AssertionError.
    """
    coarse = run(num_steps)
    for halvings in range(1, max_halvings + 1):
        fine = run(num_steps * 2 ** halvings)[::2 ** halvings]
        if np.abs(fine - coarse).max() <= rtol * np.abs(fine).max():
            return fine
        coarse = fine
    raise AssertionError(f"RK4 did not converge in {max_halvings} halvings")


def lqr_closed_loop(drift: np.ndarray, input_mat: np.ndarray,
                    state_weight: np.ndarray, control_weight: np.ndarray,
                    terminal: np.ndarray, y0: np.ndarray, horizon: float,
                    num_steps: int, rtol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """States and controls of the full-matrix LQR closed loop at num_steps + 1 times.

    For each RK4 step count k, `matrix_riccati` runs on 2k steps, so every
    stage time of the forward RK4 is a grid time of P; `step_halving` refines k.
    """
    rinv_bt = np.linalg.solve(control_weight, input_mat.T)
    n = drift.shape[0]

    def run(k):
        _, sheets = matrix_riccati(drift, input_mat, state_weight, control_weight,
                                   terminal, horizon, 2 * k)
        gains = -rinv_bt @ sheets
        closed = drift + input_mat @ gains
        h = horizon / k
        y = np.array(y0, dtype=float)
        rows = [np.concatenate((y, gains[0] @ y))]
        for i in range(k):
            k1 = closed[2 * i] @ y
            k2 = closed[2 * i + 1] @ (y + 0.5 * h * k1)
            k3 = closed[2 * i + 1] @ (y + 0.5 * h * k2)
            k4 = closed[2 * i + 2] @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rows.append(np.concatenate((y, gains[2 * i + 2] @ y)))
        return np.stack(rows)

    table = step_halving(run, num_steps, rtol)
    return table[:, :n], table[:, n:]


# -- nonlinear epidemic ---------------------------------------------------------------

def radau_states(adjacency: np.ndarray, alpha: float, eta: float, beta0: float,
                 p0: np.ndarray, horizon: float, times, weights=None,
                 rtol: float = 1e-13, atol: float = 1e-16) -> np.ndarray:
    """States of p' = -alpha p + eta (1 - p)∘(A p) + beta0 u at `times`, one row each.

    u = 0 when `weights` is None.  Otherwise weights = (q, q_T) and u is the
    optimal feedback of the linearized regulator, -beta0 R^-1 Pi(t) p with
    drift -alpha I + eta A, R = I + (I - A/n)^2, Q = q I and terminal q_T I.
    Every one of these matrices is a polynomial in A, so in numpy's eigenbasis
    of A each entry of Pi solves pi' = l pi + g pi^2 - q, pi(horizon) = q_T,
    with l = 2 (alpha - eta mu) and g = beta0^2 / r (r the eigenvalue of R):
    its root form, (pi - r+) / (pi - r-) = k exp(-s (horizon - t)), with the
    smaller root formed as a quotient (needs l or q nonzero).  The states come
    from scipy's implicit Radau with the analytic Jacobian, so stiff draws
    need no small step.
    """
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    mu, vecs = np.linalg.eigh(0.5 * (a + a.T))
    control_weight = 1.0 + (1.0 - mu / n) ** 2

    def closed_loop(t):
        """beta0 u = vecs diag(closed_loop(t)) vecs^T p."""
        if weights is None:
            return np.zeros(n)
        q, q_terminal = weights
        linear = 2.0 * (alpha - eta * mu)
        quadratic = beta0 ** 2 / control_weight
        s = np.sqrt(linear * linear + 4.0 * quadratic * q)
        big = (-linear - np.copysign(s, linear)) / (2.0 * quadratic)
        small = -q / (quadratic * big)
        r_plus = np.where(linear >= 0.0, small, big)
        r_minus = np.where(linear >= 0.0, big, small)
        w = (q_terminal - r_plus) / (q_terminal - r_minus) * np.exp(-s * (horizon - t))
        return -quadratic * (r_plus - r_minus * w) / (1.0 - w)

    def field(t, p):
        return (-alpha * p + eta * (1.0 - p) * (a @ p)
                + vecs @ (closed_loop(t) * (vecs.T @ p)))

    def jac(t, p):
        return (-alpha * np.eye(n) + eta * ((1.0 - p)[:, None] * a - np.diag(a @ p))
                + (vecs * closed_loop(t)) @ vecs.T)

    times = np.asarray(times, dtype=float)
    result = scipy.integrate.solve_ivp(field, (float(times[0]), float(times[-1])),
                                       np.asarray(p0, dtype=float), method="Radau",
                                       t_eval=times, rtol=rtol, atol=atol, jac=jac)
    if not result.success:
        raise RuntimeError(result.message)
    return result.y.T


# -- CSV cells --------------------------------------------------------------------

def csv_cell(value) -> str:
    """One CSV cell as the artifacts must print it, formatted value by value:
    integers and bools as decimal integers, everything else as a float with 17
    significant digits (which round-trips every double)."""
    if isinstance(value, (bool, int, np.bool_, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"
