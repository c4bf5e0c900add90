"""Output checks for each subcommand, computed by routes independent of graphonctl.

Each check reads the artifacts of one `main(argv)` call and returns a list of
problems (empty when the output is right).  No check compares bytes, so a
faithful speed-up that moves the last bits of a float still passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Defaults of the CLI flags the workloads leave unset.
EPIDEMIC_DEFAULTS = {"alpha0": -0.5, "beta0": 1.0, "qt": 2.0, "qT": 4.0, "horizon": 1.0}
RANK_RTOL = 1e-9  # |eigenvalue| below this share of the largest counts as zero


def _json(path: Path, problems: list) -> dict:
    """Parse JSON, reporting any NaN or +-Infinity it contains as a problem."""
    nonfinite = []

    def constant(token):
        nonfinite.append(token)
        return float(token.replace("Infinity", "inf"))

    data = json.loads(path.read_text(), parse_constant=constant)
    if nonfinite:
        problems.append(f"{path.name}: non-finite value {nonfinite[0]}")
    return data


def _csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=rtol, atol=atol))


def _nonzero_operator_eigenvalues(net) -> np.ndarray:
    """Eigenvalues of the pixel graphon (adjacency / n), zeros dropped, sorted."""
    lam = net.eigenvalues / net.n
    return np.sort(lam[np.abs(lam) > RANK_RTOL * np.abs(lam).max()])


def spectra(out: Path, net) -> list:
    problems = []
    ref = net.eigenvalues
    got = _csv(out / "eigenvalues.csv")[:, 1]
    scale = max(1.0, float(np.abs(ref).max()))
    if not _close(got, ref, rtol=0.0, atol=1e-9 * scale):
        problems.append("eigenvalues.csv differs from eigvalsh of the adjacency")
    report = _json(out / "spectral_report.json", problems)
    by_size = (ref / net.n)[np.argsort(-np.abs(ref), kind="stable")]
    tail = math.sqrt(float(np.sum(by_size[report["top_k"]:] ** 2)))
    if report["n"] != net.n:
        problems.append(f"spectral_report.json: n={report['n']}, expected {net.n}")
    if not math.isclose(report["truncation_error"], tail, rel_tol=1e-8, abs_tol=1e-12):
        problems.append("spectral_report.json: truncation_error is not the eigenvalue tail")
    for name in ("original_kernel.csv", "approx_kernel.csv", "manifest.json"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    return problems


def truncation_curve(out: Path, net) -> list:
    problems = []
    errors = _csv(out / "truncation_curve.csv")[:, 1]
    frobenius = float(np.linalg.norm(net.adjacency)) / net.n
    if not math.isclose(errors[0], frobenius, rel_tol=1e-9):
        problems.append("truncation curve does not start at the kernel L2 norm")
    if np.any(np.diff(errors) > 1e-12 * errors[0]):
        problems.append("truncation curve increases")
    if errors[-1] != 0.0:
        problems.append(f"truncation curve ends at {errors[-1]!r}, not 0")
    return problems


def fourier(out: Path, net) -> list:
    problems = truncation_curve(out, net)
    table = _csv(out / "fourier_bounds.csv")
    bound, measured = table[:, 1], table[:, 2]
    if not np.all(np.isfinite(table)):
        problems.append("fourier_bounds.csv has non-finite entries")
    if np.any(bound < measured - 1e-12 * np.maximum(1.0, np.abs(bound))):
        problems.append("a Fourier bound is below the measured error")
    return problems


def gramian(out: Path, net) -> list:
    problems = []
    data = _json(out / "gramian.json", problems)
    if not math.isclose(data["scalar_part"], 1.0, rel_tol=1e-12):
        problems.append("gramian.json: scalar part is not 1 for alpha0=0, beta0=1, T=1")
    lams = np.array([d["eigenvalue"] for d in data["directions"]])
    coefficients = np.array([d["coefficient"] for d in data["directions"]])
    if not _close(np.sort(lams), _nonzero_operator_eigenvalues(net), rtol=1e-9,
                  atol=1e-12):
        problems.append("gramian.json: direction eigenvalues differ from eigvalsh")
    closed = np.expm1(2.0 * lams) / (2.0 * lams) - 1.0
    if not _close(coefficients, closed, rtol=1e-9, atol=1e-14):
        problems.append("gramian.json: coefficients differ from the closed form")
    if data["controllable"] is not True:
        problems.append("gramian.json: system reported not controllable")
    return problems


def minenergy(out: Path, net) -> list:
    problems = []
    data = _json(out / "minenergy.json", problems)
    if not math.isclose(data["initial_norm"], 1.0, rel_tol=1e-12):
        problems.append("minenergy.json: initial norm of x0 = 1 is not 1")
    if not data["final_norm"] <= 1e-6 * data["initial_norm"]:
        problems.append(f"minenergy.json: final norm {data['final_norm']!r} not ~0")
    if not data["energy"] > 0.0:
        problems.append("minenergy.json: energy is not positive")
    return problems


def riccati_at_zero(linear, quadratic, q: float, terminal: float, horizon: float):
    """pi(0) for pi' = linear*pi + quadratic*pi^2 - q, pi(horizon) = terminal.

    Separable closed form (roots r+ and r- of quadratic*x^2 + linear*x - q);
    the same formula as the scalar oracle of the test suite, vectorized.
    """
    s = np.sqrt(linear * linear + 4.0 * quadratic * q)
    r_plus = (-linear + s) / (2.0 * quadratic)
    r_minus = (-linear - s) / (2.0 * quadratic)
    decay = (terminal - r_plus) / (terminal - r_minus) * np.exp(-s * horizon)
    return (r_plus - r_minus * decay) / (1.0 - decay)


def epidemic(out: Path, net, eta: float) -> list:
    problems = []
    p = EPIDEMIC_DEFAULTS
    cost = _json(out / "cost.json", problems)
    for key in ("optimal", "zero_control", "nonlinear_closed_loop"):
        if key in cost and not math.isfinite(cost[key]):
            problems.append(f"cost.json: {key} is not finite")
    if not cost["optimal"] <= cost["zero_control"]:
        problems.append("cost.json: optimal cost exceeds the zero-control cost")

    with open(out / "riccati.csv") as handle:
        handle.readline()
        first = np.array([float(v) for v in handle.readline().split(",")])
    lams = np.concatenate(([0.0], _nonzero_operator_eigenvalues(net)))
    linear = 2.0 * (p["alpha0"] - eta * net.n * lams)
    quadratic = p["beta0"] ** 2 / (lams ** 2 - 2.0 * lams + 2.0)
    want = riccati_at_zero(linear, quadratic, p["qt"], p["qT"], p["horizon"])
    if first[0] != 0.0:
        problems.append("riccati.csv: first row is not t = 0")
    elif first.size != want.size + 1:
        problems.append(f"riccati.csv: {first.size - 2} modes, expected {want.size - 1}")
    elif not (_close(first[1], want[0], rtol=1e-6)
              and _close(np.sort(first[2:]), np.sort(want[1:]), rtol=1e-6)):
        problems.append("riccati.csv: pi(0) differs from the scalar closed form")
    return problems


def sample(out: Path, num_nodes: int, seed: int, mean: float) -> list:
    problems = []
    path = out / f"sample_n{num_nodes}_seed{seed}.edges"
    with open(path) as handle:
        header = handle.readline()
    table = np.loadtxt(path, comments="#", ndmin=2)
    declared = header.split(":")[1].split(",")
    if (int(declared[0].split()[0]) != num_nodes
            or int(declared[1].split()[0]) != table.shape[0]):
        problems.append(f"{path.name}: header does not match its contents")
    if table.size:
        i, j = table[:, 0].astype(int), table[:, 1].astype(int)
        if i.min() < 1 or j.max() > num_nodes or np.any(i >= j):
            problems.append(f"{path.name}: edge outside 1 <= i < j <= n")
        if np.unique(i * (num_nodes + 1) + j).size != i.size:
            problems.append(f"{path.name}: repeated edge")
        if np.any(table[:, 2] != 1.0):
            problems.append(f"{path.name}: edge weight other than 1")
    pairs = num_nodes * (num_nodes - 1) // 2
    if pairs >= 10_000 and abs(table.shape[0] / pairs - mean) > 0.05:
        problems.append(f"{path.name}: edge density far from the kernel mean {mean}")
    return problems
