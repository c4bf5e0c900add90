"""Command-line front end: reproducible spectral / control runs on network files.

A subcommand computes its artifacts, file name to content, and `write_artifacts`
commits them with a manifest.json capturing the full configuration, seed and package
version (no timestamps): no file is renamed into place before every stage was computed
and every file written, so a refused or failed run writes nothing, save that a rename
failing during the commit keeps the files renamed before it.  A rerun with the same
manifest, the same numpy and BLAS build (scipy decides no byte: the package does not
import it), the same BLAS thread count and the same CPU kernels that OpenBLAS and numpy
dispatch to reproduces every artifact byte for byte, whether one process or two wrote
the files; the thread count or the kernel choice alone can move eigensolver,
matrix-product and ufunc digits.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ExactControllabilityError, GraphonError, NumericsError, ParseError
from .functions import PiecewiseConstantFunction
from .graphons import SinusoidalGraphon, StepGraphon
from .spectral import _step_decomposition, decompose, fourier_bounds, truncation_error
from .control import (
    GraphonSystem,
    exact_controllability_check,
    gramian,
    gramian_quadrature_matrix,
    min_energy_control,
    simulate,
)
from .epidemic import (
    EpidemicModel,
    closed_loop_cost,
    linear_costs,
    linear_feedback,
    simulate_linearized,
    simulate_nonlinear,
    solve_riccati_finite,
)
from . import netio
from .spectral import eigenvalue_convergence_experiment


# -- output plumbing -----------------------------------------------------------

def _atomic_write(path: Path, chunks):
    """Stream `chunks` into `path`, a .tmp sibling that `write_artifacts` renames or removes
    with the rest of its run (not atomic by itself; perfbench's tracer wraps this name)."""
    with open(path, "w") as handle:
        handle.writelines(chunks)


_CHUNK_CELLS = 2**16


def write_csv(path: Path, header: list, *columns):
    """Stream equal-length columns (1-D, or 2-D blocks) into `path` as CSV: integer and
    bool columns as %d, the rest as %.17g (the bytes of str(int(v)) and f"{float(v):.17g}").
    Unequal lengths raise before `path` is opened; a failure midway leaves what was written.

    The table is formatted about _CHUNK_CELLS cells at a time, never copied whole.  A
    chunk in which at most half the cells are distinct, as in the trajectories and
    pixel kernels of block-structured networks, formats each distinct value once and
    indexes into those strings; any other chunk is formatted one % per row, since
    there the formatting is all the work.  Either way each cell gets the same bytes.
    Values are distinct by their bit patterns within one column block, so -0.0 and
    0.0 (or an int and a float of equal bits) keep their own strings.  The count sorts
    the bits: numpy 2.4's hash-based np.unique takes about twenty times as long as the
    sort on a chunk, enough to slow tables whose values are all distinct.  A cell's
    index among its block's distinct values comes from one comparison when there
    are at most two of them, as in a 0/1 kernel, and from the inverse of one argsort
    when there are more, as in a trajectory."""
    blocks = [np.asarray(c) for c in columns]
    blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
    if len({len(b) for b in blocks}) > 1:
        raise ValueError(f"columns of unequal length {[len(b) for b in blocks]}")
    formats = ["%d" if b.dtype.kind in "biu" else "%.17g" for b in blocks]
    row_format = ",".join(f for f, b in zip(formats, blocks) for _ in range(b.shape[1])) + "\n"
    mixed = len({b.dtype for b in blocks}) > 1
    step = max(1, _CHUNK_CELLS // max(1, sum(b.shape[1] for b in blocks)))

    def chunk_lines(chunk):
        lines = _repeated_chunk_lines(chunk, formats)
        if lines is not None:
            return lines
        if mixed:  # Python scalars keep each column's own type through the stacking
            chunk = [b.astype(object) for b in chunk]
        return (row_format % tuple(row.tolist()) for row in np.hstack(chunk))

    _atomic_write(path, itertools.chain(
        [",".join(header) + "\n"],
        itertools.chain.from_iterable(chunk_lines([b[i:i + step] for b in blocks])
                                      for i in range(0, len(blocks[0]), step))))


def _repeated_chunk_lines(chunk: list, formats: list):
    """The CSV lines of a chunk of column blocks, formatted one distinct value at a
    time, or None when more than half its cells are distinct (or a block is not numeric)."""
    if any(b.dtype.kind not in "biuf" or b.dtype.itemsize > 8 for b in chunk):
        return None  # object cells, or no unsigned integer as wide as an item
    keys = [b.view(f"u{b.dtype.itemsize}") for b in chunk]
    distinct, firsts = zip(*map(_sorted_distinct, keys))
    if 2 * sum(d.size for d in distinct) > sum(key.size for key in keys):
        return None
    values = itertools.chain.from_iterable(
        d.view(b.dtype).tolist() for d, b in zip(distinct, chunk))
    strings = np.array(("".join((f + "\n") * d.size for f, d in zip(formats, distinct))
                        % tuple(values)).split("\n"), dtype=object)
    index, offset = [], 0
    for key, d, first in zip(keys, distinct, firsts):
        index.append(_distinct_index(key, d, first))
        index[-1] += offset
        offset += d.size
    # an intp index takes without a cast copy
    return (",".join(row.tolist()) + "\n" for row in strings[np.hstack(index, dtype=np.intp)])


def _sorted_distinct(key: np.ndarray):
    """The distinct values of `key`, ascending, and the flags of the sorted cells
    that differ from the one before (the first cell is flagged)."""
    ordered = np.sort(key, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first], first


def _distinct_index(key: np.ndarray, distinct: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Each cell's position in `distinct`, the ascending distinct values of `key`.
    With at most two of them it is one comparison with the first; more are ranked by
    `_argsort_index`.  On 2**16 cells of two values the comparison takes 0.02 ms, a
    binary search 0.2-0.6 ms and the argsort 0.4-2.6 ms; from three values on, the
    argsort beats the search (0.4-0.7 ms against 0.7-1.9 ms up to 17 values)."""
    if distinct.size <= 2:
        return (key != distinct[0]).astype(np.int32)
    return _argsort_index(key, first)


def _argsort_index(key: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The int32 ranks of key's cells among its distinct values (a chunk holds about
    2**16 cells), given the flags of the sorted cells that differ from the one before:
    a sorted cell's rank is the count of flags up to it, scattered back through the
    permutation of one argsort."""
    order = key.ravel().argsort()
    ranks = np.cumsum(first, dtype=np.int32)
    ranks -= 1
    index = np.empty(key.shape, dtype=np.int32)
    index.ravel()[order] = ranks
    return index


def write_json(path: Path, payload: dict):
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _write_artifact(path: Path, content):
    """Stream an artifact into path's .tmp sibling: a JSON payload for a .json name,
    (header, *columns) for a .csv name, text for any other."""
    tmp = path.with_name(path.name + ".tmp")
    if path.suffix == ".json":
        write_json(tmp, content)
    elif path.suffix == ".csv":
        write_csv(tmp, *content)
    else:
        _atomic_write(tmp, [content])


# Fork, exit and reap cost 2.4-3.5 ms (median 3.4 ms of 40) in a 43 MB interpreter
# holding an epidemic run's tables, about what formatting 2**14 cells takes, so a
# smaller second share stays with the parent.
_FORK_MIN_CELLS = 2**14


def _second_share(artifacts: dict, staged: bool) -> list:
    """The .csv names a forked writer should take, in artifact order, or [] when the
    parent should write everything.  When a later stage follows (`staged`), the child
    takes every table of this one; otherwise tables go largest first, by cell count, to
    the lighter of two shares.  The child is forked only on Linux, from a process with
    one OS thread (a BLAS thread pool makes fork unsafe), allowed at least two CPUs,
    and when its share holds at least _FORK_MIN_CELLS cells."""
    cells = {name: len(content[0]) * len(content[1])
             for name, content in artifacts.items() if name.endswith(".csv")}
    shares, loads = ([], []), [0, 0]
    for name in sorted(cells, key=cells.get, reverse=True):
        lighter = int(staged or loads[1] < loads[0])
        shares[lighter].append(name)
        loads[lighter] += cells[name]
    if loads[1] < _FORK_MIN_CELLS or not sys.platform.startswith("linux"):
        return []
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc mounted: the thread count is unknown
        return []
    if threads != 1 or len(os.sched_getaffinity(0)) < 2:
        return []
    return [name for name in artifacts if name in shares[1]]


def _fork_writer(out: Path, artifacts: dict, share: list) -> int:
    """The pid of a forked child that streams the tables of `share` into their .tmp
    siblings, exiting 0 once all are written, or 0 when fork failed.  It ends in
    os._exit: it never returns into the caller's stack nor flushes an inherited buffer."""
    try:
        pid = os.fork()
    except OSError:  # no process to spare: this process writes everything
        return 0
    if pid == 0:
        try:
            for name in share:
                _write_artifact(out / name, artifacts[name])
            os._exit(0)
        finally:  # reached only when a write raised
            os._exit(1)
    return pid


def write_artifacts(out: Path, artifacts, args: argparse.Namespace):
    """Commit a subcommand's artifacts, then manifest.json, into `out` as one run.

    `artifacts` maps names to contents, or is an iterator of such maps computed in
    stages.  Each is streamed into its .tmp sibling, the tables `_second_share` names by
    a forked child while this process computes any later stage and writes the rest; if
    either of two writers fails, this one writes every artifact again in order, which
    raises the one-writer route's error.  Only after every stage and write succeeded and
    the child exited 0 are the files renamed into place, the manifest last.  Any failure
    removes the .tmp siblings and the directories the run made, but a rename that fails
    during the commit keeps the files renamed before it."""
    staged = not isinstance(artifacts, dict)
    stages = iter(artifacts if staged else [artifacts])
    artifacts = next(stages)
    share = _second_share(artifacts, staged)
    made = list(itertools.takewhile(lambda d: not d.exists(), [out, *out.parents]))
    try:
        out.mkdir(parents=True, exist_ok=True)
        pid = _fork_writer(out, artifacts, share) if share else 0
        try:
            for stage in stages:
                artifacts.update(stage)
            # the output directory is where the manifest lives, not part of the run
            config = {k: v for k, v in sorted(vars(args).items())
                      if k not in ("handler", "out")}
            artifacts["manifest.json"] = {"command": args.command, "config": config,
                                          "seed": config.get("seed"), "version": __version__}
            try:
                for name, content in artifacts.items():
                    if not (pid and name in share):
                        _write_artifact(out / name, content)
                written = True
            except Exception:  # raised again, in artifact order, by the one-writer pass
                if not pid:
                    raise
                written = False
        finally:
            status = pid and os.waitpid(pid, 0)[1]
        if not (written and status == 0):
            for name, content in artifacts.items():
                _write_artifact(out / name, content)
        for name in artifacts:
            os.replace(out / (name + ".tmp"), out / name)
    except BaseException:
        for name in artifacts:
            with contextlib.suppress(OSError):  # a directory found at that name stays
                (out / (name + ".tmp")).unlink(missing_ok=True)
        for directory in made:  # deepest first
            with contextlib.suppress(OSError):  # not empty: files stay there
                directory.rmdir()
        raise


# -- input plumbing -------------------------------------------------------------

def _number(kind, token: str, flag: str):
    """kind(token), for kind float or int; a token that is no number names `flag`."""
    try:
        return kind(token)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def finite_float(text: str, flag: str = "") -> float:
    """A number from the command line: a float flag, or an entry of --b-poly or a kernel
    spec, which `flag` names.  float() reads nan and inf as well; they are refused."""
    value = _number(float, text, flag)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def load_dataset(path_text: str, degree_sort: bool = False) -> netio.NetworkDataset:
    path = Path(path_text)
    data = path.read_bytes()
    if path.suffix == ".mtx" or data.lstrip().startswith(b"%%MatrixMarket"):
        ds = netio.parse_matrix_market(data, name=path.stem)
    else:
        ds = netio.parse_edge_list(data, name=path.stem)
    return ds.degree_sorted() if degree_sort else ds


def load_vector(path_text: str, n: int, flag: str) -> np.ndarray:
    """The n per-node values of the file that `flag` names, one number per token."""
    values = [_number(float, token, f"{flag} file {path_text}")
              for token in Path(path_text).read_text().split()]
    if not values:
        raise ParseError(f"{path_text}: no values")
    if not np.isfinite(values).all():
        raise ParseError(f"{path_text}: non-finite value")
    if len(values) != n:
        raise ValueError(f"{flag} has {len(values)} values, the network has {n} nodes")
    return np.array(values)


def parse_kernel_spec(spec: str):
    """Kernel argument: 'constant:c', 'sinusoidal:a0[,b1,...]', or a network file."""
    if spec.startswith("constant:"):
        return StepGraphon([[finite_float(spec.partition(":")[2], "--kernel")]])
    if spec.startswith("sinusoidal:"):
        parts = [finite_float(v, "--kernel") for v in spec.partition(":")[2].split(",")]
        return SinusoidalGraphon(parts[0], parts[1:])
    ds = load_dataset(spec)
    if not ds.is_symmetric():  # sample has no --symmetrize to name
        raise ValueError(f"kernel network {spec} is asymmetric; a kernel must be symmetric")
    return netio.to_step_graphon(ds)


def _network(args) -> netio.NetworkDataset:
    """The network file, degree-sorted under --degree-sort, then symmetrized under --symmetrize."""
    ds = load_dataset(args.network, getattr(args, "degree_sort", False))
    return ds.symmetrized() if args.symmetrize else ds


# -- subcommands -----------------------------------------------------------------

def cmd_spectra(args) -> dict:
    # the report and the kernel read one adjacency of one graph, and share its eigh:
    # the kernel is the adjacency over `scale`, so its eigenvalues are the report's over it
    report, adjacency, vecs = netio._solved_report(_network(args), args.top_fraction)
    kernel, scale = netio._pixel_graphon(adjacency, args.normalize)
    del adjacency  # n×n, and read by no artifact: the modes are built without it
    decomp = _step_decomposition(kernel, report.eigenvalues[::-1] / scale, vecs)
    rank = min(report.top_k, decomp.rank)
    n = kernel.num_blocks
    sidecar = {"n": n, "family": "step", "normalization": args.normalize}
    return {
        "spectral_report.json": report.to_json_dict(),
        "eigenvalues.csv": (["index", "eigenvalue"],
                            np.arange(report.eigenvalues.size), report.eigenvalues),
        "original_kernel.csv": ([f"c{j}" for j in range(n)], kernel.coeffs),
        "original_kernel.json": sidecar,
        # the rank-k truncation as its k modes: row l is λ_l and the block values of f_l
        "approx_kernel.csv": (["mode", "eigenvalue"] + [f"b{j}" for j in range(n)],
                              np.arange(rank), decomp.eigenvalues[:rank],
                              decomp.basis[:, :rank].T),
        "approx_kernel.json": {**sidecar, "rank": rank},
    }


def cmd_approx(args) -> dict:
    # the truncation curve is the spectrum's tail; only the Fourier bounds read eigenfunctions
    decomp = decompose(netio.to_step_graphon(_network(args), args.normalize),
                       vectors=args.fourier_order is not None)
    ranks = range(decomp.rank + 1)
    if args.rank is not None:
        if not 0 <= args.rank <= decomp.rank:
            raise ValueError(f"--rank must be in [0, {decomp.rank}]")
        ranks = [args.rank]
    errors = [truncation_error(decomp, m) for m in ranks]  # the bound's tails again
    artifacts = {"truncation_curve.csv": (["rank", "truncation_error"], ranks, errors)}
    if args.fourier_order is not None:
        bound, measured = fourier_bounds(decomp, args.fourier_order)
        artifacts["fourier_bounds.csv"] = (["rank", "bound", "measured"],
                                           ranks, bound[ranks], measured[ranks])
    return artifacts


def _system_from_args(args, vectors: bool = True) -> GraphonSystem:
    """The system of the flags; with vectors=False its modes hold the spectrum alone."""
    poly = (tuple(finite_float(v, "--b-poly") for v in args.b_poly.split(","))
            if args.b_poly else ())
    kernel = netio.to_step_graphon(_network(args), args.normalize)
    return GraphonSystem(args.alpha0, args.beta0, kernel, poly, args.horizon,
                         decompose(kernel, vectors))


def cmd_gramian(args) -> dict:
    # the Gramian is a function of the spectrum; only --oracle's matrix reads eigenfunctions
    sys_ = _system_from_args(args, vectors=args.oracle)
    w = gramian(sys_)
    verdict = exact_controllability_check(sys_)
    payload = {
        "scalar_part": float(w.values[0]),
        "directions": [
            {"eigenvalue": float(lam), "eta": float(eta), "coefficient": float(c)}
            for lam, eta, c in zip(sys_.modes.eigenvalues, sys_.mode_etas,
                                   w.values[1:] - w.values[0])
        ],
        "spectral_lower_bound": verdict.spectral_lower_bound,
        "controllable": verdict.controllable,
        "beta0_nonzero": verdict.identity_gain_nonzero,
        "horizon": sys_.horizon,
    }
    if args.oracle:
        reference = gramian_quadrature_matrix(sys_)
        closed = w.as_matrix()
        payload["oracle_relative_error"] = float(
            np.linalg.norm(closed - reference) / max(np.linalg.norm(reference), 1e-300))
    return {"gramian.json": payload}


def cmd_minenergy(args) -> dict:
    sys_ = _system_from_args(args)
    n = sys_.kernel.num_blocks
    x0 = PiecewiseConstantFunction(load_vector(args.x0, n, "--x0") if args.x0 else np.ones(n))
    control, energy = min_energy_control(sys_, x0)
    trajectory = simulate(sys_, x0, control, step=args.step)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        norms = trajectory.state_norms()
        control_norms = (np.linalg.norm(trajectory.controls, axis=1)
                         / np.sqrt(trajectory.num_blocks))
    for name, column in (("state", norms), ("control", control_norms)):
        finite = np.isfinite(column)
        if not finite.all():
            raise NumericsError(f"{name} norm became non-finite at "
                                f"t={trajectory.times[np.argmin(finite)]:.6g}")
    return {
        "minenergy_trajectory.csv": (["time", "state_norm", "control_norm"],
                                     trajectory.times, norms, control_norms),
        "minenergy.json": {
            "energy": energy,
            "initial_norm": float(norms[0]),
            "final_norm": float(norms[-1]),
        },
    }


def cmd_epidemic(args):
    contact = netio.to_step_graphon(_network(args), args.normalize)
    model = EpidemicModel(contact, alpha=args.alpha0, beta0=args.beta0,
                          eta=args.eta, state_weight=args.qt,
                          terminal_weight=args.qT, horizon=args.horizon)
    n = model.num_nodes
    p0 = load_vector(args.p0, n, "--p0") if args.p0 else np.full(n, 0.1)
    outside = (p0 < 0.0) | (p0 > 1.0)
    if args.nonlinear and outside.any():  # the nonlinear model reads fractions
        node = int(np.argmax(outside))
        raise ValueError(f"--p0 values must lie in [0, 1] under --nonlinear: "
                         f"node {node} has {float(p0[node])}")
    num_steps = 1000
    if args.step is not None:
        if not args.step > 0.0:
            raise ValueError(f"--step must be positive, got {args.step}")
        num_steps = max(1, round(args.horizon / args.step))

    if args.riccati_steps is None:
        args.riccati_steps = num_steps  # so the manifest records the count used
    sol = solve_riccati_finite(model, num_steps=num_steps)  # read on the simulations' grid
    riccati = (sol if args.riccati_steps == num_steps
               else solve_riccati_finite(model, num_steps=args.riccati_steps))
    feedback = linear_feedback(model, sol)
    controlled = simulate_linearized(model, p0, feedback, num_steps)
    optimal, zero_control = linear_costs(model, p0)
    costs = {"optimal": optimal, "zero_control": zero_control}
    mode_names = [f"mode{j}" for j in range(sol.eigenvalues.size)]
    node_names = [f"node{i}" for i in range(n)]
    artifacts = {
        "riccati.csv": (["time", "auxiliary"] + mode_names, riccati.times, riccati.table),
        "states.csv": (["time"] + node_names, controlled.times, controlled.states),
        "controls.csv": (["time"] + node_names, controlled.times, controlled.controls),
        "eigenstates.csv": (["time"] + mode_names, controlled.times, controlled.eigenstates),
        "eigencontrols.csv": (["time"] + mode_names, controlled.times, controlled.eigencontrols),
        # the complement trajectory is rank one: these two columns times the residual
        "auxiliary.csv": (["time", "state", "control"],
                          controlled.times, controlled.decay[:, 0], controlled.gains[:, 0]),
        "auxiliary_residual.csv": (["node", "residual"], np.arange(n), controlled.residual),
    }
    if not args.nonlinear:
        return {**artifacts, "cost.json": costs}

    def stages():  # the linear tables are final before the nonlinear run starts
        yield artifacts
        nonlinear = simulate_nonlinear(model, p0, feedback, num_steps)
        costs["nonlinear_closed_loop"] = closed_loop_cost(model, nonlinear)
        costs["nonlinear_range_warning"] = nonlinear.range_warning
        yield {"nonlinear_states.csv": (["time"] + node_names, nonlinear.times, nonlinear.states),
               "cost.json": costs}
    return stages()


def cmd_sample(args) -> dict:
    if args.num_seeds < 1:
        raise ValueError(f"--num-seeds must be at least 1, got {args.num_seeds}")
    kernel = parse_kernel_spec(args.kernel)
    if args.converge:
        if not args.sizes:
            raise ValueError("--converge needs --sizes")
        sizes = [_number(int, s, "--sizes") for s in args.sizes.split(",")]
        rows = []
        for offset in range(args.num_seeds):
            seed = args.seed + offset

            def sampler(size, _seed=seed):
                return netio.sample_graph(kernel, size, _seed).adjacency()

            for row in eigenvalue_convergence_experiment(sampler, sizes, kernel):
                rows.append((row.size, seed, row.max_error)
                            + row.scaled_eigenvalues + row.limit_eigenvalues)
        k = len(rows[0][3:]) // 2 if rows else 0
        header = (["size", "seed", "max_error"]
                  + [f"scaled{i}" for i in range(k)]
                  + [f"limit{i}" for i in range(k)])
        return {"convergence.csv": (header, [row[:2] for row in rows], [row[2:] for row in rows])}
    ds = netio.sample_graph(kernel, args.num_nodes, args.seed)
    return {f"{ds.name}.edges": netio.write_edge_list(ds)}


# -- parser ----------------------------------------------------------------------

def _add_io_flags(sub, network: bool = True):
    if network:
        sub.add_argument("network", help="edge-list or MatrixMarket file")
        sub.add_argument("--normalize", choices=["max-abs", "none"],
                         default="max-abs", help="kernel normalization")
        sub.add_argument("--symmetrize", action="store_true",
                         help="accept asymmetric data, keep larger-|w| orientation")
    sub.add_argument("--out", default=".", help="output directory")


def _add_system_flags(sub):
    sub.add_argument("--alpha0", type=finite_float, default=0.0, help="identity drift")
    sub.add_argument("--beta0", type=finite_float, default=1.0, help="identity input gain")
    sub.add_argument("--b-poly", default="",
                     help="comma-separated kernel-polynomial input coefficients")
    sub.add_argument("--horizon", type=finite_float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphonctl",
        description="Spectral representation, approximation and control of "
                    "graphon network systems")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("spectra", help="eigenvalue report and low-rank kernel")
    _add_io_flags(sp)
    sp.add_argument("--top-fraction", type=finite_float, default=0.10)
    sp.add_argument("--degree-sort", action="store_true",
                    help="relabel nodes by descending degree first")
    sp.set_defaults(handler=cmd_spectra)

    ap = subs.add_parser("approx", help="truncation-error curves and Fourier bounds")
    _add_io_flags(ap)
    ap.add_argument("--rank", type=int, default=None, help="single rank instead of sweep")
    ap.add_argument("--fourier-order", type=int, default=None)
    ap.set_defaults(handler=cmd_approx)

    gr = subs.add_parser("gramian", help="closed-form controllability Gramian")
    _add_io_flags(gr)
    _add_system_flags(gr)
    gr.add_argument("--oracle", action="store_true",
                    help="also integrate the Gramian numerically and report the gap")
    gr.set_defaults(handler=cmd_gramian)

    me = subs.add_parser("minenergy", help="minimum-energy steering to the origin")
    _add_io_flags(me)
    _add_system_flags(me)
    me.add_argument("--x0", default=None, help="file of initial block values")
    me.add_argument("--step", type=finite_float, default=None, help="integration step")
    me.set_defaults(handler=cmd_minenergy)

    ep = subs.add_parser("epidemic", help="spectral LQR for the linearized spread")
    _add_io_flags(ep)
    ep.add_argument("--alpha0", type=finite_float, default=-0.5, help="recovery rate")
    ep.add_argument("--beta0", type=finite_float, default=1.0)
    ep.add_argument("--eta", type=finite_float, default=1.5, help="per-pair infection strength")
    ep.add_argument("--qt", type=finite_float, default=2.0, help="running state weight")
    ep.add_argument("--qT", type=finite_float, default=4.0, help="terminal state weight")
    ep.add_argument("--horizon", type=finite_float, default=1.0)
    ep.add_argument("--step", type=finite_float, default=None, help="simulation step")
    ep.add_argument("--riccati-steps", type=int, default=None,
                    help="uniform time steps of riccati.csv (one row more); "
                         "default: the simulation's")
    ep.add_argument("--p0", default=None, help="file of initial infected fractions")
    ep.add_argument("--nonlinear", action="store_true",
                    help="also run the nonlinear model under the linear feedback")
    ep.set_defaults(handler=cmd_epidemic)

    sa = subs.add_parser("sample", help="draw exchangeable random graphs from a kernel")
    _add_io_flags(sa, network=False)
    sa.add_argument("--kernel", required=True,
                    help="'constant:c', 'sinusoidal:a0,b1,...', or a network file")
    sa.add_argument("--num-nodes", type=int, default=100)
    sa.add_argument("--seed", type=int, default=0)
    sa.add_argument("--converge", action="store_true",
                    help="eigenvalue-convergence table over --sizes")
    sa.add_argument("--sizes", default="", help="comma-separated sizes for --converge")
    sa.add_argument("--num-seeds", type=int, default=1)
    sa.set_defaults(handler=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        write_artifacts(Path(args.out), handler(args), args)
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ExactControllabilityError, GraphonError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
