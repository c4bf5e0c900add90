"""Spans and counts around graphonctl's layer boundaries, installed from outside.

`install()` replaces every public function of the layer modules, in every
graphonctl namespace that binds it, with a wrapper; so calls between layers are
caught too.  A few constructors and the callables that `min_energy_control`
and `linear_feedback` return are wrapped as well.  Functions called more than
about 10^4 times per run are counted, not spanned.  Spans stay in memory as
(name, start, end, parent, run) and are written out once, by `dump()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter

LAYERS = ("functions", "graphons", "integrate", "spectral", "netio", "control",
          "epidemic", "cli")

# Counted only: calls that run more than 10^4 times per pass, and the CLI's
# file writer, whose time belongs to the self time of write_csv / write_json.
COUNTED = {
    "functions.inner_product", "functions.common_block_count",
    "functions.pc_add", "cli._fmt", "cli._atomic_write",
}


class Tracer:
    """In-memory spans and counters; `run` is the index of the current call."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.run = 0

    def wrap(self, name: str, fn, after=None):
        """Span (or, for COUNTED names, count) every call of `fn` as `name`.

        `after(tracer, args, kwargs, result)` may record counts and returns the
        result handed back to the caller.
        """
        if name in COUNTED:
            def counted(*args, **kwargs):
                self.counts[name] += 1
                result = fn(*args, **kwargs)
                return after(self, args, kwargs, result) if after else result
            return functools.wraps(fn)(counted)

        def spanned(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.run)
            return after(self, args, kwargs, result) if after else result
        return functools.wraps(fn)(spanned)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# -- per-function hooks --------------------------------------------------------

def _rk4_steps(tracer, args, kwargs, result):
    tracer.counts["integrate.rk4_steps"] += (kwargs["num_steps"] if "num_steps" in kwargs
                                            else args[4])
    return result


def _entries(tracer, args, kwargs, result):
    tracer.counts["netio.entries_parsed"] += result.num_edges
    return result


def _bytes(tracer, args, kwargs, result):
    tracer.counts["cli.bytes_written"] += os.path.getsize(args[0])
    return result


def _control_law(tracer, args, kwargs, result):
    control, energy = result
    return tracer.wrap("control.u_eval", control), energy


def _feedback_law(tracer, args, kwargs, result):
    return tracer.wrap("epidemic.feedback", result)


HOOKS = {
    "integrate.rk4": _rk4_steps,
    "netio.parse_edge_list": _entries,
    "netio.parse_matrix_market": _entries,
    "cli._atomic_write": _bytes,
    "control.min_energy_control": _control_law,
    "epidemic.linear_feedback": _feedback_law,
}

# (module, class, method, traced name)
METHODS = (
    ("graphons", "StepGraphon", "__init__", "graphons.StepGraphon"),
    ("control", "GraphonSystem", "__init__", "control.GraphonSystem"),
    ("epidemic", "EpidemicModel", "__init__", "epidemic.EpidemicModel"),
    ("functions", "PiecewiseConstantFunction", "__add__", "functions.pc_add"),
)


def install() -> Tracer:
    """Wrap graphonctl in place and return the tracer that records the calls."""
    tracer = Tracer()
    package = importlib.import_module("graphonctl")
    modules = {name: importlib.import_module(f"graphonctl.{name}") for name in LAYERS}
    wrappers = {}
    for short, module in modules.items():
        for name, obj in vars(module).items():
            traced = f"{short}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and (not name.startswith("_") or traced in COUNTED)):
                wrappers[obj] = tracer.wrap(traced, obj, HOOKS.get(traced))
    for namespace in (package, *modules.values()):
        for name, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(namespace, name, wrappers[obj])
    for short, cls_name, method, traced in METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, method, tracer.wrap(traced, getattr(cls, method)))
    return tracer


# -- aggregation -----------------------------------------------------------------

# Per-layer self times: each metric sums the self time of these spans.
SELF_TIMES = {
    "netio.parse_s": ("netio.parse_edge_list", "netio.parse_matrix_market"),
    "netio.spectral_report_s": ("netio.spectral_report",),
    "netio.sample_graph_s": ("netio.sample_graph",),
    "netio.write_edge_list_s": ("netio.write_edge_list",),
    "graphons.step_graphon_s": ("graphons.StepGraphon",),
    "spectral.decompose_s": ("spectral.decompose",),
    "spectral.truncate_s": ("spectral.truncate",),
    "spectral.fourier_truncate_s": ("spectral.fourier_truncate",),
    "spectral.l2_distance_s": ("spectral.l2_distance",),
    "integrate.rk4_s": ("integrate.rk4",),
    "control.system_s": ("control.GraphonSystem",),
    "control.gramian_s": ("control.gramian",),
    "control.min_energy_control_s": ("control.min_energy_control",),
    "control.u_eval_s": ("control.u_eval",),
    "control.simulate_s": ("control.simulate",),
    "epidemic.model_s": ("epidemic.EpidemicModel",),
    "epidemic.riccati_s": ("epidemic.solve_riccati_finite",),
    "epidemic.feedback_s": ("epidemic.feedback", "epidemic.optimal_control_finite"),
    "epidemic.simulate_s": ("epidemic.simulate_linearized", "epidemic.simulate_nonlinear"),
    "epidemic.project_s": ("epidemic.project_trajectories",),
    "epidemic.cost_s": ("epidemic.closed_loop_cost",),
    "cli.load_dataset_s": ("cli.load_dataset",),
    "cli.write_csv_s": ("cli.write_csv",),
    "cli.write_json_s": ("cli.write_json",),
}

# Counts: spans of a name, or counters bumped by COUNTED wrappers and hooks.
SPAN_COUNTS = {
    "graphons.step_graphons": "graphons.StepGraphon",
    "spectral.decompose_calls": "spectral.decompose",
    "control.u_evals": "control.u_eval",
    "epidemic.feedback_calls": "epidemic.feedback",
}
COUNTERS = {
    "netio.entries_parsed": "netio.entries_parsed",
    "functions.inner_product_calls": "functions.inner_product",
    "functions.pc_add_calls": "functions.pc_add",
    "integrate.rk4_steps": "integrate.rk4_steps",
    "cli.cells_written": "cli._fmt",
    "cli.bytes_written": "cli.bytes_written",
}


def layer_metrics(dump: dict) -> dict:
    """Self time per layer metric (span minus its direct children) and counts."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = Counter()
    calls = Counter()
    for (name, start, end, _, _), children in zip(spans, child_time):
        self_time[name] += (end - start) - children
        calls[name] += 1
    metrics = {metric: sum(self_time[n] for n in names)
               for metric, names in SELF_TIMES.items()}
    metrics.update({metric: calls[name] for metric, name in SPAN_COUNTS.items()})
    metrics.update({metric: dump["counts"].get(name, 0)
                    for metric, name in COUNTERS.items()})
    return metrics
