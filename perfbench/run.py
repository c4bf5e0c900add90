"""graphonctl end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs its command sequence,
each pass in one fresh interpreter that calls `graphonctl.cli.main(argv)` per
command, for about S seconds.  Every artifact is checked (see checks.py).  The
last line of stdout is one JSON object: with --trace 0 the end-to-end metrics
(medians over passes), with --trace 1 the per-layer metrics of a traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 165.0  # the whole run must end well inside 180 s
SETUP_PROBES = 3

# The host's speed drifts by up to 1.5x over minutes.  End-to-end times are
# therefore scaled by REFERENCE_CALIBRATION_S / the calibration measured in the
# same interpreter next to the timed work (child.calibration_s): seconds at a
# fixed machine speed.  The constant is the calibration on an idle 2-core host.
REFERENCE_CALIBRATION_S = 0.0135

# BLAS is the program's only parallelism and its thread count changes output
# bytes, so every interpreter is pinned to one thread.  These are the variables
# graphonctl's own thread cap would set, had numpy not been imported first.
THREAD_ENV = {key: "1" for key in ("GRAPHON_CTL_THREADS", "OMP_NUM_THREADS",
                                   "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}

END_TO_END = {"setup_s": "s", "run_s": "s", "artifact_mb": "MB", "peak_rss_mb": "MB"}
MB = 1e6
COMMANDS = ("spectra", "approx", "fourier", "gramian", "minenergy", "epidemic", "sample")


class Bench:
    """One benchmark run: its deadline, launched passes and call tallies."""

    def __init__(self, seconds: float, corrupt=None):
        self.began = time.monotonic()
        self.seconds = seconds
        self.corrupt = corrupt  # self-test hook: damages a pass's artifacts
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.context = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.began)

    def launch(self, steps: list, trace: bool = False) -> dict | None:
        """Run argv lists in one fresh interpreter; None if it did not finish."""
        self.passes += 1
        spec_path = WORK / f"spec{self.passes}.json"
        result_path = WORK / f"result{self.passes}.json"
        spec_path.write_text(json.dumps({"src": str(SRC), "steps": steps,
                                         "trace": trace}))
        env = dict(os.environ, **THREAD_ENV)
        with open(WORK / "child.log", "ab") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path),
                 str(result_path)], cwd=WORK, env=env,
                stdout=subprocess.DEVNULL, stderr=log)
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not result_path.is_file():
            log_tail = (WORK / "child.log").read_text(errors="replace")[-2000:]
            print(f"pass {self.passes} exited {proc.returncode}:\n{log_tail}",
                  file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        cal = result["calibrations"]
        result["setup_s"] = ((result["imported"] - launched)
                             * REFERENCE_CALIBRATION_S / cal[0])
        # each call is scaled by the mean of the calibrations around it
        result["scaled_steps"] = [
            step["seconds"] * REFERENCE_CALIBRATION_S / (0.5 * (before + after))
            for step, before, after in zip(result["steps"], cal, cal[1:])]
        result["scaled_run_s"] = sum(result["scaled_steps"])
        result["peak_rss_mb"] = usage.ru_maxrss * 1024 / MB  # ru_maxrss is in KiB
        self.context = result["context"]
        return result

    def run_pass(self, steps: list, trace: bool = False) -> dict | None:
        """Run one pass of `steps` (workloads.Step), check it, clean up after it."""
        outs = [WORK / f"out{self.passes + 1}_{i}" for i in range(len(steps))]
        argvs = [step.argv + ["--out", str(out)] for step, out in zip(steps, outs)]
        result = self.launch(argvs, trace)
        self.attempted += len(steps)
        if result is None:
            self.failed += len(steps)
            return None
        if self.corrupt is not None:
            self.corrupt(steps, outs)
        result["artifact_mb"] = sum(f.stat().st_size for out in outs
                                    for f in out.rglob("*") if f.is_file()) / MB
        for step, out, record in zip(steps, outs, result["steps"]):
            problems = [f"exit code {record['code']}"] if record["code"] != 0 else []
            if not problems:
                try:
                    problems = step.check(out)
                except Exception as exc:  # a malformed artifact fails this call
                    problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.failed += 1
                print(f"{step.label} {step.argv}: {'; '.join(problems)}",
                      file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
        return result

    def more(self, mean_pass_s: float) -> bool:
        """Another pass fits in the measuring window and the deadline."""
        elapsed = time.monotonic() - self.began
        return (elapsed + mean_pass_s <= self.seconds
                and mean_pass_s < self.remaining())


def per_command(results: list, main_steps: list, coverage_steps: list = ()) -> dict:
    """Median speed-scaled time of each labelled command over the passes.

    A command of the workload's own sequence is timed there only; a command it
    lacks is timed in the coverage tail, which follows the main steps."""
    times = {}
    for label in COMMANDS:
        idx = [i for i, step in enumerate(main_steps) if step.label == label]
        if not idx:
            idx = [len(main_steps) + i for i, step in enumerate(coverage_steps)
                   if step.label == label]
        if idx:
            times[label] = statistics.median(
                sum(r["scaled_steps"][i] for i in idx) for r in results)
    return times


def run_passes(bench: Bench, steps: list, trace: bool) -> list:
    """Passes while another fits in the measuring window.  With `trace`, passes
    alternate untraced and traced, and at least one of each is run."""
    results, durations = [], []

    def traced_count() -> int:
        return sum("trace" in r for r in results)

    def enough() -> bool:
        return bool(results) and (not trace or 0 < traced_count() < len(results))

    while not enough() or bench.more(statistics.mean(durations)):
        started = time.monotonic()
        result = bench.run_pass(steps, trace and 2 * traced_count() < len(results))
        durations.append(time.monotonic() - started)
        if result is not None:
            results.append(result)
        elif not bench.more(statistics.mean(durations)):
            break
    return results


def measure(bench: Bench, steps: list) -> dict:
    """Untraced passes for the measuring window; end-to-end medians."""
    probes = [r for r in (bench.launch([]) for _ in range(SETUP_PROBES)) if r]
    results = run_passes(bench, steps, trace=False)
    if not results:
        return {}
    setups = [r["setup_s"] for r in probes + results]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["scaled_run_s"] for r in results),
        "artifact_mb": statistics.median(r["artifact_mb"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    print(f"scaled run_s: {[round(r['scaled_run_s'], 4) for r in results]}; "
          f"wall run_s: {[round(r['run_s'], 4) for r in results]}; scaled setup_s: "
          f"{[round(s, 4) for s in setups]}; scaled per command (median s): "
          f"{json.dumps(per_command(results, steps))}", file=sys.stderr)
    if probes:
        # peak of an interpreter that only imports and calibrates: the part of
        # peak_rss_mb that every pass pays before the workload's own memory
        print(f"peak_rss_mb of import-only probes (median): "
              f"{statistics.median(r['peak_rss_mb'] for r in probes):.2f}",
              file=sys.stderr)
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in metrics.items()}


def measure_traced(bench: Bench, main_steps: list, coverage_steps: list) -> dict:
    """Alternate untraced and traced passes of the main steps and the coverage
    tail; per-layer medians and overhead."""
    results = run_passes(bench, main_steps + coverage_steps, trace=True)
    plain = [r for r in results if "trace" not in r]
    traced = [r for r in results if "trace" in r]
    if not (plain and traced):
        return {}
    layers = [tracer.layer_metrics(r["trace"]) for r in traced]
    # median_low keeps counts integral; they are equal in every traced pass
    metrics = {name: statistics.median_low(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(r["scaled_run_s"] for r in traced)
        - statistics.median(r["scaled_run_s"] for r in plain))
    metrics.update({f"cmd.{label}_s": value
                    for label, value in
                    per_command(plain, main_steps, coverage_steps).items()})
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", corrupt=None) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        main_steps, coverage_steps = workloads.build(workload, seed, WORK, scale)
        bench = Bench(seconds, corrupt)
        bench.launch([])  # warm-up: bytecode and file caches, not measured
        if trace:
            metrics = measure_traced(bench, main_steps, coverage_steps)
        else:
            metrics = measure(bench, main_steps)
        print(f"context: {json.dumps(bench.context)}", file=sys.stderr)
        return {"correct": bench.failed == 0 and bool(metrics),
                "attempted": max(bench.attempted, 1), "failed": bench.failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphonctl" / "cli.py").is_file():
        print(f"graphonctl sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # numpy seed sequences and graphonctl's --seed take non-negative integers
    result = run(args.workload, args.seed % 2**32, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
