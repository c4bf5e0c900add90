"""Run a sequence of `graphonctl.cli.main(argv)` calls in this fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds the path of graphonctl's source tree, the argv of each call and
whether to trace.  RESULT receives the moment graphonctl.cli finished
importing (time.monotonic, comparable with the parent's launch time), the exit
code and wall time of each call, a machine-speed calibration before the first
call and after every call, the run context and, when traced, the spans.
"""

import json
import sys
import time
import traceback


def context(np, shim: bool) -> dict:
    import os
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {key: os.environ.get(key) for key in (
            "GRAPHON_CTL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "trapz_shim": shim,
    }


def calibration_s(np) -> float:
    """Median time of a fixed mix of interpreter loops, small numpy calls, one
    LAPACK eigensolve and float formatting.  It uses no graphonctl code, so it
    measures only how fast the machine runs at the moment of the pass."""
    grid = np.linspace(0.0, 1.0, 2001)
    mat = np.cos(np.outer(np.arange(280), np.arange(280)) / 280.0)
    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        for k in range(2000):
            np.interp(k / 2000.0, grid, grid)
        np.linalg.eigvalsh(mat)
        ",".join(f"{v:.17g}" for v in mat.ravel()[:4000])
        rounds.append(time.perf_counter() - start)
    return sorted(rounds)[2]


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    import numpy as np

    # numpy >= 2.4 dropped np.trapz, which graphonctl looks up eagerly at
    # import; alias the function it would select if the lookup were lazy.
    shim = not hasattr(np, "trapz")
    if shim:
        np.trapz = np.trapezoid
    sys.path.insert(0, spec["src"])
    from graphonctl import cli

    imported = time.monotonic()
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()

    calibrations = [calibration_s(np)]
    steps = []
    for index, argv in enumerate(spec["steps"]):
        if tracer is not None:
            tracer.run = index
        began = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails this call; the sequence goes on
            traceback.print_exc()
            code = -1
        steps.append({"code": code, "seconds": time.perf_counter() - began})
        calibrations.append(calibration_s(np))
    result = {
        "imported": imported,
        "calibrations": calibrations,
        "run_s": sum(step["seconds"] for step in steps),
        "steps": steps,
        "context": context(np, shim),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(sys.argv[2], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
