"""Quick self-test of the benchmark at tiny input sizes (about a minute).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every workload, untraced and traced, passes its output checks and
prints exactly the metrics BENCHMARK.json names, with their units; and that a
corrupted artifact makes the failed/attempted ratio nonzero.
"""

import json
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect_metrics(result: dict, declared: list, what: str) -> list:
    problems = []
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        problems.append(f"{what}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in declared})}")
    for metric in declared:
        value = got.get(metric["name"])
        if value is not None and value["unit"] != metric["unit"]:
            problems.append(f"{what}: {metric['name']} has unit {value['unit']}")
    return problems


def corrupt_eigenvalues(steps: list, outs: list):
    for step, out in zip(steps, outs):
        if step.label == "spectra":
            path = Path(out) / "eigenvalues.csv"
            lines = path.read_text().splitlines()
            index, value = lines[1].split(",")
            lines[1] = f"{index},{float(value) + 1.0!r}"
            path.write_text("\n".join(lines) + "\n")


def corrupt_cost(steps: list, outs: list):
    for step, out in zip(steps, outs):
        if step.label == "epidemic":
            path = Path(out) / "cost.json"
            path.write_text(path.read_text().replace('"optimal": ', '"optimal": NaN, "was": '))


def corrupt_cost_type(steps: list, outs: list):
    """Valid JSON of the wrong type: a check must count it, not crash on it."""
    for step, out in zip(steps, outs):
        if step.label == "epidemic":
            path = Path(out) / "cost.json"
            path.write_text(path.read_text().replace('"optimal": ', '"optimal": null, "was": '))


def main() -> int:
    problems = []
    for workload in sorted(run.workloads.WORKLOADS):
        for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
            what = f"{workload} trace={int(trace)}"
            result = run.run(workload, seed=7, seconds=1, trace=trace, scale="tiny")
            print(f"{what}: attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
            if not result["correct"] or result["failed"]:
                problems.append(f"{what}: outputs failed their checks")
            problems += expect_metrics(result, declared, what)
    for workload, corrupt in (("dense-report", corrupt_eigenvalues),
                              ("lowrank-epidemic", corrupt_cost),
                              ("lowrank-epidemic", corrupt_cost_type)):
        result = run.run(workload, seed=7, seconds=1, trace=False, scale="tiny",
                         corrupt=corrupt)
        rate = result["failed"] / result["attempted"]
        print(f"{workload} with {corrupt.__name__}: fail rate {rate:.3f}",
              file=sys.stderr)
        if result["correct"] or rate == 0.0:
            problems.append(f"{corrupt.__name__} went unnoticed")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
