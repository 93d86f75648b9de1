"""Run every benchmark workload briefly, untraced and traced, and check each result line.

Run from anywhere:

    python3 ci/check_bench_results.py

For each workload in BENCHMARK.json and each of --trace 0 and --trace 1 it
runs `python3 benchmarks/run.py --workload W --seed 1 --seconds 1 --trace T`
from the repository root. A run passes when it exits 0 and the last line of
its stdout is strict JSON (NaN and Infinity rejected) with "correct": true,
"failed": 0 and a metric for every end_to_end name (trace 0) or every
per_layer name (trace 1) that BENCHMARK.json lists. Exits 1 if any run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def check_result_line(stdout: str, required: list) -> list:
    """Problems with the result line that ends stdout; empty when it is complete."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["no metrics object"]
    missing = [name for name in required if name not in metrics]
    if missing:
        problems.append(f"missing metrics: {', '.join(missing)}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    required = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    bad = 0
    for wl in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, "benchmarks/run.py", "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            problems = check_result_line(proc.stdout, required[trace])
            if proc.returncode != 0:
                problems.insert(0, f"exit status {proc.returncode}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{wl['name']} trace={trace}: {status}", flush=True)
            if problems:
                bad += 1
                sys.stderr.write(proc.stderr[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
