"""Run the benchmark over several seeds and write a BENCH_<label>.json trajectory file.

Run from the repository root:

    python3 benchmarks/baseline.py --label seed --seeds 10

For each workload it makes one untraced run per seed and one traced run. It
records every run's result and per-command samples, and for each metric the
median and quartiles of the run values, their spread as a share of the
median next to the bound BENCHMARK.json fixes, and the median and tail of
all command samples. Each run also keeps its unscaled times and calibration
timings. Later measurements go to new labels; existing files are not
overwritten.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("# env "))[len("# env "):])
    samples, unscaled = {}, None
    for line in lines:
        if line.startswith("# samples "):
            metric, values = line[len("# samples "):].split(" ", 1)
            samples[metric] = json.loads(values)
        elif line.startswith("# unscaled "):
            unscaled = json.loads(line[len("# unscaled "):])
    return {"seed": seed, "elapsed_s": elapsed, "env": env, "samples": samples,
            "unscaled": unscaled, **json.loads(lines[-1])}


def tail(values: list, better: str) -> dict | None:
    """The worst-side percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    if better == "higher":
        return {"percentile": 100.0 * 10 / len(values), "value": ordered[10]}
    return {"percentile": 100.0 * (len(values) - 10) / len(values), "value": ordered[-11]}


def summarize(runs: list, spec: dict) -> dict:
    """Per metric: quartiles of the run values, and median and tail of every command."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = {}
    for name in sorted({m for r in runs for m in r["metrics"]}):
        vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        commands = [v for r in runs for v in r["samples"].get(name, [])]
        better = metrics.get(name, {}).get("better", "lower")
        out[name] = {"runs": len(vals), "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "bound": metrics.get(name, {}).get("bound"),
                     "commands": len(commands),
                     "command_median": statistics.median(commands) if commands else None,
                     "command_tail": tail(commands, better)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    target = HERE / f"BENCH_{args.label}.json"
    if target.exists():
        parser.error(f"{target} exists; pick a new label")

    report = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for name in workloads.NAMES:
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = run_once(name, 1, seconds, 1)
        report.setdefault("env", runs[0]["env"])
        for r in runs:
            del r["env"]
        summary = summarize(runs, spec)
        report["workloads"][name] = {
            "end_to_end": summary,
            "per_layer": traced["metrics"],
            "traced_run": {k: traced[k] for k in ("seed", "elapsed_s", "correct", "attempted",
                                                  "failed")},
            "runs": runs,
        }
        for metric, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{name:22s} {metric:12s} median={s['median']:.6g} spread={spread} "
                  f"bound={s['bound']}", flush=True)
    target.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
