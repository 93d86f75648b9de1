"""wavebeam benchmark: run one workload closed loop for a fixed time, check it, report.

Run from the repository root:

    python3 benchmarks/run.py --workload solve-wave1 --seed 1 --seconds 40 --trace 0

Each operation is one CLI command (`wavebeam.cli.main`) in a fresh Python
process with the BLAS pinned to one thread; the next starts when the previous
one has finished and its output has been checked against a reference that
shares no code with wavebeam. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, medians over the run's commands (setup_s: over every
set-up the run made, see child.py). Their times are scaled to a reference
host speed: the run and its commands stay on one CPU, and before and after
each command the run times a fixed calibration task there
(measure.calibrate); the scale is set by the median of those timings. With
--trace 1 each operation is an untraced command followed by a traced one, and
the metrics are the per-layer ones of the traced commands, unscaled.

Exits 2 without a result when there is no wavebeam source tree to run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
import workloads

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}
CHILD_TIMEOUT_S = 150.0
CALIBRATION_S = 0.5  # calibration time between two commands

# correctness tolerances on the relative max error of the final state
WAVE_TOL = 1e-8  # the seed agrees to ~1e-11
BEAM_TOL = 1e-3  # loose enough for the seed's eigensolver error (~1.6e-4)
ORDER_TOL = 0.2  # as acceptance criterion C2


def read_state(path: Path) -> list:
    """Stacked (u, w) from a CLI solve CSV with columns x, u, w."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["u"]) for r in rows] + [float(r["w"]) for r in rows]


def read_snapshot(lines: list, n: int, index: int) -> tuple:
    """(t, stacked (u, w)) of snapshot number index from snapshot CSV lines (t, x, u, w)."""
    block = [line.split(",") for line in lines[1 + index * n : 1 + (index + 1) * n]]
    t = float(block[0][0])
    return t, [float(r[2]) for r in block] + [float(r[3]) for r in block]


class Checker:
    """Holds one workload's reference; check() scores one command's output."""

    def __init__(self, wl: workloads.Workload):
        import reference

        self.wl = wl
        self.reference = reference
        cfg = wl.config
        if wl.name == "solve-wave1":
            self.final_ref = list(reference.wave_ivp(cfg))
        elif wl.name == "solve-beam600-snap":
            self.final_ref = list(reference.beam_modal(cfg, cfg["T"]))

    def check(self, work: Path) -> tuple:
        """(ok, ref_err, note) for the outputs a command left in work."""
        cfg = self.wl.config
        out = work / cfg["out"]
        if self.wl.command == "converge":
            with open(out) as fh:
                rows = [(r["scheme"], r["M"], r["l2_error"]) for r in csv.DictReader(fh)]
            orders = self.reference.median_pairwise_orders(rows)
            nominal = {name: order for name, _c2, order in workloads.DESK_SCHEMES}
            if len(rows) != len(nominal) * len(workloads.DESK_M) or set(orders) != set(nominal):
                return False, None, f"unexpected convergence table ({len(rows)} rows)"
            worst = max(abs(orders[s] - nominal[s]) for s in nominal)
            ref_err = measure.floored(max(abs(orders[s] - nominal[s]) / nominal[s] for s in nominal))
            note = " ".join(f"{s}={orders[s]:.3f}" for s in nominal)
            return worst <= ORDER_TOL, ref_err, note

        ref_err = measure.rel_max_err(read_state(out), self.final_ref)
        tol = WAVE_TOL if self.wl.name == "solve-wave1" else BEAM_TOL
        ok = ref_err <= tol
        note = f"ref_err={ref_err:.3e}"
        if cfg.get("snapshots"):
            n, m_steps = cfg["N"], cfg["M"]
            snap = out.with_name(out.stem + "_snapshots.csv")
            with open(snap) as fh:
                lines = fh.read().splitlines()
            if len(lines) != 1 + n * m_steps // cfg["snapshots"]:
                return False, ref_err, f"snapshot file has {len(lines)} lines"
            t_mid, y_mid = read_snapshot(lines, n, m_steps // 2 - 1)
            mid_err = measure.rel_max_err(y_mid, self.reference.beam_modal(cfg, t_mid))
            t_end, y_end = read_snapshot(lines, n, m_steps - 1)
            ok = ok and mid_err <= tol and t_end == cfg["T"] and y_end == read_state(out)
            note += f" mid_err={mid_err:.3e} snapshot_bytes={snap.stat().st_size}"
        return ok, ref_err, note


def run_child(root: Path, work: Path, wl: workloads.Workload, trace: bool, timeout: float) -> dict:
    """One CLI command in a fresh process; its report, or {"rc": ...} on failure."""
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", **PINNED_ENV)
    env.pop("WAVEBEAM_CACHE_DIR", None)  # would make the CLI load Q from disk, skipping set-up
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path), "1" if trace else "0",
           "0" if trace else str(wl.extra_setups), "--", wl.command, "--config", "config.json"]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": "timeout"}
    if proc.returncode != 0 or not report_path.exists():
        sys.stderr.write(proc.stderr[-2000:])
        return {"rc": proc.returncode}
    with open(report_path) as fh:
        return json.load(fh)


def output_bytes(work: Path) -> int:
    return sum(p.stat().st_size for p in work.iterdir()
               if p.name not in ("config.json", "report.json"))


def clear_outputs(work: Path) -> None:
    for p in work.iterdir():
        if p.name != "config.json":
            p.unlink()


def end_to_end(report: dict, wl: workloads.Workload, ref_err: float, task_s: float) -> dict:
    return {
        "wall_s": (measure.at_reference_speed(report["wall_s"], task_s), "s"),
        "steps_per_s": (wl.steps / measure.at_reference_speed(report["solve_s"], task_s), "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ref_err": (ref_err, "ratio"),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit(root: Path):
    """HEAD of the repository rooted at root, or None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root:
        return None
    return lines[1]


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wavebeam" / "cli.py").is_file():
        print(f"no wavebeam source tree under {root / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads in this process
    if hasattr(os, "sched_setaffinity"):  # commands inherit it; calibration must share their CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    wl = workloads.make(args.workload, args.seed)
    checker = Checker(wl)

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=root / ".bench_work"))
    (work / "config.json").write_text(json.dumps(wl.config, indent=1))

    samples, notes, durations, task_times, untraced = [], [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    if not trace:
        task_times.append(measure.calibrate(CALIBRATION_S))
    try:
        while True:
            t0 = time.monotonic()
            timeout = max(30.0, CHILD_TIMEOUT_S - (t0 - start))
            attempted += 1
            report = run_child(root, work, wl, False, timeout)
            ok = report["rc"] == 0 and len(report["setups_s"]) == 1 + wl.extra_setups
            ref_err = None
            if ok:
                ok, ref_err, note = checker.check(work)
                notes.append(note)
            if ok and trace:
                untraced_wall = report["wall_s"]
                clear_outputs(work)
                report = run_child(root, work, wl, True, timeout)
                ok = report["rc"] == 0 and checker.check(work)[0]
                if ok:
                    tracer = measure.Tracer()
                    tracer.spans, tracer.counts = report["spans"], report["counts"]
                    layers = measure.layer_metrics(tracer, wl.n, report["wall_s"], untraced_wall)
                    layers["cli.bytes_written"] = (output_bytes(work), "B")
                    samples.append(layers)
            elif ok:
                untraced.append((report, ref_err))
                task_times.append(measure.calibrate(CALIBRATION_S))
            if not ok:
                failed += 1
            clear_outputs(work)
            durations.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups = []
    if untraced:
        task_s = statistics.median(task_times)
        samples = [end_to_end(report, wl, ref_err, task_s) for report, ref_err in untraced]
        setups = [measure.at_reference_speed(s, task_s) for report, _ in untraced
                  for s in report["setups_s"]]
    metrics = measure.median_of(samples)
    if setups:
        metrics["ref_err"] = (max(s["ref_err"][0] for s in samples), "ratio")
        metrics["setup_s"] = (statistics.median(setups), "s")
    print("# env " + json.dumps(environment(root)))
    print("# workload " + json.dumps({"name": wl.name, "seed": args.seed, "trace": args.trace,
                                      "commands": attempted, "checks": notes}))
    for name in sorted(samples[0]) if samples else ():
        print(f"# samples {name} " + json.dumps([s[name][0] for s in samples if name in s]))
    if setups:
        print("# samples setup_s " + json.dumps(setups))
        print("# unscaled " + json.dumps({
            "calibration_s": task_times,
            "wall_s": [report["wall_s"] for report, _ in untraced],
            "solve_s": [report["solve_s"] for report, _ in untraced],
            "setups_s": [report["setups_s"] for report, _ in untraced]}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
