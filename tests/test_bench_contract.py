"""The traced benchmark run reports every per-layer metric BENCHMARK.json lists.

Each case runs benchmarks/child.py with tracing on, as benchmarks/run.py
does, on a tiny config of one workload's shape, and feeds its spans to
benchmarks/measure.py. A layer whose entry point the program no longer calls
(a renamed or bypassed function) leaves its metric out, and the benchmark's
result line then fails its check; this test shows that in seconds instead.
Nothing under benchmarks/ is written.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wavebeam.eigen import N_FOLD

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("measure", ROOT / "benchmarks" / "measure.py")
measure = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(measure)

# run.py measures this one from the output files itself
ADDED_BY_RUN = {"cli.bytes_written"}

CASES = {
    "wave-solve": ("solve", {"preset": "wave1", "N": 16, "M": [8], "scheme": "EI-SW4",
                             "snapshots": 2, "out": "final.csv"}),
    "wave-converge": ("converge", {"preset": "wave1", "N": 16, "T": 0.25,
                                   "schemes": [{"name": "EI-SW22", "c2": 0.5}],
                                   "M": [8, 16, 32], "M_ref": 256, "out": "conv.csv"}),
    "beam-solve-folded": ("solve", {"preset": "beam1", "N": N_FOLD + 1, "g": "zero", "h": "zero",
                                    "M": [4], "scheme": "EI-K4", "snapshots": 1,
                                    "out": "final.csv"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_run_reports_every_per_layer_metric(tmp_path, case):
    command, config = CASES[case]
    (tmp_path / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    report_path = tmp_path / "report.json"
    cmd = [sys.executable, str(ROOT / "benchmarks" / "child.py"), str(report_path), "1", "0",
           "--", command, "--config", "config.json"]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(report_path.read_text())
    assert report["rc"] == 0, proc.stderr[-2000:]

    tracer = measure.Tracer()
    tracer.spans, tracer.counts = report["spans"], report["counts"]
    got = measure.layer_metrics(tracer, config["N"], report["wall_s"], report["wall_s"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in bench["per_layer"]
               if m["name"] not in got and m["name"] not in ADDED_BY_RUN]
    assert not missing, f"{case}: no metric for {missing}"
