"""The result-line check that CI runs on every benchmark workload."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "ci" / "check_bench_results.py"
_spec = importlib.util.spec_from_file_location("check_bench_results", _PATH)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

METRIC = {"value": 1.0, "unit": "s"}


def line(**overrides):
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": METRIC}}
    result.update(overrides)
    return "# env {}\n" + json.dumps(result) + "\n"


def test_complete_line_passes():
    assert check.check_result_line(line(), ["wall_s"]) == []


def test_nan_and_infinity_rejected():
    for text in ("NaN", "Infinity", "-Infinity"):
        bad = line().replace("1.0", text)
        assert "strict JSON" in check.check_result_line(bad, ["wall_s"])[0]


def test_incorrect_failed_and_missing_metrics_reported():
    problems = check.check_result_line(line(correct=False, failed=2), ["wall_s", "setup_s"])
    assert len(problems) == 3
    assert "setup_s" in problems[2]


def test_last_line_must_be_the_result():
    assert check.check_result_line(line() + "Traceback ...\n", ["wall_s"])
    assert check.check_result_line("", ["wall_s"]) == ["no output"]
