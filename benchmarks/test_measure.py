"""Tests of the benchmark's own arithmetic. Run: python3 -m pytest benchmarks"""

import pytest

import measure
import reference


class FakeClock:
    """A clock that reads from a list of times."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # solve [0, 10] > apply [1, 5] > table [2, 4]; solve > nonlinearity [6, 7]
    tr = measure.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    tr.enter("solve")
    tr.enter("apply")
    tr.enter("table")
    tr.exit()
    tr.exit()
    tr.enter("nonlinearity")
    tr.exit()
    tr.exit()
    assert tr.total_s("solve") == 10
    assert tr.self_s("solve") == 10 - 4 - 1
    assert tr.self_s("apply") == 4 - 2
    assert tr.self_s("table") == 2
    assert tr.covered_s() == 10


def test_self_time_accumulates_over_calls():
    tr = measure.Tracer(clock=FakeClock([0, 1, 3, 5, 8, 9]))
    tr.enter("solve")
    for _ in range(2):
        tr.enter("apply")
        tr.exit()
    tr.exit()
    # second solve with no children
    tr.clock = FakeClock([10, 11])
    tr.enter("solve")
    tr.exit()
    assert tr.calls("apply") == 2
    assert tr.total_s("apply") == (3 - 1) + (8 - 5)
    assert tr.calls("solve") == 2
    assert tr.self_s("solve") == (9 - 0 - 5) + 1
    assert tr.calls("never") is None


def test_wrap_exits_on_error():
    tr = measure.Tracer()

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tr.wrap("boom", boom)()
    assert tr.calls("boom") == 1 and tr._stack == []


def test_table_reuse_is_relative_to_lookups():
    assert measure.table_reuse(7, 98304) == pytest.approx(1 - 7 / 98304, rel=1e-15)
    assert measure.table_reuse(0, 5) == 1.0
    assert measure.table_reuse(5, 5) == 0.0
    with pytest.raises(ValueError):
        measure.table_reuse(0, 0)


def test_ref_err_floor():
    assert measure.floored(0.0) == 1e-10
    assert measure.floored(3e-12) == 1e-10
    assert measure.floored(1.6e-4) == 1.6e-4
    ref = [2.0, -4.0, 1.0]
    assert measure.rel_max_err(ref, ref) == 1e-10
    assert measure.rel_max_err([2.0, -4.0, 1.001], ref) == pytest.approx(0.001 / 4.0)
    with pytest.raises(ValueError):
        measure.rel_max_err([1.0], ref)


def test_bytes_and_flops_for_known_n():
    # one apply at n = 200: four 200x200 mat-vecs
    assert measure.apply_bytes(200, 1) == 4 * 200 * 200 * 8 == 1_280_000
    assert measure.apply_flops(200, 1) == 4 * 2 * 200 * 200 == 320_000
    # solve-wave1: 8192 steps x 12 applies
    assert measure.apply_bytes(200, 98304) == 125_829_120_000
    assert measure.apply_flops(600, 3072) == 8_847_360_000


def test_times_scale_to_reference_speed():
    ref = measure.CALIBRATION_REF_S
    assert measure.at_reference_speed(3.0, ref) == 3.0
    # the task took twice as long as on the reference host: everything ran at half speed
    assert measure.at_reference_speed(3.0, 2 * ref) == pytest.approx(1.5)
    assert measure.calibrate(0.0) > 0.0


def test_layer_metrics_skips_missing_layers():
    tr = measure.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 10]))
    tr.enter("integrators.solve")
    tr.enter("propagator.apply_stacked")
    tr.enter("propagator.table")
    tr.exit()
    tr.exit()
    tr.exit()
    tr.count("propagator.tables_built")
    tr.count("integrators.steps", 2)
    out = measure.layer_metrics(tr, n=10, traced_wall=11.0, untraced_wall=10.0)
    assert not any(name.startswith("eigen.") for name in out)
    assert "cli.write_s" not in out
    assert out["propagator.apply_per_step"] == (0.5, "count")
    assert out["propagator.table_reuse"] == (0.0, "ratio")
    assert out["propagator.bytes_computed"] == (3200, "B")
    assert out["integrators.self_us_per_step"][0] == pytest.approx(1e6 * 7 / 2)
    assert out["trace.overhead"][0] == pytest.approx(0.1)
    assert out["trace.coverage"][0] == pytest.approx(10 / 11)


def test_median_of_handles_missing_names():
    samples = [{"a": (1.0, "s"), "b": (5, "count")}, {"a": (3.0, "s")}, {"a": (2.0, "s")}]
    assert measure.median_of(samples) == {"a": (2.0, "s"), "b": (5, "count")}
    counts = measure.median_of([{"n": (7, "count")}, {"n": (7, "count")}])
    assert counts == {"n": (7, "count")} and isinstance(counts["n"][0], int)


def test_median_pairwise_orders():
    rows = [("X", m, 3.0 * m**-2.0) for m in (16, 32, 64, 128)]
    rows += [("Y", 16, 1.0), ("Y", 32, 0.5), ("Y", 64, 0.125), ("Y", 128, 0.0625)]
    orders = reference.median_pairwise_orders(rows)
    assert orders["X"] == pytest.approx(2.0, abs=1e-12)
    assert orders["Y"] == pytest.approx(1.0, abs=1e-12)
