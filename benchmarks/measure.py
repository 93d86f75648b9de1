"""The benchmark's own arithmetic: span bookkeeping and metric formulas.

Nothing here imports wavebeam, so the tests in test_measure.py exercise the
formulas without running a solve.
"""

from __future__ import annotations

import functools
import statistics
import time

# A result closer to its reference than this is "exact"; the floor keeps a
# reordered roundoff from reading as a regression.
REF_ERR_FLOOR = 1e-10

# One apply_stacked is four dense n-by-n mat-vecs: Q' on each half in, Q on
# each half out. Each reads n*n float64 entries and does n*n multiply-adds.
MATVECS_PER_APPLY = 4
BYTES_PER_ENTRY = 8

# On a shared host a CPU's speed drifts by tens of percent over minutes, more
# than most changes to the program move a timing. So a run also times a fixed
# reference task between its commands, on the same CPU, and reports its times
# scaled to a host on which one task takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 2e-3


class Tracer:
    """Aggregated spans: calls, total and self time per name, plus counters.

    Spans nest on one thread. A span's self time is its duration minus the
    durations of its direct children. Only per-name sums are kept, so a run
    with a million spans stays small.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list = []  # [name, start, child_s]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost span."""
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn):
        """fn inside a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def calls(self, name: str):
        entry = self.spans.get(name)
        return None if entry is None else entry[0]

    def total_s(self, name: str):
        entry = self.spans.get(name)
        return None if entry is None else entry[1]

    def self_s(self, name: str):
        entry = self.spans.get(name)
        return None if entry is None else entry[2]

    def covered_s(self) -> float:
        """Time spent inside any span: the sum of every self time."""
        return sum(entry[2] for entry in self.spans.values())


def calibrate(seconds: float) -> float:
    """Median seconds of a fixed task, repeated for about `seconds`.

    The task is interpreter work plus mat-vecs with a 2.9 MB matrix, which
    comes from L3 as Q does at n=600.
    """
    import numpy as np  # not at module level: child.py imports this module

    matrix = np.linspace(-1.0, 1.0, 600 * 600).reshape(600, 600) / 600.0
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i
        v = np.ones(600)
        for _ in range(8):
            v = matrix @ v
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(seconds: float, task_s: float) -> float:
    """A time measured while the calibration task took task_s, scaled to CALIBRATION_REF_S."""
    return seconds * CALIBRATION_REF_S / task_s


def floored(err: float) -> float:
    return max(float(err), REF_ERR_FLOOR)


def rel_max_err(y, ref) -> float:
    """max |y - ref| / max |ref| over all entries, floored at REF_ERR_FLOOR."""
    scale = max(abs(float(v)) for v in ref)
    worst = max(abs(float(a) - float(b)) for a, b in zip(y, ref, strict=True))
    return floored(worst / scale)


def table_reuse(built: int, lookups: int) -> float:
    """Share of table lookups served without a build: 1 - built/lookups."""
    if lookups < 1:
        raise ValueError("table_reuse needs at least one lookup")
    return 1.0 - built / lookups


def apply_flops(n: int, applies: int) -> int:
    """Computed flops of dense transforms: 2*n*n per mat-vec (one multiply-add per entry)."""
    return applies * MATVECS_PER_APPLY * 2 * n * n


def apply_bytes(n: int, applies: int) -> int:
    """Computed bytes of Q and Q' read by the transforms, ignoring cache hits."""
    return applies * MATVECS_PER_APPLY * n * n * BYTES_PER_ENTRY


def layer_metrics(tracer: Tracer, n: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced CLI run, as {name: (value, unit)}.

    A layer whose span never opened (its entry point was renamed or
    deleted) contributes no metric rather than a zero.
    """
    out: dict = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = (value, unit)

    t = tracer
    put("eigen.factorize_calls", t.calls("eigen.factorize"), "count")
    put("eigen.factorize_s", t.total_s("eigen.factorize"), "s")
    put("discretize.build_operator_s", t.total_s("discretize.build_operator"), "s")
    put("modefuncs.classify_calls", t.calls("modefuncs.classify_mode"), "count")
    put("modefuncs.classify_s", t.total_s("modefuncs.classify_mode"), "s")
    put("propagator.build_s", t.self_s("propagator.build_propagator"), "s")
    put("modefuncs.phi_block_calls", t.calls("modefuncs.phi_block"), "count")
    put("modefuncs.phi_block_s", t.total_s("modefuncs.phi_block"), "s")

    lookups = t.calls("propagator.table")
    if lookups:
        built = t.counts.get("propagator.tables_built", 0)
        put("propagator.table_lookups", lookups, "count")
        put("propagator.tables_built", built, "count")
        put("propagator.table_reuse", table_reuse(built, lookups), "ratio")

    steps = t.counts.get("integrators.steps")
    applies = t.calls("propagator.apply_stacked")
    if applies:
        put("propagator.apply_calls", applies, "count")
        if steps:
            put("propagator.apply_per_step", applies / steps, "count")
        put("propagator.apply_self_s", t.self_s("propagator.apply_stacked"), "s")
        put("propagator.flops_computed", apply_flops(n, applies), "flop")
        put("propagator.bytes_computed", apply_bytes(n, applies), "B")

    put("integrators.solve_calls", t.calls("integrators.solve"), "count")
    put("integrators.steps", steps, "count")
    solve_self = t.self_s("integrators.solve")
    put("integrators.self_s", solve_self, "s")
    if solve_self is not None and steps:
        put("integrators.self_us_per_step", 1e6 * solve_self / steps, "us")

    put("discretize.nonlinearity_calls", t.calls("discretize.nonlinearity"), "count")
    put("discretize.nonlinearity_s", t.total_s("discretize.nonlinearity"), "s")

    put("cli.write_s", t.total_s("cli.write"), "s")
    put("cli.rows_written", t.counts.get("cli.rows_written"), "count")

    put("trace.overhead", traced_wall / untraced_wall - 1.0, "ratio")
    put("trace.coverage", t.covered_s() / traced_wall, "ratio")
    return out


def median_of(samples: list[dict]) -> dict:
    """{name: (median value, unit)} over per-command samples of {name: (value, unit)}.

    A name missing from some samples takes the median of those that have it.
    Counts stay whole numbers.
    """
    names = {name for sample in samples for name in sample}
    out = {}
    for name in sorted(names):
        vals = [s[name][0] for s in samples if name in s]
        unit = next(s[name][1] for s in samples if name in s)
        whole = all(isinstance(v, int) for v in vals)
        out[name] = (statistics.median_low(vals) if whole else statistics.median(vals), unit)
    return out
