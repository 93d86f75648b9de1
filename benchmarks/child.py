"""Run one wavebeam CLI command in this fresh process; write what it measured as JSON.

Usage: python3 child.py REPORT.json TRACE SETUPS -- CLI-ARGS...

With TRACE 0 the only hook is one timestamp on entry to integrators.solve and
the time spent inside it. After the command, the CLI is called SETUPS more
times in the same process, each stopped at its first solve, so one command
yields 1 + SETUPS set-up times. With TRACE 1 the public functions of each
module are wrapped in spans from outside. Every entry point is looked up by name at
run time; one that no longer exists is skipped, so its layer shows up as a
missing metric instead of a crash.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
import time

from measure import Tracer

# (module, function, span name)
FUNCTIONS = (
    ("discretize", "build_operator", "discretize.build_operator"),
    ("eigen", "factorize", "eigen.factorize"),
    ("modefuncs", "classify_mode", "modefuncs.classify_mode"),
    ("modefuncs", "phi_block", "modefuncs.phi_block"),
    ("propagator", "build_propagator", "propagator.build_propagator"),
)
# (module, class, method, span name)
METHODS = (
    ("propagator", "BlockPropagator", "table", "propagator.table"),
    ("propagator", "BlockPropagator", "apply_stacked", "propagator.apply_stacked"),
)


def load(name: str):
    try:
        return importlib.import_module(f"wavebeam.{name}")
    except ImportError:
        return None


def patch_everywhere(module, attr: str, make) -> None:
    """Replace module.attr, and every wavebeam module's binding of the same object."""
    orig = getattr(module, attr, None) if module is not None else None
    if orig is None:
        return
    new = make(orig)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "wavebeam":
            continue
        for key in [k for k, v in vars(mod).items() if v is orig]:
            setattr(mod, key, new)


class TimedWriter:
    """csv writer whose writes are spans, counting rows."""

    def __init__(self, writer, tracer: Tracer):
        self._writer = writer
        self._tracer = tracer

    def writerow(self, row):
        self._tracer.enter("cli.write")
        try:
            return self._writer.writerow(row)
        finally:
            self._tracer.exit()
            self._tracer.count("cli.rows_written")

    def writerows(self, rows):
        def counted():
            for row in rows:
                self._tracer.count("cli.rows_written")
                yield row

        self._tracer.enter("cli.write")
        try:
            return self._writer.writerows(counted())
        finally:
            self._tracer.exit()


class CsvProxy:
    """Stand-in for the csv module inside wavebeam.cli whose writers are timed."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def writer(self, *args, **kwargs):
        return TimedWriter(self._real.writer(*args, **kwargs), self._tracer)


def counting_builds(tracer: Tracer, table):
    """table, counting the lookups that evaluated mode functions, i.e. built their table."""

    def lookup(*args, **kwargs):
        before = tracer.calls("modefuncs.phi_block")
        try:
            return table(*args, **kwargs)
        finally:
            if tracer.calls("modefuncs.phi_block") != before:
                tracer.count("propagator.tables_built")

    return lookup


def install_tracing(tracer: Tracer, mods: dict) -> None:
    for mod, attr, span in FUNCTIONS:
        patch_everywhere(mods[mod], attr, lambda fn, span=span: tracer.wrap(span, fn))
    for mod, cls_name, attr, span in METHODS:
        cls = getattr(mods[mod], cls_name, None) if mods[mod] is not None else None
        if cls is not None and attr in vars(cls):
            fn = vars(cls)[attr]
            if attr == "table":
                fn = counting_builds(tracer, fn)
            setattr(cls, attr, tracer.wrap(span, fn))
    registry = getattr(mods["discretize"], "NONLINEARITIES", None)
    if isinstance(registry, dict):
        for key, fn in registry.items():
            registry[key] = tracer.wrap("discretize.nonlinearity", fn)
    if hasattr(mods["cli"], "csv"):
        mods["cli"].csv = CsvProxy(mods["cli"].csv, tracer)


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ru_maxrss is not used where /proc is available: on Linux it also counts
    the high-water mark of the parent's memory, which the exec that started
    this process inherited.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


class SetupDone(Exception):
    """Stops a set-up-only call of the CLI at its first solve."""


def main(argv: list[str]) -> int:
    report_path, trace, extra_setups = argv[0], argv[1] == "1", int(argv[2])
    cli_args = argv[4:] if argv[3:4] == ["--"] else argv[3:]
    mods = {name: load(name) for name in
            ("discretize", "eigen", "modefuncs", "propagator", "integrators", "cli")}
    cli = mods["cli"]
    tracer = Tracer()
    boundary = {"first_solve": None, "setup_only": False, "solve_s": 0.0, "solve_calls": 0}

    def solve_boundary(fn):
        sig = inspect.signature(fn)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            if boundary["first_solve"] is None:
                boundary["first_solve"] = start
                if boundary["setup_only"]:
                    raise SetupDone
            try:
                return fn(*args, **kwargs)
            finally:
                boundary["solve_s"] += time.perf_counter() - start
                boundary["solve_calls"] += 1
                if trace:
                    m_steps = sig.bind(*args, **kwargs).arguments.get("M")
                    if m_steps is not None:
                        tracer.count("integrators.steps", int(m_steps))

        return tracer.wrap("integrators.solve", timed) if trace else timed

    if trace:
        install_tracing(tracer, mods)
    patch_everywhere(mods["integrators"], "solve", solve_boundary)

    start = time.perf_counter()
    rc = cli.main(cli_args)
    wall_s = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    first = boundary["first_solve"]
    setups = [] if first is None else [first - start]
    boundary["setup_only"] = True
    for _ in range(extra_setups if setups else 0):
        boundary["first_solve"] = None
        start = time.perf_counter()
        try:
            cli.main(cli_args)
        except SetupDone:
            setups.append(boundary["first_solve"] - start)
    report = {
        "rc": rc,
        "wall_s": wall_s,
        "setups_s": setups,
        "solve_s": boundary["solve_s"],
        "solve_calls": boundary["solve_calls"],
        "peak_rss_mb": peak_mb,
    }
    if trace:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
