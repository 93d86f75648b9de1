"""Command-line front end: single runs, convergence studies, mode diagnostics.

Configuration comes from three layers, each overriding the one before: a
named preset (``--preset``, or the config file's ``"preset"`` field), the
config file's own fields, and command-line flags. Each layer is read into a
dict by the parsers of ``FIELDS``, flags as file values; the dicts are
merged once into a ``RunConfig``. Every bad argument ends in one ``error:``
line and exit 1. All numeric CSV output is written with 17 significant digits
so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import os
import sys
from dataclasses import dataclass, field, fields
from itertools import chain, repeat

from .discretize import Profile, ProblemSpec, build_operator, grid_points
from .errors import ConfigError, OracleScaleError, OutputWriteError, WaveBeamError
from .integrators import build_tableau, solve
from .modefuncs import CASE_NAMES
from .oracles import ASSEMBLE_MAX_N, block_oracle_suite, discrete_l2_error, observed_order
from .presets import load_preset
from .propagator import build_propagator

ORACLE_TOL = 1e-10


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _fmt_all(values: list) -> list:
    """_fmt of each float in values, made by one %-template pass over all of them.

    '%.17g' % x and f"{x:.17g}" write the same bytes for every float.
    """
    return ("%.17g\n" * len(values) % tuple(values)).splitlines()


SPEC_KEYS = tuple(f.name for f in fields(ProblemSpec))


@dataclass
class RunConfig:
    """Fully resolved run parameters for one CLI invocation, named as in a config file."""

    spec: dict = field(default_factory=dict)  # the ProblemSpec fields some layer set
    kind: str = "wave"
    N: int | None = None
    scheme: str | None = None
    c2: float | None = None
    schemes: list | None = None
    M: list = field(default_factory=list)
    M_ref: int | None = None
    ref_scheme: str = "EI-SW4"
    ref_c2: float | None = None
    out: str | None = None
    snapshots: int | None = None

    def problem_spec(self) -> ProblemSpec:
        if "alpha" not in self.spec:
            raise ConfigError("alpha is required (set it in the config file or pick a preset)")
        if "T" not in self.spec:
            raise ConfigError("final time T is required")
        try:
            return ProblemSpec(**self.spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid_size(self) -> int:
        if self.N is None:
            raise ConfigError("grid size N is required")
        return self.N

    def scheme_list(self) -> list:
        if self.scheme is not None:
            return [(self.scheme, self.c2)]
        if self.schemes:
            return list(self.schemes)
        raise ConfigError("no scheme given (use --scheme, a preset, or a config 'schemes' list)")


def _string(name: str, value) -> str:
    # no key takes "": an empty "out" would write the command's default file
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _number(name: str, value) -> float:
    if not isinstance(value, bool):  # float(true) is 1.0, but a JSON boolean is no number
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):  # an int above 1.8e308 overflows
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _count(name: str, value) -> int:
    num = value
    if isinstance(value, str):  # int() reads a decimal count exactly; float() rounds above 2^53
        try:
            num = int(value)
        except ValueError:
            pass
    if isinstance(num, bool) or not isinstance(num, int):
        num = _number(name, value)
        if not num.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        num = int(num)
    if num < 1:
        raise ConfigError(f"{name} must be at least 1, got {value!r}")
    try:
        float(num)  # solve divides T by M, so a count must also be a finite float
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float, got {value!r}") from None
    return num


def _counts(name: str, value) -> list:
    return [_count(name, m) for m in (value if isinstance(value, list) else [value])]


def _profile(name: str, value) -> Profile:
    if isinstance(value, str):
        return Profile(value)
    if isinstance(value, dict) and isinstance(value.get("name"), str):
        params = value.get("params", ())
        if not isinstance(params, (list, tuple)):
            raise ConfigError(f"profile params must be a list, got {params!r}")
        return Profile(value["name"], tuple(_number(f"params of {name}", v) for v in params))
    raise ConfigError(f"profile entries need a string 'name' (optional 'params'), got {value!r}")


def _schemes(name: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    out = []
    for item in value:
        if isinstance(item, str):
            out.append((item, None))
        elif isinstance(item, dict) and isinstance(item.get("name"), str):
            c2 = item.get("c2")
            out.append((item["name"], None if c2 is None else _number(f"c2 of {name}", c2)))
        else:
            raise ConfigError(f"scheme entries need a string 'name' (optional 'c2'), got {item!r}")
    return out


# The config vocabulary: every config-file key, which is also the argparse
# dest of its flag, mapped to the parser of its JSON value or flag string.
# A parser's first argument names the value in its errors: the config field
# or the flag it came from. Every key but "preset" names a RunConfig field
# or a key of RunConfig.spec.
FIELDS = {
    **dict.fromkeys(("preset", "kind", "g", "h", "scheme", "ref_scheme", "out"), _string),
    **dict.fromkeys(("alpha", "beta", "gamma", "delta", "ell", "T", "c2", "ref_c2"), _number),
    **dict.fromkeys(("N", "M_ref", "snapshots"), _count),
    "M": _counts,
    "p": _profile,
    "q": _profile,
    "schemes": _schemes,
}


def _preset_fields(preset_id: str) -> dict:
    preset = load_preset(preset_id)
    return {
        **{key: getattr(preset.spec, key) for key in SPEC_KEYS},
        "kind": preset.kind,
        "N": preset.n,
        "schemes": list(preset.schemes),
        "M": list(preset.m_list),
        "M_ref": preset.m_ref,
        "ref_scheme": preset.ref_scheme,
    }


def _parse_layer(layer: dict, name) -> dict:
    """Each value of one layer but None parsed by its FIELDS entry, named name(key) in errors."""
    return {key: FIELDS[key](name(key), value) for key, value in layer.items() if value is not None}


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(key for key in data if key not in FIELDS)
    if unknown:
        raise ConfigError(f"unknown config field(s) {', '.join(map(repr, unknown))}")
    return _parse_layer(data, lambda key: f"config field {key!r}")


def resolve_config(args) -> RunConfig:
    """Preset, then config file, then flags, each layer overriding the one before."""
    path = getattr(args, "config", None)  # oracle-check takes --N alone
    file = _read_config_file(path) if path else {}
    flags = _parse_layer({key: value for key, value in vars(args).items() if key in FIELDS},
                         lambda key: f"flag {OPTIONS[key][0]}")
    # the preset names the lowest layer, so it leaves both dicts: --preset first
    preset_id = flags.pop("preset", file.pop("preset", None))
    merged = _preset_fields(preset_id) if preset_id is not None else {}
    merged.update(file)
    merged.update(flags)
    spec = {key: merged.pop(key) for key in SPEC_KEYS if key in merged}
    return RunConfig(spec=spec, **merged)


def _check_writable(path: str) -> None:
    """Raise the OutputWriteError that writing path would raise, before any work; create nothing.

    A study can run for hours before its CSV is written, so an output path that
    cannot be opened for writing must fail when the command starts.
    """
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        code = errno.EACCES
    else:
        return
    raise OutputWriteError(f"cannot write {path}: {os.strerror(code)}")


def _write_csv(path: str, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _build_problem(cfg: RunConfig):
    spec = cfg.problem_spec()
    op = build_operator(cfg.kind, cfg.grid_size(), spec.ell)
    return spec, op, build_propagator(op, spec)


def _state_rows(xs, state, *lead):
    """CSV rows (*lead, x, u, w) of one state; xs and lead come formatted.

    The state's 2n values are formatted in one pass and the rows are zipped
    in C, so no Python code runs per row.
    """
    n = len(xs)
    values = _fmt_all(state.stacked().tolist())
    return zip(*map(repeat, lead), xs, values[:n], values[n:])


def cmd_solve(cfg: RunConfig) -> int:
    if len(cfg.M) != 1:
        raise ConfigError(f"solve needs exactly one step count, got M list {cfg.M}")
    name, c2 = cfg.scheme_list()[0]
    tableau = build_tableau(name, c2)
    out = cfg.out or "solution.csv"
    snap_path = os.path.splitext(out)[0] + "_snapshots.csv" if cfg.snapshots else None
    _check_writable(out)
    if snap_path is not None:
        _check_writable(snap_path)
    spec, op, prop = _build_problem(cfg)
    m_steps = cfg.M[0]
    result = solve(prop, tableau, spec, m_steps, snapshot_every=cfg.snapshots or None)
    xs = _fmt_all(grid_points(op.n, spec.ell).tolist())
    # each state is formatted only when the writer reaches it, inside its
    # writerows, and one state's strings are alive at a time
    _write_csv(out, ("x", "u", "w"), chain.from_iterable(
        _state_rows(xs, state) for state in (result.y_final,)))
    if snap_path is not None:
        _write_csv(snap_path, ("t", "x", "u", "w"), chain.from_iterable(
            _state_rows(xs, state, _fmt(t)) for t, state in result.snapshots))
    print(
        f"scheme={tableau.name} M={m_steps} wall={result.stats.wall_time:.3f}s "
        f"phi_evals={result.stats.phi_evals} out={out}"
    )
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    if len(cfg.M) < 3:
        raise ConfigError(f"converge needs at least 3 step counts, got {cfg.M}")
    if len(set(cfg.M)) < len(cfg.M):
        raise ConfigError(f"converge needs distinct step counts, got {cfg.M}")
    if cfg.M_ref is None:
        raise ConfigError("converge needs a reference step count (--Mref)")
    if cfg.M_ref <= max(cfg.M):
        raise ConfigError(f"M_ref = {cfg.M_ref} must exceed the largest M = {max(cfg.M)}")
    # every tableau first: a bad scheme must not wait for the reference solve
    tableaus = [build_tableau(name, c2) for name, c2 in cfg.scheme_list()]
    ref_tab = build_tableau(cfg.ref_scheme, cfg.ref_c2)
    out = cfg.out or "convergence.csv"
    _check_writable(out)
    spec, op, prop = _build_problem(cfg)
    y_ref = solve(prop, ref_tab, spec, cfg.M_ref).y_final
    rows = []
    for tableau in tableaus:
        errors = []
        for m_steps in sorted(cfg.M):
            y = solve(prop, tableau, spec, m_steps).y_final
            err = discrete_l2_error(y, y_ref, op.dx)
            errors.append((m_steps, err))
            rows.append((tableau.name, str(m_steps), _fmt(spec.T / m_steps), _fmt(err)))
        order = observed_order(errors)
        print(f"{tableau.name}: observed order {order:.3f}")
    _write_csv(out, ("scheme", "M", "tau", "l2_error"), rows)
    print(f"wrote {out}")
    return 0


def cmd_modes(cfg: RunConfig) -> int:
    out = cfg.out or "modes.csv"
    _check_writable(out)
    _, _, prop = _build_problem(cfg)
    p = prop.modes
    columns = [_fmt_all(col.tolist()) for col in (p.lam, p.m, p.n)]
    cases = [CASE_NAMES[case] for case in p.case.tolist()]
    rows = list(zip(map(str, range(1, len(cases) + 1)), *columns, cases))
    _write_csv(out, ("index", "lambda", "m", "n", "case"), rows)
    print(f"wrote {out} ({len(rows)} modes)")
    return 0


def cmd_oracle_check(cfg: RunConfig) -> int:
    sizes = (4, 8, 16) if cfg.N is None else (cfg.N,)
    for n in sizes:
        if n > ASSEMBLE_MAX_N:
            raise OracleScaleError(f"oracle check capped at n = {ASSEMBLE_MAX_N}, got {n}")
    rows, cases_seen = block_oracle_suite(sizes=sizes)
    worst: dict[tuple, float] = {}
    for kind, regime, n, _t, _k, err in rows:
        key = (kind, regime, n)
        worst[key] = max(worst.get(key, 0.0), err)
    for (kind, regime, n), err in sorted(worst.items()):
        status = "ok" if err <= ORACLE_TOL else "FAIL"
        print(f"{kind:5s} {regime:12s} n={n:<3d} max_rel_err={err:.3e} {status}")
    print(f"discriminant cases covered: {', '.join(sorted(cases_seen))}")
    if not all(err <= ORACLE_TOL for err in worst.values()):
        print(f"oracle check FAILED (tolerance {ORACLE_TOL:g})", file=sys.stderr)
        return 1
    print("oracle check passed")
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "modes": cmd_modes,
    "oracle-check": cmd_oracle_check,
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ConfigErrors, so main reports them in one line."""

    def error(self, message):
        raise ConfigError(message)


# The subcommands' options, by argparse dest: the flag, the one place it is
# spelled, and its add_argument keywords. A dest in FIELDS is a config key.
# oracle-check reads no config, so it takes --N alone and refuses the rest.
OPTIONS = {
    "config": ("--config", dict(metavar="PATH", help="JSON config file")),
    "preset": ("--preset", dict(metavar="ID", help="named experiment preset")),
    "scheme": ("--scheme", dict(metavar="NAME", help="integrator scheme")),
    "c2": ("--c2", dict(metavar="X", help="free node for EI-SW21/EI-SW22")),
    "M": ("--M", dict(action="append", metavar="N", help="step count (repeat for converge)")),
    "M_ref": ("--Mref", dict(metavar="N", help="reference step count")),
    "N": ("--N", dict(metavar="n", help="number of interior grid points")),
    "T": ("--T", dict(metavar="t", help="final time")),
    "out": ("--out", dict(metavar="PATH", help="output CSV path")),
    "snapshots": ("--snapshots", dict(metavar="K", help="snapshot every K steps")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged and flags as strings."""
    parser = _Parser(
        prog="wavebeam",
        description="Damped wave / beam solver built on exact mode-block matrix functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, dests, help_text in (
        ("solve", OPTIONS, "run one preset or config and write the final state as CSV"),
        ("converge", OPTIONS, "run a convergence study over a list of step counts"),
        ("modes", OPTIONS, "dump per-mode discriminant diagnostics as CSV"),
        ("oracle-check", ("N",), "compare the block path against the dense oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        for dest in dests:
            flag, kwargs = OPTIONS[dest]
            p.add_argument(flag, dest=dest, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except WaveBeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
