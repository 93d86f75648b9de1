"""Command-line front end: single runs, convergence studies, mode diagnostics.

Configuration comes from three layers, each overriding the one before: a
named preset (``--preset``, or the config file's ``"preset"`` field), the
config file's own fields, and command-line flags. All numeric CSV output is
written with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field

from .discretize import Profile, ProblemSpec, build_operator, grid_points
from .eigen import factorize
from .errors import ConfigError, OracleScaleError, OutputWriteError, WaveBeamError
from .integrators import build_tableau, solve
from .modefuncs import CASE_NAMES, classify_mode
from .oracles import block_oracle_suite, discrete_l2_error, load_preset, observed_order
from .propagator import build_propagator

ORACLE_TOL = 1e-10


def _fmt(x) -> str:
    return f"{float(x):.17g}"


@dataclass
class RunConfig:
    """Fully resolved run parameters for one CLI invocation."""

    kind: str = "wave"
    alpha: float | None = None
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    g: str = "zero"
    h: str = "zero"
    p: Profile = field(default_factory=lambda: Profile("zero"))
    q: Profile = field(default_factory=lambda: Profile("zero"))
    ell: float = 1.0
    T: float | None = None
    n: int | None = None
    n_from_flag: bool = False
    scheme: str | None = None
    c2: float | None = None
    schemes: list | None = None
    m_list: list = field(default_factory=list)
    m_ref: int | None = None
    ref_scheme: str = "EI-SW4"
    ref_c2: float | None = None
    out: str | None = None
    snapshots: int | None = None

    def problem_spec(self) -> ProblemSpec:
        if self.alpha is None:
            raise ConfigError("alpha is required (set it in the config file or pick a preset)")
        if self.T is None:
            raise ConfigError("final time T is required")
        try:
            return ProblemSpec(
                alpha=self.alpha,
                beta=self.beta,
                gamma=self.gamma,
                delta=self.delta,
                g=self.g,
                h=self.h,
                p=self.p,
                q=self.q,
                ell=self.ell,
                T=self.T,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid_size(self) -> int:
        if self.n is None:
            raise ConfigError("grid size N is required")
        return self.n

    def scheme_list(self) -> list:
        if self.scheme is not None:
            return [(self.scheme, self.c2)]
        if self.schemes:
            return list(self.schemes)
        raise ConfigError("no scheme given (use --scheme, a preset, or a config 'schemes' list)")


def _number(key: str, value, cast):
    """A config value as float or int; integer fields must hold whole numbers."""
    try:
        num = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config field {key!r} must be a number, got {value!r}") from None
    if cast is int:
        if not num.is_integer():
            raise ConfigError(f"config field {key!r} must be an integer, got {value!r}")
        return int(num)
    return num


def _profile_from_json(value) -> Profile:
    if isinstance(value, str):
        return Profile(value)
    if isinstance(value, dict) and "name" in value:
        params = value.get("params", ())
        if not isinstance(params, (list, tuple)):
            raise ConfigError(f"profile params must be a list, got {params!r}")
        return Profile(value["name"], tuple(_number("params", v, float) for v in params))
    raise ConfigError(f"profile entries need a 'name' (and optional 'params'), got {value!r}")


def _schemes_from_json(value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"config field 'schemes' must be a list, got {value!r}")
    out = []
    for item in value:
        if isinstance(item, str):
            out.append((item, None))
        elif isinstance(item, dict) and isinstance(item.get("name"), str):
            c2 = item.get("c2")
            out.append((item["name"], None if c2 is None else _number("c2", c2, float)))
        else:
            raise ConfigError(f"scheme entries need a string 'name' (optional 'c2'), got {item!r}")
    return out


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
    preset = data.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise ConfigError(f"config field 'preset' must be a string, got {preset!r}")
    return data


def _apply_config_fields(cfg: RunConfig, data: dict) -> None:
    scalar_fields = {
        "kind": str,
        "alpha": float,
        "beta": float,
        "gamma": float,
        "delta": float,
        "g": str,
        "h": str,
        "ell": float,
        "T": float,
        "N": int,
        "scheme": str,
        "c2": float,
        "M_ref": int,
        "ref_scheme": str,
        "ref_c2": float,
        "out": str,
        "snapshots": int,
    }
    renames = {"N": "n", "M_ref": "m_ref"}
    for key, cast in scalar_fields.items():
        if key in data and data[key] is not None:
            value = str(data[key]) if cast is str else _number(key, data[key], cast)
            setattr(cfg, renames.get(key, key), value)
    if "p" in data:
        cfg.p = _profile_from_json(data["p"])
    if "q" in data:
        cfg.q = _profile_from_json(data["q"])
    if "M" in data:
        raw = data["M"]
        cfg.m_list = [_number("M", m, int) for m in (raw if isinstance(raw, list) else [raw])]
    if "schemes" in data:
        cfg.schemes = _schemes_from_json(data["schemes"])


def _apply_preset(cfg: RunConfig, preset_id: str) -> None:
    preset = load_preset(preset_id)
    spec = preset.spec
    cfg.kind = preset.kind
    cfg.n = preset.n
    cfg.alpha, cfg.beta, cfg.gamma, cfg.delta = spec.alpha, spec.beta, spec.gamma, spec.delta
    cfg.g, cfg.h, cfg.p, cfg.q = spec.g, spec.h, spec.p, spec.q
    cfg.ell, cfg.T = spec.ell, spec.T
    cfg.schemes = list(preset.schemes)
    cfg.m_list = list(preset.m_list)
    cfg.m_ref = preset.m_ref
    cfg.ref_scheme = preset.ref_scheme


def resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    data = _read_config_file(args.config) if args.config else {}
    preset_id = args.preset if args.preset is not None else data.get("preset")
    if preset_id is not None:
        _apply_preset(cfg, preset_id)
    _apply_config_fields(cfg, data)
    if args.N is not None:
        cfg.n = args.N
        cfg.n_from_flag = True
    if args.T is not None:
        cfg.T = args.T
    if args.scheme is not None:
        cfg.scheme = args.scheme
    if args.c2 is not None:
        cfg.c2 = args.c2
    if args.M:
        cfg.m_list = list(args.M)
    if args.Mref is not None:
        cfg.m_ref = args.Mref
    if args.out is not None:
        cfg.out = args.out
    if args.snapshots is not None:
        cfg.snapshots = args.snapshots
    counts = [("M", m) for m in cfg.m_list] + [("M_ref", cfg.m_ref), ("snapshots", cfg.snapshots)]
    for name, value in counts:
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be a positive step count, got {value}")
    return cfg


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


def cmd_solve(cfg: RunConfig) -> int:
    if len(cfg.m_list) != 1:
        raise ConfigError(f"solve needs exactly one step count, got M list {cfg.m_list}")
    name, c2 = cfg.scheme_list()[0]
    tableau = build_tableau(name, c2)
    spec, op, prop = _build_problem(cfg)
    m_steps = cfg.m_list[0]
    result = solve(prop, tableau, spec, m_steps, snapshot_every=cfg.snapshots or None)
    out = cfg.out or "solution.csv"
    x = grid_points(op.n, spec.ell)
    _write_csv(
        out,
        ("x", "u", "w"),
        (
            (_fmt(xi), _fmt(ui), _fmt(wi))
            for xi, ui, wi in zip(x, result.y_final.u, result.y_final.w)
        ),
    )
    if result.snapshots is not None:
        snap_path = os.path.splitext(out)[0] + "_snapshots.csv"
        _write_csv(
            snap_path,
            ("t", "x", "u", "w"),
            (
                (_fmt(t), _fmt(xi), _fmt(ui), _fmt(wi))
                for t, state in result.snapshots
                for xi, ui, wi in zip(x, state.u, state.w)
            ),
        )
    print(
        f"scheme={tableau.name} M={m_steps} wall={result.stats.wall_time:.3f}s "
        f"phi_evals={result.stats.phi_evals} out={out}"
    )
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    if len(cfg.m_list) < 3:
        raise ConfigError(f"converge needs at least 3 step counts, got {cfg.m_list}")
    if cfg.m_ref is None:
        raise ConfigError("converge needs a reference step count (--Mref)")
    if cfg.m_ref <= max(cfg.m_list):
        raise ConfigError(f"M_ref = {cfg.m_ref} must exceed the largest M = {max(cfg.m_list)}")
    schemes = cfg.scheme_list()
    spec, op, prop = _build_problem(cfg)
    ref_tab = build_tableau(cfg.ref_scheme, cfg.ref_c2)
    y_ref = solve(prop, ref_tab, spec, cfg.m_ref).y_final
    rows = []
    for name, c2 in schemes:
        tableau = build_tableau(name, c2)
        errors = []
        for m_steps in sorted(cfg.m_list):
            y = solve(prop, tableau, spec, m_steps).y_final
            err = discrete_l2_error(y, y_ref, op.dx)
            errors.append((m_steps, err))
            rows.append((tableau.name, str(m_steps), _fmt(spec.T / m_steps), _fmt(err)))
        order = observed_order(errors)
        print(f"{tableau.name}: observed order {order:.3f}")
    out = cfg.out or "convergence.csv"
    _write_csv(out, ("scheme", "M", "tau", "l2_error"), rows)
    print(f"wrote {out}")
    return 0


def cmd_modes(cfg: RunConfig) -> int:
    spec = cfg.problem_spec()
    op = build_operator(cfg.kind, cfg.grid_size(), spec.ell)
    fact = factorize(op)
    p = classify_mode(fact.lam, spec.alpha, spec.beta, spec.gamma, spec.delta)
    rows = [
        (str(i), _fmt(lam), _fmt(m), _fmt(n), CASE_NAMES[case])
        for i, (lam, m, n, case) in enumerate(zip(p.lam, p.m, p.n, p.case), start=1)
    ]
    out = cfg.out or "modes.csv"
    _write_csv(out, ("index", "lambda", "m", "n", "case"), rows)
    print(f"wrote {out} ({len(rows)} modes)")
    return 0


def cmd_oracle_check(cfg: RunConfig) -> int:
    sizes = (cfg.n,) if cfg.n_from_flag else (4, 8, 16)
    for n in sizes:
        if n > 64:
            raise OracleScaleError(f"oracle check capped at n = 64, got {n}")
    rows, cases_seen = block_oracle_suite(sizes=sizes)
    worst: dict[tuple, float] = {}
    for kind, regime, n, _t, _k, err in rows:
        key = (kind, regime, n)
        worst[key] = max(worst.get(key, 0.0), err)
    failed = False
    for (kind, regime, n), err in sorted(worst.items()):
        status = "ok" if err <= ORACLE_TOL else "FAIL"
        if err > ORACLE_TOL:
            failed = True
        print(f"{kind:5s} {regime:12s} n={n:<3d} max_rel_err={err:.3e} {status}")
    print(f"discriminant cases covered: {', '.join(sorted(cases_seen))}")
    if failed:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebeam",
        description="Damped wave / beam solver built on exact mode-block matrix functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run one preset or config and write the final state as CSV"),
        ("converge", "run a convergence study over a list of step counts"),
        ("modes", "dump per-mode discriminant diagnostics as CSV"),
        ("oracle-check", "compare the block path against the dense oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--preset", metavar="ID", help="named experiment preset")
        p.add_argument("--scheme", metavar="NAME", help="integrator scheme")
        p.add_argument("--c2", type=float, metavar="X", help="free node for EI-SW21/EI-SW22")
        p.add_argument(
            "--M",
            type=int,
            action="append",
            metavar="N",
            help="step count (repeat for converge)",
        )
        p.add_argument("--Mref", type=int, metavar="N", help="reference step count")
        p.add_argument("--N", type=int, metavar="n", help="number of interior grid points")
        p.add_argument("--T", type=float, metavar="t", help="final time")
        p.add_argument("--out", metavar="PATH", help="output CSV path")
        p.add_argument("--snapshots", type=int, metavar="K", help="snapshot every K steps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except WaveBeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
