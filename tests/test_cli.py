"""Command-line interface: config resolution, CSV outputs, exit codes."""

import copy
import csv
import dataclasses
import io
import json
import math
import os
from dataclasses import MISSING, fields

import numpy as np
import pytest

import wavebeam.cli as cli
from wavebeam.cli import COMMANDS, FIELDS, SPEC_KEYS, RunConfig, build_parser, main, resolve_config
from wavebeam.discretize import Profile, ProblemSpec, StateVector, build_operator, grid_points
from wavebeam.eigen import N_FOLD
from wavebeam.integrators import build_tableau, solve
from wavebeam.presets import PRESETS, load_preset
from wavebeam.propagator import build_propagator

LINEAR_CONFIG = {
    "kind": "wave",
    "alpha": 2.0,
    "beta": 0.01,
    "gamma": 0.1,
    "delta": 0.5,
    "g": "zero",
    "h": "zero",
    "p": {"name": "sine", "params": [1.0, math.pi]},
    "q": {"name": "cosine", "params": [0.5, math.pi]},
    "ell": 1.0,
    "T": 0.5,
    "N": 16,
}

# every key of the config vocabulary, each away from its default (RunConfig's,
# or ProblemSpec's for a spec key) and from wave1's value
EVERY_KEY = {
    "kind": "beam", "alpha": 3.5, "beta": 0.25, "gamma": 0.125, "delta": 2.0,
    "g": "cube", "h": "abs", "p": {"name": "hat", "params": [2.0]},
    "q": {"name": "cosine", "params": [1.5, 3.0]}, "ell": 2.0, "T": 0.75, "N": 12,
    "scheme": "EI-SW22", "c2": 0.4, "schemes": [{"name": "EI-SW21", "c2": 0.3}, "EI-K4"],
    "M": [6, 12, 24], "M_ref": 96, "ref_scheme": "EI-SW21", "ref_c2": 0.6,
    "out": "every.csv", "snapshots": 3,
}
EVERY_FIELD = {
    **EVERY_KEY,
    "p": Profile("hat", (2.0,)),
    "q": Profile("cosine", (1.5, 3.0)),
    "schemes": [("EI-SW21", 0.3), ("EI-K4", None)],
}


# ProblemSpec's own defaults; alpha has none
SPEC_DEFAULTS = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                 for f in fields(ProblemSpec)}


def field_value(cfg, key):
    """The value cfg resolved for config key: spec keys through cfg.spec, the rest as fields."""
    return cfg.spec.get(key, SPEC_DEFAULTS[key]) if key in SPEC_KEYS else getattr(cfg, key)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSolve:
    def test_preset_desk_scale_shape(self, tmp_path, capsys):
        out = tmp_path / "final.csv"
        rc = main([
            "solve", "--preset", "wave1", "--N", "20", "--T", "0.5",
            "--scheme", "EI-SW4", "--M", "16", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["x", "u", "w"]
        assert len(rows) == 21
        summary = capsys.readouterr().out
        assert "scheme=EI-SW4" in summary and "M=16" in summary

    def test_full_preset_row_count(self, tmp_path):
        # wave1 at its native N = 200 writes one row per interior node
        out = tmp_path / "final.csv"
        rc = main(["solve", "--preset", "wave1", "--scheme", "EI-E1",
                   "--M", "4", "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out)) == 201

    def test_floats_round_trip_17_digits(self, tmp_path):
        out = tmp_path / "final.csv"
        main(["solve", "--preset", "wave1", "--N", "10", "--T", "0.25",
              "--scheme", "EI-E1", "--M", "8", "--out", str(out)])
        rows = read_csv(out)[1:]
        xs = np.array([float(r[0]) for r in rows])
        assert np.array_equal(xs, np.arange(1, 11) * (1.0 / 11.0))

    def test_linear_m_independence(self, tmp_path):
        # F = 0: the exponential step is exact for any M
        cfg = write_config(tmp_path, LINEAR_CONFIG)
        out1, out64 = tmp_path / "m1.csv", tmp_path / "m64.csv"
        assert main(["solve", "--config", cfg, "--scheme", "EI-SW4", "--M", "1", "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--scheme", "EI-SW4", "--M", "64", "--out", str(out64)]) == 0
        a = np.array([[float(v) for v in r] for r in read_csv(out1)[1:]])
        b = np.array([[float(v) for v in r] for r in read_csv(out64)[1:]])
        assert np.max(np.abs(a - b)) <= 1e-11 * max(1.0, np.max(np.abs(a)))

    def test_missing_c2_fails(self, tmp_path, capsys):
        rc = main(["solve", "--preset", "wave1", "--N", "10", "--T", "0.25",
                   "--scheme", "EI-SW21", "--M", "8", "--out", str(tmp_path / "x.csv")])
        assert rc != 0
        assert "c2" in capsys.readouterr().err

    def test_solve_requires_single_m(self, tmp_path, capsys):
        rc = main(["solve", "--preset", "wave1", "--N", "10", "--T", "0.25",
                   "--scheme", "EI-E1", "--M", "8", "--M", "16", "--out", str(tmp_path / "x.csv")])
        assert rc != 0

    def test_snapshots_written(self, tmp_path):
        out = tmp_path / "final.csv"
        main(["solve", "--preset", "wave1", "--N", "10", "--T", "0.5",
              "--scheme", "EI-E1", "--M", "8", "--snapshots", "4", "--out", str(out)])
        rows = read_csv(tmp_path / "final_snapshots.csv")
        assert rows[0] == ["t", "x", "u", "w"]
        times = sorted({float(r[0]) for r in rows[1:]})
        assert times[-1] == 0.5 and len(times) == 2


def independent_csv(header, rows) -> bytes:
    """The bytes csv.writer writes for rows of floats, each formatted on its own."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("preset_id, scheme, n, T, M", [
    ("wave1", "EI-SW4", 16, 0.5, 6),
    ("beam1", "EI-K4", N_FOLD + 1, 5.0 * 4 / 256, 4),
], ids=["wave-16", "beam-fold"])
def test_solve_csv_bytes_match_an_independent_writer(tmp_path, preset_id, scheme, n, T, M):
    out = tmp_path / "final.csv"
    assert main(["solve", "--preset", preset_id, "--scheme", scheme, "--N", str(n),
                 "--T", repr(T), "--M", str(M), "--snapshots", "2", "--out", str(out)]) == 0
    preset = load_preset(preset_id)
    spec = dataclasses.replace(preset.spec, T=T)
    op = build_operator(preset.kind, n, spec.ell)
    result = solve(build_propagator(op, spec), build_tableau(scheme), spec, M, snapshot_every=2)
    xs = grid_points(n, spec.ell).tolist()

    def rows(state, *lead):
        return [(*lead, x, u, w) for x, u, w in zip(xs, state.u.tolist(), state.w.tolist())]

    assert out.read_bytes() == independent_csv(("x", "u", "w"), rows(result.y_final))
    assert len(result.snapshots) == M // 2
    snap_rows = [row for t, state in result.snapshots for row in rows(state, t)]
    assert (tmp_path / "final_snapshots.csv").read_bytes() == independent_csv(
        ("t", "x", "u", "w"), snap_rows)


EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e16, -1.7976931348623157e308]


@pytest.mark.parametrize("lead", [(), ("0.25",)], ids=["final", "snapshot"])
def test_state_rows_write_each_float_as_fmt_does(lead):
    xs = [f"x{i}" for i in range(len(EDGE_FLOATS))]
    us, ws = EDGE_FLOATS, EDGE_FLOATS[::-1]
    state = StateVector(np.array(us), np.array(ws))
    want = [(*lead, x, f"{u:.17g}", f"{w:.17g}") for x, u, w in zip(xs, us, ws)]
    assert list(cli._state_rows(xs, state, *lead)) == want
    assert cli._fmt_all(EDGE_FLOATS) == [cli._fmt(v) for v in EDGE_FLOATS]
    assert cli._fmt_all([]) == []


class TestConverge:
    def test_desk_scale_orders_and_csv(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        args = [
            "converge", "--preset", "wave1", "--N", "24", "--T", "0.5",
            "--scheme", "EI-E1", "--Mref", "4096", "--out", str(out),
        ]
        for m in (16, 32, 64, 128):
            args += ["--M", str(m)]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert "EI-E1: observed order" in printed
        rows = read_csv(out)
        assert rows[0] == ["scheme", "M", "tau", "l2_error"]
        errs = [float(r[3]) for r in rows[1:]]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            args = ["converge", "--preset", "wave1", "--N", "16", "--T", "0.25",
                    "--scheme", "EI-SW22", "--c2", "0.5", "--Mref", "1024", "--out", str(out)]
            for m in (8, 16, 32):
                args += ["--M", str(m)]
            assert main(args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_needs_three_points(self, tmp_path, capsys):
        rc = main(["converge", "--preset", "wave1", "--N", "10", "--T", "0.25",
                   "--scheme", "EI-E1", "--M", "8", "--M", "16",
                   "--Mref", "512", "--out", str(tmp_path / "x.csv")])
        assert rc != 0

    @pytest.mark.parametrize("m_ref", ["32", "16"])
    def test_reference_must_be_finer_than_every_m(self, tmp_path, capsys, monkeypatch, m_ref):
        import wavebeam.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran before the M_ref check")

        monkeypatch.setattr(cli, "solve", no_solve)
        out = tmp_path / "x.csv"
        rc = main(["converge", "--preset", "wave1", "--N", "10", "--T", "0.25",
                   "--scheme", "EI-E1", "--M", "8", "--M", "32", "--M", "16",
                   "--Mref", m_ref, "--out", str(out)])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"M_ref = {m_ref}" in err and "largest M = 32" in err

    @pytest.mark.parametrize("fields,want", [
        ({"scheme": "EI-SW22"}, "c2"),
        ({"schemes": ["EI-SW4", "EI-RK9"]}, "'EI-RK9'"),
        ({"scheme": "EI-K4", "M": [8, 8, 32]}, "distinct step counts"),
    ], ids=["sw22-without-c2", "unknown-in-schemes", "repeated-m"])
    def test_schemes_and_m_list_checked_before_the_reference(self, tmp_path, capsys, monkeypatch,
                                                             fields, want):
        # at the preset's M_ref a late error wastes a whole reference run, so
        # every tableau and the M list are checked before the problem is built
        import wavebeam.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("the problem was built before the scheme and M checks")

        monkeypatch.setattr(cli, "solve", no_run)
        monkeypatch.setattr(cli, "_build_problem", no_run)
        out = tmp_path / "x.csv"
        config = write_config(tmp_path, {"preset": "wave1", "M": [8, 16, 32], "M_ref": 20000,
                                         **fields})
        rc = main(["converge", "--config", config, "--out", str(out)])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert want in err, err


class TestModes:
    def test_wave1_all_complex(self, tmp_path):
        out = tmp_path / "modes.csv"
        assert main(["modes", "--preset", "wave1", "--N", "50", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "lambda", "m", "n", "case"]
        assert len(rows) == 51
        assert all(r[4] == "complex_pair" for r in rows[1:])

    def test_heavy_damping_all_real(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kind": "wave", "alpha": 1.0, "beta": 10.0, "gamma": 0.0, "delta": 0.0,
            "T": 1.0, "N": 8,
        })
        out = tmp_path / "modes.csv"
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        assert all(r[4] == "real_distinct" for r in rows)

    def test_m_column_recomputable(self, tmp_path):
        out = tmp_path / "modes.csv"
        main(["modes", "--preset", "wave2", "--N", "20", "--out", str(out)])
        for row in read_csv(out)[1:]:
            lam, m = float(row[1]), float(row[2])
            assert m == -(1e-2 * lam + 1e-3) / 2.0


class TestOracleCheck:
    def test_default_run_passes(self, capsys):
        assert main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert "oracle check passed" in out
        assert "complex_pair" in out and "real_distinct" in out and "double_root" in out

    def test_small_n_flag(self, capsys):
        assert main(["oracle-check", "--N", "6"]) == 0

    @pytest.mark.parametrize("flags", [
        ["--preset", "wave1"], ["--N", "4", "--preset", "beam1"], ["--config", "plate.json"],
        ["--M", "4"], ["--T", "1"], ["--scheme", "EI-E1"], ["--out", "x.csv"],
    ], ids=["preset", "N-preset", "config", "M", "T", "scheme", "out"])
    def test_flags_other_than_n_are_refused(self, tmp_path, capsys, monkeypatch, flags):
        # the suite reads n alone, so a value it would ignore is an error, not a pass
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plate.json").write_text('{"kind": "plate", "N": 4}')
        assert main(["oracle-check", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1, err
        assert set(os.listdir(tmp_path)) == {"plate.json"}

    def test_oversized_n_rejected(self, capsys):
        assert main(["oracle-check", "--N", "128"]) != 0
        assert "capped" in capsys.readouterr().err

    def test_detects_sign_mutation(self, monkeypatch, capsys):
        # sensitivity check: a flipped sign in the complex-pair block must
        # push the suite past its tolerance
        import wavebeam.propagator as propagator
        from wavebeam.modefuncs import COMPLEX_PAIR, phi_block

        def mutated(k, t, modes):
            tab = phi_block(k, t, modes)
            tab[1, 0] = np.where(modes.case == COMPLEX_PAIR, -tab[1, 0], tab[1, 0])
            return tab

        monkeypatch.setattr(propagator, "phi_block", mutated)
        assert main(["oracle-check", "--N", "4"]) != 0
        assert "FAIL" in capsys.readouterr().out


class TestConfigPrecedence:
    def test_flags_beat_preset(self, tmp_path):
        out = tmp_path / "final.csv"
        main(["solve", "--preset", "wave1", "--N", "12", "--T", "0.25",
              "--scheme", "EI-E1", "--M", "4", "--out", str(out)])
        assert len(read_csv(out)) == 13  # N=12 from the flag, not 200 from the preset

    def test_preset_from_config_file(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "wave1"})
        out = tmp_path / "final.csv"
        rc = main(["solve", "--config", cfg, "--N", "10", "--T", "0.25",
                   "--scheme", "EI-E1", "--M", "4", "--out", str(out)])
        assert rc == 0 and len(read_csv(out)) == 11

    def test_config_fields_beat_its_preset_and_flags_beat_both(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "wave1", "g": "zero", "alpha": 1.0, "T": 2.0})
        args = build_parser().parse_args(["solve", "--config", cfg, "--T", "0.25"])
        got = resolve_config(args)
        assert (got.spec["g"], got.spec["alpha"], got.spec["T"]) == ("zero", 1.0, 0.25)
        assert got.N == 200  # from the preset

    def test_bad_config_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path), "--M", "4"]) != 0

    def test_every_key_reaches_its_field_and_every_flag_beats_the_file(self, tmp_path):
        assert set(EVERY_KEY) == set(FIELDS) - {"preset"}
        run_fields = {f.name for f in fields(RunConfig)} - {"spec"}
        assert set(EVERY_KEY) == run_fields | set(SPEC_KEYS)
        path = write_config(tmp_path, {"preset": "wave1", **EVERY_KEY})
        got = resolve_config(build_parser().parse_args(["converge", "--config", path]))
        wave1 = resolve_config(build_parser().parse_args(["converge", "--preset", "wave1"]))
        for key, value in EVERY_FIELD.items():
            assert field_value(got, key) == value, key
            assert value not in (field_value(RunConfig(), key), field_value(wave1, key)), key
        assert got.problem_spec() == ProblemSpec(**{key: EVERY_FIELD[key] for key in SPEC_KEYS})
        assert got.scheme_list() == [("EI-SW22", 0.4)]  # scheme beats schemes

        flags = ["--N", "14", "--T", "0.5", "--scheme", "EI-E1", "--c2", "0.9", "--M", "7",
                 "--M", "9", "--Mref", "70", "--out", "flag.csv", "--snapshots", "2"]
        got = resolve_config(build_parser().parse_args(["converge", "--config", path, *flags]))
        assert (got.N, got.spec["T"], got.scheme, got.c2, got.M, got.M_ref, got.out,
                got.snapshots) == (14, 0.5, "EI-E1", 0.9, [7, 9], 70, "flag.csv", 2)
        got = resolve_config(build_parser().parse_args(["converge", "--config", path,
                                                        "--preset", "beam1"]))
        assert got.N == 12  # the file still beats the flag's preset
        only_preset = write_config(tmp_path, {"preset": "wave1"}, name="preset.json")
        got = resolve_config(build_parser().parse_args(["converge", "--config", only_preset,
                                                        "--preset", "beam1"]))
        assert (got.kind, got.N) == ("beam", 300)  # --preset beats the file's "preset"

    def test_every_key_config_runs_with_its_ref_c2(self, tmp_path):
        # EI-SW21 as reference needs its ref_c2; without it build_tableau fails
        out = tmp_path / "every.csv"
        path = write_config(tmp_path, {**EVERY_KEY, "out": str(out)})
        assert main(["converge", "--config", path]) == 0
        assert {row[0] for row in read_csv(out)[1:]} == {"EI-SW22"}

    def test_flags_and_file_values_parse_alike(self, tmp_path):
        # flags go through the file's parsers, so "14.0" is the count 14 in both
        path = write_config(tmp_path, {"preset": "wave1", "N": 14.0, "T": 0.5, "M": [7, 9]})
        from_file = resolve_config(build_parser().parse_args(["converge", "--config", path]))
        from_flags = resolve_config(build_parser().parse_args([
            "converge", "--preset", "wave1", "--N", "14.0", "--T", "0.5", "--M", "7", "--M", "9"]))
        assert from_flags == from_file
        assert (from_flags.N, from_flags.spec["T"], from_flags.M) == (14, 0.5, [7, 9])

    def test_counts_are_read_exactly_above_2_53(self):
        # float() would round 2^53 + 1 to 2^53; a non-integral number is still no count
        big = 2**53 + 1
        assert cli._count("M", str(big)) == big and cli._count("M", big) == big
        assert cli._count("M", "14.0") == cli._count("M", 14.0) == cli._count("M", "1.4e1") == 14
        resolved = resolve_config(build_parser().parse_args(
            ["converge", "--preset", "wave1", "--Mref", str(big)]))
        assert resolved.M_ref == big
        for bad in ("2.5", 2.5, "inf", "nan", "x", True, "0", -3, "9" * 400, 10**400):
            with pytest.raises(cli.ConfigError):
                cli._count("M", bad)

    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys):
        assert main(["converge", "--preset", "wave1", "--Mref", "x"]) == 1
        assert capsys.readouterr().err == "error: flag --Mref must be a number, got 'x'\n"
        path = write_config(tmp_path, {"preset": "wave1", "M_ref": "x"})
        assert main(["converge", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "error: config field 'M_ref' must be a number, got 'x'\n")

    def test_resolving_twice_gives_equal_configs_and_leaves_presets(self, tmp_path):
        before = copy.deepcopy(PRESETS)
        path = write_config(tmp_path, {"preset": "wave1", "T": 0.5})
        args = build_parser().parse_args(["converge", "--config", path, "--N", "10"])
        first, second = resolve_config(args), resolve_config(args)
        assert first == second
        first.M.append(7)
        first.schemes.clear()
        assert resolve_config(args) == second
        assert PRESETS == before

    def test_unknown_keys_are_named_in_one_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {**LINEAR_CONFIG, "alhpa": 3.0, "Mref": 64})
        assert main(["solve", "--config", path, "--M", "4"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'Mref', 'alhpa'" in err, err


SMALL_SOLVE = ["solve", "--preset", "wave1", "--N", "10", "--T", "0.25", "--scheme", "EI-E1"]
CONVERGE = ["converge", "--M", "4", "--M", "8", "--M", "16", "--Mref", "64"]


@pytest.mark.parametrize(
    "args, config",
    [
        (SMALL_SOLVE + ["--M", "0"], None),
        (SMALL_SOLVE + ["--M", "-3"], None),
        (SMALL_SOLVE + ["--M", "4", "--snapshots", "0"], None),
        (SMALL_SOLVE + ["--T", "inf", "--M", "4"], None),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "N": "abc", "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "N": 2.7, "scheme": "EI-E1"}),
        (["solve"], {**LINEAR_CONFIG, "M": 4.5, "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "beta": "x", "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "gamma": "inf", "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "alpha": 10**400, "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "schemes": [{"name": "EI-SW21", "c2": "x"}]}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "p": {"name": "sine", "params": ["x"]},
                                 "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "p": {"name": "sine", "params": [1, 2, 3]},
                                 "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "p": {"name": "sine", "params": [math.nan, 3]},
                                 "scheme": "EI-E1"}),
        (["solve", "--N", "10", "--scheme", "EI-E1", "--M", "4"], {"preset": ["wave1"]}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "preset": "", "scheme": "EI-E1"}),
        (CONVERGE, {**LINEAR_CONFIG, "schemes": 5}),
        (CONVERGE, {**LINEAR_CONFIG, "schemes": [{"name": 5}]}),
        (CONVERGE, {**LINEAR_CONFIG, "schemes": [{"name": None}]}),
        (CONVERGE, {**LINEAR_CONFIG, "schemes": "EI-K4"}),
        (CONVERGE, {**LINEAR_CONFIG, "schemes": {"name": "EI-K4"}}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "scheme": "EI-E1", "Mref": 5000}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "scheme": "EI-E1", "alhpa": 3.0}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "p": {"name": ["sine"]}, "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "q": {"name": {"a": 1}}, "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "N": True, "scheme": "EI-E1"}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "schemes": [{"name": "EI-SW21", "c2": True}]}),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "scheme": "EI-E1", "out": ["a.csv"]}),
        # an empty out would write the command's default file
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "scheme": "EI-E1", "out": ""}),
        (SMALL_SOLVE + ["--M", "4", "--out", ""], None),
        (["solve", "--M", "4"], {**LINEAR_CONFIG, "kind": "plate", "scheme": "EI-E1"}),
        (["solve"], {"preset": "wave1", "ell": 1e-300, "N": 20, "M": [4], "scheme": "EI-E1"}),
        (["solve"], {"preset": "beam1", "ell": 1e-40, "N": 20, "M": [4], "scheme": "EI-E1"}),
        # a subnormal c2 passes (0, 1], but the weights 1/c2 overflow
        (SMALL_SOLVE[:-2] + ["--scheme", "EI-SW21", "--c2", "1e-320", "--M", "4"], None),
        (SMALL_SOLVE[:-2] + ["--scheme", "EI-SW22", "--c2", "1e-320", "--M", "4"], None),
        (CONVERGE, {**LINEAR_CONFIG, "scheme": "EI-E1", "ref_scheme": "EI-SW21",
                    "ref_c2": 1e-320}),
        # flags are parsed as file values are, and a usage error is a config error
        (SMALL_SOLVE + ["--M", "x"], None),
        (SMALL_SOLVE + ["--M", "4", "--N", "2.5"], None),
        (SMALL_SOLVE + ["--M", "4", "--T", "abc"], None),
        (SMALL_SOLVE[:-2] + ["--scheme", "EI-SW21", "--c2", "x", "--M", "4"], None),
        (SMALL_SOLVE + ["--M", "4", "--Mx", "4"], None),
        (SMALL_SOLVE + ["--M"], None),
        # an exact count that no float holds: solve divides T by it
        (SMALL_SOLVE + ["--M", "9" * 400], None),
    ],
    ids=["M0", "M-neg", "snapshots0", "T-inf", "N-text", "N-fraction", "M-fraction",
         "beta-text", "gamma-inf", "alpha-int-overflow", "c2-text", "params-text",
         "params-count", "params-nan",
         "preset-list", "preset-empty", "schemes-number", "scheme-name-number",
         "scheme-name-null", "schemes-string", "schemes-dict", "key-Mref", "key-alhpa",
         "profile-name-list", "profile-name-dict", "N-bool", "c2-bool", "out-list",
         "out-empty", "flag-out-empty", "kind-unknown",
         "ell-tiny-wave", "ell-tiny-beam", "c2-subnormal-sw21", "c2-subnormal-sw22",
         "ref-c2-subnormal", "flag-M-text", "flag-N-fraction", "flag-T-text", "flag-c2-text",
         "flag-unknown", "flag-M-trailing", "flag-M-400-digits"],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, monkeypatch, args, config):
    monkeypatch.chdir(tmp_path)  # where a default output name would land
    if config is not None:
        args = args + ["--config", write_config(tmp_path, config)]
    # --out goes before the other flags, so the last flag of args stays last
    assert main(args[:1] + ["--out", str(tmp_path / "x.csv")] + args[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert set(os.listdir(tmp_path)) <= {"config.json"}


def test_missing_command_is_one_error_line_and_help_exits_0(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--Mref" in capsys.readouterr().out


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    assert main(SMALL_SOLVE + ["--M", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_os_error_while_writing_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a path that passes the early check can still fail to open, e.g. when its
    # directory goes away during the run
    monkeypatch.setattr(cli, "_check_writable", lambda path: None)
    out = tmp_path / "missing-dir" / "x.csv"
    assert main(SMALL_SOLVE + ["--M", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No such file or directory\n"


HUGE_CONVERGE = ["converge", "--preset", "wave1", "--scheme", "EI-K4",
                 "--M", "8", "--M", "16", "--M", "32", "--Mref", "100000000"]
HUGE_SOLVE = ["solve", "--preset", "wave1", "--scheme", "EI-E1", "--M", "100000000"]


@pytest.mark.parametrize("args, out_name, bad_name", [
    (HUGE_CONVERGE, "missing/x.csv", "missing/x.csv"),
    (HUGE_SOLVE, "missing/x.csv", "missing/x.csv"),
    (HUGE_SOLVE + ["--snapshots", "4"], "x.csv", "x_snapshots.csv"),
    (["modes", "--preset", "wave1"], "missing/x.csv", "missing/x.csv"),
    (HUGE_CONVERGE, "adir", "adir"),
    (HUGE_SOLVE, "afile/x.csv", "afile/x.csv"),
], ids=["converge-missing-dir", "solve-missing-dir", "snapshots-path-is-dir",
        "modes-missing-dir", "converge-out-is-dir", "solve-parent-is-file"])
def test_unwritable_out_fails_before_any_set_up(tmp_path, capsys, monkeypatch, args, out_name,
                                                bad_name):
    # 10^8 steps would run for hours: the output path is checked first, and
    # neither the problem nor a solve is started
    def no_run(*args, **kwargs):
        raise AssertionError("set-up started before the output path was checked")

    monkeypatch.setattr(cli, "solve", no_run)
    monkeypatch.setattr(cli, "_build_problem", no_run)
    (tmp_path / "adir").mkdir()
    (tmp_path / "x_snapshots.csv").mkdir()
    (tmp_path / "afile").write_text("keep")
    (tmp_path / "x.csv").write_text("keep")
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert main(args + ["--out", str(tmp_path / out_name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / bad_name}: ")
    assert err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before
    assert (tmp_path / "x.csv").read_text() == "keep" and (tmp_path / "afile").read_text() == "keep"


@pytest.mark.parametrize(
    "config, words",
    [
        ({"preset": "wave1", "ell": 1e-300, "N": 20}, ("ell = 1e-300", "n = 20")),
        ({"preset": "beam1", "ell": 1e-40, "N": 20}, ("ell = 1e-40", "n = 20")),
        # each of the fold's two half-size blocks of Q, 182 TiB, exceeds every
        # 64-bit user address space, so the allocation fails whatever the
        # host's overcommit setting
        ({"preset": "wave1", "N": 10_000_000}, ("n = 10000000", "4e+14 bytes")),
        # above 2^63 bytes numpy raises ValueError, not MemoryError; the n^2
        # allocation is the first one, so no O(n) array fails before it
        ({"preset": "wave1", "N": 10**14}, ("n = 100000000000000", "4e+28 bytes")),
        # huge coefficients at a plain ell: the coefficients are named, not ell
        ({"preset": "wave1", "N": 10, "alpha": 1e308}, ("alpha = 1e+308", "delta", "n = 10")),
        ({"preset": "wave1", "N": 10, "beta": 1e200}, ("beta = 1e+200", "gamma", "n = 10")),
        ({"preset": "beam1", "N": 10, "gamma": 1e200}, ("gamma = 1e+200", "beta", "n = 10")),
    ],
    ids=["ell-tiny-wave", "ell-tiny-beam", "N-huge", "N-above-int64-bytes", "alpha-huge",
         "beta-huge", "gamma-huge"],
)
def test_set_up_error_names_its_inputs(tmp_path, capsys, config, words):
    path = write_config(tmp_path, {**config, "M": [4], "scheme": "EI-E1"})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(word in err for word in words), err


def test_beam_at_small_finite_ell_still_runs(tmp_path):
    path = write_config(tmp_path, {"preset": "beam1", "ell": 1e-20, "N": 20, "M": [4],
                                   "scheme": "EI-E1"})
    out = tmp_path / "x.csv"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    assert np.all(np.isfinite([[float(v) for v in r] for r in read_csv(out)[1:]]))


def test_parser_is_built_once_and_each_call_sees_its_own_m_list(monkeypatch):
    seen = []
    monkeypatch.setitem(COMMANDS, "converge", lambda cfg: seen.append(cfg.M) or 0)
    assert main(["converge", "--preset", "wave1", "--M", "4", "--M", "8"]) == 0
    assert main(["converge", "--preset", "wave1", "--M", "16"]) == 0
    assert seen == [[4, 8], [16]]
    assert build_parser() is build_parser()
