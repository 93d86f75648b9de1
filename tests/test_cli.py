"""Command-line interface: config resolution, CSV outputs, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from wavebeam.cli import build_parser, main, resolve_config

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
        assert (got.g, got.alpha, got.T) == ("zero", 1.0, 0.25)
        assert got.n == 200  # from the preset

    def test_bad_config_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path), "--M", "4"]) != 0


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
    ],
    ids=["M0", "M-neg", "snapshots0", "T-inf", "N-text", "N-fraction", "M-fraction",
         "beta-text", "gamma-inf", "c2-text", "params-text", "params-count", "params-nan",
         "preset-list", "preset-empty", "schemes-number", "scheme-name-number",
         "scheme-name-null", "schemes-string", "schemes-dict"],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, args, config):
    if config is not None:
        args = args + ["--config", write_config(tmp_path, config)]
    assert main(args + ["--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    assert main(SMALL_SOLVE + ["--M", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
