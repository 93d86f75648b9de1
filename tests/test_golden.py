"""Frozen outputs: every preset x scheme and one converge CSV match golden.npz.

A refactor must reproduce the file without regenerating it; see
tests/data/make_golden.py for what it holds and when it may change.
"""

import importlib.util
from pathlib import Path

import numpy as np

DATA = Path(__file__).parent / "data"
RTOL = 1e-9


def load_generator():
    spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_outputs_match_golden():
    with np.load(DATA / "golden.npz") as fh:
        golden = {key: fh[key] for key in fh.files}
    got = load_generator().golden_outputs()
    assert sorted(got) == sorted(golden)
    for key, want in golden.items():
        err = np.max(np.abs(got[key] - want)) / np.max(np.abs(want))
        assert err <= RTOL, f"{key}: relative deviation {err:.2e}"
