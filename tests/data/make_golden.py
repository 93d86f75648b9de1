"""Generate golden.npz, the frozen outputs that refactors must reproduce.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py

The file holds the final (u, w) of every preset x every scheme of that
preset at N = 32 and a desk step count, the merged-damping variant of the
two merged presets, and the M and l2_error columns of one
desk-scale `wavebeam converge` CSV. tests/test_golden.py recomputes the same
outputs with `golden_outputs` and compares them at relative tolerance 1e-9.
Regenerate the file only for an intended change of the method, and log the
reason in CHANGES.md.
"""

from __future__ import annotations

import csv
import os
import tempfile

import numpy as np

from wavebeam.cli import main
from wavebeam.discretize import build_operator
from wavebeam.integrators import build_tableau, solve
from wavebeam.oracles import merged_damping_solve
from wavebeam.presets import PRESETS
from wavebeam.propagator import build_propagator

N = 32
CONVERGE_ARGS = ["converge", "--preset", "wave1", "--N", str(N),
                 "--M", "32", "--M", "64", "--M", "128", "--Mref", "1024"]
# the preset's coarsest step count where every scheme of it is stable at N
DESK_M = {"beam1": 160, "merged-beam": 320, "merged-wave": 10, "wave1": 5,
          "wave2": 20, "wave3": 20, "wave4": 20, "wave5": 640}
# merged damping is unstable on merged-wave at M = 10
MERGED_M = {"merged-beam": 640, "merged-wave": 20}
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.npz")


def golden_outputs() -> dict:
    """{key: array} of every frozen output, computed by the current code."""
    out = {}
    for pid, preset in sorted(PRESETS.items()):
        spec = preset.spec
        op = build_operator(preset.kind, N, spec.ell)
        prop = build_propagator(op, spec)
        m_steps = DESK_M[pid]
        for name, c2 in preset.schemes:
            tableau = build_tableau(name, c2)
            y = solve(prop, tableau, spec, m_steps).y_final
            out[f"{pid}/{tableau.name}/M{m_steps}"] = y.stacked()
            if pid in MERGED_M:
                m_merged = MERGED_M[pid]
                y = merged_damping_solve(op, spec, tableau, m_merged, fact=prop.fact).y_final
                out[f"{pid}/{tableau.name}/M{m_merged}/merged"] = y.stacked()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "convergence.csv")
        if main(CONVERGE_ARGS + ["--out", path]) != 0:
            raise RuntimeError("converge run failed")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
    out["converge/M"] = np.array([float(r["M"]) for r in rows])
    out["converge/l2_error"] = np.array([float(r["l2_error"]) for r in rows])
    return out


if __name__ == "__main__":
    outputs = golden_outputs()
    np.savez(PATH, **outputs)
    print(f"wrote {len(outputs)} arrays to {PATH}")
