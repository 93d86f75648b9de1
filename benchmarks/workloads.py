"""The three benchmark workloads: complete CLI configs made from a seed.

Each config spells out every field, with no "preset" key: the CLI applies a
config's preset after the file's own fields, so a preset would silently
override them. The seed scales the initial amplitude by a factor in
[0.998, 1.002]; that changes the inputs but neither the work nor the regime.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# wave1 physics: damped sine-Gordon on (0, 1)
WAVE1 = {
    "kind": "wave",
    "alpha": math.pi**2,
    "beta": 1e-2,
    "gamma": 1e-2,
    "delta": 0.0,
    "g": "sin",
    "h": "zero",
    "p": {"name": "sine", "params": [5.0, 2.0 * math.pi]},
    "q": {"name": "zero", "params": []},
    "ell": 1.0,
}

# beam1 coefficients and initial data, with the nonlinearity switched off
BEAM1_LINEAR = {
    "kind": "beam",
    "alpha": 15.0,
    "beta": 3e-6,
    "gamma": 3e-4,
    "delta": 10.0,
    "g": "zero",
    "h": "zero",
    "p": {"name": "gaussian", "params": [5.0, 100.0, 2.0 / 3.0]},
    "q": {"name": "zero", "params": []},
    "ell": 1.0,
}

# C2 desk study: nominal order of each scheme
DESK_SCHEMES = (
    ("EI-E1", None, 1.0),
    ("EI-SW21", 0.75, 2.0),
    ("EI-SW22", 0.75, 2.0),
    ("EI-K4", None, 4.0),
    ("EI-SW4", None, 4.0),
)
DESK_M = [16 * 2**k for k in range(7)]
DESK_MREF = 8192


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    config: dict  # complete JSON config, "out" included
    steps: int  # time steps over all solve calls of one CLI run
    extra_setups: int  # set-up-only CLI calls after each command, for more setup_s samples

    @property
    def n(self) -> int:
        return self.config["N"]


def _scaled(physics: dict, factor: float) -> dict:
    cfg = dict(physics)
    p = dict(cfg["p"])
    p["params"] = [p["params"][0] * factor, *p["params"][1:]]
    cfg["p"] = p
    return cfg


def make(name: str, seed: int) -> Workload:
    factor = 1.0 + 0.004 * (random.Random(seed).random() - 0.5)
    if name == "solve-wave1":
        cfg = _scaled(WAVE1, factor)
        cfg.update(T=6.0, N=200, scheme="EI-SW4", M=8192, out="final.csv")
        return Workload(name, "solve", cfg, steps=8192, extra_setups=3)
    if name == "solve-beam600-snap":
        cfg = _scaled(BEAM1_LINEAR, factor)
        cfg.update(T=5.0, N=600, scheme="EI-K4", M=256, snapshots=1, out="final.csv")
        return Workload(name, "solve", cfg, steps=256, extra_setups=0)
    if name == "converge-wave1-desk":
        cfg = _scaled(WAVE1, factor)
        cfg.update(
            T=1.0,
            N=50,
            schemes=[{"name": s, "c2": c2} for s, c2, _ in DESK_SCHEMES],
            M=DESK_M,
            M_ref=DESK_MREF,
            ref_scheme="EI-SW4",
            out="convergence.csv",
        )
        steps = DESK_MREF + len(DESK_SCHEMES) * sum(DESK_M)
        return Workload(name, "converge", cfg, steps=steps, extra_setups=20)
    raise KeyError(name)


NAMES = ("solve-wave1", "solve-beam600-snap", "converge-wave1-desk")
