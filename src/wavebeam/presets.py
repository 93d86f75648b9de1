"""The named experiment presets: operator kind and size, problem, schemes, step counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .discretize import Profile, ProblemSpec
from .errors import UnknownPresetError


@dataclass(frozen=True)
class ExperimentPreset:
    """One named experiment: operator kind and size, problem, schemes, step counts."""

    kind: str
    n: int
    spec: ProblemSpec
    schemes: tuple  # ((scheme name, c2 or None), ...)
    m_list: tuple
    m_ref: int
    ref_scheme: str


def _doubling(start: int, count: int) -> tuple:
    return tuple(start * 2**k for k in range(count))


_PI = math.pi

PRESETS = {
    "wave1": ExperimentPreset(
        kind="wave",
        n=200,
        spec=ProblemSpec(
            alpha=_PI**2,
            beta=1e-2,
            gamma=1e-2,
            delta=0.0,
            g="sin",
            p=Profile("sine", (5.0, 2.0 * _PI)),
            q=Profile("zero"),
            ell=1.0,
            T=6.0,
        ),
        schemes=(("EI-E1", None), ("EI-SW21", 0.75), ("EI-SW4", None), ("EI-K4", None)),
        m_list=_doubling(5, 12),
        m_ref=200000,
        ref_scheme="EI-SW4",
    ),
    "wave2": ExperimentPreset(
        kind="wave",
        n=200,
        spec=ProblemSpec(
            alpha=100.0,
            beta=1e-2,
            gamma=1e-3,
            delta=0.0,
            g="signed_square",
            p=Profile("hat", (1.0,)),
            q=Profile("sine", (_PI**2, _PI)),
            ell=1.0,
            T=15.0,
        ),
        schemes=(
            ("EI-E1", None),
            ("EI-SW21", 0.2),
            ("EI-SW22", 0.2),
            ("EI-SW4", None),
            ("EI-K4", None),
        ),
        m_list=_doubling(20, 13),
        m_ref=200000,
        ref_scheme="EI-K4",
    ),
    "wave3": ExperimentPreset(
        kind="wave",
        n=200,
        spec=ProblemSpec(
            alpha=15.0,
            beta=1e-3,
            gamma=1e-6,
            delta=1.0,
            g="cube",
            p=Profile("sine", (10.0, 3.0 * _PI)),
            q=Profile("cosine", (-10.0, 3.0 * _PI)),
            ell=1.0,
            T=30.0,
        ),
        schemes=(("EI-E1", None), ("EI-SW22", 0.9), ("EI-K4", None), ("EI-SW4", None)),
        m_list=_doubling(20, 12),
        m_ref=300000,
        ref_scheme="EI-SW4",
    ),
    "wave4": ExperimentPreset(
        kind="wave",
        n=200,
        spec=ProblemSpec(
            alpha=5.0,
            beta=1e-3,
            gamma=1e-4,
            delta=1.0,
            g="abs",
            p=Profile("step", (-1.0, 5.0)),
            q=Profile("zero"),
            ell=1.0,
            T=3.0,
        ),
        schemes=(
            ("EI-E1", None),
            ("EI-SW21", 0.5),
            ("EI-SW22", 0.5),
            ("EI-SW4", None),
            ("EI-K4", None),
        ),
        m_list=_doubling(20, 14),
        m_ref=300000,
        ref_scheme="EI-SW4",
    ),
    "wave5": ExperimentPreset(
        kind="wave",
        n=200,
        spec=ProblemSpec(
            alpha=50.0,
            beta=1e-6,
            gamma=1e-3,
            delta=10.0,
            g="neg_signed_fourth",
            h="neg_signed_square",
            p=Profile("sine", (20.0, 4.0 * _PI)),
            q=Profile("cosine", (-25.0, 3.0 * _PI)),
            ell=1.0,
            T=1.0,
        ),
        schemes=(
            ("EI-E1", None),
            ("EI-SW21", 0.85),
            ("EI-SW22", 0.85),
            ("EI-SW4", None),
            ("EI-K4", None),
        ),
        m_list=_doubling(160, 11),
        m_ref=800000,
        ref_scheme="EI-SW4",
    ),
    "beam1": ExperimentPreset(
        kind="beam",
        n=300,
        spec=ProblemSpec(
            alpha=15.0,
            beta=3e-6,
            gamma=3e-4,
            delta=10.0,
            g="neg_five_cube",
            p=Profile("gaussian", (5.0, 100.0, 2.0 / 3.0)),
            q=Profile("zero"),
            ell=1.0,
            T=5.0,
        ),
        schemes=(("EI-E1", None), ("EI-SW22", 0.9), ("EI-SW4", None), ("EI-K4", None)),
        m_list=_doubling(160, 11),
        m_ref=600000,
        ref_scheme="EI-K4",
    ),
    "merged-wave": ExperimentPreset(
        kind="wave",
        n=200,
        spec=ProblemSpec(
            alpha=1.0,
            beta=1e-2,
            gamma=1e-1,
            delta=1.0,
            g="neg_five_cube",
            p=Profile("sine", (5.0, 5.0 * _PI)),
            q=Profile("cosine", (5.0, 10.0 * _PI)),
            ell=1.0,
            T=1.0,
        ),
        schemes=(("EI-SW21", 1.0 / 3.0),),
        m_list=_doubling(10, 11),
        m_ref=100000,
        ref_scheme="EI-K4",
    ),
    "merged-beam": ExperimentPreset(
        kind="beam",
        n=300,
        spec=ProblemSpec(
            alpha=15.0,
            beta=3e-6,
            gamma=3e-4,
            delta=10.0,
            g="neg_five_cube",
            p=Profile("gaussian", (5.0, 100.0, 2.0 / 3.0)),
            q=Profile("zero"),
            ell=1.0,
            T=1.0,
        ),
        schemes=(("EI-SW21", 0.2),),
        m_list=_doubling(320, 8),
        m_ref=100000,
        ref_scheme="EI-SW4",
    ),
}


def load_preset(preset_id: str) -> ExperimentPreset:
    try:
        return PRESETS[preset_id]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {preset_id!r}; choose from {', '.join(sorted(PRESETS))}"
        ) from None
