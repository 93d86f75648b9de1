"""Brute-force dense oracles and the named experiment presets.

The oracles deliberately use a different algorithm (scaling-and-squaring of
a truncated Taylor series, plus the augmented-matrix embedding for phi_k)
than the production spectral path, so agreement between the two is a
meaningful check. They are capped at small sizes to keep tests fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import GridOperator, Profile, ProblemSpec, StateVector
from .errors import (
    DimensionMismatchError,
    InsufficientPointsError,
    OracleScaleError,
    UnknownPresetError,
)
from .modefuncs import CASE_NAMES

ASSEMBLE_MAX_N = 64
EXPM_MAX_DIM = 128
PHI_MAX_K = 4

_EXPM_TAYLOR_TOL = 1e-20
_EXPM_SCALE_TARGET = 0.5


def assemble_dense_A(op: GridOperator, spec: ProblemSpec) -> np.ndarray:
    """Explicit 2n-by-2n matrix [[0, I], [-alpha*S-delta*I, -beta*S-gamma*I]]."""
    n = op.n
    if n > ASSEMBLE_MAX_N:
        raise OracleScaleError(f"dense assembly capped at n = {ASSEMBLE_MAX_N}, got {n}")
    eye = np.eye(n)
    s_mat = op.entries
    top = np.hstack([np.zeros((n, n)), eye])
    bottom = np.hstack(
        [-spec.alpha * s_mat - spec.delta * eye, -spec.beta * s_mat - spec.gamma * eye]
    )
    return np.vstack([top, bottom])


def _expm_taylor(m: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(m, 1))
    squarings = 0
    if norm > _EXPM_SCALE_TARGET:
        squarings = int(math.ceil(math.log2(norm / _EXPM_SCALE_TARGET)))
    a = m / (2.0**squarings)
    total = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for j in range(1, 61):
        term = term @ a / j
        total = total + term
        if np.max(np.abs(term)) <= _EXPM_TAYLOR_TOL * max(1.0, float(np.max(np.abs(total)))):
            break
    for _ in range(squarings):
        total = total @ total
    return total


def dense_expm(mt: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaled truncated Taylor series and repeated squaring."""
    mt = np.asarray(mt, dtype=float)
    if mt.ndim != 2 or mt.shape[0] != mt.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mt.shape}")
    if mt.shape[0] > EXPM_MAX_DIM:
        raise OracleScaleError(f"dense expm capped at dimension {EXPM_MAX_DIM}, got {mt.shape[0]}")
    return _expm_taylor(mt)


def dense_phi(k: int, mt: np.ndarray) -> np.ndarray:
    """phi_k(mt) via the augmented-matrix embedding.

    mt is embedded with k nilpotent identity couplings; the top-right block
    of the exponential of the augmented matrix equals phi_k(mt).
    """
    if not 0 <= k <= PHI_MAX_K:
        raise OracleScaleError(f"dense phi supports k = 0..{PHI_MAX_K}, got {k}")
    mt = np.asarray(mt, dtype=float)
    if mt.ndim != 2 or mt.shape[0] != mt.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mt.shape}")
    d = mt.shape[0]
    if d > EXPM_MAX_DIM:
        raise OracleScaleError(f"dense phi capped at dimension {EXPM_MAX_DIM}, got {d}")
    if k == 0:
        return _expm_taylor(mt)
    big = np.zeros(((k + 1) * d, (k + 1) * d))
    big[:d, :d] = mt
    for i in range(k):
        big[i * d : (i + 1) * d, (i + 1) * d : (i + 2) * d] = np.eye(d)
    return _expm_taylor(big)[:d, k * d : (k + 1) * d]


def discrete_l2_error(y, y_ref, dx: float) -> float:
    """sqrt(dx * sum |y_i - y_ref_i|^2) over the stacked state."""
    a = y.stacked() if isinstance(y, StateVector) else np.asarray(y, dtype=float)
    b = y_ref.stacked() if isinstance(y_ref, StateVector) else np.asarray(y_ref, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    diff = a - b
    return math.sqrt(dx * float(diff @ diff))


def observed_order(errors) -> float:
    """Least-squares slope of log(error) against log(1/M)."""
    pts = list(errors)
    if len(pts) < 3:
        raise InsufficientPointsError(f"need at least 3 (M, error) points, got {len(pts)}")
    m = np.array([p[0] for p in pts], dtype=float)
    e = np.array([p[1] for p in pts], dtype=float)
    if np.any(m[1:] <= m[:-1]):
        raise InsufficientPointsError("M values must be strictly increasing")
    if np.any(e <= 0):
        raise InsufficientPointsError("errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(1.0 / m), np.log(e), 1)[0])


@dataclass(frozen=True)
class ExperimentPreset:
    """One named experiment: operator kind and size, problem, schemes, step counts."""

    id: str
    kind: str
    n: int
    spec: ProblemSpec
    schemes: tuple  # ((scheme name, c2 or None), ...)
    m_list: tuple
    m_ref: int
    ref_scheme: str

    @property
    def T(self) -> float:
        return self.spec.T


def _doubling(start: int, count: int) -> tuple:
    return tuple(start * 2**k for k in range(count))


_PI = math.pi

PRESETS = {
    "wave1": ExperimentPreset(
        id="wave1",
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
        id="wave2",
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
        id="wave3",
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
        id="wave4",
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
        id="wave5",
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
        id="beam1",
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
        id="merged-wave",
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
        id="merged-beam",
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


def _oracle_regimes(kind: str, fact):
    """Damping regimes that together hit all three discriminant cases.

    alpha is scaled down for the beam so the dense oracle's Taylor scaling
    stays in a comfortable norm range; the block path is exact either way.
    """
    alpha = 1.0 if kind == "wave" else 1e-4
    lam_mid = float(fact.lam[fact.n // 2])
    delta = 0.5
    gamma_crit = 2.0 * math.sqrt(alpha * lam_mid + delta)
    beta_over = 1.0 if kind == "wave" else 1e-2
    return (
        ("oscillatory", ProblemSpec(alpha=alpha)),
        ("overdamped", ProblemSpec(alpha=alpha, beta=beta_over)),
        ("critical", ProblemSpec(alpha=alpha, gamma=gamma_crit, delta=delta)),
    )


def block_oracle_suite(sizes=(4, 8, 16), ts=(0.01, 0.1, 1.0), ks=(0, 1, 2, 3), kinds=("wave", "beam"), seed=1234):
    """Compare the block path against the dense oracle over a parameter grid.

    Returns (rows, cases_seen): rows of (kind, regime, n, t, k, max relative
    error over three fixed probe vectors) and the set of discriminant case
    names encountered.
    """
    from .discretize import build_operator
    from .eigen import factorize
    from .propagator import build_propagator

    rows = []
    cases_seen = set()
    for kind in kinds:
        for n in sizes:
            op = build_operator(kind, n, 1.0)
            fact = factorize(op)
            for label, spec in _oracle_regimes(kind, fact):
                prop = build_propagator(op, spec, fact=fact)
                cases_seen.update(CASE_NAMES[c] for c in np.unique(prop.modes.case))
                a_mat = assemble_dense_A(op, spec)
                rng = np.random.default_rng(seed)
                probes = rng.standard_normal((3, 2 * n))
                for t in ts:
                    for k in ks:
                        ref = dense_phi(k, t * a_mat)
                        err = 0.0
                        for v in probes:
                            want = ref @ v
                            got = prop.apply_stacked(k, t, v)
                            denom = max(float(np.max(np.abs(want))), 1e-300)
                            err = max(err, float(np.max(np.abs(got - want))) / denom)
                        rows.append((kind, label, n, t, k, err))
    return rows, cases_seen
