"""phi_k of one mode block against a 40-digit matrix exponential.

The reference shares no algorithm with ``phi_block``: mpmath exponentiates
the augmented (k+1)-block matrix [[tG, I, 0..], [0, 0, I, ..], .., [0..]],
whose top-right 2x2 block is phi_k(tG). G comes from ``mode_matrix``, so the
sweep measures the evaluation of the classified block, not the DISC_TOL snap.
Each drawn mode is evaluated inside one array with fixed companion modes of
every case and scale, so a regime mask that leaks between modes shows up.
"""

import math

import numpy as np
import pytest

from wavebeam.modefuncs import REAL_DISTINCT, ModeParams, classify_mode, mode_matrix, phi_block

mp = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RTOL = 1e-12

# complex pairs with |z| 1e-2..1e4, and complex, double and real modes of
# G = [[0, 1], [-2 lam, -2 lam]] (double root at lam = 2) from 0.5 to 1e6
COMPANIONS = [
    classify_mode(10.0 ** np.arange(-4.0, 9.0), 1.0, 0.0, 0.0, 0.0),
    classify_mode(np.array([0.5, 1.0, 2.0, 2.2, 3.0, 10.0, 1e3, 1e6]), 2.0, 2.0, 0.0, 0.0),
]


def with_companions(p):
    """p as the last mode of one array after every companion mode."""
    return ModeParams(*(np.concatenate([np.atleast_1d(getattr(q, f)) for q in COMPANIONS + [p]])
                        for f in ("lam", "m", "n", "case")))


def reference(k: int, t: float, g: np.ndarray) -> np.ndarray:
    with mp.workdps(40):
        big = mp.zeros(2 * (k + 1))
        for i in range(2):
            for j in range(2):
                big[i, j] = mp.mpf(t) * mp.mpf(float(g[i, j]))
        for b in range(k):
            big[2 * b, 2 * b + 2] = big[2 * b + 1, 2 * b + 3] = 1
        e = mp.expm(big)
        return np.array([[float(e[i, 2 * k + j]) for j in range(2)] for i in range(2)])


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0**u)


@st.composite
def mode_and_time(draw):
    """(mode, t, k): b^2 = 4a(1 + eta) with eta from a discriminant band (3 in
    7 draws near critical damping) and |t*z| from a time band, z the root of
    largest modulus."""
    lam = draw(log_uniform(1e-2, 1e6))
    alpha = draw(log_uniform(1e-2, 1e2))
    delta = draw(st.just(0.0) | log_uniform(1e-2, 1e2))
    a = alpha * lam + delta
    band = draw(st.sampled_from(["critical", "critical", "critical", "per_root", "wide",
                                 "wide", "wide"]))
    if band == "critical":
        eta = draw(st.sampled_from([-1.0, 1.0])) * draw(log_uniform(1e-8, 1e-1))
    elif band == "per_root":  # real roots with n = |m|/3: the per-root switch
        eta = 0.125 * (1.0 + draw(st.floats(-0.02, 0.02)))
    else:  # lightly damped complex to strongly overdamped
        eta = draw(log_uniform(1e-6, 1e4)) - 1.0
    b = 2.0 * math.sqrt(a * (1.0 + eta))
    split = draw(st.floats(0.0, 1.0))  # share of b carried by beta*lam
    p = classify_mode(lam, alpha, split * b / lam, (1.0 - split) * b, delta)

    rho = abs(p.m) + p.n if p.case == REAL_DISTINCT else math.hypot(p.m, p.n)
    when = draw(st.sampled_from(["wide", "wide", "modulus_one", "scalar_half", "scalar_one"]))
    if when == "wide":
        t = draw(log_uniform(1e-3, 30.0)) / rho
    elif when == "modulus_one":  # the series switch
        t = (1.0 + draw(st.floats(-0.02, 0.02))) / rho
    else:  # smaller real root at modulus 1/2, or at 1, scalar_phi's series switch
        small = abs(p.m) - p.n if p.case == REAL_DISTINCT else rho
        at = 0.5 if when == "scalar_half" else 1.0
        t = min(at * (1.0 + draw(st.floats(-0.02, 0.02))) / small, 30.0 / rho)
    return p, t, draw(st.integers(0, 4))


@hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
@hypothesis.given(mode_and_time())
def test_phi_block_matches_mp_expm(case):
    p, t, k = case
    want = reference(k, t, mode_matrix(p))
    got = phi_block(k, t, with_companions(p))[:, :, -1]
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= RTOL, f"{p.case} m={p.m!r} n={p.n!r} t={t!r} k={k}: {err:.2e}"
