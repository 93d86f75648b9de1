"""Closed-form exp and phi-functions of the 2x2 mode blocks, over whole spectra.

Each spatial eigenmode lam of the operator S contributes the block

    G = [[0, 1], [-a, 2m]],  a = alpha*lam + delta,  m = -(beta*lam + gamma)/2,

whose roots are m +- eps*n with eps^2 = sigma: real distinct (sigma = +1),
a double root (sigma = 0, n = 0) or a complex pair (sigma = -1), so that
a = m^2 - sigma*n^2. With H = G - m*I, H^2 = sigma*n^2*I, every function of
t*G is affine in H:

    phi_k(t*G) = r*I + s*H = [[r - m*s, s], [-a*s, r + m*s]],

where r and s*eps*n are the even and odd parts of phi_k at the roots
t*(m +- eps*n). ``classify_mode`` maps a scalar or an array of eigenvalues
to one ``ModeParams`` of arrays lam, m, n, case and a, where case is sigma
itself (``CASE_NAMES`` spells it out for text output) and a is kept as
alpha*lam + delta, since m^2 - n^2 cancels by b^2/4a for overdamped modes
(b = -2m); ``phi_block`` returns
the (2, 2) + m.shape array of the blocks phi_k(t*G_i). With x = t*m,
y = t*n and w = sigma*y^2 one formula serves every case and every k. Boolean
masks split the modes into three regimes, each evaluated only on its own
modes, so no branch overflows or divides by zero on another mode's values:

* series, largest root modulus below 1: sum z^i/(i+k)! with the powers
  z^i = R + eps*y*e from the recurrence (R, e) -> (R*x + w*e, e*x + R);
* per-root difference, real roots with y > |x|/3: r and s from
  ``scalar_phi`` at the two well-separated roots, x - y and the slow root
  x + y = t*a/(m - n) (Vieta; m <= 0, so x + y itself would cancel);
* recurrence, otherwise: from exp(t*G), whose (r, s/t) are
  e^x*(cosh y, sinh(y)/y), e^x*(cos y, sin(y)/y) or e^x*(1, 1), apply
  phi_j = (t*G)^{-1} (phi_{j-1} - I/(j-1)!), which divides only by
  det(t*G) = x^2 - w >= 8x^2/9.

Only the per-root regime divides by n. ``scalar_phi`` is the y = 0 case of
the same kernel, so a single root also leaves the series at modulus 1.

Against a 40-digit reference of the same block, swept over 1e-3 <= |t*z| <=
30, all k and all cases, a third of the samples within 1e-8..1e-1 of
critical damping, the max-norm relative error stays below 3e-13; the worst
cases sit just inside the recurrence at y ~ |x|/3 and k = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhiOrderError

# the case of a mode is sigma, the sign of its discriminant
REAL_DISTINCT, DOUBLE_ROOT, COMPLEX_PAIR = 1.0, 0.0, -1.0
CASE_NAMES = {1.0: "real_distinct", 0.0: "double_root", -1.0: "complex_pair"}

K_MAX = 4

# |disc| <= DISC_TOL*scale is treated as a double root, so a mode's case
# does not flip with the rounding of its discriminant.
DISC_TOL = 1e-12

SERIES_RTOL = 1e-18

# sqrt of the smallest normal double: block entries below it are returned as
# 0, so an entry times a coefficient of at least FLOOR is never subnormal
FLOOR = 2.0**-511


@dataclass(frozen=True)
class ModeParams:
    """Eigenvalues, root parameters (m, n), case sigma and a = alpha*lam + delta of a set of modes.

    a equals m^2 - sigma*n^2, but that difference cancels for strongly
    overdamped modes, b^2 >> 4a, so a is kept as computed.
    """

    lam: np.ndarray
    m: np.ndarray
    n: np.ndarray
    case: np.ndarray
    a: np.ndarray


def classify_mode(lam, alpha: float, beta: float, gamma: float, delta: float) -> ModeParams:
    """Case sigma and (m, n) of the mode block of each eigenvalue in lam."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if beta < 0 or gamma < 0 or delta < 0:
        raise ValueError("beta, gamma, delta must be non-negative")
    lam = np.asarray(lam, dtype=float)
    b = beta * lam + gamma
    a = alpha * lam + delta
    disc = b * b - 4.0 * a
    scale = np.maximum(np.maximum(1.0, b * b), 4.0 * np.abs(a))
    case = np.where(np.abs(disc) > DISC_TOL * scale, np.sign(disc), DOUBLE_ROOT)
    n = np.where(case != DOUBLE_ROOT, 0.5 * np.sqrt(np.abs(disc)), 0.0)
    return ModeParams(lam, -0.5 * b, n, case, a)


def scalar_phi(k: int, z):
    """phi_0(z) = e^z; phi_k(z) = (phi_{k-1}(z) - phi_{k-1}(0))/z for k >= 1.

    The series below |z| = 1, the recurrence above, as for a double root.
    """
    if not 0 <= k <= K_MAX:
        raise PhiOrderError(f"phi order {k} outside supported range 0..{K_MAX}")
    z = np.asarray(z, dtype=float)
    zero = np.zeros(z.size)
    r, _ = _phi_rs(k, 1.0, z.ravel(), zero, zero, zero)
    return r.reshape(z.shape)[()]


def _phi_rs(k: int, t: float, m: np.ndarray, n: np.ndarray, sigma: np.ndarray, a: np.ndarray):
    """(r, s) of phi_k(t*G) = r*I + s*H on flat arrays of modes."""
    x, y = t * m, t * n
    w = sigma * y * y
    r, s = np.empty_like(x), np.empty_like(x)
    real = sigma > 0
    series = np.where(real, np.abs(x) + y, np.hypot(x, y)) < 1.0
    per_root = ~series & real & (3.0 * y > np.abs(x))
    rec = ~(series | per_root)

    if series.any():
        # (R, e)/(i+k)! of z^i = R + eps*y*e, summed into (r, s/t)
        xs, ws = x[series], w[series]
        cr, ce = np.full_like(xs, 1.0 / math.factorial(k)), np.zeros_like(xs)
        rs, qs = cr.copy(), ce.copy()
        for j in range(k + 1, k + 40):
            cr, ce = (cr * xs + ws * ce) / j, (ce * xs + cr) / j
            rs += cr
            qs += ce
            if np.all(np.abs(cr) + np.abs(ce) <= SERIES_RTOL * (np.abs(rs) + np.abs(qs))):
                break
        r[series], s[series] = rs, t * qs

    if per_root.any():
        # m <= 0, so the slow root x + y cancels; Vieta gives it as t*a/(m - n)
        xp, yp = x[per_root], y[per_root]
        slow = t * a[per_root] / (m[per_root] - n[per_root])
        fp, fm = scalar_phi(k, slow), scalar_phi(k, xp - yp)
        r[per_root], s[per_root] = 0.5 * (fp + fm), 0.5 * (fp - fm) / n[per_root]

    if rec.any():
        xr, yr, sr, wr = x[rec], y[rec], sigma[rec], w[rec]
        rr, qr = np.empty_like(xr), np.empty_like(xr)
        pos, neg = sr > 0, sr < 0
        dbl = ~(pos | neg)
        # e^x*cosh(y), e^x*sinh(y)/y without overflow in cosh
        ep, d = np.exp(xr[pos] + yr[pos]), np.expm1(-2.0 * yr[pos])
        rr[pos], qr[pos] = ep * (1.0 + 0.5 * d), -0.5 * ep * d / yr[pos]
        ex = np.exp(xr[neg])
        rr[neg], qr[neg] = ex * np.cos(yr[neg]), ex * np.sin(yr[neg]) / yr[neg]
        rr[dbl] = qr[dbl] = np.exp(xr[dbl])
        det = xr * xr - wr
        inv_fact = 1.0
        for j in range(1, k + 1):
            rho = rr - inv_fact
            rr, qr = (xr * rho - wr * qr) / det, (xr * qr - rho) / det
            inv_fact /= j
        r[rec], s[rec] = rr, t * qr
    return r, s


def phi_block(k: int, t: float, modes: ModeParams) -> np.ndarray:
    """phi_k(t*G_i) = r*I + s*(G_i - m_i*I) for every mode; k = 0 is exp(t*G).

    Returns shape (2, 2) + modes.m.shape: entry [:, :, i] is mode i's block.
    Entries of magnitude below ``FLOOR`` = 2^-511 are returned as exactly 0:
    the overdamped high modes of a stiff beam decay into gradual underflow,
    and subnormal operands slow each product with them 2-3x on x86. Each
    zeroed entry moves an apply by less than 2^-511*|y_i| of the spectral
    coefficient y_i it multiplies.
    """
    if not 0 <= k <= K_MAX:
        raise PhiOrderError(f"phi order {k} outside supported range 0..{K_MAX}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    m, n, sigma, a = (np.asarray(f, dtype=float) for f in (modes.m, modes.n, modes.case, modes.a))
    r, s = (v.reshape(m.shape) for v in _phi_rs(k, t, m.ravel(), n.ravel(), sigma.ravel(), a.ravel()))
    blk = np.array([[r - m * s, s], [-a * s, r + m * s]])
    blk[np.abs(blk) < FLOOR] = 0.0
    return blk
