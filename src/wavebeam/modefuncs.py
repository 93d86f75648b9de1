"""Closed-form exp and phi-functions on the 2x2 mode blocks, no complex arithmetic.

Each spatial eigenmode lam of the operator S contributes the block

    G = [[0, 1], [-a, 2m]],  a = alpha*lam + delta,  m = -(beta*lam + gamma)/2,

whose roots are m +- eps*n with eps^2 = sigma: real distinct (sigma = +1),
a double root (sigma = 0, n = 0) or a complex pair (sigma = -1), so that
a = m^2 - sigma*n^2. With H = G - m*I, H^2 = sigma*n^2*I, every function of
t*G is affine in H:

    phi_k(t*G) = r*I + s*H = [[r - m*s, s], [-a*s, r + m*s]],

where r and s*eps*n are the even and odd parts of phi_k at the roots
t*(m +- eps*n). With x = t*m, y = t*n and w = sigma*y^2 one formula serves
every discriminant case and every k; three regimes evaluate (r, s) in real
arithmetic, dividing by n only where real roots are well separated:

* series, largest root modulus below 1: sum z^i/(i+k)! with the powers
  z^i = R + eps*y*e from the recurrence (R, e) -> (R*x + w*e, e*x + R);
* per-root difference, real roots with y > |x|/3: r and s from
  ``scalar_phi`` at the two well-separated roots x +- y;
* recurrence, otherwise: from exp(t*G), whose (r, s/t) are
  e^x*(cosh y, sinh(y)/y), e^x*(cos y, sin(y)/y) or e^x*(1, 1), apply
  phi_j = (t*G)^{-1} (phi_{j-1} - I/(j-1)!), which divides only by
  det(t*G) = x^2 - w >= 8x^2/9. Both roots then have modulus >= 1/2, the
  radius above which ``scalar_phi`` also recurs.

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

REAL_DISTINCT = "real_distinct"
DOUBLE_ROOT = "double_root"
COMPLEX_PAIR = "complex_pair"

# sigma = sign of the discriminant, per case
SIGMA = {REAL_DISTINCT: 1.0, DOUBLE_ROOT: 0.0, COMPLEX_PAIR: -1.0}

K_MAX = 4

# |disc| <= DISC_TOL*scale is treated as a double root, so a mode's case
# does not flip with the rounding of its discriminant.
DISC_TOL = 1e-12

# scalar phi_k: Taylor series below this |z|, recurrence from e^z above
SERIES_RADIUS = 0.5
SERIES_RTOL = 1e-18


@dataclass(frozen=True)
class ModeParams:
    """One mode's eigenvalue, root parameters (m, n), and discriminant case."""

    lam: float
    m: float
    n: float
    case: str


@dataclass(frozen=True)
class Block2x2:
    """Dense 2x2 block, row-major fields."""

    a11: float
    a12: float
    a21: float
    a22: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])


def classify_mode(lam: float, alpha: float, beta: float, gamma: float, delta: float) -> ModeParams:
    """Case tag and (m, n) for the mode block of eigenvalue lam."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if beta < 0 or gamma < 0 or delta < 0:
        raise ValueError("beta, gamma, delta must be non-negative")
    b = beta * lam + gamma
    a = alpha * lam + delta
    disc = b * b - 4.0 * a
    scale = max(1.0, b * b, 4.0 * abs(a))
    m = -0.5 * b
    if disc > DISC_TOL * scale:
        return ModeParams(lam, m, 0.5 * math.sqrt(disc), REAL_DISTINCT)
    if disc < -DISC_TOL * scale:
        return ModeParams(lam, m, 0.5 * math.sqrt(-disc), COMPLEX_PAIR)
    return ModeParams(lam, m, 0.0, DOUBLE_ROOT)


def mode_matrix(p: ModeParams) -> np.ndarray:
    """Reconstruct the block G from (m, n, case), with a = m^2 - sigma*n^2."""
    a = p.m * p.m - SIGMA[p.case] * p.n * p.n
    return np.array([[0.0, 1.0], [-a, 2.0 * p.m]])


def scalar_phi(k: int, z: float) -> float:
    """phi_0(z) = e^z; phi_k(z) = (phi_{k-1}(z) - phi_{k-1}(0))/z for k >= 1.

    The recurrence cancels badly for small |z|, so the Taylor series
    sum_j z^j/(j+k)! is used below |z| = 0.5.
    """
    if not 0 <= k <= K_MAX + 2:
        raise PhiOrderError(f"phi order {k} outside supported range 0..{K_MAX + 2}")
    if k == 0:
        return math.exp(z)
    if abs(z) >= SERIES_RADIUS:
        val = math.exp(z)
        for j in range(1, k + 1):
            val = (val - 1.0 / math.factorial(j - 1)) / z
        return val
    term = 1.0 / math.factorial(k)
    total = term
    j = 1
    while j <= 60:
        term *= z / (j + k)
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            break
        j += 1
    return total


def phi_block(k: int, t: float, p: ModeParams) -> Block2x2:
    """phi_k(t*G) = r*I + s*(G - m*I) for one mode block; k = 0 is exp(t*G)."""
    if not 0 <= k <= K_MAX:
        raise PhiOrderError(f"phi order {k} outside supported range 0..{K_MAX}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    sigma = SIGMA[p.case]
    x, y = t * p.m, t * p.n
    w = sigma * y * y
    if (abs(x) + y if sigma > 0 else math.hypot(x, y)) < 1.0:
        # (R, e)/(i+k)! of z^i = R + eps*y*e, summed into (r, s/t)
        cr, ce = 1.0 / math.factorial(k), 0.0
        r, q = cr, ce
        for j in range(k + 1, k + 40):
            cr, ce = (cr * x + w * ce) / j, (ce * x + cr) / j
            r += cr
            q += ce
            if abs(cr) + abs(ce) <= SERIES_RTOL * (abs(r) + abs(q)):
                break
        s = t * q
    elif sigma > 0 and 3.0 * y > abs(x):
        fp, fm = scalar_phi(k, x + y), scalar_phi(k, x - y)
        r, s = 0.5 * (fp + fm), 0.5 * (fp - fm) / p.n
    else:
        if sigma > 0:  # e^x*cosh(y), e^x*sinh(y)/y without overflow in cosh
            ep, d = math.exp(x + y), math.expm1(-2.0 * y)
            r, q = ep * (1.0 + 0.5 * d), -0.5 * ep * d / y
        elif sigma < 0:
            ex = math.exp(x)
            r, q = ex * math.cos(y), ex * math.sin(y) / y
        else:
            r = q = math.exp(x)
        det = x * x - w
        inv_fact = 1.0
        for j in range(1, k + 1):
            rho = r - inv_fact
            r, q = (x * rho - w * q) / det, (x * q - rho) / det
            inv_fact /= j
        s = t * q
    a = p.m * p.m - sigma * p.n * p.n
    return Block2x2(r - p.m * s, s, -a * s, r + p.m * s)
