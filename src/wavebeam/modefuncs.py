"""Closed-form exp and phi-functions on the 2x2 mode blocks, no complex arithmetic.

Each spatial eigenmode lam of the operator S contributes the block

    G = [[0, 1], [-alpha*lam - delta, -beta*lam - gamma]],

whose characteristic roots are m +- n (real), a double root m, or m +- i*n,
with m = -(beta*lam + gamma)/2 and n = sqrt(|disc|)/2 for the discriminant
disc = (beta*lam + gamma)^2 - 4*(alpha*lam + delta). exp(t*G) and phi_k(t*G)
are affine in G, so each evaluation reduces to two scalar coefficients; the
three discriminant cases get dedicated cancellation-free evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhiOrderError

REAL_DISTINCT = "real_distinct"
DOUBLE_ROOT = "double_root"
COMPLEX_PAIR = "complex_pair"

K_MAX = 4

# |disc| <= DISC_TOL*scale is treated as a double root: the real/complex
# formulas divide by n and lose digits there, while the double-root formula
# is their exact limit.
DISC_TOL = 1e-12

# scalar phi_k: Taylor series below this |z|, recurrence from e^z above
SERIES_RADIUS = 0.5
SERIES_RTOL = 1e-18

# sinh(x)/x series kicks in below this |t*n| in the real-distinct case
SINH_SERIES_CUT = 1e-4


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
    """Reconstruct the block G from (m, n, case); -alpha*lam-delta in terms of m, n."""
    if p.case == REAL_DISTINCT:
        a21 = p.n * p.n - p.m * p.m
    elif p.case == DOUBLE_ROOT:
        a21 = -p.m * p.m
    else:
        a21 = -(p.n * p.n + p.m * p.m)
    return np.array([[0.0, 1.0], [a21, 2.0 * p.m]])


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


def scalar_phi_deriv(k: int, z: float) -> float:
    """Derivative phi_k'(z), via the joint recurrence or its small-|z| series."""
    if not 0 <= k <= K_MAX + 2:
        raise PhiOrderError(f"phi order {k} outside supported range 0..{K_MAX + 2}")
    if k == 0:
        return math.exp(z)
    if abs(z) >= SERIES_RADIUS:
        phi = math.exp(z)
        dphi = math.exp(z)
        for j in range(1, k + 1):
            phi = (phi - 1.0 / math.factorial(j - 1)) / z
            dphi = (dphi - phi) / z
        return dphi
    # sum_{j>=1} j z^{j-1} / (j+k)!
    term = 1.0 / math.factorial(k + 1)
    total = term
    j = 2
    while j <= 60:
        term *= z * j / ((j - 1) * (j + k))
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            break
        j += 1
    return total


def _phi_series_complex(k: int, x: float, y: float):
    """(Re, Im) of phi_k(x + i*y) by the entire-function series, real arithmetic."""
    a = 1.0 / math.factorial(k)
    b = 0.0
    tot_r, tot_i = a, b
    j = 1
    while j <= 60:
        a, b = (a * x - b * y) / (j + k), (a * y + b * x) / (j + k)
        tot_r += a
        tot_i += b
        if abs(a) + abs(b) <= SERIES_RTOL * (abs(tot_r) + abs(tot_i)):
            break
        j += 1
    return tot_r, tot_i


def exp_block(t: float, p: ModeParams) -> Block2x2:
    """exp(t*G) for one mode block."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    m, n = p.m, p.n
    if p.case == REAL_DISTINCT:
        x = t * n
        if abs(x) < SINH_SERIES_CUT:
            slope = math.exp(t * m) * t * (1.0 + x * x / 6.0 + x**4 / 120.0)
        else:
            slope = (math.exp(t * (m + n)) - math.exp(t * (m - n))) / (2.0 * n)
        ep = math.exp(t * (m + n))
        return Block2x2(
            slope * (-m - n) + ep,
            slope,
            slope * (n * n - m * m),
            slope * (m - n) + ep,
        )
    if p.case == DOUBLE_ROOT:
        emt = math.exp(t * m)
        tm = t * m
        return Block2x2(emt * (1.0 - tm), emt * t, -emt * t * m * m, emt * (tm + 1.0))
    emt = math.exp(t * m)
    s = emt * math.sin(t * n) / n
    c = emt * math.cos(t * n)
    return Block2x2(-m * s + c, s, -(n * n + m * m) * s, m * s + c)


def phi_block(k: int, t: float, p: ModeParams) -> Block2x2:
    """phi_k(t*G) for one mode block; k = 0 is exp(t*G)."""
    if not 0 <= k <= K_MAX:
        raise PhiOrderError(f"phi order {k} outside supported range 0..{K_MAX}")
    if k == 0:
        return exp_block(t, p)
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    inv_fact = 1.0 / math.factorial(k)
    if t == 0.0:
        return Block2x2(inv_fact, 0.0, 0.0, inv_fact)
    m, n = p.m, p.n
    if p.case == REAL_DISTINCT:
        fp = scalar_phi(k, t * (m + n))
        fm = scalar_phi(k, t * (m - n))
        slope = (fp - fm) / (2.0 * n)
        return Block2x2(
            slope * (-m - n) + fp,
            slope,
            slope * (n * n - m * m),
            slope * (m - n) + fp,
        )
    if p.case == DOUBLE_ROOT:
        z = t * m
        dval = scalar_phi_deriv(k, z)
        pval = scalar_phi(k, z)
        return Block2x2(
            -z * dval + pval,
            t * dval,
            -t * m * m * dval,
            z * dval + pval,
        )
    # complex pair: (Re, Im) of phi_k at the root t*(m + i*n), n > 0. The
    # recursion divides by t*(m^2+n^2) and cancels for small arguments, so
    # below |t*z| = 0.5 the entire-function series is used.
    if t * math.hypot(m, n) < SERIES_RADIUS:
        rk, ik = _phi_series_complex(k, t * m, t * n)
    else:
        ik = math.exp(t * m) * math.sin(t * n)
        rk = math.exp(t * m) * math.cos(t * n)
        denom = t * (m * m + n * n)
        for j in range(1, k + 1):
            c = 1.0 / math.factorial(j - 1)
            ik, rk = (m * ik - n * (rk - c)) / denom, (n * ik + m * (rk - c)) / denom
    s = ik / n
    return Block2x2(-m * s + rk, s, -(n * n + m * m) * s, m * s + rk)
