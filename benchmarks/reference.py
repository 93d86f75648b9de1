"""References for the workloads' outputs that share no code with wavebeam.

* solve-wave1: the same semi-discrete system integrated by scipy's DOP853.
* solve-beam600-snap: the linear beam propagated mode by mode through the
  analytic DST-I eigenpairs, with scipy.linalg.expm on each 2x2 block.
* converge-wave1-desk: the schemes' theoretical orders.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import solve_ivp

NONLINEAR = {"zero": np.zeros_like, "sin": np.sin}


def grid(n: int, ell: float) -> np.ndarray:
    return np.arange(1, n + 1) * (ell / (n + 1))


def profile(spec: dict, x: np.ndarray, ell: float) -> np.ndarray:
    name, params = spec["name"], spec.get("params", [])
    if name == "zero":
        return np.zeros_like(x)
    if name == "sine":
        amp, freq = params
        return amp * np.sin(freq * x)
    if name == "gaussian":
        amp, rate, center = params
        return amp * np.exp(-rate * (x - center) ** 2)
    raise ValueError(f"no reference profile {name!r}")


def initial_state(cfg: dict) -> np.ndarray:
    x = grid(cfg["N"], cfg["ell"])
    return np.concatenate([profile(cfg["p"], x, cfg["ell"]), profile(cfg["q"], x, cfg["ell"])])


def wave_ivp(cfg: dict) -> np.ndarray:
    """Final stacked (u, w) of u'' + (alpha*S + delta) u + (beta*S + gamma) u' = g(u) + h(u').

    S is the second-difference -d^2/dx^2 with Dirichlet ends. The step size
    is bound by stability rather than accuracy, so rtol 1e-12 costs no more
    than 1e-10 and resolves solve-wave1 to about 1e-12 relative.
    """
    n, ell = cfg["N"], cfg["ell"]
    dx = ell / (n + 1)
    s_mat = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr") / dx**2
    stiff = (cfg["alpha"] * s_mat + cfg["delta"] * sp.identity(n)).tocsr()
    damp = (cfg["beta"] * s_mat + cfg["gamma"] * sp.identity(n)).tocsr()
    g, h = NONLINEAR[cfg["g"]], NONLINEAR[cfg["h"]]

    def rhs(_t, y):
        u, w = y[:n], y[n:]
        return np.concatenate([w, -(stiff @ u) - (damp @ w) + g(u) + h(w)])

    sol = solve_ivp(rhs, (0.0, cfg["T"]), initial_state(cfg), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def beam_modal(cfg: dict, t: float) -> np.ndarray:
    """Stacked (u, w) at time t of the linear hinged-hinged beam, exact up to roundoff.

    The hinged-hinged fourth difference equals the square of the Dirichlet
    second difference, so the orthonormal DST-I matrix diagonalizes it with
    eigenvalues (4/dx^2 sin^2(j*pi/(2(n+1))))^2.
    """
    if cfg["g"] != "zero" or cfg["h"] != "zero":
        raise ValueError("the modal reference needs g = h = zero")
    n, ell = cfg["N"], cfg["ell"]
    dx = ell / (n + 1)
    j = np.arange(1, n + 1)
    q = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * math.pi / (n + 1))
    lam = (4.0 / dx**2 * np.sin(j * math.pi / (2 * (n + 1))) ** 2) ** 2
    y0 = initial_state(cfg)
    cu, cw = q.T @ y0[:n], q.T @ y0[n:]
    out_u, out_w = np.empty(n), np.empty(n)
    for i in range(n):
        block = np.array([[0.0, 1.0],
                          [-cfg["alpha"] * lam[i] - cfg["delta"], -cfg["beta"] * lam[i] - cfg["gamma"]]])
        e = scipy.linalg.expm(t * block)
        out_u[i] = e[0, 0] * cu[i] + e[0, 1] * cw[i]
        out_w[i] = e[1, 0] * cu[i] + e[1, 1] * cw[i]
    return np.concatenate([q @ out_u, q @ out_w])


def median_pairwise_orders(rows) -> dict:
    """{scheme: median of log(e_i/e_{i+1}) / log(M_{i+1}/M_i)} from (scheme, M, error) rows."""
    by_scheme: dict[str, list] = {}
    for scheme, m_steps, err in rows:
        by_scheme.setdefault(scheme, []).append((int(m_steps), float(err)))
    orders = {}
    for scheme, pts in by_scheme.items():
        pts.sort()
        orders[scheme] = statistics.median(
            math.log(e0 / e1) / math.log(m1 / m0) for (m0, e0), (m1, e1) in zip(pts, pts[1:])
        )
    return orders
