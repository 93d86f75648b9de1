"""Comparators for the production path: independent oracles, baselines and error metrics.

Each oracle uses a different algorithm than the production spectral path, so
agreement between the two is a meaningful check. The dense ones
(scaling-and-squaring of a truncated Taylor series, plus the augmented-matrix
embedding for phi_k) are capped at small sizes to keep tests fast;
``phi_action`` applies the same embedding to the sparse system matrix through
``scipy.sparse.linalg.expm_multiply`` and needs no factorization, so it
reaches sizes the dense ones cannot.

Only this module forms S (``stencil``) and A as explicit matrices. scipy is
imported inside the functions that need it, so importing the package loads none.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .discretize import (
    KINDS,
    GridOperator,
    ProblemSpec,
    StateVector,
    build_operator,
    forcing_from_spec,
    initial_state,
)
from .eigen import factorize
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InstabilityError,
    InsufficientPointsError,
    OracleScaleError,
)
from .integrators import SchemeTableau, SolveResult, SolveStats, solve
from .modefuncs import CASE_NAMES, K_MAX, ModeParams
from .propagator import BlockPropagator, build_propagator

ASSEMBLE_MAX_N = 64
EXPM_MAX_DIM = 128

_EXPM_TAYLOR_TOL = 1e-20
_EXPM_SCALE_TARGET = 0.5


def stencil(op: GridOperator):
    """S itself as a scipy CSR matrix, from the band of its kind's ``discretize.KINDS`` record."""
    import scipy.sparse as sp

    kind, n, dx = KINDS[op.kind], op.n, op.dx
    # dx * dx, not dx**2: pow rounds about one dx in 1000 the other way
    c = 1.0 / (dx * dx if kind.dx_power == 2 else dx**kind.dx_power)
    diag = np.full(n, kind.diagonal * c)
    diag[0] = diag[-1] = kind.corner * c
    off = [coef * c for coef in kind.off]
    m = len(off)
    return sp.diags([*off[::-1], diag, *off], range(-m, m + 1), shape=(n, n), format="csr")


def assemble_dense_A(op: GridOperator, spec: ProblemSpec) -> np.ndarray:
    """``assemble_sparse_A`` as a dense array, for the dense oracles."""
    if op.n > ASSEMBLE_MAX_N:
        raise OracleScaleError(f"dense assembly capped at n = {ASSEMBLE_MAX_N}, got {op.n}")
    return assemble_sparse_A(op, spec).toarray()


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
    if not 0 <= k <= K_MAX:
        raise OracleScaleError(f"dense phi supports k = 0..{K_MAX}, got {k}")
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


def rk4_step(f, tau: float, y: np.ndarray) -> np.ndarray:
    """Classic fourth-order Runge-Kutta step."""
    k1 = f(y)
    k2 = f(y + 0.5 * tau * k1)
    k3 = f(y + 0.5 * tau * k2)
    k4 = f(y + tau * k3)
    return y + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def assemble_sparse_A(op: GridOperator, spec: ProblemSpec):
    """Sparse 2n-by-2n system matrix [[0, I], [-alpha*S-delta*I, -beta*S-gamma*I]], scipy CSR."""
    import scipy.sparse as sp

    s_mat = stencil(op)
    eye = sp.identity(op.n, format="csr")
    lower_left = -spec.alpha * s_mat - spec.delta * eye
    lower_right = -spec.beta * s_mat - spec.gamma * eye
    return sp.bmat([[None, eye], [lower_left, lower_right]], format="csr")


def rk4_baseline_solve(op: GridOperator, spec: ProblemSpec, M: int) -> SolveResult:
    """Fixed-step classical RK4 on y' = A y + F(y), the non-exponential comparator."""
    if M < 1:
        raise ConfigError(f"step count must be positive, got {M}")
    a_mat = assemble_sparse_A(op, spec)
    n = op.n
    forcing = forcing_from_spec(spec, n)

    def f(y):
        dy = a_mat @ y
        dy[n:] += forcing(y)
        return dy

    tau = spec.T / M
    y = initial_state(spec, op.n).stacked()
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(M):
            y = rk4_step(f, tau, y)
            if not np.all(np.isfinite(y)):
                raise InstabilityError(
                    f"RK4 unstable at step {i + 1} of {M} (t = {(i + 1) * tau:.6g})",
                    step=i + 1,
                    time=(i + 1) * tau,
                )
    wall = time.perf_counter() - start
    stats = SolveStats(steps=M, phi_evals=0, phi_applies=0, wall_time=wall)
    return SolveResult(StateVector.from_stacked(y), None, stats)


def merged_damping_solve(
    op: GridOperator,
    spec: ProblemSpec,
    tableau: SchemeTableau,
    M: int,
    fact=None,
) -> SolveResult:
    """Solve with the damping terms folded into the nonlinearity.

    The linear part keeps only [[0, I], [-alpha*S - delta*I, 0]] (the
    cosine/sine propagator), while F gains -beta*S*w - gamma*w. This is the
    comparison variant; it loses accuracy for damped waves and goes unstable
    for the stiff beam operator at step sizes the full propagator handles.
    """
    lin_spec = replace(spec, beta=0.0, gamma=0.0)
    prop = build_propagator(op, lin_spec, fact=fact)
    nonlinear = forcing_from_spec(spec, op.n)
    s_mat = stencil(op)
    beta, gamma = spec.beta, spec.gamma
    n = op.n

    def forcing(y: np.ndarray) -> np.ndarray:
        w = y[n:]
        return nonlinear(y) - beta * (s_mat @ w) - gamma * w

    return solve(prop, tableau, lin_spec, M, forcing=forcing)


def phi_action(op: GridOperator, spec: ProblemSpec, k: int, t: float, v: np.ndarray) -> np.ndarray:
    """phi_k(tA) @ v on the stacked (u, w) layout, from the sparse A alone.

    For k >= 1, tA is embedded in the augmented matrix [[tA, v e_1'], [0, J_k]],
    J_k the k-by-k upper shift, whose exponential's last column holds
    phi_k(tA) v above e_k (Al-Mohy & Higham, "Computing the action of the
    matrix exponential", SIAM J. Sci. Comput. 33, 2011). ``expm_multiply``
    forms that column by truncated Taylor with scaling, so no eigenvector
    and no dense matrix is made; its cost grows with t*||A||.
    """
    # scipy is imported inside its users only: scipy.sparse adds 22 MB of peak
    # RSS to a process that imports numpy alone (28 -> 50 MB), .linalg 10 MB more
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    if not 0 <= k <= K_MAX:
        raise OracleScaleError(f"phi action supports k = 0..{K_MAX}, got {k}")
    d = 2 * op.n
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise DimensionMismatchError(f"expected stacked length {d}, got {v.shape}")
    ta = t * assemble_sparse_A(op, spec)
    if k == 0:
        return expm_multiply(ta, v)
    coupling = sp.csr_matrix((v, (np.arange(d), np.zeros(d, dtype=np.int64))), shape=(d, k))
    big = sp.bmat([[ta, coupling], [None, sp.eye(k, k=1)]], format="csr")
    e_last = np.zeros(d + k)
    e_last[-1] = 1.0
    return expm_multiply(big, e_last)[:d]


def apply_undamped_reference(prop: BlockPropagator, t: float, v: StateVector) -> StateVector:
    """exp(tA) @ v through the cosine/sine form, valid only when beta = gamma = 0.

    With Omega = sqrt(alpha*S + delta*I), the undamped propagator is
    [[cos(t*Omega), Omega^{-1} sin(t*Omega)], [-Omega sin(t*Omega), cos(t*Omega)]],
    evaluated mode-wise on the spectral coefficients. Cross-validates the
    general block path.
    """
    alpha, beta, gamma, delta = prop.params
    if beta != 0.0 or gamma != 0.0:
        raise ValueError("undamped reference requires beta = gamma = 0")
    if v.n != prop.n:
        raise DimensionMismatchError(f"state of size {v.n} does not match propagator size {prop.n}")
    omega = np.sqrt(alpha * prop.fact.lam + delta)
    ct = np.cos(t * omega)
    st = np.sin(t * omega)
    transform = prop.fact.transform
    cu = transform(v.u)
    cw = transform(v.w)
    return StateVector(transform(ct * cu + st / omega * cw), transform(-omega * st * cu + ct * cw))


def mode_matrix(p: ModeParams) -> np.ndarray:
    """The blocks G = [[0, 1], [-a, 2m]], shape (2, 2) + m.shape."""
    a = p.a
    return np.array([[np.zeros_like(a), np.ones_like(a)], [-a, 2.0 * p.m]])


def discrete_l2_error(y, y_ref, dx: float) -> float:
    """sqrt(dx * sum |y_i - y_ref_i|^2) over the stacked state."""
    a = y.stacked() if isinstance(y, StateVector) else np.asarray(y, dtype=float)
    b = y_ref.stacked() if isinstance(y_ref, StateVector) else np.asarray(y_ref, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a - b
        err = math.sqrt(dx * float(diff @ diff))
    if math.isfinite(err):
        return err
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    # a diverged but finite state: its squares overflow, so scale before squaring
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    diff = a / scale - b / scale
    return scale * math.sqrt(dx * float(diff @ diff))


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


def block_oracle_suite(sizes=(4, 8, 16), ts=(0.01, 0.1, 1.0), ks=(0, 1, 2, 3), kinds=tuple(KINDS), seed=1234):
    """Compare the block path against the dense oracle over a parameter grid.

    Returns (rows, cases_seen): rows of (kind, regime, n, t, k, max relative
    error over three fixed probe vectors) and the set of discriminant case
    names encountered.
    """
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
