"""Action of exp(tA) and phi_k(tA) on state vectors through the mode blocks.

The 2n-by-2n system matrix A = [[0, I], [-alpha*S - delta*I, -beta*S - gamma*I]]
factors as diag(Q, Q) P diag(G_1..G_n) P' diag(Q', Q') once S = Q diag(lam) Q'.
Applying any phi_k(tA) to a vector therefore costs two dense products, each
reading Q once, plus O(n) block work: one product with Q takes both halves
to spectral coefficients (Q'u, Q'w), the permutation P' interleaves them,
each mode's 2x2 block multiplies its pair, and one product with Q' takes
both halves back.

P is never formed or applied: the block tables are laid out in P's
interleaved order, so strided slices of them act on the stacked halves
directly. ``permutation_positions`` documents P as the position array of
its nonzero column per row ([1, 3, 5, 2, 4, 6] for n = 3).
"""

from __future__ import annotations

import threading

import numpy as np

from .discretize import GridOperator, ProblemSpec, StateVector
from .eigen import SpectralFactorization, factorize
from .errors import DimensionMismatchError, PhiOrderError
from .modefuncs import K_MAX, classify_mode, phi_block


def permutation_positions(n: int) -> np.ndarray:
    """1-based positions of the nonzero column in each row of P."""
    pos = np.empty(2 * n, dtype=np.int64)
    pos[:n] = 2 * np.arange(1, n + 1) - 1
    pos[n:] = 2 * np.arange(1, n + 1)
    return pos


class BlockPropagator:
    """Engine applying matrix functions of tA to state vectors.

    Each block table is built once, under a lock, on first use of its
    (k, c*tau) key. The ``tables_built`` and ``applies`` counters are plain
    attributes and are not thread-safe.
    """

    def __init__(self, fact: SpectralFactorization, modes, params):
        self.fact = fact
        self.modes = tuple(modes)
        self.params = params
        self.n = fact.n
        self._q_t = np.ascontiguousarray(fact.q.T)
        self._tables: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()
        self.tables_built = 0
        self.applies = 0

    def table(self, k: int, tau: float, c: float = 1.0) -> np.ndarray:
        """2-by-2n table of phi_k(c*tau*G_i), mode i in columns 2i, 2i+1.

        Tables are keyed by (k, c*tau), so equal effective times, such as
        (tau, 1/2) and (tau/2, 1), share one table.
        """
        if not 0 <= k <= K_MAX:
            raise PhiOrderError(f"phi order {k} outside supported range 0..{K_MAX}")
        key = (k, float(tau) * float(c))
        tab = self._tables.get(key)
        if tab is None:
            with self._lock:
                tab = self._tables.get(key)
                if tab is None:
                    tab = self._build_table(*key)
                    self._tables[key] = tab
                    self.tables_built += 1
        return tab

    def _build_table(self, k: int, t_eff: float) -> np.ndarray:
        tab = np.empty((2, 2 * self.n))
        for i, p in enumerate(self.modes):
            blk = phi_block(k, t_eff, p)
            tab[0, 2 * i] = blk.a11
            tab[0, 2 * i + 1] = blk.a12
            tab[1, 2 * i] = blk.a21
            tab[1, 2 * i + 1] = blk.a22
        return tab

    def apply_stacked(self, k: int, tau: float, y: np.ndarray, c: float = 1.0) -> np.ndarray:
        """phi_k(c*tau*A) @ y on the stacked (u, w) layout.

        Pipeline: one product with Q takes both halves to spectral
        coefficients (rows Q'u and Q'w), the per-mode 2x2 blocks mix them,
        and one product with Q' takes both rows back. P' interleaves the two
        spectral halves into mode pairs and P separates them again, so on
        the stacked halves the middle three stages collapse to two
        coefficient multiplies by strided columns of the 2-by-2n block
        table. Q is read once in and once out.
        """
        n = self.n
        if y.shape != (2 * n,):
            raise DimensionMismatchError(f"expected stacked length {2 * n}, got {y.shape}")
        tab = self.table(k, tau, c)
        spec = y.reshape(2, n) @ self.fact.q
        out = (tab[:, 0::2] * spec[0] + tab[:, 1::2] * spec[1]) @ self._q_t
        self.applies += 1
        return out.reshape(2 * n)


def build_propagator(
    op: GridOperator, spec: ProblemSpec, fact: SpectralFactorization | None = None
) -> BlockPropagator:
    """Factorize (unless given) and classify every mode."""
    if fact is None:
        fact = factorize(op)
    if fact.n != op.n:
        raise DimensionMismatchError(
            f"factorization of size {fact.n} does not match operator size {op.n}"
        )
    modes = tuple(
        classify_mode(float(lam), spec.alpha, spec.beta, spec.gamma, spec.delta)
        for lam in fact.lam
    )
    params = (spec.alpha, spec.beta, spec.gamma, spec.delta)
    return BlockPropagator(fact, modes, params)


def apply_phi(prop: BlockPropagator, k: int, t: float, v: StateVector) -> StateVector:
    """phi_k(tA) @ v (k = 0 gives exp(tA) @ v)."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if v.n != prop.n:
        raise DimensionMismatchError(f"state of size {v.n} does not match propagator size {prop.n}")
    return StateVector.from_stacked(prop.apply_stacked(k, t, v.stacked()))


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
    q = prop.fact.q
    cu = q.T @ v.u
    cw = q.T @ v.w
    return StateVector(q @ (ct * cu + st / omega * cw), q @ (-omega * st * cu + ct * cw))
