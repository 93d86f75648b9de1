"""Action of exp(tA) and phi_k(tA) on state vectors through the mode blocks.

The 2n-by-2n system matrix A = [[0, I], [-alpha*S - delta*I, -beta*S - gamma*I]]
factors as diag(Q, Q) P diag(G_1..G_n) P' diag(Q', Q') once S = Q diag(lam) Q'.
Applying any phi_k(tA) to a vector therefore costs two products with Q plus
O(n) block work: one product with Q takes both halves to spectral
coefficients (Q'u, Q'w), the permutation P' interleaves them, each mode's
2x2 block multiplies its pair, and one product with Q' takes both halves
back. Q is symmetric, so both products are
``SpectralFactorization.transform``, which reads the dense Q once, or from
``eigen.N_FOLD`` on its two half-size blocks, half of Q's bytes.

P is never formed or applied: a block table is the (2, 2, n) array of all
the mode blocks, and its columns tab[:, 0] and tab[:, 1] multiply the two
spectral halves directly. ``permutation_positions`` is the only record of
P, as the position array of its nonzero column per row ([1, 3, 5, 2, 4, 6]
for n = 3).

A source term of the second-order-in-time equations has a zero u-half, so
``apply_stacked`` also takes it as its w-half alone, an (n,) array: one row
goes in and only the w-column tab[:, 1] of the blocks mixes it.
"""

from __future__ import annotations

import numpy as np

from .discretize import GridOperator, ProblemSpec, StateVector
from .eigen import SpectralFactorization, factorize
from .errors import DimensionMismatchError, InvalidDimensionError, PhiOrderError
from .modefuncs import K_MAX, ModeParams, classify_mode, phi_block


def permutation_positions(n: int) -> np.ndarray:
    """1-based positions of the nonzero column in each row of P."""
    pos = np.empty(2 * n, dtype=np.int64)
    pos[:n] = 2 * np.arange(1, n + 1) - 1
    pos[n:] = 2 * np.arange(1, n + 1)
    return pos


class BlockPropagator:
    """Engine applying matrix functions of tA to state vectors.

    Each block table is built once, on first use of its (k, t) key. The
    ``tables_built`` and ``applies`` counters are plain attributes.
    """

    def __init__(self, fact: SpectralFactorization, modes: ModeParams, params):
        self.fact = fact
        self.modes = modes
        self.params = params
        self.n = fact.n
        self._tables: dict[tuple, np.ndarray] = {}
        self.tables_built = 0
        self.applies = 0

    def table(self, k: int, t: float) -> np.ndarray:
        """(2, 2, n) table of phi_k(t*G_i), mode i's block in [:, :, i].

        Tables are keyed by (k, t): a stage at node c of a step tau passes
        t = c*tau, so equal effective times, such as (tau, 1/2) and
        (tau/2, 1), share one table.
        """
        if not 0 <= k <= K_MAX:
            raise PhiOrderError(f"phi order {k} outside supported range 0..{K_MAX}")
        key = (k, float(t))
        tab = self._tables.get(key)
        if tab is None:
            tab = phi_block(*key, self.modes)
            self._tables[key] = tab
            self.tables_built += 1
        return tab

    def apply_stacked(self, k: int, t: float, y: np.ndarray) -> np.ndarray:
        """phi_k(t*A) @ y on the stacked (u, w) layout; an (n,) y is the source (0, y).

        Pipeline: one product with Q takes both halves to spectral
        coefficients (rows Q'u and Q'w), the per-mode 2x2 blocks mix them,
        and one product with Q' takes both rows back. P' interleaves the two
        spectral halves into mode pairs and P separates them again, so on
        the stacked halves the middle three stages collapse to two
        coefficient multiplies by the columns tab[:, 0] and tab[:, 1] of
        the (2, 2, n) block table. Q (or its folded blocks) is read once in
        and once out.

        A source of a second-order-in-time equation has a zero u-half, so
        it is passed as its w-half alone: one row goes in and only the
        w-column tab[:, 1] of each block mixes it.
        """
        n = self.n
        if y.shape != (2 * n,) and y.shape != (n,):
            raise DimensionMismatchError(
                f"expected stacked length {2 * n} or source length {n}, got {y.shape}"
            )
        tab = self.table(k, t)
        if y.size == n:
            out = self.fact.transform(tab[:, 1] * self.fact.transform(y))
        else:
            spec = self.fact.transform(y.reshape(2, n))
            out = self.fact.transform(tab[:, 0] * spec[0] + tab[:, 1] * spec[1])
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
    lam_max = fact.lam[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        scales = (lam_max, 4.0 * (spec.alpha * lam_max + spec.delta),
                  (spec.beta * lam_max + spec.gamma) ** 2)
    if not np.all(np.isfinite(scales)):
        raise InvalidDimensionError(
            f"ell = {op.ell:g} is too small at n = {op.n}: the mode block of the largest "
            f"eigenvalue ({lam_max:.3g}) overflows double precision"
        )
    modes = classify_mode(fact.lam, spec.alpha, spec.beta, spec.gamma, spec.delta)
    params = (spec.alpha, spec.beta, spec.gamma, spec.delta)
    return BlockPropagator(fact, modes, params)


def apply_phi(prop: BlockPropagator, k: int, t: float, v: StateVector) -> StateVector:
    """phi_k(tA) @ v (k = 0 gives exp(tA) @ v)."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if v.n != prop.n:
        raise DimensionMismatchError(f"state of size {v.n} does not match propagator size {prop.n}")
    return StateVector.from_stacked(prop.apply_stacked(k, t, v.stacked()))

