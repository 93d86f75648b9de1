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

Table entries below 2^-511 (``modefuncs.FLOOR``) are exactly 0, so an entry
times a spectral coefficient of at least 2^-511 is never subnormal and the
mixed sum carries no subnormal into the product back. The overdamped high
modes of a stiff beam decay into gradual underflow, and on x86 each
transform with subnormal operands took 2-3x as long. An apply moves by less
than 2^-511 times the spectral coefficient each zeroed entry multiplies.

A source term of the second-order-in-time equations has a zero u-half, so
``apply_stacked`` also takes it as its w-half alone, an (n,) array: one row
goes in and only the w-column tab[:, 1] of the blocks mixes it.

An exponential RK step needs these actions only as sums sum_i phi_{k_i}(tA) y_i
at one t, so ``apply_stacked`` takes a tuple of orders and the (r, n) grid rows
of the inputs and returns the sum in one apply: one stacked product with Q, one
einsum that multiplies by the cached (r, 2, n) stack of the rows' table columns
and sums over the rows in mode space, in row order as a broadcast multiply and
a reduce would, and one (2, n) product back (Niesen & Wright, ACM TOMS 38,
2012, evaluate such sums in one pass). One order and one (2n,) state or (n,)
w-half is the same apply on that input's one or two rows.

Below n of about 100 numpy's per-call overhead outweighs those products. So a
key whose premixed in-matrix P[i*n + a, c*n + j] = Q[a, j] * stack[i, c, j],
Q with its columns scaled by each mixing column, has at most PREMIX_MAX
entries (2*r*n^2) caches P instead of its stack, and at most PREMIX_SLOTS of
them are kept. Its apply is the flat rows times P, which mixes and sums in one
product, then the same (2, n) product back. Only the rounding of each entry of
P and the order of the sum change, so it agrees with the stack's apply to
about 1e-14.

Every product here and in ``transform`` is ``ndarray.dot``, not ``@``: the
same BLAS call with the same bits, without the 0.3-0.6 us the matmul ufunc
adds to each call, which at n = 50 is most of a product (table in README).
"""

from __future__ import annotations

import numpy as np

from .discretize import GridOperator, ProblemSpec, StateVector
from .eigen import SpectralFactorization, factorize
from .errors import DimensionMismatchError, InvalidDimensionError
from .modefuncs import ModeParams, classify_mode, phi_block

# Measured per step: a key whose premixed in-matrix has at most this many
# entries, 2*r*n^2 for r input rows (240 KB; every key a step makes up to
# n = 50, where r <= 4 gives at most 20 000), steps no slower through it than
# through a product with Q and the mix in mode space (one thread; table in README).
PREMIX_MAX = 30000
# Premixed in-matrices held at once, the oldest dropped first: one solve of any
# scheme uses at most 4 apply keys, all in its first step, so none is rebuilt.
PREMIX_SLOTS = 4


def permutation_positions(n: int) -> np.ndarray:
    """1-based positions of the nonzero column in each row of P."""
    pos = np.empty(2 * n, dtype=np.int64)
    pos[:n] = 2 * np.arange(1, n + 1) - 1
    pos[n:] = 2 * np.arange(1, n + 1)
    return pos


class BlockPropagator:
    """Engine applying matrix functions of tA to state vectors.

    Block tables, mixing stacks and premixed in-matrices are built once, on
    first use of their key, in one cache; at most PREMIX_SLOTS premixed ones
    are held. The ``tables_built`` and ``applies`` counters are plain attributes.
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
        key = (k, float(t))
        tab = self._tables.get(key)
        if tab is None:
            tab = phi_block(*key, self.modes)  # PhiOrderError for k outside 0..K_MAX
            self._tables[key] = tab
            self.tables_built += 1
        return tab

    def apply_stacked(self, k, t: float, y) -> np.ndarray:
        """sum_i phi_{k_i}(t*A) @ y_i on the stacked (u, w) layout, in one apply.

        ``k`` is a tuple of L orders and ``y`` one (r, n) array of grid
        rows, laid out by r alone: L w-halves (r = L), or one full state
        then L - 1 w-halves (r = L + 1). A scalar k with one (2n,) state or
        (n,) w-half, the source (0, y), is the one-term case, on y's rows.
        All rows go to mode space in one product with Q, are mixed and
        summed there by the cached (r, 2, n) stack of their table columns,
        and one (2, n) product takes the sum back; up to PREMIX_MAX entries,
        one product with the premixed in-matrix mixes and sums them. A y
        that is not an array, such as a tuple of inputs, is a
        DimensionMismatchError.
        """
        n = self.n
        if not isinstance(y, np.ndarray):
            raise DimensionMismatchError(f"phi orders {k} need an array, got a {type(y).__name__}")
        if not isinstance(k, tuple):
            if y.shape != (2 * n,) and y.shape != (n,):
                raise DimensionMismatchError(
                    f"expected stacked length {2 * n} or source length {n}, got {y.shape}"
                )
            k, y = (k,), y.reshape(-1, n)
        key = (k, float(t), y.shape)
        mixer = self._tables.get(key)
        if mixer is None:  # a full input mixes by tab[:, 0], tab[:, 1]; a w-half by tab[:, 1]
            if y.ndim != 2 or y.shape[1] != n or not k or len(y) - len(k) not in (0, 1):
                raise DimensionMismatchError(
                    f"phi orders {k} need {len(k)} or {len(k) + 1} rows "
                    f"of length {n}, got an array of shape {y.shape}"
                )
            cols = []
            for i, ki in enumerate(k):  # with r = L + 1, the first input is a full state
                tab = self.table(ki, t)
                cols += (tab[:, 0], tab[:, 1]) if i < len(y) - len(k) else (tab[:, 1],)
            mixer = np.stack(cols)
            if 2 * len(y) * n * n <= PREMIX_MAX:
                # (r, 1, 2, n) * (n, 1, n) is [i, a, c, j]; P stays C-ordered: the
                # Fortran-ordered P'.T ran up to 1.3x faster, with 3x the rounding error
                mixer = (mixer[:, np.newaxis] * self.fact.q[:, np.newaxis]).reshape(-1, 2 * n)
                held = [old for old, entry in self._tables.items() if entry.ndim == 2]
                if len(held) >= PREMIX_SLOTS:  # the cache's order is the order of building
                    del self._tables[held[0]]
            self._tables[key] = mixer
        transform = self.fact.transform
        self.applies += 1
        if mixer.ndim == 2:  # premixed: P mixes and sums the rows in the product in
            return transform(y.reshape(-1).dot(mixer).reshape(2, n)).reshape(2 * n)
        # a lone row stays a vector: through the fold, a one-row matrix
        # product takes 2x the time of the same vector product at n = 600
        spec = transform(y[0])[np.newaxis] if len(y) == 1 else transform(y)
        return transform(np.einsum("icj,ij->cj", mixer, spec)).reshape(2 * n)


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
        a_scale = 4.0 * (spec.alpha * lam_max + spec.delta)
        b_scale = (spec.beta * lam_max + spec.gamma) ** 2
        lam_scale = lam_max * lam_max
    if not (np.isfinite(a_scale) and np.isfinite(b_scale)):
        # lam_max squared overflows only at an extreme ell, whatever the coefficients
        if not np.isfinite(lam_scale):
            culprit = f"ell = {op.ell:g} is too small"
        elif not np.isfinite(a_scale):
            culprit = f"alpha = {spec.alpha:g} and delta = {spec.delta:g} are too large"
        else:
            culprit = f"beta = {spec.beta:g} and gamma = {spec.gamma:g} are too large"
        raise InvalidDimensionError(
            f"{culprit} at n = {op.n}: the mode block of the largest eigenvalue "
            f"({lam_max:.3g}) overflows double precision"
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

