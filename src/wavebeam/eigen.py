"""Orthogonal factorization S = Q diag(lam) Q' of the grid operators, in closed form.

Every operator kind of ``discretize.KINDS`` is diagonalized exactly by the
orthonormal DST-I matrix Q_ij = sqrt(2/(n+1)) sin(ij*pi/(n+1)). The wave
operator has lam_j = 4/dx^2 sin^2(j*pi/(2(n+1))), and each kind's
eigenvalues are these to its record's ``power``: the hinged-hinged beam
operator equals the square of the wave operator entry for entry, so it has
the same Q and the squared eigenvalues (Strang, "The discrete cosine
transform", SIAM Review 41, 1999). Eigenvalues ascend and each column of Q
has a positive first component. Q is also exactly symmetric, so Q' = Q.

From n = N_FOLD on, the factorization keeps only two half-size blocks of Q
and ``transform`` applies them through the first even/odd stage of the same
DST: Q_{i,n+1-j} = (-1)^(i+1) Q_ij, so the right half of x @ Q follows from
the left half's two partial sums. That halves the flops and the bytes each
transform reads; Q itself is built only when ``q`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discretize import KINDS, GridOperator
from .errors import InvalidDimensionError

# Measured crossover: from this n on, the fold steps an EI-K4 solve at least
# 1.05x faster than the dense Q (OpenBLAS, one thread; table in README), where
# the dense 4-row product falls off a GEMM cliff; below it the two extra
# products and the fold's O(n) passes cost about what they save.
N_FOLD = 304


@dataclass(frozen=True)
class SpectralFactorization:
    """Ascending eigenvalues and the matrices ``transform`` multiplies by.

    Below N_FOLD ``dense`` is Q. From N_FOLD on it is None and ``fold`` holds
    A = Q[odd i, :h] and B = Q[even i, :h], with h = ceil(n/2) (1-based i).
    """

    lam: np.ndarray
    dense: np.ndarray | None
    fold: tuple

    @property
    def n(self) -> int:
        return self.lam.size

    @cached_property
    def q(self) -> np.ndarray:
        """The symmetric orthogonal eigenvector matrix, built on first read when folded."""
        return _dst_matrix(self.n) if self.dense is None else self.dense

    def transform(self, x: np.ndarray) -> np.ndarray:
        """x @ Q on row vectors: grid values to mode coefficients and back.

        The products go through ``ndarray.dot``, not the ``@`` ufunc: the same
        BLAS call and the same bits, for 0.3-0.6 us less per call (table in
        README), and the same floating-point warnings under ``np.errstate``.
        """
        if self.dense is not None:
            return x.dot(self.dense)
        odd, even = self.fold
        a = x[..., 0::2].dot(odd)
        b = x[..., 1::2].dot(even)
        y = np.empty(x.shape, dtype=a.dtype)
        h = a.shape[-1]
        # y[n+1-j] = a - b first, so that y[j] = a + b wins the middle column of odd n
        np.subtract(a, b, out=y[..., ::-1][..., :h])
        np.add(a, b, out=y[..., :h])
        return y


def _allocate(n: int, what: str, *shapes) -> list:
    try:
        return [np.empty(shape) for shape in shapes]
    except (MemoryError, ValueError):  # numpy raises ValueError above 2^63 bytes
        nbytes = 8 * sum(rows * cols for rows, cols in shapes)
        raise InvalidDimensionError(
            f"n = {n} needs {what} of {nbytes:.3g} bytes, more than can be allocated"
        ) from None


def _gather(n: int, rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """out[r, c] = Q_ij at (1-based) i = rows[r], j = cols[c], from one sine table.

    Q_ij depends on i*j only modulo the period 2(n+1), so Q takes 2(n+1)
    distinct values: one table, gathered a block of rows at a time through
    int64 index blocks of about 64 KB. Each entry is the same float
    operations as sin((ij mod 2(n+1)) * pi/(n+1)) * sqrt(2/(n+1)), so every
    block of Q holds its entries bit for bit.
    """
    period = 2 * (n + 1)
    table = np.sin(np.arange(period) * (np.pi / (n + 1)))
    table *= np.sqrt(2.0 / (n + 1))
    step = max(1, 8192 // cols.size)
    for start in range(0, rows.size, step):
        idx = np.outer(rows[start : start + step], cols)
        idx %= period
        np.take(table, idx, out=out[start : start + step])


def _dst_matrix(n: int) -> np.ndarray:
    (q,) = _allocate(n, f"a dense {n} x {n} eigenvector matrix", (n, n))
    j = np.arange(1, n + 1)
    _gather(n, j, j, q)
    # q is exactly symmetric, so its transpose is the same matrix; as that
    # free Fortran-ordered view, the (2, n) products of ``transform`` with q run
    # 1.2x faster at n = 600 than on the C-ordered array (OpenBLAS, 1 thread)
    return q.T


def factorize(op: GridOperator) -> SpectralFactorization:
    """S = Q diag(lam) Q' from the operator's kind record, n and ell alone."""
    n = op.n
    dense, fold = None, ()
    if n < N_FOLD:
        dense = _dst_matrix(n)
    else:
        h = (n + 1) // 2
        odd, even = _allocate(n, "two half-size sine blocks", (h, h), (h, n // 2))
    j = np.arange(1, n + 1)  # made after the guarded n^2 allocation: a huge n ends there
    if dense is None:
        # gathered transposed, so that A and B are Fortran-ordered views as Q is
        _gather(n, j[:h], j[0::2], odd)
        _gather(n, j[:h], j[1::2], even)
        fold = (odd.T, even.T)
    # a tiny ell gives inf here, not ZeroDivisionError; build_propagator names it
    with np.errstate(divide="ignore", over="ignore"):
        lam = 4.0 / np.float64(op.dx * op.dx) * np.sin(j * (np.pi / (2 * (n + 1)))) ** 2
        lam **= KINDS[op.kind].power  # in place, no new array: ** 2 is lam * lam, ** 1 a no-op
    return SpectralFactorization(lam=lam, dense=dense, fold=fold)
