"""Orthogonal factorization S = Q diag(lam) Q' of the grid operators.

The operators that ``discretize.build_operator`` builds are diagonalized
exactly by the orthonormal DST-I matrix Q_ij = sqrt(2/(n+1)) sin(ij*pi/(n+1)).
The wave operator has lam_j = 4/dx^2 sin^2(j*pi/(2(n+1))); the hinged-hinged
beam operator equals the square of the wave operator entry for entry, so it
has the same Q and the squared eigenvalues (Strang, "The discrete cosine
transform", SIAM Review 41, 1999). Any other symmetric operator is
factorized by ``numpy.linalg.eigh``. Either way eigenvalues ascend and each
eigenvector's first nonzero component is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import BEAM, GridOperator, build_operator
from .errors import EigenConvergenceError, InvalidDimensionError


@dataclass(frozen=True)
class SpectralFactorization:
    """Orthogonal eigenvector matrix and ascending eigenvalues."""

    q: np.ndarray
    lam: np.ndarray

    @property
    def n(self) -> int:
        return self.lam.size


def _is_builder_stencil(op: GridOperator) -> bool:
    try:
        return np.array_equal(op.entries, build_operator(op.kind, op.n, op.ell).entries)
    except InvalidDimensionError:
        return False


def _dst1(kind: str, n: int, ell: float) -> SpectralFactorization:
    j = np.arange(1, n + 1)
    # reducing i*j modulo the period keeps every sine argument in [0, 2*pi)
    q = np.outer(j, j) % (2 * (n + 1)) * (np.pi / (n + 1))
    np.sin(q, out=q)
    q *= np.sqrt(2.0 / (n + 1))
    dx = ell / (n + 1)
    lam = 4.0 / (dx * dx) * np.sin(j * (np.pi / (2 * (n + 1)))) ** 2
    if kind == BEAM:
        lam = lam * lam
    # q is exactly symmetric, so its transpose is the same matrix as a free
    # Fortran-ordered view
    return SpectralFactorization(q=q.T, lam=lam)


def _eigh(op: GridOperator) -> SpectralFactorization:
    try:
        lam, q = np.linalg.eigh(op.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigh failed on the {op.kind} operator of size {op.n}: {exc}"
        ) from exc
    first = q[np.argmax(q != 0.0, axis=0), np.arange(op.n)]
    q[:, first < 0.0] *= -1.0
    return SpectralFactorization(q=q, lam=lam)


def factorize(op: GridOperator) -> SpectralFactorization:
    """S = Q diag(lam) Q': closed form for the builder's stencils, eigh otherwise."""
    return _dst1(op.kind, op.n, op.ell) if _is_builder_stencil(op) else _eigh(op)
