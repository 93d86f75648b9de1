"""Finite-difference spatial operators, grids, initial data, nonlinearities and forcing.

The 1D domain (0, ell) is discretized at the interior nodes x_i = i*dx,
i = 1..n, with dx = ell/(n+1). Homogeneous Dirichlet values at the
endpoints are eliminated, so all vectors have length n.

Each operator kind is one ``OperatorKind`` record in ``KINDS``; no other
module branches on the kind. Two symmetric operators are provided:

* wave: second-difference approximation of -d^2/dx^2, tridiagonal with
  diagonal 2/dx^2 and off-diagonal -1/dx^2;
* beam: fourth-difference approximation of d^4/dx^4 under hinged-hinged
  boundary conditions, pentadiagonal with corner diagonal entries 5/dx^4,
  interior diagonal 6/dx^4, and off-diagonals -4/dx^4, 1/dx^4 (the 5/dx^4
  corners eliminate the zero-moment ghost values).

The engine reaches S only through its spectrum (``eigen.factorize``);
``oracles.stencil`` builds S itself, for the comparators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    ProfileParamsError,
    UnknownNonlinearityError,
    UnknownProfileError,
)


@dataclass(frozen=True)
class OperatorKind:
    """One operator kind: its least n, eigenvalue rule and stencil band, as plain numbers.

    Its eigenvectors are the DST-I's and its eigenvalues the wave's,
    4/dx^2 sin^2(j*pi/(2(n+1))), to the ``power``. Its band is dx^-dx_power
    times ``diagonal`` (``corner`` at both ends) and ``off[k-1]`` on the k-th
    off-diagonals, written out so that the stencil checks the eigenvalue rule.
    """

    least_n: int
    power: int
    diagonal: float
    corner: float
    off: tuple
    dx_power: int


# the beam is the wave squared, entry for entry (Strang, SIAM Review 41, 1999)
KINDS = {
    "wave": OperatorKind(least_n=1, power=1, diagonal=2.0, corner=2.0, off=(-1.0,), dx_power=2),
    "beam": OperatorKind(least_n=3, power=2, diagonal=6.0, corner=5.0, off=(-4.0, 1.0), dx_power=4),
}


@dataclass(frozen=True)
class GridOperator:
    """Symmetric banded spatial operator, fully determined by (kind, n, ell); holds no matrix."""

    kind: str
    n: int
    ell: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidDimensionError(
                f"unknown operator kind {self.kind!r}; known kinds: {', '.join(KINDS)}"
            )
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise InvalidDimensionError(f"operator size must be an integer, got {self.n!r}")
        least = KINDS[self.kind].least_n
        if self.n < least:
            raise InvalidDimensionError(f"{self.kind} operator needs n >= {least}, got {self.n}")
        if not self.ell > 0:
            raise InvalidDimensionError(f"domain length must be positive, got {self.ell}")

    @property
    def dx(self) -> float:
        return self.ell / (self.n + 1)


@dataclass(frozen=True)
class Profile:
    """Named initial-data profile with its shape parameters."""

    name: str
    params: tuple = ()


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients, nonlinearities, initial data, and horizon of one problem.

    The governing system is u_tt + (alpha*S + delta*I) u + (beta*S + gamma*I) u_t
    = g(u) + h(u_t), with S the spatial operator. alpha must be positive;
    beta, gamma, delta are non-negative; every coefficient, ell and T is finite.
    """

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    g: str = "zero"
    h: str = "zero"
    p: Profile = field(default_factory=lambda: Profile("zero"))
    q: Profile = field(default_factory=lambda: Profile("zero"))
    ell: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "ell", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        for name in ("beta", "gamma", "delta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.ell > 0:
            raise ValueError(f"ell must be positive, got {self.ell}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        for name in (self.g, self.h):
            if name not in NONLINEARITIES:
                raise UnknownNonlinearityError(f"unknown nonlinearity {name!r}")
        for prof in (self.p, self.q):
            _profile_function(prof.name, prof.params)


@dataclass
class StateVector:
    """Stacked (u, w) values at the interior nodes, w = du/dt."""

    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.u.shape != self.w.shape or self.u.ndim != 1:
            raise DimensionMismatchError(
                f"u and w must be 1-D arrays of equal length, got {self.u.shape} and {self.w.shape}"
            )

    @property
    def n(self) -> int:
        return self.u.size

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.u, self.w])

    @classmethod
    def from_stacked(cls, y: np.ndarray) -> "StateVector":
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size % 2:
            raise DimensionMismatchError(f"stacked state must have even length, got {y.shape}")
        n = y.size // 2
        return cls(y[:n].copy(), y[n:].copy())


def build_operator(kind: str, n: int, ell: float) -> GridOperator:
    return GridOperator(kind, n, ell)


def grid_points(n: int, ell: float) -> np.ndarray:
    """Interior nodes x_i = i*dx, i = 1..n."""
    return np.arange(1, n + 1) * (ell / (n + 1))


def _profile_sine(x, ell, amp=1.0, freq=math.pi):
    return amp * np.sin(freq * x)


def _profile_cosine(x, ell, amp=1.0, freq=math.pi):
    return amp * np.cos(freq * x)


def _profile_hat(x, ell, amp=1.0):
    # peak value amp at ell/2, linear to zero at both ends
    return amp * 2.0 * np.minimum(x, ell - x) / ell


def _profile_step(x, ell, left=0.0, right=1.0):
    # the midpoint itself takes the left value (x <= ell/2 branch)
    return np.where(x <= 0.5 * ell, left, right)


def _profile_gaussian(x, ell, amp=1.0, rate=1.0, center=0.5):
    return amp * np.exp(-rate * (x - center) ** 2)


def _profile_zero(x, ell):
    return np.zeros_like(x)


PROFILES = {
    "sine": _profile_sine,
    "cosine": _profile_cosine,
    "hat": _profile_hat,
    "step": _profile_step,
    "gaussian": _profile_gaussian,
    "zero": _profile_zero,
}


def _profile_function(name: str, params):
    """The registered profile `name`, checked to take `params` after (x, ell)."""
    try:
        fn = PROFILES[name]
    except KeyError:
        raise UnknownProfileError(f"unknown profile {name!r}") from None
    most = fn.__code__.co_argcount - 2  # after (x, ell)
    least = most - len(fn.__defaults__ or ())
    if not least <= len(params) <= most:
        raise ProfileParamsError(
            f"profile {name!r} takes {least} to {most} params, got {len(params)}"
        )
    for i, value in enumerate(params, start=1):
        if not math.isfinite(value):
            raise ProfileParamsError(f"profile {name!r} param {i} must be finite, got {value}")
    return fn


def sample_profile(name: str, params, n: int, ell: float) -> np.ndarray:
    """Evaluate a registered profile at the interior nodes."""
    fn = _profile_function(name, params)
    x = grid_points(n, ell)
    return np.asarray(fn(x, ell, *params), dtype=float)


NONLINEARITIES = {
    "zero": lambda v: np.zeros_like(v),
    "sin": np.sin,
    "abs": np.abs,
    "square": lambda v: v * v,
    "cube": lambda v: v**3,
    "signed_square": lambda v: v * np.abs(v),
    "neg_signed_square": lambda v: -v * np.abs(v),
    "neg_signed_fourth": lambda v: -v * np.abs(v) ** 3,
    "neg_five_cube": lambda v: -5.0 * v**3,
}


def nonlinearity(name: str):
    try:
        return NONLINEARITIES[name]
    except KeyError:
        raise UnknownNonlinearityError(f"unknown nonlinearity {name!r}") from None


def forcing_from_spec(spec: ProblemSpec, n: int):
    """The source term F(y) = (0, f(y)) on the stacked (u, w) layout, as its w-half.

    The equation is second order in time, so F's u-half is always zero; the
    returned function maps the stacked y to a fresh (n,) array
    f(y) = g(u) + h(w), and skips h when it is "zero".
    """
    g = nonlinearity(spec.g)
    if spec.h == "zero":
        return lambda y: g(y[:n])
    h = nonlinearity(spec.h)
    return lambda y: g(y[:n]) + h(y[n:])


def initial_state(spec: ProblemSpec, n: int) -> StateVector:
    """Sample the initial profiles (p, q) onto the interior grid."""
    u0 = sample_profile(spec.p.name, spec.p.params, n, spec.ell)
    w0 = sample_profile(spec.q.name, spec.q.params, n, spec.ell)
    return StateVector(u0, w0)
