"""Exponential Runge-Kutta schemes over the block propagator.

A scheme step reads

    Y_i    = exp(c_i tau A) y_n + tau * sum_j a_ij(tau A) F(Y_j),
    y_next = exp(tau A) y_n + tau * sum_i b_i(tau A) F(Y_i),

where every coefficient a_ij and b_i is a scalar-weighted combination of
phi_k functions: entries of row i are evaluated at c_i*tau*A, weights at
tau*A. Coefficients are stored symbolically as (k, weight) pairs, so the
consistency identities sum_j a_ij = c_i*phi_1(c_i tau A) and
sum_i b_i = phi_1(tau A) can be checked exactly.

``solve`` steps in the difference form those row sums give (Hochbruck &
Ostermann, SIAM J. Numer. Anal. 43, 2005), with D_j = F(Y_j) - F(y_n):

    Y_i = exp(c_i tau A) y_n + c_i tau phi_1(c_i tau A) F(y_n) + tau * sum_{j>=2} a_ij D_j,

and y_next alike at c = 1 with the b_i. Every row at node c_i shares the
first two terms, the node's base, so each stage and the update make one
combination apply (Hochbruck & Ostermann, Acta Numerica 19, 2010, write the
schemes in this form). A row starts its node with the base and its D-terms
together, ``apply_stacked((0, 1, *orders), c_i tau, rows)`` on the rows of
y_n, c_i tau F(y_n) and one weighted sum tau * sum_j w_j D_j per order. A
row right after one at the same node continues it instead: it adds the apply
of the difference of their D-weights.

The equations are second order in time, so F = (0, f), and F comes as its
w-half f, an (n,) array, as ``forcing_from_spec`` returns it: each of its
terms is one input row (``BlockPropagator.apply_stacked``), and any other
shape ends the solve in a DimensionMismatchError that names the forcing. The
c*tau, the tau-scaled weights and the input rows each row fills in place are
one plan per solve, made from n; all steps run under one np.errstate.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .discretize import ProblemSpec, StateVector, forcing_from_spec, initial_state
from .errors import ConfigError, DimensionMismatchError, InstabilityError, UnknownSchemeError
from .propagator import BlockPropagator

SCHEME_NAMES = ("EI-E1", "EI-SW21", "EI-SW22", "EI-K4", "EI-SW4")


@dataclass(frozen=True)
class SchemeTableau:
    """Stage nodes and symbolic phi-combination coefficients of one scheme."""

    name: str
    c: tuple
    a: tuple  # a[i] = row of coefficients for stages j < i
    b: tuple  # one coefficient per stage; each is sum weight*phi_k as ((k, weight), ...)

    @property
    def s(self) -> int:
        """Number of stages."""
        return len(self.c)


@dataclass(frozen=True)
class SolveStats:
    steps: int
    phi_evals: int  # distinct (t, k) mode-block tables built
    phi_applies: int  # apply_stacked calls
    wall_time: float


@dataclass
class SolveResult:
    y_final: StateVector
    snapshots: list | None
    stats: SolveStats


def combine_combos(combos) -> dict:
    """Collapse an iterable of (k, weight) combos into {k: total weight}."""
    total: dict[int, float] = {}
    for combo in combos:
        for k, w in combo:
            total[k] = total.get(k, 0.0) + w
    return {k: w for k, w in total.items() if w != 0.0}


def _check_tableau(tab: SchemeTableau) -> None:
    if tab.c[0] != 0.0:
        raise ValueError(f"{tab.name}: first node must be 0")
    for i in range(tab.s):
        row_sum = combine_combos(tab.a[i])
        expected = {1: tab.c[i]} if tab.c[i] != 0.0 else {}
        if row_sum != expected:
            raise ValueError(f"{tab.name}: row {i + 1} sums to {row_sum}, expected {expected}")
    if combine_combos(tab.b) != {1: 1.0}:
        raise ValueError(f"{tab.name}: weights do not collapse to phi_1")


def build_tableau(name: str, c2: float | None = None) -> SchemeTableau:
    """Coefficient table for one of the five schemes.

    EI-SW21 and EI-SW22 take their free node c2 in (0, 1], with 1/c2
    finite; the other schemes have fixed nodes and refuse a c2.
    """
    key = name.upper()
    if not key.startswith("EI-"):
        key = "EI-" + key
    if key not in SCHEME_NAMES:
        raise UnknownSchemeError(f"unknown scheme {name!r}; choose from {', '.join(SCHEME_NAMES)}")
    if key in ("EI-SW21", "EI-SW22"):
        if c2 is None:
            raise ConfigError(f"{key} requires the free node c2")
        # a subnormal c2 passes the range check, but its weights 1/c2 overflow
        if not (0.0 < c2 <= 1.0 and math.isfinite(1.0 / float(c2))):
            raise ConfigError(f"{key} needs c2 in (0, 1] with a finite 1/c2, got {c2}")
    elif c2 is not None:
        raise ConfigError(f"{key} has fixed nodes and takes no c2, got c2 = {c2}")

    if key == "EI-E1":
        tab = SchemeTableau(key, (0.0,), ((),), (((1, 1.0),),))
    elif key == "EI-SW21":
        tab = SchemeTableau(
            key,
            (0.0, c2),
            ((), (((1, c2),),)),
            (((1, 1.0), (2, -1.0 / c2)), ((2, 1.0 / c2),)),
        )
    elif key == "EI-SW22":
        tab = SchemeTableau(
            key,
            (0.0, c2),
            ((), (((1, c2),),)),
            (((1, 1.0 - 0.5 / c2),), ((1, 0.5 / c2),)),
        )
    elif key == "EI-K4":
        tab = SchemeTableau(
            key,
            (0.0, 0.5, 0.5, 1.0),
            (
                (),
                (((1, 0.5),),),
                (((1, 0.5), (2, -1.0)), ((2, 1.0),)),
                (((1, 1.0), (2, -2.0)), (), ((2, 2.0),)),
            ),
            (
                ((1, 1.0), (2, -3.0), (3, 4.0)),
                ((2, 2.0), (3, -4.0)),
                ((2, 2.0), (3, -4.0)),
                ((2, -1.0), (3, 4.0)),
            ),
        )
    else:  # EI-SW4
        tab = SchemeTableau(
            key,
            (0.0, 0.5, 0.5, 1.0),
            (
                (),
                (((1, 0.5),),),
                (((1, 0.5), (2, -0.5)), ((2, 0.5),)),
                (((1, 1.0), (2, -2.0)), ((2, -2.0),), ((2, 4.0),)),
            ),
            (
                ((1, 1.0), (2, -3.0), (3, 4.0)),
                (),
                ((2, 4.0), (3, -8.0)),
                ((2, -1.0), (3, 4.0)),
            ),
        )
    _check_tableau(tab)
    return tab


def _plan_rows(tableau: SchemeTableau, tau: float, n: int) -> list:
    """(c*tau, first, orders, weights, *buffers, seen, target) per stage 2..s and update.

    Column 1 of every row is in its node's base. ``first`` marks a row that
    starts its node, whose orders start with the base's (0, 1); a row right
    after one at the same node c, with other D-weights, continues it and
    holds the difference between their D-weights. weights[o, j - 2] is tau times the weight of
    phi_{orders[o]} on D_j, over the D_j the row can see; orders whose
    weights all vanish are left out. The buffers are the row's (r, n) inputs
    and their flat parts: y_in and f_in, which take y and c*tau*F(y) in a
    first row only, and d_in, its D-sums. All rows share one D_j array:
    ``seen`` is its view of the D_j the row sums, and ``target`` the row where
    stage i + 2 puts its D_j, None at the update.
    """
    plan, node, prev = [], None, {}
    rows = [*zip(tableau.c[1:], tableau.a[1:]), (1.0, tableau.b)]
    diffs = np.empty((len(rows) - 1, n))
    for i, (c, combos) in enumerate(rows):
        weights = {}  # (k, j): weight of phi_k on D_j, over columns j >= 2
        for j, combo in enumerate(combos[1:], start=2):
            for k, w in combo:
                weights[k, j] = weights.get((k, j), 0.0) + w
        delta = {key: weights.get(key, 0.0) - prev.get(key, 0.0) for key in weights | prev}
        # a row with the D-weights of the one before it (none of the five
        # schemes has one) would add nothing, so it starts its node again
        first = c != node or not any(delta.values())
        if first:
            delta = weights
        delta = {key: w for key, w in delta.items() if w != 0.0}
        node, prev = c, weights
        orders = sorted({k for k, _ in delta})
        mat = np.zeros((len(orders), i))
        for (k, j), w in delta.items():
            mat[orders.index(k), j - 2] = tau * w
        head = 3 * n if first else 0
        flat = np.empty(head + len(orders) * n)
        parts = flat[: 2 * n], flat[2 * n : head], flat[head:].reshape(len(orders), n)
        orders = (0, 1, *orders) if first else tuple(orders)
        target = diffs[i] if i < len(diffs) else None
        inputs = flat.reshape(-1, n)
        plan.append((c * tau, first, orders, mat, inputs, *parts, diffs[:i], target))
    return plan


def _step_stacked(prop, plan, forcing, y, f0, zeros):
    """One step from y and f0 = F(y), one apply per row of the solve's one plan.

    A first row is its node's base and its D-terms in one combination apply;
    a continuing row adds the apply of its weight difference to the row
    before it (see ``_plan_rows``). Each row is checked by its dot with
    ``zeros``, a zero vector of y's size, which is NaN exactly when the row
    holds an inf or a NaN. Runs under the caller's np.errstate. No array
    ``forcing`` returns is written to, so it may return one constant array
    on every call; but F(y) is held through the step, so it may not refill one.
    """
    for i, (t, first, orders, weights, inputs, y_in, f_in, d_in, seen, target) in enumerate(plan):
        if weights.size:
            weights.dot(seen, out=d_in)
        if first:
            y_in[...] = y
            np.multiply(f0, t, out=f_in)
            yi = prop.apply_stacked(orders, t, inputs)
        else:
            yi = yi + prop.apply_stacked(orders, t, inputs)
        if math.isnan(yi.dot(zeros)):
            where = "the step update" if target is None else f"stage {i + 2}"
            raise InstabilityError(f"non-finite values in {where}")
        if target is not None:
            fi = forcing(yi)
            if fi.shape != f0.shape:
                _check_forcing(forcing, fi, f0.shape, i + 2)
            np.subtract(fi, f0, out=target)
    return yi


def _check_forcing(forcing, f, shape, stage):
    """Raise unless f, the value of ``forcing`` at ``stage`` of a step, has the w-half's shape."""
    if f.shape != shape:
        raise DimensionMismatchError(
            f"forcing {getattr(forcing, '__name__', forcing)!r} returned shape {f.shape} "
            f"at stage {stage}, not {shape}"
        )


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def solve(
    prop: BlockPropagator,
    tableau: SchemeTableau,
    spec: ProblemSpec,
    M: int,
    snapshot_every: int | None = None,
    forcing=None,
) -> SolveResult:
    """M constant steps of size T/M from the sampled initial data to T.

    With ``snapshot_every`` = K the state is also kept after every K-th
    step. M and K must be positive integers; anything else is a ConfigError.
    ``forcing`` maps the stacked (2n,) state y to the w-half f of the
    source F(y) = (0, f), an (n,) array, as ``forcing_from_spec`` returns
    it. An array it returns must keep its values through the step:
    ``forcing`` may not refill one buffer.
    """
    _check_count("step count M", M)
    if snapshot_every is not None:
        _check_count("snapshot_every", snapshot_every)
    tau = spec.T / M
    y = initial_state(spec, prop.n).stacked()
    if forcing is None:
        forcing = forcing_from_spec(spec, prop.n)
    zeros = np.zeros_like(y)

    built0, applies0 = prop.tables_built, prop.applies
    snapshots = [] if snapshot_every is not None else None
    start = time.perf_counter()
    # blow-ups surface as InstabilityError, so numpy's own overflow
    # warnings on the way there are suppressed
    with np.errstate(over="ignore", invalid="ignore"):
        plan, shape = _plan_rows(tableau, tau, prop.n), (prop.n,)
        for i in range(M):
            f = forcing(y)
            if f.shape != shape:
                _check_forcing(forcing, f, shape, 1)
            try:
                y = _step_stacked(prop, plan, forcing, y, f, zeros)
            except InstabilityError as exc:
                raise InstabilityError(
                    f"{tableau.name} unstable at step {i + 1} of {M} "
                    f"(t = {(i + 1) * tau:.6g}): {exc}",
                    step=i + 1,
                    time=(i + 1) * tau,
                ) from exc
            if snapshots is not None and (i + 1) % snapshot_every == 0 and i + 1 < M:
                snapshots.append(((i + 1) * tau, StateVector.from_stacked(y)))
    wall = time.perf_counter() - start
    if snapshots is not None:
        snapshots.append((spec.T, StateVector.from_stacked(y)))
    stats = SolveStats(
        steps=M,
        phi_evals=prop.tables_built - built0,
        phi_applies=prop.applies - applies0,
        wall_time=wall,
    )
    return SolveResult(StateVector.from_stacked(y), snapshots, stats)
