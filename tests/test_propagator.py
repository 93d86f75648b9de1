"""Permutation structure and matrix-function actions of the block propagator."""

import math

import numpy as np
import pytest

from wavebeam import integrators, propagator
from wavebeam.discretize import (
    ProblemSpec,
    Profile,
    StateVector,
    build_operator,
)
from wavebeam.eigen import N_FOLD, factorize
from wavebeam.errors import DimensionMismatchError, PhiOrderError
from wavebeam.integrators import build_tableau, solve
from wavebeam.modefuncs import COMPLEX_PAIR, REAL_DISTINCT, classify_mode, phi_block
from wavebeam.oracles import apply_undamped_reference, assemble_dense_A, dense_phi, stencil
from wavebeam.presets import load_preset
from wavebeam.propagator import apply_phi, build_propagator, permutation_positions


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    return StateVector(rng.standard_normal(n), rng.standard_normal(n))


class TestPermutation:
    def test_positions_n3(self):
        assert np.array_equal(permutation_positions(3), [1, 3, 5, 2, 4, 6])

    def test_positions_n2(self):
        assert np.array_equal(permutation_positions(2), [1, 3, 2, 4])

    def test_transpose_positions_n3(self):
        assert np.array_equal(np.argsort(permutation_positions(3)) + 1, [1, 4, 2, 5, 3, 6])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_round_trip_exact(self, n):
        # the positions are a permutation of 1..2n; P' undoes P exactly
        pos = permutation_positions(n)
        assert np.array_equal(np.sort(pos), np.arange(1, 2 * n + 1))
        v = np.random.default_rng(n).standard_normal(2 * n)
        assert np.array_equal(v[pos - 1][np.argsort(pos)], v)

    def test_interleaving_action(self):
        # P' maps stacked halves (a, b) to pairs (a1, b1, a2, b2, ...), the
        # column order of the block tables
        pos = permutation_positions(3)
        v = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        assert np.array_equal(v[np.argsort(pos)], [1.0, 10.0, 2.0, 20.0, 3.0, 30.0])


class TestApplyPhi:
    def test_identity_at_t_zero(self):
        op = build_operator("wave", 6, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=2.0, beta=0.1, gamma=0.2, delta=0.3))
        v = random_state(6, seed=1)
        for k in (0, 1):
            out = apply_phi(prop, k, 0.0, v)
            assert np.allclose(out.stacked(), v.stacked(), rtol=1e-14, atol=1e-15)

    def test_matches_dense_oracle(self):
        op = build_operator("wave", 8, 1.0)
        spec = ProblemSpec(alpha=1.0, beta=0.05, gamma=0.1, delta=0.2)
        prop = build_propagator(op, spec)
        a_mat = assemble_dense_A(op, spec)
        v = random_state(8, seed=2)
        for k in (0, 1, 2, 3):
            want = dense_phi(k, 0.1 * a_mat) @ v.stacked()
            got = apply_phi(prop, k, 0.1, v).stacked()
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-11, f"k={k}: {err:.2e}"

    def test_wave1_modes_all_complex_at_n200(self):
        preset = load_preset("wave1")
        op = build_operator("wave", 200, preset.spec.ell)
        prop = build_propagator(op, preset.spec)
        assert prop.modes.case.shape == (200,)
        assert np.all(prop.modes.case == COMPLEX_PAIR)

    def test_k_out_of_range(self):
        op = build_operator("wave", 4, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.0))
        with pytest.raises(PhiOrderError):
            apply_phi(prop, 5, 0.1, random_state(4))

    def test_dimension_mismatch(self):
        op = build_operator("wave", 4, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.0))
        with pytest.raises(DimensionMismatchError):
            apply_phi(prop, 0, 0.1, random_state(5))

    @pytest.mark.parametrize("kind,n", [("wave", 12), ("wave", 50), ("beam", 12), ("beam", 50)])
    def test_semigroup(self, kind, n):
        op = build_operator(kind, n, 1.0)
        scale = 1.0 if kind == "wave" else 1e-4
        spec = ProblemSpec(alpha=scale, beta=0.02 * scale, gamma=0.05, delta=0.1)
        prop = build_propagator(op, spec)
        v = random_state(n, seed=3)
        s, t = 0.23, 0.49
        direct = apply_phi(prop, 0, s + t, v).stacked()
        nested = apply_phi(prop, 0, s, apply_phi(prop, 0, t, v)).stacked()
        err = np.max(np.abs(direct - nested)) / np.max(np.abs(direct))
        assert err <= 1e-11

    def test_linearity(self):
        op = build_operator("wave", 10, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=3.0, beta=0.01, gamma=0.1))
        v, w = random_state(10, seed=4), random_state(10, seed=5)
        a, b = 0.7, -1.3
        for k in (0, 1, 2):
            lhs = apply_phi(
                prop, k, 0.4, StateVector(a * v.u + b * w.u, a * v.w + b * w.w)
            ).stacked()
            rhs = a * apply_phi(prop, k, 0.4, v).stacked() + b * apply_phi(prop, k, 0.4, w).stacked()
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(lhs)), 1.0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_commutes_with_A(self, k):
        op = build_operator("wave", 12, 1.0)
        spec = ProblemSpec(alpha=2.0, beta=0.1, gamma=0.3, delta=0.5)
        prop = build_propagator(op, spec)
        a_mat = assemble_dense_A(op, spec)
        y = random_state(12, seed=6).stacked()
        lhs = a_mat @ prop.apply_stacked(k, 0.3, y)
        rhs = prop.apply_stacked(k, 0.3, a_mat @ y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(np.max(np.abs(lhs)), 1.0)

    @pytest.mark.parametrize("kind", ["wave", "beam"])
    def test_damped_modes_decay(self, kind):
        op = build_operator(kind, 24, 1.0)
        spec = ProblemSpec(alpha=1.0 if kind == "wave" else 1e-4, beta=1e-3, gamma=1e-2)
        prop = build_propagator(op, spec)
        t = 0.7
        p = prop.modes
        # spectral radius of exp(tG) from the root parameters
        radius = np.exp(t * (p.m + np.where(p.case == REAL_DISTINCT, p.n, 0.0)))
        assert np.all(radius < 1.0)


class TestUndampedReference:
    def test_identity_at_zero(self):
        op = build_operator("wave", 7, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.5, delta=0.2))
        v = random_state(7, seed=7)
        out = apply_undamped_reference(prop, 0.0, v)
        assert np.allclose(out.stacked(), v.stacked(), rtol=1e-15)

    def test_single_mode_rotation(self):
        # n = 1 with S = [4]: quarter period sends (1, 0) to (0, -2)
        op = build_operator("wave", 1, math.sqrt(2.0))
        assert stencil(op).toarray()[0, 0] == pytest.approx(4.0, rel=1e-15)
        prop = build_propagator(op, ProblemSpec(alpha=1.0))
        out = apply_undamped_reference(prop, math.pi / 4, StateVector([1.0], [0.0]))
        assert abs(out.u[0]) < 1e-15
        assert out.w[0] == pytest.approx(-2.0, rel=1e-12)

    def test_agrees_with_block_path(self):
        op = build_operator("beam", 9, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1e-4, delta=0.3))
        v = random_state(9, seed=8)
        a = apply_phi(prop, 0, 0.37, v).stacked()
        b = apply_undamped_reference(prop, 0.37, v).stacked()
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_rejects_damped_propagator(self):
        op = build_operator("wave", 5, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.0, beta=0.1))
        with pytest.raises(ValueError):
            apply_undamped_reference(prop, 0.1, random_state(5))


class TestStepFunctionCache:
    def test_exact_key_reuse(self):
        op = build_operator("wave", 6, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.0, beta=0.02))
        t1 = prop.table(1, 0.5 * 0.25)
        assert prop.tables_built == 1
        t2 = prop.table(1, 0.5 * 0.25)
        assert t2 is t1
        assert prop.tables_built == 1
        # the same effective time c*tau shares the table
        assert prop.table(1, 1.0 * 0.125) is t1
        assert prop.tables_built == 1
        prop.table(2, 1.0 * 0.125)
        assert prop.tables_built == 2

    def test_block_layout_is_2_by_2_by_n(self):
        op = build_operator("wave", 5, 1.0)
        spec = ProblemSpec(alpha=1.0, beta=0.02, gamma=0.3)
        prop = build_propagator(op, spec)
        tab = prop.table(0, 0.2)
        assert tab.shape == (2, 2, 5)
        blk = phi_block(0, 0.2, classify_mode(prop.modes.lam[3], *prop.params))
        assert np.array_equal(tab[:, :, 3], blk)


@pytest.mark.parametrize(
    "kind, n, spec",
    [
        ("beam", 600, load_preset("beam1").spec),
        ("wave", 200, ProblemSpec(alpha=1.0, beta=0.05, gamma=40.0, delta=1.0)),
    ],
    ids=["beam600-beam1", "wave200-heavy-damping"],
)
def test_whole_spectrum_table_matches_per_mode_blocks(kind, n, spec):
    # one array evaluation over every mode against one phi_block call per mode
    op = build_operator(kind, n, 1.0)
    prop = build_propagator(op, spec)
    singles = [classify_mode(lam, *prop.params) for lam in prop.modes.lam]
    for t in (1e-4, 0.01, 0.3):
        for k in range(5):
            tab = prop.table(k, t)
            for i, p in enumerate(singles):
                blk = phi_block(k, t, p)
                # most beam modes underflow to all-zero blocks from t = 0.01 on
                err = np.max(np.abs(tab[:, :, i] - blk)) / max(np.max(np.abs(blk)), 1e-300)
                assert err <= 1e-15, f"k={k} t={t} mode {i}: {err:.2e}"


@pytest.mark.parametrize("n", [50, 200, N_FOLD + 1, 321, 385, 601])
def test_source_half_matches_stacked_source(n):
    # an (n,) f is the source (0, f): one row in, the w-column of each block
    op = build_operator("wave", n, 1.0)
    prop = build_propagator(op, ProblemSpec(alpha=1.0, beta=1e-3, gamma=0.5, delta=0.2))
    assert (prop.fact.dense is None) == (n >= N_FOLD)
    f = np.random.default_rng(n).standard_normal(n)
    stacked = np.concatenate([np.zeros(n), f])
    for k in range(5):
        got = prop.apply_stacked(k, 0.03, f)
        want = prop.apply_stacked(k, 0.03, stacked)
        assert got.shape == (2 * n,)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-14, f"k={k}: {err:.2e}"
    for bad in (n - 1, n + 1, 2 * n - 1, 2 * n + 1, 3 * n):
        with pytest.raises(DimensionMismatchError):
            prop.apply_stacked(0, 0.03, np.zeros(bad))
    with pytest.raises(DimensionMismatchError):
        prop.apply_stacked(0, 0.03, np.zeros((2, n)))


@pytest.mark.parametrize("n", [50, 200, N_FOLD + 1, 321, 385, 601])
def test_combination_equals_sum_of_one_term_applies(n):
    # one apply of sum_i phi_{k_i}(tA) y_i: every input row through one
    # product with Q, mixed and summed in mode space, one product back
    op = build_operator("wave", n, 1.0)
    prop = build_propagator(op, ProblemSpec(alpha=1.0, beta=1e-3, gamma=0.5, delta=0.2))
    rng = np.random.default_rng(n)
    full = [rng.standard_normal(2 * n) for _ in range(2)]
    halves = [rng.standard_normal(n) for _ in range(4)]
    for ks, ys in [((0, 1), [full[0], halves[0]]), ((0, 1, 2, 3, 4), [full[0], *halves]),
                   ((2, 3), halves[:2]), ((4, 0, 4), [full[1], *halves[2:]]), ((3,), full[1:])]:
        # grid rows: a full state then w-halves (r = L + 1), or w-halves alone (r = L)
        rows = np.concatenate(ys).reshape(-1, n)
        applies = prop.applies
        got = prop.apply_stacked(ks, 0.03, rows)
        assert prop.applies == applies + 1
        want = sum(prop.apply_stacked(k, 0.03, y) for k, y in zip(ks, ys))
        assert got.shape == (2 * n,)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-14, f"k={ks}: {err:.2e}"


def test_combination_rejects_mismatched_inputs():
    n = 12
    prop = build_propagator(build_operator("wave", n, 1.0), ProblemSpec(alpha=1.0))
    y, f = np.zeros(2 * n), np.zeros(n)
    for k, ys in [((0, 1), (y,)), ((0,), (y, f)), ((), ()), ((0, 1), y), ((0, 1), [y, f]),
                  ((0, 1), (y, np.zeros(n + 1))), ((0, 1), (np.zeros((2, n)), f))]:
        with pytest.raises(DimensionMismatchError):
            prop.apply_stacked(k, 0.03, ys)


STAGE_SCHEMES = [("EI-E1", None), ("EI-SW21", 0.75), ("EI-SW21", 1.0), ("EI-SW22", 0.75),
                 ("EI-SW22", 1.0), ("EI-K4", None), ("EI-SW4", None)]


@pytest.mark.parametrize("n", [50, 401], ids=["dense50", "fold401"])
def test_rows_form_equals_sum_of_one_term_applies(n, monkeypatch):
    # a step hands apply_stacked its inputs as (r, n) grid rows, laid out by
    # r alone; every layout a step makes sums the one-term applies of its inputs
    spec = ProblemSpec(alpha=1.0, beta=1e-3, gamma=0.5, delta=0.2, g="sin",
                       p=Profile("sine", (1.0, math.pi)), q=Profile("cosine", (0.5, math.pi)),
                       T=0.05)
    prop = build_propagator(build_operator("wave", n, 1.0), spec)
    assert (prop.fact.dense is None) == (n >= N_FOLD)
    calls, apply = [], prop.apply_stacked
    monkeypatch.setattr(
        prop, "apply_stacked", lambda k, t, y: calls.append((k, t, y.copy())) or apply(k, t, y)
    )
    for name, c2 in STAGE_SCHEMES:
        solve(prop, build_tableau(name, c2), spec, 1)
    layouts = set()
    for k, t, rows in calls:
        full = len(rows) - len(k)  # 1 when the first input is a full state
        ys = tuple(rows[2 * i : 2 * i + 2].ravel() if i < full else rows[full + i]
                   for i in range(len(k)))
        got = apply(k, t, rows)
        # the reference takes each w-half as the full state (0, y_i)
        full_ys = [np.concatenate((np.zeros(n), yi)) if yi.size == n else yi for yi in ys]
        want = sum(apply(ki, t, yi) for ki, yi in zip(k, full_ys))
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-14, f"k={k}, {rows.shape}: {err:.2e}"
        layouts.add(full)
    assert layouts == {0, 1}


def test_rows_form_rejects_bad_shapes():
    n = 12
    prop = build_propagator(build_operator("wave", n, 1.0), ProblemSpec(alpha=1.0))
    for k, shape in [((0, 1), (1, n)), ((0, 1), (5, n)), ((0,), (3, n)), ((0, 1, 2), (5, n)),
                     ((0, 1), (3, n + 1)), ((0, 1), (3, n - 1)), ((0, 1), (2, 2, n)),
                     ((0, 1), (2 * n,)), ((), (0, n)), ((0, 1), (4, n)), ((1, 2, 3), (6, n))]:
        with pytest.raises(DimensionMismatchError):
            prop.apply_stacked(k, 0.03, np.zeros(shape))
    prop.apply_stacked((0, 1), 0.03, np.zeros((3, n)))  # cached now, and still checked by shape
    with pytest.raises(DimensionMismatchError):
        prop.apply_stacked((0, 1), 0.03, np.zeros((3, n + 1)))


@pytest.mark.parametrize("n", [8, 50, 64])
def test_premixed_apply_matches_the_mixing_stack(n, monkeypatch):
    # one key through its (r, 2, n) stack and through its premixed
    # in-matrix, switched by the bound, gives the same sum to 1e-14
    spec = ProblemSpec(alpha=1.0, beta=1e-3, gamma=0.5, delta=0.2)
    stacks = build_propagator(build_operator("wave", n, 1.0), spec)
    premixed = build_propagator(build_operator("wave", n, 1.0), spec)
    rng = np.random.default_rng(n)
    for ks in [(0, 1), (0, 1, 2), (2, 3), (1,)]:
        for r in (len(ks), len(ks) + 1):  # w-halves, a full state first
            rows, key = rng.standard_normal((r, n)), (ks, 0.03, (r, n))
            monkeypatch.setattr(propagator, "PREMIX_MAX", 0)
            want = stacks.apply_stacked(ks, 0.03, rows)
            monkeypatch.setattr(propagator, "PREMIX_MAX", 10**12)
            got = premixed.apply_stacked(ks, 0.03, rows)
            assert stacks._tables[key].shape == (r, 2, n)
            assert premixed._tables[key].shape == (r * n, 2 * n)
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-14, f"k={ks}, r={r}: {err:.2e}"


def test_premixed_cache_keeps_premix_slots_entries(monkeypatch):
    # a converge study of five schemes at seven M on one propagator premixes
    # new keys at every step size; the oldest are dropped and the tables kept.
    # A solve uses at most PREMIX_SLOTS keys, all in its first step, so no
    # later step gathers one again
    spec = load_preset("wave1").spec
    prop = build_propagator(build_operator("wave", 32, spec.ell), spec)
    lookups, table, step = [], prop.table, integrators._step_stacked

    def counted(*args):
        lookups.append(None)  # a step starts
        return step(*args)

    monkeypatch.setattr(prop, "table", lambda k, t: lookups.append(k) or table(k, t))
    monkeypatch.setattr(integrators, "_step_stacked", counted)
    solve(prop, build_tableau("EI-SW4"), spec, 2048)
    for name, c2 in [("EI-E1", None), ("EI-SW21", 0.5), ("EI-SW22", 0.5), ("EI-K4", None),
                     ("EI-SW4", None)]:
        for m_steps in (16, 32, 64, 128, 256, 512, 1024):
            lookups.clear()
            solve(prop, build_tableau(name, c2), spec, m_steps)
            assert lookups[lookups.index(None, 1) :] == [None] * (m_steps - 1)  # steps 2..M
            premixed = [key for key, entry in prop._tables.items() if entry.ndim == 2]
            assert len(premixed) <= propagator.PREMIX_SLOTS
    assert len(premixed) == propagator.PREMIX_SLOTS
    assert sum(len(key) == 2 for key in prop._tables) == prop.tables_built


@pytest.mark.parametrize("n", [8, 50, 200, 601])
def test_apply_is_its_matmul_and_broadcast_form_bit_for_bit(n):
    # a premixed key's in-product gives the bits of the flat rows @ P, and a
    # stack's mix those of np.add.reduce(stack * spec[:, None], axis=0), which
    # adds the rows' terms in the per-term loop's order; both sums go back
    # through transform. Up to n = 50 every key here is premixed, above none
    prop = build_propagator(build_operator("wave", n, 1.0),
                            ProblemSpec(alpha=1.0, beta=1e-3, gamma=0.5, delta=0.2))
    transform = prop.fact.transform
    rng = np.random.default_rng(n)
    for ks, r in [((1,), 1), ((0, 1), 2), ((0, 1), 3), ((0, 1, 2), 4)]:
        rows = rng.standard_normal((r, n))
        got = prop.apply_stacked(ks, 0.03, rows)
        mixer = prop._tables[ks, 0.03, (r, n)]
        assert mixer.ndim == (2 if n <= 50 else 3)
        if mixer.ndim == 2:
            mixed = (rows.reshape(-1) @ mixer).reshape(2, n)
        else:
            mixed = np.add.reduce(mixer * transform(rows)[:, np.newaxis], axis=0)
        assert got.tobytes() == transform(mixed).reshape(2 * n).tobytes(), f"k={ks}, r={r}"
