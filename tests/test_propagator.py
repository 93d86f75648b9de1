"""Permutation structure and matrix-function actions of the block propagator."""

import math

import numpy as np
import pytest

from wavebeam.discretize import (
    ProblemSpec,
    Profile,
    StateVector,
    build_beam_operator,
    build_wave_operator,
)
from wavebeam.eigen import factorize
from wavebeam.errors import DimensionMismatchError, PhiOrderError
from wavebeam.modefuncs import COMPLEX_PAIR, REAL_DISTINCT, classify_mode, phi_block
from wavebeam.oracles import assemble_dense_A, dense_phi, load_preset
from wavebeam.propagator import (
    apply_phi,
    apply_undamped_reference,
    build_propagator,
    permutation_positions,
)


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
        op = build_wave_operator(6, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=2.0, beta=0.1, gamma=0.2, delta=0.3))
        v = random_state(6, seed=1)
        for k in (0, 1):
            out = apply_phi(prop, k, 0.0, v)
            assert np.allclose(out.stacked(), v.stacked(), rtol=1e-14, atol=1e-15)

    def test_matches_dense_oracle(self):
        op = build_wave_operator(8, 1.0)
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
        op = build_wave_operator(200, preset.spec.ell)
        prop = build_propagator(op, preset.spec)
        assert prop.modes.case.shape == (200,)
        assert np.all(prop.modes.case == COMPLEX_PAIR)

    def test_k_out_of_range(self):
        op = build_wave_operator(4, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.0))
        with pytest.raises(PhiOrderError):
            apply_phi(prop, 5, 0.1, random_state(4))

    def test_dimension_mismatch(self):
        op = build_wave_operator(4, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.0))
        with pytest.raises(DimensionMismatchError):
            apply_phi(prop, 0, 0.1, random_state(5))

    @pytest.mark.parametrize("kind,n", [("wave", 12), ("wave", 50), ("beam", 12), ("beam", 50)])
    def test_semigroup(self, kind, n):
        build = build_wave_operator if kind == "wave" else build_beam_operator
        op = build(n, 1.0)
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
        op = build_wave_operator(10, 1.0)
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
        op = build_wave_operator(12, 1.0)
        spec = ProblemSpec(alpha=2.0, beta=0.1, gamma=0.3, delta=0.5)
        prop = build_propagator(op, spec)
        a_mat = assemble_dense_A(op, spec)
        y = random_state(12, seed=6).stacked()
        lhs = a_mat @ prop.apply_stacked(k, 0.3, y)
        rhs = prop.apply_stacked(k, 0.3, a_mat @ y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(np.max(np.abs(lhs)), 1.0)

    @pytest.mark.parametrize("kind", ["wave", "beam"])
    def test_damped_modes_decay(self, kind):
        build = build_wave_operator if kind == "wave" else build_beam_operator
        op = build(24, 1.0)
        spec = ProblemSpec(alpha=1.0 if kind == "wave" else 1e-4, beta=1e-3, gamma=1e-2)
        prop = build_propagator(op, spec)
        t = 0.7
        p = prop.modes
        # spectral radius of exp(tG) from the root parameters
        radius = np.exp(t * (p.m + np.where(p.case == REAL_DISTINCT, p.n, 0.0)))
        assert np.all(radius < 1.0)


class TestUndampedReference:
    def test_identity_at_zero(self):
        op = build_wave_operator(7, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.5, delta=0.2))
        v = random_state(7, seed=7)
        out = apply_undamped_reference(prop, 0.0, v)
        assert np.allclose(out.stacked(), v.stacked(), rtol=1e-15)

    def test_single_mode_rotation(self):
        # n = 1 with S = [4]: quarter period sends (1, 0) to (0, -2)
        op = build_wave_operator(1, math.sqrt(2.0))
        assert op.entries[0, 0] == pytest.approx(4.0, rel=1e-15)
        prop = build_propagator(op, ProblemSpec(alpha=1.0))
        out = apply_undamped_reference(prop, math.pi / 4, StateVector([1.0], [0.0]))
        assert abs(out.u[0]) < 1e-15
        assert out.w[0] == pytest.approx(-2.0, rel=1e-12)

    def test_agrees_with_block_path(self):
        op = build_beam_operator(9, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1e-4, delta=0.3))
        v = random_state(9, seed=8)
        a = apply_phi(prop, 0, 0.37, v).stacked()
        b = apply_undamped_reference(prop, 0.37, v).stacked()
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_rejects_damped_propagator(self):
        op = build_wave_operator(5, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.0, beta=0.1))
        with pytest.raises(ValueError):
            apply_undamped_reference(prop, 0.1, random_state(5))


class TestStepFunctionCache:
    def test_exact_key_reuse(self):
        op = build_wave_operator(6, 1.0)
        prop = build_propagator(op, ProblemSpec(alpha=1.0, beta=0.02))
        t1 = prop.table(1, 0.25, 0.5)
        assert prop.tables_built == 1
        t2 = prop.table(1, 0.25, 0.5)
        assert t2 is t1
        assert prop.tables_built == 1
        # the same effective time c*tau shares the table
        assert prop.table(1, 0.125, 1.0) is t1
        assert prop.tables_built == 1
        prop.table(2, 0.125, 1.0)
        assert prop.tables_built == 2

    def test_block_layout_is_2_by_2_by_n(self):
        op = build_wave_operator(5, 1.0)
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
    op = (build_wave_operator if kind == "wave" else build_beam_operator)(n, 1.0)
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
