"""Dense and matrix-free oracles, experiment presets, and error metrics."""

import math

import numpy as np
import pytest

from wavebeam import oracles
from wavebeam.discretize import KINDS, ProblemSpec, build_operator, sample_profile
from wavebeam.errors import (
    DimensionMismatchError,
    InsufficientPointsError,
    OracleScaleError,
    UnknownPresetError,
)
from wavebeam.modefuncs import classify_mode
from wavebeam.oracles import (
    assemble_dense_A,
    block_oracle_suite,
    dense_phi,
    discrete_l2_error,
    mode_matrix,
    observed_order,
    phi_action,
    stencil,
)
from wavebeam.presets import PRESETS, load_preset
from wavebeam.propagator import build_propagator


class TestAssemble:
    def test_single_mode(self):
        op = build_operator("wave", 1, math.sqrt(2.0))
        a = assemble_dense_A(op, ProblemSpec(alpha=1.0))
        assert np.allclose(a, [[0.0, 1.0], [-4.0, 0.0]], rtol=1e-15)
        assert a[0, 1] == 1.0 and a[1, 1] == 0.0

    def test_two_modes_all_parameters(self):
        op = build_operator("wave", 2, 1.0)
        spec = ProblemSpec(alpha=2.0, beta=0.5, gamma=0.25, delta=3.0)
        a = assemble_dense_A(op, spec)
        s = stencil(op).toarray()
        assert np.array_equal(a[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(a[:2, 2:], np.eye(2))
        assert np.array_equal(a[2:, :2], -2.0 * s - 3.0 * np.eye(2))
        assert np.array_equal(a[2:, 2:], -0.5 * s - 0.25 * np.eye(2))

    def test_eigenvalues_match_mode_blocks(self):
        op = build_operator("wave", 2, 1.0)
        spec = ProblemSpec(alpha=1.0, beta=0.3, gamma=0.1, delta=0.2)
        a = assemble_dense_A(op, spec)
        eigs = np.sort_complex(np.linalg.eigvals(a))
        want = []
        for lam in np.linalg.eigvalsh(stencil(op).toarray()):
            p = classify_mode(float(lam), spec.alpha, spec.beta, spec.gamma, spec.delta)
            want.extend(np.linalg.eigvals(mode_matrix(p)))
        want = np.sort_complex(np.array(want))
        assert np.allclose(eigs, want, rtol=1e-9, atol=1e-9)

    def test_scale_cap(self):
        op = build_operator("wave", 65, 1.0)
        with pytest.raises(OracleScaleError):
            assemble_dense_A(op, ProblemSpec(alpha=1.0))


class TestDenseExpm:
    """The dense exponential, dense_phi(0, .)."""

    def test_zero_matrix(self):
        assert np.array_equal(dense_phi(0, np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = dense_phi(0, np.diag([1.0, -2.0]))
        assert np.allclose(got, np.diag([math.e, math.exp(-2.0)]), rtol=1e-14)

    def test_nilpotent(self):
        t = 0.7
        got = dense_phi(0, np.array([[0.0, t], [0.0, 0.0]]))
        assert np.allclose(got, [[1.0, t], [0.0, 1.0]], rtol=1e-15)

    def test_semigroup(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 6))
        lhs = dense_phi(0, m) @ dense_phi(0, m)
        rhs = dense_phi(0, 2.0 * m)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * np.max(np.abs(rhs))

    def test_dimension_cap(self):
        with pytest.raises(OracleScaleError):
            dense_phi(0, np.zeros((129, 129)))


class TestBlockOracleSuite:
    def test_one_cell_per_kind_regime_and_n(self):
        worst, cases_seen = block_oracle_suite((4,))
        regimes = ("oscillatory", "overdamped", "critical")
        assert set(worst) == {(kind, regime, 4) for kind in KINDS for regime in regimes}
        assert all(err <= 1e-10 for err in worst.values())
        assert cases_seen == {"complex_pair", "real_distinct", "double_root"}

    def test_cap_refused_before_any_factorization(self, monkeypatch):
        def refuse(_op):
            raise AssertionError("factorize called past the cap")

        monkeypatch.setattr(oracles, "factorize", refuse)
        with pytest.raises(OracleScaleError, match="oracle check capped at n = 64, got 65"):
            block_oracle_suite((4, 65))

    def test_nan_from_the_block_path_fails_its_cell(self, monkeypatch):
        # max() skips a NaN that follows a number; the suite must not
        import wavebeam.propagator as propagator
        from wavebeam.modefuncs import phi_block

        def nan_at_k3(k, t, modes):
            tab = phi_block(k, t, modes)
            return np.full_like(tab, np.nan) if k == 3 else tab

        monkeypatch.setattr(propagator, "phi_block", nan_at_k3)
        worst, _ = block_oracle_suite((4,))
        assert all(math.isnan(err) for err in worst.values())


class TestDensePhi:
    def test_phi1_at_zero_matrix(self):
        assert np.allclose(dense_phi(1, np.zeros((4, 4))), np.eye(4), rtol=1e-15)

    def test_phi2_at_zero_matrix(self):
        assert np.allclose(dense_phi(2, np.zeros((4, 4))), 0.5 * np.eye(4), rtol=1e-15)

    def test_scalar_phi1(self):
        got = dense_phi(1, np.array([[1.0]]))
        assert got[0, 0] == pytest.approx(math.e - 1.0, rel=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_recurrence(self, k):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)  # keep it invertible
        lhs = dense_phi(k + 1, m)
        rhs = np.linalg.solve(m, dense_phi(k, m) - np.eye(5) / math.factorial(k))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    def test_k_cap(self):
        with pytest.raises(OracleScaleError):
            dense_phi(5, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "preset_id, n, t", [("wave1", 1000, 0.01), ("beam1", 600, 2.5e-5)], ids=["wave1000", "beam600"]
)
def test_phi_action_matches_block_path_above_dense_cap(preset_id, n, t):
    # expm_multiply on the sparse A shares no code with the mode blocks or Q,
    # and reaches sizes past the dense oracles' cap
    preset = load_preset(preset_id)
    op = build_operator(preset.kind, n, preset.spec.ell)
    prop = build_propagator(op, preset.spec)
    v = np.random.default_rng(n).standard_normal(2 * n)
    for k in range(5):
        want = phi_action(op, preset.spec, k, t, v)
        got = prop.apply_stacked(k, t, v)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-12, f"k={k}: {err:.2e}"


def test_phi_action_matches_combination_apply_at_n4095():
    # one folded combination apply against three independent sparse phi
    # actions at wave1's tau = 6/8192, the sources taken as (0, f) and (0, d)
    preset = load_preset("wave1")
    n, t = 4095, 6.0 / 8192
    op = build_operator(preset.kind, n, preset.spec.ell)
    prop = build_propagator(op, preset.spec)
    assert prop.fact.dense is None
    rng = np.random.default_rng(n)
    v, f, d = rng.standard_normal(2 * n), rng.standard_normal(n), rng.standard_normal(n)
    got = prop.apply_stacked((0, 1, 2), t, np.vstack((v.reshape(2, n), f, d)))
    sources = [np.concatenate((np.zeros(n), s)) for s in (f, d)]
    want = sum(phi_action(op, preset.spec, k, t, y) for k, y in zip((0, 1, 2), (v, *sources)))
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= 1e-12, f"{err:.2e}"


class TestPresets:
    def test_wave1_parameters(self):
        p = load_preset("wave1")
        assert p.spec.alpha == math.pi**2
        assert p.spec.beta == 1e-2 and p.spec.gamma == 1e-2 and p.spec.delta == 0.0
        assert p.spec.g == "sin" and p.spec.T == 6.0
        assert p.n == 200 and p.kind == "wave"
        assert p.m_list[0] == 5 and p.m_list[-1] == 5 * 2**11
        assert p.m_ref == 200000 and p.ref_scheme == "EI-SW4"

    def test_beam1_parameters(self):
        p = load_preset("beam1")
        assert p.kind == "beam" and p.n == 300
        assert p.spec.g == "neg_five_cube"
        assert p.spec.alpha == 15.0 and p.spec.beta == 3e-6
        assert p.spec.delta == 10.0 and p.spec.gamma == 3e-4
        assert p.spec.T == 5.0

    def test_wave4_step_profile(self):
        p = load_preset("wave4")
        vals = sample_profile(p.spec.p.name, p.spec.p.params, 3, 1.0)
        assert np.array_equal(vals, [-1.0, -1.0, 5.0])

    def test_wave5_two_nonlinearities(self):
        p = load_preset("wave5")
        assert p.spec.g == "neg_signed_fourth" and p.spec.h == "neg_signed_square"

    def test_merged_wave_parameters(self):
        p = load_preset("merged-wave")
        assert (p.spec.alpha, p.spec.beta, p.spec.delta, p.spec.gamma) == (1.0, 1e-2, 1.0, 1e-1)
        assert p.schemes == (("EI-SW21", 1.0 / 3.0),)

    def test_all_presets_well_formed(self):
        for pid in PRESETS:
            p = load_preset(pid)
            assert p.m_ref > max(p.m_list)
            assert all(b == 2 * a for a, b in zip(p.m_list, p.m_list[1:]))

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            load_preset("wave9")


class TestErrorMetrics:
    def test_zero_for_identical(self):
        y = np.arange(6.0)
        assert discrete_l2_error(y, y.copy(), 0.25) == 0.0

    def test_unit_difference(self):
        a = np.zeros(3)
        b = np.ones(3)
        assert discrete_l2_error(a, b, 0.25) == pytest.approx(math.sqrt(0.75), rel=1e-15)

    def test_homogeneity(self):
        # doubling the difference doubles the error
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        e1 = discrete_l2_error(a, b, 0.1)
        e2 = discrete_l2_error(b + 2.0 * (a - b), b, 0.1)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            discrete_l2_error(np.zeros(3), np.zeros(4), 0.1)

    def test_diverged_finite_state_has_a_finite_error_and_no_warning(self):
        # 1e200 squared overflows; the norm itself, 1e200 * sqrt(0.25 * 8), does not
        big = np.full(8, 1e200)
        big[::2] *= -1.0
        err = discrete_l2_error(big, np.zeros(8), 0.25)
        assert err == pytest.approx(1e200 * math.sqrt(2.0), rel=1e-15)
        # nor does a difference whose subtraction overflows
        err = discrete_l2_error(np.full(2, 1e308), np.full(2, -1e308), 0.125)
        assert err == pytest.approx(1e308, rel=1e-15)

    def test_infinite_only_past_double_range_or_for_non_finite_input(self):
        assert discrete_l2_error(np.full(8, 1e308), np.zeros(8), 1.0) == math.inf
        for bad in (math.inf, math.nan):
            y = np.zeros(4)
            y[1] = bad
            assert discrete_l2_error(y, np.zeros(4), 0.5) == math.inf

    def test_observed_order_exact_powers(self):
        ms = [10, 20, 40, 80]
        assert observed_order([(m, 1.0 / m) for m in ms]) == pytest.approx(1.0, abs=1e-12)
        assert observed_order([(m, 3.0 / m**2) for m in ms]) == pytest.approx(2.0, abs=1e-12)
        assert observed_order([(m, 0.7 / m**4) for m in ms]) == pytest.approx(4.0, abs=1e-12)

    def test_observed_order_needs_points(self):
        with pytest.raises(InsufficientPointsError):
            observed_order([(10, 1.0), (20, 0.5)])
        with pytest.raises(InsufficientPointsError):
            observed_order([(10, 1.0), (10, 0.5), (20, 0.2)])
