"""Closed-form 2x2 mode functions against hand values and the dense oracle."""

import math

import numpy as np
import pytest

from wavebeam.errors import PhiOrderError
from wavebeam.modefuncs import (
    COMPLEX_PAIR,
    DOUBLE_ROOT,
    REAL_DISTINCT,
    ModeParams,
    classify_mode,
    mode_matrix,
    phi_block,
    scalar_phi,
)
from wavebeam.oracles import dense_phi

# one representative (lam, alpha, beta, gamma, delta) per discriminant case,
# plus a heavily damped and a heavily oscillatory variant
CASE_PARAMS = [
    (1.0, 3.0, 4.0, 0.0, 0.0),  # real distinct
    (1.0, 1.0, 2.0, 0.0, 0.0),  # double root
    (4.0, 1.0, 0.0, 0.0, 0.0),  # complex pair
    (100.0, 1.0, 1.0, 0.0, 0.0),  # stiff real
    (2.5, 2.0, 0.1, 0.3, 0.5),  # lightly damped complex
]


def modes():
    return [classify_mode(*p) for p in CASE_PARAMS]


def stacked(mode_list):
    """One ModeParams holding every mode of mode_list, in order."""
    return ModeParams(*(np.concatenate([np.atleast_1d(getattr(p, f)) for p in mode_list])
                        for f in ("lam", "m", "n", "case")))


class TestClassify:
    def test_real_distinct(self):
        p = classify_mode(1.0, 3.0, 4.0, 0.0, 0.0)
        assert p.case == REAL_DISTINCT
        assert p.m == -2.0 and p.n == 1.0

    def test_double_root(self):
        p = classify_mode(1.0, 1.0, 2.0, 0.0, 0.0)
        assert p.case == DOUBLE_ROOT
        assert p.m == -1.0 and p.n == 0.0

    def test_light_damping_is_complex(self):
        # first wave mode with alpha = pi^2, beta = gamma = 0.01
        lam = math.pi**2
        p = classify_mode(lam, math.pi**2, 0.01, 0.01, 0.0)
        assert p.case == COMPLEX_PAIR

    def test_near_double_root_snaps(self):
        # gamma^2 = 4*alpha*lam up to rounding lands in the double-root band
        lam = 2.371
        gamma = 2.0 * math.sqrt(lam)
        p = classify_mode(lam, 1.0, 0.0, gamma, 0.0)
        assert p.case == DOUBLE_ROOT
        assert p.n == 0.0

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            classify_mode(1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            classify_mode(1.0, 1.0, -1.0, 0.0, 0.0)


class TestScalarPhi:
    def test_values_at_zero(self):
        assert scalar_phi(0, 0.0) == 1.0
        assert scalar_phi(1, 0.0) == 1.0
        assert scalar_phi(2, 0.0) == 0.5
        assert scalar_phi(3, 0.0) == pytest.approx(1 / 6, rel=1e-15)

    def test_phi1_at_one(self):
        assert scalar_phi(1, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_phi2_at_minus_one(self):
        # two recurrence applications give phi_2(-1) = e^{-1}
        assert scalar_phi(2, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_series_recurrence_continuity(self):
        # values just inside and outside the series radius |z| = 1 agree smoothly
        for k in (1, 2, 3, 4):
            lo, hi = scalar_phi(k, 0.9999999), scalar_phi(k, 1.0000001)
            assert abs(hi - lo) < 1e-6
            lo, hi = scalar_phi(k, -1.0000001), scalar_phi(k, -0.9999999)
            assert abs(hi - lo) < 1e-6

    def test_order_cap(self):
        with pytest.raises(PhiOrderError):
            scalar_phi(9, 0.1)


class TestExpBlock:
    def test_identity_at_zero(self):
        for p in modes():
            assert np.array_equal(phi_block(0, 0.0, p), np.eye(2))

    def test_rotation_quarter_period(self):
        # m = 0, n = 2: exp((pi/4) G) rotates by pi/2
        p = classify_mode(4.0, 1.0, 0.0, 0.0, 0.0)
        got = phi_block(0, math.pi / 4, p)
        assert np.allclose(got, [[0.0, 0.5], [-2.0, 0.0]], atol=1e-15)

    def test_double_root_hand_value(self):
        p = classify_mode(1.0, 1.0, 2.0, 0.0, 0.0)
        got = phi_block(0, 1.0, p)
        assert np.allclose(got, math.exp(-1.0) * np.array([[2.0, 1.0], [-1.0, 0.0]]), rtol=1e-15)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            phi_block(0, -0.1, modes()[0])


class TestPhiBlock:
    def test_phi1_identity_at_zero(self):
        for p in modes():
            assert np.array_equal(phi_block(1, 0.0, p), np.eye(2))

    def test_rotation_half_period(self):
        # m = 0, n = 1, t = pi: exp(pi G) = -I so phi_1 = -2 (pi G)^{-1}
        p = classify_mode(1.0, 1.0, 0.0, 0.0, 0.0)
        got = phi_block(1, math.pi, p)
        v = 2.0 / math.pi
        assert np.allclose(got, [[0.0, v], [-v, 0.0]], atol=1e-15)

    def test_tiny_t_is_half_identity(self):
        for p in modes():
            got = phi_block(2, 1e-300, p)
            assert np.allclose(got, 0.5 * np.eye(2), rtol=1e-15, atol=1e-250)

    def test_order_range(self):
        with pytest.raises(PhiOrderError):
            phi_block(5, 0.1, modes()[0])
        with pytest.raises(PhiOrderError):
            phi_block(-1, 0.1, modes()[0])


class TestBlockProperties:
    def test_semigroup(self):
        rng = np.random.default_rng(42)
        for p in modes():
            for _ in range(20):
                t1, t2 = rng.uniform(0.0, 1.5, size=2)
                lhs = phi_block(0, t1 + t2, p)
                rhs = phi_block(0, t1, p) @ phi_block(0, t2, p)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(lhs)), 1.0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_phi_recurrence_on_blocks(self, k):
        # tG phi_{k+1}(tG) = phi_k(tG) - I/k!
        for p in modes():
            for t in (0.05, 0.7, 2.0):
                tg = t * mode_matrix(p)
                lhs = tg @ phi_block(k + 1, t, p)
                rhs = phi_block(k, t, p) - np.eye(2) / math.factorial(k)
                scale = max(np.max(np.abs(rhs)), 1.0)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_case_boundary_continuity(self):
        # disc sweeps through 0: values on either side of the double-root
        # band stay within 1e-8 of the limit formula
        alpha, t = 2.0, 1.0
        lam0 = 2.0  # disc(lam) = 4 lam^2 - 8 lam vanishes here (beta = 2)
        for h in (1e-11, 1e-10):
            below = classify_mode(lam0 - h, alpha, 2.0, 0.0, 0.0)
            above = classify_mode(lam0 + h, alpha, 2.0, 0.0, 0.0)
            middle = classify_mode(lam0, alpha, 2.0, 0.0, 0.0)
            assert below.case == COMPLEX_PAIR
            assert above.case == REAL_DISTINCT
            assert middle.case == DOUBLE_ROOT
            mid_e = phi_block(0, t, middle)
            for p in (below, above):
                diff = np.max(np.abs(phi_block(0, t, p) - mid_e))
                assert diff <= 1e-8 * np.max(np.abs(mid_e))
                for k in (1, 2, 3):
                    mid_p = phi_block(k, t, middle)
                    diff = np.max(np.abs(phi_block(k, t, p) - mid_p))
                    assert diff <= 1e-8 * np.max(np.abs(mid_p))

    def test_det_is_exp_of_trace(self):
        # Liouville: det(exp(tG)) = e^{t*trace(G)} = e^{2tm}, on one array
        # holding modes of all three cases, in all three regimes over the t
        p = stacked(modes() + [classify_mode(np.array([0.3, 2.0, 2.2, 40.0]), 2.0, 2.0, 0.0, 0.0)])
        assert set(p.case) == {REAL_DISTINCT, DOUBLE_ROOT, COMPLEX_PAIR}
        for t in (0.01, 0.3, 1.0, 2.5):
            e = phi_block(0, t, p)
            det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
            scale = np.abs(e[0, 0] * e[1, 1]) + np.abs(e[0, 1] * e[1, 0])
            assert np.all(np.abs(det - np.exp(2.0 * t * p.m)) <= 1e-14 * scale), t


class TestOracleEquivalence:
    @pytest.mark.parametrize("params", CASE_PARAMS)
    def test_exp_and_phi_match_dense_series(self, params):
        p = classify_mode(*params)
        g = mode_matrix(p)
        rho = max(abs(p.m + p.n), abs(p.m - p.n)) if p.case == REAL_DISTINCT else math.hypot(p.m, p.n)
        for t in (1e-4, 0.01, 0.1, 1.0, 3.0):
            if t * rho > 20:
                continue
            for k in range(5):
                want = dense_phi(k, t * g)
                got = phi_block(k, t, p)
                err = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)
                assert err <= 1e-11, f"case={p.case} t={t} k={k}: {err:.2e}"


@pytest.mark.parametrize("t", [1e-15, 5e-15])
@pytest.mark.parametrize("k", [1, 2])
def test_tiny_t_on_stiff_complex_mode(k, t):
    # the top mode of the beam at n = 600 under beam1's coefficients has
    # |z| ~ 5.6e6, so |t*z| ~ 1e-8 is small but phi_k(t*G) is not I/k!
    dx = 1.0 / 601
    lam = (4.0 / dx**2 * math.sin(600 * math.pi / 1202) ** 2) ** 2
    p = classify_mode(lam, 15.0, 3e-6, 3e-4, 10.0)
    assert p.case == COMPLEX_PAIR and math.hypot(p.m, p.n) > 5e6
    want = dense_phi(k, t * mode_matrix(p))
    got = phi_block(k, t, p)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
