"""Grid operators, profiles, and nonlinearity sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from wavebeam.discretize import (
    KINDS,
    GridOperator,
    OperatorKind,
    ProblemSpec,
    Profile,
    StateVector,
    build_operator,
    forcing_from_spec,
    sample_profile,
)
from wavebeam.eigen import factorize
from wavebeam.errors import (
    InvalidDimensionError,
    ProfileParamsError,
    UnknownNonlinearityError,
    UnknownProfileError,
)
from wavebeam.oracles import stencil


class TestWaveOperator:
    def test_single_point(self):
        op = build_operator("wave", 1, 1.0)
        assert op.dx == 0.5
        assert stencil(op).toarray() == np.array([[8.0]])

    def test_three_point_pattern(self):
        op = build_operator("wave", 3, 1.0)
        expected = 16.0 * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
        assert np.array_equal(stencil(op).toarray(), expected)

    def test_eigenvalues_analytic(self):
        # tridiagonal Toeplitz: lam_k = 4/dx^2 sin^2(k pi / (2(n+1)))
        op = build_operator("wave", 3, 1.0)
        fact = factorize(op)
        expected = np.array([16 * (2 - math.sqrt(2)), 32.0, 16 * (2 + math.sqrt(2))])
        assert np.max(np.abs(fact.lam - expected) / expected) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 17, 64])
    def test_row_sums(self, n):
        op = build_operator("wave", n, 1.0)
        sums = stencil(op).toarray().sum(axis=1)
        c = 1.0 / op.dx**2
        if n >= 3:
            assert np.all(sums[1:-1] == 0.0)
        assert sums[0] == c
        assert sums[-1] == c

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimensionError):
            build_operator("wave", 0, 1.0)
        with pytest.raises(InvalidDimensionError):
            build_operator("wave", 4, 0.0)
        with pytest.raises(InvalidDimensionError):
            build_operator("wave", 4, -2.0)


class TestBeamOperator:
    def test_three_point_pattern(self):
        op = build_operator("beam", 3, 1.0)
        assert op.dx == 0.25
        expected = np.array([[5, -4, 1], [-4, 6, -4], [1, -4, 5]], dtype=float) / 0.25**4
        assert np.array_equal(stencil(op).toarray(), expected)

    @pytest.mark.parametrize("n", [3, 4, 9, 30])
    def test_exact_symmetry(self, n):
        op = build_operator("beam", n, 2.0)
        assert np.array_equal(stencil(op).toarray(), stencil(op).toarray().T)

    def test_three_point_positive_eigenvalues(self):
        fact = factorize(build_operator("beam", 3, 1.0))
        assert np.all(fact.lam > 0)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidDimensionError):
            build_operator("beam", 2, 1.0)


class TestGridOperator:
    @pytest.mark.parametrize("kind,n,ell", [("beam", 2, 1.0), ("wave", 4, math.nan),
                                            ("plate", 4, 1.0), ("wave", 2.5, 1.0),
                                            ("wave", True, 1.0)])
    def test_direct_construction_is_checked(self, kind, n, ell):
        with pytest.raises(InvalidDimensionError):
            GridOperator(kind, n, ell)

    def test_build_stores_no_dense_matrix(self):
        # a dense beam stencil at n = 2000 would be 32 MB
        tracemalloc.start()
        try:
            op = build_operator("beam", 2000, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.dx == 1.0 / 2001
        assert peak < 1 << 20, f"build_operator allocated {peak} bytes"

    @pytest.mark.parametrize("record", [
        # S = I: the wave's eigenvalues to the power 0, one band of ones
        OperatorKind(least_n=2, power=0, diagonal=1.0, corner=1.0, off=(), dx_power=0),
        # the beam's band and spectrum under another name, from a larger n
        OperatorKind(least_n=5, power=2, diagonal=6.0, corner=5.0, off=(-4.0, 1.0), dx_power=4),
    ], ids=["identity", "beam-twin"])
    def test_a_kind_is_one_record(self, monkeypatch, record):
        monkeypatch.setitem(KINDS, "throwaway", record)
        least = record.least_n
        with pytest.raises(InvalidDimensionError, match=f"needs n >= {least}, got {least - 1}$"):
            build_operator("throwaway", least - 1, 1.0)
        with pytest.raises(InvalidDimensionError, match="known kinds: wave, beam, throwaway$"):
            build_operator("plate", 4, 1.0)
        for n in (least, 7, 40):
            op = build_operator("throwaway", n, 0.3)
            fact = factorize(op)
            s_mat = stencil(op).toarray()
            recon = fact.q @ np.diag(fact.lam) @ fact.q.T
            assert np.max(np.abs(recon - s_mat)) <= 1e-10 * np.max(np.abs(s_mat))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_positive_definite_up_to_64(kind):
    for n in range(KINDS[kind].least_n, 65):
        fact = factorize(build_operator(kind, n, 1.0))
        assert fact.lam[0] > 0, f"n={n}: min eigenvalue {fact.lam[0]}"


class TestProfiles:
    def test_zero(self):
        assert np.array_equal(sample_profile("zero", (), 4, 1.0), np.zeros(4))

    def test_sine_exact(self):
        vals = sample_profile("sine", (5.0, 2 * math.pi), 3, 1.0)
        assert np.allclose(vals, [5.0, 0.0, -5.0], atol=1e-14)

    def test_hat(self):
        # 2x below the midpoint, -2x + 2 above (unit peak)
        assert np.array_equal(sample_profile("hat", (1.0,), 3, 1.0), [0.5, 1.0, 0.5])

    def test_step_midpoint_takes_left_value(self):
        vals = sample_profile("step", (-1.0, 5.0), 3, 1.0)
        assert np.array_equal(vals, [-1.0, -1.0, 5.0])
        # x = 1/2 exactly on a grid that contains it
        vals = sample_profile("step", (-1.0, 5.0), 5, 1.0)
        assert vals[2] == -1.0

    def test_gaussian(self):
        vals = sample_profile("gaussian", (5.0, 100.0, 2.0 / 3.0), 8, 1.0)
        x = np.arange(1, 9) / 9.0
        assert np.allclose(vals, 5.0 * np.exp(-100 * (x - 2 / 3) ** 2), rtol=1e-15)

    def test_unknown_profile(self):
        with pytest.raises(UnknownProfileError):
            sample_profile("sawtooth", (), 4, 1.0)

    def test_wrong_param_count(self):
        with pytest.raises(ProfileParamsError):
            sample_profile("sine", (1.0, 2.0, 3.0), 4, 1.0)
        with pytest.raises(ProfileParamsError):
            ProblemSpec(alpha=1.0, q=Profile("zero", (1.0,)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_param(self, value):
        with pytest.raises(ProfileParamsError, match="param 1 must be finite"):
            ProblemSpec(alpha=1.0, p=Profile("sine", (value, 3.0)))

    @pytest.mark.parametrize("name,params", [("sine", (2.0, math.pi)), ("gaussian", (1.0, 30.0, 0.5)), ("hat", (1.0,))])
    def test_refinement_agrees_at_shared_nodes(self, name, params):
        # x_i at n and x_{2i} at 2n+1 are the same point, bit for bit
        n = 9
        coarse = sample_profile(name, params, n, 1.0)
        fine = sample_profile(name, params, 2 * n + 1, 1.0)
        assert np.array_equal(coarse, fine[1::2])


def forcing(spec, u, w):
    """The production source term F(y) = (0, g(u) + h(w)) as a StateVector."""
    y = StateVector(u, w)
    return StateVector(np.zeros(y.n), forcing_from_spec(spec, y.n)(y.stacked()))


class TestNonlinearity:
    def test_sin(self):
        spec = ProblemSpec(alpha=1.0, g="sin")
        out = forcing(spec, [0.0, math.pi / 2], [3.0, -1.0])
        assert np.array_equal(out.u, [0.0, 0.0])
        assert np.allclose(out.w, [0.0, 1.0], atol=1e-16)

    def test_signed_square(self):
        spec = ProblemSpec(alpha=1.0, g="signed_square")
        out = forcing(spec, [-2.0, 3.0], [0.0, 0.0])
        assert np.array_equal(out.w, [-4.0, 9.0])

    def test_two_nonlinearities(self):
        # g(u) = -u|u|^3 and h(w) = -w|w| at u = 1, w = -2
        spec = ProblemSpec(alpha=1.0, g="neg_signed_fourth", h="neg_signed_square")
        out = forcing(spec, [1.0], [-2.0])
        assert np.array_equal(out.w, [3.0])

    def test_unknown_name(self):
        with pytest.raises(UnknownNonlinearityError):
            ProblemSpec(alpha=1.0, g="tanh")


class TestProblemSpec:
    def test_coefficient_signs(self):
        with pytest.raises(ValueError):
            ProblemSpec(alpha=0.0)
        with pytest.raises(ValueError):
            ProblemSpec(alpha=1.0, beta=-0.1)
        with pytest.raises(ValueError):
            ProblemSpec(alpha=1.0, gamma=-1.0)
        with pytest.raises(ValueError):
            ProblemSpec(alpha=1.0, delta=-1e-30)

    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "gamma", "delta", "ell", "T"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"alpha": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            ProblemSpec(**kwargs)

    def test_unknown_profile_rejected(self):
        with pytest.raises(UnknownProfileError):
            ProblemSpec(alpha=1.0, p=Profile("wedge"))

    def test_state_vector_roundtrip(self):
        v = StateVector([1.0, 2.0], [3.0, 4.0])
        assert np.array_equal(v.stacked(), [1.0, 2.0, 3.0, 4.0])
        v2 = StateVector.from_stacked(v.stacked())
        assert np.array_equal(v2.u, v.u) and np.array_equal(v2.w, v.w)
