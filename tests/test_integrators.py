"""Scheme tableaus, stepping, the RK4 baseline, and the merged-damping variant."""

import dataclasses
import math

import numpy as np
import pytest

from wavebeam import integrators
from wavebeam.discretize import (
    ProblemSpec,
    Profile,
    StateVector,
    build_operator,
    initial_state,
    nonlinearity,
)
from wavebeam.eigen import N_FOLD, SpectralFactorization
from wavebeam.errors import ConfigError, DimensionMismatchError, InstabilityError, UnknownSchemeError
from wavebeam.integrators import build_tableau, combine_combos, solve
from wavebeam.oracles import (
    dense_phi,
    discrete_l2_error,
    merged_damping_solve,
    rk4_baseline_solve,
    rk4_step,
    stencil,
)
from wavebeam.presets import load_preset
from wavebeam.propagator import apply_phi, build_propagator

ALL_SCHEMES = [("EI-E1", None), ("EI-SW21", 0.6), ("EI-SW22", 0.6), ("EI-K4", None), ("EI-SW4", None)]


def damped_wave_setup(n=8, g="sin", T=1.0):
    spec = ProblemSpec(
        alpha=1.0,
        beta=0.01,
        gamma=0.1,
        delta=0.5,
        g=g,
        p=Profile("sine", (1.0, math.pi)),
        q=Profile("cosine", (0.5, math.pi)),
        T=T,
    )
    op = build_operator("wave", n, spec.ell)
    return spec, op, build_propagator(op, spec)


def one_step(prop, tab, spec, tau):
    """One scheme step of size tau from the sampled initial data."""
    return solve(prop, tab, dataclasses.replace(spec, T=tau), 1).y_final


class TestTableauContents:
    def test_e1(self):
        tab = build_tableau("EI-E1")
        assert tab.s == 1 and tab.c == (0.0,)
        assert tab.b == (((1, 1.0),),)

    def test_sw21_weights(self):
        tab = build_tableau("EI-SW21", 0.75)
        assert combine_combos([tab.b[0]]) == {1: 1.0, 2: -4.0 / 3.0}
        assert combine_combos([tab.b[1]]) == {2: 4.0 / 3.0}
        assert tab.a[1][0] == ((1, 0.75),)

    def test_sw22_uses_only_phi1(self):
        tab = build_tableau("EI-SW22", 0.25)
        ks = {k for combo in tab.b for k, _ in combo}
        assert ks == {1}
        assert combine_combos([tab.b[1]]) == {1: 2.0}

    def test_k4_weight_row(self):
        tab = build_tableau("EI-K4")
        assert combine_combos([tab.b[0]]) == {1: 1.0, 2: -3.0, 3: 4.0}
        assert combine_combos([tab.b[1]]) == {2: 2.0, 3: -4.0}
        assert combine_combos([tab.b[2]]) == {2: 2.0, 3: -4.0}
        assert combine_combos([tab.b[3]]) == {2: -1.0, 3: 4.0}

    def test_sw4_third_stage(self):
        tab = build_tableau("EI-SW4")
        assert combine_combos([tab.a[3][2]]) == {2: 4.0}
        assert tab.b[1] == ()

    def test_name_normalization(self):
        assert build_tableau("sw4").name == "EI-SW4"
        assert build_tableau("ei-k4").name == "EI-K4"

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            build_tableau("EI-RK9")

    def test_missing_or_bad_c2(self):
        with pytest.raises(ConfigError):
            build_tableau("EI-SW21")
        with pytest.raises(ConfigError):
            build_tableau("EI-SW22", 0.0)
        with pytest.raises(ConfigError):
            build_tableau("EI-SW21", 1.5)


class TestTableauIdentities:
    @pytest.mark.parametrize("name,c2", ALL_SCHEMES)
    def test_row_sums_collapse_to_c_phi1(self, name, c2):
        tab = build_tableau(name, c2)
        for i in range(tab.s):
            total = combine_combos(tab.a[i])
            expected = {1: tab.c[i]} if tab.c[i] != 0.0 else {}
            assert total == expected, f"{name} stage {i + 1}"

    @pytest.mark.parametrize("name,c2", ALL_SCHEMES)
    def test_weights_collapse_to_phi1(self, name, c2):
        tab = build_tableau(name, c2)
        assert combine_combos(tab.b) == {1: 1.0}


class TestStep:
    def test_zero_forcing_reduces_to_exponential(self):
        spec, op, prop = damped_wave_setup(g="zero")
        y = initial_state(spec, op.n)
        tau = 0.17
        for name, c2 in ALL_SCHEMES:
            got = one_step(prop, build_tableau(name, c2), spec, tau)
            want = apply_phi(prop, 0, tau, y)
            assert np.array_equal(got.stacked(), want.stacked()), name

    @pytest.mark.parametrize("name,c2", ALL_SCHEMES)
    def test_constant_forcing_is_exact(self, name, c2):
        # weight consistency: one step reproduces e^{tau A} y0 + tau phi_1(tau A) c
        spec, op, prop = damped_wave_setup(g="zero")
        rng = np.random.default_rng(11)
        const = rng.standard_normal(op.n)  # the w-half c of F = (0, c)

        def forcing(_y):
            return const

        tau = 0.21
        spec1 = dataclasses.replace(spec, T=tau)
        got = solve(prop, build_tableau(name, c2), spec1, 1, forcing=forcing).y_final.stacked()
        y0 = initial_state(spec, op.n).stacked()
        want = prop.apply_stacked(0, tau, y0) + tau * prop.apply_stacked(1, tau, const)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-10, f"{name}: {err:.2e}"

    def test_e1_single_mode_hand_value(self):
        # one spatial mode: the step is a 2x2 computation
        spec = ProblemSpec(alpha=1.0, beta=0.1, g="cube", p=Profile("sine", (2.0, math.pi)), T=1.0)
        op = build_operator("wave", 1, 1.0)
        prop = build_propagator(op, spec)
        y0 = initial_state(spec, 1)
        assert y0.u[0] == 2.0 and y0.w[0] == 0.0
        tau = 0.3
        got = one_step(prop, build_tableau("EI-E1"), spec, tau).stacked()
        s00 = stencil(op).toarray()[0, 0]
        g_mat = np.array([[0.0, 1.0], [-s00, -0.1 * s00]])
        f0 = np.array([0.0, y0.u[0] ** 3])
        want = dense_phi(0, tau * g_mat) @ np.array([2.0, 0.0]) + tau * (
            dense_phi(1, tau * g_mat) @ f0
        )
        assert np.allclose(got, want, rtol=1e-12)

    def test_instability_reported_with_step_index(self):
        # explosive growth: g(u) = u^3 from large data blows up quickly
        spec = ProblemSpec(alpha=1.0, g="cube", p=Profile("sine", (50.0, math.pi)), T=50.0)
        op = build_operator("wave", 6, spec.ell)
        prop = build_propagator(op, spec)
        with pytest.raises(InstabilityError) as exc_info:
            solve(prop, build_tableau("EI-E1"), spec, 10)
        assert exc_info.value.step is not None
        assert exc_info.value.time is not None

    @pytest.mark.parametrize(
        "name,call,where",
        [("EI-SW4", 10, "stage 3"), ("EI-E1", 3, "the step update")],
    )
    def test_infinite_stage_without_nan_is_unstable(self, name, call, where, monkeypatch):
        # a +inf entry with no NaN next to it must still stop the solve:
        # EI-SW4 makes 4 applies per step, so its 10th is step 3's stage 3
        # (a later row at node 1/2, the previous row plus this apply)
        spec, op, prop = damped_wave_setup(g="sin")
        apply_stacked, calls = prop.apply_stacked, []

        def blown(k, t, y):
            out = apply_stacked(k, t, y)
            calls.append(k)
            if len(calls) == call:
                out[3] = np.inf
            return out

        monkeypatch.setattr(prop, "apply_stacked", blown)
        M = 8
        with pytest.raises(InstabilityError, match=where) as exc_info:
            solve(prop, build_tableau(name), spec, M)
        assert exc_info.value.step == 3
        assert exc_info.value.time == pytest.approx(3 * spec.T / M)


def unshared_step(prop, tab, spec, tau, y0):
    """The tableau formula with every (k, weight, j) term applied on its own."""
    n = prop.n
    g, h = nonlinearity(spec.g), nonlinearity(spec.h)

    def forcing(y):
        return np.concatenate([np.zeros(n), g(y[:n]) + h(y[n:])])

    def stage(c, row, f_stages):
        out = prop.apply_stacked(0, c * tau, y0)
        for j, combo in enumerate(row):
            for k, w in combo:
                out = out + tau * prop.apply_stacked(k, c * tau, w * f_stages[j])
        return out

    f_stages = [forcing(y0)]
    for i in range(1, tab.s):
        f_stages.append(forcing(stage(tab.c[i], tab.a[i], f_stages)))
    return stage(1.0, tab.b, f_stages)


STEP_SCHEMES = [("EI-E1", None)] + [
    (name, c2) for name in ("EI-SW21", "EI-SW22") for c2 in (0.5, 0.75, 1.0)
] + [("EI-K4", None), ("EI-SW4", None)]


# (n, h, id suffix): the n = 12 cases keep the bare name-c2 ids
STEP_SIZES = [(12, "zero", ""), (200, "zero", "-n200-dense"), (N_FOLD + 1, "zero", "-folded"),
              (12, "neg_signed_square", "-n12-h")]


@pytest.mark.parametrize(
    "name,c2,n,h",
    [pytest.param(name, c2, n, h, id=f"{name}-{c2}{suffix}")
     for n, h, suffix in STEP_SIZES for name, c2 in STEP_SCHEMES],
)
def test_step_matches_unshared_evaluation(name, c2, n, h):
    # a shared term that was later modified in place, or a row that
    # continued the wrong one, would show up here; with h nonzero the
    # sources depend on w as well as u
    spec, op, prop = damped_wave_setup(n=n, g="sin")
    spec = dataclasses.replace(spec, h=h)
    y0 = initial_state(spec, op.n)
    tab = build_tableau(name, c2)
    tau = 0.23
    got = one_step(prop, tab, spec, tau).stacked()
    want = unshared_step(prop, tab, spec, tau, y0.stacked())
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_row_repeating_the_one_before_it_starts_its_node_again():
    # a hand-built tableau whose stage 3 repeats stage 2 at node 1/2: there
    # is no D-weight difference to continue with, so the row is computed in full
    spec, op, prop = damped_wave_setup(n=12, g="sin")
    k4 = build_tableau("EI-K4")
    tab = integrators.SchemeTableau("twin", k4.c, (*k4.a[:2], (((1, 0.5),), ()), k4.a[3]), k4.b)
    tau = 0.23
    applies = prop.applies
    got = one_step(prop, tab, spec, tau).stacked()
    assert prop.applies == applies + tab.s
    want = unshared_step(prop, tab, spec, tau, initial_state(spec, op.n).stacked())
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name,c2", [("EI-SW4", None), ("EI-SW22", 0.75)],
                         ids=["w-half-EI-SW4-None", "w-half-EI-SW22-0.75"])
def test_shared_forcing_array_left_unchanged(name, c2):
    # a forcing that returns one array on every call, as C5's constant one
    # does, must come back bit for bit: the step may add in place only into
    # arrays it made itself
    spec, op, prop = damped_wave_setup(g="zero")
    const = np.random.default_rng(5).standard_normal(op.n)
    kept = const.copy()
    with np.errstate(over="warn", invalid="warn"):
        errors = np.geterr()
        solve(prop, build_tableau(name, c2), spec, 3, forcing=lambda _y: const)
        assert np.geterr() == errors
    assert np.array_equal(const, kept)


@pytest.mark.parametrize(
    "shapes,stage",
    [([(9,)], 1), ([(1, 8)], 1), ([(16,)], 1), ([(8,), (16,)], 2), ([(8,)] * 4 + [(16,)], 1)],
    ids=["n+1", "1xn", "stacked", "flip", "step-flip"],
)
def test_forcing_of_wrong_shape_is_named(shapes, stage):
    # a forcing returns the (n,) w-half f of F = (0, f), and nothing else:
    # every F, at a step's start (stacked: the full (2n,) F(y_0); step-flip:
    # EI-K4's four calls of step 1 give (8,), step 2 starts with (16,)) or at
    # a stage (flip), is checked before the step fills its input rows with it
    spec, op, prop = damped_wave_setup(g="zero")
    assert op.n == 8
    calls = []

    def forcing(_y):
        calls.append(None)
        return np.zeros(shapes[min(len(calls), len(shapes)) - 1])

    with pytest.raises(DimensionMismatchError) as exc:
        solve(prop, build_tableau("EI-K4"), spec, 2, forcing=forcing)
    message = str(exc.value)
    assert message.startswith("forcing 'forcing' returned shape")
    assert str(shapes[-1]) in message and "(8,)" in message
    assert f"at stage {stage}," in message


def test_solve_restores_numpy_error_state_after_instability():
    spec = ProblemSpec(alpha=1.0, g="cube", p=Profile("sine", (50.0, math.pi)), T=50.0)
    prop = build_propagator(build_operator("wave", 6, spec.ell), spec)
    with np.errstate(over="warn", invalid="warn"):
        errors = np.geterr()
        with pytest.raises(InstabilityError):
            solve(prop, build_tableau("EI-SW4"), spec, 10)
        assert np.geterr() == errors


class TestSolve:
    def test_linear_single_step_equals_exponential(self):
        spec, op, prop = damped_wave_setup(g="zero", T=0.8)
        res = solve(prop, build_tableau("EI-SW4"), spec, 1)
        want = apply_phi(prop, 0, spec.T, initial_state(spec, op.n))
        assert np.allclose(res.y_final.stacked(), want.stacked(), rtol=1e-13)

    def test_error_halves_when_steps_double(self):
        spec, op, prop = damped_wave_setup(g="sin", T=1.0)
        ref = solve(prop, build_tableau("EI-SW4"), spec, 4096).y_final.stacked()
        tab = build_tableau("EI-E1")
        errs = [
            np.linalg.norm(solve(prop, tab, spec, M).y_final.stacked() - ref)
            for M in (64, 128, 256)
        ]
        assert 1.7 <= errs[0] / errs[1] <= 2.3
        assert 1.7 <= errs[1] / errs[2] <= 2.3

    def test_determinism_bitwise(self):
        spec, op, prop = damped_wave_setup(g="sin")
        r1 = solve(prop, build_tableau("EI-K4"), spec, 40)
        r2 = solve(prop, build_tableau("EI-K4"), spec, 40)
        assert np.array_equal(r1.y_final.stacked(), r2.y_final.stacked())

    def test_snapshot_times(self):
        spec, op, prop = damped_wave_setup(g="sin", T=1.0)
        res = solve(prop, build_tableau("EI-E1"), spec, 10, snapshot_every=3)
        times = [t for t, _ in res.snapshots]
        assert times == sorted(times)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert times[-1] == spec.T

    def test_phi_evaluation_counting_k4(self):
        # EI-K4 needs 7 block tables: (c=1/2: k=0,1,2) + (c=1: k=0,1,2,3),
        # all built in step one; 4 applies per step thereafter, one per
        # stage and the update: stage 2 is the c=1/2 base (exp and phi_1 in
        # one combination) and stage 3 adds its D-terms to stage 2; stage 4
        # is the c=1 base and its D-terms in one combination, and the update
        # adds its weight difference to stage 4
        spec, op, prop = damped_wave_setup(g="sin")
        res = solve(prop, build_tableau("EI-K4"), spec, 3)
        assert res.stats.phi_evals == 7
        assert res.stats.phi_applies == 4 * 3
        # same step size again: every (tau, c, k) table is a cache hit
        res2 = solve(prop, build_tableau("EI-K4"), spec, 3)
        assert res2.stats.phi_evals == 0
        assert res2.stats.phi_applies == 4 * 3
        # at half the step size, c=1 reuses the c=1/2 tables of k=0,1,2
        # (same c*tau), so only c=1/2 (k=0,1,2) and c=1 (k=3) are new
        res3 = solve(prop, build_tableau("EI-K4"), spec, 6)
        assert res3.stats.phi_evals == 4

    @pytest.mark.parametrize(
        "name,c2,terms,applies",
        [pytest.param(name, c2, terms, applies, id=f"{name}-{c2}-{terms}")
         for name, c2, terms, applies in [
             ("EI-E1", None, 2, 1), ("EI-SW21", 0.75, 5, 2), ("EI-SW21", 1.0, 3, 2),
             ("EI-SW22", 0.75, 5, 2), ("EI-SW22", 1.0, 3, 2), ("EI-K4", None, 8, 4),
             ("EI-SW4", None, 8, 4)]],
    )
    def test_phi_applies_per_step(self, name, c2, terms, applies, monkeypatch):
        # one apply per stage 2..s and one for the update: the first row at
        # a node computes the node's base (exp and phi_1) and its D-terms
        # together, a later row at that node continues the previous one. At
        # c2 = 1 the update continues stage 2. Each apply's mixing columns
        # are gathered once per key, one table lookup per phi-term, all in
        # the first step: terms, the id's third field, counts them.
        spec, op, prop = damped_wave_setup(g="sin")
        lookups, per_step = [], []
        table, step = prop.table, integrators._step_stacked

        def counted(*args):
            y = step(*args)
            per_step.append(len(lookups))
            return y

        monkeypatch.setattr(prop, "table", lambda k, t: lookups.append(k) or table(k, t))
        monkeypatch.setattr(integrators, "_step_stacked", counted)
        res = solve(prop, build_tableau(name, c2), spec, 4)
        assert res.stats.phi_applies == applies * 4
        assert per_step == [terms] * 4

    @pytest.mark.parametrize("name,c2", STEP_SCHEMES)
    def test_transform_rows_per_apply(self, name, c2, monkeypatch):
        # each apply is one product in and one out; more than 4 rows in
        # would hit the small-row GEMM cliff (5 and 6 rows took 3x the time
        # of 4 through the fold at n = 600), and the sum goes back as 2 rows.
        # At n = 200 no key is premixed: 2*r*n^2 >= 80 000 entries
        spec, op, prop = damped_wave_setup(n=200, g="sin")
        rows = []
        transform = SpectralFactorization.transform

        def counted(fact, x):
            rows.append(1 if x.ndim == 1 else x.shape[0])
            return transform(fact, x)

        monkeypatch.setattr(SpectralFactorization, "transform", counted)
        tab = build_tableau(name, c2)
        res = solve(prop, tab, spec, 2)
        assert res.stats.phi_applies == tab.s * 2
        assert len(rows) == 2 * res.stats.phi_applies
        assert max(rows[0::2]) <= 4
        assert rows[1::2] == [2] * res.stats.phi_applies

    @pytest.mark.parametrize("name,c2", STEP_SCHEMES)
    def test_premixed_apply_is_one_transform_of_two_rows(self, name, c2, monkeypatch):
        # at n = 8 every key is premixed: the rows go in through one product
        # with the key's in-matrix, and only the sum goes through transform
        spec, op, prop = damped_wave_setup(g="sin")
        rows = []
        transform = SpectralFactorization.transform

        def counted(fact, x):
            rows.append(1 if x.ndim == 1 else x.shape[0])
            return transform(fact, x)

        monkeypatch.setattr(SpectralFactorization, "transform", counted)
        tab = build_tableau(name, c2)
        res = solve(prop, tab, spec, 2)
        assert res.stats.phi_applies == tab.s * 2
        assert rows == [2] * res.stats.phi_applies

    @pytest.mark.parametrize("n,g", [(32, None), (300, None), (601, "zero")],
                             ids=["premixed32", "dense300", "fold601"])
    @pytest.mark.parametrize("name", [name for name, _ in ALL_SCHEMES])
    def test_no_subnormal_reaches_transform(self, name, n, g, monkeypatch):
        # beam1's overdamped high modes decay below the smallest normal
        # double at tau = 5/256; the tables floor them, so neither the state
        # nor a mixed spectral sum carries a subnormal into a product with Q.
        # A premixed apply's first product is its input rows times the key's
        # cached in-matrix, so the rows and every in-matrix are checked too
        spec = load_preset("beam1").spec
        spec = dataclasses.replace(spec, T=5.0 * 8 / 256, g=g or spec.g)
        prop = build_propagator(build_operator("beam", n, spec.ell), spec)
        tiny = np.finfo(float).tiny

        def subnormal(x):
            return int(np.count_nonzero((x != 0) & (np.abs(x) < tiny)))

        transformed, inputs = [], []
        transform, apply = SpectralFactorization.transform, prop.apply_stacked
        monkeypatch.setattr(SpectralFactorization, "transform",
                            lambda fact, x: transformed.append(subnormal(x)) or transform(fact, x))
        monkeypatch.setattr(prop, "apply_stacked",
                            lambda k, t, y: inputs.append(subnormal(y)) or apply(k, t, y))
        solve(prop, build_tableau(name, 0.5 if name in ("EI-SW21", "EI-SW22") else None), spec, 8)
        premixed = [entry for entry in prop._tables.values() if entry.ndim == 2]
        assert bool(premixed) == (n == 32)
        assert len(transformed) == (1 if premixed else 2) * prop.applies
        assert sum(transformed) + sum(inputs) + sum(map(subnormal, premixed)) == 0

    @pytest.mark.parametrize("preset_id", ["wave1", "beam1"])
    def test_linear_flow_drift_over_8192_steps(self, preset_id):
        # with g = h = zero, EI-E1 steps the exact flow, so 8192 steps of one
        # premixed apply each must match one exp(TA) apply to rounding: a
        # per-key dense map Q diag(m) Q', whose rounding is fixed per key and
        # adds up coherently step after step, read 8e-12 on beam1
        preset = load_preset(preset_id)
        spec = dataclasses.replace(preset.spec, g="zero", h="zero")
        n = 64
        prop = build_propagator(build_operator(preset.kind, n, spec.ell), spec)
        got = solve(prop, build_tableau("EI-E1"), spec, 8192).y_final.stacked()
        assert sum(entry.ndim == 2 for entry in prop._tables.values()) == 1  # the step's one key
        want = apply_phi(prop, 0, spec.T, initial_state(spec, n)).stacked()
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 3e-12

    def test_phi_evaluation_counting_e1(self):
        spec, op, prop = damped_wave_setup(g="sin")
        res = solve(prop, build_tableau("EI-E1"), spec, 5)
        assert res.stats.phi_evals == 2  # exp and phi_1 at the full step
        # the update is the first row at node 1: the base alone, one apply
        assert res.stats.phi_applies == 1 * 5
        assert res.stats.steps == 5

    @pytest.mark.parametrize(
        "M,every",
        [(10, -2), (10, 2.5), (10, 0), (True, None), (2.5, None), (0, None), (10, True)],
        ids=["every-negative", "every-fraction", "every-zero", "M-bool", "M-fraction",
             "M-zero", "every-bool"],
    )
    def test_counts_must_be_positive_integers(self, M, every):
        spec, op, prop = damped_wave_setup(g="sin")
        with pytest.raises(ConfigError, match="must be a positive integer"):
            solve(prop, build_tableau("EI-E1"), spec, M, snapshot_every=every)

    def test_numpy_integer_counts_accepted(self):
        spec, op, prop = damped_wave_setup(g="sin")
        res = solve(prop, build_tableau("EI-E1"), spec, np.int64(4), snapshot_every=np.int64(2))
        assert [t for t, _ in res.snapshots] == [spec.T / 2, spec.T]


class TestRK4Baseline:
    def test_scalar_stability_polynomial(self):
        tau = 0.37
        got = rk4_step(lambda y: -y, tau, np.array([1.0]))[0]
        want = 1.0 - tau + tau**2 / 2 - tau**3 / 6 + tau**4 / 24
        assert got == pytest.approx(want, rel=1e-15)

    def test_agrees_with_exponential_integrator(self):
        # non-stiff smooth problem: both converge to the same solution
        spec, op, prop = damped_wave_setup(n=8, g="sin", T=0.1)
        res_rk = rk4_baseline_solve(op, spec, 10_000)
        res_ei = solve(prop, build_tableau("EI-K4"), spec, 10_000)
        diff = np.max(np.abs(res_rk.y_final.stacked() - res_ei.y_final.stacked()))
        assert diff <= 1e-8

    def test_beam_cfl_violation_blows_up(self):
        spec = ProblemSpec(
            alpha=15.0, beta=3e-6, gamma=3e-4, delta=10.0, g="neg_five_cube",
            p=Profile("gaussian", (5.0, 100.0, 2.0 / 3.0)), T=1.0,
        )
        op = build_operator("beam", 200, spec.ell)
        with pytest.raises(InstabilityError) as exc_info:
            rk4_baseline_solve(op, spec, 100)
        assert exc_info.value.step is not None


class TestStiffnessIndependence:
    """wave1 physics at T = 1: the exponential scheme's error at a fixed step
    does not grow with n, while RK4 needs more steps as the spectrum widens."""

    SPEC = dataclasses.replace(load_preset("wave1").spec, T=1.0)

    def reference(self, n):
        op = build_operator("wave", n, self.SPEC.ell)
        prop = build_propagator(op, self.SPEC)
        return op, prop, solve(prop, build_tableau("EI-SW4"), self.SPEC, 2048).y_final

    def rk4_error(self, op, y_ref, m_steps):
        try:
            y = rk4_baseline_solve(op, self.SPEC, m_steps).y_final
        except InstabilityError:
            return math.inf
        return discrete_l2_error(y, y_ref, op.dx)

    def test_exponential_error_flat_in_n_while_rk4_needs_more_steps(self):
        errors, rk4_steps = {}, {}
        for n in (50, 100, 200):
            op, prop, y_ref = self.reference(n)
            y = solve(prop, build_tableau("EI-SW4"), self.SPEC, 32).y_final
            errors[n] = discrete_l2_error(y, y_ref, op.dx)
            if n != 100:
                # the first power-of-2 step count with an error below 1e-2
                rk4_steps[n] = next(2**k for k in range(16)
                                    if self.rk4_error(op, y_ref, 2**k) < 1e-2)
        # about 1.1e-4 at every n; the spread is 12%
        assert max(errors.values()) <= 1.2 * min(errors.values()), errors
        # 128 steps at n = 50 and 512 at n = 200
        assert rk4_steps[200] >= 2 * rk4_steps[50], rk4_steps


class TestMergedDamping:
    def test_identical_when_undamped(self):
        spec = ProblemSpec(
            alpha=2.0, g="sin", p=Profile("sine", (1.0, math.pi)),
            q=Profile("cosine", (1.0, math.pi)), T=0.5,
        )
        op = build_operator("wave", 10, spec.ell)
        prop = build_propagator(op, spec)
        tab = build_tableau("EI-SW21", 0.5)
        direct = solve(prop, tab, spec, 16).y_final.stacked()
        merged = merged_damping_solve(op, spec, tab, 16).y_final.stacked()
        assert np.max(np.abs(direct - merged)) <= 1e-12 * max(np.max(np.abs(direct)), 1.0)

    def test_merged_loses_accuracy_with_damping(self):
        spec = ProblemSpec(
            alpha=1.0, beta=1e-2, gamma=1e-1, delta=1.0, g="neg_five_cube",
            p=Profile("sine", (5.0, 5 * math.pi)), q=Profile("cosine", (5.0, 10 * math.pi)), T=1.0,
        )
        op = build_operator("wave", 32, spec.ell)
        prop = build_propagator(op, spec)
        ref = solve(prop, build_tableau("EI-K4"), spec, 8192).y_final.stacked()
        tab = build_tableau("EI-SW21", 1.0 / 3.0)
        M = 256
        e_full = np.linalg.norm(solve(prop, tab, spec, M).y_final.stacked() - ref)
        e_merged = np.linalg.norm(merged_damping_solve(op, spec, tab, M).y_final.stacked() - ref)
        assert e_merged > 5.0 * e_full
