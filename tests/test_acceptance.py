"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.

Observed convergence orders (criteria 2 and 3) are estimated as the median
of the pairwise rates log2(e_i / e_{i+1}) over the doubling step-count grid.
The median is robust against the two regime artifacts at the ends of the
grid: the coarsest steps sit above the asymptotic range (tau * omega_max is
O(10) there) and the finest fourth-order errors graze the accumulated
roundoff floor. A least-squares slope over an interior window gives the
same values to ~0.1; the median needs no per-scheme window choice.
"""

import dataclasses
import math
import statistics
import time

import numpy as np
import pytest

from wavebeam.discretize import build_operator, initial_state
from wavebeam.eigen import factorize
from wavebeam.errors import InstabilityError
from wavebeam.integrators import build_tableau, combine_combos, solve
from wavebeam.oracles import block_oracle_suite, discrete_l2_error, merged_damping_solve, stencil
from wavebeam.presets import load_preset
from wavebeam.propagator import apply_phi, build_propagator, permutation_positions

ORACLE_TOL = 1e-10


def median_pairwise_order(errors):
    return statistics.median(
        math.log2(errors[i][1] / errors[i + 1][1]) for i in range(len(errors) - 1)
    )


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE C{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def desk_setup(preset_id, kind, n, T):
    preset = load_preset(preset_id)
    spec = dataclasses.replace(preset.spec, T=T)
    op = build_operator(kind, n, spec.ell)
    fact = factorize(op)
    return spec, op, build_propagator(op, spec, fact=fact), fact


def test_c1_oracle_equivalence():
    """Block path equals the dense oracle on the full (kind, n, t, k) grid."""
    start = time.perf_counter()
    worst, cases_seen = block_oracle_suite(sizes=(4, 8, 16))
    elapsed = time.perf_counter() - start
    worst_err = float(np.max(list(worst.values())))  # np.max keeps a NaN cell
    ok = (
        worst_err <= ORACLE_TOL
        and cases_seen == {"real_distinct", "double_root", "complex_pair"}
        and elapsed < 10.0
    )
    report(1, ok, f"max relative error {worst_err:.3e} over {len(worst)} (kind, regime, n) "
                  f"cells, cases {sorted(cases_seen)}, {elapsed:.1f}s")


def test_c2_convergence_orders():
    """Scaled-down sine-Gordon run reproduces orders 1/2/2/4/4."""
    start = time.perf_counter()
    spec, op, prop, _ = desk_setup("wave1", "wave", 50, 1.0)
    ref = solve(prop, build_tableau("EI-SW4"), spec, 2**15).y_final
    m_list = [16 * 2**k for k in range(7)]
    targets = [("EI-E1", None, 1.0), ("EI-SW21", 0.75, 2.0), ("EI-SW22", 0.75, 2.0),
               ("EI-K4", None, 4.0), ("EI-SW4", None, 4.0)]
    details = []
    ok = True
    for name, c2, nominal in targets:
        tab = build_tableau(name, c2)
        errs = [
            (m, discrete_l2_error(solve(prop, tab, spec, m).y_final, ref, op.dx))
            for m in m_list
        ]
        order = median_pairwise_order(errs)
        details.append(f"{name}={order:.2f}")
        ok = ok and abs(order - nominal) <= 0.2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(2, ok, f"observed orders {', '.join(details)} (targets 1/2/2/4/4 within 0.2), "
                  f"{elapsed:.1f}s")


def test_c3_order_reduction_on_step_data():
    """Discontinuous data: fourth-order schemes drop below order 3."""
    start = time.perf_counter()
    spec, op, prop, _ = desk_setup("wave4", "wave", 50, 1.0)
    ref = solve(prop, build_tableau("EI-SW4"), spec, 2**15).y_final
    m_list = [16 * 2**k for k in range(7)]

    def order_of(name, c2):
        tab = build_tableau(name, c2)
        errs = [
            (m, discrete_l2_error(solve(prop, tab, spec, m).y_final, ref, op.dx))
            for m in m_list
        ]
        return median_pairwise_order(errs)

    o_e1 = order_of("EI-E1", None)
    o_sw21 = order_of("EI-SW21", 0.5)
    o_sw22 = order_of("EI-SW22", 0.5)
    o_k4 = order_of("EI-K4", None)
    o_sw4 = order_of("EI-SW4", None)
    elapsed = time.perf_counter() - start
    ok = (
        abs(o_e1 - 1.0) <= 0.3
        and abs(o_sw21 - 2.0) <= 0.3
        and abs(o_sw22 - 2.0) <= 0.3
        and o_k4 < 3.0
        and o_sw4 < 3.0
        and elapsed < 120.0
    )
    report(3, ok, f"E1={o_e1:.2f} SW21={o_sw21:.2f} SW22={o_sw22:.2f} (within 0.3); "
                  f"K4={o_k4:.2f} SW4={o_sw4:.2f} (reduced below 3), {elapsed:.1f}s")


def test_c4_linear_exactness():
    """With F = 0, one exponential step already gives the exact solution."""
    start = time.perf_counter()
    preset = load_preset("wave1")
    spec = dataclasses.replace(preset.spec, g="zero", h="zero")
    op = build_operator("wave", 50, spec.ell)
    prop = build_propagator(op, spec)
    tab = build_tableau("EI-SW4")
    y1 = solve(prop, tab, spec, 1).y_final.stacked()
    y64 = solve(prop, tab, spec, 64).y_final.stacked()
    rel = np.max(np.abs(y1 - y64)) / np.max(np.abs(y1))
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-11 and elapsed < 5.0
    report(4, ok, f"M=1 vs M=64 relative difference {rel:.3e} (tol 1e-11), {elapsed:.1f}s")


def test_c5_tableau_identities_and_constant_forcing():
    """Row sums and weights collapse exactly; constant forcing is one-step exact."""
    start = time.perf_counter()
    schemes = [("EI-E1", None), ("EI-SW21", 0.75), ("EI-SW22", 0.4),
               ("EI-K4", None), ("EI-SW4", None)]
    identities_ok = True
    for name, c2 in schemes:
        tab = build_tableau(name, c2)
        for i in range(tab.s):
            expected = {1: tab.c[i]} if tab.c[i] != 0.0 else {}
            identities_ok = identities_ok and combine_combos(tab.a[i]) == expected
        identities_ok = identities_ok and combine_combos(tab.b) == {1: 1.0}

    preset = load_preset("wave1")
    spec = dataclasses.replace(preset.spec, g="zero", h="zero", T=0.21)
    op = build_operator("wave", 24, spec.ell)
    prop = build_propagator(op, spec)
    rng = np.random.default_rng(17)
    const = rng.standard_normal(op.n)  # the w-half c of F = (0, c)
    y0 = initial_state(spec, op.n).stacked()
    exact = prop.apply_stacked(0, spec.T, y0) + spec.T * prop.apply_stacked(1, spec.T, const)
    worst = 0.0
    for name, c2 in schemes:
        got = solve(prop, build_tableau(name, c2), spec, 1, forcing=lambda _y: const)
        err = np.max(np.abs(got.y_final.stacked() - exact)) / np.max(np.abs(exact))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = identities_ok and worst <= 1e-10 and elapsed < 5.0
    report(5, ok, f"symbolic identities exact={identities_ok}, "
                  f"constant-forcing one-step error {worst:.3e} (tol 1e-10), {elapsed:.1f}s")


def test_c6_merged_damping_comparison():
    """Folding damping into F costs >= 20x accuracy (wave) and stability (beam)."""
    start = time.perf_counter()

    # wave variant: full-propagator error <= merged/20 for at least three M
    spec, op, prop, fact = desk_setup("merged-wave", "wave", 50, 1.0)
    ref = solve(prop, build_tableau("EI-K4"), spec, 2**15).y_final
    tab = build_tableau("EI-SW21", 1.0 / 3.0)
    qualifying = []
    for m in (32, 2048, 4096, 8192):
        full = discrete_l2_error(solve(prop, tab, spec, m).y_final, ref, op.dx)
        try:
            merged = discrete_l2_error(
                merged_damping_solve(op, spec, tab, m, fact=fact).y_final, ref, op.dx
            )
        except InstabilityError:
            merged = math.inf
        if full <= merged / 20.0:
            qualifying.append((m, merged / full))
    wave_ok = len(qualifying) >= 3

    # beam variant: merged fails outright where the full path is accurate.
    # The stiffness contrast needs a finer beam grid than the wave desk runs:
    # at N = 128 the merged path is unstable at a step size where the full
    # path is already below 1e-3.
    spec_b, op_b, prop_b, fact_b = desk_setup("merged-beam", "beam", 128, 1.0)
    ref_b = solve(prop_b, build_tableau("EI-SW4"), spec_b, 2**14).y_final
    tab_b = build_tableau("EI-SW21", 0.2)
    m_beam = 49152
    full_b = discrete_l2_error(solve(prop_b, tab_b, spec_b, m_beam).y_final, ref_b, op_b.dx)
    try:
        merged_b = discrete_l2_error(
            merged_damping_solve(op_b, spec_b, tab_b, m_beam, fact=fact_b).y_final, ref_b, op_b.dx
        )
        merged_failed = merged_b > 1.0
        merged_desc = f"error {merged_b:.3e}"
    except InstabilityError as exc:
        merged_failed = True
        merged_desc = f"unstable at step {exc.step}"
    beam_ok = merged_failed and full_b < 1e-3

    elapsed = time.perf_counter() - start
    ok = wave_ok and beam_ok and elapsed < 120.0
    ratios = ", ".join(f"M={m}: {r:.1f}x" for m, r in qualifying)
    report(6, ok, f"wave qualifying ratios [{ratios}] (need >= 3 at >= 20x); "
                  f"beam M={m_beam}: merged {merged_desc}, full error {full_b:.3e} "
                  f"(< 1e-3), {elapsed:.1f}s")


def test_c7_permutation_and_factorization_structure():
    """Position array matches the worked example; Q residuals in tolerance at n=200."""
    start = time.perf_counter()
    perm_ok = np.array_equal(permutation_positions(3), [1, 3, 5, 2, 4, 6])
    details = [f"P3 positions {'match' if perm_ok else 'WRONG'}"]
    resid_ok = True
    for kind in ("wave", "beam"):
        op = build_operator(kind, 200, 1.0)
        fact = factorize(op)
        orth = np.max(np.abs(fact.q.T @ fact.q - np.eye(200)))
        recon = np.max(np.abs(fact.q @ np.diag(fact.lam) @ fact.q.T - stencil(op).toarray()))
        recon_rel = recon / np.max(np.abs(stencil(op).toarray()))
        resid_ok = resid_ok and orth <= 1e-12 * 200 and recon_rel <= 1e-10
        details.append(f"{kind}: orth {orth:.2e}, recon {recon_rel:.2e}")
    elapsed = time.perf_counter() - start
    ok = perm_ok and resid_ok and elapsed < 10.0
    report(7, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_c8_apply_cost_scaling():
    """One warm apply at n=200 costs at most 4x two dense 200x200 mat-vecs."""
    op = build_operator("wave", 200, 1.0)
    preset = load_preset("wave1")
    prop = build_propagator(op, preset.spec)
    rng = np.random.default_rng(23)
    y = rng.standard_normal(400)
    x = rng.standard_normal(200)
    q = prop.fact.q
    prop.apply_stacked(1, 0.05, y)  # populate the block cache

    def median_ns(fn, reps=400):
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            fn()
            samples.append(time.perf_counter_ns() - t0)
        return float(np.median(samples))

    t_apply = median_ns(lambda: prop.apply_stacked(1, 0.05, y))
    t_pair = median_ns(lambda: (q @ x, q @ x))
    ratio = t_apply / t_pair
    ok = ratio <= 4.0
    report(8, ok, f"apply {t_apply / 1e3:.1f}us vs two mat-vecs {t_pair / 1e3:.1f}us, "
                  f"ratio {ratio:.2f} (limit 4); wall-clock tables are not reproduced")
