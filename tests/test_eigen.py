"""Spectral factorization: invariants, analytic values, determinism."""

import math

import numpy as np
import pytest

from wavebeam.discretize import (
    ProblemSpec,
    StateVector,
    build_beam_operator,
    build_wave_operator,
    grid_points,
)
from wavebeam.eigen import factorize
from wavebeam.modefuncs import classify_mode, phi_block
from wavebeam.propagator import apply_phi, build_propagator

BUILDERS = {"wave": build_wave_operator, "beam": build_beam_operator}


def test_hand_2x2():
    # n = 2, dx = 1/3: S = 9 [[2, -1], [-1, 2]]
    fact = factorize(build_wave_operator(2, 1.0))
    assert np.allclose(fact.lam, [9.0, 27.0], rtol=1e-14)
    r = 1.0 / math.sqrt(2.0)
    # sign convention: first nonzero component positive
    assert np.allclose(fact.q[:, 0], [r, r], rtol=1e-14)
    assert np.allclose(fact.q[:, 1], [r, -r], rtol=1e-14)


def test_wave3_analytic():
    fact = factorize(build_wave_operator(3, 1.0))
    expected = np.array([16 * (2 - math.sqrt(2)), 32.0, 16 * (2 + math.sqrt(2))])
    assert np.max(np.abs(fact.lam - expected) / expected) < 1e-13


@pytest.mark.parametrize("kind", ["wave", "beam"])
@pytest.mark.parametrize("n", [3, 8, 16, 50, 200, 600])
def test_factorization_invariants(kind, n):
    op = BUILDERS[kind](n, 1.0)
    fact = factorize(op)
    orth = np.max(np.abs(fact.q.T @ fact.q - np.eye(n)))
    assert orth <= 1e-12 * n, f"orthogonality residual {orth:.2e}"
    recon = np.max(np.abs(fact.q @ np.diag(fact.lam) @ fact.q.T - op.entries))
    assert recon <= 1e-10 * np.max(np.abs(op.entries)), f"reconstruction residual {recon:.2e}"
    assert np.all(np.diff(fact.lam) >= 0)
    for j in range(n):
        nz = np.nonzero(fact.q[:, j])[0]
        assert fact.q[nz[0], j] > 0


@pytest.mark.parametrize("n", [8, 50, 200])
def test_wave_eigenvalues_analytic_formula(n):
    op = build_wave_operator(n, 1.0)
    fact = factorize(op)
    k = np.arange(1, n + 1)
    analytic = 4.0 / op.dx**2 * np.sin(k * math.pi / (2 * (n + 1))) ** 2
    assert np.max(np.abs(fact.lam - analytic) / analytic) < 1e-10


@pytest.mark.parametrize("kind", ["wave", "beam"])
def test_matches_numpy_eigh(kind):
    op = BUILDERS[kind](24, 1.0)
    fact = factorize(op)
    ref = np.linalg.eigvalsh(op.entries)
    assert np.max(np.abs(fact.lam - ref)) < 1e-12 * np.max(np.abs(ref))


def test_determinism():
    op = build_beam_operator(40, 1.0)
    f1 = factorize(op)
    f2 = factorize(op)
    assert np.array_equal(f1.q, f2.q)
    assert np.array_equal(f1.lam, f2.lam)


def closed_form_eigenvalues(kind, n):
    dx = 1.0 / (n + 1)
    lam = 4.0 / dx**2 * np.sin(np.arange(1, n + 1) * math.pi / (2 * (n + 1))) ** 2
    return lam if kind == "wave" else lam**2


@pytest.mark.parametrize("kind", ["wave", "beam"])
@pytest.mark.parametrize("n", [300, 600])
def test_per_mode_eigenvalue_error(kind, n):
    # relative to each eigenvalue, not to max |lam|: the smooth beam modes
    # are the ones a general eigensolver loses
    fact = factorize(BUILDERS[kind](n, 1.0))
    exact = closed_form_eigenvalues(kind, n)
    rel = np.abs(fact.lam - exact) / exact
    assert np.max(rel) <= 1e-12, f"worst mode {np.argmax(rel) + 1}: {np.max(rel):.2e}"


@pytest.mark.parametrize("j", [1, 2, 7])
def test_single_mode_evolves_by_its_block(j):
    # F = 0: sin(j*pi*x) is the j-th eigenvector, so exp(tA) acts on it as
    # the scalar 2x2 exponential of mode j
    n, t = 300, 0.75
    spec = ProblemSpec(alpha=15.0, beta=3e-6, gamma=3e-4, delta=10.0)
    prop = build_propagator(build_beam_operator(n, 1.0), spec)
    u0 = np.sin(j * math.pi * grid_points(n, 1.0))
    out = apply_phi(prop, 0, t, StateVector(u0, np.zeros(n)))
    blk = phi_block(0, t, classify_mode(prop.modes.lam[j - 1], *prop.params))
    assert np.max(np.abs(out.u - blk[0, 0] * u0)) <= 1e-12
    assert np.max(np.abs(out.w - blk[1, 0] * u0)) <= 1e-12 * max(1.0, abs(blk[1, 0]))
