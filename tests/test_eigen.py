"""Spectral factorization: invariants, analytic values, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from wavebeam.discretize import KINDS, ProblemSpec, StateVector, build_operator, grid_points
from wavebeam.eigen import N_FOLD, SpectralFactorization, factorize
from wavebeam.integrators import build_tableau, solve
from wavebeam.modefuncs import classify_mode, phi_block
from wavebeam.oracles import stencil
from wavebeam.presets import load_preset
from wavebeam.propagator import apply_phi, build_propagator

def test_hand_2x2():
    # n = 2, dx = 1/3: S = 9 [[2, -1], [-1, 2]]
    fact = factorize(build_operator("wave", 2, 1.0))
    assert np.allclose(fact.lam, [9.0, 27.0], rtol=1e-14)
    r = 1.0 / math.sqrt(2.0)
    # sign convention: first nonzero component positive
    assert np.allclose(fact.q[:, 0], [r, r], rtol=1e-14)
    assert np.allclose(fact.q[:, 1], [r, -r], rtol=1e-14)


def test_wave3_analytic():
    fact = factorize(build_operator("wave", 3, 1.0))
    expected = np.array([16 * (2 - math.sqrt(2)), 32.0, 16 * (2 + math.sqrt(2))])
    assert np.max(np.abs(fact.lam - expected) / expected) < 1e-13


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", [3, 8, 16, 50, 200, 600])
def test_factorization_invariants(kind, n):
    n = max(n, KINDS[kind].least_n)
    op = build_operator(kind, n, 1.0)
    fact = factorize(op)
    orth = np.max(np.abs(fact.q.T @ fact.q - np.eye(n)))
    assert orth <= 1e-12 * n, f"orthogonality residual {orth:.2e}"
    recon = np.max(np.abs(fact.q @ np.diag(fact.lam) @ fact.q.T - stencil(op).toarray()))
    assert recon <= 1e-10 * np.max(np.abs(stencil(op).toarray())), (
        f"reconstruction residual {recon:.2e}"
    )
    assert np.all(np.diff(fact.lam) >= 0)
    for j in range(n):
        nz = np.nonzero(fact.q[:, j])[0]
        assert fact.q[nz[0], j] > 0


@pytest.mark.parametrize("n", [8, 50, 200])
def test_wave_eigenvalues_analytic_formula(n):
    op = build_operator("wave", n, 1.0)
    fact = factorize(op)
    k = np.arange(1, n + 1)
    analytic = 4.0 / op.dx**2 * np.sin(k * math.pi / (2 * (n + 1))) ** 2
    assert np.max(np.abs(fact.lam - analytic) / analytic) < 1e-10


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_matches_numpy_eigh(kind):
    op = build_operator(kind, max(24, KINDS[kind].least_n), 1.0)
    fact = factorize(op)
    ref = np.linalg.eigvalsh(stencil(op).toarray())
    assert np.max(np.abs(fact.lam - ref)) < 1e-12 * np.max(np.abs(ref))


def test_determinism():
    op = build_operator("beam", 40, 1.0)
    f1 = factorize(op)
    f2 = factorize(op)
    assert np.array_equal(f1.q, f2.q)
    assert np.array_equal(f1.lam, f2.lam)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 600, 1001])
def test_q_is_the_dst_matrix_bit_for_bit(n):
    # Q_ij = sqrt(2/(n+1)) sin(((ij) mod 2(n+1)) pi/(n+1)), evaluated a row at a time
    j = np.arange(1, n + 1)
    expected = np.empty((n, n))
    for i in range(1, n + 1):
        expected[i - 1] = np.sin((i * j) % (2 * (n + 1)) * (np.pi / (n + 1)))
        expected[i - 1] *= np.sqrt(2.0 / (n + 1))
    q = factorize(build_operator("wave", n, 1.0)).q
    assert q.tobytes(order="C") == expected.tobytes(order="C")


def test_factorize_allocates_little_beyond_q():
    # n = 1000 is folded: factorize holds two half-size blocks, half the bytes
    # of Q, and the dense Q, built on first read, allocates little beyond itself
    n = 1000
    op = build_operator("beam", n, 1.0)
    tracemalloc.start()
    try:
        fact = factorize(op)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert fact.q.shape == (n, n)
        q_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} x the bytes of Q"
    assert q_peak <= 1.25 * 8 * n * n, f"q read peak {q_peak / (8 * n * n):.2f} x its bytes"


@pytest.mark.parametrize("n", [N_FOLD, N_FOLD + 1, 320, 321, 384, 385, 601, 1001])
def test_folded_transform_is_the_product_with_q(n):
    fact = factorize(build_operator("beam", n, 1.0))
    assert fact.dense is None
    rng = np.random.default_rng(n)
    rows = [rng.standard_normal((2, n)), *np.eye(n)[[0, n // 2, n - 1]]]
    for x in rows:
        want = x @ fact.q
        err = np.max(np.abs(fact.transform(x) - want)) / np.max(np.abs(want))
        assert err <= 1e-14, f"{err:.2e}"
    # the blocks are Q's own entries, not a second evaluation of the sines
    odd, even = fact.fold
    h = (n + 1) // 2
    assert np.array_equal(odd, fact.q[0::2, :h]) and np.array_equal(even, fact.q[1::2, :h])


def matmul_fold(fact, x):
    # the fold as the @ expressions that transform used before it called ndarray.dot
    odd, even = fact.fold
    a = x[..., 0::2] @ odd
    b = x[..., 1::2] @ even
    y = np.empty(x.shape, dtype=a.dtype)
    h = a.shape[-1]
    np.subtract(a, b, out=y[..., ::-1][..., :h])
    np.add(a, b, out=y[..., :h])
    return y


@pytest.mark.parametrize("n", [50, 200, 601])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_transform_is_the_matmul_bit_for_bit(n, r):
    # ndarray.dot hands BLAS the operands @ does, so a step's bits do not
    # depend on which of the two transform calls: dense below N_FOLD, the
    # fold from there on, for every row count a step makes and a lone vector
    fact = factorize(build_operator("wave", n, 1.0))
    assert (fact.dense is None) == (n >= N_FOLD)
    rng = np.random.default_rng(100 * n + r)
    for x in (rng.standard_normal((r, n)), rng.standard_normal(n)):
        want = x @ fact.dense if fact.dense is not None else matmul_fold(fact, x)
        assert fact.transform(x).tobytes() == want.tobytes()


def placed_at(a, offset):
    # a copy of the Fortran-ordered view a whose data starts at offset mod 64
    c = np.ascontiguousarray(a.T)
    buf = np.empty(c.nbytes + 64, dtype=np.uint8)
    start = (offset - buf.ctypes.data) % 64
    out = buf[start : start + c.nbytes].view(np.float64).reshape(c.shape)
    out[...] = c
    assert out.ctypes.data % 64 == offset
    return out.T


@pytest.mark.parametrize("n", [8, 50, 200, N_FOLD - 1, N_FOLD, 601])
def test_operator_storage_is_cache_line_aligned(n):
    # numpy's own n^2 arrays start 16 bytes past a page boundary; factorize
    # places Q, both fold blocks and a lazily built q on a 64-byte boundary
    fact = factorize(build_operator("wave", n, 1.0))
    held = [fact.dense] if fact.dense is not None else list(fact.fold)
    assert (len(held) == 1) == (n < N_FOLD)
    for a in [*held, fact.q]:
        assert a.ctypes.data % 64 == 0 and a.flags.f_contiguous
    # alignment moves time, not bits: copies at 16 mod 64 give the same bytes
    if fact.dense is not None:
        misaligned = SpectralFactorization(fact.lam, placed_at(fact.dense, 16), ())
    else:
        misaligned = SpectralFactorization(fact.lam, None, tuple(placed_at(b, 16) for b in fact.fold))
    rng = np.random.default_rng(7 * n)
    for r in (1, 2, 3, 4):
        for x in (rng.standard_normal((r, n)), rng.standard_normal(n)):
            assert fact.transform(x).tobytes() == misaligned.transform(x).tobytes()


def test_folded_solve_never_builds_q():
    preset = load_preset("beam1")
    prop = build_propagator(build_operator("beam", N_FOLD, 1.0), preset.spec)
    solve(prop, build_tableau("EI-K4"), preset.spec, 4, snapshot_every=2)
    assert "q" not in vars(prop.fact)


def closed_form_eigenvalues(kind, n):
    dx = 1.0 / (n + 1)
    lam = 4.0 / dx**2 * np.sin(np.arange(1, n + 1) * math.pi / (2 * (n + 1))) ** 2
    return lam if kind == "wave" else lam**2


@pytest.mark.parametrize("kind", ["wave", "beam"])
@pytest.mark.parametrize("n", [300, 600])
def test_per_mode_eigenvalue_error(kind, n):
    # relative to each eigenvalue, not to max |lam|: the smooth beam modes
    # are the ones a general eigensolver loses
    fact = factorize(build_operator(kind, n, 1.0))
    exact = closed_form_eigenvalues(kind, n)
    rel = np.abs(fact.lam - exact) / exact
    assert np.max(rel) <= 1e-12, f"worst mode {np.argmax(rel) + 1}: {np.max(rel):.2e}"


@pytest.mark.parametrize("j", [1, 2, 7])
def test_single_mode_evolves_by_its_block(j):
    # F = 0: sin(j*pi*x) is the j-th eigenvector, so exp(tA) acts on it as
    # the scalar 2x2 exponential of mode j
    n, t = 300, 0.75
    spec = ProblemSpec(alpha=15.0, beta=3e-6, gamma=3e-4, delta=10.0)
    prop = build_propagator(build_operator("beam", n, 1.0), spec)
    u0 = np.sin(j * math.pi * grid_points(n, 1.0))
    out = apply_phi(prop, 0, t, StateVector(u0, np.zeros(n)))
    blk = phi_block(0, t, classify_mode(prop.modes.lam[j - 1], *prop.params))
    assert np.max(np.abs(out.u - blk[0, 0] * u0)) <= 1e-12
    assert np.max(np.abs(out.w - blk[1, 0] * u0)) <= 1e-12 * max(1.0, abs(blk[1, 0]))
