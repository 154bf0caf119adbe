"""Grids, FFT convolution against direct sums, adaptive quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fatkpp.errors import (GridMismatch, InvalidParams, NoConvergence)
from fatkpp.gridops import (DiscreteKernel, Field, Grid1D, adaptive_integrate,
                            discretize_kernel, invert_monotone)
from fatkpp.kernels import KernelSpec, build_kernel
from fatkpp.propagation import phi_envelope


@pytest.fixture(scope="module")
def poly4():
    return build_kernel(KernelSpec("Polynomial", alpha=4.0))


# ----------------------------------------------------------------------
# Grid1D / Field basics


def test_grid_nodes():
    g = Grid1D(L=10.0, N=32)
    assert g.dx == 20.0 / 32
    assert g.x[0] == -10.0
    assert g.x[g.N // 2] == 0.0
    assert len(g.x) == 32


@pytest.mark.parametrize("N", [0, 8, 17, 100, -32])
def test_grid_rejects_bad_sizes(N):
    with pytest.raises(InvalidParams):
        Grid1D(L=1.0, N=N)


def test_grid_rejects_bad_length():
    with pytest.raises(InvalidParams):
        Grid1D(L=0.0, N=32)


def test_field_shape_checked():
    g = Grid1D(L=1.0, N=16)
    with pytest.raises(GridMismatch):
        Field(g, np.zeros(17))
    with pytest.raises(InvalidParams):
        Field(g, np.array([np.nan] * 16))


# ----------------------------------------------------------------------
# adaptive quadrature


def test_quadrature_exponential():
    val = adaptive_integrate(lambda h: math.exp(-h), 0.0, math.inf)
    assert abs(val - 1.0) <= 1e-8


def test_quadrature_polynomial_mass(poly4):
    """2 int_0^inf (1+x^2)^{-5/2} dx = 4/3, using the analytic tail bound."""
    val = adaptive_integrate(
        lambda h: (1 + h * h) ** -2.5, 0.0, math.inf,
        tail=lambda R: math.exp(poly4.log_tail(R)))
    assert abs(2 * val - 4.0 / 3.0) < 1e-10


def test_quadrature_slow_tail():
    val = adaptive_integrate(
        lambda h: (1 + h) ** -2.0, 0.0, math.inf,
        tail=lambda R: 1.0 / (1.0 + R))
    assert abs(val - 1.0) < 1e-8


def test_quadrature_finite_interval():
    val = adaptive_integrate(math.sin, 0.0, math.pi)
    assert abs(val - 2.0) < 1e-10


def test_quadrature_divergent_raises():
    with pytest.raises(NoConvergence):
        adaptive_integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_invert_monotone_cubic():
    root = invert_monotone(lambda x: x ** 3, 27.0, lo=0.0)
    assert abs(root - 3.0) < 1e-9


def test_invert_monotone_below_range():
    with pytest.raises(InvalidParams):
        invert_monotone(lambda x: 1.0 + x, 0.5, lo=0.0, hi=10.0)


# ----------------------------------------------------------------------
# discrete kernels and convolution


def test_sampled_mass_exactly_one(poly4):
    g = Grid1D(L=50.0, N=1024)
    dk = discretize_kernel(poly4, g)
    assert dk.samples.sum() == 1.0
    assert dk.lost_mass <= 1e-6


def test_sampled_weights_symmetric(poly4):
    g = Grid1D(L=50.0, N=1024)
    dk = discretize_kernel(poly4, g)
    assert np.all(dk.samples == dk.samples[::-1])
    assert np.all(dk.samples >= 0.0)


def test_half_support_capped(poly4):
    g = Grid1D(L=2.0, N=64)
    dk = discretize_kernel(poly4, g, tail_tol=1e-12)
    assert dk.K * g.dx <= 2 * g.L + g.dx
    assert dk.lost_mass > 0.0


def test_convolve_delta_reproduces_weights(poly4):
    """J * (delta/dx) sampled on the grid is the weight row back again."""
    g = Grid1D(L=50.0, N=512)
    dk = discretize_kernel(poly4, g)
    j = g.N // 2
    v = np.zeros(g.N)
    v[j] = 1.0 / g.dx
    out = dk.apply(v)
    M = len(dk.samples)
    Kh = M // 2
    expect = np.zeros(g.N)
    expect[j - Kh:j + Kh + 1] = dk.samples / g.dx
    np.testing.assert_allclose(out, expect, atol=1e-12 / g.dx)


def test_convolve_constant_is_constant(poly4):
    g = Grid1D(L=100.0, N=2048)
    dk = discretize_kernel(poly4, g)
    out = dk.apply(np.ones(g.N))
    M = len(dk.samples)
    Kh = M // 2
    interior = out[Kh:g.N - Kh]
    assert np.max(np.abs(interior - 1.0)) < 1e-12
    # zero padding only ever removes mass
    assert np.all(out <= 1.0 + 1e-12)


def test_fft_matches_direct_sum(poly4):
    """100 random fields on small grids: FFT result equals the literal
    zero-padded sum computed by np.convolve, to 1e-10 in max norm."""
    rng = np.random.default_rng(7)
    for trial in range(100):
        N = int(rng.choice([64, 256, 1024, 2048]))
        L = float(rng.uniform(5.0, 80.0))
        g = Grid1D(L=L, N=N)
        dk = discretize_kernel(poly4, g)
        v = rng.uniform(0.0, 1.0, size=N)
        fft_out = dk.apply(v)
        # literal zero-padded sum; same slice of the full convolution
        direct = np.convolve(v, dk.samples)[dk.K:dk.K + N]
        assert np.max(np.abs(fft_out - direct)) <= 1e-10


@pytest.fixture(scope="module")
def front_dk(poly4):
    """The front workload's grid: K=406 cells, overlap-save in 10 blocks."""
    return discretize_kernel(poly4, Grid1D(L=1000.0, N=2 ** 15))


def test_blocked_matches_direct_sum(front_dk):
    dk = front_dk
    assert dk._nb == 10
    v = np.random.default_rng(11).uniform(0.0, 1.0, size=dk.grid.N)
    direct = np.convolve(v, dk.samples)[dk.K:dk.K + dk.grid.N]
    assert np.max(np.abs(dk.apply(v) - direct)) <= 1e-10


def test_blocked_resolves_the_deep_tail(poly4, front_dk):
    """phi(t=0.001) falls to ~1e-15 of its peak at the edges; blocks keep
    the relative error small there, where one global transform gives
    about 2e-2."""
    dk, g = front_dk, front_dk.grid
    phi = phi_envelope(poly4, 0.001, g.x)
    direct = np.convolve(phi, dk.samples)[dk.K:dk.K + g.N]
    assert np.max(np.abs(dk.apply(phi) - direct) / direct) <= 1e-4


@pytest.mark.parametrize("L, N, K, nb", [(1000.0, 2 ** 15, 4680, 1),
                                          (4000.0, 2 ** 18, 9360, 5)])
def test_block_count_of_wide_kernels(L, N, K, nb):
    """The snapshots workload's kernel takes one block: 8K-blocks would be
    two.  On the wider grid of the boundary-contamination setup they are
    five, and blocks are used."""
    k = build_kernel(KernelSpec("SubExponential", alpha=0.5))
    dk = discretize_kernel(k, Grid1D(L=L, N=N))
    assert (dk.K, dk._nb) == (K, nb)


def test_apply_returns_fresh_arrays(front_dk):
    dk = front_dk
    rng = np.random.default_rng(3)
    v, w = rng.random(dk.grid.N), rng.random(dk.grid.N)
    v0 = v.copy()
    a = dk.apply(v)
    a0 = a.copy()
    b = dk.apply(w)
    assert np.array_equal(v, v0)
    assert np.array_equal(a, a0)
    assert not np.shares_memory(a, b)
    assert not np.shares_memory(a, v)


def _random_dk(L, N, K):
    g = Grid1D(L=L, N=N)
    w = np.random.default_rng(K).random(2 * K + 1)
    return DiscreteKernel(g, w, lost_mass=0.0)


@pytest.mark.parametrize("make, K, nb, B", [
    # the snapshots workload's kernel: one block
    (lambda: discretize_kernel(build_kernel(KernelSpec(
        "SubExponential", alpha=0.5)), Grid1D(L=1000.0, N=2 ** 15)),
     4680, 1, 43200),
    # the front workload's: 10 blocks, the last one partial
    (lambda: discretize_kernel(build_kernel(KernelSpec(
        "Polynomial", alpha=4.0)), Grid1D(L=1000.0, N=2 ** 15)),
     406, 10, 4096),
    # blocks of a length that is no power of two: 4, the last partial
    (lambda: _random_dk(100.0, 2 ** 14, 700), 700, 4, 5625),
    # one block whose kept columns are exactly the grid
    (lambda: _random_dk(100.0, 2 ** 14, 1808), 1808, 1, 20000),
])
def test_apply_into_out_matches_fresh_result(make, K, nb, B):
    dk = make()
    assert (dk.K, dk._nb, dk._P) == (K, nb, B)
    v = np.random.default_rng(8).random(dk.grid.N)
    v0 = v.copy()
    buf = np.full(dk.grid.N, np.nan)
    got = dk.apply(v, out=buf)
    assert got is buf
    assert np.array_equal(buf, dk.apply(v))
    assert np.array_equal(v, v0)
    assert not np.shares_memory(buf, v)


def test_convolve_preserves_symmetry(poly4):
    g = Grid1D(L=30.0, N=1024)
    dk = discretize_kernel(poly4, g)
    v = np.exp(-np.abs(g.x))
    out = dk.apply(v)
    # the grid has no +L node, so the mirror of node i>=1 is node N-i
    assert np.max(np.abs(out[1:] - out[1:][::-1])) <= 1e-12


def test_degenerate_delta_kernel_is_identity():
    g = Grid1D(L=5.0, N=64)
    dk = DiscreteKernel(g, np.array([0.0, 1.0, 0.0]), lost_mass=0.0)
    v = np.sin(g.x) ** 2
    np.testing.assert_allclose(dk.apply(v), v, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(v=arrays(np.float64, 128, elements=st.floats(0.0, 1.0)))
def test_convolution_monotone_in_data(v):
    """Nonnegative weights make J* order preserving: v <= w pointwise
    implies J*v <= J*w pointwise (up to roundoff)."""
    g = _PROP_GRID
    dk = _PROP_DK
    w = np.minimum(v + 0.25, 1.0)
    assert np.all(dk.apply(v) <= dk.apply(w) + 1e-12)


_PROP_GRID = Grid1D(L=20.0, N=128)
_PROP_DK = discretize_kernel(
    build_kernel(KernelSpec("Polynomial", alpha=4.0)), _PROP_GRID)
