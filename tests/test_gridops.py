"""Grids, FFT convolution against direct sums, adaptive quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fatkpp.errors import (GridMismatch, InvalidParams, NoConvergence)
from fatkpp.gridops import (DiscreteKernel, Field, Grid1D, _passes,
                            adaptive_integrate, block_len, discretize_kernel,
                            fast_len, invert_monotone)
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


# 2^50 and 2^64 nodes lie beyond any address space: nothing is allocated
@pytest.mark.parametrize("N", [0, 8, 17, 100, -32, 2 ** 50, 2 ** 64])
def test_grid_rejects_bad_sizes(N):
    with pytest.raises(InvalidParams):
        Grid1D(L=1.0, N=N)


def test_grid_rejects_bad_length():
    with pytest.raises(InvalidParams):
        Grid1D(L=0.0, N=32)


@pytest.mark.parametrize("L", [1e308, math.nan, math.inf])
def test_grid_refuses_a_spacing_that_is_not_finite(L):
    """2L/N overflows at L = 1e308, which used to give nan nodes."""
    with pytest.raises(InvalidParams):
        Grid1D(L=L, N=16)


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


@pytest.mark.parametrize("family,params", [
    ("Polynomial", dict(alpha=4.0)),
    ("Polynomial", dict(alpha=0.5)),
    ("SubExponential", dict(alpha=0.5)),
    ("LogLinear", dict(beta=3.0)),
    ("LogLinear", dict(beta=1.7)),
    ("PowerShift", dict(b=1.0, alpha=0.5)),
    ("PowerShift", dict(b=0.3, alpha=0.5)),
    ("Gaussian", dict(sigma=1.0)),
])
def test_kernel_mass_matches_quadpack(family, params):
    """Z from the decade panels and certified tail cut agrees with
    QUADPACK's QAGI (scipy.integrate.quad) on the whole half-line."""
    from scipy.integrate import quad
    k = build_kernel(KernelSpec(family, **params))
    half, _ = quad(lambda h: math.exp(-k.f(h)), 0.0, math.inf,
                   epsabs=0.0, epsrel=1e-13, limit=500)
    assert abs(k.Z - 2.0 * half) <= 1e-11 * k.Z


def test_quadrature_slow_tail_without_bound():
    """No tail bound: h = (1 - s)/s leaves (1 + h)^{-1.2} an s^{-0.8}
    singularity at s = 0, which bisection still integrates."""
    val = adaptive_integrate(lambda h: (1.0 + h) ** -1.2, 0.0, math.inf,
                             epsabs=1e-12, epsrel=1e-12)
    assert abs(val - 5.0) <= 1e-10


def test_quadrature_too_slow_tail_without_bound_raises():
    """(1 + h)^{-1.05} leaves an s^{-0.95} singularity: bisection toward
    s = 0 reaches s ~ 1e-162, where s * s underflows, before it meets
    1e-12.  That is NoConvergence, not a division by zero."""
    with pytest.raises(NoConvergence, match="1/s\\^2 overflows"):
        adaptive_integrate(lambda h: (1.0 + h) ** -1.05, 0.0, math.inf,
                           epsabs=1e-12, epsrel=1e-12)


def test_quadrature_nan_integrand_raises():
    with pytest.raises(NoConvergence):
        adaptive_integrate(lambda x: math.nan, 0.0, 1.0)


def test_invert_monotone_relative_tolerance():
    root = invert_monotone(lambda x: x, 1e6)
    assert abs(root - 1e6) <= 1e-10 * 1e6


def test_invert_monotone_cubic():
    root = invert_monotone(lambda x: x ** 3, 27.0)
    assert abs(root - 3.0) < 1e-9


def test_invert_monotone_below_range():
    with pytest.raises(InvalidParams):
        invert_monotone(lambda x: 1.0 + x, 0.5)


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
    dk = discretize_kernel(poly4, g)
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
    """The front workload's grid: K=406 cells, overlap-save in 8 blocks."""
    return discretize_kernel(poly4, Grid1D(L=1000.0, N=2 ** 15))


def test_blocked_matches_direct_sum(front_dk):
    dk = front_dk
    assert dk._nb == 8
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


def test_fast_len_is_scipys_real_fast_length():
    from scipy.fft import next_fast_len
    assert [fast_len(n) for n in range(1, 5000)] == \
        [next_fast_len(n, real=True) for n in range(1, 5000)]


# every 5-smooth number up to 3e6, by brute force
_SMOOTH = sorted(2 ** i * 3 ** j * 5 ** k for i in range(22)
                 for j in range(14) for k in range(10)
                 if 2 ** i * 3 ** j * 5 ** k <= 3_000_000)


def test_passes_count_pocketffts_radix_passes():
    """One pass per factor 4, then one per factor 2, 3 or 5 left."""
    assert [_passes(m) for m in (1, 2, 4, 8, 39366, 40000, 4608, 4800)] \
        == [0, 1, 1, 2, 10, 7, 7, 6]


def test_block_len_is_the_cheapest_near_fast_len():
    """The cheapest 5-smooth m in [fast_len(n), 1.05 fast_len(n)] by
    m * passes(m), where it costs at least 10% less than fast_len(n)."""
    rng = np.random.default_rng(20)
    for n in list(range(1, 3000)) + rng.integers(3000, 2_800_000,
                                                 300).tolist():
        base = fast_len(n)
        m = block_len(n)
        assert m in _SMOOTH and n <= base <= m and 20 * m <= 21 * base
        assert m * _passes(m) <= base * _passes(base)
        best = min((c * _passes(c), c) for c in _SMOOTH
                   if base <= c and 20 * c <= 21 * base)
        assert m == (best[1] if 10 * best[0] <= 9 * base * _passes(base)
                     else base), n


@pytest.mark.parametrize("n, fast, B", [
    (39258, 39366, 40000),          # crossval eps=0.4: 2*3^9 -> 4^3 5^4
    (5400, 5400, 5625),             # crossval eps=0.2
    (4532, 4608, 4800),             # crossval eps=0.1
    (4908, 5000, 5000),             # front
    (42128, 43200, 43200),          # snapshots; 46875 is past a cache cliff
    (43142, 43200, 43200),          # Tier-1 front fixture
    (2696188, 2700000, 2700000),    # criterion 6; 2812500 measured slower
])
def test_block_len_of_the_known_kernels(n, fast, B):
    assert (fast_len(n), block_len(n)) == (fast, B)


def _scipy_apply(dk, v):
    """DiscreteKernel.apply's overlap-save, transformed by scipy.fft."""
    from scipy import fft as sfft
    K, N, B, nb = dk.K, dk.grid.N, dk._P, dk._nb
    tile = N // nb
    buf = np.zeros(N - tile + B)
    buf[K:K + N] = v
    blocks = np.lib.stride_tricks.sliding_window_view(buf, B)[::tile]
    F = sfft.rfft(blocks, axis=1)
    F *= sfft.rfft(dk.samples, B)
    return sfft.irfft(F, B, axis=1)[:, 2 * K:2 * K + tile].ravel()


@pytest.mark.parametrize("family, params, L, nb", [
    ("Polynomial", dict(alpha=4.0), 1000.0, 8),
    ("SubExponential", dict(alpha=0.5), 1000.0, 1),
])
def test_apply_is_bit_identical_to_scipy_fft(family, params, L, nb):
    """numpy's pocketfft gives the same bits as scipy.fft on a blocked
    kernel (the front workload's) and on a one-block kernel."""
    k = build_kernel(KernelSpec(family, **params))
    dk = discretize_kernel(k, Grid1D(L=L, N=2 ** 15))
    assert dk._nb == nb
    v = np.random.default_rng(5).uniform(0.0, 1.0, size=dk.grid.N)
    assert np.array_equal(dk.apply(v), _scipy_apply(dk, v))


@pytest.mark.parametrize("L, N, K, nb", [(1000.0, 2 ** 15, 4680, 1),
                                          (4000.0, 2 ** 18, 9360, 4)])
def test_block_count_of_wide_kernels(L, N, K, nb):
    """The snapshots workload's kernel takes one block: two tiles of its
    grid would be shorter than 6K.  On the wider grid of the
    boundary-contamination setup the grid is cut into four."""
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
    # the front workload's: 8 blocks
    (lambda: discretize_kernel(build_kernel(KernelSpec(
        "Polynomial", alpha=4.0)), Grid1D(L=1000.0, N=2 ** 15)),
     406, 8, 5000),
    # blocks of a length that is no power of two: 2
    (lambda: _random_dk(100.0, 2 ** 14, 700), 700, 2, 10000),
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


@pytest.mark.parametrize("N, K", [
    (16, 3), (16, 8), (16, 20),             # one block; K >= N/2 in two
    (2 ** 14, 700), (2 ** 14, 1808),
    (2 ** 15, 406), (2 ** 15, 4680),        # front, snapshots
    (2 ** 18, 218), (2 ** 18, 652), (2 ** 18, 3245),    # crossval
    (2 ** 18, 9360),                        # boundary contamination
])
def test_one_block_rule(N, K):
    """nb equal tiles of at least max(6K, 3072) nodes, or the whole grid
    where it is shorter, each in a block that holds it and 2K more."""
    dk = _random_dk(100.0, N, K)
    nb, B = dk._nb, dk._P
    tile = N // nb
    assert nb & (nb - 1) == 0 and nb * tile == N
    assert tile >= min(N, max(6 * K, 3072))
    assert nb == 1 or tile < 2 * max(6 * K, 3072)
    assert B >= tile + 2 * K and dk.reach == B - K
    v = np.random.default_rng(N + K).random(N)
    direct = np.convolve(v, dk.samples)[K:K + N]
    assert np.max(np.abs(dk.apply(v) - direct)) <= 1e-10


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
