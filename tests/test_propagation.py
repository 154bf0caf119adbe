"""Envelopes, residuals, fronts, dilation, and the rescaled potential."""

import math

import numpy as np
import pytest

from fatkpp.cauchy import SimulationRun
from fatkpp.errors import GridMismatch, InvalidParams, OutOfDomain
from fatkpp.gridops import DiscreteKernel, Field, Grid1D, discretize_kernel
from fatkpp.kernels import KernelSpec, build_kernel
from fatkpp.propagation import (envelope_residual, envelope_sandwich_report,
                                hopf_cole_field, phi_envelope, potential_of,
                                read_window, theta1, track_level)


@pytest.fixture(scope="module")
def poly4():
    return build_kernel(KernelSpec("Polynomial", alpha=4.0))


@pytest.fixture(scope="module")
def subexp():
    return build_kernel(KernelSpec("SubExponential", alpha=0.5))


@pytest.fixture(scope="module")
def loglin2():
    return build_kernel(KernelSpec("LogLinear", beta=2.0))


def synthetic_run(kernel, grid, times, fn):
    """A SimulationRun whose snapshots are analytic fields, no dynamics."""
    snaps = [(t, Field(grid, fn(t, grid.x))) for t in times]
    return SimulationRun(snaps, kernel, grid, {}, {}, False)


# ----------------------------------------------------------------------
# phi envelope


def test_phi_values(poly4):
    assert phi_envelope(poly4, 0.0, 0.0) == 0.5
    # the level 1/2 sits exactly where f(x) = t
    for t in (1.0, 7.0):
        x = poly4.f_inv(t)
        assert abs(phi_envelope(poly4, t, x) - 0.5) < 1e-12
    # saturation at fixed x
    for x in (0.0, 3.0, 40.0):
        gap = 1.0 - phi_envelope(poly4, 100.0, x)
        assert gap <= math.exp(poly4.f(x) - 100.0) + 1e-300


def test_phi_is_the_logistic_without_overflow(poly4):
    """phi is expit(t - f) to one rounding, and where t - f = -1000 it is
    exactly 0 with no overflow warning."""
    from scipy.special import expit
    xs = np.linspace(-60.0, 60.0, 2001)
    for t in (0.5, 5.0, 30.0):
        np.testing.assert_allclose(phi_envelope(poly4, t, xs),
                                   expit(t - poly4.f(xs)),
                                   rtol=4e-16, atol=0.0)
    with np.errstate(all="raise"):
        assert phi_envelope(poly4, 2.0, poly4.f_inv(1002.0)) == 0.0


def test_phi_is_even(poly4):
    xs = np.linspace(0.1, 50, 23)
    assert np.all(phi_envelope(poly4, 3.0, xs)
                  == phi_envelope(poly4, 3.0, -xs))


# ----------------------------------------------------------------------
# theta1 / regions


def test_theta1_decays(poly4, subexp):
    for k in (poly4, subexp):
        assert theta1(k, 100.0) < theta1(k, 10.0)
        assert theta1(k, 10.0) < theta1(k, 1.0)


def test_theta1_closed_form_large_t(poly4):
    """For t large the transient term dies and theta1 = f'(f_inv(t/2))."""
    t = 200.0
    expect = poly4.f_prime(poly4.f_inv(0.5 * t))
    assert abs(theta1(poly4, t) - expect) < 1e-12


def test_gradient_bound_of_envelope(poly4, subexp):
    """|d_x phi| = f'(|x|) phi (1-phi) <= theta1(t) phi, checked on a wide
    sample; this is the pointwise inequality the sandwich rests on."""
    for k in (poly4, subexp):
        for t in (5.0, 20.0):
            th = theta1(k, t)
            x = np.geomspace(1e-3, 1e6, 10_000)
            phi = phi_envelope(k, t, x)
            grad = k.f_prime(x) * phi * (1.0 - phi)
            assert np.max(grad - th * phi) <= 1e-10


def test_regions_preserved_by_dilation(poly4, loglin2):
    """The long range f(|x|) >= t maps onto f(|y|) >= t/eps."""
    for k in (poly4, loglin2):
        for t in (2.0, 9.0):
            for x in (0.5, 1.0, k.f_inv(t), 3 * k.f_inv(t)):
                assert ((k.f(abs(x)) >= t)
                        == (k.f(abs(k.dilate(x, 0.25))) >= t / 0.25))


# ----------------------------------------------------------------------
# dilation map


def test_dilation_polynomial_closed_form(poly4):
    """Psi_eps(x) = sqrt((1+x^2)^{1/eps} - 1) for this family."""
    assert abs(poly4.dilate(1.0, 0.5) - math.sqrt(3.0)) < 1e-12
    xs = np.array([0.3, 2.0, 11.0])
    expect = np.sqrt((1 + xs ** 2) ** 2.0 - 1.0)
    np.testing.assert_allclose(poly4.dilate(xs, 0.5), expect, rtol=1e-12)


def test_dilation_identity_and_oddness(poly4):
    xs = np.linspace(-40, 40, 17)
    np.testing.assert_array_equal(poly4.dilate(xs, 1.0), xs)
    np.testing.assert_allclose(poly4.dilate(-xs, 0.3), -poly4.dilate(xs, 0.3),
                               rtol=0, atol=0.0)
    assert poly4.dilate(0.0, 0.3) == 0.0


def test_dilation_roundtrip(poly4, subexp, loglin2):
    xs = np.geomspace(1e-3, 1e4, 60)
    for k in (poly4, subexp, loglin2):
        for eps in (0.5, 0.1):
            back = k.contract(k.dilate(xs, eps), eps)
            assert np.max(np.abs(back - xs) / xs) < 1e-8


def test_dilation_identity_on_f(poly4, subexp):
    """eps * f(Psi_eps(x)) = f(x): regions rescale exactly."""
    xs = np.geomspace(1e-2, 1e3, 50)
    for k in (poly4, subexp):
        lhs = 0.2 * k.f(np.abs(k.dilate(xs, 0.2)))
        assert np.max(np.abs(lhs - k.f(xs)) / (1.0 + k.f(xs))) <= 1e-8


def test_dilation_rejects_bad_eps(poly4):
    g = Grid1D(L=50.0, N=256)
    run = synthetic_run(poly4, g, [1.0],
                        lambda t, x: phi_envelope(poly4, t, x))
    for eps in (0.0, -0.2, 1.5):
        with pytest.raises(InvalidParams):
            hopf_cole_field(run, eps, x_span=(0.0, 1.0), t_span=(0.0, 1.0))


# ----------------------------------------------------------------------
# envelope residual


def test_residual_zero_for_delta_kernel(poly4):
    g = Grid1D(L=100.0, N=2048)
    delta = DiscreteKernel(g, np.array([0.0, 1.0, 0.0]), lost_mass=0.0)
    assert envelope_residual(poly4, g, 5.0, dk=delta) <= 1e-7


def test_residual_decays_in_time(poly4):
    g = Grid1D(L=2000.0, N=16384)
    dk = discretize_kernel(poly4, g)
    r5 = envelope_residual(poly4, g, 5.0, dk=dk)
    r30 = envelope_residual(poly4, g, 30.0, dk=dk)
    assert 0.0 < r30 < r5


@pytest.mark.parametrize("N, nb", [(2 ** 12, 1), (2 ** 14, 4)])
def test_residual_matches_direct_sums_in_the_deep_tail(subexp, N, nb):
    """phi(1, x) falls to ~1e-26 at the innermost residual node on L=4000.
    Read verbatim from one transform, |conv - phi| / phi is ~4e8 of noise
    there; the residual must still be the sup of exact window sums."""
    g = Grid1D(L=4000.0, N=N)
    dk = discretize_kernel(subexp, g)
    assert dk._nb == nb
    K = dk.K
    phi = phi_envelope(subexp, 1.0, g.x)
    exact = np.convolve(phi, dk.samples)[2 * K:N]
    want = np.max(np.abs(exact - phi[K:N - K]) / phi[K:N - K])
    assert envelope_residual(subexp, g, 1.0, dk=dk) == pytest.approx(
        want, rel=1e-9)


def test_residual_rejects_oversized_kernel(poly4):
    g = Grid1D(L=3.0, N=32)
    with pytest.raises(InvalidParams):
        envelope_residual(poly4, g, 5.0, dk=discretize_kernel(poly4, g))


def test_sandwich_clean_on_exact_envelope(poly4):
    """When n IS the envelope, the sandwich holds with zero slack used."""
    g = Grid1D(L=400.0, N=4096)
    run = synthetic_run(poly4, g, [1.0, 5.0, 10.0],
                        lambda t, x: phi_envelope(poly4, t, x))
    rows = envelope_sandwich_report(run, discretize_kernel(poly4, g), C=1.0)
    assert len(rows) == 3
    for t, th, lo_vio, hi_vio in rows:
        assert th > 0.0
        assert lo_vio == 0.0
        assert hi_vio == 0.0


def test_sandwich_rejects_kernel_of_another_grid(poly4):
    g = Grid1D(L=400.0, N=4096)
    run = synthetic_run(poly4, g, [1.0],
                        lambda t, x: phi_envelope(poly4, t, x))
    other = discretize_kernel(poly4, Grid1D(L=400.0, N=2048))
    with pytest.raises(GridMismatch):
        envelope_sandwich_report(run, other, C=1.0)


# ----------------------------------------------------------------------
# front tracking


def test_track_level_on_exact_envelope(poly4):
    g = Grid1D(L=300.0, N=8192)
    ts = [2.0, 5.0, 9.0]
    run = synthetic_run(poly4, g, ts,
                        lambda t, x: phi_envelope(poly4, t, x))
    tr = track_level(run, 0.5)
    assert tr.level == 0.5
    for t, x_half, pred in zip(tr.times, tr.positions, tr.predicted):
        assert abs(pred - poly4.f_inv(t)) < 1e-12
        assert abs(x_half - pred) < 0.01        # linear-interp error only
    assert np.all(np.diff(tr.positions) > 0)


def test_track_level_no_crossing_is_nan(poly4):
    g = Grid1D(L=50.0, N=256)
    run = synthetic_run(poly4, g, [1.0],
                        lambda t, x: np.full_like(x, 0.3))
    tr = track_level(run, 0.5)
    assert math.isnan(tr.positions[0])


def test_track_level_garnier_columns(poly4):
    g = Grid1D(L=50.0, N=256)
    run = synthetic_run(poly4, g, [10.0],
                        lambda t, x: phi_envelope(poly4, t, x))
    tr = track_level(run, 0.5)
    lo = math.sqrt(math.exp(-(-0.8 * 10.0) * (2.0 / 5.0)) - 1.0)
    hi = math.sqrt(math.exp(-(-2.0 * 10.0) * (2.0 / 5.0)) - 1.0)
    assert abs(tr.garnier_lo[0] - lo) < 1e-9 * lo
    assert abs(tr.garnier_hi[0] - hi) < 1e-9 * hi
    assert tr.garnier_hi[0] > tr.garnier_lo[0]


def test_track_level_rejects(poly4):
    g = Grid1D(L=50.0, N=256)
    run = synthetic_run(poly4, g, [1.0],
                        lambda t, x: phi_envelope(poly4, t, x))
    with pytest.raises(InvalidParams):
        track_level(run, 1.5)
    run.contaminated = True
    with pytest.raises(InvalidParams):
        track_level(run, 0.5)


# ----------------------------------------------------------------------
# rescaled potential


def test_hopf_cole_exact_algebra(loglin2):
    """On an exact-envelope run, u_eps = eps ln(1 + e^{(f(x)-t)/eps})
    identically; only x-interpolation error remains."""
    g = Grid1D(L=60.0, N=8192)
    eps = 0.5
    snap_s = [1.0, 2.0, 4.0]                     # slow times 0.5, 1, 2
    run = synthetic_run(loglin2, g, snap_s,
                        lambda t, x: phi_envelope(loglin2, t, x))
    hc = hopf_cole_field(run, eps, x_span=(0.25, 3.0), t_span=(0.4, 2.1))
    assert list(hc.times) == [0.5, 1.0, 2.0]
    f = loglin2.f(np.abs(hc.xs))
    for i, t in enumerate(hc.times):
        expect = eps * np.log1p(np.exp((f - t) / eps))
        np.testing.assert_allclose(hc.u[i], expect, atol=2e-4)
    assert not hc.floored.any()
    np.testing.assert_allclose(
        hc.limit, np.maximum(f[None, :] - hc.times[:, None], 0.0))


def test_hopf_cole_zero_where_saturated(poly4):
    g = Grid1D(L=40.0, N=512)
    run = synthetic_run(poly4, g, [3.0], lambda t, x: np.ones_like(x))
    hc = hopf_cole_field(run, 0.5, x_span=(0.0, 2.0), t_span=(1.0, 2.0))
    assert np.all(hc.u == 0.0)


def test_hopf_cole_out_of_domain(loglin2):
    g = Grid1D(L=50.0, N=512)
    run = synthetic_run(loglin2, g, [4.0],
                        lambda t, x: phi_envelope(loglin2, t, x))
    with pytest.raises(OutOfDomain):
        # Psi_{1/4}(10) = 11^4 - 1 >> 50
        hopf_cole_field(run, 0.25, x_span=(0.0, 10.0), t_span=(0.5, 1.5))


def test_hopf_cole_convergence_on_exact_envelope(loglin2):
    """E(eps) = sup |u_eps - max(f - t, 0)| shrinks along eps: on exact
    envelope data the gap is eps ln 2 at the front line, so halving eps
    halves the error."""
    g = Grid1D(L=4000.0, N=2 ** 16)
    sup = {}
    for eps in (0.4, 0.2, 0.1):
        snaps = [1.0 / eps]                      # slow time 1.0 for each
        run = synthetic_run(loglin2, g, snaps,
                            lambda t, x: phi_envelope(loglin2, t, x))
        # x_hi must keep Psi_eps(x_hi) = (1+x_hi)^{1/eps} - 1 on the grid
        hc = hopf_cole_field(run, eps, x_span=(0.25, 1.2),
                             t_span=(0.9, 1.1))
        sup[eps] = hc.sup_error()
    assert sup[0.4] > sup[0.2] > sup[0.1]
    assert sup[0.1] <= 0.1 * math.log(2.0) + 1e-3


def test_read_window_counts_floored_samples_and_reads_nodes_exactly(poly4):
    """A window density below the 1e-300 log floor is flagged, not hidden,
    and samples at grid nodes read the node values bit for bit."""
    g = Grid1D(L=10.0, N=256)
    vals = np.exp(-np.abs(g.x) - 0.3)
    sel = (g.x >= -5.0) & (g.x <= 5.0)
    vals[np.flatnonzero(sel)[7]] = 1e-310
    run = synthetic_run(poly4, g, [0.5, 1.0], lambda t, x: vals)
    xs = g.x[sel]
    pot = read_window(run, 0.25, xs, xs, [(0.5, 2.0), (1.0, 4.0)])
    assert pot.times.tolist() == [2.0, 4.0]
    assert pot.u.shape == pot.floored.shape == (2, xs.size)
    assert pot.floored.sum(axis=1).tolist() == [1, 1]
    u, floored = potential_of(vals[sel], 0.25)
    assert np.array_equal(pot.u[0], u) and np.array_equal(pot.u[1], u)
    assert np.array_equal(pot.floored[0], floored)
    pot.limit = np.zeros_like(pot.u)
    assert pot.sup_error() == float(np.max(u))
