"""Rescaled kernels: jump map, pushforward identities, rescaled runs."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fatkpp.cauchy import SolverConfig
from fatkpp.errors import (GridTooCoarse, InvalidParams, NonIntegrableTail,
                           NotMutationEligible)
from fatkpp.gridops import Field, Grid1D
from fatkpp.kernels import KernelSpec, build_kernel
from fatkpp.mutation import (_FD_GAPS, MutationKernel, check_resolution,
                             classify_limit_sets, discretize_mutation_kernel,
                             fd_condition, growth_bound,
                             mutation_initial_data, mutation_run)
from fatkpp.propagation import potential_of


@pytest.fixture(scope="module")
def loglin2():
    return build_kernel(KernelSpec("LogLinear", beta=2.0))


@pytest.fixture(scope="module")
def loglin3():
    return build_kernel(KernelSpec("LogLinear", beta=3.0))


@pytest.fixture(scope="module")
def powershift():
    return build_kernel(KernelSpec("PowerShift", b=1.0, alpha=0.5))


# ----------------------------------------------------------------------
# contraction map


def test_contraction_identity_at_one(loglin2):
    hs = np.linspace(-9, 9, 19)
    np.testing.assert_array_equal(loglin2.contract(hs, 1.0), hs)
    np.testing.assert_array_equal(MutationKernel(loglin2, 1.0).m(hs), hs)


def test_contraction_closed_form(loglin2):
    """f_inv(y) = e^{y/2} - 1 here, so m_{1/2}(3) = sqrt(4) - 1 = 1."""
    assert abs(loglin2.contract(3.0, 0.5) - 1.0) < 1e-12
    assert loglin2.contract(0.0, 0.5) == 0.0
    assert MutationKernel(loglin2, 0.5).m(3.0) == loglin2.contract(3.0, 0.5)


def test_contraction_odd_and_contracting(loglin2, powershift):
    hs = np.geomspace(0.01, 100.0, 40)
    for k in (loglin2, powershift):
        for eps in (0.5, 0.1):
            m = k.contract(hs, eps)
            np.testing.assert_allclose(k.contract(-hs, eps), -m)
            assert np.all(np.abs(m) <= hs)


def test_contraction_rejects_ineligible():
    poly = build_kernel(KernelSpec("Polynomial", alpha=4.0))
    with pytest.raises(NotMutationEligible):
        MutationKernel(poly, 0.5)
    sub = build_kernel(KernelSpec("SubExponential", alpha=0.5))
    with pytest.raises(NotMutationEligible):
        MutationKernel(sub, 0.5)


def test_mutation_kernel_rejects_bad_eps(loglin2):
    for eps in (0.0, -0.2, 1.5):
        with pytest.raises(InvalidParams):
            MutationKernel(loglin2, eps)


def test_contraction_compose_scaling(loglin3):
    """f(m_eps(h)) = eps f(h) exactly, the identity everything rides on."""
    hs = np.geomspace(1e-3, 1e5, 60)
    for eps in (0.7, 0.25, 0.05):
        m = loglin3.contract(hs, eps)
        np.testing.assert_allclose(loglin3.f(m), eps * loglin3.f(hs),
                                   rtol=1e-12)


# ----------------------------------------------------------------------
# rescaled density


def test_density_closed_form_loglinear(loglin3):
    """J_eps(h) = ((beta-1)/(2 eps)) (1+h)^{(1-beta)/eps - 1} here."""
    beta = 3.0
    for eps in (0.5, 0.1):
        hs = np.array([0.0, 0.2, 1.0, 7.0])
        expect = ((beta - 1) / (2 * eps)
                  * (1 + hs) ** ((1 - beta) / eps - 1.0))
        np.testing.assert_allclose(MutationKernel(loglin3, eps).J_hat(hs),
                                   expect, rtol=1e-12)


def test_density_eps_one_is_base(loglin2, powershift):
    """At eps = 1 the jump map and its inverse are the identity, so the
    rescaled density and tail are the base ones bit for bit."""
    hs = np.array([0.0, 0.5, 2.0, 40.0])
    for k in (loglin2, powershift):
        mk = MutationKernel(k, 1.0)
        np.testing.assert_array_equal(mk.J_hat(hs), k.J_hat(hs))
        for R in hs[1:]:
            assert mk.tail_bound(R) == k.tail_bound(R)


def test_density_vanishes_far_out_without_warnings(loglin3):
    """Past where exp(-f/eps) underflows, dilate would overflow; J_hat is
    0 there, for scalars and inside arrays, and warns of nothing."""
    mk = MutationKernel(loglin3, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mk.J_hat(1e25) == 0.0 and mk.J_hat(1e31) == 0.0
        got = mk.J_hat(np.array([1.0, 1e31, -1e300]))
    np.testing.assert_array_equal(got, [mk.J_hat(1.0), 0.0, 0.0])


def test_density_origin_limit(loglin2):
    mk = MutationKernel(loglin2, 0.25)
    assert mk.J_hat(0.0) == 1.0 / (loglin2.Z * 0.25)
    np.testing.assert_array_equal(mk.J_hat(np.array([-0.0, 0.0])),
                                  1.0 / (loglin2.Z * 0.25))


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25, 0.1])
def test_mass_one(loglin2, eps):
    mk = MutationKernel(loglin2, eps)
    assert abs(mk.mass() - 1.0) <= 1e-6


def test_mass_one_powershift(powershift):
    mk = MutationKernel(powershift, 0.25)
    assert abs(mk.mass() - 1.0) <= 1e-6


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_f_second_moment_scales(loglin3, eps):
    """int f^2 dJ_eps = eps^2 int f^2 dJhat; the base moment for this
    kernel is 2 int_0^inf ln(1+h)^2 (1+h)^{-3} dh = 1/2... times (beta-1):
    closed form 2*(beta-1)*2/(beta-1)^3 = 4/(beta-1)^2 = 1, no wait:
    int_0^inf ln(1+h)^2 (1+h)^{-3} dh = 2/8 = 1/4, so the two-sided
    normalized moment is 2*(1/Z)*(1/4) = 1/4 * (beta-1) = 0.5? direct
    numerics below keep us honest."""
    base_moment, _ = quad(lambda h: loglin3.f(h) ** 2 * loglin3.J_hat(h),
                          0.0, np.inf)
    base_moment *= 2.0
    mk = MutationKernel(loglin3, eps)
    got = mk.f_second_moment()
    assert abs(got - eps ** 2 * base_moment) <= 1e-4 * eps ** 2 * base_moment


def test_base_f_second_moment_closed_form(loglin3):
    """For f = 3 ln(1+h), Jhat = (1+h)^{-3}: int f^2 dJhat (two-sided)
    = 2 * 9 * int_0^inf ln(1+h)^2 (1+h)^{-3} dh = 18 * (2/2^3) = 4.5."""
    val, _ = quad(lambda h: loglin3.f(h) ** 2 * loglin3.J_hat(h), 0, np.inf)
    assert abs(2 * val - 4.5) < 1e-9


def test_pushforward_identity(loglin2):
    """int g dJ_eps = int g(m_eps(h)) dJhat(h) for g = e^{-y^2}."""
    eps = 0.5
    mk = MutationKernel(loglin2, eps)
    lhs, _ = quad(lambda y: math.exp(-y * y) * mk.J_hat(y), 0, np.inf)
    rhs, _ = quad(lambda h: math.exp(-loglin2.contract(h, eps) ** 2)
                  * loglin2.J_hat(h), 0, np.inf)
    assert abs(lhs - rhs) <= 1e-6


# ----------------------------------------------------------------------
# discretization guard


def test_interquartile_closed_form(loglin3):
    """(1/2)(1 - (1+h)^{-2}) = 1/4 at h = sqrt(2) - 1."""
    assert abs(loglin3.interquartile - (math.sqrt(2.0) - 1.0)) < 1e-8


def test_grid_too_coarse(loglin3):
    mk = MutationKernel(loglin3, 0.05)
    # m_eps(h0) = 2^{eps/2} - 1 ~ 0.0175; dx must be below a quarter of it
    coarse = Grid1D(L=50.0, N=1024)              # dx ~ 0.098
    with pytest.raises(GridTooCoarse):
        discretize_mutation_kernel(mk, coarse)
    fine = Grid1D(L=50.0, N=2 ** 15)             # dx ~ 0.003
    dk = discretize_mutation_kernel(mk, fine)
    assert dk.samples.sum() == 1.0


def test_resolution_rule_is_checked_at_the_smallest_eps(loglin3):
    """m_eps(h0) grows with eps: a grid that resolves eps = 0.1 resolves
    0.25, and one that fails 0.1 can still pass at 0.25."""
    g = Grid1D(L=50.0, N=8192)                   # dx ~ 0.0122
    check_resolution(loglin3, 0.25, g)
    with pytest.raises(GridTooCoarse, match="eps = 0.1"):
        check_resolution(loglin3, 0.1, g)
    check_resolution(loglin3, 0.1, Grid1D(L=50.0, N=16384))


def test_discrete_mutation_kernel_mass_defect(loglin3):
    mk = MutationKernel(loglin3, 0.5)
    g = Grid1D(L=200.0, N=2 ** 14)
    dk = discretize_mutation_kernel(mk, g)
    assert dk.lost_mass <= 1e-6 + 1e-9


# ----------------------------------------------------------------------
# initial data


def test_growth_bound_closed_form(loglin3):
    """r_hat = (beta-1) int_0^inf (1+h)^{-(1-A) beta} dh
    = (beta-1)/((1-A) beta - 1) = 2/1.25 = 1.6 at A=0.25."""
    assert abs(growth_bound(loglin3, 0.25) - 1.6) < 1e-8


def test_growth_bound_rejects_heavy_A(loglin3):
    with pytest.raises(NonIntegrableTail):
        growth_bound(loglin3, 0.8)          # needs A < 2/3


def test_initial_data_default_profile(loglin3):
    g = Grid1D(L=100.0, N=2048)
    u0 = mutation_initial_data(loglin3, g, A=0.25)
    assert u0.grid == g
    np.testing.assert_allclose(u0.values, 0.25 * loglin3.f(np.abs(g.x)))
    assert fd_condition(loglin3, u0, 0.25) <= 1e-8
    n0 = np.exp(-u0.values / 0.1)
    assert n0.max() <= 1.0 and n0.min() >= 0.0
    assert n0[g.N // 2] == 1.0


def test_initial_data_rejects(loglin3):
    g = Grid1D(L=100.0, N=2048)
    with pytest.raises(InvalidParams):
        mutation_initial_data(loglin3, g, A=0.9)


def test_fd_condition_detects_violation(loglin3):
    g = Grid1D(L=100.0, N=2048)
    bad = np.where(g.x > 0, 0.0, 5.0)
    assert fd_condition(loglin3, Field(g, bad), 0.25) > 0.1


def test_fd_condition_reads_one_cell_gaps(loglin3):
    """A one-cell sawtooth of height s = A f(2 dx) on A f(|x|)/2 breaks
    the condition at gaps of one and three cells only: f is subadditive,
    so |u_j - u_i| <= (A/2) f(|h|) + s, which is at most A f(|h|) once
    f(|h|) >= 2s/A, already at 8 cells.  A uniform random pair on 2^18
    nodes has a gap under 8 cells with probability 5e-5."""
    A = 0.25
    g = Grid1D(L=600.0, N=2 ** 18)
    s = A * float(loglin3.f(2.0 * g.dx))
    assert float(loglin3.f(8.0 * g.dx)) >= 2.0 * s / A
    u = 0.5 * A * loglin3.f(np.abs(g.x)) + s * (np.arange(g.N) % 2)
    assert fd_condition(loglin3, Field(g, u), A) > 0.25 * s


def test_fd_condition_reads_gaps_over_half_the_grid(loglin3):
    """The ramp u = c x with c = A f(L)/L breaks the condition only at
    gaps over L, half the grid: f(h)/h falls with h, so c |h| > A f(|h|)
    exactly when |h| > L."""
    A = 0.25
    g = Grid1D(L=600.0, N=2 ** 18)
    c = A * float(loglin3.f(g.L)) / g.L
    assert fd_condition(loglin3, Field(g, c * g.x), A) > 0.1


# ----------------------------------------------------------------------
# rescaled runs


_A = 0.25      # the initial slope of the rescaled runs below


@pytest.fixture(scope="module")
def small_run(loglin3):
    # eps=0.2 needs dx <= m_eps(h0)/4 = (2^{0.1}-1)/4 ~ 0.0179
    g = Grid1D(L=120.0, N=2 ** 14)               # dx ~ 0.0146
    u0 = mutation_initial_data(loglin3, g, A=_A)
    cfg = SolverConfig(dt=0.01, t_end=0.5, snapshot_times=(0.25, 0.5),
                       method="RK4")
    return g, u0, mutation_run(loglin3, 0.2, cfg, u0)


def _potentials(mr):
    """(t, u, floored mask) per snapshot of a rescaled run."""
    return [(t,) + potential_of(fld.values, mr.eps)
            for t, fld in mr.snapshots]


def test_mutation_run_max_principle(small_run):
    g, u0, mr = small_run
    assert np.all(mr.monitors["n_min"] >= -1e-10)
    assert np.all(mr.monitors["n_max"] <= 1.0 + 1e-10)
    assert mr.manifest["eps"] == 0.2


def test_mutation_run_potential_bounds(small_run):
    """-r_hat t <= u(t) - u0 <= t at snapshots (growth/decay bracket)."""
    g, u0, mr = small_run
    r_hat = growth_bound(mr.kernel, _A)
    for t, u, mask in _potentials(mr):
        assert not mask.any()
        diff = u - u0.values
        assert diff.max() <= t + 1e-9
        assert diff.min() >= -r_hat * t - 1e-9


def test_mutation_run_fd_persists(small_run):
    """The decay condition holds at fd_condition's pairs, and at pairs
    anchored on both ends of the band past the outer K cells that
    test_mutation_run_lipschitz reads: nodes K and N-1-K, each paired
    with the nodes fd_condition's geometric gaps away inside the band.
    In the outer K cells the zero exterior inflates u and breaks it."""
    g, u0, mr = small_run
    k = mr.kernel
    K = mr.manifest["kernel_cells"]
    gaps = np.geomspace(1, g.N - 1, _FD_GAPS).round().astype(np.intp)
    i = np.repeat([K, g.N - 1 - K], gaps.size)
    j = np.concatenate([K + gaps, g.N - 1 - K - gaps])
    keep = (j >= K) & (j < g.N - K)
    i, j = i[keep], j[keep]
    bound = -_A * k.f(np.abs(g.x[j] - g.x[i]))
    for t, u, mask in _potentials(mr):
        assert fd_condition(k, Field(g, u), _A) <= 1e-6
        assert np.max(bound + np.abs(u[j] - u[i])) <= 1e-6, t


def test_mutation_run_lipschitz(small_run):
    """Gradient cap holds past the zero-padding band (outer K cells),
    where u is artificially inflated by truncation, not dynamics."""
    g, u0, mr = small_run
    k = mr.kernel
    cap = 1.05 * _A * k.fprime0
    K = mr.manifest["kernel_cells"]
    for t, u, mask in _potentials(mr):
        d = np.abs(np.diff(u)) / g.dx
        lip = d[K:len(d) - K].max()
        assert lip <= cap
        assert lip < k.fprime0 * (1.0 - 1.0 / k.mu)


def test_mutation_run_stationary_at_one(loglin3):
    # eps=0.1 needs dx <= (2^{0.05}-1)/4 ~ 0.0088
    g = Grid1D(L=120.0, N=2 ** 15)
    cfg = SolverConfig(dt=0.01, t_end=0.2, snapshot_times=(0.2,),
                       boundary_guard=2.0)
    mr = mutation_run(loglin3, 0.1, cfg, Field(g, np.zeros(g.N)))
    t, u, mask = _potentials(mr)[-1]
    sel = np.abs(g.x) <= g.L / 2
    assert np.max(u[sel]) <= 1e-6 * 0.1          # n stays 1 centrally


def test_mutation_run_rejects_big_dt(loglin3):
    g = Grid1D(L=120.0, N=2 ** 14)
    u0 = mutation_initial_data(loglin3, g, A=0.25)
    cfg = SolverConfig(dt=0.1, t_end=0.5)
    with pytest.raises(InvalidParams):
        mutation_run(loglin3, 0.1, cfg, u0)


def test_potential_floor_mask():
    vals = np.array([0.5, 1e-310, 0.0])
    u, mask = potential_of(vals, 0.1)
    assert list(mask) == [False, True, True]
    assert u[1] == u[2] == -0.1 * math.log(1e-300)
    assert abs(u[0] + 0.1 * math.log(0.5)) < 1e-15


# ----------------------------------------------------------------------
# limit sets


def test_classify_thresholding(loglin3):
    g = Grid1D(L=50.0, N=512)
    t = 2.0
    u = np.maximum(loglin3.f(np.abs(g.x)) - t, 0.0)
    regions = classify_limit_sets(u, tol=1e-3)
    xb = loglin3.f_inv(t)
    inside = np.abs(g.x) <= xb - 0.5
    outside = np.abs(g.x) >= xb + 0.5
    assert np.all(regions[inside] == "B")
    assert np.all(regions[outside] == "A")
    assert set(regions) <= {"A", "B", "U"}


def test_classify_all_zero():
    u = np.zeros(64)
    regions = classify_limit_sets(u, tol=1e-3)
    assert np.all(regions[2:-2] == "B")
    assert np.all(regions[:2] == "U") and np.all(regions[-2:] == "U")


@pytest.mark.parametrize("mask, want", [
    ("", ""),
    ("1", "U"),
    ("11111", "UUBUU"),
    ("111111", "UUBBUU"),
    ("0000000", "AAAAAAA"),
    ("0111110", "AUUBUUA"),
    ("01111011", "AUUUUAUU"),
    ("011110", "AUUUUA"),
    ("01110", "AUUUA"),
    ("10101", "UAUAU"),
    ("11011111110", "UUAUUBBBUUA"),
    ("1111111111", "UUBBBBBBUU"),
])
def test_classify_erodes_two_cells_by_hand(mask, want):
    """u < tol cells ('1') lose two cells at each end of every run, and
    past either end of the grid counts as u > tol: runs of length 1 to 4
    vanish, a run of 5 keeps its middle cell."""
    u = np.array([0.0 if c == "1" else 1.0 for c in mask])
    assert "".join(classify_limit_sets(u, tol=0.5)) == want
