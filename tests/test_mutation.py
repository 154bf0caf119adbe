"""Rescaled kernels: jump map, pushforward identities, rescaled runs."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fatkpp.cauchy import SolverConfig
from fatkpp.errors import (GridTooCoarse, InvalidParams, NonIntegrableTail,
                           NotMutationEligible)
from fatkpp.gridops import Field, Grid1D
from fatkpp.kernels import KernelSpec, build_kernel
from fatkpp.mutation import (MutationKernel, classify_limit_sets, default_A,
                             discretize_mutation_kernel, fd_condition,
                             growth_bound, interquartile,
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
        MutationKernel(sub, 0.5, jump_map="linearized")


def test_mutation_kernel_rejects_bad_eps_and_map(loglin2):
    for eps in (0.0, -0.2, 1.5):
        with pytest.raises(InvalidParams):
            MutationKernel(loglin2, eps)
    with pytest.raises(InvalidParams):
        MutationKernel(loglin2, 0.5, jump_map="dilation")


def test_linearized_jump_closed_form(loglin3):
    """The control map sends h to sign(h) eps f(|h|)/f'(0)."""
    hs = np.array([-7.0, -0.5, 0.0, 0.2, 3.0])
    mk = MutationKernel(loglin3, 0.2, jump_map="linearized")
    np.testing.assert_allclose(mk.m(hs), np.sign(hs) * 0.2 * 3.0
                               * np.log1p(np.abs(hs)) / 3.0, rtol=1e-14)


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
    hs = np.array([0.0, 0.5, 2.0, 40.0])
    for k in (loglin2, powershift):
        np.testing.assert_allclose(MutationKernel(k, 1.0).J_hat(hs),
                                   k.J_hat(hs), rtol=1e-12)


def test_density_origin_limit(loglin2):
    for jump_map in ("contraction", "linearized"):
        mk = MutationKernel(loglin2, 0.25, jump_map)
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


def test_linearized_density_is_exponential(loglin3):
    """Pushforward under the linearized map is exponential with rate
    (beta-1)/eps for this family."""
    eps = 0.2
    mk = MutationKernel(loglin3, eps, jump_map="linearized")
    hs = np.array([0.0, 0.1, 0.5, 2.0])
    expect = ((3.0 - 1.0) / (2 * eps)) * np.exp(-(3.0 - 1.0) * hs / eps)
    np.testing.assert_allclose(mk.J_hat(hs), expect, rtol=1e-12)
    assert abs(mk.mass() - 1.0) <= 1e-6


# ----------------------------------------------------------------------
# discretization guard


def test_interquartile_closed_form(loglin3):
    """(1/2)(1 - (1+h)^{-2}) = 1/4 at h = sqrt(2) - 1."""
    assert abs(interquartile(loglin3) - (math.sqrt(2.0) - 1.0)) < 1e-8


def test_grid_too_coarse(loglin3):
    mk = MutationKernel(loglin3, 0.05)
    # m_eps(h0) = 2^{eps/2} - 1 ~ 0.0175; dx must be below a quarter of it
    coarse = Grid1D(L=50.0, N=1024)              # dx ~ 0.098
    with pytest.raises(GridTooCoarse):
        discretize_mutation_kernel(mk, coarse)
    fine = Grid1D(L=50.0, N=2 ** 15)             # dx ~ 0.003
    dk = discretize_mutation_kernel(mk, fine)
    assert dk.samples.sum() == 1.0


def test_discrete_mutation_kernel_mass_defect(loglin3):
    mk = MutationKernel(loglin3, 0.5)
    g = Grid1D(L=200.0, N=2 ** 14)
    dk = discretize_mutation_kernel(mk, g)
    assert dk.lost_mass <= 1e-6 + 1e-9


# ----------------------------------------------------------------------
# initial data


def test_default_A_midpoint(loglin3):
    assert default_A(loglin3) == pytest.approx(0.5 * (1 - 1 / 3.0))


def test_growth_bound_closed_form(loglin3):
    """r_hat = (beta-1) int_0^inf (1+h)^{-(1-A) beta} dh
    = (beta-1)/((1-A) beta - 1) = 2/1.25 = 1.6 at A=0.25."""
    assert abs(growth_bound(loglin3, 0.25) - 1.6) < 1e-8


def test_growth_bound_rejects_heavy_A(loglin3):
    with pytest.raises(NonIntegrableTail):
        growth_bound(loglin3, 0.8)          # needs A < 2/3


def test_initial_data_default_profile(loglin3):
    g = Grid1D(L=100.0, N=2048)
    init = mutation_initial_data(loglin3, g, A=0.25)
    assert init.A == 0.25
    np.testing.assert_allclose(init.u0.values,
                               0.25 * loglin3.f(np.abs(g.x)))
    assert fd_condition(loglin3, init.u0, 0.25) <= 1e-8
    n0 = init.n0(0.1)
    assert n0.values.max() <= 1.0 and n0.values.min() >= 0.0
    assert n0.values[g.N // 2] == 1.0


def test_initial_data_rejects(loglin3):
    g = Grid1D(L=100.0, N=2048)
    with pytest.raises(InvalidParams):
        mutation_initial_data(loglin3, g, A=0.9)
    with pytest.raises(InvalidParams):
        mutation_initial_data(loglin3, g, A=0.25,
                              u0_values=np.full(g.N, -1.0))
    # a step profile violates the finite-difference decay condition
    bad = np.where(g.x > 0, 0.0, 5.0)
    with pytest.raises(InvalidParams):
        mutation_initial_data(loglin3, g, A=0.25, u0_values=bad)


def test_fd_condition_detects_violation(loglin3):
    g = Grid1D(L=100.0, N=2048)
    bad = np.where(g.x > 0, 0.0, 5.0)
    assert fd_condition(loglin3, Field(g, bad), 0.25) > 0.1


# ----------------------------------------------------------------------
# rescaled runs


@pytest.fixture(scope="module")
def small_run(loglin3):
    # eps=0.2 needs dx <= m_eps(h0)/4 = (2^{0.1}-1)/4 ~ 0.0179
    g = Grid1D(L=120.0, N=2 ** 14)               # dx ~ 0.0146
    init = mutation_initial_data(loglin3, g, A=0.25)
    cfg = SolverConfig(dt=0.01, t_end=0.5, snapshot_times=(0.25, 0.5),
                       method="RK4")
    return g, init, mutation_run(loglin3, g, 0.2, cfg, init)


def _potentials(mr):
    """(t, u, floored mask) per snapshot of a rescaled run."""
    return [(t,) + potential_of(fld.values, mr.eps)
            for t, fld in mr.run.snapshots]


def test_mutation_run_max_principle(small_run):
    g, init, mr = small_run
    assert np.all(mr.run.monitors["n_min"] >= -1e-10)
    assert np.all(mr.run.monitors["n_max"] <= 1.0 + 1e-10)
    assert mr.run.manifest["eps"] == 0.2


def test_mutation_run_potential_bounds(small_run):
    """-r_hat t <= u(t) - u0 <= t at snapshots (growth/decay bracket)."""
    g, init, mr = small_run
    r_hat = growth_bound(mr.run.kernel, init.A)
    for t, u, mask in _potentials(mr):
        assert not mask.any()
        diff = u - init.u0.values
        assert diff.max() <= t + 1e-9
        assert diff.min() >= -r_hat * t - 1e-9


def test_mutation_run_fd_persists(small_run):
    g, init, mr = small_run
    k = mr.run.kernel
    for t, u, mask in _potentials(mr):
        assert fd_condition(k, Field(g, u), init.A) <= 1e-6


def test_mutation_run_lipschitz(small_run):
    """Gradient cap holds past the zero-padding band (outer K cells),
    where u is artificially inflated by truncation, not dynamics."""
    g, init, mr = small_run
    k = mr.run.kernel
    cap = 1.05 * init.A * k.fprime0
    K = mr.run.manifest["kernel_cells"]
    for t, u, mask in _potentials(mr):
        d = np.abs(np.diff(u)) / g.dx
        lip = d[K:len(d) - K].max()
        assert lip <= cap
        assert lip < k.fprime0 * (1.0 - 1.0 / k.mu)


def test_mutation_run_stationary_at_one(loglin3):
    # eps=0.1 needs dx <= (2^{0.05}-1)/4 ~ 0.0088
    g = Grid1D(L=120.0, N=2 ** 15)
    init = mutation_initial_data(loglin3, g, A=0.25,
                                 u0_values=np.zeros(g.N))
    cfg = SolverConfig(dt=0.01, t_end=0.2, snapshot_times=(0.2,),
                       boundary_guard=2.0)
    mr = mutation_run(loglin3, g, 0.1, cfg, init)
    t, u, mask = _potentials(mr)[-1]
    sel = np.abs(g.x) <= g.L / 2
    assert np.max(u[sel]) <= 1e-6 * 0.1          # n stays 1 centrally


def test_mutation_run_rejects_big_dt(loglin3):
    g = Grid1D(L=120.0, N=2 ** 14)
    init = mutation_initial_data(loglin3, g, A=0.25)
    cfg = SolverConfig(dt=0.1, t_end=0.5)
    with pytest.raises(InvalidParams):
        mutation_run(loglin3, g, 0.1, cfg, init)


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
