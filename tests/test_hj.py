"""Limit Hamiltonian, its quadratic envelope, and the obstacle solver.

The LogLinear family gives closed forms that pin every quadrature here:
with f = beta ln(1+|x|) one has Z = 2/(beta-1), Jhat = ((beta-1)/2)
(1+|x|)^-beta, and

    H(p) = 1 + ((beta-1)/2) int_0^inf ((1+h)^p + (1+h)^-p - 2)(1+h)^-beta dh
         = (beta-1)^2 / ((beta-1)^2 - p^2),            |p| < beta - 1,

so beta = 3 means H(p) = 4/(4-p^2), H'(p) = 8p/(4-p^2)^2, p_max = 2, and
kappa_bounds(A) = (2/(2+A)^3, 2/(2-A)^3) after the substitution
s = ln(1+h) in int_0^inf ln(1+h)^2 (1+h)^{-+A-3} dh.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from fatkpp.errors import (CFLViolation, GradientOutOfRange, GridMismatch,
                           InvalidParams, NonIntegrableTail,
                           NotMutationEligible, ThinTailedKernel,
                           ValidationError)
from fatkpp.gridops import Field, Grid1D
from fatkpp.hj import (Hamiltonian, HJSolution, cross_validate,
                       hamiltonian_profile, inclusion_curves,
                       solve_constrained_hj, zero_set_boundary)
from fatkpp.cauchy import SolverConfig, Trajectory
from fatkpp.kernels import KernelSpec, build_kernel
from fatkpp.mutation import (MutationRun, mutation_initial_data,
                             mutation_run)


@pytest.fixture(scope="module")
def ll3():
    return build_kernel(KernelSpec("LogLinear", beta=3.0))


@pytest.fixture(scope="module")
def H3(ll3):
    return Hamiltonian(ll3)


@pytest.fixture(scope="module")
def Hps():
    return Hamiltonian(build_kernel(KernelSpec("PowerShift", b=1.0,
                                               alpha=0.5)))


def H3_exact(p):
    return 4.0 / (4.0 - p * p)


# ----------------------------------------------------------------------
# Hamiltonian evaluation


def test_pmax_and_table_range(H3):
    assert H3.p_max == pytest.approx(2.0, rel=1e-14)
    assert H3.p_table == pytest.approx(0.96 * 2.0, rel=1e-12)


def test_H_at_zero_exact(H3):
    assert H3.eval_H(0.0) == 1.0
    assert H3.table_eval(0.0) == 1.0


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9, 1.5, 1.9])
def test_H_closed_form(H3, p):
    assert H3.eval_H(p) == pytest.approx(H3_exact(p), rel=1e-9)


def test_H_simpson_oracle(H3):
    """Independent composite-Simpson route at p = 0.5.

    Substituting v = ln(1+h) in the paired integrand gives
    e^{v(p-2)} + e^{-v(p+2)} - 2e^{-2v} on [0, inf); the slowest mode
    decays at rate 3/2, so [0, 40] truncates below 1e-26.
    """
    p = 0.5
    v = np.linspace(0.0, 40.0, 16385)
    integrand = (np.exp(v * (p - 2.0)) + np.exp(-v * (p + 2.0))
                 - 2.0 * np.exp(-2.0 * v))
    oracle = 1.0 + simpson(integrand, x=v)
    assert oracle == pytest.approx(16.0 / 15.0, rel=1e-9)
    assert H3.eval_H(p) == pytest.approx(oracle, rel=1e-7)


def test_H_even(H3):
    for p in (0.3, 1.1, 1.8):
        assert H3.eval_H(p) == H3.eval_H(-p)
    ps = np.array([-1.5, -0.2, 0.2, 1.5])
    vals = H3.table_eval(ps)
    np.testing.assert_array_equal(vals[:2], vals[:1:-1])


def test_H_convex_and_at_least_one(H3):
    ps = np.linspace(-H3.p_table, H3.p_table, 801)
    Hs = H3.table_eval(ps)
    assert np.all(np.diff(Hs, 2) >= -1e-8)
    assert np.all(Hs >= 1.0 - 1e-13)


def test_table_matches_quadrature(H3):
    """The fast table and the adaptive route agree at table nodes."""
    nodes = np.linspace(0.0, H3.p_table, 2049)
    for i in (1, 64, 512, 1500, 2048):
        p = float(nodes[i])
        assert H3.table_eval(p) == pytest.approx(H3.eval_H(p), rel=1e-9)


def test_table_interpolation_between_nodes(H3):
    rng = np.random.default_rng(3)
    ps = rng.uniform(-1.0, 1.0, 64)
    np.testing.assert_allclose(H3.table_eval(ps), H3_exact(ps), atol=1e-6)


@pytest.mark.parametrize("p", [0.5, 0.9, 1.5])
def test_H_prime_fd_vs_analytic(H3, p):
    """Central differences against d/dp of the closed form.

    The analytic value doubles as the derivative-quadrature oracle:
    int_0^inf ln(1+h)((1+h)^p - (1+h)^-p)(1+h)^-3 dh
    = 1/(2-p)^2 - 1/(2+p)^2 = 8p/(4-p^2)^2 for beta = 3.
    """
    exact = 8.0 * p / (4.0 - p * p) ** 2
    assert H3.eval_H_prime(p) == pytest.approx(exact, rel=1e-6)
    assert H3.eval_H_prime(-p) == pytest.approx(-exact, rel=1e-6)


def test_gradient_out_of_range(H3):
    with pytest.raises(GradientOutOfRange):
        H3.eval_H(2.0)
    with pytest.raises(GradientOutOfRange):
        H3.eval_H(-2.5)
    with pytest.raises(GradientOutOfRange):
        H3.table_eval(1.97)
    with pytest.raises(GradientOutOfRange):
        H3.eval_H_prime(2.0 - 1e-7)


def test_rejects_ineligible_kernels():
    with pytest.raises(ThinTailedKernel):
        Hamiltonian(build_kernel(KernelSpec("Gaussian", sigma=1.0)))
    with pytest.raises(NotMutationEligible):
        Hamiltonian(build_kernel(KernelSpec("Polynomial", alpha=4.0)))
    with pytest.raises(NotMutationEligible):
        Hamiltonian(build_kernel(KernelSpec("SubExponential", alpha=0.5)))


def test_table_range_shrinks_near_mu_one():
    """For beta = 1.5 the tilted tail at 96% of p_max decays too slowly
    to certify in double precision, so the table stops short; the
    closed form (beta-1)^2/((beta-1)^2 - p^2) still pins eval_H."""
    H = Hamiltonian(build_kernel(KernelSpec("LogLinear", beta=1.5)))
    assert H.p_max == pytest.approx(0.5, rel=1e-14)
    assert 0.25 * H.p_max <= H.p_table < 0.96 * H.p_max - 1e-12
    assert H.eval_H(0.3) == pytest.approx(0.25 / (0.25 - 0.09), rel=1e-9)
    p = 0.9 * H.p_table
    assert H.table_eval(p) == pytest.approx(0.25 / (0.25 - p * p), abs=1e-5)


def test_powershift_hamiltonian_basics(Hps):
    """mu = inf makes p_max = f'(0) = b*alpha; no closed form, so only
    structure is asserted on this family."""
    assert Hps.p_max == pytest.approx(0.5, rel=1e-12)
    assert Hps.eval_H(0.3) > 1.0
    assert Hps.eval_H(0.3) == Hps.eval_H(-0.3)
    ps = np.linspace(-Hps.p_table, Hps.p_table, 201)
    assert np.all(np.diff(Hps.table_eval(ps), 2) >= -1e-8)


# ----------------------------------------------------------------------
# kappa envelope


def test_kappa_closed_forms(H3):
    kap_lo, kap_hi = H3.kappa_bounds(0.3)
    assert kap_lo == pytest.approx(2.0 / 2.3 ** 3, rel=1e-9)
    assert kap_hi == pytest.approx(2.0 / 1.7 ** 3, rel=1e-9)
    assert 0.0 < kap_lo < kap_hi


def test_kappa_pinch_at_small_A(H3):
    """A -> 0 squeezes both constants onto int (f/f'(0))^2 Jhat = 1/4."""
    kap_lo, kap_hi = H3.kappa_bounds(1e-4)
    assert (kap_hi - kap_lo) / kap_lo <= 1e-3
    assert kap_lo == pytest.approx(0.25, rel=1e-3)
    assert kap_hi == pytest.approx(0.25, rel=1e-3)


def test_kappa_sandwiches_H(H3):
    """1 + kap_lo p^2 <= H(p) <= 1 + kap_hi p^2 at p = A f'(0)/2."""
    A = 0.3
    kap_lo, kap_hi = H3.kappa_bounds(A)
    for p in (0.5 * A * 3.0, A * 3.0):
        Hp = H3.eval_H(p)
        assert 1.0 + kap_lo * p * p <= Hp <= 1.0 + kap_hi * p * p


def test_kappa_rejects(H3, Hps):
    with pytest.raises(InvalidParams):
        H3.kappa_bounds(0.0)
    with pytest.raises(InvalidParams):
        H3.kappa_bounds(0.7)
    # PowerShift(b=1, alpha=0.5): f'(0) = 0.5 and mu = inf, so A = 0.8
    # passes the (0, 1) range test but tilts the tail by e^{1.6 f}
    with pytest.raises(NonIntegrableTail):
        Hps.kappa_bounds(0.8)


def test_hamiltonian_profile(H3):
    ps, Hs, lo, hi = hamiltonian_profile(H3, 0.3, n=101)
    assert ps[0] == pytest.approx(-0.9) and ps[-1] == pytest.approx(0.9)
    inner = slice(1, -1)        # endpoints touch the envelope band edge
    assert np.all(lo[inner] <= Hs[inner] + 1e-12)
    assert np.all(Hs <= hi + 1e-12)


# ----------------------------------------------------------------------
# constrained solver


@pytest.fixture(scope="module")
def cone(H3, ll3):
    g = Grid1D(20.0, 1024)
    u0 = Field(g, 0.3 * ll3.f(np.abs(g.x)))
    sol = solve_constrained_hj(H3, g, u0, 2.0, snapshots=(0.5, 0.52, 2.0))
    return g, u0, sol


def test_constant_data_is_exact(H3):
    """Zero gradient shuts off the flux terms, so every step subtracts
    dt*H(0) = dt exactly and the run reproduces max(c - t, 0)."""
    g = Grid1D(10.0, 64)
    u0 = Field(g, np.full(g.N, 0.7))
    sol = solve_constrained_hj(H3, g, u0, 1.0,
                               snapshots=(0.25, 0.5, 0.69, 0.71, 1.0))
    for t, fld in sol.snapshots:
        np.testing.assert_allclose(fld.values, max(0.7 - t, 0.0),
                                   rtol=0.0, atol=1e-12)
    assert np.all(sol.snapshot_at(1.0).values == 0.0)


def test_zero_data_stays_zero(H3):
    g = Grid1D(10.0, 64)
    sol = solve_constrained_hj(H3, g, Field(g, np.zeros(g.N)), 2.0,
                               snapshots=(1.0, 2.0))
    for _, fld in sol.snapshots:
        assert np.all(fld.values == 0.0)


def test_cone_obstacle_and_decay(cone):
    g, u0, sol = cone
    for _, fld in sol.snapshots:
        assert np.all(fld.values >= 0.0)
    u_half = sol.snapshot_at(0.5).values
    u_two = sol.snapshot_at(2.0).values
    assert np.all(u_half <= u0.values + 1e-12)
    assert np.all(u_two <= u_half + 1e-12)


def test_cone_lipschitz_nonincreasing(cone):
    g, u0, sol = cone
    lip = sol.meta["lip0"]
    for _, fld in sol.snapshots:
        here = np.abs(np.diff(fld.values)).max() / g.dx
        assert here <= lip + 1e-8
        lip = here


def test_cone_zero_set_inside_inclusion_window(cone, H3):
    """The zero set spreads and its boundary obeys the envelope bounds
    with 5% slack (which also absorbs the one-cell detection bias)."""
    g, u0, sol = cone
    lo, hi = inclusion_curves(H3, 0.3, 2.0)
    xl, xr = zero_set_boundary(sol.snapshot_at(2.0))
    assert 0.95 * lo <= xr <= 1.05 * hi
    assert abs(xl + xr) <= 2.0 * g.dx
    xl5, xr5 = zero_set_boundary(sol.snapshot_at(0.5))
    assert 0.0 < xr5 < xr


def test_cone_interior_residual(cone, H3):
    """Where u > 0 and smooth, d_t u + H(d_x u) vanishes to O(dx)."""
    g, u0, sol = cone
    u1 = sol.snapshot_at(0.5).values
    u2 = sol.snapshot_at(0.52).values
    ut = (u2 - u1) / 0.02
    ux = np.gradient(u1, g.dx)
    sel = (np.abs(g.x) > 2.0) & (np.abs(g.x) < 15.0) & (u1 > 0.2)
    resid = ut + H3.table_eval(ux)
    assert np.abs(resid[sel]).max() <= 5.0 * g.dx * sol.meta["sigma"]


def test_scheme_monotone_in_data(H3):
    """Pointwise-larger initial data gives a pointwise-larger solution
    when both runs share one sigma and dt (the flux is then monotone)."""
    g = Grid1D(5.0, 256)
    rng = np.random.default_rng(11)
    sigma = 1.2 * abs(H3.eval_H_prime(1.3))
    dt = 0.9 * g.dx / sigma
    for _ in range(20):
        base = np.concatenate(
            ([0.0], np.cumsum(rng.uniform(-0.8, 0.8, g.N - 1) * g.dx)))
        base -= base.min()
        x0 = rng.uniform(-3.0, 3.0)
        bump = rng.uniform(0.0, 0.4) * np.exp(-((g.x - x0) / 1.5) ** 2)
        lo = solve_constrained_hj(H3, g, Field(g, base), 0.3,
                                  dt=dt, sigma=sigma)
        hi = solve_constrained_hj(H3, g, Field(g, base + bump), 0.3,
                                  dt=dt, sigma=sigma)
        assert np.all(hi.snapshot_at(0.3).values
                      >= lo.snapshot_at(0.3).values - 1e-12)


def test_solver_records_final_time(H3):
    g = Grid1D(10.0, 64)
    sol = solve_constrained_hj(H3, g, Field(g, np.zeros(g.N)), 1.5,
                               snapshots=(0.5,))
    assert [t for t, _ in sol.snapshots] == [0.5, 1.5]
    with pytest.raises(KeyError):
        sol.snapshot_at(0.7)


def test_solver_rejections(H3):
    g = Grid1D(10.0, 64)
    flat = Field(g, np.zeros(g.N))
    with pytest.raises(InvalidParams):
        solve_constrained_hj(H3, g, Field(g, np.full(g.N, -0.1)), 1.0)
    with pytest.raises(GridMismatch):
        solve_constrained_hj(H3, Grid1D(10.0, 128), flat, 1.0)
    with pytest.raises(InvalidParams):
        solve_constrained_hj(H3, g, flat, -1.0)
    with pytest.raises(InvalidParams):
        solve_constrained_hj(H3, g, flat, 1.0, snapshots=(2.0,))
    with pytest.raises(GradientOutOfRange):
        solve_constrained_hj(H3, g, Field(g, 1.95 * np.abs(g.x)), 1.0)


def test_cfl_violation(H3):
    g = Grid1D(10.0, 64)
    u0 = Field(g, 0.2 * np.abs(g.x))
    with pytest.raises(CFLViolation):
        solve_constrained_hj(H3, g, u0, 1.0, dt=10.0 * g.dx)


# ----------------------------------------------------------------------
# zero sets and inclusion curves


def test_zero_set_boundary_cases():
    g = Grid1D(10.0, 256)
    vee = Field(g, np.maximum(np.abs(g.x) - 3.0, 0.0))
    xl, xr = zero_set_boundary(vee)
    assert abs(xl + 3.0) <= g.dx and abs(xr - 3.0) <= g.dx
    assert zero_set_boundary(Field(g, np.ones(g.N))) == \
        pytest.approx((math.nan, math.nan), nan_ok=True)
    xl, xr = zero_set_boundary(Field(g, np.zeros(g.N)))
    assert (xl, xr) == (g.x[0], g.x[-1])


def test_zero_set_picks_widest_run():
    g = Grid1D(10.0, 256)
    u = np.ones(g.N)
    u[10:20] = 0.0          # 10 cells
    u[100:140] = 0.0        # 40 cells
    xl, xr = zero_set_boundary(Field(g, u))
    assert (xl, xr) == (g.x[100], g.x[139])


def test_inclusion_curves_frozen_values(H3):
    """101-point scan against a 2e6-point scan with the exact kappas."""
    lo, hi = inclusion_curves(H3, 0.3, 2.0)
    assert lo == pytest.approx(8.25993457, abs=2e-3)
    assert hi == pytest.approx(8.30756766, abs=2e-3)
    lo, hi = inclusion_curves(H3, 0.3, 0.5)
    assert lo == pytest.approx(0.78588892, abs=1e-3)
    assert hi == pytest.approx(0.85155875, abs=1e-3)
    assert inclusion_curves(H3, 0.3, 0.0) == (0.0, 0.0)


# ----------------------------------------------------------------------
# cross-validation plumbing


def _fake_pair(g, shift_by_eps):
    """Limit solution u(x) = |x| wedge and runs whose potentials
    -eps ln n are offset from it by given amounts."""
    u = np.abs(g.x)
    hj = HJSolution([(0.0, Field(g, u)), (1.0, Field(g, u))], g, {})
    runs = []
    for eps, off in shift_by_eps.items():
        pot = u + off if np.ndim(off) else u + float(off)
        run = Trajectory([(1.0, Field(g, np.exp(-pot / eps)))])
        run.grid = g
        runs.append(MutationRun(eps, run))
    return hj, runs


def test_cross_validate_monotone_table():
    g = Grid1D(10.0, 256)
    hj, runs = _fake_pair(g, {0.4: 0.3, 0.2: 0.2, 0.1: 0.05})
    rows = cross_validate(runs, hj, (-5.0, 5.0))
    assert [e for e, _ in rows] == [0.4, 0.2, 0.1]
    assert [v for _, v in rows] == pytest.approx([0.3, 0.2, 0.05])


def test_cross_validate_flags_growth():
    g = Grid1D(10.0, 256)
    hj, runs = _fake_pair(g, {0.4: 0.1, 0.2: 0.25})
    with pytest.raises(ValidationError) as info:
        cross_validate(runs, hj, (-5.0, 5.0))
    assert any("grew" in issue for issue in info.value.issues)


def test_cross_validate_window_margin():
    g = Grid1D(10.0, 256)
    hj, runs = _fake_pair(g, {0.4: 0.1})
    with pytest.raises(InvalidParams):
        cross_validate(runs, hj, (-9.99, 5.0))
    with pytest.raises(InvalidParams):
        cross_validate(runs, hj, (5.0, -5.0))


def test_cross_validate_locality():
    """A disturbance outside a window does not pollute its error row."""
    g = Grid1D(10.0, 256)
    bump = 0.5 * np.exp(-((g.x - 4.0) / 0.3) ** 2)
    hj, runs = _fake_pair(g, {0.4: 0.01 + bump})
    (_, near), = cross_validate(runs, hj, (-2.0, 2.0))
    (_, wide), = cross_validate(runs, hj, (-2.0, 4.5))
    assert near < 0.02 < wide


def test_cross_validate_identity_control(ll3, H3):
    """Control pairing whose generator is H exactly: the linearized jump
    map at eps=1 pushes Jhat onto an exponential-tailed kernel whose
    tilted integrals are the same quadrature H caches, so on a compact
    away from the interface band the gap is scheme resolution only."""
    g = Grid1D(1000.0, 32768)
    init = mutation_initial_data(ll3, g, A=0.5)
    cfg = SolverConfig(dt=0.05, t_end=1.0, snapshot_times=(0.5, 1.0),
                       method="RK4")
    mr = mutation_run(ll3, g, 1.0, cfg, init, jump_map="linearized")
    hj = solve_constrained_hj(H3, g, init.u0, 1.0, snapshots=(0.5, 1.0))
    (_, gap), = cross_validate([mr], hj, (28.0, 60.0))
    assert gap <= 0.05
