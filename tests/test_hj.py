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

from fatkpp.errors import (GradientOutOfRange, GridMismatch, InvalidParams,
                           NonIntegrableTail, NotMutationEligible,
                           ThinTailedKernel)
from fatkpp.gridops import DiscreteKernel, Field, Grid1D
from fatkpp.hj import (Hamiltonian, HJSolution, comparison_times,
                       cross_validate, hamiltonian_profile, inclusion_curves,
                       solve_constrained_hj, window_nodes, zero_set_boundary)
from fatkpp.cauchy import SolverConfig, Trajectory, run as cauchy_run
from fatkpp.kernels import KernelSpec, build_kernel
from fatkpp.mutation import growth_bound, mutation_initial_data
from fatkpp.propagation import read_window


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


def test_one_inadmissible_A_gets_one_refusal(Hps):
    """A = 1.2 is past 1 - 1/mu = 1 for PowerShift(b=1, alpha=0.5), so the
    integrability rule, the one all three callers share, refuses it."""
    k = Hps.kernel
    refusals = []
    for call in (lambda: growth_bound(k, 1.2),
                 lambda: mutation_initial_data(k, Grid1D(20.0, 512), 1.2),
                 lambda: Hps.kappa_bounds(1.2)):
        with pytest.raises(InvalidParams) as info:
            call()
        refusals.append((type(info.value), str(info.value)))
    assert refusals == [refusals[0]] * 3
    assert refusals[0] == (NonIntegrableTail,
                           "A = 1.2 outside (0, 1 - 1/mu) = (0, 1): "
                           "e^{A f} Jhat has a divergent tail")


def test_hamiltonian_profile(H3):
    ps, Hs, lo, hi = hamiltonian_profile(H3, 0.3)
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
    sol = solve_constrained_hj(
        H3, SolverConfig(t_end=2.0, snapshot_times=(0.5, 0.52, 2.0)), u0)
    return g, u0, sol


def test_constant_data_is_exact(H3):
    """Zero gradient shuts off the flux terms, so every step subtracts
    dt*H(0) = dt exactly and the run reproduces max(c - t, 0)."""
    g = Grid1D(10.0, 64)
    u0 = Field(g, np.full(g.N, 0.7))
    sol = solve_constrained_hj(
        H3, SolverConfig(t_end=1.0,
                         snapshot_times=(0.25, 0.5, 0.69, 0.71, 1.0)), u0)
    for t, fld in sol.snapshots:
        np.testing.assert_allclose(fld.values, max(0.7 - t, 0.0),
                                   rtol=0.0, atol=1e-12)
    assert np.all(sol.snapshot_at(1.0).values == 0.0)


def test_zero_data_stays_zero(H3):
    g = Grid1D(10.0, 64)
    sol = solve_constrained_hj(
        H3, SolverConfig(t_end=2.0, snapshot_times=(1.0, 2.0)),
        Field(g, np.zeros(g.N)))
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
    when both runs share one sigma, and with it one step (the flux is
    then monotone)."""
    g = Grid1D(5.0, 256)
    rng = np.random.default_rng(11)
    sigma = 1.2 * abs(H3.eval_H_prime(1.3))
    for _ in range(20):
        base = np.concatenate(
            ([0.0], np.cumsum(rng.uniform(-0.8, 0.8, g.N - 1) * g.dx)))
        base -= base.min()
        x0 = rng.uniform(-3.0, 3.0)
        bump = rng.uniform(0.0, 0.4) * np.exp(-((g.x - x0) / 1.5) ** 2)
        lo = solve_constrained_hj(H3, SolverConfig(t_end=0.3),
                                  Field(g, base), sigma=sigma)
        hi = solve_constrained_hj(H3, SolverConfig(t_end=0.3),
                                  Field(g, base + bump), sigma=sigma)
        assert np.all(hi.snapshot_at(0.3).values
                      >= lo.snapshot_at(0.3).values - 1e-12)


def test_solver_records_final_time(H3):
    """The solver records exactly the config's times, as cauchy.run does:
    it marches on to t_end, and records the state there only when t_end
    is one of the times (or no times are given)."""
    g = Grid1D(10.0, 64)
    flat = Field(g, np.zeros(g.N))     # sigma = 0: one step per gap
    for snaps, recorded, steps in (((0.5,), [0.5], 2),
                                   ((0.5, 1.5), [0.5, 1.5], 2),
                                   (None, [1.5], 1)):
        cfg = SolverConfig(t_end=1.5, snapshot_times=snaps)
        sol = solve_constrained_hj(H3, cfg, flat)
        assert [t for t, _ in sol.snapshots] == recorded
        assert sol.meta["steps"] == steps
        for t in {0.5, 0.7, 1.5} - set(recorded):
            with pytest.raises(KeyError):
                sol.snapshot_at(t)


def test_solver_rejections(H3):
    g = Grid1D(10.0, 64)
    cfg = SolverConfig(t_end=1.0)
    with pytest.raises(InvalidParams):
        solve_constrained_hj(H3, cfg, Field(g, np.full(g.N, -0.1)))
    with pytest.raises(InvalidParams):
        SolverConfig(t_end=-1.0)
    with pytest.raises(InvalidParams):
        SolverConfig(t_end=1.0, snapshot_times=(2.0,))
    with pytest.raises(GradientOutOfRange):
        solve_constrained_hj(H3, cfg, Field(g, 1.95 * np.abs(g.x)))


def test_solver_steps_at_the_cfl_bound_of_its_sigma(H3):
    """The step cap is 0.9 dx/sigma, whether sigma is passed or not, and
    each gap between snapshot times takes ceil(gap/cap) steps; flat data
    has sigma 0 and no cap."""
    g = Grid1D(10.0, 256)
    u0 = Field(g, np.abs(g.x))          # sigma ~ 1.07: 2 + 4 steps
    cfg = SolverConfig(t_end=0.3, snapshot_times=(0.1, 0.3))
    auto = solve_constrained_hj(H3, cfg, u0)
    wide = solve_constrained_hj(H3, cfg, u0, sigma=2.0 * auto.meta["sigma"])
    for sol in (auto, wide):
        sigma, cap = sol.meta["sigma"], sol.meta["dt_cap"]
        assert sigma > 0.0 and cap == 0.9 * g.dx / sigma
        assert sol.meta["steps"] == (math.ceil(0.1 / cap)
                                     + math.ceil((0.3 - 0.1) / cap))
    assert wide.meta["sigma"] == 2.0 * auto.meta["sigma"]
    assert wide.meta["steps"] > auto.meta["steps"]
    flat = solve_constrained_hj(H3, cfg, Field(g, np.zeros(g.N)))
    assert flat.meta["sigma"] == 0.0 and flat.meta["dt_cap"] is None
    assert flat.meta["steps"] == 2


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
        run.grid, run.eps = g, eps
        runs.append(run)
    return hj, runs


def _windows(runs, hj, x_window):
    """Each run's window potential at its own grid's nodes in x_window and
    at hj's comparison times, read as the CLI reads it."""
    pairs = comparison_times([t for t, _ in hj.snapshots])
    pots = []
    for run in runs:
        xs = window_nodes(run.grid, x_window)
        pots.append(read_window(run, run.eps, xs, xs, pairs))
    return pots


def test_cross_validate_monotone_table():
    g = Grid1D(10.0, 256)
    hj, runs = _fake_pair(g, {0.4: 0.3, 0.2: 0.2, 0.1: 0.05})
    rows = cross_validate(_windows(runs, hj, (-5.0, 5.0)), hj)
    assert [e for e, _ in rows] == [0.4, 0.2, 0.1]
    assert [v for _, v in rows] == pytest.approx([0.3, 0.2, 0.05])


def test_cross_validate_flags_growth():
    """A sup error that grows as eps falls is returned as measured; the
    verdict is the caller's."""
    g = Grid1D(10.0, 256)
    hj, runs = _fake_pair(g, {0.4: 0.1, 0.2: 0.25})
    rows = cross_validate(_windows(runs, hj, (-5.0, 5.0)), hj)
    assert [e for e, _ in rows] == [0.4, 0.2]
    assert [v for _, v in rows] == pytest.approx([0.1, 0.25])


def test_cross_validate_window_margin():
    g = Grid1D(10.0, 256)
    hj, runs = _fake_pair(g, {0.4: 0.1})
    with pytest.raises(InvalidParams):
        cross_validate(_windows(runs, hj, (-9.99, 5.0)), hj)
    with pytest.raises(InvalidParams):
        cross_validate(_windows(runs, hj, (5.0, -5.0)), hj)


def test_cross_validate_needs_runs_on_the_limit_grid():
    """Potentials are compared at the limit's own nodes, not interpolated."""
    g = Grid1D(10.0, 256)
    hj, _ = _fake_pair(g, {})
    _, runs = _fake_pair(Grid1D(10.0, 512), {0.4: 0.1})
    with pytest.raises(GridMismatch):
        cross_validate(_windows(runs, hj, (-5.0, 5.0)), hj)


def test_cross_validate_locality():
    """A disturbance outside a window does not pollute its error row."""
    g = Grid1D(10.0, 256)
    bump = 0.5 * np.exp(-((g.x - 4.0) / 0.3) ** 2)
    hj, runs = _fake_pair(g, {0.4: 0.01 + bump})
    (_, near), = cross_validate(_windows(runs, hj, (-2.0, 2.0)), hj)
    (_, wide), = cross_validate(_windows(runs, hj, (-2.0, 4.5)), hj)
    assert near < 0.02 < wide


def test_cross_validate_identity_control(ll3, H3):
    """Control pairing whose generator is H exactly: at eps=1 the
    linearized jumps h -> sign(h) f(|h|)/f'(0) = sign(h) ln(1+|h|) push
    Jhat onto the exponential kernel e^{-2|h|}, whose tilted integrals are
    the same quadrature H caches, so on a compact away from the interface
    band the gap is scheme resolution only."""
    g = Grid1D(1000.0, 32768)
    K = math.ceil(0.5 * math.log(1e6) / g.dx)   # two-sided tail mass 1e-6
    off = g.dx * np.arange(-K, K + 1)
    w = np.exp(-2.0 * np.abs(off)) * g.dx
    dk = DiscreteKernel(g, w, lost_mass=1.0 - w.sum())
    u0 = mutation_initial_data(ll3, g, A=0.5)
    cfg = SolverConfig(dt=0.05, t_end=1.0, snapshot_times=(0.5, 1.0),
                       method="RK4")
    mr = cauchy_run(ll3, cfg, Field(g, np.exp(-u0.values)), dk=dk)
    hj = solve_constrained_hj(H3, cfg, u0)
    (_, gap), = cross_validate(_windows([mr], hj, (28.0, 60.0)), hj)
    assert gap <= 0.05
