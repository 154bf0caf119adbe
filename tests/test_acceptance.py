"""Acceptance suite: one numbered end-to-end check per shipping criterion.

Each test is self-contained (criterion 3/4 and 6 share their long runs via
module fixtures) and asserts the quantitative gate directly; the conftest
hook prints a PASS/FAIL line per criterion after the run.  The two long
fixtures integrate on 2^21-node grids and take a few minutes each.
"""

import json
import math
import os

import numpy as np
import pytest

from fatkpp.cauchy import SolverConfig, initial_condition
from fatkpp.cauchy import run as cauchy_run
from fatkpp.cli import main as cli_main
from fatkpp.gridops import Field, Grid1D, adaptive_integrate, discretize_kernel
from fatkpp.hj import (Hamiltonian, comparison_times, cross_validate,
                       inclusion_curves, solve_constrained_hj, window_nodes,
                       zero_set_boundary)
from fatkpp.kernels import KernelSpec, build_kernel, validate_hypotheses
from fatkpp.mutation import (MutationKernel, classify_limit_sets,
                             fd_condition, growth_bound,
                             mutation_initial_data, mutation_run)
from fatkpp.propagation import (envelope_sandwich_report, hopf_cole_field,
                                phi_envelope, potential_of, read_window,
                                theta1, track_level)


def K(family, **p):
    return build_kernel(KernelSpec(family, **p))


@pytest.fixture(scope="module")
def loglinear3():
    return K("LogLinear", beta=3.0)


@pytest.fixture(scope="module")
def poly_run():
    """Fat-tail front run: Polynomial alpha=4, C=1, half-width 5000."""
    k = K("Polynomial", alpha=4.0)
    g = Grid1D(5000.0, 2 ** 21)
    cfg = SolverConfig(dt=0.05, t_end=30.0, method="RK4",
                       snapshot_times=(0.5, 1.0, 2.0, 3.0, 5.0,
                                       10.0, 15.0, 20.0, 25.0, 30.0))
    run = cauchy_run(k, cfg, initial_condition(k, g, 1.0))
    assert not run.contaminated
    return k, run


@pytest.fixture(scope="module")
def subexp_run():
    """Stretched-exponential run whose snapshots sit on t/eps multiples."""
    k = K("SubExponential", alpha=0.5)
    g = Grid1D(1000.0, 2 ** 21)
    cfg = SolverConfig(dt=0.05, t_end=20.0, method="RK4",
                       snapshot_times=(1.25, 2.5, 3.75, 5.0,
                                       7.5, 10.0, 15.0, 20.0))
    run = cauchy_run(k, cfg, initial_condition(k, g, 1.0))
    assert not run.contaminated
    return k, run


def test_criterion_01_kernel_validation_suite():
    cases = (("Polynomial", dict(alpha=4.0)),
             ("SubExponential", dict(alpha=0.5)),
             ("LogLinear", dict(beta=2.0)),
             ("LogLinear", dict(beta=3.0)),
             ("PowerShift", dict(b=1.0, alpha=0.5)))
    for family, params in cases:
        rep = validate_hypotheses(K(family, **params))
        assert rep.passed, (family, rep.checks)
        assert rep.mass_error <= 1e-8, family
        assert rep.f_roundtrip_rel <= 1e-9, family
        assert rep.j_roundtrip_rel <= 1e-9, family


def test_criterion_02_convolution_oracle():
    rng = np.random.default_rng(20240817)
    kernels = [K("Polynomial", alpha=4.0),
               K("SubExponential", alpha=0.5),
               K("LogLinear", beta=3.0),
               K("PowerShift", b=1.0, alpha=0.5),
               K("Gaussian", sigma=1.0)]
    for trial in range(100):
        k = kernels[trial % len(kernels)]
        N = int(rng.choice([256, 512, 1024, 2048]))
        g = Grid1D(float(rng.uniform(20.0, 80.0)), N)
        dk = discretize_kernel(k, g)
        v = rng.random(N)
        direct = np.convolve(v, dk.samples)[dk.K:dk.K + N]
        assert np.max(np.abs(dk.apply(v) - direct)) <= 1e-10


@pytest.mark.slow
def test_criterion_03_accelerating_front(poly_run):
    k, run = poly_run
    tr = track_level(run, 0.5)
    assert np.all(np.isfinite(tr.positions))
    for t, x, glo in zip(tr.times, tr.positions, tr.garnier_lo):
        if t >= 20.0 - 1e-9:
            assert abs(k.f(x) / t - 1.0) <= 0.15, t
        if t >= 10.0 - 1e-9:
            assert x >= glo, t


@pytest.mark.slow
def test_criterion_04_envelope_sandwich(poly_run):
    k, run = poly_run
    rows = envelope_sandwich_report(run, discretize_kernel(k, run.grid),
                                    C=1.0)
    for t, _, lo_vio, hi_vio in rows:
        assert lo_vio <= 1e-12, t
        assert hi_vio <= 1e-12, t
    thetas = {t: th for t, th, _, _ in rows}
    assert thetas[30.0] < thetas[5.0]


def test_criterion_05_gradient_bound():
    xs = np.concatenate([np.linspace(0.0, 50.0, 4000, endpoint=False),
                         np.geomspace(50.0, 1e8, 6000)])
    for family, params in (("Polynomial", dict(alpha=4.0)),
                           ("SubExponential", dict(alpha=0.5))):
        k = K(family, **params)
        for t in (5.0, 20.0):
            th = theta1(k, t)
            phi = phi_envelope(k, t, xs)
            grad = phi * (1.0 - phi) * np.abs(k.f_prime(xs))
            assert np.max(grad - th * phi) <= 1e-10, (family, t)


@pytest.mark.slow
def test_criterion_06_hopf_cole_convergence(subexp_run):
    """Rescaled log-density against max(f - t, 0) on [0.5, 3] x [0.5, 2].

    Measured sups with resolved time stepping (RK4, dt=0.05): 0.2479 at
    eps=0.4 and 0.1052 at eps=0.2, both sitting in the saturation layer
    where the interface f(x) = t crosses the window; 0.1471 at eps=0.1,
    sitting at the corner (t=0.5, x=3), which the dilation sends to
    f-depth 7.8 at rescaled time 5 where the density runs ~4.3x above
    the bare e^(t-f) envelope.  That prefactor is real transport (well
    inside the certified e^(int theta) corridor), not numerical error:
    the three sups agree to 5 digits for dt = 0.05, 0.025 and 0.0125,
    for N = 2^16, 2^17, 2^18 and 2^21, and for L = 1000 and 2000.  A
    coarser step does not damp it either: with snapshot times hit
    exactly, N = 2^16 gives 0.24788, 0.10515, 0.14709 at dt = 0.1 and
    0.24788, 0.10516, 0.14709 at dt = 0.2.  On the same window
    [0.5, 3] x [0.5, 1.5] a run to t = 30 gives 0.1139 at eps=0.05,
    again at the corner (t=0.5, x~2.9), so the corner term rises and
    then falls as eps shrinks, the way an eps*ln(prefactor) term does.
    That window ends at rescaled time 1.5, which eps=0.05 reaches at
    t = 30.  A longer run is possible: on L = 4000 (N = 2^18, Euler
    dt = 0.05) a run reaches t = 40 without an abort, with an edge
    density of 1.55e-11 at t = 40 and n(3000, 35) = 3.68e-9, since the
    blocked convolution's noise is ~1e-16 of each block's own density,
    not of the global max.  The paper proves
    convergence as eps -> 0, not a monotone gap along this eps list, so
    the strict monotone check is kept rather than loosened to fit the
    measurement: this test fails at the eps=0.2 -> 0.1 step.  The
    absolute gate at eps=0.1 holds with a wide margin.
    """
    _, run = subexp_run
    sups = []
    for eps in (0.4, 0.2, 0.1):
        hc = hopf_cole_field(run, eps, (0.5, 3.0), (0.5, 2.0))
        assert not hc.floored.any()
        sups.append(hc.sup_error())
    assert sups[2] <= 0.5
    assert sups[0] >= sups[1] >= sups[2], (
        "sup gap to max(f - t, 0) not nonincreasing along eps=0.4,0.2,0.1: "
        + ", ".join("%.4f" % s for s in sups))


def test_criterion_07_mutation_kernel_identities(loglinear3):
    k = loglinear3
    base_moment = 2.0 * adaptive_integrate(
        lambda h: k.f(h) ** 2 * k.J_hat(h), 0.0, np.inf, epsabs=1e-12)
    assert base_moment == pytest.approx(4.5, rel=1e-8)   # 2 beta^2/(beta-1)^2
    for eps in (0.5, 0.25, 0.1):
        mk = MutationKernel(k, eps)
        assert abs(mk.mass() - 1.0) <= 1e-6, eps
        target = eps ** 2 * base_moment
        assert abs(mk.f_second_moment() - target) <= 1e-4 * target, eps


def test_criterion_08_a_priori_suite(loglinear3):
    k = loglinear3
    g = Grid1D(100.0, 32768)
    u0 = mutation_initial_data(k, g, A=0.25)
    assert fd_condition(k, u0, 0.25) <= 1e-6
    cfg = SolverConfig(dt=0.005, t_end=2.0, method="Euler",
                       snapshot_times=(0.5, 1.0, 1.5, 2.0))
    mr = mutation_run(k, 0.1, cfg, u0)
    assert not mr.contaminated
    rhat = growth_bound(k, 0.25)
    cap = 1.05 * 0.25 * k.fprime0
    margin = mr.manifest["kernel_cells"]
    for t, fld in mr.snapshots:
        u, floored = potential_of(fld.values, mr.eps)
        assert not floored.any()
        du = u - u0.values
        assert du.max() <= t + 1e-9, t
        assert du.min() >= -rhat * t - 1e-9, t
        d = np.abs(np.diff(u)) / g.dx
        assert d[margin:len(d) - margin].max() <= cap, t


def test_criterion_09_hamiltonian_suite(loglinear3):
    H = Hamiltonian(loglinear3)
    assert H.eval_H(0.0) == 1.0
    p_edge = 0.3 * loglinear3.fprime0
    ps = np.linspace(-p_edge, p_edge, 50)
    vals = np.array([H.eval_H(p) for p in ps])
    mirrored = np.array([H.eval_H(-p) for p in ps])
    assert np.max(np.abs(vals - mirrored)) <= 1e-10
    assert np.min(np.diff(vals, 2)) >= -1e-10
    kap_lo, kap_hi = H.kappa_bounds(0.3)
    assert np.all(1.0 + kap_lo * ps ** 2 <= vals + 1e-12)
    assert np.all(vals <= 1.0 + kap_hi * ps ** 2 + 1e-12)


def test_criterion_10_hj_exactness_controls(loglinear3):
    H = Hamiltonian(loglinear3)
    g = Grid1D(10.0, 256)
    sol = solve_constrained_hj(
        H, SolverConfig(t_end=1.0, snapshot_times=(0.25, 0.5, 1.0)),
        Field(g, np.full(g.N, 0.7)))
    for t, fld in sol.snapshots:
        exact = max(0.7 - t, 0.0)
        assert np.max(np.abs(fld.values - exact)) <= 1e-8, t
    flat = solve_constrained_hj(H, SolverConfig(t_end=1.0),
                                Field(g, np.zeros(g.N)))
    assert np.all(flat.snapshot_at(1.0).values == 0.0)
    rng = np.random.default_rng(11)
    sigma = 1.2 * abs(H.eval_H_prime(1.3))
    for _ in range(20):
        base = np.concatenate(
            ([0.0], np.cumsum(rng.uniform(-0.8, 0.8, g.N - 1) * g.dx)))
        base -= base.min()
        bump = rng.uniform(0.0, 0.4) * np.exp(
            -((g.x - rng.uniform(-3.0, 3.0)) / 1.5) ** 2)
        lo = solve_constrained_hj(H, SolverConfig(t_end=0.3),
                                  Field(g, base), sigma=sigma)
        hi = solve_constrained_hj(H, SolverConfig(t_end=0.3),
                                  Field(g, base + bump), sigma=sigma)
        assert np.all(hi.snapshot_at(0.3).values
                      >= lo.snapshot_at(0.3).values - 1e-12)


def test_criterion_11_cross_validation(loglinear3):
    # the half-width balances two needs: large enough that the eps=0.4
    # edge density stays under the boundary guard through t=1, while the
    # window keeps to where the eps=0.1 density is above the noise floor
    k = loglinear3
    g = Grid1D(600.0, 2 ** 18)
    u0 = mutation_initial_data(k, g, A=0.25)
    xs = window_nodes(g, (-50.0, 50.0))
    pairs = comparison_times((0.5, 1.0))
    pots = []
    for eps in (0.4, 0.2, 0.1):
        cfg = SolverConfig(dt=0.025 * eps, t_end=1.0, method="Euler",
                           snapshot_times=(0.5, 1.0))
        mr = mutation_run(k, eps, cfg, u0)
        assert not mr.contaminated
        pots.append(read_window(mr, eps, xs, xs, pairs))
    hj = solve_constrained_hj(
        Hamiltonian(k), SolverConfig(t_end=1.0, snapshot_times=(0.5, 1.0)),
        u0)
    rows = cross_validate(pots, hj)
    assert [e for e, _ in rows] == [0.4, 0.2, 0.1]
    sups = [v for _, v in rows]
    assert sups[0] >= sups[1] >= sups[2]


def test_criterion_12_zero_set_and_limit_densities(loglinear3):
    k = loglinear3
    H = Hamiltonian(k)
    g_hj = Grid1D(20.0, 1024)
    hj = solve_constrained_hj(
        H, SolverConfig(t_end=2.0, snapshot_times=(0.5, 1.0, 2.0)),
        mutation_initial_data(k, g_hj, A=0.25))
    for t in (0.5, 1.0, 2.0):
        lo, hi = inclusion_curves(H, 0.25, t)
        xl, xr = zero_set_boundary(hj.snapshot_at(t))
        for boundary in (-xl, xr):
            assert 0.95 * lo <= boundary <= 1.05 * hi, t

    eps = 0.05
    g = Grid1D(60.0, 32768)
    u0 = mutation_initial_data(k, g, A=0.25)
    cfg = SolverConfig(dt=0.005, t_end=1.0, method="Euler",
                       snapshot_times=(0.5, 1.0))
    mr = mutation_run(k, eps, cfg, u0)
    assert not mr.contaminated
    # the saturation layer has width ~ eps ln(1/eps); stay 2 eps ln 4
    # inside each region before reading densities off
    shell = 2.0 * eps * math.log(4.0)
    af = 0.25 * k.f(np.abs(g.x))
    interior = np.zeros(g.N, dtype=bool)
    interior[mr.manifest["kernel_cells"]:
             g.N - mr.manifest["kernel_cells"]] = True
    dens = {t: fld.values for t, fld in mr.snapshots}
    for t in (0.5, 1.0):
        u_lim = np.interp(g.x, g_hj.x, hj.snapshot_at(t).values)
        regions = classify_limit_sets(u_lim, 1e-3)
        null_sel = (regions == "B") & (af <= t - shell)
        pos_sel = (af >= t + shell) & interior
        assert null_sel.any() and pos_sel.any()
        assert dens[t][null_sel].min() > 0.8, t
        assert dens[t][pos_sel].max() < 0.2, t


def test_criterion_13_determinism(tmp_path):
    docs = {
        "sim": {"experiment": "Simulate",
                "kernel": {"family": "Gaussian", "sigma": 1.0},
                "grid": {"L": 50, "N": 1024},
                "solver": {"t_end": 0.5, "snapshots": [0.25, 0.5]}},
        "hj": {"experiment": "HJ",
               "kernel": {"family": "LogLinear", "beta": 3.0},
               "grid": {"L": 20, "N": 512},
               "solver": {"t_end": 0.5},
               "analysis": {"A": 0.25}},
    }
    for tag, doc in docs.items():
        outs = []
        for rep in ("a", "b"):
            out = str(tmp_path / (tag + rep))
            doc = dict(doc, output={"directory": out})
            cfg = tmp_path / ("%s_%s.json" % (tag, rep))
            cfg.write_text(json.dumps(doc))
            assert cli_main(["--config", str(cfg), "--quiet"]) == 0
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            if name == "run.json":        # carries a wall-clock timestamp
                continue
            with open(os.path.join(outs[0], name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(outs[1], name), "rb") as fh:
                second = fh.read()
            assert first == second, (tag, name)
