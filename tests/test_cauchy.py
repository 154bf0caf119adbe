"""Time stepper: fixed points, single-step oracle, comparison principle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fatkpp.cauchy import (SolverConfig, _advance, _march, _workspace,
                           initial_condition, run)
from fatkpp.errors import (BoundaryContamination, GradientOutOfRange,
                           GridMismatch, InvalidParams, StabilityViolation)
from fatkpp.gridops import Field, Grid1D, discretize_kernel
from fatkpp.kernels import KernelSpec, build_kernel


@pytest.fixture(scope="module")
def poly4():
    return build_kernel(KernelSpec("Polynomial", alpha=4.0))


@pytest.fixture(scope="module")
def setup(poly4):
    g = Grid1D(L=60.0, N=1024)
    return poly4, g, discretize_kernel(poly4, g)


# ----------------------------------------------------------------------
# config validation


def test_config_defaults_snapshot_at_end():
    c = SolverConfig(dt=0.1, t_end=2.0)
    assert c.snapshot_times == (2.0,)


@pytest.mark.parametrize("kw", [
    dict(dt=0.0), dict(dt=0.31), dict(dt=-0.1),
    dict(t_end=-1.0),
    dict(method="Heun"),
    dict(snapshot_times=(2.0, 1.0)),
    dict(snapshot_times=(0.0, 99.0)),
    dict(boundary_guard=0.0),
])
def test_config_rejects(kw):
    base = dict(dt=0.05, t_end=3.0)
    base.update(kw)
    with pytest.raises(InvalidParams):
        SolverConfig(**base)


def test_config_lists_every_violation_at_once():
    with pytest.raises(InvalidParams) as exc:
        SolverConfig(dt=0.0, t_end=-1.0, method="Heun", boundary_guard=0.0)
    keys = [issue.split(":")[0] for issue in exc.value.issues]
    assert keys == ["dt", "t_end", "method", "boundary_guard"]


# ----------------------------------------------------------------------
# initial condition


def test_initial_condition_shape_and_clamp(poly4):
    g = Grid1D(L=30.0, N=256)
    n0 = initial_condition(poly4, g, C=0.5)
    i0 = g.N // 2
    assert n0.values[i0] == 0.5
    n2 = initial_condition(poly4, g, C=2.0)
    assert n2.values[i0] == 1.0                      # min(2*1, 1)
    x = g.x[i0 + 7]
    assert n2.values[i0 + 7] == min(2.0 * poly4.J(x), 1.0)
    with pytest.raises(InvalidParams):
        initial_condition(poly4, g, C=0.0)


# ----------------------------------------------------------------------
# fixed points and the single-step oracle


def test_zero_stays_zero(setup):
    k, g, dk = setup
    out, _ = _advance(dk, np.zeros(g.N), 0.1, "Euler", 1.0,
                      _workspace("Euler", g.N))
    assert np.all(out == 0.0)


def test_one_is_steady_interior(setup):
    """n = 1 is a discrete steady state away from the zero padding; the
    tolerated drift is the truncation tail budget."""
    k, g, dk = setup
    out, _ = _advance(dk, np.ones(g.N), 0.1, "RK4", 1.0,
                      _workspace("RK4", g.N))
    interior = out[dk.K:g.N - dk.K]
    assert np.max(np.abs(interior - 1.0)) <= 1e-6 + 1e-12


def test_single_euler_step_oracle(setup):
    """One Euler step must equal n0 + dt*(J*n0 - n0 + n0(1-n0)) with the
    convolution evaluated by a literal O(N*M) sum."""
    k, g, dk = setup
    n0 = initial_condition(k, g, C=1.0).values
    direct = np.convolve(n0, dk.samples)[dk.K:dk.K + g.N]
    dt = 0.1
    expect = n0 + dt * (direct - n0 + n0 * (1.0 - n0))
    got, _ = _advance(dk, n0, dt, "Euler", 1.0, _workspace("Euler", g.N))
    np.testing.assert_allclose(got, np.clip(expect, 0, 1), atol=1e-12)
    i0 = g.N // 2
    assert abs(got[i0] - (1.0 + dt * (direct[i0] - 1.0))) < 1e-12


def test_step_rejects_unstable_dt(setup):
    k, g, dk = setup
    with pytest.raises(StabilityViolation):
        # a rate of 40 makes the effective step huge without tripping the
        # config-level dt cap, so the overshoot check has to catch it
        _advance(dk, np.full(g.N, 0.5), 0.3, "RK4", 40.0,
                 _workspace("RK4", g.N))


def _allocating_rhs(dk, v):
    return dk.apply(v) - v + v * (1.0 - v)


def _allocating_step(dk, v, dt, method, r):
    """The step as plain array expressions, each making a fresh array."""
    if method == "Euler":
        out = v + (dt * r) * _allocating_rhs(dk, v)
    else:
        k1 = r * _allocating_rhs(dk, v)
        k2 = r * _allocating_rhs(dk, v + 0.5 * dt * k1)
        k3 = r * _allocating_rhs(dk, v + 0.5 * dt * k2)
        k4 = r * _allocating_rhs(dk, v + dt * k3)
        out = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.clip(out, 0.0, 1.0)


@pytest.mark.parametrize("method", ["Euler", "RK4"])
@pytest.mark.parametrize("rate", [1.0, 2.5])
def test_step_in_buffers_is_bit_identical(setup, method, rate):
    """The in-place stages round exactly as the array expressions do,
    with the clamp skipped (a state inside (0, 1]) or taken (a zero
    quarter, where the step rounds to tiny negatives and -0.0)."""
    k, g, dk = setup
    n0 = initial_condition(k, g, C=0.5)
    r = run(k, SolverConfig(dt=0.1, t_end=1.0), n0, dk=dk)
    inside = r.snapshots[-1][1].values
    assert inside.min() > 0.0
    for zeros in (False, True):
        v = inside.copy()
        if zeros:
            v[:g.N // 4] = 0.0
        v0 = v.copy()
        work = _workspace(method, g.N)
        got, (_, lo, hi) = _advance(dk, v, 0.1, method, rate, work)
        assert got is work[0]
        assert (lo, hi) == (got.min(), got.max())
        assert (lo == 0.0) is zeros
        ref = _allocating_step(dk, v0, 0.1, method, rate)
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(v, v0)


# ----------------------------------------------------------------------
# full runs


def test_run_t_end_zero_returns_initial(setup):
    k, g, dk = setup
    n0 = initial_condition(k, g, C=1.0)
    r = run(k, SolverConfig(dt=0.05, t_end=0.0), n0, dk=dk)
    assert len(r.snapshots) == 1
    t, fld = r.snapshots[0]
    assert t == 0.0
    np.testing.assert_array_equal(fld.values, n0.values)


def test_run_constant_one_stays(poly4):
    """Edge truncation nibbles at n=1 from the boundary inward, but the
    central half of a wide box stays at 1 to 1e-9 over a unit of time."""
    g = Grid1D(L=600.0, N=4096)
    dk = discretize_kernel(poly4, g)
    ones = Field(g, np.ones(g.N))
    cfg = SolverConfig(dt=0.1, t_end=1.0, snapshot_times=(0.5, 1.0),
                       boundary_guard=2.0)
    r = run(poly4, cfg, ones, dk=dk)
    sel = np.abs(g.x) <= g.L / 2
    for t, fld in r.snapshots:
        assert np.max(np.abs(fld.values[sel] - 1.0)) <= 1e-9


def test_max_principle_and_monitors(setup):
    k, g, dk = setup
    n0 = initial_condition(k, g, C=1.0)
    cfg = SolverConfig(dt=0.1, t_end=3.0, snapshot_times=(1.0, 3.0))
    r = run(k, cfg, n0, dk=dk)
    assert np.all(r.monitors["n_min"] >= -1e-10)
    assert np.all(r.monitors["n_max"] <= 1.0 + 1e-10)
    assert r.manifest["clamp_total"] <= 1e-9 * r.manifest["steps_taken"]
    assert len(r.monitors["t"]) == r.manifest["steps_taken"] + 1
    assert not r.contaminated


def test_snapshots_monotone_in_time(setup):
    """The solution grows pointwise from kernel-shaped data (it is a
    subsolution initially), so later snapshots dominate earlier ones."""
    k, g, dk = setup
    n0 = initial_condition(k, g, C=0.5)
    cfg = SolverConfig(dt=0.1, t_end=4.0, snapshot_times=(1.0, 2.0, 4.0))
    r = run(k, cfg, n0, dk=dk)
    a, b, c = (fld.values for _, fld in r.snapshots)
    assert np.all(b >= a - 1e-12)
    assert np.all(c >= b - 1e-12)


def test_symmetry_preserved(setup):
    """Even data stay even.  The check runs on nodes at least one kernel
    radius from the edges: the grid convention has a node at -L but none
    at +L, so the outer band picks up a one-node asymmetry from the
    zero padding that is pure truncation artifact."""
    k, g, dk = setup
    n0 = initial_condition(k, g, C=1.0)
    cfg = SolverConfig(dt=0.1, t_end=2.0, snapshot_times=(2.0,))
    r = run(k, cfg, n0, dk=dk)
    v = r.snapshots[-1][1].values
    err = np.abs(v[1:] - v[1:][::-1])      # position i-1 is v[i]-v[N-i]
    assert np.max(err[dk.K - 1:g.N - dk.K]) <= 1e-10


def test_euler_vs_rk4_first_order_gap(setup):
    k, g, dk = setup
    n0 = initial_condition(k, g, C=1.0)
    for dt in (0.05, 0.025):
        snaps = (1.0,)
        re = run(k, SolverConfig(dt=dt, t_end=1.0, snapshot_times=snaps,
                                    method="Euler"), n0, dk=dk)
        r4 = run(k, SolverConfig(dt=dt, t_end=1.0, snapshot_times=snaps,
                                    method="RK4"), n0, dk=dk)
        gap = np.max(np.abs(re.snapshots[0][1].values
                            - r4.snapshots[0][1].values))
        assert gap <= 5.0 * dt


def test_boundary_contamination_aborts_with_partial(poly4):
    g = Grid1D(L=8.0, N=128)           # tiny box: the front hits the wall
    n0 = initial_condition(poly4, g, C=1.0)
    cfg = SolverConfig(dt=0.1, t_end=30.0, snapshot_times=(1.0, 30.0))
    with pytest.raises(BoundaryContamination) as exc:
        run(poly4, cfg, n0)
    partial = exc.value.run
    assert partial is not None and partial.contaminated
    assert partial.manifest["contaminated"]
    assert partial.manifest["steps_taken"] < 300
    assert partial.monitors["boundary_density"][-1] >= cfg.boundary_guard


def test_recorded_snapshots_own_their_memory(setup):
    """The stepper reuses its buffers, so each snapshot must be a copy
    taken when it was recorded: none shares memory with another, and each
    one's max is the n_max monitored at its time."""
    k, g, dk = setup
    n0 = initial_condition(k, g, C=0.5)
    cfg = SolverConfig(dt=0.1, t_end=1.0,
                       snapshot_times=(0.0, 0.1, 0.2, 0.5, 0.6, 1.0))
    r = run(k, cfg, n0, dk=dk)
    vals = [fld.values for _, fld in r.snapshots]
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            assert not np.shares_memory(a, b)
    maxes = [float(v.max()) for v in vals]
    assert all(a < b for a, b in zip(maxes, maxes[1:]))
    for (t, _), m in zip(r.snapshots, maxes):
        row = np.flatnonzero(r.monitors["t"] == t)
        assert len(row) == 1 and r.monitors["n_max"][row[0]] == m


@pytest.mark.parametrize("method, per_step", [("Euler", 1), ("RK4", 4)])
def test_manifest_counts_convolutions_and_rate(setup, method, per_step):
    """convolutions counts the stepper's dk.apply calls."""
    k, g, _ = setup
    dk = discretize_kernel(k, g)
    calls = []
    apply = dk.apply
    dk.apply = lambda *a, **kw: calls.append(1) or apply(*a, **kw)
    n0 = initial_condition(k, g, C=1.0)
    r = run(k, SolverConfig(dt=0.1, t_end=1.0, method=method), n0, dk=dk)
    man = r.manifest
    assert man["steps_taken"] == 10
    assert man["convolutions"] == len(calls) == per_step * 10
    assert man["steps_per_s"] == 10 / man["wall_time_s"]


def test_kernel_sampled_on_another_grid_is_refused(setup):
    """The run's grid is n0's; a dk sampled on another grid is refused."""
    k, g, dk = setup
    n0 = initial_condition(k, Grid1D(L=60.0, N=512), C=1.0)
    with pytest.raises(GridMismatch):
        run(k, SolverConfig(dt=0.1, t_end=1.0), n0, dk=dk)


def test_effective_step_cap(setup):
    k, g, dk = setup
    n0 = initial_condition(k, g, C=1.0)
    cfg = SolverConfig(dt=0.05, t_end=1.0)
    with pytest.raises(InvalidParams):
        run(k, cfg, n0, dk=dk, eps=0.01)


@settings(max_examples=15, deadline=None)
@given(lo=arrays(np.float64, 64, elements=st.floats(0.0, 0.6)),
       bump=arrays(np.float64, 64, elements=st.floats(0.0, 0.4)))
def test_monotone_in_initial_data(lo, bump):
    """Comparison principle: ordered data stay ordered under the flow."""
    k, g, dk = _CMP
    ca = SolverConfig(dt=0.1, t_end=0.5, snapshot_times=(0.5,),
                      boundary_guard=2.0)
    ra = run(k, ca, Field(g, lo), dk=dk)
    rb = run(k, ca, Field(g, np.minimum(lo + bump, 1.0)), dk=dk)
    assert np.all(rb.snapshots[0][1].values
                  >= ra.snapshots[0][1].values - 1e-8)


_CMP_G = Grid1D(L=10.0, N=64)
_CMP_K = build_kernel(KernelSpec("Polynomial", alpha=4.0))
_CMP = (_CMP_K, _CMP_G, discretize_kernel(_CMP_K, _CMP_G))


# ----------------------------------------------------------------------
# the marching driver


_DRV_G = Grid1D(L=60.0, N=512)
_DRV_K = build_kernel(KernelSpec("Polynomial", alpha=4.0))
_DRV_DK = discretize_kernel(_DRV_K, _DRV_G)
_DRV_N0 = initial_condition(_DRV_K, _DRV_G, C=1.0)


@settings(max_examples=20, deadline=None)
@given(snaps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5)
       .map(sorted),
       method=st.sampled_from(["Euler", "RK4"]))
def test_driver_hits_snapshot_times_exactly(snaps, method):
    """Snapshot times off the dt lattice are reached exactly: each one is
    a monitor time, and the snapshot there is the monitored state."""
    dt = 0.1
    cfg = SolverConfig(dt=dt, t_end=2.0, snapshot_times=tuple(snaps),
                       method=method, boundary_guard=2.0)
    r = run(_DRV_K, cfg, _DRV_N0, dk=_DRV_DK)
    again = run(_DRV_K, cfg, _DRV_N0, dk=_DRV_DK)
    mon_t = list(r.monitors["t"])
    assert [t for t, _ in r.snapshots] == list(cfg.snapshot_times)
    K, N = _DRV_DK.K, _DRV_G.N
    for (t, fld), (t2, fld2) in zip(r.snapshots, again.snapshots):
        v = fld.values
        assert t in mon_t
        assert v.max() == r.monitors["n_max"][mon_t.index(t)]
        assert v.min() >= 0.0 and v.max() <= 1.0
        err = np.abs(v[1:] - v[1:][::-1])  # band as in the symmetry test
        assert np.max(err[K - 1:N - K]) <= 1e-10
        assert t2 == t and np.array_equal(fld2.values, v)
    assert np.array_equal(r.monitors["t"], again.monitors["t"])
    # the march ends at t_end, or at a last snapshot within 1e-9 of it
    assert abs(mon_t[-1] - 2.0) <= 1e-9


def test_driver_error_carries_the_snapshots_recorded_before_it():
    """A FatKppError raised by the observer mid-march leaves with the
    partial result: the snapshots up to the last completed stop."""
    g = Grid1D(L=1.0, N=16)
    seen = []

    def advance(v, h):
        return v + h

    def observe(v, t):
        seen.append(t)
        if t > 0.55:
            raise GradientOutOfRange("slope blew up at t=%g" % t)

    def finish(records, steps):
        return records, steps

    with pytest.raises(GradientOutOfRange) as exc:
        _march(g, np.zeros(g.N), (0.0, 0.25, 0.5, 0.75), 1.0, 0.1,
               advance, observe, finish)
    records, steps = exc.value.run
    assert [t for t, _ in records] == [0.0, 0.25, 0.5]
    for t, fld in records:
        np.testing.assert_allclose(fld.values, t, atol=1e-15)
    assert steps == 7 and len(seen) == 8
    assert seen[3] == 0.25 and seen[6] == 0.5
