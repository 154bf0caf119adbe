"""Explicit time integration of n_t = Jhat*n - n + n(1-n).

The right-hand side splits into a unit-mass nonlocal averaging term and a
logistic reaction, so explicit stepping is stable for modest dt; the
integrator clamps roundoff excursions outside [0,1] and accounts for them
instead of trusting the scheme blindly.  Runs abort (with partial output
retained) once the solution meaningfully touches the truncated boundary,
because zero-padded convolution is only faithful while the boundary
density is negligible.

`_march` is the one time-marching loop of the package: `run` and the
constrained Hamilton-Jacobi solver (`hj.solve_constrained_hj`) both go
through it, so both hit every requested time exactly.
"""

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryContamination, FatKppError, GridMismatch,
                     InvalidParams, StabilityViolation)
from .gridops import Field, Grid1D, discretize_kernel

# the methods, each with its convolutions per step
_STAGES = {"Euler": 1, "RK4": 4}

# hard explicit-stability ceiling: 0.9/(2 + sup|1-2n|) with 0 <= n <= 1
DT_MAX = 0.3

# per-state diagnostics of a run, in monitors.csv column order
MONITORS = ("t", "n_min", "n_max", "boundary_density", "clamp_total")

# slack on time comparisons: a snapshot time this close to [0, t_end]
# counts as inside it, and a lookup this close to a recorded time hits it
TIME_TOL = 1e-9


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def times_within(times, t_end):
    """True when every time lies in [0, t_end] (to TIME_TOL)."""
    return all(-TIME_TOL <= t <= t_end + TIME_TOL for t in times)


def find_record(records, t):
    """The first (t, ...) record of a time-ordered list recorded at t."""
    for rec in records:
        if abs(rec[0] - t) <= TIME_TOL:
            return rec
    raise KeyError("no snapshot at t=%g" % t)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    snapshot_times=None defaults to a single snapshot at t_end.  Snapshot
    times are hit exactly: each gap between them is crossed in equal
    sub-steps no longer than dt.  Every violated rule is listed in one
    InvalidParams, each message starting with its config key.
    """

    dt: float = 0.05
    t_end: float = 1.0
    snapshot_times: tuple = None
    boundary_guard: float = 1e-4
    method: str = "RK4"

    def __post_init__(self):
        issues = []
        if not (_is_num(self.dt) and 0.0 < self.dt <= DT_MAX + 1e-12):
            issues.append("dt: must lie in (0, %g], got %r"
                          % (DT_MAX, self.dt))
        t_end_ok = _is_num(self.t_end) and self.t_end >= 0.0
        if not t_end_ok:
            issues.append("t_end: must be a nonnegative number")
        if self.method not in _STAGES:
            issues.append("method: must be one of %s" % ", ".join(_STAGES))
        if not (_is_num(self.boundary_guard) and self.boundary_guard > 0.0):
            issues.append("boundary_guard: must be positive")
        snaps = self.snapshot_times
        if snaps is None:
            snaps = (self.t_end,)
        if any(b < a for a, b in zip(snaps, snaps[1:])):
            issues.append("snapshots: must be sorted")
        elif t_end_ok and not times_within(snaps, self.t_end):
            issues.append("snapshots: every time must lie in [0, t_end]")
        if issues:
            raise InvalidParams(*issues)
        for name in ("dt", "t_end", "boundary_guard"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "snapshot_times",
                           tuple(float(s) for s in snaps))


@dataclass
class Trajectory:
    """States recorded by a march, in time order."""

    snapshots: list                 # [(t, Field), ...]

    def snapshot_at(self, t):
        return find_record(self.snapshots, t)[1]


@dataclass
class SimulationRun(Trajectory):
    """One completed (or aborted) integration with its diagnostics."""

    kernel: object
    grid: Grid1D
    monitors: dict                  # MONITORS name -> array over states
    manifest: dict
    contaminated: bool = False


def _march(grid, values, times, t_end, dt_max, advance, observe, finish):
    """March values through the sorted times, then on to t_end unless the
    last time is within TIME_TOL of it.

    Each positive gap between stops is crossed in ceil(gap/dt_max) equal
    sub-steps h, so every stop is hit exactly.  advance(v, h) returns the
    state h later, possibly in the buffer of an earlier state; observe(v,
    t) sees the initial state and the state after each step, labelled
    t_prev + j*h and exactly the stop on a gap's last step.  One
    (t, Field) copy is kept per requested time, since buffers are reused;
    finish(records, steps) builds the result, which a FatKppError raised
    meanwhile carries as ``.run``.
    """
    stops = tuple(times)
    if not stops or t_end - stops[-1] > TIME_TOL:
        stops += (t_end,)
    records, steps, t_now = [], 0, 0.0
    try:
        observe(values, 0.0)
        for k, t_req in enumerate(stops):
            gap = t_req - t_now
            if gap > 0.0:
                n = max(1, int(math.ceil(gap / dt_max - 1e-9)))
                h = gap / n
                for j in range(1, n + 1):
                    values = advance(values, h)
                    steps += 1
                    observe(values, t_req if j == n else t_now + j * h)
                t_now = t_req
            if k < len(times):
                records.append((t_req, Field(grid, values.copy())))
    except FatKppError as exc:
        exc.run = finish(records, steps)
        raise
    return finish(records, steps)


def initial_condition(kernel, grid, C):
    """n0 = min(C * J_shape, 1): a kernel-shaped bump of height C at 0."""
    if C <= 0.0:
        raise InvalidParams("initial amplitude C must be positive")
    vals = np.minimum(C * kernel.J(grid.x), 1.0)
    return Field(grid, vals)


def _workspace(method, N):
    """The buffers a step writes into, allocated once per run: the result
    and a scratch buffer for Euler, plus a stage and its input for RK4."""
    return [np.empty(N) for _ in range(2 if method == "Euler" else 4)]


def _rhs(dk, v, out, tmp):
    """out = J*v - v + v*(1 - v), rounded as that expression is."""
    dk.apply(v, out=out)
    out -= v
    np.subtract(1.0, v, out=tmp)
    tmp *= v
    out += tmp
    return out


def _advance(dk, v, dt, method, rate_scale, work):
    """One explicit step clamped to [0,1], written into work[0] (see
    `_workspace`); returns (work[0], overshoot) and leaves v unmodified.

    Each stage rounds as the textbook expressions do: Euler is
    v + (dt*r)*rhs(v), and RK4 is v + (dt/6)*(k1 + 2k2 + 2k3 + k4) with
    k_i = r*rhs(v + c_i*dt*k_{i-1}).
    Raises StabilityViolation when the pre-clamp excursion outside [0,1]
    exceeds 1e-6 (a symptom of dt past the explicit-stability bound, or of
    inconsistent inputs), rather than silently clamping real dynamics.
    """
    r = rate_scale
    if method == "Euler":
        out, tmp = work
        _rhs(dk, v, out, tmp)
        out *= dt * r
    else:
        # out keeps the running sum k1 + 2k2 + 2k3 + k4, k the latest
        # stage, s the next stage's input
        out, k, s, tmp = work
        _rhs(dk, v, out, tmp)
        out *= r
        np.multiply(out, 0.5 * dt, out=s)
        s += v
        for c in (0.5, 1.0):
            _rhs(dk, s, k, tmp)
            k *= r
            np.multiply(k, c * dt, out=s)
            s += v
            k *= 2.0
            out += k
        _rhs(dk, s, k, tmp)
        k *= r
        out += k
        out *= dt / 6.0
    out += v
    overshoot = max(float(out.max()) - 1.0, -float(out.min()), 0.0)
    if overshoot > 1e-6:
        raise StabilityViolation("pre-clamp overshoot %.3e exceeds 1e-6"
                                 % overshoot)
    np.clip(out, 0.0, 1.0, out=out)
    return out, overshoot


def check_rate(dt, rate_scale):
    """Refuse an effective step dt*rate_scale past the stability ceiling."""
    if dt * rate_scale > DT_MAX + 1e-12:
        raise InvalidParams(
            "effective step dt*rate_scale = %g exceeds the stability "
            "ceiling %g" % (dt * rate_scale, DT_MAX))


def run(kernel, grid, config, n0, dk=None, rate_scale=1.0):
    """Integrate from n0 to t_end, recording snapshots and monitors.

    dk overrides the sampled kernel (the mutation regime passes its own
    rescaled samples); rate_scale multiplies the right-hand side, which
    rescales time without touching the invariant region.  The effective
    step dt*rate_scale must respect the same stability ceiling as dt.
    """
    if n0.grid != grid:
        raise GridMismatch("initial field lives on a different grid")
    if dk is None:
        dk = discretize_kernel(kernel, grid)
    elif dk.grid != grid:
        raise GridMismatch("sampled kernel lives on a different grid")
    check_rate(config.dt, rate_scale)

    t0 = _time.perf_counter()
    rows = []                       # one row of MONITORS per observed state
    clamp_total = 0.0
    work = _workspace(config.method, grid.N)

    def advance(v, h):
        nonlocal clamp_total
        out, overshoot = _advance(dk, v, h, config.method, rate_scale, work)
        work[0] = v                 # the old state takes the next result
        clamp_total += overshoot
        return out

    def observe(v, t):
        bd = max(float(v[0]), float(v[-1]))
        rows.append((t, float(v.min()), float(v.max()), bd, clamp_total))
        if bd >= config.boundary_guard:
            raise BoundaryContamination(
                "boundary density %.3e reached the guard %.3e at t=%g"
                % (bd, config.boundary_guard, t))

    def finish(snapshots, steps):
        # the observer raises on the first state past the guard, so only
        # the last row can be contaminated
        contaminated = rows[-1][3] >= config.boundary_guard
        wall = _time.perf_counter() - t0
        manifest = dict(
            kernel.manifest(), grid={"L": grid.L, "N": grid.N},
            dt=config.dt, t_end=config.t_end, method=config.method,
            rate_scale=rate_scale, steps_taken=steps,
            convolutions=steps * _STAGES[config.method], kernel_cells=dk.K,
            block_length=dk._P, block_count=dk._nb,
            kernel_tail_mass=dk.lost_mass, clamp_total=clamp_total,
            contaminated=contaminated, wall_time_s=wall,
            steps_per_s=steps / wall if wall > 0.0 else 0.0)
        monitors = dict(zip(MONITORS, np.array(rows).T))
        return SimulationRun(snapshots, kernel, grid, monitors, manifest,
                             contaminated)

    return _march(grid, np.clip(n0.values, 0.0, 1.0),
                  config.snapshot_times, config.t_end, config.dt, advance,
                  observe, finish)
