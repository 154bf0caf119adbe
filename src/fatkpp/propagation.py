"""Front tracking, envelope diagnostics, and the Hopf-Cole potential.

The traveling quantity behind every check here is the logistic envelope

    phi(t, x) = 1 / (1 + e^{-t} / J(x)) = 1 / (1 + e^{f(|x|) - t}),

which solves the spatially-decoupled ODE family exactly and tracks the
accelerating front of the full dynamics up to a multiplicative error
controlled by the residual theta(t) = sup_x |Jhat*phi - phi| / phi.
Both limit checks read u_eps = -eps ln n of a run on a compact window of
(t, x) with read_window: hopf_cole_field through the kernel's space map
Psi_eps (Kernel.dilate), CrossValidate at grid nodes for hj.cross_validate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidParams, OutOfDomain

# below this fraction of the largest phi its block reads, the convolution
# of phi at a node is roundoff relative to phi itself, so the residual
# switches to exact windowed sums there
_DEEP_FLOOR = 1e-8
# cap on directly-summed tail nodes per residual evaluation (the residual
# varies slowly along the tail, so a decimated sup is a faithful estimate)
_DEEP_SAMPLES = 768
_THETA1_ALPHA = 0.5     # theta1 reads the tail slope past f_inv(a t)
_T_EARLY = 1e-3         # the sandwich integrates theta from here
_GARNIER_DELTA = 0.2    # the front's bracket f_inv((1-delta) t)
_GARNIER_RHO = 2.0      # ... and f_inv(rho t)
_HC_NX = 101            # hopf_cole_field's x samples across the window


# ----------------------------------------------------------------------
# envelope and pointwise diagnostics


def phi_envelope(kernel, t, x):
    """The logistic envelope phi(t,x), built on the unnormalized shape J."""
    if t < 0.0:
        raise InvalidParams("phi_envelope needs t >= 0")
    # e^{f - t} overflows to inf far out, where phi is 0 exactly
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(kernel.f(np.abs(x)) - t))


def theta1(kernel, t):
    """Decay rate bounding |d_x phi| / phi at time t.

    max of a transient term sup|f'| e^{-(1-a)t} and the tail slope
    sup_{|z| >= f_inv(a t)} f'(z), a = _THETA1_ALPHA; the latter sup is
    f' evaluated at max(f_inv(a t), x_peak) because f' rises to its peak
    and then decays.
    """
    a = _THETA1_ALPHA
    if t <= 0.0:
        raise InvalidParams("theta1 needs t > 0")
    transient = kernel.f_prime(kernel.x_peak) * np.exp(-(1.0 - a) * t)
    z = max(kernel.f_inv(a * t), kernel.x_peak)
    return float(max(transient, kernel.f_prime(z)))


# ----------------------------------------------------------------------
# envelope residual (numerical theta-hat)


def envelope_residual(kernel, grid, t, dk):
    """sup |Jhat*phi - phi| / phi over nodes >= K from the boundary.

    The blocked convolution is used verbatim wherever phi is well above
    its rounding, ~1e-16 of the largest phi within the node's block.
    Below that, in deep tails read through one wide block, the same
    discrete sum is evaluated directly on a decimated subset of nodes.
    """
    if t <= 0.0:
        raise InvalidParams("envelope_residual needs t > 0")
    N, K = grid.N, dk.K
    if 2 * K >= N:
        raise InvalidParams("kernel support covers the whole grid; no node "
                            "is a full support radius away from the edges")
    phi = phi_envelope(kernel, t, grid.x)
    conv = dk.apply(phi)

    idx = np.arange(K, N - K)
    # phi falls off in |x|, so a node's largest input is the one nearest 0
    peak = phi[np.clip(N // 2, idx - dk.reach, idx + dk.reach)]
    is_deep = phi[idx] < _DEEP_FLOOR * peak
    res = idx[~is_deep]
    best = float(np.max(np.abs(conv[res] - phi[res]) / phi[res], initial=0.0))

    deep = idx[is_deep & (phi[idx] > 0.0)]
    if deep.size > _DEEP_SAMPLES:   # a step over 1 repeats no index
        deep = deep[np.linspace(0, deep.size - 1,
                                _DEEP_SAMPLES).astype(int)]
    for i in deep:
        best = max(best, abs(dk.direct(phi, i) - phi[i]) / phi[i])
    return float(best)


def envelope_sandwich_report(run, dk, C):
    """Per-snapshot residuals and sandwich violations for a completed run.

    dk is the run's sampled kernel, the one it was stepped with.

    Returns rows (t, theta_hat, lo_violation, hi_violation) where the
    violations are the worst pointwise excesses of

        C_lo e^{-int theta} phi <= n <= 2 C_hi e^{+int theta} phi

    over nodes a support radius away from the boundary (0 when the bound
    holds).  The residual integral accumulates by trapezoid over snapshot
    times, seeded at _T_EARLY to cover the initial layer.
    """
    kernel, grid = run.kernel, run.grid
    if dk.grid != grid:
        raise GridMismatch("sampled kernel lives on a different grid")
    C_lo, C_hi = min(C, 1.0), max(C, 1.0)
    K, N = dk.K, grid.N
    sel = np.zeros(N, dtype=bool)
    sel[K : N - K] = True
    xs = grid.x[sel]

    thetas = [envelope_residual(kernel, grid, max(t, _T_EARLY), dk=dk)
              for t, _ in run.snapshots]
    prev_th = envelope_residual(kernel, grid, _T_EARLY, dk=dk)
    rows = []
    acc = 0.0
    prev_t = 0.0
    for (t, fld), th in zip(run.snapshots, thetas):
        if t > prev_t:
            acc += 0.5 * (th + prev_th) * (t - prev_t)
        prev_t, prev_th = t, th
        phi = phi_envelope(kernel, t, xs)
        n = fld.values[sel]
        lo = C_lo * np.exp(-acc) * phi
        hi = 2.0 * C_hi * np.exp(acc) * phi
        lo_vio = float(max(0.0, np.max(lo - n)))
        hi_vio = float(max(0.0, np.max(n - hi)))
        rows.append((t, th, lo_vio, hi_vio))
    return rows


# ----------------------------------------------------------------------
# front tracking


@dataclass
class FrontTrack:
    """Rightmost level crossings with the analytic predictions alongside."""

    level: float
    times: np.ndarray
    positions: np.ndarray       # NaN where the level is never reached
    predicted: np.ndarray       # f_inv(t)
    garnier_lo: np.ndarray      # f_inv((1-delta) t)
    garnier_hi: np.ndarray      # f_inv(rho t)


def _rightmost_crossing(x, v, level):
    above = v >= level
    if not above.any():
        return np.nan
    flips = np.nonzero(above[:-1] != above[1:])[0]
    if flips.size == 0:
        return np.nan if not above.all() else x[-1]
    i = flips[-1]
    frac = (level - v[i]) / (v[i + 1] - v[i])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def track_level(run, level):
    """Trace the level set of a run against the f_inv(t) front law."""
    if not (0.0 < level < 1.0):
        raise InvalidParams("level must lie in (0,1)")
    if run.contaminated:
        raise InvalidParams("refusing to track fronts of a contaminated run")
    kernel = run.kernel
    x = run.grid.x
    rows = [(t, _rightmost_crossing(x, fld.values, level), kernel.f_inv(t),
             kernel.f_inv((1.0 - _GARNIER_DELTA) * t),
             kernel.f_inv(_GARNIER_RHO * t))
            for t, fld in run.snapshots]
    return FrontTrack(level, *(np.asarray(c) for c in zip(*rows)))


# ----------------------------------------------------------------------
# rescaled potential u_eps = -eps ln n(t/eps, Psi_eps(x))


def potential_of(field_values, eps):
    """u = -eps ln n with the documented 1e-300 floor and its mask."""
    floored = field_values < 1e-300
    u = -eps * np.log(np.maximum(field_values, 1e-300))
    return u, floored


@dataclass
class WindowPotential:
    """u_eps of a run read on a compact window of (t, x), one row per
    limit time, and the limit it is compared with on the same samples."""

    eps: float
    times: np.ndarray           # the limit's times
    xs: np.ndarray
    u: np.ndarray               # shape (len(times), len(xs))
    floored: np.ndarray         # True where n hit the log floor
    limit: np.ndarray = None    # set by the caller, same shape as u

    def sup_error(self):
        return float(np.max(np.abs(self.u - self.limit)))


def read_window(run, eps, xs, ys, pairs):
    """u_eps of run at ys, the window points xs on its grid (linear
    interpolation, exact at nodes), for each (run time, limit time) in
    pairs; every run time must be a snapshot time of run."""
    x = run.grid.x
    u, floored = (np.array(c) for c in zip(*(
        potential_of(np.interp(ys, x, run.snapshot_at(s).values), eps)
        for s, _ in pairs)))
    return WindowPotential(eps, np.array([t for _, t in pairs]), xs, u,
                           floored)


def dilated_window(kernel, grid, eps, x_span):
    """hopf_cole_field's sample points xs across x_span and their
    dilations Psi_eps(xs), which must stay on the grid: |y| <= x_{N-1}."""
    xs = np.linspace(x_span[0], x_span[1], _HC_NX)
    ys = kernel.dilate(xs, eps)
    usable = grid.x[-1]
    if np.max(np.abs(ys)) > usable:
        raise OutOfDomain(
            "dilated coordinate %.6g exceeds the usable grid |x| <= %.6g"
            % (float(np.max(np.abs(ys))), usable))
    return xs, ys


def mapped_times(eps, times, t_span):
    """The (s, eps*s) pairs of the times s whose rescaled times eps*s fall
    in t_span (to 1e-12), those hopf_cole_field reads; there must be one
    at least."""
    t_lo, t_hi = t_span
    kept = [(s, eps * s) for s in times
            if t_lo - 1e-12 <= eps * s <= t_hi + 1e-12]
    if not kept:
        raise InvalidParams("no snapshot maps into the requested t window")
    return kept


def hopf_cole_field(run, eps, x_span, t_span):
    """u_eps = -eps ln n(t/eps, Psi_eps(x)) over a compact window, against
    its long-range limit max(f(|x|) - t, 0), at the rescaled snapshot
    times eps*s inside t_span."""
    if not (0.0 < eps <= 1.0):
        raise InvalidParams("hopf_cole_field needs eps in (0, 1]")
    if run.contaminated:
        raise InvalidParams("refusing to rescale a contaminated run")
    x_lo, x_hi = x_span
    t_lo, t_hi = t_span
    if not (x_lo < x_hi and t_lo <= t_hi):
        raise InvalidParams("empty compact window")
    kernel = run.kernel
    xs, ys = dilated_window(kernel, run.grid, eps, x_span)
    hc = read_window(run, eps, xs, ys, mapped_times(
        eps, [s for s, _ in run.snapshots], t_span))
    hc.limit = np.maximum(kernel.f(np.abs(xs)) - hc.times[:, None], 0.0)
    return hc
