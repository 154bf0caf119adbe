"""Limit Hamiltonian and the constrained Hamilton-Jacobi equation.

In the vanishing-mutation rescaling the potential u = -eps ln n converges
to a solution of the obstacle problem

    min{ d_t u + H(d_x u), u } = 0,
    H(p) = 1 + int (e^{sign(h) f(h) p / f'(0)} - 1) Jhat(h) dh,

which is finite exactly on |p| < p_max = f'(0) (1 - 1/mu): the paired
integrand decays like e^{-(1 - |p|/f'(0)) f(h)} while f(h)/ln(h) -> mu,
so the tilted tail is integrable iff (1 - |p|/f'(0)) mu > 1.  All
quadratures here substitute s = f(h), which turns the fat tail into a
plain exponential one; truncation radii are certified by the same
log-shape tail bound the kernel module uses, evaluated in log space so
that slow tails (decay barely above 1/mu) do not overflow first.

The solver is monotone Lax-Friedrichs with obstacle projection
u <- max(u - dt*Hhat(D-u, D+u), 0), so u >= 0 holds to the last bit and
the scheme converges to the viscosity solution.  Cross-validation
compares it with the potentials -eps ln n that propagation.read_window,
the Hopf-Cole limit's reader too, takes of rescaled runs at grid nodes.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cauchy import Trajectory, _march
from .errors import (GradientOutOfRange, GridMismatch, InvalidParams,
                     NoConvergence)
from .gridops import adaptive_integrate, first_doubling

_CFL_SAFETY = 0.9       # Lax-Friedrichs steps dt <= _CFL_SAFETY dx/sigma
_ZERO_TOL = 1e-12       # roundoff that zero_set_boundary counts as zero
_N_R = 101              # inclusion_curves' scan points over r in [0, 1]
_N_P = 257              # hamiltonian_profile's rows over the p band
_MIN_CELLS = 10         # window_nodes' margin from the grid's edges
_T_POS = 1e-12          # comparison_times keeps the times above it


def _tail_log(kernel, lam, R, quad_factor=False):
    """ln of an upper bound on int_R^inf (f/f'(0))^k e^{-lam f} dh, k=0 or 2.

    k=0 is `Kernel.log_tail`.  For the quadratic factor (k=2, the kappa
    integrand) the same lower bound f(h) >= f(R) + c ln(h/R), c = R f'(R),
    gives the Gamma-type moments of the induced weight, valid once
    s^2 e^{-lam s} is past its peak, i.e. lam f(R) >= 2.  Returns +inf
    while not yet applicable.
    """
    base = kernel.log_tail(R, lam)
    if not quad_factor or math.isinf(base):
        return base
    fR = float(kernel.f(R))
    if lam * fR < 2.0:
        return math.inf
    c = R * float(kernel.f_prime(R))
    d = lam * c - 1.0
    poly = fR * fR + 2.0 * fR * c / d + 2.0 * c * c / (d * d)
    return base + math.log(poly) - 2.0 * math.log(kernel.fprime0)


def _certified_radius(kernel, lam, log_budget, quad_factor=False):
    """Smallest doubling radius whose tilted-tail bound is below budget."""
    return first_doubling(
        lambda R: _tail_log(kernel, lam, R, quad_factor) <= log_budget,
        what="certifying the tilted tail with decay rate %g below exp(%g)"
        % (lam, log_budget))


def _s_integral(kernel, numer, lam, log_budget, epsabs, epsrel,
                quad_factor=False):
    """int_0^S numer(s) / (Z f'(f_inv(s))) ds by adaptive quadrature, the
    integral over h >= 0 in s = f(h), cut at S = f(R) for the radius R
    that _certified_radius gives (kernel, lam, log_budget, quad_factor)."""
    k = kernel
    R = _certified_radius(k, lam, log_budget, quad_factor)
    return adaptive_integrate(
        lambda s: numer(s) / (k.Z * k.f_prime(k.f_inv(s))),
        0.0, float(k.f(R)), epsabs=epsabs, epsrel=epsrel)


class Hamiltonian:
    """Cached evaluator for H(p) = 1 + int (e^{sign(h) f p/f'(0)} - 1) Jhat.

    Construction certifies a slope range [0, p_table] (aimed at 96% of
    p_max, shrunk in 0.01 steps when the tilted tail that close to the
    divergence cannot be certified in double precision) and fills a
    dense even table by fixed Gauss-Legendre panels in s = f(h).  The
    table backs the vectorized interpolation the time stepper calls in
    its inner loop; eval_H is the independent adaptive-quadrature route
    for single points, and the two are cross-checked in tests.
    """

    _TABLE_AIM = 0.96
    _TABLE_N = 2049
    _TABLE_ROWS = 64
    _GL_NODES = 48

    def __init__(self, kernel):
        kernel.check_eligible()
        self.kernel = kernel
        self.p_max = kernel.p_max
        self._kappa_cache = {}
        self._build_table()

    # -- construction ---------------------------------------------------

    def _build_table(self):
        k = self.kernel
        # dropped remainder per table slope; the factor 2 headroom covers
        # the e^{-(1+z)s} and -2e^{-s} companions of the slow mode
        log_budget = math.log(0.5 * k.Z * 1e-13)
        frac = self._TABLE_AIM
        R = None
        while frac >= 0.25:
            try:
                R = _certified_radius(k, 1.0 - frac * k.a_max, log_budget)
                break
            except NoConvergence:
                frac = round(frac - 0.01, 10)
        if R is None:
            raise NoConvergence(
                "no certifiable slope range below 0.25*p_max for %r" % (k,))
        self.p_table = frac * self.p_max
        S = float(k.f(R))
        edges = [0.0, min(1.0, S)]
        while edges[-1] < S:
            edges.append(min(2.0 * edges[-1], S))
        nodes, gl_w = leggauss(self._GL_NODES)
        ss, ww = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            ss.append(lo + half * (nodes + 1.0))
            ww.append(gl_w * half)
        ss = np.concatenate(ss)
        # quadrature weight times dh/ds = 1/f'(f_inv(s)), over Z
        dens = np.concatenate(ww) / (k.Z * k.f_prime(k.f_inv(ss)))
        ptab = np.linspace(0.0, self.p_table, self._TABLE_N)
        z = (ptab / k.fprime0)[:, None]
        s = ss[None, :]
        two_es = 2.0 * np.exp(-s)
        # _TABLE_ROWS rows at a time.  The whole integrand matrix is 9 MB
        # for LogLinear beta=3, and the process kept about that much
        # resident after freeing it.  Its product with dens also moved an
        # entry's last bits with OpenBLAS's thread count, where a block
        # this size came out the same under one and two threads
        H = np.empty(ptab.size)
        for lo in range(0, ptab.size, self._TABLE_ROWS):
            zb = z[lo:lo + self._TABLE_ROWS]
            paired = np.exp(-(1.0 - zb) * s) + np.exp(-(1.0 + zb) * s) \
                - two_es
            H[lo:lo + self._TABLE_ROWS] = 1.0 + paired @ dens
        H[0] = 1.0              # the z = 0 integrand vanishes identically
        self._ptab = ptab
        self._Htab = H

    # -- evaluation -----------------------------------------------------

    def eval_H(self, p):
        """H(p) by adaptive quadrature in s = f(h), certified dropped tail.

        The even pairing h <-> -h is folded in analytically:
        H(p) = 1 + int_0^inf (e^{-(1-z)s} + e^{-(1+z)s} - 2e^{-s})
                             / (Z f'(f_inv(s))) ds,   z = |p|/f'(0).
        Exact at p = 0.  Raises GradientOutOfRange for |p| >= p_max and
        NoConvergence when |p| sits so close to p_max that the tilted
        tail cannot be certified in double precision.
        """
        p = float(p)
        if abs(p) >= self.p_max:
            raise GradientOutOfRange(
                "|p| = %g is not below p_max = %g" % (abs(p), self.p_max))
        if p == 0.0:
            return 1.0
        k = self.kernel
        z = abs(p) / k.fprime0
        lam = 1.0 - z
        return 1.0 + _s_integral(
            k, lambda s: (math.exp(-lam * s) + math.exp(-(1.0 + z) * s)
                          - 2.0 * math.exp(-s)),
            lam, math.log(0.5 * k.Z * 1e-12), epsabs=1e-11, epsrel=1e-10)

    def eval_H_prime(self, p):
        """dH/dp by central differences of eval_H, step 1e-4 * p_max."""
        p = float(p)
        d = 1e-4 * self.p_max
        if abs(p) + d >= self.p_max:
            raise GradientOutOfRange(
                "|p| = %g leaves no room for the %g difference stencil "
                "below p_max = %g" % (abs(p), d, self.p_max))
        return (self.eval_H(p + d) - self.eval_H(p - d)) / (2.0 * d)

    def table_eval(self, p):
        """Vectorized H by linear interpolation of the cached even table."""
        q = np.abs(np.asarray(p, dtype=float))
        if q.size and float(q.max()) > self.p_table + 1e-8:
            raise GradientOutOfRange(
                "slope %g outside the certified table range [0, %g]"
                % (float(q.max()), self.p_table))
        out = np.interp(q, self._ptab, self._Htab)
        return float(out) if np.ndim(p) == 0 else out

    # -- quadratic envelope ----------------------------------------------

    def kappa_bounds(self, A):
        """Envelope constants (kap_lo, kap_hi) of H near p = 0.

        kap = int_0^inf (f/f'(0))^2 e^{-+ A f/f'(0)} Jhat dh; on the slope
        band |p| <= A f'(0) they sandwich 1 + kap p^2 around H(p) (lower
        bound always, upper bound in the small-A regime the envelope is
        used in).  The upper constant needs (1 - A/f'(0)) mu > 1, that is
        A < p_max, or its integral diverges (Kernel.check_A).
        """
        k = self.kernel
        A = float(A)
        k.check_A(A, envelope=True)
        if A in self._kappa_cache:
            return self._kappa_cache[A]
        fp0 = k.fprime0
        pair = tuple(
            _s_integral(k, lambda s: (s / fp0) ** 2 * math.exp(-lam * s),
                        lam, math.log(2.5e-11 * k.Z), epsabs=1e-10,
                        epsrel=1e-9, quad_factor=True)
            for lam in (1.0 + A / fp0, 1.0 - A / fp0))
        self._kappa_cache[A] = pair
        return pair


def hamiltonian_profile(H, A):
    """Sampled rows (p, H(p), 1 + kap_lo p^2, 1 + kap_hi p^2).

    The p range is the envelope band |p| <= A f'(0), clipped to the
    certified table range when A sits close to its admissible ceiling.
    """
    kap_lo, kap_hi = H.kappa_bounds(A)
    p_hi = min(A * H.kernel.fprime0, H.p_table)
    ps = np.linspace(-p_hi, p_hi, _N_P)
    Hs = H.table_eval(ps)
    return ps, Hs, 1.0 + kap_lo * ps ** 2, 1.0 + kap_hi * ps ** 2


# ----------------------------------------------------------------------
# constrained solver


@dataclass
class HJSolution(Trajectory):
    """Snapshots of the obstacle problem plus the scheme's audit trail."""

    grid: object
    meta: dict


def _lf_step(H, u, dx, dt, sigma):
    """One obstacle-projected Lax-Friedrichs update with linear ghosts."""
    # the padded copy goes before the flux is formed: in a worker thread's
    # malloc arena, what the step holds at once stays resident after it
    d = np.diff(np.concatenate(
        ([2.0 * u[0] - u[1]], u, [2.0 * u[-1] - u[-2]])))
    d /= dx
    pm = d[:-1]
    pp = d[1:]
    # max(u - dt (H(0.5 (pm + pp)) - 0.5 sigma (pp - pm)), 0), rounded
    # as written but in place where it can be: each fresh grid-size array
    # may be a fresh mapping from malloc, its pages faulted in anew
    w = pm + pp
    w *= 0.5
    out = H.table_eval(w)
    np.subtract(pp, pm, out=w)
    w *= 0.5 * sigma
    out -= w
    out *= dt
    np.subtract(u, out, out=out)
    return np.maximum(out, 0.0, out=out)


def solve_constrained_hj(H, config, u0, sigma=None):
    """March min{u_t + H(u_x), u} = 0 on u0's grid to config.t_end and
    record exactly config.snapshot_times.

    The numerical flux is Hhat(pm, pp) = H((pm+pp)/2) - sigma (pp-pm)/2
    with sigma = 1.2 sup|H'| over the initial slope range (central
    differences of eval_H); by convexity and evenness that sup sits at
    the initial Lipschitz constant.  Passing sigma overrides the
    automatic bound; it must dominate sup|H'| over every slope the run
    visits (property tests use this to compare two runs under one
    scheme).  sigma is the scheme's one parameter: the update is
    monotone for dt <= _CFL_SAFETY*dx/sigma, and that bound (none when
    sigma is 0) is the step cap; config.dt is not read.  Each gap
    between snapshot times is crossed in ceil(gap/cap) equal steps, so
    every time is hit exactly.  Ghost values extend u linearly, so
    boundary gradients are one-sided.  meta records the scheme's
    constants, the steps taken and hj_wall_time_s, the seconds the call
    took.
    """
    t0 = time.perf_counter()
    grid, u = u0.grid, u0.values
    if np.any(u < 0.0):
        raise InvalidParams("u0 must be nonnegative")
    dx = grid.dx
    lip0 = float(np.max(np.abs(np.diff(u)))) / dx
    if lip0 >= H.p_table:
        raise GradientOutOfRange(
            "initial slope %g is not inside the certified range [0, %g) "
            "(p_max = %g)" % (lip0, H.p_table, H.p_max))
    if sigma is None:
        sigma = 1.2 * abs(H.eval_H_prime(lip0)) if lip0 > 0.0 else 0.0
    elif sigma < 0.0:
        raise InvalidParams("sigma must be nonnegative")
    dt_cap = _CFL_SAFETY * dx / sigma if sigma > 0.0 else math.inf

    def advance(v, h):
        return _lf_step(H, v, dx, h, sigma)

    def observe(v, t):
        lip = float(np.max(np.abs(np.diff(v)))) / dx
        if lip > H.p_max:
            raise GradientOutOfRange(
                "discrete slope %g exceeded p_max = %g at t=%g; the "
                "a-priori Lipschitz bound failed, aborting"
                % (lip, H.p_max, t))

    def finish(records, steps):
        meta = {
            "sigma": sigma,
            "lip0": lip0,
            "dt_cap": None if math.isinf(dt_cap) else dt_cap,
            "safety": _CFL_SAFETY,
            "steps": steps,
            "p_table": H.p_table,
            "hj_wall_time_s": time.perf_counter() - t0,
        }
        return HJSolution(records, grid, meta)

    return _march(grid, u, config.snapshot_times, config.t_end, dt_cap,
                  advance, observe, finish)


# ----------------------------------------------------------------------
# zero sets and envelope curves


def zero_set_boundary(field):
    """Endpoints (x_left, x_right) of the widest run of nodes with u <= 0
    (to _ZERO_TOL).

    Ties go to the run whose midpoint is nearest the domain center;
    (nan, nan) when u is positive everywhere.
    """
    u = field.values
    x = field.grid.x
    mask = (u <= _ZERO_TOL).astype(np.int8)
    flips = np.flatnonzero(np.diff(np.concatenate(([0], mask, [0]))))
    if flips.size == 0:
        return (math.nan, math.nan)
    starts, ends = flips[::2], flips[1::2]      # half-open [start, end)
    lengths = ends - starts
    cand = np.flatnonzero(lengths == lengths.max())
    center = 0.5 * (x[0] + x[-1])
    mids = 0.5 * (x[starts[cand]] + x[ends[cand] - 1])
    j = cand[int(np.argmin(np.abs(mids - center)))]
    return (float(x[starts[j]]), float(x[ends[j] - 1]))


def inclusion_curves(H, A, t):
    """Inner/outer zero-set radii at time t for the initial cone A f(|x|).

    radius(kap) = max over r in [0, 1] of 2 sqrt(kap) r t
                  + f_inv(t (1 - r^2)/A), scanned on _N_R points; the
    inner curve takes kap_lo, the outer kap_hi.
    """
    if t < 0.0:
        raise InvalidParams("t must be nonnegative")
    r = np.linspace(0.0, 1.0, _N_R)
    y = H.kernel.f_inv(t * (1.0 - r * r) / A)
    lo, hi = (float(np.max(2.0 * math.sqrt(kap) * r * t + y))
              for kap in H.kappa_bounds(A))
    return lo, hi


# ----------------------------------------------------------------------
# cross-validation against rescaled runs


def window_nodes(grid, x_window):
    """The grid nodes in x_window = (x_lo, x_hi), which must hold
    one at least and stay _MIN_CELLS nodes away from the grid's edges
    (the ghost extrapolation pollutes the outermost cells)."""
    xlo, xhi = float(x_window[0]), float(x_window[1])
    if not xlo < xhi:
        raise InvalidParams("window needs x_lo < x_hi")
    if xlo < grid.x[_MIN_CELLS] or xhi > grid.x[grid.N - 1 - _MIN_CELLS]:
        raise InvalidParams(
            "window [%g, %g] is closer than %d cells to the grid edge"
            % (xlo, xhi, _MIN_CELLS))
    xs = grid.x[(grid.x >= xlo) & (grid.x <= xhi)]
    if not xs.size:
        raise InvalidParams("window contains no grid nodes")
    return xs


def comparison_times(times):
    """(t, t) for the positive times t among times, the (run, limit)
    times cross-validation compares at; there must be one at least."""
    kept = [(t, t) for t in times if t > _T_POS]
    if not kept:
        raise InvalidParams("no positive comparison times")
    return kept


def cross_validate(pots, hj):
    """(eps, sup |u_eps - u|) for each rescaled run's window potential,
    by decreasing eps.  pots are propagation.read_window's, read at nodes
    of hj's grid and at times hj holds; each is given hj on its samples
    as its limit.  Whether the errors fall with eps is the caller's
    verdict to make.
    """
    x, rows = hj.grid.x, []
    for pot in sorted(pots, key=lambda p: -p.eps):
        idx = np.minimum(np.searchsorted(x, pot.xs), x.size - 1)
        if not np.array_equal(x[idx], pot.xs):
            raise GridMismatch("window off the nodes of %r" % hj.grid)
        pot.limit = np.array([hj.snapshot_at(t).values[idx]
                              for t in pot.times])
        rows.append((pot.eps, pot.sup_error()))
    return rows
