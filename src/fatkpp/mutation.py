"""Small-jump rescaling: contracted kernels, rescaled runs, limit sets.

The one jump map m_eps(h) = sign(h) f_inv(eps f(|h|)) (Kernel.contract)
shrinks every jump so that f(m_eps(h)) = eps f(h) exactly.  Pushing the
base density through it gives the rescaled kernel J_eps, whose f-second
moment scales like eps^2; J_eps is written through the inverse map, the
long-range scaling Psi_eps (Kernel.dilate).
The rescaled equation eps dn/dt = J_eps*n - n + n(1-n) is the Cauchy
problem stepped at rate 1/eps, so a rescaled run is a `cauchy.run` with
eps and the sampled J_eps, and its result is that run's SimulationRun.
Its initial potential u0 = A f(|x|) is a plain Field, and the potential
u = -eps ln n is the quantity the Hamilton-Jacobi limit speaks about.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cauchy import check_rate, run as cauchy_run
from .errors import GridTooCoarse, InvalidParams
from .gridops import Field, adaptive_integrate, discretize_kernel

_FD_ANCHORS = 100       # evenly spread nodes fd_condition pairs up
_FD_GAPS = 50           # geometric gaps, 1 to N-1 cells, from each anchor
_FD_TOL = 1e-8          # worst fd violation initial data may show


@dataclass
class MutationKernel:
    """Continuum rescaled kernel: jump map m, density, tail bound.

    The jumps are m_eps(h) = sign(h) f_inv(eps f(|h|)), and the density
    is the pushforward of Jhat through them.  With Psi_eps the inverse
    of m_eps (Kernel.dilate) it reads, for a = |h|,

        J_eps(a) = (f'(a) / f'(Psi_eps(a))) e^{-f(a)/eps} / (Z eps),

    which is exactly 1/(Z eps) at a = 0.
    """

    base: object
    eps: float

    def __post_init__(self):
        self.base.check_eligible()
        if not (0.0 < self.eps <= 1.0):
            raise InvalidParams("eps must lie in (0, 1]")

    def m(self, h):
        """The jump map m_eps."""
        return self.base.contract(h, self.eps)

    def J_hat(self, h):
        """Normalized density of the rescaled jumps; 0 where exp(-f/eps)
        underflows (further out, dilate would overflow)."""
        k, eps = self.base, self.eps
        a = np.abs(np.asarray(h, dtype=float))
        w = np.exp(-k.f(a) / eps)
        live = w > 0.0
        b = a[live]
        out = np.zeros(np.shape(a))
        out[live] = (k.f_prime(b) / k.f_prime(k.dilate(b, eps))
                     * w[live]) / (k.Z * eps)
        return out if np.ndim(out) else float(out)

    def tail_bound(self, R):
        """Mass beyond |h| > R equals the base mass beyond Psi_eps(R)."""
        return self.base.tail_bound(self.base.dilate(R, self.eps))

    def half_support(self, tail_tol):
        base_R = self.base.half_support(tail_tol)
        return float(self.m(base_R))

    def mass(self):
        val = adaptive_integrate(self.J_hat, 0.0, np.inf,
                                 tail=self.tail_bound)
        return 2.0 * val

    def f_second_moment(self):
        """int f(|h|)^2 dJ_eps by direct quadrature on this density."""
        f = self.base.f
        val = adaptive_integrate(
            lambda h: f(h) ** 2 * self.J_hat(h), 0.0, np.inf,
            epsabs=1e-12)
        return 2.0 * val


def check_resolution(kernel, eps, grid):
    """Refuse a grid too coarse for the rescaled kernel J_eps.

    The density concentrates on a scale m_eps(h0), h0 the base kernel's
    interquartile point; at least 4 cells must fit under it or the
    sampled kernel would misrepresent the jump distribution entirely.
    The scale grows with eps, so a grid that passes at min(eps) passes
    at every eps.
    """
    h0 = kernel.interquartile
    scale = abs(kernel.contract(h0, eps))
    if grid.dx > scale / 4.0:
        raise GridTooCoarse(
            "dx = %g cannot resolve the rescaled kernel at eps = %g: need "
            "dx <= m_eps(h0)/4 = %g (h0 = %g)"
            % (grid.dx, eps, scale / 4.0, h0))


def discretize_mutation_kernel(mk, grid):
    """Sample J_eps on grid offsets, refusing unresolvable spikes
    (check_resolution)."""
    check_resolution(mk.base, mk.eps, grid)
    return discretize_kernel(mk, grid)


# ----------------------------------------------------------------------
# initial data


def growth_bound(kernel, A):
    """r_hat = int e^{A f} dJhat = (1/Z) int e^{-(1-A) f} dh (finite for
    A below 1 - 1/mu; this is the sub-solution decay rate of u)."""
    kernel.check_A(A)
    lam = 1.0 - A
    val = adaptive_integrate(lambda h: np.exp(-lam * kernel.f(h)),
                             0.0, np.inf,
                             tail=lambda R: math.exp(kernel.log_tail(R, lam)))
    return 2.0 * val / kernel.Z


def fd_condition(kernel, u0, A):
    """Worst violation of u(x+h) - u(x) >= -A f(|h|) over a fixed set of
    node pairs.

    u0 is a Field.  The anchors are the middle nodes of _FD_ANCHORS equal
    parts of the grid, and each is paired with the nodes _FD_GAPS
    geometrically spaced gaps away, from one cell to N-1, on either side
    where the grid reaches; both orders of a pair are read.  So every part
    of the grid and every gap scale is sampled, one-cell gaps included.
    Returns the max over the pairs of -A f(|x_j - x_i|) - (u_j - u_i);
    nonpositive (up to roundoff) means the condition holds.
    """
    grid, u = u0.grid, u0.values
    N = grid.N
    anchors = ((np.arange(_FD_ANCHORS) + 0.5) * (N / _FD_ANCHORS)).astype(
        np.intp)
    gaps = np.geomspace(1, N - 1, _FD_GAPS).round().astype(np.intp)
    gaps = gaps[np.diff(gaps, prepend=0) > 0]   # np.unique loads numpy.ma
    i = np.repeat(anchors, 2 * gaps.size)
    j = i + np.tile(np.concatenate([gaps, -gaps]), anchors.size)
    keep = (j >= 0) & (j < N)
    i, j = i[keep], j[keep]
    bound = -A * kernel.f(np.abs(grid.x[j] - grid.x[i]))
    return float(np.max(bound + np.abs(u[j] - u[i])))


def mutation_initial_data(kernel, grid, A):
    """The validated initial potential u0 = A f(|x|), a Field.

    Validation: A in (0, 1 - 1/mu) (Kernel.check_A), and the sampled
    finite-difference condition u0(x+h) - u0(x) >= -A f(|h|) within
    _FD_TOL.
    """
    kernel.check_A(A)
    u0 = Field(grid, A * kernel.f(np.abs(grid.x)))
    worst = fd_condition(kernel, u0, A)
    if worst > _FD_TOL:
        raise InvalidParams(
            "u0 violates the finite-difference decay condition by %.3e"
            % worst)
    return u0


# ----------------------------------------------------------------------
# rescaled runs


def mutation_run(kernel, eps, config, u0):
    """Integrate eps dn/dt = J_eps*n - n + n(1-n) from n0 = e^{-u0/eps}
    on u0's grid; returns the cauchy.run SimulationRun, which carries eps.

    config.dt is slow time; the effective fast step dt/eps must respect
    the usual stability ceiling, checked before the rescaled kernel is
    sampled so that a too-large step is reported as such.  The potential
    u = -eps ln n comes from propagation.potential_of where it is needed.
    """
    mk = MutationKernel(kernel, eps)
    check_rate(config.dt, eps)
    dk = discretize_mutation_kernel(mk, u0.grid)
    # n0 is not bound here, so the run's clipped copy is its only copy
    return cauchy_run(kernel, config,
                      Field(u0.grid, np.exp(-u0.values / eps)), dk=dk,
                      eps=eps)


# ----------------------------------------------------------------------
# limit sets


def classify_limit_sets(u, tol):
    """Partition nodes into 'A' (u > tol), 'B' (u < tol, eroded 2 cells),
    and 'U' for the remainder."""
    u = u.values if isinstance(u, Field) else np.asarray(u, dtype=float)
    if tol <= 0.0:
        raise InvalidParams("tol must be positive")
    a_pos = u > tol
    low = np.pad(u < tol, 2)    # eroded by two cells, ends count as high
    b_null = np.logical_and.reduce([low[k:k + u.size] for k in range(5)])
    out = np.full(u.shape, "U", dtype="<U1")
    out[a_pos] = "A"
    out[b_null & ~a_pos] = "B"
    return out
