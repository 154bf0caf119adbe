"""Small-jump rescaling: contracted kernels, rescaled runs, limit sets.

The jump map m_eps(h) = sign(h) f_inv(eps f(|h|)) (Kernel.contract, the
inverse of the long-range map Psi_eps) shrinks every jump so that
f(m_eps(h)) = eps f(h) exactly; pushing the base density through it
gives the rescaled kernel J_eps whose f-second moment scales like eps^2.
The rescaled equation eps dn/dt = J_eps*n - n + n(1-n) is integrated by
the ordinary stepper with a 1/eps rate factor, and the potential
u = -eps ln n is the quantity the Hamilton-Jacobi limit speaks about.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_erosion

from .cauchy import check_rate, run as cauchy_run
from .errors import (GridTooCoarse, InvalidParams, NonIntegrableTail,
                     NotMutationEligible)
from .gridops import (Field, adaptive_integrate, discretize_kernel,
                      invert_monotone)

_FD_PAIRS = 10_000      # node pairs fd_condition samples
_FD_SEED = 0            # fd_condition's fixed sampling seed
_FD_TOL = 1e-8          # worst fd violation initial data may show


def _require_eligible(kernel):
    if not kernel.mutation_eligible:
        raise NotMutationEligible(
            "%r has f'(0) = %g; the small-jump rescaling needs a finite "
            "positive origin slope" % (kernel, kernel.fprime0))


@dataclass
class MutationKernel:
    """Continuum rescaled kernel: jump map m, density, tail bound.

    A jump map is one function g with f(m^{-1}(a)) = g(a)/eps for a >= 0,
    so m(h) = sign(h) g^{-1}(eps f(|h|)): g = f gives the contracted
    jumps m_eps, and g(a) = f'(0) a the "linearized" control, whose jumps
    eps f(|h|)/f'(0) are not contracted back through f_inv, so its
    generator reproduces the limit Hamiltonian at any eps.  The density
    is the pushforward of Jhat, (g'(a) / f'(m^{-1}(a))) e^{-g(a)/eps} /
    (Z eps), which is exactly 1/(Z eps) at a = 0 for both maps.
    """

    base: object
    eps: float
    jump_map: str = "contraction"

    def __post_init__(self):
        k, eps = self.base, self.eps
        _require_eligible(k)
        if not (0.0 < eps <= 1.0):
            raise InvalidParams("eps must lie in (0, 1]")
        s = k.fprime0
        maps = {   # name -> (g, g', m)
            "contraction": (k.f, k.f_prime, lambda h: k.contract(h, eps)),
            "linearized": (lambda a: s * a, lambda a: s,
                           lambda h: np.sign(h) * (eps * k.f(h) / s)),
        }
        if self.jump_map not in maps:
            raise InvalidParams("jump_map must be one of %s" % sorted(maps))
        self._g, self._dg, self.m = maps[self.jump_map]

    def _back(self, a):
        """m^{-1}(a) = f_inv(g(a)/eps) for a >= 0."""
        return self.base.f_inv(self._g(a) / self.eps)

    def J_hat(self, h):
        """Normalized density of the rescaled jumps."""
        k, eps = self.base, self.eps
        a = np.abs(np.asarray(h, dtype=float))
        out = (self._dg(a) / k.f_prime(self._back(a))
               * np.exp(-self._g(a) / eps)) / (k.Z * eps)
        return out if np.ndim(out) else float(out)

    def tail_bound(self, R):
        """Mass beyond |h| > R equals the base mass beyond m^{-1}(R)."""
        return self.base.tail_bound(self._back(R))

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


def interquartile(kernel):
    """h0 with int_0^{h0} Jhat = 1/4 (half the mass of the right side)."""
    return invert_monotone(
        lambda h: adaptive_integrate(kernel.J_hat, 0.0, h) if h > 0 else 0.0,
        0.25, lo=0.0)


def discretize_mutation_kernel(mk, grid):
    """Sample J_eps on grid offsets, refusing unresolvable spikes.

    The density concentrates on a scale m_eps(h0) (h0 the base kernel's
    interquartile point); at least 4 cells must fit under it or the
    sampled kernel would misrepresent the jump distribution entirely.
    """
    h0 = interquartile(mk.base)
    scale = abs(mk.m(h0))
    if grid.dx > scale / 4.0:
        raise GridTooCoarse(
            "dx = %g cannot resolve the rescaled kernel: need dx <= "
            "m_eps(h0)/4 = %g (h0 = %g)" % (grid.dx, scale / 4.0, h0))
    return discretize_kernel(mk, grid)


# ----------------------------------------------------------------------
# initial data


def default_A(kernel):
    """Midpoint of the admissible interval (0, 1 - 1/mu)."""
    _require_eligible(kernel)
    return 0.5 * (1.0 - 1.0 / kernel.mu)      # 0.5 when mu is infinite


def growth_bound(kernel, A):
    """r_hat = int e^{A f} dJhat = (1/Z) int e^{-(1-A) f} dh (finite for
    A below 1 - 1/mu; this is the sub-solution decay rate of u)."""
    _require_eligible(kernel)
    if not (0.0 < A < 1.0 - 1.0 / kernel.mu):
        raise NonIntegrableTail(
            "A = %g outside (0, 1 - 1/mu) = (0, %g): e^{A f} Jhat has a "
            "divergent tail" % (A, 1.0 - 1.0 / kernel.mu))
    lam = 1.0 - A
    val = adaptive_integrate(lambda h: np.exp(-lam * kernel.f(h)),
                             0.0, np.inf,
                             tail=lambda R: math.exp(kernel.log_tail(R, lam)))
    return 2.0 * val / kernel.Z


def fd_condition(kernel, u0, A):
    """Worst violation of u(x+h) - u(x) >= -A f(|h|) over random pairs.

    u0 is a Field.  Returns the max over sampled pairs of
    -A f(|x_j - x_i|) - (u_j - u_i); nonpositive (up to roundoff) means
    the condition holds.
    """
    grid, u = u0.grid, u0.values
    rng = np.random.default_rng(_FD_SEED)
    i = rng.integers(0, grid.N, size=_FD_PAIRS)
    j = rng.integers(0, grid.N, size=_FD_PAIRS)
    keep = i != j
    i, j = i[keep], j[keep]
    gap = u[j] - u[i]
    bound = -A * kernel.f(np.abs(grid.x[j] - grid.x[i]))
    return float(np.max(bound - gap))


@dataclass
class InitialDataMut:
    """Nonnegative Lipschitz potential u0 with its decay parameter A."""

    u0: Field
    A: float

    def n0(self, eps):
        return Field(self.u0.grid, np.exp(-self.u0.values / eps))


def mutation_initial_data(kernel, grid, A=None, u0_values=None):
    """Build and validate initial data; the default profile is u0 = A f.

    Validation: A in (0, 1 - 1/mu), u0 nonnegative, and the sampled
    finite-difference condition u0(x+h) - u0(x) >= -A f(|h|) within
    _FD_TOL.
    """
    _require_eligible(kernel)
    if A is None:
        A = default_A(kernel)
    hi = 1.0 - 1.0 / kernel.mu           # 1 when mu is infinite
    if not (0.0 < A < hi):
        raise InvalidParams("A = %g outside the admissible (0, %g)"
                            % (A, hi))
    if u0_values is None:
        u0_values = A * kernel.f(np.abs(grid.x))
    u0 = Field(grid, u0_values)
    if u0.values.min() < 0.0:
        raise InvalidParams("u0 must be nonnegative")
    worst = fd_condition(kernel, u0, A)
    if worst > _FD_TOL:
        raise InvalidParams(
            "u0 violates the finite-difference decay condition by %.3e"
            % worst)
    return InitialDataMut(u0, float(A))


# ----------------------------------------------------------------------
# rescaled runs


@dataclass
class MutationRun:
    """A rescaled run; its potential u = -eps ln n comes from
    propagation.potential_of on the snapshots where it is needed."""

    eps: float
    run: object                     # SimulationRun in slow time


def mutation_run(kernel, grid, eps, config, init, jump_map="contraction"):
    """Integrate eps dn/dt = J_eps*n - n + n(1-n) from n0 = e^{-u0/eps}.

    config.dt is slow time; the effective fast step dt/eps must respect
    the usual stability ceiling, checked before the rescaled kernel is
    sampled so that a too-large step is reported as such.
    """
    mk = MutationKernel(kernel, eps, jump_map)
    check_rate(config.dt, 1.0 / eps)
    dk = discretize_mutation_kernel(mk, grid)
    n0 = init.n0(eps)
    sim = cauchy_run(kernel, grid, config, n0, dk=dk, rate_scale=1.0 / eps)
    sim.manifest["eps"] = eps
    sim.manifest["A"] = init.A
    sim.manifest["jump_map"] = jump_map
    return MutationRun(eps, sim)


# ----------------------------------------------------------------------
# limit sets


def classify_limit_sets(u, tol):
    """Partition nodes into 'A' (u > tol), 'B' (u < tol, eroded 2 cells),
    and 'U' for the remainder."""
    u = u.values if isinstance(u, Field) else np.asarray(u, dtype=float)
    if tol <= 0.0:
        raise InvalidParams("tol must be positive")
    a_pos = u > tol
    b_null = binary_erosion(u < tol, iterations=2)
    out = np.full(u.shape, "U", dtype="<U1")
    out[a_pos] = "A"
    out[b_null & ~a_pos] = "B"
    return out
