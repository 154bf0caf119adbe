"""Uniform grids, discrete kernels, FFT convolution, quadrature helpers.

Everything here is deliberately dimension-one and dumb: a grid is an
equispaced set of nodes on [-L, L), a discrete kernel is a truncated,
renormalized sample vector with a cached spectrum, and convolution is
linear (zero exterior), never circular.  Wraparound would let the fat
tail of the kernel feed a spurious incoming front from the far side of
the domain, which is exactly the artifact this code exists to avoid.

Convolution is block convolution by overlap-save (Oppenheim & Schafer,
Discrete-Time Signal Processing): the grid is cut into nb equal tiles,
nb the largest power of two that leaves tiles of at least max(6K, 3072)
nodes, and each tile is convolved in one block of length
B = next_fast_len(N/nb + 2K).  A grid shorter than two such tiles is
one block.  The rounding error at a node is about 1e-16 of the max of
the data within its block, not of the global max, so far tails stay
resolved wherever the blocks are short next to the decay of the data.
"""

import numpy as np
from scipy import fft as sfft
from scipy import integrate, optimize

from .errors import GridMismatch, InvalidParams, NoConvergence

_TAIL_TOL = 1e-6        # kernel mass discretize_kernel may cut from the tails


# ----------------------------------------------------------------------
# quadrature


def _quad(g, a, b, epsabs, epsrel):
    out = integrate.quad(g, a, b, epsabs=epsabs, epsrel=epsrel,
                         limit=300, full_output=1)
    if len(out) > 3:
        # quad appends a message (and possibly an explanation) on trouble
        raise NoConvergence("quadrature on [%g, %g] failed: %s"
                            % (a, b, out[3]))
    val, err = out[0], out[1]
    return val, err


def first_doubling(ok, R=1.0, what="doubling search"):
    """Smallest R * 2^k (k >= 0) at which ok holds.

    Radii stop at 1e300, past which doubling would overflow; NoConvergence
    names `what` when ok fails there too.
    """
    while not ok(R):
        if R >= 1e300:
            raise NoConvergence("%s failed up to R=%g" % (what, R))
        R = min(2.0 * R, 1e300)
    return R


def adaptive_integrate(g, a, b, tail=None, epsabs=1e-10, epsrel=1e-8):
    """Integrate g over (a, b) to absolute error <= epsabs + epsrel*|result|.

    Parameters
    ----------
    g : callable
        Scalar integrand, continuous on (a, b).
    a, b : float
        Limits; b may be numpy.inf.
    tail : callable, optional
        R -> rigorous upper bound on |int_R^inf g|.  When given together
        with b = inf, the infinite part is cut at the first doubling of R
        whose bound fits in a quarter of the absolute budget; the bound is
        then added to the error estimate of the finite piece.  Without it
        an infinite range is handed to the library's variable transform.

    Raises
    ------
    NoConvergence
        If the subdivision limit is hit or the combined error estimate
        misses the requested target.
    """
    a = float(a)
    rem = 0.0
    if np.isinf(b) and tail is not None:
        budget = 0.25 * epsabs
        R = first_doubling(lambda r: tail(r) <= budget, max(a, 1.0),
                           "fitting the tail bound in %g" % budget)
        rem = tail(R)
        # R can be enormous for slow power-law tails; one decade per panel
        # keeps each piece trivial for the Gauss-Kronrod rule
        edges = [a]
        e = max(a, 1.0)
        while e < R:
            edges.append(e)
            e *= 10.0
        edges.append(R)
        val, err = 0.0, 0.0
        per = 0.5 * epsabs / (len(edges) - 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            v, ee = _quad(g, lo, hi, per, epsrel)
            val += v
            err += ee
    else:
        val, err = _quad(g, a, b, epsabs, epsrel)
    if err + rem > epsabs + epsrel * abs(val) + 1e-300:
        raise NoConvergence("quadrature error estimate %g exceeds target "
                            "(result %g)" % (err + rem, val))
    return val


def invert_monotone(g, y):
    """Solve g(x) = y for a nondecreasing g on [0, inf).

    Brackets by doubling from 2, then runs a safeguarded root solve.
    Used as the generic fallback for inverses that have no closed form,
    and as the independent route when testing the ones that do.
    """
    hi = first_doubling(lambda h: g(h) >= y, 2.0,
                        "bracketing the inverse at y=%g" % y)
    g0 = g(0.0)
    if g0 > y:
        raise InvalidParams("g(0)=%g already exceeds target y=%g" % (g0, y))
    if g0 == y:
        return 0.0
    x = optimize.brentq(lambda s: g(s) - y, 0.0, hi, rtol=1e-10, maxiter=200)
    return float(x)


# ----------------------------------------------------------------------
# grid and fields


class Grid1D:
    """Equispaced nodes x_i = -L + i*dx on [-L, L), dx = 2L/N.

    N must be a power of two (>= 16) so padded transforms stay fast and
    the node x = 0 always exists (index N/2).  The node x = -L has no
    mirror, so a run from even data is even only up to what reaches
    that node: max |n(x_i) - n(x_{N-i})| is 8.9e-12 at t = 2 for
    SubExponential alpha=0.5 on L=500, N=2^15.
    """

    def __init__(self, L, N):
        L = float(L)
        N = int(N)
        if L <= 0.0:
            raise InvalidParams("grid half-width L must be positive")
        if N < 16 or (N & (N - 1)) != 0:
            raise InvalidParams("N must be a power of two >= 16, got %d" % N)
        self.L = L
        self.N = N
        self.dx = 2.0 * L / N
        self.x = -L + self.dx * np.arange(N)

    def __eq__(self, other):
        return (isinstance(other, Grid1D)
                and other.L == self.L and other.N == self.N)

    def __hash__(self):
        return hash((self.L, self.N))

    def __repr__(self):
        return "Grid1D(L=%g, N=%d)" % (self.L, self.N)


class Field:
    """A sampled real function on a Grid1D (population density, potential)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.N,):
            raise GridMismatch("field length %s does not match grid N=%d"
                               % (values.shape, grid.N))
        if not np.all(np.isfinite(values)):
            raise InvalidParams("field values must be finite")
        self.grid = grid
        self.values = values


# ----------------------------------------------------------------------
# discrete kernels


class DiscreteKernel:
    """Truncated kernel samples w_j ~ Jhat(j*dx)*dx on offsets |j| <= K.

    The samples are symmetrized and renormalized so they sum to 1.0 exactly
    (the leftover rounding residual is folded into the center weight); this
    makes n = 1 an exact discrete steady state of the reaction-free
    dynamics, which the maximum-principle monitors rely on.
    """

    def __init__(self, grid, weights, lost_mass):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or len(w) % 2 != 1:
            raise InvalidParams("kernel sample vector must have odd length")
        if np.any(w < 0.0):
            raise InvalidParams("kernel samples must be nonnegative")
        w = 0.5 * (w + w[::-1])        # exact symmetry
        s = w.sum()
        if s <= 0.0:
            raise InvalidParams("kernel samples sum to zero")
        w = w / s
        K = len(w) // 2
        w[K] += 1.0 - w.sum()          # exact unit mass
        self.grid = grid
        self.samples = w
        self.K = K
        self.lost_mass = float(lost_mass)
        # overlap-save in nb equal tiles, nb the largest power of two with
        # N/nb >= max(6K, 3072), else 1; N is a power of two, so the tiles
        # cover the grid exactly.  A block holds its tile and 2K more, so
        # padding is at most a quarter of each transform, and the 3072
        # floor spares narrow kernels many small transforms
        N = grid.N
        nb = 1 << (max(N // max(6 * K, 3072), 1).bit_length() - 1)
        tile = N // nb
        B = sfft.next_fast_len(tile + 2 * K, real=True)
        # the block count and length, both in every run manifest;
        # perfbench/tracing.py reads _P to count flops
        self._nb = nb
        self._P = B
        # apply rounds a node to ~1e-16 of its largest input within reach
        self.reach = B - K
        self._spectrum = sfft.rfft(w, B)
        self._buf = np.zeros(N - tile + B)
        # the blocks are overlapping windows of _buf, a view made once
        self._blocks = np.lib.stride_tricks.sliding_window_view(
            self._buf, B)[::tile]

    def apply(self, values, out=None):
        """Linear convolution (sum_j w_j v_{i-j}) with zero exterior.

        Writes into `out` (a float array of length N) and returns it;
        without `out`, returns a fresh array.  `values` is left unmodified.
        Only the block spectra and their inverse transforms are allocated
        per call.  Roundoff (~1e-16 of the block's data scale) can leave
        tiny negatives where the data vanish; the stepper's clamp to
        [0, 1] absorbs them.
        """
        K, N, B = self.K, self.grid.N, self._P
        self._buf[K:K + N] = values
        F = sfft.rfft(self._blocks, axis=1)
        F *= self._spectrum
        R = sfft.irfft(F, B, axis=1)
        if out is None:
            out = np.empty(N)
        # columns before 2K of each block hold wrapped (circular) sums;
        # the next N/nb columns are its tile, all copied out in one go
        out.reshape(self._nb, -1)[...] = R[:, 2 * K:2 * K + N // self._nb]
        return out


def discretize_kernel(kernel, grid):
    """Sample a continuum kernel's normalized density J_hat on grid offsets.

    The truncation radius R is the smallest one whose analytic two-sided
    tail bound is below _TAIL_TOL, capped at 2L (a kernel wider than that
    sees the whole domain from every node anyway).  The pre-renormalization
    mass defect is kept for the run manifest.
    """
    R = min(kernel.half_support(_TAIL_TOL), 2.0 * grid.L)
    K = max(1, int(np.ceil(R / grid.dx)))
    off = grid.dx * np.arange(-K, K + 1)
    w = kernel.J_hat(off) * grid.dx
    lost = 1.0 - float(w.sum())
    return DiscreteKernel(grid, w, lost_mass=lost)
