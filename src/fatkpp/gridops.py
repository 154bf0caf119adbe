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
B = block_len(N/nb + 2K): the next 5-smooth size, or one up to 5%
longer whose transform takes at least 10% fewer radix-pass operations
by pocketfft's factorization.  A grid shorter than two such tiles is
one block.  The rounding error at a node is about
1e-16 of the max of the data within its block, not of the global max,
so far tails stay resolved wherever the blocks are short next to the
decay of the data.  The transforms are numpy.fft's (pocketfft).

Quadrature is globally adaptive Gauss-Legendre bisection and root
solving is bisection, both in plain Python over scalar callables, so
that the package needs numpy alone.
"""

import heapq
import math

import numpy as np
# numpy loads these submodules on first use; importing them here keeps
# that cost in the import, not in the first run
import numpy.fft
from numpy.polynomial.legendre import leggauss

from .errors import GridMismatch, InvalidParams, NoConvergence

_TAIL_TOL = 1e-6        # kernel mass discretize_kernel may cut from the tails
_GL_N = 10              # a panel's error is its n- against its 2n-point rule
# (node, weight) pairs of the n- and 2n-point rules on [-1, 1]
_GL_RULES = tuple(tuple(zip(*(v.tolist() for v in leggauss(n))))
                  for n in (_GL_N, 2 * _GL_N))
_MAX_SPLITS = 1000      # bisections adaptive_integrate may make


# ----------------------------------------------------------------------
# quadrature


def _panel(g, lo, hi):
    """(2n-point Gauss-Legendre value, its distance from the n-point one)
    of the integral of g over [lo, hi]."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    coarse, fine = (h * math.fsum(w * g(c + h * x) for x, w in rule)
                    for rule in _GL_RULES)
    return fine, abs(fine - coarse)


def _bisect(g, edges, target):
    """Integral of g over the panels between edges, bisecting the panel
    with the largest error estimate until the summed estimate meets
    target(value)."""
    heap = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _panel(g, lo, hi)
        heap.append((-e, lo, hi, v))
    heapq.heapify(heap)
    val = math.fsum(p[3] for p in heap)
    err = -math.fsum(p[0] for p in heap)
    splits = 0
    # `not <=` so that a NaN value or estimate keeps bisecting, then raises
    while not err <= target(val):
        e, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if splits == _MAX_SPLITS or not lo < mid < hi:
            raise NoConvergence(
                "quadrature on [%g, %g] failed: error estimate %g exceeds "
                "the target after %d bisections (result %g)"
                % (edges[0], edges[-1], err, splits, val))
        splits += 1
        for a, b in ((lo, mid), (mid, hi)):
            vv, ee = _panel(g, a, b)
            heapq.heappush(heap, (-ee, a, b, vv))
            val += vv
            err += ee
        val -= v
        err += e
    return math.fsum(p[3] for p in heap)


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

    Globally adaptive bisection (as in QUADPACK's QAG, Piessens et al.
    1983): each panel is integrated by the 2n-point Gauss-Legendre rule,
    its error is estimated by the distance to the n-point rule, and the
    panel with the largest estimate is halved until the summed estimate
    meets the target.

    Parameters
    ----------
    g : callable
        Scalar integrand, continuous on (a, b); it is called with floats
        and never at a or b.
    a, b : float
        Limits; b may be numpy.inf.
    tail : callable, optional
        R -> rigorous upper bound on |int_R^inf g|.  When given together
        with b = inf, the infinite part is cut at the first doubling of R
        whose bound fits in a quarter of the absolute budget; the bound is
        then added to the error estimate of the finite piece.  Without it
        an infinite range is mapped onto (0, 1] by h = a + (1 - s)/s.

    Raises
    ------
    NoConvergence
        If the subdivision limit is hit, the combined error estimate
        misses the requested target, or a panel of the mapped infinite
        range comes so close to s = 0 that 1/s^2 overflows.
    """
    a = float(a)
    rem = 0.0
    if not np.isinf(b):
        edges = [a, float(b)]
    elif tail is None:
        f = g

        def g(s):
            if s * s == 0.0:    # a panel below s ~ 1e-162
                raise NoConvergence("quadrature of h = a + (1 - s)/s reached "
                                    "s = %g, where 1/s^2 overflows" % s)
            return f(a + (1.0 - s) / s) / (s * s)

        edges = [0.0, 1.0]
    else:
        budget = 0.25 * epsabs
        R = first_doubling(lambda r: tail(r) <= budget, max(a, 1.0),
                           "fitting the tail bound in %g" % budget)
        rem = tail(R)
        # R can be enormous for slow power-law tails; one decade per panel
        # starts each piece where the integrand varies by a bounded factor
        e = max(a, 1.0)
        edges = [a] if a < e else []
        while e < R:
            edges.append(e)
            e *= 10.0
        edges.append(R)
    return _bisect(g, edges, lambda v: epsabs + epsrel * abs(v) - rem)


def invert_monotone(g, y):
    """Solve g(x) = y for a nondecreasing g on [0, inf).

    Brackets by doubling from 2, then bisects the bracket [lo, hi] until
    it is narrower than 2e-12 + 1e-10 x, and returns hi: g(hi) >= y holds
    there, so a radius found this way keeps the bound it was sought for.
    Used for inverses that have no closed form, for the truncation radius
    of a tail bound, and as the independent route when testing the
    inverses that do have one.
    """
    hi = first_doubling(lambda h: g(h) >= y, 2.0,
                        "bracketing the inverse at y=%g" % y)
    g0 = g(0.0)
    if g0 > y:
        raise InvalidParams("g(0)=%g already exceeds target y=%g" % (g0, y))
    if g0 == y:
        return 0.0
    lo = 0.0
    mid = 0.5 * hi
    while hi - lo > 2e-12 + 1e-10 * mid:
        if g(mid) >= y:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return float(hi)


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
        if N < 16 or (N & (N - 1)) != 0:
            raise InvalidParams("N must be a power of two >= 16, got %d" % N)
        self.L = L
        self.N = N
        self.dx = 2.0 * L / N
        if not 0.0 < self.dx < math.inf:
            raise InvalidParams("need L > 0 and 2L/N finite, got L = %g" % L)
        try:
            self.x = -L + self.dx * np.arange(N)
        except (MemoryError, ValueError) as exc:
            raise InvalidParams("no memory for N = %d nodes: %s" % (N, exc))

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


def _smooth_above(n, top):
    """For each 3^j 5^k <= top, its least multiple by a power of two that
    is at least n."""
    p5 = 1
    while p5 <= top:
        p = p5
        while p <= top:
            yield p << (-(-n // p) - 1).bit_length()
            p *= 3
        p5 *= 5


def fast_len(n):
    """Smallest 5-smooth integer (2^i 3^j 5^k) >= n, a fast real FFT size."""
    # the next power of two is a candidate, so no larger 3^j 5^k can win
    return min(_smooth_above(n, 1 << (n - 1).bit_length()))


def _passes(m):
    """Radix passes of pocketfft's real transform of a 5-smooth length m,
    in the order its rfftp factorizes m: one per factor 4, taken first,
    then one per factor 2, 3 or 5 left."""
    k = 0
    while m % 4 == 0:
        m //= 4
        k += 1
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
            k += 1
    return k


def block_len(n):
    """A 5-smooth length >= n whose real transform costs little.

    The cost of a length m is m * _passes(m).  Among the 5-smooth m from
    fast_len(n) up to 5% above it, the cheapest is taken where it costs
    at least 10% less than fast_len(n) itself, else fast_len(n): 2*3^9
    takes 10 passes and 4^3*5^4, 1.6% longer, 7.  The window and the
    floor keep off lengths that the count favours but that measured
    slower: 46875 in place of 43200, past a cache size, and 2812500 in
    place of 2700000 (BENCH_20.json).
    """
    base = fast_len(n)
    top = base * 21 // 20
    # 2 base > top, so of each 3^j 5^k's multiples by powers of two only
    # the least one >= base can lie in [base, top]
    cands = [m for m in _smooth_above(base, top) if m <= top]
    m = min(cands, key=lambda m: (m * _passes(m), m))
    return m if 10 * m * _passes(m) <= 9 * base * _passes(base) else base


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
        # floor spares narrow kernels many small transforms.  A B longer
        # than tile + 2K only adds columns that apply drops
        N = grid.N
        nb = 1 << (max(N // max(6 * K, 3072), 1).bit_length() - 1)
        tile = N // nb
        B = block_len(tile + 2 * K)
        # the block count and length, both in every run manifest;
        # perfbench/tracing.py reads _P to count flops
        self._nb = nb
        self._P = B
        # apply rounds a node to ~1e-16 of its largest input within reach
        self.reach = B - K
        self._spectrum = np.fft.rfft(w, B)
        self._buf = np.zeros(N - tile + B)
        # the blocks are overlapping windows of _buf, a view made once
        self._blocks = np.lib.stride_tricks.sliding_window_view(
            self._buf, B)[::tile]
        # the block spectra and their inverse transforms, kept for apply
        # to write into: buffers this size, allocated per call, were
        # mapped afresh by malloc each time (about 170 page faults per
        # apply on the front workload's blocks)
        self._F = np.empty((nb, B // 2 + 1), dtype=complex)
        self._R = np.empty((nb, B))

    def apply(self, values, out=None):
        """Linear convolution (sum_j w_j v_{i-j}) with zero exterior.

        Writes into `out` (a float array of length N) and returns it;
        without `out`, returns a fresh array.  `values` is left unmodified.
        The transforms write into buffers the kernel keeps.  Roundoff
        (~1e-16 of the block's data scale) can leave tiny negatives where
        the data vanish; the stepper's clamp to [0, 1] absorbs them.
        """
        K, N, B = self.K, self.grid.N, self._P
        self._buf[K:K + N] = values
        F = np.fft.rfft(self._blocks, axis=1, out=self._F)
        F *= self._spectrum
        R = np.fft.irfft(F, B, axis=1, out=self._R)
        if out is None:
            out = np.empty(N)
        # columns before 2K of each block hold wrapped (circular) sums;
        # the next N/nb columns are its tile, all copied out in one go
        out.reshape(self._nb, -1)[...] = R[:, 2 * K:2 * K + N // self._nb]
        return out

    def direct(self, values, i):
        """(J*v)[i] by the direct sum over the samples, for a node i at
        least K nodes from either edge; the samples are symmetric, so no
        flip is needed.  The products are summed by numpy's pairwise
        reduction: a BLAS dot of over 10,000 terms is split across the
        library's threads, and its last bits then follow their count."""
        K = self.K
        return float(np.add.reduce(values[i - K:i + K + 1] * self.samples))


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
