"""Dispersal kernel families, their log-shapes, inverses, and tail checks.

Every kernel is described through f = -ln J with J(0) = 1, so f(0) = 0 and
f is strictly increasing on (0, inf).  Five families are built in:

    SubExponential   f(x) = (1+x^2)^(a/2) - 1          0 < alpha < 1
    Polynomial       f(x) = ((1+a)/2) * ln(1+x^2)      alpha > 0
    LogLinear        f(x) = beta * ln(1+|x|)           beta > 1
    PowerShift       f(x) = b * ((1+|x|)^a - 1)        b > 0, 0 < alpha < 1
    Gaussian         f(x) = x^2 / (2 sigma^2)          sigma > 0

The first four are fat-tailed (J decays slower than every exponential) and
drive accelerating fronts.  LogLinear and PowerShift additionally have a
finite positive slope f'(0), the regularity the small-mutation rescaling
needs; the first two families have f'(0) = 0 and are refused there.  The
Gaussian is a thin-tailed control: any operation that relies on the
fat-tail hypotheses raises ThinTailedKernel when handed one.

One map of f-space serves both regimes: x -> sign(x) f_inv(s f(|x|)).
With s = 1/eps it is the long-range scaling of space Psi_eps
(Kernel.dilate); with s = eps it is its inverse, the small-mutation
scaling of jumps m_eps (Kernel.contract).

Two normalizations coexist on purpose.  The shape J (J(0) = 1) feeds all
analysis formulas: f, the rescaling maps, front predictions, envelopes.  The
probability density Jhat = J/Z feeds the dynamics so that n = 1 stays a
steady state.  The two differ only by the constant ln Z in log-scale,
which is asymptotically irrelevant for front positions.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InvalidParams, NoConvergence,
                     NonIntegrableTail, NotMutationEligible, ThinTailedKernel)
from .gridops import adaptive_integrate, invert_monotone


@dataclass(frozen=True)
class KernelSpec:
    """Family name plus its parameters (unused ones stay None)."""
    family: str
    alpha: float = None
    beta: float = None
    b: float = None
    sigma: float = None


# ----------------------------------------------------------------------
# family builders: each takes its parameters in the order of its _FAMILIES
# row and returns f, f' and f_inv as closures (all take r = |x| >= 0 as an
# ndarray and vectorize), x_peak, the tail index mu and the fat-tail flag


def _build_subexponential(a):
    def f(r):
        return np.expm1(0.5 * a * np.log1p(r * r))

    def fp(r):
        return a * r * np.exp((0.5 * a - 1.0) * np.log1p(r * r))

    def finv(y):
        return np.sqrt(np.expm1((2.0 / a) * np.log1p(y)))

    x_star = 1.0 / math.sqrt(1.0 - a)    # where f' peaks
    return dict(f=f, fp=fp, finv=finv,
                x_peak=x_star, mu=math.inf, fat_tailed=True)


_R_SQ_MAX = math.sqrt(np.finfo(float).max)     # r * r overflows past this


def _far(r, near, far):
    """near(r), but far(r) past _R_SQ_MAX, where near would overflow."""
    big = r > _R_SQ_MAX
    if not big.any():
        return near(r)
    return np.where(big, far(np.where(big, r, 1.0)),
                    near(np.where(big, 1.0, r)))


def _build_polynomial(a):
    q = 0.5 * (1.0 + a)

    def f(r):
        return _far(r, lambda r: q * np.log1p(r * r),
                    lambda r: 2.0 * q * np.log(r) + q * np.log1p(r ** -2.0))

    def fp(r):
        return _far(r, lambda r: (1.0 + a) * r / (1.0 + r * r),
                    lambda r: (1.0 + a) / (r + 1.0 / r))

    def finv(y):
        return np.sqrt(np.expm1(y / q))

    return dict(f=f, fp=fp, finv=finv,
                x_peak=1.0, mu=1.0 + a, fat_tailed=True)


def _build_loglinear(b):
    def f(r):
        return b * np.log1p(r)

    def fp(r):
        return b / (1.0 + r)

    def finv(y):
        return np.expm1(y / b)

    return dict(f=f, fp=fp, finv=finv,
                x_peak=0.0, mu=b, fat_tailed=True)


def _build_powershift(b, a):
    def f(r):
        return b * np.expm1(a * np.log1p(r))

    def fp(r):
        return b * a * np.exp((a - 1.0) * np.log1p(r))

    def finv(y):
        return np.expm1(np.log1p(y / b) / a)

    return dict(f=f, fp=fp, finv=finv,
                x_peak=0.0, mu=math.inf, fat_tailed=True)


def _build_gaussian(s):
    s2 = s * s

    def f(r):
        return 0.5 * r * r / s2

    def fp(r):
        return r / s2

    def finv(y):
        return s * np.sqrt(2.0 * y)

    # x f'/f = 2 for every x: exponential moments exist, tails are thin.
    return dict(f=f, fp=fp, finv=finv,
                x_peak=math.inf, mu=math.inf, fat_tailed=False)


# family: (builder, the open range of each parameter it reads); the one
# place a KernelSpec is checked, by build_kernel
_FAMILIES = {
    "SubExponential": (_build_subexponential, {"alpha": (0.0, 1.0)}),
    "Polynomial": (_build_polynomial, {"alpha": (0.0, math.inf)}),
    "LogLinear": (_build_loglinear, {"beta": (1.0, math.inf)}),
    "PowerShift": (_build_powershift, {"b": (0.0, math.inf),
                                       "alpha": (0.0, 1.0)}),
    "Gaussian": (_build_gaussian, {"sigma": (0.0, math.inf)}),
}


# ----------------------------------------------------------------------
# kernel object


class Kernel:
    """Immutable validated kernel; all evaluators are pure and vectorized.

    Attributes
    ----------
    Z : float
        Mass of the shape, int J dx; Jhat = J/Z is the probability density.
    mu : float
        Tail index liminf x f'(x); math.inf is the sentinel for families
        whose x f'(x) grows without bound (every mu > 1 test passes).
    a_max : float
        1 - 1/mu (1 when mu is infinite), the ceiling on the slope A of
        initial data A f that e^{A f} Jhat stays integrable below.
    fprime0 : float
        One-sided slope f'(0); positive and finite exactly for the
        mutation-eligible families.
    p_max : float
        f'(0) (1 - 1/mu), the slope bound of the limit Hamiltonian and the
        ceiling on A where its quadratic (kappa) envelope is used.
    x_peak : float
        Where f' peaks; f' is nonincreasing beyond it.
    """

    def __init__(self, family, params, impl, Z):
        self.family = family
        self.params = params
        self._fr = impl["f"]
        self._fpr = impl["fp"]
        self._finv = impl["finv"]
        for name in ("x_peak", "mu", "fat_tailed"):
            setattr(self, name, impl[name])
        self.a_max = 1.0 - 1.0 / self.mu
        self.fprime0 = self.f_prime(0.0)
        self.p_max = self.fprime0 * self.a_max
        self.Z = float(Z)

    def __repr__(self):
        ps = ", ".join("%s=%g" % kv for kv in sorted(self.params.items()))
        return "Kernel(%s, %s)" % (self.family, ps)

    def manifest(self):
        """The {family, params, Z, mu} block every run manifest starts with."""
        return {"family": self.family, "params": dict(self.params),
                "Z": self.Z, "mu": self.mu}

    @property
    def mutation_eligible(self):
        """True when f'(0) is finite positive (and the tail is fat)."""
        return (self.fat_tailed and self.fprime0 > 0.0
                and np.isfinite(self.fprime0))

    def check_eligible(self):
        """Refuse a kernel the small-mutation regime cannot take:
        ThinTailedKernel for a thin tail (p_max = 0), NotMutationEligible
        for an origin slope f'(0) that is not finite positive."""
        if not self.fat_tailed:
            raise ThinTailedKernel(
                "%r has a thin tail; the small-mutation limit degenerates "
                "(p_max = 0)" % (self,))
        if not self.mutation_eligible:
            raise NotMutationEligible(
                "%r has f'(0) = %g; the small-jump rescaling needs a "
                "finite positive origin slope" % (self, self.fprime0))

    def a_cap(self, envelope=False):
        """Ceiling on the slope A of initial data A f: a_max, and also
        p_max where the kappa envelope is used."""
        return min(self.a_max, self.p_max) if envelope else self.a_max

    def check_A(self, A, envelope=False):
        """Refuse A outside (0, a_cap(envelope)) with NonIntegrableTail,
        naming the integral that diverges, after check_eligible."""
        self.check_eligible()
        if not 0.0 < A < self.a_max:
            raise NonIntegrableTail(
                "A = %g outside (0, 1 - 1/mu) = (0, %g): e^{A f} Jhat has "
                "a divergent tail" % (A, self.a_max))
        if envelope and A >= self.p_max:
            raise NonIntegrableTail(
                "A = %g outside (0, p_max) = (0, %g): the envelope "
                "e^{A f/f'(0)} Jhat has a divergent tail" % (A, self.p_max))

    # -- evaluators (accept scalars or arrays, return matching shape) --

    @staticmethod
    def _radial(fn, x):
        arr = np.abs(np.asarray(x, dtype=float))
        out = fn(arr)
        return float(out) if np.ndim(x) == 0 else out

    def f(self, x):
        """Log-shape f(|x|) = -ln J(|x|)."""
        return self._radial(self._fr, x)

    def f_prime(self, x):
        """Radial derivative f'(|x|) >= 0 (one-sided slope fprime0 at 0)."""
        return self._radial(self._fpr, x)

    def f_inv(self, y):
        """Inverse of f on [0, inf): f(f_inv(y)) = y."""
        arr = np.asarray(y, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("f_inv needs y >= 0")
        out = self._finv(arr)
        return float(out) if np.ndim(y) == 0 else out

    def J(self, x):
        """Shape kernel exp(-f(|x|)); J(0) = 1."""
        return self._radial(lambda r: np.exp(-self._fr(r)), x)

    def J_hat(self, x):
        """Probability-normalized density J(x)/Z."""
        return self.J(x) / self.Z

    @functools.cached_property
    def interquartile(self):
        """h0 with int_0^{h0} Jhat = 1/4 (half the mass of the right side),
        computed on first use."""
        return invert_monotone(
            lambda h: adaptive_integrate(self.J_hat, 0.0, h) if h > 0 else 0.0,
            0.25)

    def J_inv(self, v):
        """Inverse of J on [0, inf) for v in (0, 1]."""
        arr = np.asarray(v, dtype=float)
        if np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise DomainError("J_inv needs v in (0, 1]")
        return self.f_inv(-np.log(arr))

    # -- the f-space rescaling, read in the two regimes' directions --

    def dilate(self, x, eps):
        """Psi_eps(x) = sign(x) f_inv(f(|x|)/eps), the long-range scaling."""
        return self._rescale(x, eps, lambda y: y / eps)

    def contract(self, x, eps):
        """m_eps(x) = sign(x) f_inv(eps f(|x|)), the small-jump scaling;
        the inverse of dilate, so f(m_eps(x)) = eps f(x)."""
        return self._rescale(x, eps, lambda y: eps * y)

    def _rescale(self, x, eps, scale):
        """sign(x) f_inv(scale(f(|x|))); odd, and exactly x at eps = 1."""
        x = np.asarray(x, dtype=float)
        if eps == 1.0:
            out = x.copy()
        else:
            out = np.sign(x) * self.f_inv(scale(self.f(np.abs(x))))
        return out if out.ndim else float(out)

    # -- tails --

    def log_tail(self, R, lam=1.0):
        """ln of an upper bound on the tilted tail int_R^inf e^{-lam f(h)} dh.

        Uses that x f'(x) is nondecreasing for every built-in family, so
        f(h) >= f(R) + c ln(h/R) with c = R f'(R) for h >= R, giving
        tail <= R e^{-lam f(R)}/(lam c - 1) once lam c > 1.  Returns +inf
        while lam c <= 1.  Log space keeps slow tails (lam c barely above
        1, f(R) in the hundreds) from overflowing before they are small.
        """
        R = float(R)
        if R <= 0.0:
            return math.inf
        with np.errstate(over="ignore"):    # R**2 overflows past 1e154
            d = lam * R * float(self._fpr(np.asarray(R))) - 1.0
        if d <= 1e-12:
            return math.inf
        return -lam * float(self._fr(np.asarray(R))) + math.log(R) \
            - math.log(d)

    def tail_bound(self, R):
        """Upper bound on the one-sided normalized tail int_R^inf Jhat."""
        return math.exp(self.log_tail(R)) / self.Z

    def half_support(self, tail_tol):
        """A radius R with two-sided tail mass bound <= tail_tol, within
        invert_monotone's tolerance of the smallest one.

        The bound budgeted per side is tail_tol/2, so the total mass beyond
        |h| > R (what a truncation at R actually discards) stays below
        tail_tol.  The tail bound is nonincreasing in R, so R solves
        -tail_bound(R) = -tail_tol/2, and invert_monotone returns a radius
        at which the bound holds.
        """
        if tail_tol <= 0.0:
            raise InvalidParams("tail_tol must be positive")
        return invert_monotone(lambda r: -self.tail_bound(r), -0.5 * tail_tol)


def build_kernel(spec):
    """Construct and normalize a Kernel from its spec.

    The spec is checked against its family's _FAMILIES row: one
    InvalidParams lists an issue per parameter that is missing, outside
    its open range or not read by the family, each starting with the
    parameter's name.  Z is computed by adaptive quadrature of the shape
    with the analytic tail remainder bound.
    """
    if isinstance(spec, str):
        raise InvalidParams("build_kernel takes a KernelSpec, got a string")
    if spec.family not in _FAMILIES:
        raise InvalidParams("unknown kernel family %r (known: %s)"
                            % (spec.family, ", ".join(sorted(_FAMILIES))))
    builder, ranges = _FAMILIES[spec.family]
    issues = []
    for name, v in vars(spec).items():
        if name in ranges:
            lo, hi = ranges[name]
            if v is None:
                issues.append("%s: required by %s" % (name, spec.family))
            elif not lo < v < hi:
                issues.append("%s: must lie in (%g, %g) for %s, got %g"
                              % (name, lo, hi, spec.family, v))
        elif name != "family" and v is not None:
            issues.append("%s: not read by %s" % (name, spec.family))
    if issues:
        raise InvalidParams(*issues)
    params = {name: getattr(spec, name) for name in ranges}
    impl = builder(*params.values())
    probe = Kernel(spec.family, params, impl, Z=1.0)    # for its tail bound
    Z = 2.0 * adaptive_integrate(lambda h: math.exp(-impl["f"](np.asarray(h))),
                                 0.0, np.inf, tail=probe.tail_bound,
                                 epsabs=1e-12, epsrel=1e-12)
    return Kernel(spec.family, params, impl, Z=Z)


# ----------------------------------------------------------------------
# hypothesis validation


@dataclass
class HypothesisReport:
    """Per-condition numeric checks behind a kernel's admissibility."""
    family: str
    params: dict
    mass_error: float
    f_roundtrip_rel: float
    j_roundtrip_rel: float
    ratio_tail_max: float
    tail_index_min: float
    mu: float
    fprime0: float
    mutation_eligible: bool
    checks: dict

    @property
    def passed(self):
        return all(self.checks.values())


def validate_hypotheses(kernel):
    """Check the standing kernel hypotheses numerically.

    Samples the closed forms on a geometric grid up to 1e8: monotonicity
    of f, concavity beyond x_peak, the fat-tail ratio limsup x f'/f < 1,
    the tail index liminf x f' > 1, unit mass of Jhat (to 1e-8), inverse
    round trips (to 1e-9 relative), and (for mutation-eligible families)
    the finite origin slope f(h)/h -> f'(0).  Concavity is read off f'
    alone: its rise between neighbouring samples must stay below 1e-12
    times their distance, which by the mean value theorem is f'' <= 1e-12
    somewhere between them.  Failures are reported, never raised.
    """
    k = kernel
    xs = np.geomspace(1e-6, 1e8, 400)

    # mass of the normalized density, recomputed through the variable
    # transform route (build_kernel used the cutoff-plus-tail route, so
    # the two agree only if both quadratures are sane)
    try:
        mass = 2.0 * adaptive_integrate(lambda h: k.J_hat(h), 0.0, np.inf,
                                        epsabs=1e-12, epsrel=1e-12)
        mass_error = abs(mass - 1.0)
    except NoConvergence:
        mass_error = math.inf

    fx = k.f(xs)
    f_rt = np.max(np.abs(k.f_inv(fx) - xs) / xs)

    vs = np.geomspace(1e-12, 1.0, 200)
    j_rt = np.max(np.abs(k.J(k.J_inv(vs)) - vs) / vs)

    monotone_ok = bool(np.all(np.diff(fx) > 0.0))

    if math.isfinite(k.x_peak):
        lo = max(k.x_peak, 1e-9)
        xc = np.geomspace(lo * (1.0 + 1e-9), 1e8, 200)
        fpc = k.f_prime(xc)
        concavity_ok = bool(np.all(np.diff(fpc) <= 1e-12 * np.diff(xc)))
    else:
        concavity_ok = not k.fat_tailed   # thin-tailed control: vacuous

    xt = np.geomspace(1e3, 1e8, 120)
    index = xt * k.f_prime(xt)
    ratio_tail_max = float(np.max(index / k.f(xt)))
    tail_index_min = float(np.min(index))

    fat_ok = (ratio_tail_max < 1.0) == k.fat_tailed
    integrable_ok = tail_index_min > 1.0

    if k.mutation_eligible:
        r3 = abs(k.f(1e-3) / 1e-3 - k.fprime0) / k.fprime0
        r6 = abs(k.f(1e-6) / 1e-6 - k.fprime0) / k.fprime0
        slope_ok = (r3 <= 1e-2) and (r6 <= 1e-4)
    else:
        slope_ok = True

    checks = {
        "unit_mass": bool(mass_error <= 1e-8),
        "inverse_roundtrip": bool(f_rt <= 1e-9 and j_rt <= 1e-9),
        "monotone": monotone_ok,
        "eventual_concavity": concavity_ok,
        "fat_tail_ratio": bool(fat_ok),
        "tail_index": bool(integrable_ok),
        "origin_slope": bool(slope_ok),
    }
    return HypothesisReport(family=k.family, params=dict(k.params),
                            mass_error=float(mass_error),
                            f_roundtrip_rel=float(f_rt),
                            j_roundtrip_rel=float(j_rt),
                            ratio_tail_max=ratio_tail_max,
                            tail_index_min=tail_index_min,
                            mu=k.mu, fprime0=k.fprime0,
                            mutation_eligible=k.mutation_eligible,
                            checks=checks)
