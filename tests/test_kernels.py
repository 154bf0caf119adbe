"""Kernel families: closed-form oracles, hypothesis checks, inverses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from fatkpp.errors import DomainError, InvalidParams
from fatkpp.gridops import invert_monotone
from fatkpp.kernels import (Kernel, KernelSpec, _build_subexponential,
                            build_kernel, validate_hypotheses)


def K(family, **p):
    return build_kernel(KernelSpec(family, **p))


@pytest.fixture(scope="module")
def poly4():
    return K("Polynomial", alpha=4.0)


@pytest.fixture(scope="module")
def subexp():
    return K("SubExponential", alpha=0.5)


@pytest.fixture(scope="module")
def loglin2():
    return K("LogLinear", beta=2.0)


@pytest.fixture(scope="module")
def powershift():
    return K("PowerShift", b=1.0, alpha=0.5)


# ----------------------------------------------------------------------
# normalization Z against independent closed forms


def test_Z_polynomial_exact(poly4):
    """int (1+x^2)^{-(1+a)/2} dx = sqrt(pi) Gamma(a/2)/Gamma((1+a)/2).

    At a=4 this collapses to 4/3.
    """
    a = 4.0
    expect = math.sqrt(math.pi) * gamma_fn(a / 2) / gamma_fn((1 + a) / 2)
    assert abs(expect - 4.0 / 3.0) < 1e-15
    assert abs(poly4.Z - expect) < 1e-10


def test_Z_polynomial_past_the_square_overflow():
    """r*r overflows past r = 1.3e154, and f and f' take their large-r
    forms there: alpha=0.05, whose tail bound 20 R^-0.05 meets its
    budget only near R = 1e278, builds with its closed-form Z (the tail
    search used to read f' = 0 past 1.3e154 and fail).  Below the
    overflow every value keeps its bits, Z of alpha 0.5 and 4 too."""
    a = 0.05
    k = K("Polynomial", alpha=a)
    expect = math.sqrt(math.pi) * gamma_fn(a / 2) / gamma_fn((1 + a) / 2)
    assert abs(k.Z - expect) < 1e-10 * expect
    r = np.array([1e77, 1.2e77, 1.3e154, 1.4e154, 1e200, 1e300])
    with np.errstate(over="raise", invalid="raise"):
        f, fp = k.f(r), k.f_prime(r)
    np.testing.assert_allclose(f, (1 + a) * np.log(r), rtol=1e-15)
    np.testing.assert_allclose(fp * r, 1 + a, rtol=1e-15)
    assert (K("Polynomial", alpha=0.5).Z, K("Polynomial", alpha=4.0).Z) \
        == (5.244115108583784, 1.3333333333328785)


def test_Z_powershift_incomplete_gamma(powershift):
    """With f = b((1+x)^a - 1), substituting u = b(1+x)^a gives

        Z = 2 e^b a^{-1} b^{-1/a} Gamma(1/a, b),

    which equals 8 exactly at b=1, a=1/2 (Gamma(2,1) = 2/e).
    """
    b, a = 1.0, 0.5
    expect = 2.0 * math.exp(b) / a * b ** (-1 / a) \
        * gammaincc(1 / a, b) * gamma_fn(1 / a)
    assert abs(expect - 8.0) < 1e-14
    assert abs(powershift.Z - expect) < 1e-10


@pytest.mark.parametrize("beta", [2.0, 3.0, 1.5])
def test_Z_loglinear(beta):
    assert abs(K("LogLinear", beta=beta).Z - 2.0 / (beta - 1.0)) < 1e-10


def test_Z_gaussian():
    assert abs(K("Gaussian", sigma=1.3).Z - 1.3 * math.sqrt(2 * math.pi)) < 1e-10


def test_Z_subexponential_simpson(subexp):
    """No closed form here; the oracle is fine composite Simpson out to a
    radius where the integrand underflows (f(3000) ~ 54, e^-54 ~ 1e-24)."""
    x = np.linspace(0.0, 3000.0, 2_000_001)
    y = np.exp(-subexp.f(x))
    h = x[1] - x[0]
    simpson = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum()
                         + 2.0 * y[2:-1:2].sum())
    assert abs(subexp.Z - 2.0 * simpson) < 1e-9


# ----------------------------------------------------------------------
# point values of f, f', J and the inverses


def test_polynomial_point_values(poly4):
    assert poly4.J(0.0) == 1.0
    assert abs(poly4.J(2.0) - 5.0 ** -2.5) < 1e-15
    assert abs(poly4.f(1.0) - 2.5 * math.log(2.0)) < 1e-15
    # front-location inverse: J_inv(e^-t) = sqrt(e^{2t/5} - 1)
    for t in (1.0, 5.0, 20.0):
        assert abs(poly4.J_inv(math.exp(-t))
                   - math.sqrt(math.expm1(2.0 * t / 5.0))) < 1e-9 * (1 + t)


def test_subexponential_point_values(subexp):
    assert abs(subexp.f(2.0) - (5.0 ** 0.25 - 1.0)) < 1e-15
    assert subexp.f(0.0) == 0.0
    assert subexp.f_prime(0.0) == 0.0
    assert abs(subexp.f_inv(1.0) - math.sqrt(15.0)) < 1e-14


def test_loglinear_point_values(loglin2):
    assert abs(loglin2.f(3.0) - 2.0 * math.log(4.0)) < 1e-15
    assert loglin2.fprime0 == 2.0
    assert loglin2.f_prime(0.0) == 2.0


def test_symmetry_exact(poly4, subexp, loglin2, powershift):
    xs = np.array([0.3, 1.7, 42.0, 1e5])
    for k in (poly4, subexp, loglin2, powershift):
        assert np.all(k.J(xs) == k.J(-xs))


def test_evaluators_accept_arrays(poly4):
    xs = np.linspace(-3, 3, 7)
    assert poly4.J(xs).shape == xs.shape
    assert isinstance(poly4.J(1.0), float)


# ----------------------------------------------------------------------
# derivatives against finite differences (independent route)


@pytest.mark.parametrize("family,params", [
    ("Polynomial", dict(alpha=4.0)),
    ("SubExponential", dict(alpha=0.5)),
    ("LogLinear", dict(beta=3.0)),
    ("PowerShift", dict(b=1.0, alpha=0.5)),
    ("Gaussian", dict(sigma=1.0)),
])
def test_f_prime_matches_central_differences(family, params):
    k = K(family, **params)
    xs = np.geomspace(0.01, 100.0, 40)
    h = 1e-6 * np.maximum(1.0, xs)
    fd = (k.f(xs + h) - k.f(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - k.f_prime(xs)) / (1 + np.abs(fd))) < 1e-8


# ----------------------------------------------------------------------
# inverses


@pytest.mark.parametrize("family,params", [
    ("Polynomial", dict(alpha=4.0)),
    ("SubExponential", dict(alpha=0.5)),
    ("LogLinear", dict(beta=2.0)),
    ("PowerShift", dict(b=1.0, alpha=0.5)),
])
def test_inverse_roundtrip_dense(family, params):
    k = K(family, **params)
    xs = np.geomspace(1e-6, 1e8, 300)
    assert np.max(np.abs(k.f_inv(k.f(xs)) - xs) / xs) < 1e-9
    vs = np.geomspace(1e-12, 1.0, 150)
    assert np.max(np.abs(k.J(k.J_inv(vs)) - vs) / vs) < 1e-9


def test_inv_f_against_generic_bracketing(subexp, loglin2):
    """Closed-form inverses versus the monotone bracketing fallback."""
    for k in (subexp, loglin2):
        for y in (0.3, 1.0, 7.5):
            x_generic = invert_monotone(lambda s: k.f(s), y)
            assert abs(k.f_inv(y) - x_generic) < 1e-8 * (1 + x_generic)


def test_inverse_domain_errors(poly4):
    with pytest.raises(DomainError):
        poly4.f_inv(-0.5)
    with pytest.raises(DomainError):
        poly4.J_inv(0.0)
    with pytest.raises(DomainError):
        poly4.J_inv(1.0 + 1e-12)


def test_inv_f_zero_is_zero(poly4, subexp, loglin2, powershift):
    for k in (poly4, subexp, loglin2, powershift):
        assert k.f_inv(0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1e-5, 1e7), y=st.floats(1e-5, 1e7),
       s=st.floats(1.01, 10.0))
def test_monotone_property(x, y, s):
    """f is nondecreasing, strictly so between separated radii."""
    k = _MONO_KERNEL
    lo, hi = min(x, y), max(x, y)
    assert k.f(hi) >= k.f(lo)
    assert k.f(s * x) > k.f(x)


_MONO_KERNEL = K("SubExponential", alpha=0.5)


# ----------------------------------------------------------------------
# parameter validation and flags


@pytest.mark.parametrize("family,params", [
    ("SubExponential", dict(alpha=1.5)),
    ("SubExponential", dict(alpha=0.0)),
    ("Polynomial", dict(alpha=-1.0)),
    ("Polynomial", dict()),
    ("LogLinear", dict(beta=1.0)),
    ("PowerShift", dict(b=0.0, alpha=0.5)),
    ("PowerShift", dict(b=1.0, alpha=1.0)),
    ("Gaussian", dict(sigma=0.0)),
])
def test_bad_params_rejected(family, params):
    with pytest.raises(InvalidParams):
        K(family, **params)


def test_spec_issues_name_their_parameter():
    """One InvalidParams lists every parameter at fault: missing, out of
    its open range, or not read by the family."""
    with pytest.raises(InvalidParams) as info:
        build_kernel(KernelSpec("PowerShift", alpha=1.0, sigma=2.0))
    assert info.value.issues == [
        "alpha: must lie in (0, 1) for PowerShift, got 1",
        "b: required by PowerShift",
        "sigma: not read by PowerShift"]


def test_unknown_family_rejected():
    with pytest.raises(InvalidParams):
        K("Cauchy", alpha=1.0)


def test_gaussian_is_thin_tailed_control():
    k = K("Gaussian", sigma=1.0)
    assert not k.fat_tailed
    assert k.mu == math.inf          # exponential moments all finite
    assert not k.mutation_eligible


def test_mutation_eligibility_flags(poly4, subexp, loglin2, powershift):
    assert not poly4.mutation_eligible       # f'(0) = 0
    assert not subexp.mutation_eligible
    assert loglin2.mutation_eligible
    assert powershift.mutation_eligible


def test_tail_index_values(poly4, subexp, loglin2):
    assert poly4.mu == 5.0
    assert subexp.mu == math.inf
    assert loglin2.mu == 2.0


def test_a_max_is_one_minus_inverse_mu(poly4, subexp, loglin2, powershift):
    """The ceiling on the initial slope A: 1 - 1/mu, 1 when mu is
    infinite."""
    assert poly4.a_max == pytest.approx(0.8)
    assert loglin2.a_max == 0.5
    assert subexp.a_max == powershift.a_max == 1.0


# ----------------------------------------------------------------------
# tail bounds


@pytest.mark.parametrize("family,params,R", [
    ("Polynomial", dict(alpha=4.0), 10.0),
    ("SubExponential", dict(alpha=0.5), 50.0),
    ("LogLinear", dict(beta=3.0), 30.0),
    ("PowerShift", dict(b=1.0, alpha=0.5), 80.0),
])
def test_tail_bound_dominates_true_tail(family, params, R):
    """The analytic bound must sit above a brute-force tail integral."""
    from scipy.integrate import quad
    k = K(family, **params)
    true_tail, _ = quad(lambda h: k.J_hat(h), R, np.inf)
    bound = k.tail_bound(R)
    assert true_tail <= bound
    assert bound < 50 * true_tail    # and not be uselessly loose


@pytest.mark.parametrize("family,params,R,lam", [
    ("Polynomial", dict(alpha=4.0), 10.0, 0.7),
    ("LogLinear", dict(beta=3.0), 30.0, 0.5),
    ("PowerShift", dict(b=1.0, alpha=0.5), 80.0, 0.9),
])
def test_log_tail_bounds_the_tilted_tail(family, params, R, lam):
    """ln of the bound on int_R^inf e^{-lam f} sits above the brute-force
    log of that integral, and is +inf while lam R f'(R) <= 1."""
    from scipy.integrate import quad
    k = K(family, **params)
    true_tail, _ = quad(lambda h: math.exp(-lam * k.f(h)), R, np.inf)
    bound = k.log_tail(R, lam)
    assert math.log(true_tail) <= bound < math.log(50 * true_tail)
    assert k.log_tail(1e-3, lam) == math.inf


def test_half_support_is_tight(poly4):
    """Two-sided budget: each side gets tol/2, and the radius is sharp."""
    tol = 1e-6
    R = poly4.half_support(tol)
    assert 2.0 * poly4.tail_bound(R) <= tol
    assert 2.0 * poly4.tail_bound(0.995 * R) > tol


# ----------------------------------------------------------------------
# hypothesis report


@pytest.mark.parametrize("family,params", [
    ("Polynomial", dict(alpha=4.0)),
    ("SubExponential", dict(alpha=0.5)),
    ("LogLinear", dict(beta=2.0)),
    ("LogLinear", dict(beta=3.0)),
    ("PowerShift", dict(b=1.0, alpha=0.5)),
    ("Gaussian", dict(sigma=1.0)),
])
def test_validate_hypotheses_passes(family, params):
    rep = validate_hypotheses(K(family, **params))
    assert rep.passed, rep.checks
    assert rep.mass_error <= 1e-8
    assert rep.f_roundtrip_rel <= 1e-9
    assert rep.j_roundtrip_rel <= 1e-9


def test_eventual_concavity_fails_below_the_peak_of_f_prime(subexp):
    """SubExponential alpha=0.5 has f' rising up to its peak at sqrt(2):
    the same closures with x_peak declared at 0.5 fail the concavity
    check, and every other check keeps its value."""
    impl = dict(_build_subexponential(0.5), x_peak=0.5)
    early = Kernel(subexp.family, subexp.params, impl, subexp.Z)
    want = validate_hypotheses(subexp).checks
    got = validate_hypotheses(early).checks
    assert want["eventual_concavity"] and not got["eventual_concavity"]
    assert dict(got, eventual_concavity=True) == want


def test_report_analytic_limits(subexp, loglin2, poly4):
    """The sampled tail statistics should approach the analytic limits."""
    r = validate_hypotheses(subexp)
    assert abs(r.ratio_tail_max - 0.5) < 2e-2      # x f'/f -> alpha
    assert not r.mutation_eligible
    r = validate_hypotheses(poly4)
    assert r.tail_index_min > 1.0 and abs(r.mu - 5.0) < 1e-12
    r = validate_hypotheses(loglin2)
    assert r.mutation_eligible and r.fprime0 == 2.0
    assert r.ratio_tail_max < 0.2                  # x f'/f -> 0


def test_origin_slope_checks(loglin2, powershift):
    """f(h)/h -> f'(0): within 1% at h=1e-3 and 1e-4 relative at h=1e-6."""
    for k in (loglin2, powershift):
        assert abs(k.f(1e-3) / 1e-3 - k.fprime0) / k.fprime0 <= 1e-2
        assert abs(k.f(1e-6) / 1e-6 - k.fprime0) / k.fprime0 <= 1e-4
