"""Distribution catalog: densities, transforms, log-derivatives, profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from paramsets import PARAM_SETS

from besselid.distributions import (DIST_KINDS, format_dist, hcm_profile,
                                    kdist_quotient_kernel, laplace_closed,
                                    log_pdf, mgf_logderiv_im, neg_logderiv_lt,
                                    parse_dist, pdf)
from besselid.errors import (DomainError, ParameterError,
                             UnsupportedVariantError)
from besselid.quad import integrate_singular_decay, numeric_laplace


def _all_cases():
    return [(kind, args) for kind, sets in PARAM_SETS.items()
            for args in sets]


# ----------------------------------------------------------------------
# construction and serialization
# ----------------------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ParameterError):
        DIST_KINDS["mckay1"](1.0, 2.0, 1.5)       # needs b > a
    with pytest.raises(ParameterError):
        DIST_KINDS["sqmckay"](0.5, 0.6, 1.0)      # needs b > 2a
    with pytest.raises(ParameterError):
        DIST_KINDS["kdist"](-1.0, 2.0, 1.0)
    with pytest.raises(ParameterError):
        DIST_KINDS["nchisq"](1.0, 0.0)


def test_format_parse_roundtrip():
    for kind, args in _all_cases():
        d = DIST_KINDS[kind](*args)
        assert parse_dist(format_dist(d)) == d


def test_pdf_rejects_nonpositive_x():
    d = DIST_KINDS["mckay1"](1.0, 0.5, 1.5)
    with pytest.raises(DomainError):
        pdf(d, 0.0)


# ----------------------------------------------------------------------
# normalization and reductions
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind,args", _all_cases())
def test_pdf_integrates_to_one(kind, args):
    d = DIST_KINDS[kind](*args)
    r = integrate_singular_decay(lambda x: pdf(d, x), tol=1e-11)
    assert abs(r.value - 1.0) < 1e-8


def test_pdf_matches_log_pdf():
    d = DIST_KINDS["gig"](0.7, 1.0, 1.5)
    x = np.array([0.3, 1.0, 4.0])
    assert np.allclose(pdf(d, x), np.exp(log_pdf(d, x)), rtol=1e-13)


@pytest.mark.parametrize("args", PARAM_SETS["mckay1"])
def test_genmckay_reduces_to_mckay1(args):
    mu, a, b = args
    g = DIST_KINDS["genmckay"](mu, mu + 1.0, a, b)
    m = DIST_KINDS["mckay1"](mu, a, b)
    x = np.exp(np.linspace(np.log(0.05), np.log(20.0), 15))
    rel = np.abs(pdf(g, x) / pdf(m, x) - 1.0)
    assert np.max(rel) < 1e-12


@pytest.mark.parametrize("args", PARAM_SETS["mckay2"])
def test_genmckay_reduces_to_mckay2(args):
    mu, a, b = args
    g = DIST_KINDS["genmckay"](mu, mu + 2.0, a, b)
    m = DIST_KINDS["mckay2"](mu, a, b)
    x = np.exp(np.linspace(np.log(0.05), np.log(20.0), 15))
    rel = np.abs(pdf(g, x) / pdf(m, x) - 1.0)
    assert np.max(rel) < 1e-12


def test_mckay1_gamma_limit():
    mu, b = 1.0, 2.0
    d = DIST_KINDS["mckay1"](mu, 1e-8, b)
    for x in (0.5, 1.0, 2.0):
        want = b ** (2 * mu + 1) / sp.gamma(2 * mu + 1) \
            * np.exp(-b * x) * x ** (2 * mu)
        assert pdf(d, x) == pytest.approx(want, rel=1e-6)


def test_kdist_is_gamma_product_density():
    al, be, mu = 1.2, 2.0, 1.0
    d = DIST_KINDS["kdist"](al, be, mu)
    # X ~ Gamma(shape al, mean 1), Y ~ Gamma(shape be, mean mu)
    ra, rb = al, be / mu

    def mixture(x):
        def f(t):
            fx = ra ** al / sp.gamma(al) * t ** (al - 1) * np.exp(-ra * t)
            fy = rb ** be / sp.gamma(be) * (x / t) ** (be - 1) \
                * np.exp(-rb * x / t)
            return fx * fy / t
        return integrate_singular_decay(f, tol=1e-11).value

    for x in (0.2, 1.0, 3.0):
        assert pdf(d, x) == pytest.approx(mixture(x), rel=1e-7)


# ----------------------------------------------------------------------
# Laplace transforms
# ----------------------------------------------------------------------

def test_laplace_at_zero_is_one():
    for kind, args in _all_cases():
        if kind == "nchisq":
            continue
        d = DIST_KINDS[kind](*args)
        assert float(laplace_closed(d, 0.0)) == pytest.approx(1.0, abs=1e-10)


def test_mckay1_laplace_closed_value():
    d = DIST_KINDS["mckay1"](1.0, 1.0, 2.0)
    assert float(laplace_closed(d, 1.0)) == pytest.approx(
        (3.0 / 8.0) ** 1.5, rel=1e-14)


@pytest.mark.parametrize("kind", [k for k in DIST_KINDS if k != "nchisq"])
def test_laplace_closed_matches_numeric(kind):
    args = PARAM_SETS[kind][0]
    d = DIST_KINDS[kind](*args)
    tol = 1e-6 if kind == "kdist" else 1e-7
    for x in (0.1, 1.0, 10.0):
        closed = float(laplace_closed(d, x))
        num = numeric_laplace(lambda t: pdf(d, t), x, tol=1e-10)
        assert abs(closed - num.value) <= tol * abs(closed)


def test_nchisq_has_no_laplace():
    d = DIST_KINDS["nchisq"](1.0, 0.4)
    with pytest.raises(UnsupportedVariantError):
        laplace_closed(d, 1.0)


@given(mu=st.floats(-0.4, 4.0), a=st.floats(0.1, 1.0),
       gap=st.floats(0.05, 2.0), x=st.floats(0.01, 20.0))
@settings(max_examples=40, deadline=None)
def test_mckay1_laplace_decreasing_property(mu, a, gap, x):
    d = DIST_KINDS["mckay1"](mu, a, a + gap)
    l0, l1 = float(laplace_closed(d, x)), float(laplace_closed(d, x + 0.5))
    assert 0.0 < l1 < l0 <= 1.0 + 1e-12


# ----------------------------------------------------------------------
# negative log-derivative of the transform
# ----------------------------------------------------------------------

def test_mckay1_neg_logderiv_is_exact_partial_fraction():
    mu, a, b = 1.0, 0.5, 1.5
    d = DIST_KINDS["mckay1"](mu, a, b)
    for x in (0.1, 1.0, 7.0):
        want = (mu + 0.5) * (1.0 / (x + b - a) + 1.0 / (x + b + a))
        assert neg_logderiv_lt(d, x) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("kind", [k for k in DIST_KINDS if k != "nchisq"])
def test_neg_logderiv_matches_richardson(kind):
    args = PARAM_SETS[kind][0]
    d = DIST_KINDS[kind](*args)
    for x in (0.3, 2.0):
        h = 1e-4 * x
        grid = [float(laplace_closed(d, x + k * h)) for k in (-2, -1, 1, 2)]
        num = -(-grid[3] + 8 * grid[2] - 8 * grid[1] + grid[0]) / (12 * h)
        want = num / float(laplace_closed(d, x))
        assert neg_logderiv_lt(d, x) == pytest.approx(want, rel=1e-7)


def test_neg_logderiv_positive_on_grid():
    x = np.exp(np.linspace(np.log(0.05), np.log(50.0), 9))
    for kind, args in _all_cases():
        if kind == "nchisq":
            continue
        d = DIST_KINDS[kind](*args)
        for xi in x:
            assert neg_logderiv_lt(d, float(xi)) > 0.0


# ----------------------------------------------------------------------
# Pick data on the upper half-plane
# ----------------------------------------------------------------------

def test_mckay1_pick_value_at_i():
    d = DIST_KINDS["mckay1"](1.0, 1.0, 2.0)
    assert mgf_logderiv_im(d, 0.0, 1.0) == pytest.approx(0.9, rel=1e-12)


def test_mckay1_pick_positive_on_grid():
    d = DIST_KINDS["mckay1"](1.0, 0.5, 1.5)
    for re in np.linspace(-5.0, 5.0, 11):
        for im in (0.25, 1.0, 5.0):
            assert mgf_logderiv_im(d, float(re), float(im)) > 0.0


def test_kdist_pick_positive_at_i():
    d = DIST_KINDS["kdist"](1.0, 2.0, 1.0)
    assert mgf_logderiv_im(d, 0.0, 1.0) > 0.0


def test_pick_conjugate_antisymmetry():
    d = DIST_KINDS["mckay1"](1.0, 1.0, 2.0)
    v = mgf_logderiv_im(d, 0.7, 0.9)
    # Schwarz reflection: Im[psi'/psi](conj s) = -Im[psi'/psi](s); the
    # closed form is odd in the imaginary part
    w = (1.5) * (0.9 / ((0.7 + 1 - 2) ** 2 + 0.81)
                 + 0.9 / ((0.7 - 1 - 2) ** 2 + 0.81))
    assert v == pytest.approx(w, rel=1e-12)


# ----------------------------------------------------------------------
# hyperbolic profiles
# ----------------------------------------------------------------------

def test_profile_limit_at_w_two():
    d = DIST_KINDS["kdist"](1.2, 2.0, 1.0)
    u = 0.8
    assert hcm_profile(d, u, 2.0 + 1e-12) == pytest.approx(
        pdf(d, u) ** 2, rel=1e-5)


def test_gammaquot_profile_closed_form():
    al, be, al0, be0 = 1.2, 1.0, 0.8, 1.5
    d = DIST_KINDS["gammaquot"](al, be, al0, be0)
    r = be0 / be
    c = sp.gamma(al + al0) / (sp.gamma(al) * sp.gamma(al0)) * r ** al
    for u, w in ((0.5, 2.5), (1.0, 4.0), (2.0, 10.0)):
        want = c * c * u ** (2 * al - 2) \
            * (1.0 + (u * r) ** 2 + r * u * w) ** (-(al + al0))
        assert hcm_profile(d, u, w) == pytest.approx(want, rel=1e-12)


def test_kdist_profile_decreasing_and_convex():
    d = DIST_KINDS["kdist"](1.2, 2.0, 1.0)
    u = 1.0
    w = np.linspace(2.2, 12.0, 12)
    f = np.array([hcm_profile(d, u, wi) for wi in w])
    assert np.all(np.diff(f) < 0.0)
    assert np.all(np.diff(f, 2) > 0.0)


def test_gig_lt_profile_decreasing():
    d = DIST_KINDS["gig"](0.7, 1.0, 1.5)
    u = 1.0
    w = np.linspace(2.1, 10.0, 15)
    v = 0.5 * (w + np.sqrt(w * w - 4.0))
    f = np.array([float(laplace_closed(d, u * vi))
                  * float(laplace_closed(d, u / vi)) for vi in v])
    assert np.all(np.diff(f) < 0.0)


def test_profile_rejects_w_at_or_below_two():
    d = DIST_KINDS["kdist"](1.2, 2.0, 1.0)
    with pytest.raises(DomainError):
        hcm_profile(d, 1.0, 2.0)


# ----------------------------------------------------------------------
# quotient kernel of the K-distribution transform
# ----------------------------------------------------------------------

@pytest.mark.parametrize("al,be", [(1.5, 2.5), (0.7, 0.9), (3.0, 1.0)])
def test_quotient_kernel_mass_is_one(al, be):
    r = integrate_singular_decay(
        lambda t: kdist_quotient_kernel(al, be, t), tol=1e-10)
    assert abs(r.value - 1.0) < 1e-7


def test_quotient_kernel_nonnegative():
    t = np.exp(np.linspace(np.log(1e-3), np.log(50.0), 40))
    k = kdist_quotient_kernel(1.5, 2.5, t)
    assert np.all(k >= 0.0)


@pytest.mark.parametrize("al,be", [(1.5, 2.5), (0.7, 0.9), (3.0, 1.0),
                                   (1.2, 2.0)])
def test_quotient_kernel_is_exactly_zero_from_700(al, be):
    live = np.exp(np.linspace(np.log(1e-3), np.log(699.0), 30))
    dead = np.array([700.0, 750.0, 1e4, np.inf])
    k = kdist_quotient_kernel(al, be, np.concatenate([live, dead]))
    assert np.all(np.isfinite(k[:30]) & (k[:30] > 0.0))
    assert np.all(k[30:] == 0.0)


@pytest.mark.parametrize("t", [0.7, np.linspace(0.1, 800.0, 6),
                               np.linspace(0.1, 800.0, 6).reshape(2, 3)])
def test_quotient_kernel_keeps_shape(t):
    assert np.shape(kdist_quotient_kernel(1.5, 2.0, t)) == np.shape(t)


# pinned values of the Pick-test transform of the CLI's default gamma
# quotient, computed with the per-point boundary loop the shared
# vectorized kernel replaced
@pytest.mark.parametrize("re,im,ref", [
    (-2.0, 0.5, 0.05261596322760732),
    (0.0, 1.0, 0.45613500663681633),
    (0.5, 0.1, 1.0241115452508247),
    (3.0, 2.0, 0.30668258529283776),
    (1.0, 10.0, 0.109695402637874),
])
def test_gamma_quotient_mgf_logderiv_im_pinned(re, im, ref):
    d = DIST_KINDS["gammaquot"](alpha=1.2, beta=1.0, alpha0=0.8, beta0=1.5)
    assert mgf_logderiv_im(d, re, im) == pytest.approx(ref, rel=1e-10)


def test_gamma_quotient_mgf_logderiv_im_at_integer_alpha0():
    # alpha0 = 1 puts c = 1 - alpha0 on a pole of the boundary pair's
    # connection coefficients; the kernel is the midpoint of its neighbours
    def im_part(al0):
        d = DIST_KINDS["gammaquot"](alpha=1.2, beta=1.0, alpha0=al0, beta0=1.5)
        return mgf_logderiv_im(d, 0.0, 1.0)

    mid = 0.5 * (im_part(1.0 - 1e-3) + im_part(1.0 + 1e-3))
    assert im_part(1.0) == pytest.approx(mid, rel=1e-6)
