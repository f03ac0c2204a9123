"""Distribution catalog: densities, transforms, log-derivatives, profiles."""

import dataclasses
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from paramsets import PARAM_SETS

from besselid import checks, distributions, specfun, stieltjes
from besselid.distributions import (DIST_DEFAULTS, DIST_KINDS, hcm_profile,
                                    kdist_quotient_kernel, laplace_closed,
                                    log_pdf, mgf_logderiv_im, pdf)
from besselid.errors import (DomainError, ParameterError,
                             UnsupportedVariantError)
from besselid.idtests import neg_logderiv_ladder, pick_check
from besselid.quad import integrate_singular_decay, numeric_laplace
from besselid.quad.tanhsinh import (FIRST_LEVEL, MAX_LEVEL, de_level,
                                    spec_plan)
from besselid.specfun import tricomi_boundary_mod2
from besselid.stieltjes import make_identity


def _all_cases():
    return [(kind, args) for kind, sets in PARAM_SETS.items()
            for args in sets]


# ----------------------------------------------------------------------
# construction
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


@pytest.mark.parametrize("x", [np.array([1.0 + 1.0j]), 1.0 + 0.0j],
                         ids=["array", "python"])
def test_real_entry_points_reject_complex_x(x):
    # a float conversion would read x = 1 + i as 1
    d = DIST_KINDS["gig"](0.7, 1.0, 1.5)
    for fn in (pdf, log_pdf):
        with pytest.raises(DomainError, match="must be real"):
            fn(d, x)
    with pytest.raises(DomainError, match="w must be real"):
        hcm_profile(d, 1.0, x + 2.0)
    with pytest.raises(DomainError, match="t must be real"):
        kdist_quotient_kernel(1.2, 2.0, x)
    mckay1 = DIST_KINDS["mckay1"](1.0, 0.5, 1.5)
    with pytest.raises(DomainError, match="re must be real"):
        mgf_logderiv_im(mckay1, x, 1.0)
    with pytest.raises(DomainError, match="im must be real"):
        mgf_logderiv_im(mckay1, 0.0, x)


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
# negative log-derivative of the transform (the phi' ladders)
# ----------------------------------------------------------------------

def test_mckay1_neg_logderiv_is_exact_partial_fraction():
    mu, a, b = 1.0, 0.5, 1.5
    d = DIST_KINDS["mckay1"](mu, a, b)
    for x in (0.1, 1.0, 7.0):
        want = (mu + 0.5) * (1.0 / (x + b - a) + 1.0 / (x + b + a))
        assert neg_logderiv_ladder(d).derivatives(x, 0)[0] \
            == pytest.approx(want, rel=1e-13)


def _assert_neg_logderiv_matches_fd(d):
    for x in (0.3, 2.0, 50.0):
        h = 1e-4 * x
        grid = [float(laplace_closed(d, x + k * h)) for k in (-2, -1, 1, 2)]
        num = -(-grid[3] + 8 * grid[2] - 8 * grid[1] + grid[0]) / (12 * h)
        want = num / float(laplace_closed(d, x))
        assert neg_logderiv_ladder(d).derivatives(x, 0)[0] \
            == pytest.approx(want, rel=1e-7), (d, x)


_GIG_MU_ZERO = (0.0, 1.0, 1.0)


@pytest.mark.parametrize("kind", [k for k in DIST_KINDS if k != "nchisq"])
def test_neg_logderiv_matches_richardson(kind):
    for args in PARAM_SETS[kind]:
        if (kind, args) != ("gig", _GIG_MU_ZERO):
            _assert_neg_logderiv_matches_fd(DIST_KINDS[kind](*args))


@pytest.mark.xfail(strict=True, reason=(
    "smoothfn.k_ratio_ladder is inaccurate for small mu (relative error "
    "1.1e-2 at mu = 0); see the FOUND line on k_ratio_ladder in CHANGES.md"))
def test_neg_logderiv_matches_richardson_gig_mu_zero():
    _assert_neg_logderiv_matches_fd(DIST_KINDS["gig"](*_GIG_MU_ZERO))


def test_neg_logderiv_positive_on_grid():
    x = np.exp(np.linspace(np.log(0.05), np.log(50.0), 9))
    for kind, args in _all_cases():
        if kind == "nchisq":
            continue
        d = DIST_KINDS[kind](*args)
        for xi in x:
            assert neg_logderiv_ladder(d).derivatives(xi, 0)[0] > 0.0


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


def test_quotient_kernels_hand_only_live_points_to_the_boundary(monkeypatch):
    # TRICOMI_RATIO's kernel and the K-distribution's quotient kernel
    # hand the Tricomi boundary the points below t = 700 alone; there
    # they give t^-c e^-t / |psi(a, c, -t)|^2 / (Gamma(a + 1)
    # Gamma(a - c + 1)) bit for bit, elsewhere an exact zero
    handed = []

    def counting(a, c, t):
        handed.extend(np.ravel(t))
        return tricomi_boundary_mod2(a, c, t)

    def formula(a, c, t):
        return (t ** (-c) * np.exp(-t) / tricomi_boundary_mod2(a, c, t)
                * np.exp(-sp.gammaln(a + 1.0) - sp.gammaln(a - c + 1.0)))

    monkeypatch.setattr(stieltjes, "tricomi_boundary_mod2", counting)
    live = np.exp(np.linspace(np.log(1e-3), np.log(699.0), 30))
    mixed = np.insert(live, [4, 11, 19, 30], [700.0, 750.0, 1e4, np.inf])
    # kernel_density takes finite t only; the K-distribution's kernel at
    # (alpha, beta) = (2.2, 1.5) is TRICOMI_RATIO's at (a, c) = (1.5, 0.3)
    for a, c, kernel, t in [
            (1.5, 0.5, make_identity("TRICOMI_RATIO").kernel_density,
             mixed[:-1]),
            (1.5, 1.0 + 1.5 - 2.2,
             lambda t: kdist_quotient_kernel(2.2, 1.5, t), mixed)]:
        handed.clear()
        got = kernel(t)
        assert handed == live.tolist()
        want = np.zeros(t.shape)
        want[t < 700.0] = formula(a, c, live)
        assert got.tobytes() == want.tobytes()
        for x in (3.0, 750.0):
            handed.clear()
            k = kernel(x)
            assert np.shape(k) == () and handed == ([x] if x < 700.0 else [])
            assert k == (formula(a, c, np.array([x]))[0] if x < 700.0
                         else 0.0)


def test_quotient_kernels_reach_the_traced_boundary(monkeypatch):
    # perfbench's tracer replaces specfun.tricomi_psi_boundary, wherever
    # a besselid module holds it, by a wrapper: each Tricomi kernel call
    # passes through that wrapper once, with the points below t = 700
    boundary, handed = specfun.tricomi_psi_boundary, []

    def counting(a, c, t):
        handed.append(np.ravel(t).tolist())
        return boundary(a, c, t)

    for name, module in list(sys.modules.items()):
        if name == "besselid" or name.startswith("besselid."):
            for attr, obj in list(vars(module).items()):
                if obj is boundary:
                    monkeypatch.setattr(module, attr, counting)
    t = np.array([1e-3, 0.5, 3.0, 40.0, 699.0, 700.0, 1e4])
    for kernel in (make_identity("TRICOMI_RATIO").kernel_density,
                   lambda t: kdist_quotient_kernel(1.2, 2.0, t)):
        handed.clear()
        kernel(t)
        assert handed == [t[:5].tolist()]


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


# ----------------------------------------------------------------------
# quotient-mixture plan: omega times the Jacobian once per exp-sinh level
# ----------------------------------------------------------------------

MEMO_FAMILIES = (
    ("kdist", (1.2, 2.0, 1.0)),
    ("gammaquot", (1.2, 1.0, 0.8, 1.5)),
    # alpha - (alpha + alpha0) = -2: the kernel averages beta -/+ 1e-5
    ("gammaquot", (1.2, 1.0, 2.0, 1.5)),
)
MEMO_POINTS = tuple((float(x), float(y)) for x in np.linspace(-5.0, 5.0, 6)
                    for y in (0.25, 1.0, 5.0))


# a new, empty plan on every access, as without the plan
_FRESH_PLAN = property(lambda self: {})


@pytest.mark.parametrize("kind,args", MEMO_FAMILIES)
def test_quotient_memo_pick_is_bit_identical(kind, args, monkeypatch):
    # fresh, warmed-in-shuffled-order and unplanned evaluations give
    # exactly the same Pick values and the same pick_check report
    with monkeypatch.context() as m:
        m.setattr(distributions._QuotientMixture, "_plan", _FRESH_PLAN)
        want = {p: mgf_logderiv_im(DIST_KINDS[kind](*args), *p)
                for p in MEMO_POINTS}
        want_check = pick_check(DIST_KINDS[kind](*args))
    warm = DIST_KINDS[kind](*args)
    for i in np.random.default_rng(23).permutation(len(MEMO_POINTS)):
        p = MEMO_POINTS[i]
        assert mgf_logderiv_im(warm, *p) == want[p], (kind, args, p)
    for p in MEMO_POINTS:
        assert mgf_logderiv_im(DIST_KINDS[kind](*args), *p) == want[p]
    assert pick_check(warm) == want_check
    assert pick_check(DIST_KINDS[kind](*args)) == want_check


@pytest.mark.parametrize("kind,args", MEMO_FAMILIES[:2])
def test_quotient_memo_is_invisible_and_read_only(kind, args):
    used, unused = DIST_KINDS[kind](*args), DIST_KINDS[kind](*args)
    mgf_logderiv_im(used, 0.5, 1.0)
    assert len(used._plan) > 0
    # an equal spec shares the plan
    assert unused._plan is used._plan
    assert used == unused and hash(used) == hash(unused)
    assert repr(used) == repr(unused)
    piece = used._plan["half-line"]
    for k in range(FIRST_LEVEL, FIRST_LEVEL + len(piece.steps)):
        x, h, t, a = piece.level(k)
        for m in (x, t, a):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0] = 0.0
    other = dataclasses.replace(used, alpha=1.3)
    assert other._plan == {}
    assert mgf_logderiv_im(other, 0.5, 1.0) \
        != mgf_logderiv_im(unused, 0.5, 1.0)


def test_pick_check_evaluates_omega_once_per_node_level(monkeypatch):
    # the exp-sinh nodes depend on the level only, so one pick_check
    # (55 points) evaluates the kernel at most once per level; a return
    # to per-point evaluation would cost hundreds of calls
    calls = []

    def counting(al, be, t):
        calls.append(t.size)
        return kdist_quotient_kernel(al, be, t)

    monkeypatch.setattr(distributions, "kdist_quotient_kernel", counting)
    d = DIST_KINDS["kdist"](1.2, 2.0, 1.0)
    first = pick_check(d)
    assert 0 < len(calls) == len(d._plan["half-line"].steps) <= 10
    # an equal spec, built separately, reuses the plan: no kernel call
    calls.clear()
    assert pick_check(DIST_KINDS["kdist"](1.2, 2.0, 1.0)) == first
    assert calls == []


# ----------------------------------------------------------------------
# densities on node tables: one evaluation per (spec, table)
# ----------------------------------------------------------------------

def _half_line_tables():
    """The exp-sinh node tables of numeric_laplace and the norm rows."""
    return [de_level("exp", 6.5, k)[2] for k in range(FIRST_LEVEL,
                                                     MAX_LEVEL + 1)]


def _counting_log_pdf(monkeypatch, d) -> list:
    """Patch d's family to record the nodes of each log_pdf call."""
    seen, inner = [], type(d).log_pdf

    def counting(self, x):
        seen.append(np.array(x))
        return inner(self, x)

    monkeypatch.setattr(type(d), "log_pdf", counting)
    return seen


def test_pdf_on_tables_equals_a_fresh_evaluation_and_is_read_only():
    # all 8 families, two parameter sets each, at levels 3-12: the
    # plan's values are the bits of an evaluation on a writable copy,
    # which bypasses the plan; the 16 specs hold one plan each, with
    # their 10 tables under the tables' bytes
    specs = [DIST_KINDS[k](*a) for k, sets in PARAM_SETS.items()
             for a in sets[:2]]
    for d in specs:
        for t in _half_line_tables():
            got = pdf(d, t)
            want = pdf(d, t.copy())
            assert want.flags.writeable
            assert got.tobytes() == want.tobytes(), (d, t.size)
            assert pdf(d, t) is got
            with pytest.raises(ValueError):
                got[0] = 0.0
    info = spec_plan.cache_info()
    assert info.maxsize == 64 and info.currsize == len(specs) == 16
    for d in specs:
        assert spec_plan(d).keys() == {t.tobytes()
                                       for t in _half_line_tables()}


def test_numeric_laplace_of_a_density_is_the_same_cold_and_warm():
    # the array call equals the one-point calls bit for bit, whether
    # the density memo is cold or already holds the tables
    d = DIST_KINDS["kdist"](1.2, 2.0, 1.0)
    xs = (1e-3, 0.1, 1.0, 10.0, 1e3)
    rows = numeric_laplace(lambda t: pdf(d, t), xs, tol=1e-10)
    for x, row in zip(xs, rows):
        spec_plan.cache_clear()
        cold = numeric_laplace(lambda t: pdf(d, t), x, tol=1e-10)
        warm = numeric_laplace(lambda t: pdf(d, t), x, tol=1e-10)
        assert cold == row and warm == row, x


def test_numeric_laplace_at_a_new_point_reuses_the_density(monkeypatch):
    d = DIST_KINDS["gig"](0.7, 1.0, 1.5)
    seen = _counting_log_pdf(monkeypatch, d)
    first = numeric_laplace(lambda t: pdf(d, t), 1.0, tol=1e-10)
    assert 0 < len(seen) == len(spec_plan(d))
    seen.clear()
    second = numeric_laplace(lambda t: pdf(d, t), 1.7, tol=1e-10)
    assert second.n_evals <= first.n_evals
    assert seen == []
    assert second.value == pytest.approx(float(laplace_closed(d, 1.7)),
                                         rel=1e-9)


@pytest.mark.parametrize("kind", [k for k in DIST_KINDS if k != "nchisq"])
def test_laplace_row_reuses_the_norm_rows_tables(kind, monkeypatch):
    # both rows integrate on the exp-sinh tables of range 6.5: the
    # laplace row evaluates the density only on levels that the norm
    # row did not reach
    d = DIST_KINDS[kind](*DIST_DEFAULTS[kind])
    seen = _counting_log_pdf(monkeypatch, d)
    assert checks._norm(d).passed
    norm_tables = {x.tobytes() for x in seen}
    deepest = max(x.size for x in seen)
    seen.clear()
    assert checks._laplace(d, 1e-7).passed
    for x in seen:
        assert x.tobytes() not in norm_tables and x.size > deepest
