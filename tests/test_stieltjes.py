"""Stieltjes-transform identity catalog: residuals, kernels, inversion."""

import dataclasses

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from besselid import stieltjes
from besselid.checks import residuals
from besselid.cli import rows_to_csv
from besselid.errors import (DomainError, ParameterError,
                             UnsupportedVariantError)
from besselid.quad import QuadRows, numeric_laplace
from besselid.quad import oscillatory, tanhsinh
from besselid.quad.tanhsinh import _ROUNDING, UNRESOLVED
from besselid.specfun import kummer_m, tricomi_psi
from besselid.stieltjes import catalog_names, make_identity, tolerance

TRICOMI = ("TRICOMI_RATIO", "TRICOMI_Cm1", "TRICOMI_Ap1", "TRICOMI_Cp1",
           "TRICOMI_Am1")
PRODUCTS = ("MCDONALD", "I_PRODUCT_ANGLE")
# entries whose inner Laplace transform is a density
LAPLACE = ("I_EXP", "IK_PROD", "IK_EQUAL", "IK_EXP", "KK_PROD", "II_EXP",
           "KK_RECIP", "IK_QUOT", "K_RECIP", "K_RATIO")


# ----------------------------------------------------------------------
# residuals across the catalog
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", catalog_names())
def test_residual_within_tolerance(name):
    rec = make_identity(name)
    zs = (0.5, 1.0, 5.0) if name in TRICOMI else (0.1, 1.0, 10.0)
    # right sides at verify's default tolerance 1e-7, to 1e-9
    for z, _, _, res in residuals(rec, zs, 1e-7):
        assert res <= tolerance(name), (name, z)


def test_tolerance_classes():
    # one residual tolerance: KK_RECIP and IK_QUOT, once a looser class
    # of their own, are held to it like every other entry
    assert {tolerance(name) for name in catalog_names()} == {1e-7}
    assert tolerance("KK_RECIP") == 1e-7


def test_tolerance_rejects_unknown_names():
    # a misspelt name raises, as make_identity does, not a tolerance
    for name in ("IK_EQUAl", "ik_equal", ""):
        with pytest.raises(ParameterError, match="unknown identity"):
            tolerance(name)


def test_residual_detects_kernel_perturbation():
    # a 1% kernel error must surface as a ~1e-2 residual, far above
    # the pass tolerance -- the check has teeth
    rec = make_identity("IK_EQUAL")
    z = 1.0
    lhs = rec.lhs_value(z)
    rhs = rec.stieltjes_rhs(z)
    bad = abs(lhs - 1.01 * rhs.value) / abs(lhs)
    assert 5e-3 < bad < 2e-2


# ----------------------------------------------------------------------
# parameter domain handling
# ----------------------------------------------------------------------

def test_unknown_identity_rejected():
    with pytest.raises(ParameterError):
        make_identity("NO_SUCH_ID")
    with pytest.raises(ParameterError):
        make_identity("IK_EQUAL", bogus=1.0)


def test_ik_prod_domain_and_extension():
    with pytest.raises(ParameterError):
        make_identity("IK_PROD", mu=0.2, nu=1.5, a=0.5, b=1.0)
    rec = make_identity("IK_PROD", mu=0.2, nu=1.5, a=0.5, b=1.0,
                        extended_domain=1)
    assert residuals(rec, [1.0], 1e-7)[0][3] <= 1e-6
    with pytest.raises(ParameterError):
        make_identity("IK_PROD", mu=0.2, nu=2.5, a=0.5, b=1.0,
                      extended_domain=1)


def test_extended_domain_only_for_ik_prod():
    for name in catalog_names():
        if name != "IK_PROD":
            with pytest.raises(ParameterError, match="extended_domain"):
                make_identity(name, extended_domain=1)


@pytest.mark.parametrize("name", [n for n in stieltjes.catalog_names()
                                  if stieltjes.make_identity(n)._entry().kernel])
def test_every_kernel_rejects_infinite_points(name):
    # t = inf has no kernel value (the Bessel kernels are NaN there)
    rec = stieltjes.make_identity(name)
    for bad in (np.inf, [0.5, np.inf]):
        with pytest.raises(DomainError, match="kernel_density"):
            rec.kernel_density(bad)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, 0.0, -1.0))
@pytest.mark.parametrize("name", ("IK_EQUAL", "TRICOMI_Am1", "MCDONALD"))
def test_bad_points_raise_anywhere_in_an_array(name, bad):
    # no silent NaN, no "converged" 0 at z = inf, and the product
    # identities, whose right side ignores z, check it all the same
    rec = make_identity(name)
    for z in (bad, [0.5, 2.0, bad, 7.0], np.array([[1.0, bad]]), []):
        for method in (rec.lhs_value, rec.stieltjes_rhs):
            with pytest.raises(DomainError, match=method.__name__):
                method(z)


def test_lhs_takes_complex_points_off_the_cut():
    rec = make_identity("IK_EQUAL")
    zs = [-2.0 + 0.5j, 3.0 - 1e-3j, 1.0 + 0.0j]
    got = rec.lhs_value(zs)
    assert got.shape == (3,) and np.all(np.isfinite(got))
    assert got[1] == rec.lhs_value(3.0 - 1e-3j)


# a part that is not finite, and both rims of the cut: -2 + 0j and
# -2 - 0j gave the two rims by the sign of the zero, a product entry
# its constant at every one of them
OFF_DOMAIN_Z = [complex(np.nan, 1.0), complex(1.0, np.inf),
                complex(-2.0, 0.0), complex(-2.0, -0.0), 0j,
                np.array([1.0 + 1.0j, complex(-2.0, 0.0)])]
OFF_DOMAIN_IDS = ["nan", "inf", "upper-rim", "lower-rim", "zero", "array"]


@pytest.mark.parametrize("name", ["IK_EQUAL", "K_RATIO", "MCDONALD"])
@pytest.mark.parametrize("z", OFF_DOMAIN_Z, ids=OFF_DOMAIN_IDS)
def test_lhs_rejects_complex_z_on_the_cut_or_not_finite(name, z):
    with pytest.raises(DomainError, match=r"lhs_value requires finite z "
                       r"off the cut"):
        make_identity(name).lhs_value(z)


@pytest.mark.parametrize("z", [np.array([1.0 + 1.0j]), 1.0 + 0.0j],
                         ids=["array", "python"])
def test_real_only_entry_points_reject_complex(z):
    # a float conversion would read 1 + i as 1
    rec = make_identity("IK_EQUAL")
    with pytest.raises(DomainError, match="t must be real"):
        rec.kernel_density(z)
    with pytest.raises(DomainError, match="stieltjes_rhs points must be"):
        rec.stieltjes_rhs(z)


@pytest.mark.parametrize("name", TRICOMI)
def test_tricomi_entries_reject_complex_z(name):
    # psi is real only: a Tricomi left side off the real axis, and so its
    # Perron-Stieltjes inversion, raise where the Bessel entries continue
    rec = make_identity(name)
    with pytest.raises(DomainError, match="must be real"):
        rec.lhs_value(2.0 + 1.0j)
    with pytest.raises(DomainError, match="must be real"):
        rec.inversion_check(1.0)


def test_product_entries_have_no_kernel():
    rec = make_identity("MCDONALD")
    with pytest.raises(UnsupportedVariantError):
        rec.kernel_density(1.0)
    with pytest.raises(UnsupportedVariantError):
        rec.inversion_check(1.0)
    with pytest.raises(UnsupportedVariantError):
        make_identity("TRICOMI_RATIO").laplace_density(1.0)


# ----------------------------------------------------------------------
# inner Laplace transforms
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mu", (0.5, 1.0, 3.0))
def test_equal_argument_inner_laplace_closed_form(mu):
    # mu * integral e^{-st} J_mu^2(sqrt t) dt
    #     = (mu/s) e^{-1/(2s)} I_mu(1/(2s))
    rec = make_identity("IK_EQUAL", mu=mu)
    for s in (0.2, 1.0, 5.0):
        want = (mu / s) * np.exp(-0.5 / s) * sp.iv(mu, 0.5 / s)
        got = mu * rec.laplace_density(s, tol=1e-10).value
        assert abs(got - want) <= 1e-8 * abs(want)


def test_contour_ray_points_have_positive_real_part():
    # t = u^2 on the ray u = u0 + r e^{i pi/4}, built from its parts:
    # Re t = u0^2 + sqrt2 u0 r > 0 at every node of every level.  As the
    # complex product u * u, Re t is a difference of two terms of about
    # r^2/2 and comes out <= 0 at some nodes past r ~ 1e17, where the
    # weight e^{-st} then overflows against an exact-zero Hankel factor
    n_finite = 0
    for name in catalog_names():
        rec = make_identity(name)
        e = rec._entry()
        terms = e.terms(rec.p)
        if not any(tm.frequency > 0.0 for tm in terms):
            continue
        pieces = oscillatory._pieces(terms, lambda t: e.kernel(rec.p, t))
        (ray,) = [pc for pc in pieces if pc.name == "ray"]
        for level in range(tanhsinh.FIRST_LEVEL, tanhsinh.MAX_LEVEL + 1):
            # a build runs with floating-point warnings off, as in
            # integrate_pieces
            with np.errstate(all="ignore"):
                t = ray.level(level)[2]
            assert np.all(t.real > 0.0), (name, level)
            n_finite += int(np.isfinite(t).sum())
    assert n_finite > 50_000


def test_no_inner_laplace_outside_density_entries():
    others = [n for n in catalog_names() if n not in LAPLACE]
    assert sorted(others) == sorted(TRICOMI + PRODUCTS)
    for name in others:
        rec = make_identity(name)
        with pytest.raises(UnsupportedVariantError):
            rec.laplace_density(1.0)
        with pytest.raises(UnsupportedVariantError):
            rec.kernel_mass()


def test_inner_outer_consistency():
    # the outer Laplace of the inner-Laplace density recovers the LHS:
    # F(z) = integral e^{-zs} g(s) ds with g(s) = (1/s) e^{-1/(2s)}
    # I_mu(1/(2s)), here evaluated through its closed form
    for mu, z in ((0.7, 1.0), (1.5, 0.5)):
        rec = make_identity("IK_EQUAL", mu=mu)
        def g(s):
            s = np.asarray(s, dtype=float)
            # I_mu e^{-w} ~ (2 pi w)^{-1/2} for w = 1/(2s) past scipy's
            # ive range, i.e. g ~ 1/sqrt(pi s) deep in the left tail
            with np.errstate(all="ignore"):
                v = sp.ive(mu, 0.5 / s) / s
            return np.where(s < 1e-8, 1.0 / np.sqrt(np.pi * s), v)
        r = numeric_laplace(g, z, tol=1e-10)
        assert r.value == pytest.approx(float(rec.lhs_value(z)), rel=1e-8)


def test_kernel_mass_closed_forms():
    mu, nu, a, b = 0.7, 0.6, 0.2, 0.3
    rec = make_identity("II_EXP", mu=mu, nu=nu, a=a, b=b)
    want = (0.5 * a) ** mu * (0.5 * b) ** nu \
        / (sp.gamma(mu + 1.0) * sp.gamma(nu + 1.0))
    assert rec.kernel_mass().value == pytest.approx(want, rel=1e-7)

    mu, nu, a, b = 0.3, 0.6, 0.2, 0.3
    rec = make_identity("KK_PROD", mu=mu, nu=nu, a=a, b=b)
    want = 2.0 ** (mu + nu - 2.0) * sp.gamma(mu) * sp.gamma(nu) \
        / (a ** mu * b ** nu)
    assert rec.kernel_mass().value == pytest.approx(want, rel=1e-7)


def test_k_ratio_kernel_mass_closed_form_and_divergence():
    # int m(t) / t dt = F(0+) = lim K_{mu-1}(w) / (w K_mu(w)) as w -> 0,
    # which is 1 / (2 (mu - 1)) for mu > 1; at mu <= 1 the integral
    # diverges at t = 0 and there is no value to return
    for mu in (1.5, 3.0):
        r = make_identity("K_RATIO", mu=mu).kernel_mass()
        assert r.converged
        assert r.value == pytest.approx(0.5 / (mu - 1.0), rel=1e-9)
    for mu in (0.0, 0.9, 1.0):
        with pytest.raises(DomainError, match="diverges"):
            make_identity("K_RATIO", mu=mu).kernel_mass()


def _ladder_nodes():
    """The 257 nodes t of exp-sinh level 7 on [-6, 6], the nodes of every
    K-ratio ladder: t from 2.5e-138 to 4.0e137."""
    levels = [tanhsinh.de_level("exp", 6.0, k)
              for k in range(tanhsinh.FIRST_LEVEL, 8)]
    return np.concatenate([lv[2] for lv in levels])


@pytest.mark.parametrize("mu", (0.0, 0.3, 0.9, 1.2))
def test_k_ratio_modulus_matches_mpmath(mu):
    # J_mu^2 + Y_mu^2 at r = sqrt(t), against 40 digits
    r = np.sqrt(_ladder_nodes())
    assert r.size == 257
    got = stieltjes._bessel_mod2(mu, r)
    with mp.workdps(40):
        want = np.array([float(mp.besselj(mu, x) ** 2 + mp.bessely(mu, x) ** 2)
                         for x in map(mp.mpf, r.tolist())])
    assert np.max(np.abs(got / want - 1.0)) <= 2e-14


@pytest.mark.parametrize("mu", (2.5, 10.0))
def test_k_ratio_kernel_is_zero_where_the_modulus_overflows(mu):
    # Y_mu(sqrt t)^2 ~ t^-mu passes the largest double at the smallest
    # nodes: the kernel there is exactly 0, never NaN
    t = _ladder_nodes()
    with mp.workdps(30):
        over = np.array([mp.bessely(mu, mp.sqrt(mp.mpf(x))) ** 2 > 1.7e308
                         for x in t[t < 1e-10].tolist()])
    assert over.any()
    m = make_identity("K_RATIO", mu=mu).kernel_density(t)
    assert not np.any(np.isnan(m))
    assert np.all(m[t < 1e-10][over] == 0.0)
    assert np.all(m[t >= 1e-10] > 0.0)


def test_equal_argument_kernel_mass():
    # int J_mu^2(sqrt t) / t dt = 2 int J_mu^2(r) / r dr = 1 / mu
    mu = 1.3
    rec = make_identity("IK_EQUAL", mu=mu)
    assert rec.kernel_mass().value == pytest.approx(1.0 / mu, rel=1e-7)


# ----------------------------------------------------------------------
# product identities
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mu,x,y", [(1.0, 1.0, 0.3), (0.5, 2.0, 1.0),
                                    (2.0, 3.0, 2.5)])
def test_mcdonald_product(mu, x, y):
    rec = make_identity("MCDONALD", mu=mu, x=x, y=y)
    assert residuals(rec, [1.0], 1e-7)[0][3] <= 1e-8


def test_angular_i_product():
    rec = make_identity("I_PRODUCT_ANGLE", mu=0.7, x=0.9, y=1.4)
    assert residuals(rec, [1.0], 1e-7)[0][3] <= 1e-9


# ----------------------------------------------------------------------
# Perron-Stieltjes inversion
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ("IK_EQUAL", "I_EXP", "K_RATIO"))
@pytest.mark.parametrize("t", (0.6, 2.0, 5.0))
def test_inversion_recovers_kernel(name, t):
    rec = make_identity(name)
    want = float(rec.measure_density(t))
    got = rec.inversion_check(t)
    assert abs(got - want) <= 1e-5 * max(abs(want), 1.0)


def test_measure_density_sign_convention():
    # entries with a z/(z+t) factor invert to -t * kernel
    rec = make_identity("TRICOMI_Cm1")
    t = np.array([0.5, 1.0, 3.0])
    assert np.allclose(rec.measure_density(t), -t * rec.kernel_density(t),
                       rtol=1e-14)
    rec = make_identity("IK_EQUAL")
    assert np.allclose(rec.measure_density(t), rec.kernel_density(t),
                       rtol=1e-14)


# ----------------------------------------------------------------------
# Tricomi representations
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", TRICOMI)
@pytest.mark.parametrize("ac", [(1.5, 0.5), (2.0, -0.5), (0.7, 0.2)])
def test_tricomi_entries(name, ac):
    a, c = ac
    rec = make_identity(name, a=a, c=c)
    for z, _, _, res in residuals(rec, [0.5, 1.0, 5.0], 1e-7):
        assert res <= 1e-6, (name, ac, z)


def test_tricomi_rejects_integer_c():
    with pytest.raises(ParameterError):
        make_identity("TRICOMI_RATIO", a=1.5, c=0.0)


@pytest.mark.parametrize("ac", [(1.5, 0.5), (2.0, -0.5), (0.7, 0.2)])
def test_kummer_pair_wronskian(ac):
    # y1 = M(a,c,x) and y2 = x^{1-c} M(a-c+1, 2-c, x) solve the same
    # confluent equation; their Wronskian is (1-c) x^{-c} e^x
    a, c = ac
    for x in (0.5, 1.0, 5.0):
        y1 = kummer_m(a, c, x)
        d1 = (a / c) * kummer_m(a + 1.0, c + 1.0, x)
        m2 = kummer_m(a - c + 1.0, 2.0 - c, x)
        y2 = x ** (1.0 - c) * m2
        d2 = (1.0 - c) * x ** (-c) * m2 \
            + x ** (1.0 - c) * (a - c + 1.0) / (2.0 - c) \
            * kummer_m(a - c + 2.0, 3.0 - c, x)
        want = (1.0 - c) * x ** (-c) * np.exp(x)
        assert y1 * d2 - y2 * d1 == pytest.approx(want, rel=1e-9)


# ----------------------------------------------------------------------
# Hankel terms of the oscillatory kernels and the contour engine
# ----------------------------------------------------------------------

OSCILLATORY = ("I_EXP", "IK_PROD", "IK_EQUAL", "IK_EXP", "KK_PROD",
               "II_EXP", "KK_RECIP", "IK_QUOT", "K_RECIP")
TERM_T = np.logspace(-6.0, 6.0, 40)


def _mp_kernel(name, p, u):
    """The paper's kernels at u = sqrt(t) in mpmath, from J and Y."""
    mu, nu = mp.mpf(p.get("mu", 0.0)), mp.mpf(p.get("nu", 0.0))
    a, b = mp.mpf(p.get("a", 1.0)), mp.mpf(p.get("b", 1.0))
    jm, ym = mp.besselj(mu, a * u), mp.bessely(mu, a * u)
    jn, yn = mp.besselj(nu, b * u), mp.bessely(nu, b * u)
    s = (a + b) * u
    if name == "I_EXP":
        return u ** -mu * jm * mp.sin(a * u) / mp.pi
    if name == "IK_PROD":
        return u ** (nu - mu) * jm * jn / 2
    if name == "IK_EQUAL":
        return mp.besselj(mu, u) ** 2
    if name == "IK_EXP":
        return u ** (nu - mu) * jm * (jn * mp.cos(a * u)
                                      - yn * mp.sin(a * u)) / 2
    if name == "KK_PROD":
        return -mp.pi / 4 * u ** (mu + nu) * (jm * yn + jn * ym)
    if name == "II_EXP":
        return u ** -(mu + nu) * jm * jn * mp.sin(s) / mp.pi
    if name == "KK_RECIP":
        t1, t2 = jm * yn + jn * ym, jm * jn - ym * yn
        return 4 / mp.pi ** 3 * u ** -(mu + nu) \
            * (t1 * mp.cos(s) - t2 * mp.sin(s)) \
            / ((jm ** 2 + ym ** 2) * (jn ** 2 + yn ** 2))
    if name == "IK_QUOT":
        return -2 / mp.pi ** 2 * u ** -(mu + nu) * jm \
            * (jn * mp.cos(s) + yn * mp.sin(s)) / (jn ** 2 + yn ** 2)
    assert name == "K_RECIP"
    return -2 / mp.pi ** 2 * u ** -nu \
        * (jn * mp.cos(b * u) + yn * mp.sin(b * u)) / (jn ** 2 + yn ** 2)


def _mp_term(term, u):
    out = mp.mpc(term.coef) * u ** term.power * mp.expj(term.omega * u)
    for kind, nu, s, e in term.factors:
        j, y = mp.besselj(nu, s * u), mp.bessely(nu, s * u)
        out *= (j + (1j if kind == 1 else -1j) * y) ** e
    return out


def _term_misfit(name, p, terms):
    """Largest |Re sum(terms) - kernel| / sum|terms| over TERM_T, in
    mpmath at 30 digits."""
    worst = 0.0
    with mp.workdps(30):
        for t in TERM_T:
            u = mp.sqrt(mp.mpf(t))
            vals = [_mp_term(tm, u) for tm in terms]
            scale = sum(abs(v) for v in vals)
            miss = abs(mp.re(sum(vals)) - _mp_kernel(name, p, u))
            worst = max(worst, float(miss / scale) if scale else np.inf)
    return worst


@pytest.mark.parametrize("name", OSCILLATORY)
def test_hankel_terms_equal_kernel(name):
    rec = make_identity(name)
    terms = stieltjes._CATALOG[name].terms(rec.p)
    assert _term_misfit(name, rec.p, terms) <= 1e-12
    # the double-precision kernel and term values agree with mpmath
    # on the same scale
    with mp.workdps(30):
        for t in TERM_T:
            u = mp.sqrt(mp.mpf(t))
            want = _mp_kernel(name, rec.p, u)
            scale = float(sum(abs(_mp_term(tm, u)) for tm in terms))
            got = sum(tm(np.sqrt(t)) for tm in terms).real
            assert abs(got - float(want)) <= 1e-12 * scale, (name, t)
            assert abs(float(rec.kernel_density(t)) - float(want)) \
                <= 1e-12 * scale, (name, t)


@pytest.mark.parametrize("name", OSCILLATORY)
def test_hankel_term_mutations_fail(name):
    rec = make_identity(name)
    terms = list(stieltjes._CATALOG[name].terms(rec.p))
    first = terms[0]
    kind, nu, s, e = first.factors[0]
    conjugated = dataclasses.replace(
        first, factors=((3 - kind, nu, s, e),) + first.factors[1:])
    scaled = dataclasses.replace(first, coef=first.coef * (1.0 + 1e-3))
    for label, bad in (("dropped term", terms[1:]),
                       ("conjugated factor", [conjugated] + terms[1:]),
                       ("scaled coefficient", [scaled] + terms[1:])):
        assert _term_misfit(name, rec.p, bad) > 1e-12, (name, label)


def _mp_lhs(name, p, z):
    """The left sides in mpmath, unscaled, at real or complex z."""
    g = {k: mp.mpf(v) for k, v in p.items()}
    z = mp.mpmathify(z)
    w = mp.sqrt(z)
    mu, nu = g.get("mu", 0), g.get("nu", 0)
    a, b = g.get("a", 1), g.get("b", 1)
    i_mu, k_nu = mp.besseli(mu, a * w), mp.besselk(nu, b * w)
    return {
        "I_EXP": lambda: z ** (-mu / 2) * i_mu * mp.exp(-a * w),
        "IK_PROD": lambda: z ** ((nu - mu) / 2) * i_mu * k_nu,
        "IK_EQUAL": lambda: 2 * mp.besseli(mu, w) * mp.besselk(mu, w),
        "IK_EXP": lambda: z ** ((nu - mu) / 2) * i_mu * k_nu * mp.exp(-a * w),
        "KK_PROD": lambda: z ** ((mu + nu) / 2) * mp.besselk(mu, a * w) * k_nu,
        "II_EXP": lambda: z ** (-(mu + nu) / 2) * i_mu
        * mp.besseli(nu, b * w) * mp.exp(-(a + b) * w),
        "KK_RECIP": lambda: z ** (-(mu + nu) / 2) * mp.exp(-(a + b) * w)
        / (mp.besselk(mu, a * w) * k_nu),
        "IK_QUOT": lambda: z ** (-(mu + nu) / 2) * i_mu / k_nu
        * mp.exp(-(a + b) * w),
        "K_RECIP": lambda: z ** (-nu / 2) * mp.exp(-b * w) / k_nu,
    }[name]()


@pytest.mark.parametrize("name", OSCILLATORY)
def test_oscillatory_rhs_wide_z_against_mpmath(name):
    # 13 z in 1e-6..1e6: within 1e-12 of the mpmath left side, or the
    # left side is below what double precision resolves on the paths;
    # that happens only where it is exponentially small
    rec = make_identity(name)
    for z in np.logspace(-6.0, 6.0, 13):
        r = rec.stieltjes_rhs(float(z), tol=1e-12)
        with mp.workdps(30):
            want = _mp_lhs(name, rec.p, z)
        if r.converged:
            assert abs(r.value - want) <= 1e-12 * abs(want), (name, z)
        else:
            assert r.info["reason"].startswith(UNRESOLVED), (name, z)
            assert 1e-12 * abs(want) < _ROUNDING * r.info["mass"]
            assert name in ("IK_PROD", "IK_EXP", "KK_PROD") and z >= 1e2


# every entry of OSCILLATORY is one factor row on specfun.bessel_row
@pytest.mark.parametrize("name", OSCILLATORY)
def test_row_lhs_against_mpmath(name):
    # 13 real z in 1e-6..1e6 within 1e-13 of mpmath, or both values
    # below what double precision resolves; the continuation at the
    # variant test's four complex z, and far out, where unscaled I and K
    # overflow
    rec = make_identity(name)
    tiny = np.finfo(float).tiny
    for z in np.logspace(-6.0, 6.0, 13).tolist() + [
            0.3 + 0.2j, 2 + 1j, 7 - 3j, 40 + 25j, 6e5 + 1j]:
        got = complex(rec.lhs_value(z))
        with mp.workdps(30):
            want = complex(_mp_lhs(name, rec.p, z))
        assert abs(got - want) <= 1e-13 * abs(want) \
            or max(abs(got), abs(want)) < tiny, (name, z)


def test_unconverged_tricomi_rhs_carries_a_reason():
    # the kernel goes like t^-0.984: mass below the smallest exp-sinh
    # node keeps the right side from converging by level 12 (the false
    # fail it causes needs a truncation term in the error model)
    r = make_identity("TRICOMI_RATIO", a=0.644, c=0.984).stieltjes_rhs(1.0)
    assert not r.converged
    assert r.info["reason"] == "no convergence by level 12"


@pytest.mark.xfail(strict=True, reason=(
    "the tanh-sinh last difference underestimates the head's error at "
    "the strong endpoint singularity t^-0.876: err_estimate 3.6e-7 "
    "against an error of 4.0e-6; see the FOUND line on the contour head "
    "in CHANGES.md"))
def test_oscillatory_head_error_estimate_at_strong_endpoint():
    rec = make_identity("IK_EQUAL", mu=-0.876)
    r = rec.stieltjes_rhs(1e-4)
    assert r.converged
    with mp.workdps(30):
        w = mp.sqrt(mp.mpf("1e-4"))
        want = float(2 * mp.besseli(-0.876, w) * mp.besselk(-0.876, w))
    assert abs(r.value - want) <= r.err_estimate


# ----------------------------------------------------------------------
# plan: one kernel evaluation per piece and level
# ----------------------------------------------------------------------

KERNEL_ENTRIES = tuple(n for n in catalog_names() if n not in PRODUCTS)
MEMO_ZS = tuple(float(z) for z in np.logspace(-3.0, 3.0, 8))
# a new, empty plan on every access, as without the plan
_FRESH_PLAN = property(lambda self: {})


@pytest.mark.parametrize("name", KERNEL_ENTRIES)
def test_kernel_memo_sweep_is_bit_identical(name, monkeypatch):
    # one record swept over z in shuffled order gives exactly the
    # results of a fresh, unplanned evaluation per z: value, error,
    # evals, convergence flag and info
    with monkeypatch.context() as m:
        m.setattr(stieltjes.IdentityRecord, "_plan", _FRESH_PLAN)
        want = {z: make_identity(name).stieltjes_rhs(z) for z in MEMO_ZS}
    warm = make_identity(name)
    order = np.random.default_rng(17).permutation(len(MEMO_ZS))
    for i in order:
        z = MEMO_ZS[i]
        assert warm.stieltjes_rhs(z) == want[z], (name, z)
    for z in MEMO_ZS:
        assert make_identity(name).stieltjes_rhs(z) == want[z], (name, z)


@pytest.mark.parametrize("name", LAPLACE)
def test_kernel_memo_inner_laplace_is_bit_identical(name, monkeypatch):
    ss = (0.3, 3.0)
    # the kernel mass of K_RATIO is finite only at mu > 1
    params = {"mu": 1.5} if name == "K_RATIO" else {}
    with monkeypatch.context() as m:
        m.setattr(stieltjes.IdentityRecord, "_plan", _FRESH_PLAN)
        rec = make_identity(name, **params)
        want = [rec.laplace_density(s) for s in ss] + [rec.kernel_mass()]
    warm = make_identity(name, **params)
    warm.stieltjes_rhs(1.0)
    got = [warm.laplace_density(s) for s in ss] + [warm.kernel_mass()]
    assert got == want, name
    fresh = [make_identity(name, **params).laplace_density(s) for s in ss] \
        + [make_identity(name, **params).kernel_mass()]
    assert fresh == want, name


# the z of logspace(-6, 6, 25) and the seven of the default verify grid
ROW_ZS = np.concatenate([np.logspace(-6.0, 6.0, 25),
                         np.logspace(-2.0, 2.0, 7)])


@pytest.mark.parametrize("name", catalog_names())
def test_rhs_rows_equal_one_z_calls(name):
    # one array call gives, row by row, every field of the one-z call on
    # a fresh record; the left side likewise, value for value
    rows = make_identity(name).stieltjes_rhs(ROW_ZS)
    lhs = make_identity(name).lhs_value(ROW_ZS)
    assert isinstance(rows, QuadRows) and len(rows) == lhs.size == ROW_ZS.size
    for z, row, left in zip(ROW_ZS.tolist(), rows, lhs):
        rec = make_identity(name)
        assert row == rec.stieltjes_rhs(z), (name, z)
        assert left == rec.lhs_value(z), (name, z)
    assert rows.n_evals == sum(r.n_evals for r in rows)


@pytest.mark.parametrize("name", OSCILLATORY)
def test_warm_multi_piece_runs_equal_the_array_rows(name):
    # one-z calls on a record whose pieces have runs of unequal depth
    # sum every piece's levels from one stacked array; each still gives
    # row i of the array call, field for field, and moves the depths as
    # a two-row call of the same z, which takes no run, does
    rows = make_identity(name).stieltjes_rhs(ROW_ZS)

    def warmed():
        tanhsinh.spec_plan.cache_clear()
        rec = make_identity(name)
        for _ in range(12):
            rec.stieltjes_rhs(1.0)
        return rec, rec._plan["pieces"]

    rec, pieces = warmed()
    depths = [p.depth for p in pieces]
    assert min(depths) > tanhsinh.FIRST_LEVEL and len(set(depths)) > 1
    got = [(rec.stieltjes_rhs(z), [p.depth for p in pieces])
           for z in ROW_ZS.tolist()]
    rec, pieces = warmed()
    for z, row, (one, after) in zip(ROW_ZS.tolist(), rows, got):
        assert one == row, (name, z)
        assert list(rec.stieltjes_rhs(np.array([z, z]))) == [one, one]
        assert [p.depth for p in pieces] == after, (name, z)


def _counting_kernel(monkeypatch, name):
    """Replace the catalog kernel of `name` by one that records the size
    of each node array it is called on."""
    entry = stieltjes._CATALOG[name]
    calls = []

    def counting(p, t):
        calls.append(t.size)
        return entry.kernel(p, t)

    monkeypatch.setitem(stieltjes._CATALOG, name,
                        dataclasses.replace(entry, kernel=counting))
    return calls


def _planned_levels(rec) -> list:
    """(x, h, t, a) of every level in the record's plan, piece by piece."""
    return [piece.level(k) for piece in rec._plan["pieces"]
            for k in range(tanhsinh.FIRST_LEVEL,
                           tanhsinh.FIRST_LEVEL + len(piece.steps))]


def test_kernel_memo_reuses_node_sets(monkeypatch):
    # the contour plan holds each head level's kernel values: one kernel
    # call per planned head level
    calls = _counting_kernel(monkeypatch, "IK_EQUAL")
    used, unused = make_identity("IK_EQUAL"), make_identity("IK_EQUAL")
    used.stieltjes_rhs(1.0)
    first = len(calls)
    head = used._plan["pieces"][0]
    assert head.name == "head" and first == len(head.steps) > 0
    # z = 10 converges on a prefix of the z = 1 levels
    used.stieltjes_rhs(10.0)
    used.stieltjes_rhs(1.0)
    assert len(calls) == first

    # the plan is invisible to equality, hashing and repr
    assert used == unused and hash(used) == hash(unused)
    assert repr(used) == repr(unused)
    # stored arrays cannot be changed through a weight
    for x, h, t, a in _planned_levels(used):
        for m in (x, t, a):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0] = 0.0
    # a record with other parameters starts with an empty plan
    other = dataclasses.replace(used, params=(("mu", 1.2),))
    assert other._plan == {}
    other.stieltjes_rhs(1.0)
    assert len(calls) == 2 * first


def test_kernel_memo_reuses_exp_sinh_node_sets(monkeypatch):
    # entries without Hankel terms plan one half-line exp-sinh piece:
    # one kernel call per planned level, none on a warm z
    calls = _counting_kernel(monkeypatch, "TRICOMI_RATIO")
    used = make_identity("TRICOMI_RATIO")
    used.stieltjes_rhs(1.0)
    first = len(calls)
    assert first == len(_planned_levels(used)) > 0
    assert [p.name for p in used._plan["pieces"]] == ["half-line"]
    used.stieltjes_rhs(1.0)
    assert len(calls) == first
    used.stieltjes_rhs(10.0)
    assert len(calls) == len(_planned_levels(used))
    for x, h, t, a in _planned_levels(used):
        for m in (x, t, a):
            assert not m.flags.writeable
    # an equal record shares the plan
    assert dataclasses.replace(used)._plan is used._plan


def test_plan_warm_z_calls_no_kernel_and_no_hankel(monkeypatch):
    calls = _counting_kernel(monkeypatch, "IK_EQUAL")
    rec = make_identity("IK_EQUAL")
    rec.stieltjes_rhs(1.0)
    planned = dict(rec._plan)
    n_levels = len(_planned_levels(rec))
    hankel = []
    for fn in ("hankel1e", "hankel2e"):
        monkeypatch.setattr(oscillatory._sp, fn,
                            lambda nu, x: hankel.append(x) or 0.0 * x)
    calls.clear()
    # z = 10 converges on a prefix of the z = 1 levels
    for z in (10.0, 1.0):
        rec.stieltjes_rhs(z)
    assert calls == [] and hankel == []
    # the warm calls read the plan and add nothing to it
    assert rec._plan.keys() == planned.keys()
    assert all(rec._plan[k] is planned[k] for k in planned)
    assert len(_planned_levels(rec)) == n_levels


@pytest.mark.parametrize("name", ("IK_EQUAL", "TRICOMI_RATIO"))
def test_equal_records_share_one_plan(name, monkeypatch):
    # the plan is keyed by the record's value: a second, separately
    # built record with equal parameters evaluates no kernel and no
    # Hankel function on its first call, and gives the same result
    calls = _counting_kernel(monkeypatch, name)
    first = make_identity(name).stieltjes_rhs(1.0)
    assert calls
    hankel = []
    for fn in ("hankel1e", "hankel2e"):
        monkeypatch.setattr(oscillatory._sp, fn,
                            lambda nu, x: hankel.append(x) or 0.0 * x)
    calls.clear()
    assert make_identity(name).stieltjes_rhs(1.0) == first
    assert calls == [] and hankel == []


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_rhs_runs_once_per_parameter_set(name, monkeypatch):
    # a product identity's right side has no z: one evaluation serves
    # every z of every equal record, bit for bit a fresh evaluation
    entry = stieltjes._CATALOG[name]
    want = entry.rhs(make_identity(name).p)
    calls = []

    def counting(p):
        calls.append(p)
        return entry.rhs(p)

    monkeypatch.setitem(stieltjes._CATALOG, name,
                        dataclasses.replace(entry, rhs=counting))
    for rec in (make_identity(name), make_identity(name)):
        for z in MEMO_ZS:
            assert rec.stieltjes_rhs(z) == want, (name, z)
    assert len(calls) == 1
    # a caller that changes its result does not change the memo
    got = rec.stieltjes_rhs(1.0)
    got.value, got.info["reason"] = 0.0, "changed"
    assert rec.stieltjes_rhs(1.0) == want
    # other parameters evaluate their own right side
    make_identity(name, x=1.1).stieltjes_rhs(1.0)
    assert len(calls) == 2


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_rows_are_separate_objects(name):
    # every z of an array call gets its own copy of the right side: a
    # change to one row's info shows in no other row and not in the plan
    rows = make_identity(name).stieltjes_rhs(np.array([1.0, 2.0, 3.0]))
    assert rows[0] == rows[1] == rows[2]
    assert rows[0] is not rows[1] and rows[0].info is not rows[1].info
    rows[0].info["x"] = 1.0
    assert "x" not in rows[1].info and "x" not in rows[2].info
    assert "x" not in make_identity(name).stieltjes_rhs(1.0).info


def test_plan_and_product_memos_are_bounded():
    # 130 records, 65 of them with a product right side: the plans end
    # at their bound, and the 32 latest product records' plans hold
    # their right side
    for k in range(65):
        make_identity("IK_EQUAL", mu=0.1 + 0.01 * k)._plan
        make_identity("I_PRODUCT_ANGLE", x=0.5 + 0.01 * k).stieltjes_rhs(1.0)
    info = tanhsinh.spec_plan.cache_info()
    assert info.maxsize is not None
    assert info.currsize == info.maxsize
    products = [make_identity("I_PRODUCT_ANGLE", x=0.5 + 0.01 * k)
                for k in range(33, 65)]
    assert all("rhs" in rec._plan for rec in products)


def test_hankel_factors_only_on_live_nodes(monkeypatch):
    # scipy's scaled Hankel functions see neither a node whose term is
    # below e^{-700} (an exact zero) nor a point beyond |x| = 1e6 (the
    # Hankel series): exactly s u on the other nodes, factor by factor
    expected, seen = [], {"dead": 0, "big": 0, "scipy": 0}
    term_call = oscillatory.HankelTerm.__call__

    def spy_term(self, u):
        u = np.asarray(u, dtype=complex)
        live = ~(self.frequency * u.imag > 700.0)
        seen["dead"] += int(np.count_nonzero(~live))
        for _, _, s, _ in self.factors:
            x = s * u[live]
            small = np.abs(x) <= oscillatory._ASYMPTOTIC
            seen["big"] += int(np.count_nonzero(~small))
            expected.append(x[small])
        return term_call(self, u)

    def spy_hankel(fn):
        def hankel(nu, x):
            np.testing.assert_array_equal(x, expected.pop(0))
            seen["scipy"] += x.size
            return fn(nu, x)
        return hankel

    monkeypatch.setattr(oscillatory.HankelTerm, "__call__", spy_term)
    for fn in ("hankel1e", "hankel2e"):
        monkeypatch.setattr(oscillatory._sp, fn,
                            spy_hankel(getattr(oscillatory._sp, fn)))
    for name in OSCILLATORY:
        rec = make_identity(name)
        for z in (1e-3, 1.0, 1e3):
            rec.stieltjes_rhs(z)
    assert expected == []
    assert min(seen.values()) > 0, seen


def test_node_table_is_bounded_and_read_only():
    for name in OSCILLATORY:
        make_identity(name).stieltjes_rhs(1.0)
    info = tanhsinh.de_level.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
    for kind in ("tanh", "exp"):
        x, h, *parts = tanhsinh.de_level(kind, 4.0, 5)
        assert h == 4.0 / 2 ** 5
        for v in (x, *parts):
            assert not v.flags.writeable


# ----------------------------------------------------------------------
# Tricomi psi: growing kernels and large pole orders
# ----------------------------------------------------------------------

@pytest.mark.parametrize("a, c, z", [(2.0, 25.5, 5.5)])
def test_tricomi_psi_takes_growing_kernels_through_kummer(a, c, z):
    # c - a - 1 = 22.5: the Euler kernel grows, so psi takes the Kummer
    # transformation to a = -22.5 and the recurrence in a from there
    with mp.workdps(40):
        want = float(mp.hyperu(a, c, z))
    assert abs(tricomi_psi(a, c, z) - want) <= 1e-12 * abs(want)


def test_tricomi_psi_at_large_pole_orders_matches_mpmath():
    # a large pole order m = a + 1 - c (a K-distribution with a large
    # beta, m = beta, or a very negative c): the kernel's (1+t)^{-m}
    # falls off steeply near t = 0, where the exp-sinh nodes are dense
    from besselid.distributions import GammaQuotient, KDist, laplace_closed

    real = [(1.0, -20000.0, 10.0), (1.2, 1.2 - 999.0, 12000.0),
            (1.0, -40.5, 6.0), (0.5, -20.0, 5.0), (0.5, -20.0, 100.0)]
    got = [tricomi_psi(a, c, x) for a, c, x in real]
    assert np.isfinite(laplace_closed(KDist(1.2, 1000.0, 1.0), 0.1))
    assert np.isfinite(laplace_closed(GammaQuotient(1.0, 1.0, 500.0, 1.0),
                                      10.0))
    with mp.workdps(30):
        want = [float(mp.hyperu(a, c, x)) for a, c, x in real]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w)


# ----------------------------------------------------------------------
# reporting helpers
# ----------------------------------------------------------------------

def test_verification_rows_and_csv():
    rec = make_identity("IK_EQUAL")
    rows = [{"entry_id": rec.name, "z": z, "residual": res}
            for z, _, _, res in residuals(rec, [1.0, 2.0], 1e-7)]
    assert all(r["residual"] <= 1e-7 for r in rows)
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == "entry_id,z,residual"
    assert len(csv_text.splitlines()) == 3
    assert rows_to_csv([]) == ""


def test_default_params_round_trip():
    for name in catalog_names():
        p = make_identity(name).p
        assert p == stieltjes._CATALOG[name].defaults
        assert make_identity(name, **p).p == p
