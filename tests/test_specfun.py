"""Special-function floor: Bessel values, zeros, hypergeometric pieces."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselid.errors import DomainError
from besselid.specfun import (bessel_i, bessel_j, bessel_k, bessel_y,
                              bessel_zero, bessel_zeros, gauss_2f1, kummer_m,
                              tricomi_boundary_mod2, tricomi_psi,
                              tricomi_psi_boundary, whittaker_w)

mp.mp.dps = 30

X_GRID = np.exp(np.linspace(np.log(0.1), np.log(50.0), 25))
NUS = (0.0, 0.3, 0.5, 1.0, 2.5)


# ----------------------------------------------------------------------
# values against an independent oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("nu", (0.0, 0.5, 1.3, 4.0))
@pytest.mark.parametrize("x", (0.2, 1.0, 7.5, 40.0))
def test_bessel_values_match_mpmath(nu, x):
    assert bessel_j(nu, x) == pytest.approx(float(mp.besselj(nu, x)),
                                            rel=1e-12, abs=1e-14)
    assert bessel_y(nu, x) == pytest.approx(float(mp.bessely(nu, x)),
                                            rel=1e-12, abs=1e-14)
    assert bessel_i(nu, x) == pytest.approx(float(mp.besseli(nu, x)),
                                            rel=1e-12)
    assert bessel_k(nu, x) == pytest.approx(float(mp.besselk(nu, x)),
                                            rel=1e-12)


def test_half_integer_k_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    x = 1.0
    assert bessel_k(0.5, x) == pytest.approx(np.sqrt(np.pi / 2) * np.exp(-1),
                                             rel=1e-14)


@pytest.mark.parametrize("x", (1.0, 1e2, 1e4, 1e6))
def test_scaled_variants_finite_at_large_argument(x):
    for nu in (0.0, 1.0, 2.5):
        vi = bessel_i(nu, x, scaled=True)
        vk = bessel_k(nu, x, scaled=True)
        assert np.isfinite(vi) and vi > 0.0
        assert np.isfinite(vk) and vk > 0.0


# ----------------------------------------------------------------------
# Wronskian-type invariants
# ----------------------------------------------------------------------

@pytest.mark.parametrize("nu", NUS)
def test_ik_wronskian(nu):
    i0 = bessel_i(nu, X_GRID, scaled=True)
    i1 = bessel_i(nu + 1.0, X_GRID, scaled=True)
    k0 = bessel_k(nu, X_GRID, scaled=True)
    k1 = bessel_k(nu + 1.0, X_GRID, scaled=True)
    lhs = i0 * k1 + i1 * k0  # the e^{+-x} scalings cancel in the product
    assert np.max(np.abs(lhs - 1.0 / X_GRID)) < 1e-10


@pytest.mark.parametrize("nu", NUS)
def test_jy_cross_product(nu):
    lhs = (bessel_j(nu + 1.0, X_GRID) * bessel_y(nu, X_GRID)
           - bessel_j(nu, X_GRID) * bessel_y(nu + 1.0, X_GRID))
    assert np.max(np.abs(lhs - 2.0 / (np.pi * X_GRID))) < 1e-10


@given(nu=st.floats(0.0, 5.0, allow_subnormal=False),
       x=st.floats(0.1, 50.0))
@settings(max_examples=60, deadline=None)
def test_ik_wronskian_property(nu, x):
    lhs = (bessel_i(nu, x, scaled=True) * bessel_k(nu + 1.0, x, scaled=True)
           + bessel_i(nu + 1.0, x, scaled=True) * bessel_k(nu, x, scaled=True))
    assert abs(lhs - 1.0 / x) < 1e-10


# ----------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------

def test_first_zero_of_j0():
    assert abs(bessel_zero(0.0, 1) - 2.404825557695773) < 1e-9


@pytest.mark.parametrize("nu", (0.0, 0.51, 1.0, 3.0, 7.3))
def test_zeros_are_roots_and_increasing(nu):
    zs = bessel_zeros(nu, 50)
    assert np.all(np.diff(zs) > 0.0)
    assert np.max(np.abs(bessel_j(nu, zs))) < 1e-9


@pytest.mark.parametrize("nu", (0.51, 1.0, 3.0))
def test_zero_spacing_exceeds_pi(nu):
    zs = bessel_zeros(nu, 50)
    assert np.min(np.diff(zs)) > np.pi


def test_zeros_match_mpmath():
    for nu in (0.0, 0.7, 2.5):
        zs = bessel_zeros(nu, 12)
        for n in (1, 2, 5, 12):
            assert zs[n - 1] == pytest.approx(
                float(mp.besseljzero(nu, n)), abs=1e-10)


def test_zeros_increase_with_order():
    for n in (1, 5, 20):
        a = bessel_zero(0.3, n)
        b = bessel_zero(1.3, n)
        assert b > a


def test_zeros_reject_bad_order():
    with pytest.raises((DomainError, ValueError)):
        bessel_zeros(-1.5, 5)


# ----------------------------------------------------------------------
# hypergeometric pieces
# ----------------------------------------------------------------------

@pytest.mark.parametrize("abcx", [(0.5, 1.2, 1.7, 0.3), (1.0, 1.0, 2.0, 0.8),
                                  (2.3, 0.4, 1.1, -0.6)])
def test_gauss_2f1_matches_mpmath(abcx):
    a, b, c, x = abcx
    assert gauss_2f1(a, b, c, x) == pytest.approx(
        float(mp.hyp2f1(a, b, c, x)), rel=1e-12)


@pytest.mark.parametrize("abcx", [(0.5, 1.2, 1.7, 0.3), (1.1, 0.9, 2.4, 0.5)])
def test_gauss_2f1_contiguous_derivative(abcx):
    a, b, c, x = abcx
    h = 1e-5
    num = (gauss_2f1(a, b, c, x + h) - gauss_2f1(a, b, c, x - h)) / (2 * h)
    closed = a * b / c * gauss_2f1(a + 1, b + 1, c + 1, x)
    assert num == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("acx", [(0.7, 0.3, 0.5), (1.5, 0.5, 2.0),
                                 (2.0, -0.5, 1.0), (0.7, 0.2, 5.0),
                                 (1.2, 1.8, 3.0), (3.0, 2.0, 0.4)])
def test_tricomi_psi_matches_mpmath(acx):
    a, c, x = acx
    assert tricomi_psi(a, c, x) == pytest.approx(
        float(mp.hyperu(a, c, x)), rel=1e-10)


@pytest.mark.parametrize("acx", [(0.5, 1.2, 0.8), (1.3, 0.6, 2.5)])
def test_kummer_m_matches_mpmath(acx):
    a, c, x = acx
    assert kummer_m(a, c, x) == pytest.approx(
        float(mp.hyp1f1(a, c, x)), rel=1e-12)


@pytest.mark.parametrize("act", [(1.5, 0.5, 0.7), (0.7, 0.2, 2.0),
                                 (2.0, -0.5, 1.3)])
def test_tricomi_boundary_pair_matches_complex_oracle(act):
    a, c, t = act
    pair = tricomi_psi_boundary(a, c, t)
    ref = mp.hyperu(a, c, mp.mpc(t) * mp.exp(1j * mp.pi))
    assert pair.re == pytest.approx(float(ref.real), rel=1e-9, abs=1e-12)
    assert pair.im == pytest.approx(float(ref.imag), rel=1e-9, abs=1e-12)
    assert pair.modulus_sq == pytest.approx(float(abs(ref) ** 2), rel=1e-9)


def test_tricomi_boundary_rejects_integer_c():
    with pytest.raises(DomainError):
        tricomi_psi_boundary(1.5, 0.0, 1.0)


# ----------------------------------------------------------------------
# |psi|^2 on the cut, vectorized over t
# ----------------------------------------------------------------------

def _boundary_sweep(n=240, seed=20240617):
    """Seeded (a, c, t): a in (0, 3], c in (-3, 1), t log-uniform in
    [1e-3, 700].  The connection coefficients have poles at integer c,
    and the two parts cancel there: at a = 1.5, c = -1 + d the relative
    error is about 3e-11 for d = 1e-3 and 3e-7 for d = 1e-5.  So c stays
    at least 1e-2 away from an integer."""
    rng = np.random.default_rng(seed)
    a = 3.0 - rng.uniform(0.0, 3.0, n)
    c = rng.uniform(-3.0, 1.0, n)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(700.0), n))
    far = np.abs(c - np.round(c)) > 1e-2
    return a[far], c[far], t[far]


def test_tricomi_boundary_mod2_matches_mpmath_sweep():
    worst = 0.0
    with mp.workdps(40):
        for a, c, t in zip(*_boundary_sweep()):
            ref = abs(mp.hyperu(a, c, mp.mpf(t) * mp.exp(1j * mp.pi))) ** 2
            got = tricomi_boundary_mod2(a, c, t)
            worst = max(worst, abs(got / float(ref) - 1.0))
    assert worst < 1e-11


@pytest.mark.parametrize("t", [0.7, np.array(0.7), np.linspace(0.1, 5.0, 7),
                               np.linspace(0.1, 5.0, 12).reshape(3, 4)])
def test_tricomi_boundary_mod2_keeps_shape(t):
    assert np.shape(tricomi_boundary_mod2(1.5, 0.5, t)) == np.shape(t)


@pytest.mark.parametrize("ac", [(1.5, 0.5), (0.7, 0.2), (2.0, -0.5),
                                (0.3, -2.7)])
def test_tricomi_boundary_mod2_equals_scalar_pair(ac):
    a, c = ac
    t = np.exp(np.linspace(np.log(1e-3), np.log(700.0), 60))
    pairs = np.array([tricomi_psi_boundary(a, c, ti).modulus_sq for ti in t])
    np.testing.assert_allclose(tricomi_boundary_mod2(a, c, t), pairs,
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_tricomi_boundary_mod2_rejects_bad_t_inside_array(bad):
    t = np.array([[0.5, 1.0], [bad, 2.0]])
    with pytest.raises(DomainError):
        tricomi_boundary_mod2(1.5, 0.5, t)


@pytest.mark.parametrize("ac", [(0.0, 0.5), (1.5, 1.0), (1.5, 1.5),
                                (1.5, -2.0)])
def test_tricomi_boundary_mod2_rejects_bad_parameters(ac):
    with pytest.raises(DomainError):
        tricomi_boundary_mod2(*ac, np.array([0.5, 1.0]))


# ----------------------------------------------------------------------
# Whittaker
# ----------------------------------------------------------------------

@pytest.mark.parametrize("km", [(0.3, 0.8), (-0.5, 1.2)])
def test_whittaker_symmetry_and_value(km):
    kappa, m = km
    for x in (0.5, 2.0, 10.0):
        w = whittaker_w(kappa, m, x)
        assert w == pytest.approx(whittaker_w(kappa, -m, x), rel=1e-10)
        assert w == pytest.approx(float(mp.whitw(kappa, m, x)), rel=1e-9)


def test_whittaker_leading_order_at_large_x():
    kappa, m, x = 0.3, 0.8, 60.0
    lead = np.exp(-x / 2.0) * x ** kappa
    assert whittaker_w(kappa, m, x) == pytest.approx(lead, rel=0.05)
