"""Special-function floor: Bessel values, zeros, hypergeometric pieces."""

import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from besselid import specfun
from besselid.errors import ConvergenceError, DomainError
from besselid.specfun import (bessel_i, bessel_j, bessel_k, bessel_y,
                              bessel_zero, bessel_zeros, kummer_m,
                              tricomi_boundary_mod2, tricomi_psi,
                              tricomi_psi_boundary)

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
    # relative only: K_nu(40) is about 1e-18
    assert bessel_i(nu, x) == pytest.approx(float(mp.besseli(nu, x)),
                                            rel=1e-12, abs=0.0)
    assert bessel_k(nu, x) == pytest.approx(float(mp.besselk(nu, x)),
                                            rel=1e-12, abs=0.0)


def test_half_integer_k_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    x = 1.0
    assert bessel_k(0.5, x) == pytest.approx(np.sqrt(np.pi / 2) * np.exp(-1),
                                             rel=1e-14)


# complex x in every form: numpy's float conversion would drop the
# imaginary part (bessel_j(0.5, [1 + 1j]) read as J_0.5(1) = 0.6714),
# and a Python complex would raise TypeError
COMPLEX_INPUTS = {"array": np.array([1.0 + 1.0j]), "python": 1.0 + 0.0j,
                  "list": [2.0, 1.0j]}


@pytest.mark.parametrize("fn", [
    lambda x: bessel_j(0.5, x), lambda x: bessel_y(0.5, x),
    lambda x: bessel_i(0.5, x), lambda x: bessel_k(0.5, x, scaled=True),
    lambda x: kummer_m(0.7, 0.3, x), lambda x: tricomi_psi(0.7, 0.3, x),
    lambda x: tricomi_boundary_mod2(1.5, 0.5, x)],
    ids=["j", "y", "i", "k", "kummer_m", "tricomi_psi", "boundary"])
@pytest.mark.parametrize("x", COMPLEX_INPUTS.values(), ids=COMPLEX_INPUTS)
def test_complex_input_raises(fn, x):
    with pytest.raises(DomainError, match="must be real"):
        fn(x)


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


@pytest.mark.parametrize("nu", (1.1, 1.2, 3.0, 10.0, 40.0))
def test_scanned_zeros_match_mpmath(nu):
    # Newton's method starts the first ceil(nu) + 2 zeros from the
    # midpoints of the scan's sign-change brackets, the others from
    # McMahon's expansion
    zs = bessel_zeros(nu, 4000)
    k = math.ceil(nu)
    for n in (1, 2, k + 2, k + 3, 100, 4000):
        assert zs[n - 1] == pytest.approx(float(mp.besseljzero(nu, n)),
                                          rel=1e-14, abs=0.0)


def test_scanned_zero_sweep_matches_mpmath():
    # seeded orders log-uniform in (1, 250], each at the first two, one
    # seeded and the last of the ceil(nu) + 2 zeros that Newton's method
    # starts from the scan's bracket midpoints.  besseljzero's first call
    # at an order isolates its zeros by bisection, which took 0.45 s at
    # nu = 200, 9 s at 300 and over 2 minutes at 609
    rng = np.random.default_rng(11)
    for nu in np.exp(rng.uniform(0.0, np.log(250.0), 12)):
        last = math.ceil(nu) + 2
        zs = bessel_zeros(nu, last)
        for k in {1, 2, int(rng.integers(1, last + 1)), last}:
            assert zs[k - 1] == pytest.approx(
                float(mp.besseljzero(nu, k)), rel=1e-14, abs=0.0), (nu, k)


def _full_polish(nu, x, active=None):
    """Newton polish that evaluates every zero on every pass and keeps
    the step of those still active, each until its first step below
    1e-12 of it."""
    x = x.copy()
    active = np.ones(x.size, dtype=bool) if active is None else active.copy()
    for _ in range(30):
        step = np.clip(sp.jv(nu, x) / sp.jvp(nu, x), -1.0, 1.0)
        new = x - step
        x = np.where(active, new, x)
        active &= np.abs(step) >= 1e-12 * np.abs(new)
    return x, active


def _full_polish_zeros(nu, nmax):
    """_compute_zeros with Newton's method on every zero, and both
    polishes evaluating the whole array."""
    guess = specfun._mcmahon(nu, np.arange(1.0, nmax + 1.0))
    x, active = _full_polish(nu, guess)
    n_low = math.ceil(nu) + 2 if nu > 1.0 else 0
    if n_low or not (np.all(np.diff(x) > 1.0) and np.all(x > 0)):
        low = specfun._scan_low_zeros(nu, max(n_low, 2))
        x[: low.size] = low
        active[: low.size] = True
        x, _ = _full_polish(nu, x, active)
    return x


@functools.lru_cache(maxsize=None)
def _mp_zero(nu, k, guess):
    """j_{nu,k} to 40 digits.  besseljzero refuses nu < 0; there it is
    the root of J_nu next to `guess`, checked to lie between the zeros
    k - 1 and k of J_{nu+1}, which interlace with those of J_nu (Watson,
    Treatise on Bessel Functions, 15.22)."""
    with mp.workdps(40):
        if nu >= 0.0:
            return mp.besseljzero(mp.mpf(nu), k)
        root = mp.findroot(lambda t: mp.besselj(mp.mpf(nu), t),
                           mp.mpf(guess))
        lo = mp.besseljzero(nu + 1.0, k - 1) if k > 1 else 0
        assert lo < root < mp.besseljzero(nu + 1.0, k)
        return root


def _ulps_off(nu, k, x):
    """Signed distance of x from j_{nu,k}, in ulps of x."""
    with mp.workdps(40):
        return float((mp.mpf(x) - _mp_zero(nu, k, float(x))) / math.ulp(x))


_ZERO_ORDERS = (-0.9, -0.5, 0.0, 0.01, 0.239, 0.3, 0.5, 0.8, 0.9, 1.0, 1.1,
                1.2, 1.7, 2.5, 3.3, 5.0, 10.0)


def test_head_size_is_clipped():
    # nu = +-1/2: McMahon's corrections all vanish, so only the minimum
    assert [specfun._head_size(nu, 4000) for nu in (-0.5, 0.5, 1.2)] == \
        [2, 3, 36]
    assert specfun._head_size(40.0, 100) == 100
    # the bound overflows to inf at huge order: the head is the table
    assert specfun._head_size(1e40, 64) == 64


@pytest.mark.parametrize("nu", _ZERO_ORDERS)
def test_moving_mask_polish_equals_full_polish(nu):
    # stepping only the zeros still moving changes no bit of the head
    head = specfun._head_size(nu, 4000)
    assert np.array_equal(specfun._compute_zeros(nu, 4000)[:head],
                          _full_polish_zeros(nu, 4000)[:head])


@pytest.mark.parametrize("nu", _ZERO_ORDERS)
def test_mcmahon_tail_is_full_polish_to_an_ulp_and_rounds_better(nu):
    # where McMahon's closed form and Newton's method on J_nu differ, the
    # closed form is the correctly rounded one (near ties aside)
    zs = specfun._compute_zeros(nu, 4000)
    ref = _full_polish_zeros(nu, 4000)
    assert np.all((zs == ref) | (np.nextafter(zs, ref) == ref))
    for i in np.flatnonzero(zs != ref):
        assert abs(_ulps_off(nu, int(i) + 1, zs[i])) <= 0.51


_SWEEP_ORDERS = (-0.9, -0.5, 0.0, 0.01, 0.3, 0.5, 0.8, 1.2, 2.5, 10.0, 40.0)


def _sweep(nu):
    """(k, ulps off mpmath, in the head) at 30 seeded k in 1..4000, drawn
    with weight 1/k so that the head and the tail both get draws."""
    rng = np.random.default_rng([7, _SWEEP_ORDERS.index(nu)])
    ks = np.arange(1, 4001)
    zs = bessel_zeros(nu, 4000)
    head = specfun._head_size(nu, 4000)
    draws = rng.choice(ks, 30, replace=False, p=1.0 / ks / np.sum(1.0 / ks))
    return [(int(k), _ulps_off(nu, int(k), zs[k - 1]), k <= head)
            for k in draws]


@pytest.mark.parametrize("nu", _SWEEP_ORDERS)
def test_zero_sweep_tail_is_correctly_rounded(nu):
    tail = [(k, off) for k, off, in_head in _sweep(nu) if not in_head]
    assert tail and all(abs(off) <= 0.51 for _, off in tail), tail


_JV_NOISE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="Newton's method settles within the noise of "
    "scipy's jv near a zero: 1.1 ulps at nu = 0.3 and 0.8, 4.7 at nu = 40, "
    "15 at nu = -0.9 (k = 1)")


@pytest.mark.parametrize("nu", [
    pytest.param(nu, marks=_JV_NOISE) if nu in (-0.9, 0.3, 0.8, 40.0) else nu
    for nu in _SWEEP_ORDERS])
def test_zero_sweep_head_within_an_ulp(nu):
    head = [(k, off) for k, off, in_head in _sweep(nu) if in_head]
    assert head and all(abs(off) <= 1.0 for _, off in head), head


def test_report_zero_tables_evaluate_few_jv_points(monkeypatch):
    # the seven orders of the report's MLSumLadder rows, built cold; jvp
    # evaluates two J, so its points count twice.  A Newton pass over all
    # 4000 guesses per table took 117,538 points.
    points = []

    class Counting:
        def __getattr__(self, name):
            return getattr(sp, name)

        def jv(self, v, x):
            points.append(np.size(x))
            return sp.jv(v, x)

        def jvp(self, v, x):
            points.append(2 * np.size(x))
            return sp.jvp(v, x)

    monkeypatch.setattr(specfun, "_sp", Counting())
    monkeypatch.setattr(specfun, "_zero_cache", {})
    for mu in (0.3, 0.5, 0.8, 0.9, 1.0, 1.1, 1.2):
        assert bessel_zeros(mu, 4000).size == 4000
    assert sum(points) <= 6000


def test_bessel_zeros_are_read_only():
    # a caller writing into the result would change every later call's
    # zeros, which share the cached table
    z = bessel_zeros(0.5, 10)
    first = float(z[0])
    with pytest.raises(ValueError):
        z[0] = 0.0
    assert bessel_zeros(0.5, 10)[0] == first


def test_zeros_increase_with_order():
    for n in (1, 5, 20):
        a = bessel_zero(0.3, n)
        b = bessel_zero(1.3, n)
        assert b > a


@pytest.mark.parametrize("nu", (1e4, 1e5, 3e5, 1e6, 1e8))
def test_large_order_zeros_match_airy_expansion(nu):
    # j_{nu,k} ~ nu + tau nu^(1/3) + (3/10) tau^2 nu^(-1/3)
    #            + (5 - tau^3) / (350 nu),  tau = -a_k 2^(-1/3)
    # (DLMF 10.21.43), with the zeros a_k of Airy's Ai, not J; the next
    # term is below 6e-11 relative here.  A scan grid out to 3.5 nu
    # returned 1001575.3 for j_{1e6,1} = 1000185.6.
    tau = -sp.ai_zeros(3)[0] * 2.0 ** (-1.0 / 3.0)
    want = nu + tau * nu ** (1.0 / 3.0) + 0.3 * tau**2 * nu ** (-1.0 / 3.0) \
        + (5.0 - tau**3) / (350.0 * nu)
    np.testing.assert_allclose(bessel_zeros(nu, 3), want, rtol=1e-10, atol=0)


def test_large_order_zeros_polish_the_scanned_head_only(monkeypatch):
    # at nu = 1e11 the scan replaces all 64 head zeros; polishing
    # McMahon's guesses before it divided by zero far from any zero
    calls = []
    polish = specfun._newton_polish

    def counting(nu, x, moving=None):
        calls.append(moving is None)
        return polish(nu, x, moving)

    monkeypatch.setattr(specfun, "_newton_polish", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeros = specfun._compute_zeros(1e11, 64)
    assert calls == [False]
    tau = -sp.ai_zeros(1)[0][0] * 2.0 ** (-1.0 / 3.0)
    assert zeros[0] == pytest.approx(1e11 + tau * 1e11 ** (1.0 / 3.0),
                                     rel=1e-12)


def test_zeros_reject_bad_order():
    with pytest.raises((DomainError, ValueError)):
        bessel_zeros(-1.5, 5)
    for nu in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            bessel_zeros(nu, 5)


def test_zeros_domain_ends_where_the_scan_stops_bracketing():
    # the scan of the default table brackets its 64 zeros up to about
    # 2.25e15 and finds too few above
    nu = specfun._MAX_ZERO_ORDER
    tau = -sp.ai_zeros(1)[0][0] * 2.0 ** (-1.0 / 3.0)
    assert bessel_zeros(nu, 64)[0] == pytest.approx(
        nu + tau * nu ** (1.0 / 3.0), rel=1e-15)
    for nu in (np.nextafter(nu, math.inf), 3e15, 1e16):
        with pytest.raises(DomainError, match="finite nu in"):
            bessel_zeros(nu, 64)


class _FakeSpecial:
    """scipy.special with jv and jvp replaceable; `points` records the
    size of each jv call."""

    def __init__(self, jv=sp.jv, jvp=sp.jvp):
        self.points = []
        self._jv, self._jvp = jv, jvp

    def __getattr__(self, name):
        return getattr(sp, name)

    def jv(self, v, x):
        self.points.append(np.size(x))
        return self._jv(v, x)

    def jvp(self, v, x):
        return self._jvp(v, x)


def test_scan_halves_wide_brackets_below_the_step_clip(monkeypatch):
    # at nu = 2e15 the grid's cells are about 1,800 wide: 11 passes of
    # one jv call each halve every bracket below the polish's step clip
    fake = _FakeSpecial()
    monkeypatch.setattr(specfun, "_sp", fake)
    mids = specfun._scan_low_zeros(2e15, 64)
    assert fake.points == [40 * 64 + 1] + [64] * 11
    # each start lies within one clipped Newton step of its zero
    assert np.all(np.abs(mids - specfun._compute_zeros(2e15, 64)) <= 1.0)


def test_nan_on_the_scan_grid_raises(monkeypatch):
    monkeypatch.setattr(specfun, "_sp", _FakeSpecial(
        jv=lambda v, x: np.full(np.shape(x), np.nan)))
    monkeypatch.setattr(specfun, "_zero_cache", {})
    with pytest.raises(ConvergenceError, match="NaN on the scan grid"):
        bessel_zeros(3.0, 64)


def test_zero_still_moving_after_the_polish_raises(monkeypatch):
    # J' of the wrong sign drives every Newton step away from its zero
    monkeypatch.setattr(specfun, "_sp", _FakeSpecial(
        jvp=lambda v, x: -sp.jvp(v, x)))
    monkeypatch.setattr(specfun, "_zero_cache", {})
    with pytest.raises(ConvergenceError,
                       match=r"zero 1 of J_3\.0 still moving"):
        bessel_zeros(3.0, 64)


# ----------------------------------------------------------------------
# hypergeometric pieces
# ----------------------------------------------------------------------

@pytest.mark.parametrize("acx", [(0.7, 0.3, 0.5), (1.5, 0.5, 2.0),
                                 (2.0, -0.5, 1.0), (0.7, 0.2, 5.0),
                                 (1.2, 1.8, 3.0), (3.0, 2.0, 0.4)]
                         + [(a, c, x) for a, c in ((1.0, 2.6), (2.2, 3.4))
                            for x in (0.5, 2.0, 10.0)])
def test_tricomi_psi_matches_mpmath(acx):
    a, c, x = acx
    assert tricomi_psi(a, c, x) == pytest.approx(
        float(mp.hyperu(a, c, x)), rel=1e-10)


def test_tricomi_laguerre_regime_matches_mpmath():
    # seeded sweep of the Gauss-Laguerre regime: real x log-uniform in
    # [5, 1e4] and complex z with Re z >= 0, |z| log-uniform in [5, 1e4]
    # or, every other draw, in [5, 16] where the node count switches; a
    # quarter of the z lie on the imaginary axis, where the rule
    # converges slowest.  tricomi_psi takes real x only, but the rule is
    # elementwise arithmetic and holds at these z too
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(200):
        a, c = rng.uniform(0.01, 3.0), rng.uniform(-3.0, 3.0)
        x = 10.0 ** rng.uniform(np.log10(5.0), 4.0)
        r = 10.0 ** rng.uniform(np.log10(5.0),
                                np.log10(16.0 if k % 2 else 1e4))
        arg = np.copysign(np.pi / 2, rng.uniform(-1.0, 1.0)) if k % 4 < 2 \
            else rng.uniform(-np.pi / 2, np.pi / 2)
        z = r * np.exp(1j * arg)
        got_z = specfun._tricomi_laguerre(a, c, np.array([z]))[0]
        got_x = tricomi_psi(a, c, x)
        with mp.workdps(30):
            want_z = complex(mp.hyperu(a, c, z))
            want_x = float(mp.hyperu(a, c, x))
        worst = max(worst, abs(got_z - want_z) / abs(want_z),
                    abs(got_x - want_x) / abs(want_x))
    assert worst <= 1e-13


@pytest.mark.parametrize("z", [5j, 0.0 - 5.5j, 6.3, 7.9, 8.0 + 5.0j, 15.7j])
def test_tricomi_laguerre_regime_at_its_node_switch(z):
    # the slowest corner of the sweep, c - a - 1 near -7, on both sides
    # of the switch from 80 to 30 nodes at Re sqrt(z) = 2.8
    a, c = 3.0, -2.99
    got = specfun._tricomi_laguerre(a, c, np.array([z], dtype=complex))[0]
    with mp.workdps(30):
        want = complex(mp.hyperu(a, c, z))
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("a, c", [(12.0, 0.5), (12.0, 1.5), (9.0, 14.5),
                                  (0.5, -20.0)])
@pytest.mark.parametrize("z", [5j, 7.9, 8.0 + 5.0j, 15.7j, 100.0 + 30.0j])
def test_tricomi_laguerre_regime_outside_the_sweep(a, c, z):
    # pole order m = a + 1 - c near 12 and at 21.5, where the rule takes
    # m/7 times its base node count, and c - a - 1 = 4.5, a growing
    # integrand
    got = specfun._tricomi_laguerre(a, c, np.array([z], dtype=complex))[0]
    with mp.workdps(40):
        want = complex(mp.hyperu(a, c, z))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_tricomi_psi_below_five_matches_mpmath_sweep():
    # the per-point path (scipy hyperu, checked against its Kummer
    # transform, else the Euler integral) at 300 seeded (a, c, x) with
    # x log-uniform below the Gauss-Laguerre regime.  The worst draw is
    # 3.2e-10 off, at a = 2.05, c = -2.84, x = 3.40, where hyperu and
    # its transform agree within 1e-11 and are both that far off; near
    # a = 48, x = 0.19 the two agree on values 8.6e-10 off
    rng = np.random.default_rng(13)
    for _ in range(300):
        a, c = rng.uniform(0.05, 50.0), rng.uniform(-3.0, 2.0)
        x = 10.0 ** rng.uniform(-6.0, np.log10(5.0))
        assert tricomi_psi(a, c, x) == pytest.approx(
            float(mp.hyperu(a, c, x)), rel=1e-9, abs=0.0), (a, c, x)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 13: hyperu and its Kummer transform agree within "
    "1e-11 on values 3.2e-10 and 1.2e-10 off; the Euler integral is within "
    "2e-14")
@pytest.mark.parametrize("acx", [
    (2.0519070729322797, -2.843892741869534, 3.398230293704468),
    (32.86047489968053, -0.740440739495499, 0.220312671218672)])
def test_tricomi_psi_below_five_worst_sweep_draws(acx):
    # the two worst draws of the seed-13 sweep above, at rel 1e-12
    assert tricomi_psi(*acx) == pytest.approx(
        float(mp.hyperu(*acx)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a, c", [(0.38, 0.26), (1.18, 1.78)])
def test_tricomi_psi_matches_mpmath_where_hyperu_was_off(a, c):
    # scipy hyperu and its Kummer transform agreed on a value 4.5e-7 to
    # 6.2e-7 off here, so the cross-check passed it
    assert tricomi_psi(a, c, 20.0) == pytest.approx(
        float(mp.hyperu(a, c, 20)), rel=1e-13)


@pytest.mark.parametrize("acx", [(0.5, 1.2, 0.8), (1.3, 0.6, 2.5)])
def test_kummer_m_matches_mpmath(acx):
    a, c, x = acx
    assert kummer_m(a, c, x) == pytest.approx(
        float(mp.hyp1f1(a, c, x)), rel=1e-12)


@pytest.mark.parametrize("act", [(1.5, 0.5, 0.7), (0.7, 0.2, 2.0),
                                 (2.0, -0.5, 1.3)])
def test_tricomi_boundary_pair_matches_complex_oracle(act):
    a, c, t = act
    v = tricomi_psi_boundary(a, c, t)
    ref = mp.hyperu(a, c, mp.mpc(t) * mp.exp(1j * mp.pi))
    assert v.real == pytest.approx(float(ref.real), rel=1e-9, abs=1e-12)
    assert v.imag == pytest.approx(float(ref.imag), rel=1e-9, abs=1e-12)
    assert tricomi_boundary_mod2(a, c, t) == pytest.approx(
        float(abs(ref) ** 2), rel=1e-9)


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


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 13: the connection formula cancels near integer c, "
    "2.9e-7 and 3.3e-7 off at c = -1 + 1e-5")
@pytest.mark.parametrize("t", [0.5, 3.0])
def test_tricomi_boundary_mod2_near_integer_c(t):
    # the sweep above keeps c 1e-2 away from integers
    a, c = 1.5, -1.0 + 1e-5
    with mp.workdps(80):
        ref = abs(mp.hyperu(a, c, mp.mpf(t) * mp.exp(1j * mp.pi))) ** 2
    assert tricomi_boundary_mod2(a, c, t) == pytest.approx(
        float(ref), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("t", [0.7, np.array(0.7), np.linspace(0.1, 5.0, 7),
                               np.linspace(0.1, 5.0, 12).reshape(3, 4)])
def test_tricomi_boundary_mod2_keeps_shape(t):
    assert np.shape(tricomi_boundary_mod2(1.5, 0.5, t)) == np.shape(t)
    v = tricomi_psi_boundary(1.5, 0.5, t)
    assert np.shape(v) == np.shape(t) and np.iscomplexobj(v)
    # a scalar t gives a complex scalar, not a 0-d array
    assert isinstance(v, np.ndarray) == (np.ndim(t) > 0)


@pytest.mark.parametrize("ac", [(1.5, 0.5), (0.7, 0.2), (2.0, -0.5),
                                (0.3, -2.7)])
def test_tricomi_boundary_mod2_equals_scalar_pair(ac):
    # the array call gives the per-point values, and the modulus is the
    # re^2 + im^2 of each, bit for bit
    a, c = ac
    t = np.exp(np.linspace(np.log(1e-3), np.log(700.0), 60))
    values = np.array([tricomi_psi_boundary(a, c, ti) for ti in t])
    np.testing.assert_array_equal(tricomi_psi_boundary(a, c, t), values)
    np.testing.assert_array_equal(
        tricomi_boundary_mod2(a, c, t),
        values.real * values.real + values.imag * values.imag)


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

