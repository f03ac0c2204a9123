"""Quadrature engines: closed-form checks, properties, error honesty."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from besselid import distributions
from besselid.quad import oscillatory, tanhsinh
from besselid.distributions import DIST_DEFAULTS, DIST_KINDS, pdf
from besselid.errors import DomainError
from besselid.quad import (HankelTerm, QuadRows, integrate_oscillatory,
                           integrate_singular_decay, numeric_laplace,
                           tanh_sinh_finite)
from besselid.idtests import pick_check
from besselid.quad.tanhsinh import (UNRESOLVED, half_line_piece,
                                    integrate_pieces)
from besselid.stieltjes import catalog_names, make_identity


# ----------------------------------------------------------------------
# finite interval
# ----------------------------------------------------------------------

def test_finite_angular_bessel_product():
    # int_0^pi (2 - 2 cos t)^{-1/2} I_1(sqrt(2-2cos t)) sin^2 t dt,
    # the angular representation of I_1(1)^2 with a = b = 1, mu = 1
    mu, pref = 1.0, 0.5 / (np.sqrt(np.pi) * sp.gamma(1.5))

    def f(t):
        s = 2.0 * np.sin(0.5 * t)  # sqrt(2 - 2 cos t), stable near 0
        return s ** (-mu) * sp.iv(mu, s) * np.sin(t) ** (2.0 * mu)

    r = tanh_sinh_finite(f, 0.0, np.pi, tol=1e-13)
    assert pref * r.value == pytest.approx(sp.iv(1, 1.0) ** 2, rel=1e-11)


def test_tanh_sinh_endpoint_singularity():
    r = tanh_sinh_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-12)
    assert r.value == pytest.approx(2.0, abs=1e-11)


# ----------------------------------------------------------------------
# semi-infinite, exponential decay
# ----------------------------------------------------------------------

def test_singular_decay_exponential():
    r = integrate_singular_decay(lambda t: np.exp(-t), tol=1e-12)
    assert r.converged and r.value == pytest.approx(1.0, abs=1e-12)


def test_singular_decay_gamma_half():
    r = integrate_singular_decay(
        lambda t: np.exp(-t) / np.sqrt(t), tol=1e-12)
    assert r.value == pytest.approx(np.sqrt(np.pi), rel=1e-11)


def test_singular_decay_algebraic_tail():
    r = integrate_singular_decay(lambda t: 1.0 / (1.0 + t) ** 2, tol=1e-11)
    assert r.value == pytest.approx(1.0, rel=1e-10)


def test_singular_decay_rows_equal_one_row_calls(monkeypatch):
    # rows that stop at different levels, and with MAX_LEVEL 8 some that
    # never converge; every field of each row equals the one-row call
    rng = np.random.default_rng(17)
    c, r, y = (rng.uniform(0.2, 3.0, 9), rng.uniform(-4.0, 4.0, 9),
               np.geomspace(0.05, 5.0, 9))
    c2, r2, y2 = c[:, None], r[:, None], y[:, None]

    def rows(t, k):
        return np.exp(-c2[k] * t) * np.sqrt(t) * y2[k] \
            / ((t - r2[k]) ** 2 + y2[k] * y2[k])

    for max_level in (12, 8):
        monkeypatch.setattr(tanhsinh, "MAX_LEVEL", max_level)
        got = integrate_pieces([half_line_piece({})], rows, 9, tol=1e-11)
        for i in range(9):
            one = integrate_singular_decay(
                lambda t: np.exp(-c[i] * t) * np.sqrt(t) * y[i]
                / ((t - r[i]) ** 2 + y[i] * y[i]), tol=1e-11)
            assert (got[i].value, got[i].err_estimate, got[i].n_evals,
                    got[i].converged) == (one.value, one.err_estimate,
                                          one.n_evals, one.converged)
        assert len({g.n_evals for g in got}) > 1
    converged = [g.converged for g in got]
    assert any(converged) and not all(converged)

    # three pieces, [0, 1], [1, 3] and [3, 9], with the peak of width y
    # at r on any of them: each piece stops at different levels in
    # different rows, and every field of each row equals the one-row
    # call on the same pieces, warm with the many-row call's runs
    c, r, y = (rng.uniform(0.2, 3.0, 12), rng.uniform(0.0, 9.0, 12),
               np.geomspace(0.02, 3.0, 12))
    c2, r2, y2 = c[:, None], r[:, None], y[:, None]
    levels = np.zeros((3, 12), dtype=int)     # per piece, per row

    def rows3(t, k):
        levels[np.searchsorted([1.0, 3.0], t.mean()), k] += 1
        return np.exp(-c2[k] * t) * np.sqrt(t) * y2[k] \
            / ((t - r2[k]) ** 2 + y2[k] * y2[k])

    def finite(a, b):
        return tanhsinh.Piece("finite", tanhsinh.FINITE_X_MAX,
                              functools.partial(tanhsinh.tanh_sinh_level,
                                                a, b, tanhsinh.FINITE_X_MAX))

    for max_level in (12, 8):
        monkeypatch.setattr(tanhsinh, "MAX_LEVEL", max_level)
        pieces = [finite(0.0, 1.0), finite(1.0, 3.0), finite(3.0, 9.0)]
        levels[:] = 0
        got = integrate_pieces(pieces, rows3, 12, tol=1e-11)
        assert all(len(set(stops)) > 1 for stops in levels.tolist())
        for i in range(12):
            one = integrate_pieces(pieces, lambda t, k: rows3(t, [i])[0], 1,
                                   tol=1e-11)[0]
            assert (got[i].value, got[i].err_estimate, got[i].n_evals,
                    got[i].converged, got[i].info) == (
                one.value, one.err_estimate, one.n_evals, one.converged,
                one.info)
        assert len({g.n_evals for g in got}) > 2
    converged = [g.converged for g in got]
    assert any(converged) and not all(converged)


# ----------------------------------------------------------------------
# oscillatory sqrt-phase integrals
# ----------------------------------------------------------------------

def _j_squared(mu, a=1.0, coef=1.0):
    """J_mu(a sqrt t)^2 as Hankel terms, with its closed kernel:
    J^2 = Re[H1^2 / 2] + |H1|^2 / 2 on the real axis."""
    h1 = (1, mu, a, 1)
    terms = [HankelTerm(0.5 * coef, 0.0, 0.0, (h1, h1)),
             HankelTerm(0.5 * coef, 0.0, 0.0, (h1, (2, mu, a, 1)))]
    return terms, lambda t: coef * sp.jv(mu, a * np.sqrt(t)) ** 2


def _cos_over_root(coef=1.0):
    """cos(sqrt t) / (2 sqrt t) = Re[e^{iu} / (2u)] at u = sqrt t."""
    return ([HankelTerm(0.5 * coef, -1.0, 1.0)],
            lambda t: coef * np.cos(np.sqrt(t)) / (2.0 * np.sqrt(t)))


def _stieltjes(z):
    return lambda t: 1.0 / (z + t)


def test_oscillatory_j0_squared_stieltjes():
    terms, kernel = _j_squared(0.0)
    r = integrate_oscillatory(_stieltjes(1.0), terms, kernel, tol=1e-9,
                              plan={})
    want = 2.0 * sp.iv(0, 1.0) * sp.kv(0, 1.0)
    assert r.converged
    assert r.value == pytest.approx(want, rel=1e-8)


def test_oscillatory_cosine_closed_form():
    # u = sqrt(t): int_0^oo cos(sqrt t)/(2 sqrt t (1+t)) dt
    #            = int_0^oo cos(u)/(1+u^2) du = pi/(2e)
    terms, kernel = _cos_over_root()
    r = integrate_oscillatory(_stieltjes(1.0), terms, kernel, tol=1e-9,
                              plan={})
    assert r.value == pytest.approx(np.pi / (2.0 * np.e), rel=1e-8)


def test_oscillatory_rejects_empty_or_negative_frequency_terms():
    # a term of negative net frequency is to be written as its conjugate
    for terms in ([HankelTerm(1.0, 0.0, -1.0)],
                  [HankelTerm(1.0, 0.0, 0.0, ((2, 0.0, 1.0, 1),))]):
        with pytest.raises(DomainError):
            integrate_oscillatory(_stieltjes(1.0), terms,
                                  lambda t: np.exp(-t), tol=1e-10, plan={})


def test_oscillatory_without_terms_is_one_half_line_piece():
    # int_0^oo e^{-t} / (1 + t) dt = e E1(1), by exp-sinh in t
    plan = {}
    r = integrate_oscillatory(_stieltjes(1.0), [], lambda t: np.exp(-t),
                              tol=1e-12, plan=plan)
    assert r.converged
    assert r.value == pytest.approx(np.e * sp.exp1(1.0), rel=1e-12)
    assert [piece.name for piece in plan["pieces"]] == ["half-line"]


def test_oscillatory_linearity():
    (f_terms, f), (g_terms, g) = _cos_over_root(), _j_squared(0.0)
    rf = integrate_oscillatory(_stieltjes(1.0), f_terms, f, tol=1e-9,
                               plan={})
    rg = integrate_oscillatory(_stieltjes(1.0), g_terms, g, tol=1e-9,
                               plan={})
    rc = integrate_oscillatory(
        _stieltjes(1.0), _cos_over_root(2.0)[0] + _j_squared(0.0, coef=3.0)[0],
        lambda t: 2.0 * f(t) + 3.0 * g(t), tol=1e-9, plan={})
    combined = 2.0 * rf.value + 3.0 * rg.value
    budget = 2.0 * rf.err_estimate + 3.0 * rg.err_estimate + rc.err_estimate
    assert abs(rc.value - combined) <= max(budget, 1e-8)


# ----------------------------------------------------------------------
# numeric Laplace transform
# ----------------------------------------------------------------------

def test_laplace_of_constant():
    r = numeric_laplace(lambda t: np.ones_like(t), 2.0)
    assert r.value == pytest.approx(0.5, rel=1e-10)


def test_laplace_of_mckay1_pdf():
    d = DIST_KINDS["mckay1"](1.0, 1.0, 2.0)
    r = numeric_laplace(lambda t: pdf(d, t), 1.0)
    want = ((2.0 ** 2 - 1.0) / ((1.0 + 2.0) ** 2 - 1.0)) ** 1.5  # (3/8)^{3/2}
    assert r.value == pytest.approx(want, rel=1e-9)


def test_laplace_of_j_squared_gives_bessel_kernel():
    # int e^{-xt} J_mu^2(sqrt t) dt = (1/x) e^{-1/(2x)} I_mu(1/(2x))
    mu, x = 1.0, 0.8
    terms, kernel = _j_squared(mu)
    r = integrate_oscillatory(lambda t: np.exp(-x * t), terms, kernel,
                              tol=1e-10, plan={})
    want = np.exp(-0.5 / x) * sp.iv(mu, 0.5 / x) / x
    assert r.value == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, 0.0, -1.0))
def test_laplace_rejects_bad_points_anywhere_in_an_array(bad):
    with pytest.raises(DomainError, match="numeric_laplace"):
        numeric_laplace(lambda t: np.exp(-t), bad)
    with pytest.raises(DomainError, match="numeric_laplace"):
        numeric_laplace(lambda t: np.exp(-t), [0.5, 2.0, bad, 3.0])
    with pytest.raises(DomainError, match="numeric_laplace"):
        numeric_laplace(lambda t: np.exp(-t), [])


@pytest.mark.parametrize("x", [np.array([1.0 + 1.0j]), 1.0 + 0.0j],
                         ids=["array", "python"])
def test_laplace_rejects_complex_x(x):
    # a float conversion would read x = 1 + i as 1
    with pytest.raises(DomainError, match="numeric_laplace points must be"):
        numeric_laplace(lambda t: np.exp(-t), x)


@pytest.mark.parametrize("kind", [k for k in DIST_DEFAULTS if k != "nchisq"])
def test_laplace_rows_equal_one_x_calls(kind):
    # one exp-sinh call over 25 x gives, row by row, every field of the
    # call at that x alone
    d = DIST_KINDS[kind](*DIST_DEFAULTS[kind])
    xs = np.logspace(-3.0, 3.0, 25)
    rows = numeric_laplace(lambda t: pdf(d, t), xs)
    assert isinstance(rows, QuadRows) and len(rows) == xs.size
    for x, row in zip(xs, rows):
        assert row == numeric_laplace(lambda t: pdf(d, t), float(x)), (kind, x)
    assert rows.n_evals == sum(r.n_evals for r in rows)
    assert rows.converged == all(r.converged for r in rows)


# ----------------------------------------------------------------------
# acceleration
# ----------------------------------------------------------------------

@given(st.floats(0.3, 3.0), st.floats(0.5, 4.0))
@settings(max_examples=25, deadline=None)
def test_laplace_of_exponential_property(a, x):
    r = numeric_laplace(lambda t: np.exp(-a * t), x)
    assert r.value == pytest.approx(1.0 / (x + a), rel=1e-9)


# ----------------------------------------------------------------------
# error-estimate honesty battery
# ----------------------------------------------------------------------

def _battery():
    """(run, true_value) pairs with closed forms across all engines."""
    cases = []

    def ts(f, a, b, want, tol=1e-12):
        cases.append((lambda: tanh_sinh_finite(f, a, b, tol=tol), want))

    def sd(f, want, tol=1e-11):
        cases.append((lambda: integrate_singular_decay(f, tol=tol), want))

    def osc(weight, case, want, tol=1e-8):
        # each case as given and scaled by 1e-12 and by 1e12: the
        # estimate must not depend on the size of the integrand
        for scale in (1.0, 1e-12, 1e12):
            terms, kernel = case(scale)
            cases.append((lambda w=weight, tm=terms, k=kernel:
                           integrate_oscillatory(w, tm, k, tol=tol, plan={}),
                           scale * want))

    ts(lambda x: x ** 3, 0.0, 1.0, 0.25, tol=1e-10)
    ts(np.cos, 0.0, 1.0, np.sin(1.0), tol=1e-10)
    ts(lambda x: np.exp(-x * x), -3.0, 3.0, np.sqrt(np.pi) * sp.erf(3.0),
       tol=1e-10)
    ts(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, np.pi / 4.0, tol=1e-10)
    ts(lambda x: np.log1p(x), 0.0, 1.0, 2.0 * np.log(2.0) - 1.0, tol=1e-10)
    ts(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0)
    ts(lambda x: np.log(x), 0.0, 1.0, -1.0)
    ts(lambda x: x ** (-0.25) * (1 - x) ** (-0.25), 0.0, 1.0,
       float(sp.beta(0.75, 0.75)))
    sd(lambda t: np.exp(-t), 1.0)
    sd(lambda t: np.exp(-t) * np.sqrt(t), float(sp.gamma(1.5)))
    sd(lambda t: np.exp(-2.0 * t) / np.sqrt(t), np.sqrt(np.pi / 2.0))
    sd(lambda t: 1.0 / (1.0 + t) ** 1.5, 2.0)
    sd(lambda t: t / (1.0 + t ** 3), 2.0 * np.pi / (3.0 * np.sqrt(3.0)))
    osc(_stieltjes(1.0), lambda c: _j_squared(0.0, coef=c),
        2.0 * sp.iv(0, 1.0) * sp.kv(0, 1.0))
    osc(_stieltjes(2.0), lambda c: _j_squared(1.0, coef=c),
        2.0 * sp.iv(1, np.sqrt(2.0)) * sp.kv(1, np.sqrt(2.0)))
    osc(_stieltjes(1.0), _cos_over_root, np.pi / (2.0 * np.e))
    osc(lambda t: np.exp(-t), lambda c: _j_squared(0.0, coef=c),
        np.exp(-0.5) * sp.iv(0, 0.5))
    osc(_stieltjes(1.0), lambda c: _j_squared(0.0, 2.0, coef=c),
        2.0 * sp.iv(0, 2.0) * sp.kv(0, 2.0))
    sd(lambda t: np.exp(-t) * np.cos(t), 0.5)
    ts(lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0,
       (0.3 ** 1.5 + 0.7 ** 1.5) / 1.5, tol=1e-9)
    sd(_cancelling, _CANCELLED)
    return cases


# e^{-t} - 2 (1 - d) e^{-2t} integrates to d = 1e-13 against a mass of
# about 1/2: below what double precision resolves on the exp-sinh nodes
_CANCELLED = 1e-13


def _cancelling(t):
    return np.exp(-t) - 2.0 * (1.0 - _CANCELLED) * np.exp(-2.0 * t)


def test_error_estimate_honesty():
    honest = total = 0
    for run, want in _battery():
        r = run()
        total += 1
        if abs(r.value - want) <= 10.0 * max(r.err_estimate, 1e-15):
            honest += 1
    assert honest / total >= 0.95, f"only {honest}/{total} honest"
    # the cancelling case is honest through its rounding floor, and says
    # why it has not converged
    r = integrate_singular_decay(_cancelling, tol=1e-11)
    assert not r.converged and r.info["reason"].startswith(UNRESOLVED)


# ----------------------------------------------------------------------
# deterministic counters: the level every engine call stops at
# ----------------------------------------------------------------------

# per catalog entry at its defaults, over z = logspace(-6, 6, 25): total
# n_evals and the number of converged right sides, every entry at the
# default quadrature tolerance 0.01 * 1e-7
RHS_COUNTERS = {
    "I_EXP": (19787, 25), "IK_PROD": (22706, 19), "IK_EQUAL": (19659, 25),
    "IK_EXP": (23346, 18), "KK_PROD": (25138, 18), "II_EXP": (25419, 25),
    "KK_RECIP": (10802, 25), "IK_QUOT": (23755, 25), "K_RECIP": (10162, 25),
    "K_RATIO": (8025, 25), "TRICOMI_RATIO": (11801, 25),
    "TRICOMI_Cm1": (11801, 25), "TRICOMI_Ap1": (11801, 25),
    "TRICOMI_Cp1": (11801, 25), "TRICOMI_Am1": (11801, 25),
    "MCDONALD": (12825, 25), "I_PRODUCT_ANGLE": (3225, 25),
}
# one pick_check of the default family: total n_evals, converged rows, rows
PICK_COUNTERS = {"kdist": (44599, 55, 55), "gammaquot": (54839, 55, 55)}


def test_engine_counters_are_pinned(monkeypatch):
    # any moved stopping level changes a count: the error model, the
    # plans and the row engine must leave every level where it was
    # (the one-z calls give the same rows: test_stieltjes pins that)
    zs = np.logspace(-6.0, 6.0, 25)
    got = {}
    for name in catalog_names():
        rs = make_identity(name).stieltjes_rhs(zs)
        got[name] = (rs.n_evals, sum(r.converged for r in rs))
    assert got == RHS_COUNTERS

    rec = make_identity("K_RATIO")
    rs = [rec.laplace_density(0.3), rec.laplace_density(3.0)]
    assert [(r.n_evals, r.converged) for r in rs] == [(257, True), (129, True)]
    # m(t) / t ~ t^-1.1 at mu = 0.9: no mass to integrate
    with pytest.raises(DomainError, match="diverges"):
        rec.kernel_mass()

    rows = []
    engine = distributions.integrate_pieces

    def recording(*args, **kwargs):
        out = engine(*args, **kwargs)
        rows.extend(out)
        return out

    monkeypatch.setattr(distributions, "integrate_pieces", recording)
    for kind, want in PICK_COUNTERS.items():
        rows.clear()
        pick_check(DIST_KINDS[kind](*DIST_DEFAULTS[kind]))
        assert (sum(r.n_evals for r in rows), sum(r.converged for r in rows),
                len(rows)) == want, kind


# ----------------------------------------------------------------------
# runs of levels: no result depends on what a plan saw before
# ----------------------------------------------------------------------

KERNEL_ENTRIES = [n for n in catalog_names()
                  if make_identity(n)._entry().kernel is not None]
LAPLACE_ENTRIES = [n for n in KERNEL_ENTRIES
                   if make_identity(n)._entry().laplace]
FAMILIES = [k for k in DIST_KINDS if k != "nchisq"]
PICK_POINTS = [(float(x), float(y)) for x in np.linspace(-5.0, 5.0, 4)
               for y in (0.25, 1.0, 5.0)]


def _cold_plans():
    tanhsinh.spec_plan.cache_clear()
    tanhsinh.HALF_LINE.clear()


def _assert_history_free(one, many, points):
    """one(p) at each point and many() on cold plans give, field for
    field, what they give after warm-up calls that stopped lower (the
    point with the fewest evaluations) and higher (the most), each
    repeated until the depth has settled, and after one another."""
    cold = []
    for p in points:
        _cold_plans()
        cold.append(one(p))
    _cold_plans()
    rows = many()
    evals = [r.n_evals for r in cold]
    assert min(evals) < max(evals)
    for warm in (points[evals.index(min(evals))],
                 points[evals.index(max(evals))]):
        for first_many in (True, False):
            _cold_plans()
            for _ in range(10):
                one(warm)
            if first_many:
                assert many() == rows, warm
            assert [one(p) for p in points] == cold, warm
            assert many() == rows, warm


@pytest.mark.parametrize("name", KERNEL_ENTRIES)
def test_stieltjes_rhs_is_history_free(name):
    zs = [float(z) for z in np.logspace(-6.0, 6.0, 13)]
    _assert_history_free(lambda z: make_identity(name).stieltjes_rhs(z),
                         lambda: make_identity(name).stieltjes_rhs(zs), zs)


@pytest.mark.parametrize("name", LAPLACE_ENTRIES)
def test_inner_laplace_is_history_free(name):
    # the inner Laplace density and the kernel mass share the record's
    # plan with the Stieltjes rows, whose depth they inherit
    params = {"mu": 1.5} if name == "K_RATIO" else {}
    ss = [0.03, 0.3, 3.0, 30.0]

    def rec():
        return make_identity(name, **params)

    _assert_history_free(
        lambda s: rec().laplace_density(s),
        lambda: [rec().kernel_mass(), rec().stieltjes_rhs(1.0)], ss)


@pytest.mark.parametrize("kind", FAMILIES)
def test_numeric_laplace_is_history_free(kind):
    # the shared half line, after any family's calls
    d = DIST_KINDS[kind](*DIST_DEFAULTS[kind])
    other = DIST_KINDS["gig"](*DIST_DEFAULTS["gig"])
    xs = [float(x) for x in np.logspace(-3.0, 3.0, 7)]

    def one(x):
        return numeric_laplace(lambda t: pdf(d, t), x, tol=1e-10)

    _assert_history_free(
        one, lambda: [numeric_laplace(lambda t: pdf(d, t), xs, tol=1e-10),
                      numeric_laplace(lambda t: pdf(other, t), 0.5)], xs)


@pytest.mark.parametrize("kind", ["kdist", "gammaquot"])
def test_pick_rows_are_history_free(kind, monkeypatch):
    # the quotient families' Pick rows: one exp-sinh row per point on
    # the spec's half line, recorded as the engine returns them
    d = DIST_KINDS[kind](*DIST_DEFAULTS[kind])
    engine, got = distributions.integrate_pieces, []

    def recording(*args, **kwargs):
        got.append(engine(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(distributions, "integrate_pieces", recording)

    def pick(points):
        re, im = (np.array(v) for v in zip(*points))
        distributions.mgf_logderiv_im(d, re, im)
        return got[-1]

    _assert_history_free(lambda p: pick([p])[0],
                         lambda: pick(PICK_POINTS), PICK_POINTS)


# ----------------------------------------------------------------------
# runs of levels: what a warm call costs
# ----------------------------------------------------------------------

def _levels_upto(level: int) -> int:
    """Nodes of one DE piece on the levels FIRST_LEVEL, ..., level."""
    return sum(tanhsinh.de_level("exp", 6.5, k)[0].size
               for k in range(tanhsinh.FIRST_LEVEL, level + 1))


def _stop_level(n_evals: int) -> int:
    """The level at which a one-piece row that counts n_evals stopped."""
    level = tanhsinh.FIRST_LEVEL
    while _levels_upto(level) < n_evals:
        level += 1
    assert _levels_upto(level) == n_evals
    return level


def _counting_weights(monkeypatch, module) -> tuple:
    """Record (points, rows) of every weight call of `module`'s engine,
    and every QuadRows it returns."""
    engine, calls, out = module.integrate_pieces, [], []

    def counting(pieces, weight, *args, **kwargs):
        def counted(t, rows):
            calls.append((t.size, len(rows)))
            return weight(t, rows)
        out.append(engine(pieces, counted, *args, **kwargs))
        return out[-1]

    monkeypatch.setattr(module, "integrate_pieces", counting)
    return calls, out


def test_warm_one_piece_call_makes_one_weight_call(monkeypatch):
    # TRICOMI_RATIO is one half-line piece: once the depth has reached
    # the level a z stops at, the call is one weight call on levels
    # FIRST_LEVEL..that level, and it counts exactly those points
    calls, _ = _counting_weights(monkeypatch, oscillatory)
    rec = make_identity("TRICOMI_RATIO")
    cold = rec.stieltjes_rhs(1.0)
    assert len(calls) > 2
    for _ in range(10):
        rec.stieltjes_rhs(1.0)
    calls.clear()
    assert rec.stieltjes_rhs(1.0) == cold
    assert calls == [(cold.n_evals, 1)]
    (piece,) = rec._plan["pieces"]
    assert _levels_upto(piece.depth) == cold.n_evals


def test_depth_follows_the_lowest_stop_up_by_one_level(monkeypatch):
    # deep one-row calls raise the depth by one level each, up to where
    # they stop; a 55-row call has no run, so it evaluates what it does
    # on a cold plan however deep the calls before it went, and leaves
    # the depth at its lowest row's stop at most, where the next
    # one-row call's run ends
    calls, out = _counting_weights(monkeypatch, distributions)
    d = DIST_KINDS["gammaquot"](*DIST_DEFAULTS["gammaquot"])
    grid = [(float(x), float(y)) for x in np.linspace(-5.0, 5.0, 11)
            for y in np.linspace(0.25, 5.0, 5)]
    re, im = (np.array(v) for v in zip(*grid))
    distributions.mgf_logderiv_im(d, re, im)
    cold = sorted(calls)
    stops = [_stop_level(r.n_evals) for r in out[-1]]
    low, high = min(stops), max(stops)
    assert low + 2 < high
    deep = np.array([grid[stops.index(high)]]).T
    for n in (1, 3, high - tanhsinh.FIRST_LEVEL + 2):
        _cold_plans()
        for _ in range(n):
            distributions.mgf_logderiv_im(d, *deep)
        piece = d._plan["half-line"]
        assert piece.depth == min(tanhsinh.FIRST_LEVEL + n, high)
        for _ in range(3):
            calls.clear()
            distributions.mgf_logderiv_im(d, re, im)
            assert sorted(calls) == cold
            assert piece.depth <= low
    depth = piece.depth
    calls.clear()
    distributions.mgf_logderiv_im(d, *deep)
    assert calls[0] == (_levels_upto(depth), 1)
    assert piece.depth == depth + 1


def test_unconsumed_non_finite_levels_do_not_raise():
    # e^{-t} converges before level 8; with the depth at 8, levels past
    # its stop are evaluated but not reached, and non-finite values in
    # their core change nothing; on a level it reaches they still raise
    first = tanhsinh.FIRST_LEVEL

    def poisoned(levels, core=True):
        # e^{-t}, but NaN on the half line's core nodes (|x| < 1) of
        # these levels, or on their tails (|x| > 0.75 x_max)
        bad = [np.empty(0)]
        for k in levels:
            x, h, t, jac = tanhsinh.de_level("exp", 6.5, k)
            bad.append(t[np.abs(x) < 1.0 if core else np.abs(x) > 4.875])
        bad = np.concatenate(bad)

        def weight(t, rows):
            return np.where(np.isin(t, bad), np.nan, np.exp(-t))
        return weight

    def run(weight, depth):
        piece = half_line_piece({})
        piece.level(8)
        piece.depth = depth
        return integrate_pieces([piece], weight, 1, tol=1e-10)[0]

    clean = run(poisoned([]), first)
    stop = _stop_level(clean.n_evals)
    assert first < stop < 8
    assert run(poisoned(range(stop + 1, 9)), 8) == clean
    for depth in (first, stop, 8):
        with pytest.raises(DomainError):
            run(poisoned([stop]), depth)

    # two pieces, the half line and [0, 1], both with runs to level 8
    # and only the half line poisoned: a call from depth 8 leaves each
    # piece's depth at its stop, and the weight calls show that a NaN
    # on the half line sends no level of [0, 1] past its run
    calls = []

    def two(weight, depth=8):
        pieces = [half_line_piece({}), tanhsinh.Piece(
            "unit", 4.0, functools.partial(tanhsinh.tanh_sinh_level,
                                           0.0, 1.0, 4.0))]
        for piece in pieces:
            piece.level(8)
            piece.depth = depth
        calls.clear()
        out = integrate_pieces(
            pieces, lambda t, rows: calls.append(t) or weight(t, rows), 1,
            tol=1e-10)[0]
        return out, [piece.depth for piece in pieces]

    clean, stops = two(poisoned([]))
    stop = stops[0]
    assert first < stop < 8 and first < stops[1] < 8
    assert [t.size for t in calls] == [_levels_upto(8)] * 2
    assert two(poisoned(range(stop + 1, 9))) == (clean, stops)
    assert len(calls) == 2
    # NaN tails on a level both pieces reach: that level alone of the
    # half line again, its tails zeroed (e^{-t} is below any bit of the
    # sum there), and [0, 1] still from its run
    both = min(stops)
    assert two(poisoned([both], core=False)) == (clean, stops)
    (again,) = calls[2:]
    assert np.array_equal(again, tanhsinh.de_level("exp", 6.5, both)[2])
    for depth in (first, stop, 8):
        with pytest.raises(DomainError):
            two(poisoned([stop]), depth)
