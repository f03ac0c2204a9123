"""Infinite-divisibility checks: ladders, sign tests, profiles, Landau."""

import json
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from besselid import checks, distributions, idtests, smoothfn
from besselid.distributions import (DIST_KINDS, GIG, GammaQuotient, GenMcKay,
                                    KDist, McKayI, McKayII, NoncentralChiSq,
                                    SqMcKay, hcm_profile,
                                    kdist_quotient_kernel)
from besselid.errors import (ConvergenceError, DomainError, ParameterError,
                             UnsupportedVariantError, points)
from besselid.idtests import (LT_KINDS, Chi, Evidence, IKMu, Omega1, Rho,
                              absmon_check, bernstein_check, bernstein_targets,
                              cm_check, hcm_check, landau_bound_margin,
                              landau_constant, lt_value, lt_value_complex,
                              neg_logderiv_ladder, noncentral_profile_check,
                              pick_check, pick_im, pick_targets,
                              profile_targets, selfdecomp_check,
                              selfdecomp_targets, zeta_witness_search)
from besselid.quad.tanhsinh import half_line_piece, integrate_pieces
from besselid.smoothfn import CauchyLadder, PowerLadder, RationalLadder

mp.mp.dps = 30


# ----------------------------------------------------------------------
# closed Laplace-transform values
# ----------------------------------------------------------------------

def test_ikmu_value_against_mpmath():
    spec = IKMu(1.0)
    want = float(2.0 * mp.besseli(1, 1) * mp.besselk(1, 1))
    assert float(lt_value(spec, 1.0)) == pytest.approx(want, rel=1e-13)


def test_rho_half_integer_closed_form():
    # I_{1/2}(r) = sqrt(2/(pi r)) sinh r collapses Rho to elementary form
    a = 1.3
    for x in (0.5, 2.0, 10.0):
        r = a * np.sqrt(x)
        want = (0.5 * r) ** 0.5 / (
            sp.gamma(1.5) * np.sqrt(2.0 / (np.pi * r)) * np.sinh(r))
        assert float(lt_value(Rho(0.5, a), x)) == pytest.approx(want,
                                                               rel=1e-13)


def test_lt_kinds_registry():
    assert LT_KINDS["rho"] is Rho
    with pytest.raises(ParameterError):
        Rho(-1.5, 1.0)
    with pytest.raises(ParameterError):
        Chi(0.2, 1.0, 1.0, 1.0)  # needs mu > 1/2


def test_lt_value_domain():
    # every Bernstein target: at x = inf eight of them gave NaN
    for bad in (0.0, np.nan, np.inf, -np.inf, [1.0, np.nan], [1.0, np.inf]):
        for label, spec in bernstein_targets():
            with pytest.raises(DomainError):
                lt_value(spec, bad)


@pytest.mark.parametrize("x", [np.array([1.0 + 1.0j]), 1.0 + 0.0j],
                         ids=["array", "python"])
def test_lt_value_rejects_complex_x(x):
    # a float conversion would read x = 1 + i as 1; the continuation is
    # lt_value_complex
    for spec in (Rho(0.8, 1.0), KDist(1.2, 2.0, 1.0)):
        with pytest.raises(DomainError, match="must be real"):
            lt_value(spec, x)
        with pytest.raises(DomainError, match="re must be real"):
            pick_im(spec, x, 1.0)
        with pytest.raises(DomainError, match="im must be real"):
            pick_im(spec, 0.0, x)


@pytest.mark.parametrize("spec", [IKMu(1.0), KDist(1.2, 2.0, 1.0),
                                  McKayI(1.0, 0.5, 1.5)],
                         ids=["ikmu", "kdist", "mckay1"])
def test_pick_im_rejects_nan_and_nonpositive_im(spec):
    # a DomainError naming the point's fault, not NaN or an engine error
    for re, im in ((0.0, 0.0), (0.0, np.nan), (np.nan, 1.0),
                   ([0.0, np.nan], 1.0), (0.0, [1.0, np.nan]),
                   (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.inf),
                   (0.0, -np.inf), (0.0, [1.0, np.inf])):
        with pytest.raises(DomainError, match="pick_im requires"):
            pick_im(spec, re, im)
        if isinstance(spec, McKayI):
            with pytest.raises(DomainError, match="mgf_logderiv_im requires"):
                distributions.mgf_logderiv_im(spec, re, im)


@pytest.mark.parametrize("spec", [KDist(1.2, 2.0, 1.0),
                                  GammaQuotient(1.2, 1.0, 0.8, 1.5)],
                         ids=("kdist", "gammaquot"))
def test_tricomi_lt_value_on_arrays_equals_per_point(spec):
    x = np.array([[0.1, 1.0], [7.5, 40.0]])
    want = np.array([[float(lt_value(spec, xi)) for xi in row] for row in x])
    got = lt_value(spec, x)
    assert got.shape == x.shape and np.array_equal(got, want)
    assert distributions.laplace_closed(spec, 0.0) == 1.0


def test_lt_value_checks_a_family_point_once(monkeypatch):
    # lt_value checks x once and hands it to the family's laplace, not
    # through laplace_closed, which would check it again
    spec = McKayII(0.7, 0.6, 1.2)
    want = distributions.laplace_closed(spec, 1.5)
    checked = []

    def counting(x, what, *args, **kwargs):
        checked.append(what)
        return points(x, what, *args, **kwargs)

    monkeypatch.setattr(idtests, "points", counting)
    monkeypatch.setattr(distributions, "points", counting)
    assert lt_value(spec, 1.5) == want and checked == ["lt_value"]


def test_all_transforms_are_normalized_at_zero():
    for label, spec in bernstein_targets():
        assert float(lt_value(spec, 1e-16)) == pytest.approx(
            1.0, abs=1e-6), label


def _at_defaults(*labels):
    return [idtests._default(label) for label in labels]


def test_complex_continuation_agrees_on_real_axis():
    for spec in _at_defaults(*LT_KINDS):
        for x in (0.4, 1.3, 6.0):
            zval = lt_value_complex(spec, complex(x, 0.0))
            assert complex(zval).imag == pytest.approx(0.0, abs=1e-12)
            assert complex(zval).real == pytest.approx(
                float(lt_value(spec, x)), rel=1e-10), spec


@pytest.mark.parametrize("z", [
    complex(np.nan, 1.0), complex(1.0, -np.inf), complex(-2.0, 0.0),
    complex(-2.0, -0.0), 0j, np.array([1.0 + 1.0j, complex(-2.0, 0.0)])],
    ids=["nan", "inf", "upper-rim", "lower-rim", "zero", "array"])
def test_continuation_rejects_z_on_the_cut_or_not_finite(z):
    # rho's continuation gave one value at both rims of the cut, and
    # NaN at a NaN part
    for spec in (Rho(0.8, 1.0), IKMu(1.0)):
        with pytest.raises(DomainError, match=r"lt_value_complex requires "
                           r"finite z off the cut"):
            lt_value_complex(spec, z)


@pytest.mark.parametrize("kind", DIST_KINDS)
def test_families_have_no_continuation(kind):
    spec = DIST_KINDS[kind](*DIST_KINDS[kind].defaults)
    with pytest.raises(UnsupportedVariantError, match="no continuation"):
        lt_value_complex(spec, 1.0 + 0.5j)


def _mp_unnormalized(label, p, x):
    """The variant's Laplace transform up to its constant, by mpmath,
    as its docstring writes it."""
    r, I, K = mp.sqrt(x), mp.besseli, mp.besselk
    if label == "rho":
        return (p.a * r) ** p.mu / I(p.mu, p.a * r)
    if label == "ikmu":
        return I(p.mu, r) * K(p.mu, r)
    a, b, mu, nu = p.a * r, p.b * r, p.mu, p.nu
    ratio = I(mu, a) * I(nu, b) / (I(mu, b) * I(nu, a))
    return {
        "omega1": lambda: ratio * b ** p.sigma / I(p.sigma, b),
        "omega2": lambda: ratio * mp.exp(-b),
        "chi": lambda: mp.exp(-a) * x ** ((nu - mu) / 2) * I(mu, a) * K(nu, b),
        "theta": lambda: x ** ((mu + nu) / 2) * K(mu, a) * K(nu, b),
        "zeta": lambda: mp.exp(-a - b) * x ** (-(mu + nu) / 2)
        * I(mu, a) * I(nu, b),
        "kappa": lambda: mp.exp(-a - b) / (x ** ((mu + nu) / 2)
                                           * K(mu, a) * K(nu, b)),
        "epsilon": lambda: mp.exp(-a - b) * x ** (-(mu + nu) / 2)
        * I(mu, a) / K(nu, b),
        "epsilon_recip": lambda: x ** ((mu + nu) / 2) * K(nu, b) / I(mu, a),
    }[label]()


@pytest.mark.parametrize("label", LT_KINDS)
def test_variant_row_against_mpmath(label):
    # L normalized at x = 1e-60, where every factor has reached its
    # x -> 0 limit to 30 digits; psi'/psi = -L'(-s)/L(-s)
    spec = idtests._default(label)
    c0 = 1 / _mp_unnormalized(label, spec, mp.mpf("1e-60"))

    def ref(x):
        return c0 * _mp_unnormalized(label, spec, x)

    # far out the scaled factors keep sqrt(x) eps out of L; a value
    # that underflows must underflow in both
    for x in np.geomspace(1e-3, 1e3, 10).tolist() + [1e6, 1e12, 1e16, 1e20]:
        want = float(ref(mp.mpf(x)))
        assert float(lt_value(spec, x)) == pytest.approx(
            want, rel=1e-13, abs=0.0), x
    for z in (0.3 + 0.2j, 2 + 1j, 7 - 3j, 40 + 25j):
        want = complex(ref(mp.mpc(z)))
        assert abs(complex(lt_value_complex(spec, z)) - want) \
            <= 1e-13 * abs(want), z
    for s in ((-3.0, 0.5), (-0.7, 0.25), (0.6, 1.0), (2.2, 2.5), (4.5, 5.0)):
        z = -mp.mpc(*s)
        want = complex(-mp.diff(ref, z) / ref(z))
        assert abs(pick_im(spec, *s) - want.imag) <= 1e-12 * abs(want), s


def test_far_continuation_is_finite():
    # unscaled I and K overflow past Re(a sqrt z) ~ 700; mpmath's
    # value, about 1e-336, rounds to zero like L
    spec = Rho(0.8, 1.0)
    z = 6e5 + 1j
    c0 = 1 / _mp_unnormalized("rho", spec, mp.mpf("1e-60"))
    want = complex(c0 * _mp_unnormalized("rho", spec, mp.mpc(z)))
    got = complex(lt_value_complex(spec, z))
    assert np.isfinite(got) and got == want == 0.0


def test_complex_continuation_schwarz_symmetry():
    spec = IKMu(1.3)
    z = complex(0.8, 0.6)
    assert complex(lt_value_complex(spec, np.conj(z))) == pytest.approx(
        np.conj(complex(lt_value_complex(spec, z))), rel=1e-12)


# ----------------------------------------------------------------------
# derivative ladders of -(ln L)'
# ----------------------------------------------------------------------

# every variant and every family with a ladder, at its defaults
@pytest.mark.parametrize("spec", _at_defaults(
    "rho", "ikmu", "theta", "zeta", "kdist", "gammaquot", "omega1", "omega2",
    "chi", "kappa", "epsilon", "epsilon_recip", "mckay1", "mckay2",
    "genmckay", "sqmckay", "gig"))
def test_neg_logderiv_matches_richardson(spec):
    for x in (0.05, 0.3, 2.0, 50.0):
        h = 1e-4 * x
        ln = [float(np.log(lt_value(spec, x + k * h)))
              for k in (-2, -1, 1, 2)]
        num = -(-ln[3] + 8 * ln[2] - 8 * ln[1] + ln[0]) / (12 * h)
        assert neg_logderiv_ladder(spec).derivatives(x, 0)[0] \
            == pytest.approx(num, rel=1e-7)


# ----------------------------------------------------------------------
# sign-pattern checks
# ----------------------------------------------------------------------

def test_evidence_graded_pass_rule():
    assert Evidence.graded(-0.0) == Evidence("pass", -0.0)
    assert Evidence.graded(0.5, (1.0, 2)).passed
    assert Evidence.graded(-1e-300).verdict == "fail"
    # a margin that could not be computed never passes
    assert Evidence.graded(np.nan).verdict == "fail"
    assert Evidence.graded(np.nan, slack=1.0).verdict == "fail"
    # an unconverged margin is inconclusive, whatever its sign
    for margin in (1.0, -1.0):
        ev = Evidence.graded(margin, "why", converged=False, label="x")
        assert ev == Evidence("inconclusive", margin, "why", "x")
        assert not ev.passed
    assert Evidence.graded(-1e-9, slack=1e-9).passed
    assert not Evidence.graded(-2e-9, slack=1e-9).passed
    assert not Evidence("expected-fail", 1.0).passed


def test_cm_check_passes_on_stieltjes_kernel():
    rep = cm_check(RationalLadder(((1.0, 1.0),)), max_order=10)
    assert rep.passed and rep.margin >= -1e-12
    assert rep.witness is None


def test_cm_check_fails_with_witness():
    # x^2 increases: -f' is most negative, on the scale of its order, at
    # the end of the grid
    rep = cm_check(PowerLadder(1.0, 2.0), max_order=2)
    assert not rep.passed and rep.margin == -1.0
    assert rep.witness == (idtests._DEFAULT_GRID[-1], 1)


class _Table(smoothfn.Ladder):
    """A ladder whose derivative table on the grid is given."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def _derivatives(self, x, max_order):
        return self.table.copy()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index,value,where", [
    # one NaN entry; an inf column, named at its first point; -inf
    ((1, 2), np.nan, (1, 2)), ((slice(None), 1), np.inf, (0, 1)),
    ((2, 0), -np.inf, (2, 0))], ids=("nan", "inf-column", "-inf"))
def test_cm_check_on_a_non_finite_table_is_inconclusive(index, value, where):
    grid = (0.5, 1.0, 2.0)
    table = RationalLadder(((1.0, 1.0),)).derivatives(np.array(grid), 3)
    table[index] = value
    i, n = where
    want = (f"derivative of order {n} is {float(table[i, n])!r} at "
            f"x = {grid[i]!r}")
    # it returned fail with margin NaN, no witness, and warned in the
    # division
    with pytest.raises(ConvergenceError) as exc:
        cm_check(_Table(table), grid, 3)
    assert str(exc.value) == want
    row = checks.Check("t", "", "", partial(cm_check, _Table(table), grid,
                                            3)).report()
    assert (row["verdict"], row["margin"], row["witness"]) \
        == ("inconclusive", None, want)
    json.dumps(row, allow_nan=False)


def test_cm_check_rejects_bad_signs():
    with pytest.raises(ParameterError):
        cm_check(RationalLadder(((1.0, 1.0),)), signs="weird")


def test_bernstein_check_sample_targets():
    for label, spec in (("rho", Rho(0.8, 1.0)),
                        ("ikmu", IKMu(1.0))):
        rep = bernstein_check(spec, max_order=8, label=label)
        assert rep.passed, (label, rep.margin, rep.witness)


@pytest.mark.parametrize("kind,args", [
    ("gig", (-1.2, 2.0, 0.5)),          # mu < 0: K-ratio at order |mu|
    # on the Cauchy circles the phase of L passes pi for both, and at
    # x = 0.05 that of F(q) for the second; phi' itself has no branch
    ("sqmckay", (2.5, 0.5, 1.6)),
    ("sqmckay", (2.975, 0.895, 1.836)),
])
def test_bernstein_check_passes_proven_laws_off_defaults(kind, args):
    rep = bernstein_check(DIST_KINDS[kind](*args), label=kind)
    assert rep.passed, (rep.margin, rep.witness)


def _near_edge_gauss_mckay(n=200, seed=7):
    """n GenMcKay and then n SqMcKay draws with mu up to 3 and the
    singularity of L close to 0: b - k a in (0.01, 0.3) a."""
    rng = np.random.default_rng(seed)
    gen, sq = [], []
    for _ in range(n):
        mu = rng.uniform(-0.9, 3.0)
        nu = rng.uniform(0.1, 4.0) - mu
        a = rng.uniform(0.2, 2.0)
        gen.append(GenMcKay(mu, nu, a, a * (1.0 + rng.uniform(0.01, 0.3))))
    for _ in range(n):
        mu = rng.uniform(-0.2, 3.0)
        a = rng.uniform(0.2, 2.0)
        sq.append(SqMcKay(mu, a, a * (2.0 + rng.uniform(0.01, 0.3))))
    return gen, sq


def test_bernstein_check_passes_gauss_mckay_near_the_edge():
    for fam in _near_edge_gauss_mckay():
        bad = [(d, r.margin, r.witness) for d in fam
               for r in [bernstein_check(d)] if not r.passed]
        assert not bad, bad


def _mp_gauss_mckay_phi(d, x, max_order):
    """phi'(x) and its derivatives to max_order from mpmath's
    derivatives of -ln L, L from the family's row."""
    e, (A, B, C), k = d.row
    a, b = mp.mpf(d.a), mp.mpf(d.b)

    def neg_log_lt(t):
        return e * mp.log((t + b) / b) - mp.log(
            mp.hyp2f1(A, B, C, (k * a / (t + b)) ** 2))

    return [float(v) for v in
            list(mp.diffs(neg_log_lt, mp.mpf(x), max_order + 1))[1:]]


@pytest.mark.parametrize("d", [
    *(d for fam in _near_edge_gauss_mckay() for d in fam[::20]),
    SqMcKay(2.975, 0.895, 1.836)], ids=repr)
def test_gauss_mckay_ladder_against_mpmath(d):
    # orders 0-3, each scaled by its largest value over x
    x = np.array([0.05, 0.3, 2.0, 50.0])
    got = d.phi_ladder().derivatives(x, 3)
    want = np.array([_mp_gauss_mckay_phi(d, xi, 3) for xi in x.tolist()])
    err = np.abs(got - want) / np.abs(want).max(axis=0)
    assert err.max() <= 1e-13, err


def test_selfdecomp_check_sample():
    _, spec = selfdecomp_targets()[0]
    rep = selfdecomp_check(spec, 0.5)
    assert rep.passed, (rep.margin, rep.witness)
    with pytest.raises(ParameterError):
        selfdecomp_check(spec, 1.0)


class _Noisy(smoothfn.Ladder):
    """The ladder lad with its derivative table multiplied by
    1 + 2^-52 u: rounding noise of one unit in the last place."""

    def __init__(self, lad, u=None):
        self.lad, self.u = lad, u

    def _derivatives(self, x, max_order):
        out = self.lad.derivatives(x, max_order)
        return out if self.u is None else out * (1.0 + 2.0 ** -52 * self.u)


def _noisy_selfdecomp_margin(spec, alpha, u=None):
    """selfdecomp_check's margin on a noisy phi' table."""
    lad = _Noisy(idtests.neg_logderiv_ladder(spec), u)
    return cm_check(idtests._AlphaDifference(lad, alpha),
                    idtests._DEFAULT_GRID, 8).margin


@pytest.mark.parametrize("label,spec", [
    pytest.param(label, spec, id=label)
    for label, spec in selfdecomp_targets()])
def test_selfdecomp_margin_is_stable_under_one_ulp_noise(label, spec):
    margin = _noisy_selfdecomp_margin(spec, 0.5)
    assert margin == selfdecomp_check(spec, 0.5).margin
    rng = np.random.default_rng(2024)
    # one phi' table on the grid and on alpha times the grid
    table_shape = (2 * len(idtests._DEFAULT_GRID), 9)
    moves = [abs(_noisy_selfdecomp_margin(
        spec, 0.5, rng.choice((-1.0, 1.0), table_shape)) / margin - 1.0)
        for _ in range(5)]
    assert max(moves) <= 1e-12, moves


class _SqrtTransform:
    """L(x) = sqrt(x): L(0+) = 0, so the normalization gate of both
    checks must fail before any ladder is built."""

    def laplace(self, x):
        return np.sqrt(x)


def test_bernstein_check_fails_unnormalized_transform_on_array_grid():
    grid = np.array([0.5, 1.0, 2.0])
    rep = bernstein_check(_SqrtTransform(), grid=grid, label="sqrt")
    assert rep == Evidence("fail", rep.margin, (1e-16, -1), "sqrt")
    assert rep.margin == pytest.approx(-1.0, abs=1e-7)


def test_selfdecomp_check_fails_unnormalized_quotient():
    rep = selfdecomp_check(_SqrtTransform(), 0.25)
    assert not rep.passed and rep.witness == (1e-16, -1)
    assert rep.margin == pytest.approx(-1.0)
    with_array = selfdecomp_check(_SqrtTransform(), 0.25,
                                  grid=np.array([1.0, 2.0]))
    assert not with_array.passed


def test_selfdecomp_check_default_grid():
    # the Bernstein check's grid (0.05 to 50) and order 8
    spec = selfdecomp_targets()[0][1]
    grid = idtests._DEFAULT_GRID
    assert grid[0] == pytest.approx(0.05) and grid[-1] == pytest.approx(50.0)
    assert len(grid) == 9
    rep = selfdecomp_check(spec, 0.25)
    assert rep == selfdecomp_check(spec, 0.25, grid=np.array(grid),
                                   max_order=8)
    assert rep.margin != selfdecomp_check(
        spec, 0.25, grid=np.geomspace(0.1, 10.0, 7)).margin
    assert rep.margin != selfdecomp_check(spec, 0.25, max_order=6).margin


@dataclass(frozen=True)
class _CompoundPoisson:
    """phi' = (1 + x)^-2, L = exp(-x/(1 + x)): the compound Poisson law
    with Levy measure e^{-t} dt, so k(t) = t e^{-t} rises on (0, 1):
    infinitely divisible, not self-decomposable."""

    def laplace(self, x):
        return np.exp(-x / (1.0 + x))

    def phi_ladder(self):
        return PowerLadder(1.0, -2.0, 1.0)


class _ExpLadder(smoothfn.Ladder):
    """e^{-x} and its derivatives (-1)^n e^{-x}."""

    def _derivatives(self, x, max_order):
        return np.exp(-x)[:, None] * (-1.0) ** np.arange(max_order + 1)


@dataclass(frozen=True)
class _Poisson:
    """phi' = e^{-x}, L = exp(-(1 - e^{-x})): the Poisson law, whose Levy
    measure is a point mass at 1, so it is not self-decomposable."""

    def laplace(self, x):
        return np.exp(np.expm1(-x))

    def phi_ladder(self):
        return _ExpLadder()


@pytest.mark.parametrize("spec", [_CompoundPoisson(), _Poisson()],
                         ids=["compound-poisson", "poisson"])
def test_selfdecomp_check_fails_laws_that_are_not_self_decomposable(spec):
    assert bernstein_check(spec).passed
    rep = selfdecomp_check(spec, 0.5)
    assert rep.verdict == "fail" and rep.margin < -1e-4, rep
    x, order = rep.witness
    assert x in idtests._DEFAULT_GRID and order >= 0


def _mp_ikmu_phi(mu, x):
    """phi'(x) = -(ln I_mu(sqrt x) K_mu(sqrt x))' in mpmath."""
    return -mp.diff(lambda t: mp.log(mp.besseli(mu, mp.sqrt(t))
                                     * mp.besselk(mu, mp.sqrt(t))), x)


def test_selfdecomp_check_fails_ikmu_below_half_as_mpmath_does():
    # phi'(x) - alpha phi'(alpha x) ~ (mu^2 - 1/4)(1/alpha - 1)/(2 x^2) as
    # x -> oo, negative for 0 < mu < 1/2
    spec, alpha = IKMu(0.45), 0.5
    rep = selfdecomp_check(spec, alpha)
    assert rep.verdict == "fail"
    assert rep.witness == (pytest.approx(50.0), 0)
    with mp.workdps(40):
        want = float(_mp_ikmu_phi(0.45, mp.mpf(50))
                     - _mp_ikmu_phi(0.45, mp.mpf(25)) / 2)
    got = float(idtests._AlphaDifference(
        idtests.neg_logderiv_ladder(spec), alpha).derivatives(50.0, 0)[0])
    assert want < 0.0 and got == pytest.approx(want, rel=1e-9)
    assert want == pytest.approx(-7.9e-6, rel=0.01)


@pytest.mark.xfail(strict=True, reason=(
    "the normalization gate reads L(1e-16), and 1 - L(x) of IKMu decays "
    "like x^mu: at mu = 0.3 it is 1.5e-5 there, above the gate's 1e-6, "
    "so the gate fails a law with L(0+) = 1"))
def test_selfdecomp_check_ikmu_small_order_passes_the_gate():
    assert selfdecomp_check(IKMu(0.3), 0.5).witness != (1e-16, -1)


@pytest.mark.parametrize("spec,alphas", [
    (Rho(2.5188420447022084, 0.5004658649442166), (0.25, 0.5, 0.75)),
    (Rho(1.3435788122186494, 0.530719089843204), (0.5, 0.75))], ids=repr)
def test_selfdecomp_check_passes_rho_draws(spec, alphas):
    # phi' of Rho is a positive Stieltjes sum, so the law is
    # self-decomposable
    for alpha in alphas:
        rep = selfdecomp_check(spec, alpha)
        assert rep.passed, (alpha, rep)


# ----------------------------------------------------------------------
# Pick-function grid
# ----------------------------------------------------------------------

def test_pick_im_closed_value():
    spec = DIST_KINDS["mckay1"](1.0, 1.0, 2.0)
    assert pick_im(spec, 0.0, 1.0) == pytest.approx(0.9, rel=1e-10)


def test_pick_check_positive_target():
    rep = pick_check(Rho(1.0, 1.0))
    assert rep.passed and rep.margin >= -1e-12


def test_zeta_witness_is_negative():
    point, value = zeta_witness_search()
    assert value < -1e-3
    re, im = point
    assert im > 0.0


def _pick_per_point(spec, re, im):
    """Im[psi'/psi] at one point, each formula written out; McKayI's in
    numpy on one-point arrays, as pick_im evaluates a scalar point."""
    if isinstance(spec, McKayI):
        mu, a, b = spec.mu, spec.a, spec.b
        x, y = np.array([re]), np.array([im])
        return ((mu + 0.5) * (y / ((x + a - b) ** 2 + y * y)
                              + y / ((x - a - b) ** 2 + y * y)))[0]
    if isinstance(spec, distributions._QuotientMixture):
        # one exp-sinh row with its own plan: factor omega * Jacobian,
        # weight coef im / ((node - re)^2 + im^2)
        coef, al, be, node = spec._mixture()

        def weight(t, rows):
            return coef * im / ((node(t) - re) ** 2 + im * im)

        piece = half_line_piece(
            {}, lambda t: kdist_quotient_kernel(al, be, t))
        return integrate_pieces([piece], weight, 1, tol=1e-11)[0].value
    return spec.pick_im(re, im)


@pytest.mark.parametrize("label,spec", pick_targets() + [
    ("gammaquot-integer-gap", GammaQuotient(1.2, 1.0, 2.0, 1.5))])
def test_pick_grid_equals_per_point(label, spec):
    rng = np.random.default_rng(31)
    grid = tuple((float(x), float(y)) for x in rng.uniform(-5.0, 5.0, 11)
                 for y in np.geomspace(0.25, 5.0, 5) * rng.uniform(0.8, 1.2))
    want = [_pick_per_point(spec, x, y) for x, y in grid]
    re, im = np.array(grid).T
    assert np.array_equal(pick_im(spec, re, im), want), label
    assert pick_im(spec, *grid[3]) == want[3]
    # the report as the per-point loop built it
    best = (np.inf, None)
    for p, v in zip(grid, want):
        if v < best[0]:
            best = (v, p)
    rep = pick_check(spec, grid=grid, label=label)
    assert rep.margin == best[0] and rep.passed
    assert rep == pick_check(spec, grid=grid, label=label)


def test_mckay_pick_grid_equals_one_point_arrays():
    # an array square differs from the Python-float x ** 2 on about one
    # argument in a thousand; a dense grid shows that the array call
    # takes numpy's path at every point, as a one-point array does
    spec = McKayI(0.7, 0.3, 1.9)
    rng = np.random.default_rng(3)
    re, im = rng.uniform(-12.0, 12.0, 5000), rng.uniform(0.01, 5.0, 5000)
    want = [_pick_per_point(spec, float(x), float(y)) for x, y in zip(re, im)]
    assert np.array_equal(pick_im(spec, re, im), want)


class _TableSpec:
    """Pick values read from a table, one per grid point in order."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def pick_im(self, re, im):
        return self.values[:np.size(re)]


def test_pick_check_witness_is_first_strict_minimum_never_nan():
    grid = tuple((float(k), 1.0) for k in range(6))
    rep = pick_check(_TableSpec([0.5, np.inf, -2.0, 3.0, -2.0, np.inf]),
                     grid=grid)
    assert rep.margin == -2.0 and rep.witness == (2.0, 1.0)
    assert not rep.passed
    rep = pick_check(_TableSpec([np.inf, -np.inf, -np.inf]), grid=grid[:3])
    assert rep.margin == -np.inf and rep.witness == (1.0, 1.0)
    rep = pick_check(_TableSpec([np.inf, np.inf]), grid=grid[:2])
    assert rep.margin == np.inf and rep.passed and rep.witness is None
    # a NaN is never passed over: the grid is inconclusive at its point
    with pytest.raises(ConvergenceError, match=r"NaN at s = 3\.0 \+ 1\.0i"):
        pick_check(_TableSpec([0.5, -2.0, 3.0, np.nan, -2.0, np.nan]),
                   grid=grid)


def test_pick_check_far_on_the_cut_passes_at_the_mpmath_value():
    # I_mu(w) overflows at s = -6e5 + i; the ratio of the scaled
    # I_mu+1 / I_mu does not
    with mp.workdps(40):
        w = mp.sqrt(mp.mpf(6e5) - 1j)
        want = float(mp.im(mp.besseli(1.8, w) / (2 * w * mp.besseli(0.8, w))))
    rep = pick_check(Rho(0.8, 1.0), grid=[(-6e5, 1.0)])
    assert rep.passed and rep.margin == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("label", LT_KINDS)
def test_pick_im_finite_far_on_the_cut(label):
    spec = LT_KINDS[label](*LT_KINDS[label].defaults)
    v = pick_im(spec, np.array([-6e5, -1e3, 1e5]), 1.0)
    assert np.all(np.isfinite(v) & (v > 0.0)), v


def test_pick_check_runs_the_row_engine_once(monkeypatch):
    calls = []
    rows = distributions.integrate_pieces

    def counting(pieces, weight, n_rows, *args, **kwargs):
        calls.append(n_rows)
        return rows(pieces, weight, n_rows, *args, **kwargs)

    monkeypatch.setattr(distributions, "integrate_pieces", counting)
    assert pick_check(DIST_KINDS["kdist"](1.2, 2.0, 1.0)).passed
    assert calls == [55]


# ----------------------------------------------------------------------
# hyperbolic profiles
# ----------------------------------------------------------------------

def test_hcm_check_gamma_quotient_exact_ladder():
    d = DIST_KINDS["gammaquot"](1.2, 1.0, 0.8, 1.5)
    rep = hcm_check(d, 1.0, max_order=8)
    assert rep.passed, rep.margin


def test_hcm_check_kdist_cauchy_ladder():
    d = DIST_KINDS["kdist"](1.2, 2.0, 1.0)
    rep = hcm_check(d, 1.0, max_order=8)
    assert rep.passed, rep.margin


def _density(d):
    """The density of d through its complex log-density, as hcm_check
    and noncentral_profile_check evaluate it."""
    return lambda x: np.exp(d.log_pdf(x))


def _mp_profile_diffs(g, u, w, n):
    """Derivatives 0..n in w of g(uv) g(u/v), v + 1/v = w, by mpmath at
    30 digits."""
    with mp.workdps(30):
        def f(w):
            v = (w + mp.sqrt(w * w - 4)) / 2
            return g(u * v) * g(u / v)
        return [float(t) for t in mp.diffs(f, mp.mpf(w), n)]


def _mp_kdist_pdf(al, be, mu):
    r = mp.mpf(al) * be / mu
    return lambda x: (2 / (mp.gamma(al) * mp.gamma(be))
                      * r ** ((al + be) / 2) * x ** ((al + be) / 2 - 1)
                      * mp.besselk(al - be, 2 * mp.sqrt(r * x)))


def _mp_gig_pdf(mu, a, b):
    return lambda x: ((mp.mpf(a) / b) ** (mp.mpf(mu) / 2)
                      / (2 * mp.besselk(mu, mp.sqrt(mp.mpf(a) * b)))
                      * x ** (mu - 1) * mp.exp(-(a * x + b / x) / 2))


def _mp_nchisq_pdf(mu, lam):
    return lambda x: (mp.exp(-(x + lam) / 2) / 2
                      * (x / lam) ** (mp.mpf(mu) / 4 - mp.mpf(1) / 2)
                      * mp.besseli(mp.mpf(mu) / 2 - 1, mp.sqrt(lam * x)))


@pytest.mark.parametrize("g,mp_g,u,n", [
    (_density(KDist(1.2, 2.0, 1.0)), _mp_kdist_pdf(1.2, 2.0, 1.0), 1.0, 8),
    (_density(GIG(0.7, 1.0, 1.5)), _mp_gig_pdf(0.7, 1.0, 1.5), 1.0, 8),
    (_density(NoncentralChiSq(3.0, 1.2)), _mp_nchisq_pdf(3.0, 1.2), 2.0, 2),
] + [(partial(sp.iv, mu), partial(mp.besseli, mu), u, 6)
     for mu, u in checks.ABSMON_CASES],
    ids=["kdist", "gig", "nchisq"]
    + [f"absmon:{mu:g}-{u:g}" for mu, u in checks.ABSMON_CASES])
def test_profile_ladder_matches_mpmath(g, mp_g, u, n):
    # each order scaled by its largest value over the three w
    w = idtests._DEFAULT_W_GRID[::3]
    want = np.array([_mp_profile_diffs(mp_g, u, wi, n) for wi in w])
    got = idtests._profile_ladder(g, u).derivatives(np.array(w), n)
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) \
        <= 1e-10


def test_hcm_check_finds_high_order_violation():
    # the profile of this noncentral chi-square is not completely
    # monotone; its worst sign, on the scale of each order, is at order 5
    rep = hcm_check(NoncentralChiSq(1.0, 0.4), 1.0, max_order=8)
    assert not rep.passed and rep.witness == (2.2, 5)


def test_bernstein_check_builds_each_leaf_ladder_once(monkeypatch):
    calls = []
    vec = smoothfn._rational_ladder_vec

    def counting(coefs, roots, x, max_order):
        calls.append(np.shape(x))
        return vec(coefs, roots, x, max_order)

    monkeypatch.setattr(smoothfn, "_rational_ladder_vec", counting)
    assert bernstein_check(Omega1(0.5, 1.2, 0.3, 0.7, 1.5)).passed
    # the five Mittag-Leffler leaves share one head on the nine points,
    # so their head sums are one call over the 45 stacked rows
    assert calls == [(45,)]


@pytest.mark.parametrize("spec,changed", [
    (Rho(0.8, 1.0), Rho(0.8, 1.1)),
    (DIST_KINDS["kdist"](1.2, 2.0, 1.0), DIST_KINDS["kdist"](1.2, 2.5, 1.0)),
    (GenMcKay(0.8, 1.2, 0.5, 1.4), GenMcKay(0.8, 1.2, 0.5, 1.5))], ids=repr)
def test_bernstein_check_builds_a_ladder_once_per_parameter_set(
        spec, changed, monkeypatch):
    built = []
    phi_ladder = type(spec).phi_ladder

    def counting(s):
        built.append(s)
        return phi_ladder(s)

    monkeypatch.setattr(type(spec), "phi_ladder", counting)
    first = bernstein_check(spec)
    # an equal spec, not the same object, takes the memoised ladder
    again = bernstein_check(replace(spec))
    assert first.passed and again == first and len(built) == 1
    assert bernstein_check(changed).passed and built == [spec, changed]


@pytest.mark.parametrize("check", [bernstein_check,
                                   partial(selfdecomp_check, alpha=0.5)],
                         ids=("bernstein", "selfdecomp"))
def test_normalization_gate_evaluates_l_once_per_parameter_set(
        check, monkeypatch):
    calls = []

    def counting(spec, x):
        calls.append(spec)
        return lt_value(spec, x)

    monkeypatch.setattr(idtests, "lt_value", counting)
    spec, changed = Rho(0.8, 1.0), Rho(0.8, 1.1)
    first = check(spec)
    # an equal spec, not the same object, takes L(0+) from the plan
    again = check(replace(spec))
    assert first.passed and again == first and calls == [spec]
    assert check(changed).passed and calls == [spec, changed]


def test_every_shipped_cauchy_function_is_real_on_the_axis(monkeypatch):
    # CauchyLadder reads the lower half circle as the conjugate of the
    # upper one; every function the checks hand it is real at theta = 0
    # and pi to far below its 1e-12 guard
    seen = []
    derivatives = CauchyLadder._derivatives

    def recording(self, x, max_order):
        r = self.radius_factor * (x + self.radius_shift)
        vals = self.fn(x[:, None] + r[:, None] * np.exp([0.0, 1j * np.pi]))
        seen.append(float(np.max(np.abs(vals.imag) / np.abs(vals))))
        return derivatives(self, x, max_order)

    monkeypatch.setattr(CauchyLadder, "_derivatives", recording)
    for label in ("genmckay", "sqmckay"):
        assert bernstein_check(dict(bernstein_targets())[label]).passed
    for kind in ("gammaquot", "kdist", "gig", "mckay1"):
        hcm_check(DIST_KINDS[kind](*distributions.DIST_DEFAULTS[kind]), 1.0)
    for mu, lam, u in profile_targets():
        assert noncentral_profile_check(mu, lam, u).passed
    for mu, u in checks.ABSMON_CASES:
        assert absmon_check(mu, u).passed
    assert len(seen) == 2 + 3 + 3 + 3
    assert max(seen) <= 1e-14, max(seen)


def test_selfdecomp_check_makes_one_ladder_call(monkeypatch):
    # phi' on the grid and on alpha times the grid, in one call, and no
    # continuation of L
    calls = []
    spec = DIST_KINDS["kdist"](1.2, 2.0, 1.0)
    lad = idtests.neg_logderiv_ladder(spec)

    class Recording(smoothfn.Ladder):
        def _derivatives(self, x, max_order):
            calls.append(x.copy())
            return lad.derivatives(x, max_order)

    def refused(*args):
        raise AssertionError("continuation evaluated")

    monkeypatch.setattr(idtests, "neg_logderiv_ladder", lambda s: Recording())
    monkeypatch.setattr(idtests, "lt_value_complex", refused)
    monkeypatch.setattr(KDist, "lt_value_complex", refused)
    monkeypatch.setattr(CauchyLadder, "_derivatives", refused)
    assert selfdecomp_check(spec, 0.5).passed
    grid = np.array(idtests._DEFAULT_GRID)
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.concatenate([grid, 0.5 * grid]))


def test_hcm_check_evaluates_the_profile_once(monkeypatch):
    calls = []
    profile = distributions._hyperbolic_profile

    def counting(g, u, w):
        calls.append(np.shape(w))
        return profile(g, u, w)

    monkeypatch.setattr(idtests, "_hyperbolic_profile", counting)
    assert hcm_check(DIST_KINDS["kdist"](1.2, 2.0, 1.0), 1.0).passed
    # 8 points, 33 on each upper half circle
    assert calls == [(8, 33)]


def _profile_per_point(mu, lam, u, w_grid):
    """noncentral_profile_check's rule, cm_check at orders 0 to 2, on
    the value and a three-point stencil of the profile at each point."""
    d = DIST_KINDS["nchisq"](mu, lam)
    table = []
    for w in w_grid:
        h = min(0.02 * w, 0.25 * (w - 2.0))
        f0, fp, fm = (float(hcm_profile(d, u, v)) for v in (w, w + h, w - h))
        table.append((f0, (fp - fm) / (2.0 * h),
                      (fp - 2.0 * f0 + fm) / (h * h)))
    table = np.array(table)
    margins = table * (1.0, -1.0, 1.0) / np.max(np.abs(table), axis=0)
    worst = float(margins.min())
    i, n = np.unravel_index(np.argmin(margins), margins.shape)
    witness = (float(w_grid[i]), int(n)) if worst < -1e-9 else None
    return Evidence.graded(worst, witness, slack=1e-9)


@pytest.mark.parametrize("mu,lam,u", profile_targets() + [
    (1.0, 3.0, 1.0), (0.5, 1.9, 0.3), (2.0, 9.5, 1.5), (0.5, 10.0, 1.0)])
def test_noncentral_profile_grid_equals_per_point(mu, lam, u, monkeypatch):
    # a denser and wider grid than the default that the check reads
    w_grid = tuple(2.0 + np.geomspace(0.01, 30.0, 12))
    monkeypatch.setattr(idtests, "_DEFAULT_W_GRID", w_grid)
    want = _profile_per_point(mu, lam, u, w_grid)
    if lam > 2.0 * mu + 1.0:
        # no convexity claimed, and the stencil shows the profile
        # failing there anyway
        assert not want.passed
        with pytest.raises(ParameterError):
            noncentral_profile_check(mu, lam, u)
        return
    got = noncentral_profile_check(mu, lam, u)
    assert (got.verdict, got.witness) == (want.verdict, want.witness)
    assert got.margin == pytest.approx(want.margin, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("mu,lam,u", profile_targets())
def test_noncentral_profile_targets(mu, lam, u):
    rep = noncentral_profile_check(mu, lam, u)
    assert rep.passed and 0.0 < rep.margin < 1.0


def test_noncentral_profile_outside_claimed_region():
    # lam beyond 2 mu + 1: convexity is not claimed, nothing to verify
    with pytest.raises(ParameterError):
        noncentral_profile_check(0.5, 10.0, 1.0)
    with pytest.raises(ParameterError):
        noncentral_profile_check(1.0, np.nextafter(3.0, 4.0), 1.0)


@pytest.mark.parametrize("mu,u", [(0.0, 1.0), (0.7, 0.5), (2.0, 1.5)])
def test_absmon_i_product(mu, u):
    rep = absmon_check(mu, u, max_order=6)
    assert rep.passed, (mu, u, rep.margin)


def _absmon_per_point(mu, u, w_grid, max_order, iv=sp.iv):
    """absmon_check with one circle of radius w/2 per point, each order
    scaled by its largest |value| over the grid, and the worst (w,
    order) pair as witness."""
    def f(w):
        v = 0.5 * (w + np.sqrt(w * w - 4.0))
        return iv(mu, u * v) * iv(mu, u / v)

    table = np.array([smoothfn.CauchyLadder(f).derivatives(
        np.array([w0]), max_order)[0] for w0 in w_grid])
    margins = table / np.max(np.abs(table), axis=0)
    worst = float(margins.min())
    i, n = np.unravel_index(np.argmin(margins), margins.shape)
    witness = (w_grid[i], int(n)) if worst < -1e-9 else None
    return Evidence.graded(worst, witness, slack=1e-9)


def _absmon_grid(seed):
    rng = np.random.default_rng(seed)
    return tuple(2.0 + np.exp(np.sort(rng.uniform(np.log(0.2),
                                                  np.log(18.0), 8))))


def test_absmon_check_equals_per_point_loop():
    for mu, u in checks.ABSMON_CASES:
        for seed in range(5):
            w = _absmon_grid(seed)
            assert absmon_check(mu, u, w_grid=w, max_order=6) \
                == _absmon_per_point(mu, u, w, 6), (mu, u, seed)


def test_absmon_margin_carries_magnitude():
    # the order-6 derivative at w = 2.2 is tiny next to its value at
    # w = 20; scaled over the grid, as in cm_check, the margin says so
    # (a point scaled by itself gives exactly 1)
    rep = absmon_check(0.7, 0.5, w_grid=(2.2, 20.0), max_order=6)
    assert rep.passed and rep.witness is None
    assert 0.0 < rep.margin < 1e-3
    assert absmon_check(0.7, 0.5, w_grid=(2.2,), max_order=6) \
        .margin == 1.0


def test_absmon_check_witness_equals_per_point_loop(monkeypatch):
    # with I_mu(x) cos(x/8) the first three points pass and later ones
    # fail: the witness is the worst (w, order) pair, here the negative
    # value at the last point
    def iv(mu, x):
        return sp.iv(mu, x) * np.cos(x / 8.0)

    monkeypatch.setattr(idtests, "_sp", SimpleNamespace(iv=iv))
    w = _absmon_grid(0)
    got = absmon_check(0.7, 1.5, w_grid=w, max_order=6)
    assert not got.passed and got.witness == (w[-1], 0)
    assert got == _absmon_per_point(0.7, 1.5, w, 6, iv)


def test_absmon_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        absmon_check(-0.7, 1.0)


# ----------------------------------------------------------------------
# Landau constant and product bound
# ----------------------------------------------------------------------

def test_landau_constant_value():
    # c_L = max_t t^{1/3} J_0(t), cross-checked against a dense mpmath
    # maximization of the same functional
    c = landau_constant()
    t = mp.findroot(lambda t: mp.besselj(0, t) - 3 * t * mp.besselj(1, t),
                    mp.mpf("0.86"))
    want = float(mp.cbrt(t) * mp.besselj(0, t))
    assert c == pytest.approx(want, rel=1e-15, abs=0.0)
    assert c == pytest.approx(0.7857468704, abs=1e-8)


@pytest.mark.parametrize("mu", (0.5, 1.0, 3.0))
def test_landau_product_bound(mu):
    assert landau_bound_margin(mu) < 0.0
