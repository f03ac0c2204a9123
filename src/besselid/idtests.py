"""Numerical infinite-divisibility machinery for the Bessel Laplace
transforms: complete-monotonicity ladders, Bernstein checks,
self-decomposability differences, Pick-function grids, hyperbolic
complete-monotonicity profiles, absolute monotonicity of the I-product,
the noncentral chi-square profile signs, and the Landau constant.

Every Laplace transform under test is paired with an analytic
derivative ladder for its Bernstein function phi' = -(ln L)', built
from the closed building blocks in :mod:`besselid.smoothfn`; each
Bessel-product variant is one factor row (see _Variant), from which its
L, continuation, ladder and Pick value follow.  Sign checks then operate
on machine-accurate derivative vectors, so a failure is evidence about
the function, not about the differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.special as _sp

from .distributions import DIST_KINDS, _hyperbolic_profile
from .errors import (ConvergenceError, ParameterError, off_cut, points,
                     upper_half_plane)
from .quad.tanhsinh import spec_plan
from .smoothfn import (CauchyLadder, Ladder, MLSumLadder, PowerLadder,
                       SumLadder, k_ratio_ladder)
from .specfun import bessel_row

__all__ = [
    "Rho", "Omega1", "Omega2", "IKMu", "Chi", "Theta", "Zeta", "Kappa",
    "Epsilon", "EpsilonRecip", "LT_KINDS",
    "lt_value", "lt_value_complex", "neg_logderiv_ladder",
    "Evidence", "cm_check", "bernstein_check",
    "selfdecomp_check", "pick_check", "pick_im", "zeta_witness_search",
    "hcm_check", "noncentral_profile_check",
    "absmon_check", "landau_constant", "landau_bound_margin",
    "SELFDECOMP_ANCHOR", "PICK_ANCHOR", "ABSMON_ANCHOR", "LANDAU_ANCHOR",
    "bernstein_targets", "selfdecomp_targets", "pick_targets",
    "profile_targets",
]


# ----------------------------------------------------------------------
# Laplace-transform variants
# ----------------------------------------------------------------------

class _Variant:
    """L(x) = C e^{-c sqrt x} prod F(x)^sign over the factors of the
    variant's row (c, ((kind, order, scale, sign), ...)), each F one of

        I~_mu(a; x) = x^{-mu/2} I_mu(a sqrt x)    kind "I", mu > -1,
        K~_nu(b; x) = x^{nu/2} K_nu(b sqrt x)     kind "K", nu > 0,

    and C = 1 / prod F(0+)^sign, so that L(0+) = 1.  The row alone gives
    L and its continuation (specfun.bessel_row with coef C), the ladder
    of phi' = -(ln L)' and the Pick value.  In phi' each I~ is a
    Mittag-Leffler sum over squared Bessel zeros and each K~ a Stieltjes
    function (Grosswald, Z. Wahrsch. 36, 1976; Ismail, Ann. Probab. 5,
    1977); the Pick value takes the closed w-log-derivatives
    a I_{mu+1}(aw)/I_mu(aw) of I~ and -b K_{nu-1}(bw)/K_nu(bw) of K~."""

    @cached_property
    def _norm(self):
        # C from the limits I~_mu(a; 0+) = (a/2)^mu / Gamma(mu+1) and
        # K~_nu(b; 0+) = Gamma(nu) 2^{nu-1} / b^nu, in logs
        log_f0 = 0.0
        for kind, order, scale, sign in self.row[1]:
            if kind == "I":
                lf = order * np.log(0.5 * scale) - _sp.gammaln(order + 1.0)
            else:
                lf = (_sp.gammaln(order) + (order - 1.0) * np.log(2.0)
                      - order * np.log(scale))
            log_f0 += sign * lf
        return float(np.exp(-log_f0))

    def laplace(self, x):
        return bessel_row(self._norm, *self.row, x)

    lt_value_complex = laplace

    def phi_ladder(self):
        c, factors = self.row
        terms = [(1.0, PowerLadder(0.5 * c, -0.5))] if c else []
        terms += [(-float(sign), MLSumLadder(order, scale)) if kind == "I"
                  else (float(sign), k_ratio_ladder(order, scale))
                  for kind, order, scale, sign in factors]
        coefs, parts = zip(*terms)
        # a lone term of coefficient 1, as Rho's, is its own ladder
        return parts[0] if coefs == (1.0,) else SumLadder(parts, coefs)

    def pick_im(self, re, im):
        c, factors = self.row
        w = np.sqrt(-(re + 1j * im))
        dlog = -c
        for kind, order, scale, sign in factors:
            sw = scale * w
            # scaled Bessel functions: their common factor cancels in
            # the ratio, and they stay finite far out on the cut
            if kind == "I":
                d = scale * _sp.ive(order + 1.0, sw) / _sp.ive(order, sw)
            else:
                d = -scale * _sp.kve(order - 1.0, sw) / _sp.kve(order, sw)
            dlog = dlog + sign * d
        return np.imag(-0.5 * dlog / w)


@dataclass(frozen=True)
class Rho(_Variant):
    """(a sqrt x)^mu / (2^mu Gamma(mu+1) I_mu(a sqrt x)); mu > -1, a > 0."""
    mu: float
    a: float
    anchor = "Theorem thiskellap1"
    defaults = (0.8, 1.0)
    row = property(lambda s: (0.0, (("I", s.mu, s.a, -1),)))

    def __post_init__(self):
        if not (self.mu > -1.0 and self.a > 0.0):
            raise ParameterError("Rho requires mu > -1 and a > 0")


def _omega_factors(s):
    """(b/a)^{mu-nu} [I_mu(a.)I_nu(b.)]/[I_mu(b.)I_nu(a.)]."""
    return (("I", s.mu, s.a, 1), ("I", s.nu, s.b, 1), ("I", s.mu, s.b, -1),
            ("I", s.nu, s.a, -1))


@dataclass(frozen=True)
class Omega1(_Variant):
    """(b/a)^{mu-nu} [I_mu(a.)I_nu(b.)]/[I_mu(b.)I_nu(a.)] * Rho(sigma, b)."""
    mu: float
    nu: float
    sigma: float
    a: float
    b: float
    anchor = "Theorem theolap1"
    defaults = (0.5, 1.2, 0.3, 0.7, 1.5)
    row = property(lambda s: (
        0.0, _omega_factors(s) + (("I", s.sigma, s.b, -1),)))

    def __post_init__(self):
        if not (self.mu > -1.0 and self.nu > self.sigma > -1.0
                and self.b > self.a > 0.0):
            raise ParameterError(
                "Omega1 requires mu > -1, nu > sigma > -1 and b > a > 0")


@dataclass(frozen=True)
class Omega2(_Variant):
    """(b/a)^{mu-nu} [I_mu(a.)I_nu(b.)]/[I_mu(b.)I_nu(a.)] * e^{-b sqrt x}."""
    mu: float
    nu: float
    a: float
    b: float
    anchor = "Theorem theolap2"
    defaults = (0.5, 1.2, 0.7, 1.5)
    row = property(lambda s: (s.b, _omega_factors(s)))

    def __post_init__(self):
        if not (self.mu > -1.0 and self.nu > 0.5 and self.b > self.a > 0.0):
            raise ParameterError(
                "Omega2 requires mu > -1, nu > 1/2 and b > a > 0")


@dataclass(frozen=True)
class IKMu(_Variant):
    """2 mu I_mu(sqrt x) K_mu(sqrt x); mu > 0."""
    mu: float
    anchor = "Theorem thprod1"
    defaults = (1.0,)
    row = property(lambda s: (0.0, (("K", s.mu, 1.0, 1), ("I", s.mu, 1.0, 1))))

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ParameterError("IKMu requires mu > 0")


@dataclass(frozen=True)
class _Pair(_Variant):
    """Variants built from two Bessel factors of orders mu, nu at scales
    a, b > 0; _orders holds the strict lower bounds on (mu, nu)."""
    mu: float
    nu: float
    a: float
    b: float

    def __post_init__(self):
        lo_mu, lo_nu = self._orders
        if not (self.mu > lo_mu and self.nu > lo_nu
                and self.a > 0.0 and self.b > 0.0):
            raise ParameterError(
                f"{type(self).__name__} requires mu > {lo_mu:g}, "
                f"nu > {lo_nu:g} and a, b > 0")


@dataclass(frozen=True)
class Chi(_Pair):
    """Normalized e^{-a sqrt x} x^{(nu-mu)/2} I_mu(a sqrt x) K_nu(b sqrt x)."""
    anchor = "Theorem theprodIKexp"
    _orders = (0.5, 0.0)
    defaults = (1.0, 0.8, 0.9, 1.1)
    row = property(lambda s: (s.a, (("I", s.mu, s.a, 1), ("K", s.nu, s.b, 1))))


@dataclass(frozen=True)
class Theta(_Pair):
    """Normalized x^{(mu+nu)/2} K_mu(a sqrt x) K_nu(b sqrt x); mu, nu > 0."""
    anchor = "Theorem thinfdivprodK"
    _orders = (0.0, 0.0)
    defaults = (0.7, 1.2, 0.8, 1.0)
    row = property(lambda s: (0.0, (("K", s.mu, s.a, 1), ("K", s.nu, s.b, 1))))


@dataclass(frozen=True)
class Zeta(_Pair):
    """Normalized e^{-(a+b)sqrt x} x^{-(mu+nu)/2} I_mu(a sqrt x) I_nu(b sqrt x)."""
    anchor = "Theorem thprodeqIinfdiv"
    _orders = (0.5, 0.5)
    defaults = (0.8, 1.1, 1.0, 0.9)
    row = property(lambda s: (
        s.a + s.b, (("I", s.mu, s.a, 1), ("I", s.nu, s.b, 1))))


@dataclass(frozen=True)
class Kappa(_Pair):
    """Normalized e^{-(a+b)sqrt x} / (x^{(mu+nu)/2} K_mu(a.) K_nu(b.))."""
    anchor = "Theorem recprodKinfdiv"
    _orders = (0.5, 0.5)
    defaults = (0.8, 1.1, 1.0, 0.9)
    row = property(lambda s: (
        s.a + s.b, (("K", s.mu, s.a, -1), ("K", s.nu, s.b, -1))))


@dataclass(frozen=True)
class Epsilon(_Pair):
    """Normalized e^{-(a+b)sqrt x} x^{-(mu+nu)/2} I_mu(a.)/K_nu(b.)."""
    anchor = "Theorem theoquotIKinfdiv"
    _orders = (0.5, 0.5)
    defaults = (0.9, 1.3, 0.8, 1.0)
    row = property(lambda s: (
        s.a + s.b, (("I", s.mu, s.a, 1), ("K", s.nu, s.b, -1))))


@dataclass(frozen=True)
class EpsilonRecip(_Pair):
    """Normalized x^{(mu+nu)/2} K_nu(b sqrt x)/I_mu(a sqrt x)."""
    anchor = "Theorem theoquotIKinfdiv"
    _orders = (-1.0, 0.0)
    defaults = (0.9, 1.3, 0.8, 1.0)
    row = property(lambda s: (
        0.0, (("I", s.mu, s.a, -1), ("K", s.nu, s.b, 1))))


LT_KINDS = {
    "rho": Rho, "omega1": Omega1, "omega2": Omega2, "ikmu": IKMu,
    "chi": Chi, "theta": Theta, "zeta": Zeta, "kappa": Kappa,
    "epsilon": Epsilon, "epsilon_recip": EpsilonRecip,
}


def lt_value(spec, x):
    """L(x) for x > 0: a variant's factor row from scaled Bessel
    functions, a family's closed form.  A scalar x is evaluated as a
    one-point array."""
    x = points(x, "lt_value")
    return spec.laplace(x.reshape(-1)).reshape(x.shape)[()]


def lt_value_complex(spec, z):
    """Analytic continuation of a variant's L to complex z off the cut
    (-oo, 0] (errors.off_cut): its factor row at the principal square
    root.  A family raises UnsupportedVariantError.  A scalar z is
    evaluated as a one-point array.
    """
    z = off_cut(z, "lt_value_complex")
    return spec.lt_value_complex(z.reshape(-1)).reshape(z.shape)[()]


def neg_logderiv_ladder(spec) -> Ladder:
    """Analytic derivative ladder for phi'(x) = -(ln L)'(x), kept in
    the spec's plan (quad.tanhsinh.spec_plan) under "phi'"."""
    plan = spec_plan(spec)
    if "phi'" not in plan:
        plan["phi'"] = spec.phi_ladder()
    return plan["phi'"]


# ----------------------------------------------------------------------
# Evidence and the complete-monotonicity and Bernstein checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Evidence:
    """The outcome of one check, as its report row shows it: the verdict
    ("pass", "fail", "inconclusive" or "expected-fail"), the signed
    margin, the witness (the worst point, or the reason a check could
    not decide) and the label of the target."""

    verdict: str
    margin: float | None
    witness: object = None
    label: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @classmethod
    def graded(cls, margin, witness=None, converged: bool = True,
               slack: float = 0.0, label: str = "") -> Evidence:
        """Pass at margin >= -slack, fail below (and at NaN);
        inconclusive when the computation behind the margin did not
        converge."""
        verdict = "pass" if margin >= -slack else "fail"
        return cls(verdict if converged else "inconclusive", margin,
                   witness, label)


_DEFAULT_GRID = tuple(np.exp(np.linspace(np.log(0.05), np.log(50.0), 9)))
# the margin below zero that a sign check still passes: rounding of
# the derivative ladders (cm_check) and of Im[psi'/psi] (pick_check)
CM_SLACK = 1e-9
PICK_SLACK = 1e-12


def cm_check(target, grid=_DEFAULT_GRID, max_order: int = 8,
             signs: str = "alternating", label: str = "") -> Evidence:
    """Sign-pattern test of the derivatives of the smoothfn ladder
    target, evaluated once on the whole grid.

    signs = "alternating" tests (-1)^n f^(n) >= 0 (complete
    monotonicity); "positive" tests f^(n) >= 0 (absolute monotonicity).
    The margin is the most negative required-sign derivative, scaled
    per order by the largest derivative magnitude on the grid; a failure,
    below -CM_SLACK, names the (x, order) pair attaining it.  A NaN or
    infinite derivative raises ConvergenceError naming the first such
    (x, order) pair: a grid does not pass or fail on values that could
    not be computed.
    """
    if signs not in ("alternating", "positive"):
        raise ParameterError("signs must be 'alternating' or 'positive'")
    grid = tuple(float(g) for g in grid)
    table = target.derivatives(np.array(grid), max_order)
    scale = np.maximum(np.abs(table).max(axis=0), 1e-300)
    if not scale.max() < np.inf:
        i, n = divmod(int(np.isfinite(table).argmin()), max_order + 1)
        raise ConvergenceError(f"derivative of order {n} is "
                               f"{float(table[i, n])!r} at x = {grid[i]!r}")
    margins = table / scale
    if signs == "alternating":
        # (-1)^n f^(n): the odd orders negated, exactly
        margins[:, 1::2] *= -1.0
    k = int(margins.argmin())
    worst = margins.item(k)
    i, n = divmod(k, max_order + 1)
    witness = (grid[i], n) if worst < -CM_SLACK else None
    return Evidence.graded(worst, witness, slack=CM_SLACK, label=label)


def _normalization_gate(spec, label: str):
    """The failing evidence when the spec's L is off 1 by more than 1e-6
    at x = 1e-16, else None.  x is that small because several
    transforms carry e^{-c sqrt(x)} factors, so the approach to 1 is
    O(sqrt(x)), not O(x).  L there is kept in the spec's plan under
    "L(0+)"."""
    plan = spec_plan(spec)
    if "L(0+)" not in plan:
        plan["L(0+)"] = float(lt_value(spec, 1e-16))
    l0 = plan["L(0+)"]
    if abs(l0 - 1.0) > 1e-6:
        return Evidence.graded(-abs(l0 - 1.0), (1e-16, -1), label=label)


def bernstein_check(spec, grid=_DEFAULT_GRID, max_order: int = 8,
                    label: str = "") -> Evidence:
    """Bernstein-function test: phi(0+) = 0 and phi' completely monotone."""
    return _normalization_gate(spec, label) or cm_check(
        neg_logderiv_ladder(spec), grid, max_order, label=label)


SELFDECOMP_ANCHOR = "Lemma 2"


@dataclass(frozen=True)
class _AlphaDifference(Ladder):
    """phi'(x) - alpha phi'(alpha x) = (1 - alpha) b + int e^{-xs} (k(s) -
    k(s/alpha)) ds for phi'(x) = b + int e^{-xt} k(t) dt: completely
    monotone for every alpha in (0, 1) exactly when k is non-increasing.
    Its n-th derivative, phi'^(n)(x) - alpha^(n+1) phi'^(n)(alpha x),
    takes one call of the ladder phi of phi' on x and alpha x."""

    phi: Ladder
    alpha: float

    def _derivatives(self, x, max_order: int) -> np.ndarray:
        both = self.phi._derivatives(np.concatenate([x, self.alpha * x]),
                                     max_order)
        powers = np.cumprod(np.full(max_order + 1, self.alpha))
        return both[:x.size] - powers * both[x.size:]


def selfdecomp_check(spec, alpha: float, grid=_DEFAULT_GRID,
                     max_order: int = 8, label: str = "") -> Evidence:
    """Self-decomposability at one alpha in (0, 1), that is Levy measure
    k(t)/t dt with k non-increasing (Sato 1999, Cor. 15.11): L(0+) = 1
    and phi'(x) - alpha phi'(alpha x) completely monotone."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError("selfdecomp_check requires alpha in (0, 1)")
    return _normalization_gate(spec, label) or cm_check(
        _AlphaDifference(neg_logderiv_ladder(spec), alpha), grid, max_order,
        label=label)


# ----------------------------------------------------------------------
# Pick-function checks
# ----------------------------------------------------------------------

def pick_im(spec, re, im):
    """Im[psi'(s)/psi(s)] at s = re + i im for psi(s) = L(-s),
    elementwise over broadcast arrays re and im.  The spec's pick_im
    takes the points as two 1-d arrays, so a scalar point is a
    one-point array."""
    re, im = upper_half_plane(re, im, "pick_im")
    return spec.pick_im(re.reshape(-1), im.reshape(-1)).reshape(re.shape)[()]


def _grid_minimum(spec, points):
    """(value, point) of the first strict minimum of Im[psi'/psi] over
    the points in order, from one pick_im call; +inf is never selected,
    and (inf, None) is returned when nothing is.  A NaN value raises
    ConvergenceError naming its point: a grid does not pass on values
    that could not be computed."""
    points = [(float(x), float(y)) for x, y in points]
    re, im = np.array(points).T
    v = np.asarray(pick_im(spec, re, im), dtype=float)
    nan = np.flatnonzero(np.isnan(v))
    if nan.size:
        x, y = points[nan[0]]
        raise ConvergenceError(f"Im[psi'/psi] is NaN at s = {x!r} + {y!r}i")
    i = int(np.argmin(v))
    if not v[i] < np.inf:
        return np.inf, None
    return float(v[i]), points[i]


PICK_ANCHOR = "Lemma 3"
_PICK_GRID = tuple((x, y) for x in np.linspace(-5.0, 5.0, 11)
                   for y in (0.25, 0.5, 1.0, 2.5, 5.0))


def pick_check(spec, grid=_PICK_GRID, label: str = "") -> Evidence:
    """Positivity of Im[psi'/psi] over an upper-half-plane grid: the
    margin is the grid minimum, and a failure, below -PICK_SLACK, names
    its point."""
    value, point = _grid_minimum(spec, grid)
    return Evidence.graded(value, point if value < -PICK_SLACK else None,
                           slack=PICK_SLACK, label=label)


def zeta_witness_search():
    """Search the upper half-plane for Im[psi'/psi] < 0 for the I-product
    Zeta(1, 1, 1, 2).

    Returns ((re, im), value) at the most negative point found; a
    genuinely negative value certifies the failure of the Pick property
    (the transform is not a generalized gamma convolution).
    """
    value, point = _grid_minimum(
        Zeta(1.0, 1.0, 1.0, 2.0),
        [(x, y) for x in np.linspace(-20.0, 5.0, 51)
         for y in np.geomspace(0.05, 5.0, 12)])
    return point, value


# ----------------------------------------------------------------------
# Hyperbolic and absolute monotonicity profiles
# ----------------------------------------------------------------------

_DEFAULT_W_GRID = tuple(2.0 + np.geomspace(0.2, 18.0, 8))


def _profile_ladder(g, u: float) -> CauchyLadder:
    """Cauchy ladder in w of the hyperbolic profile g(uv) g(u/v).

    The profile is analytic in w off (-oo, -2], so the default circle,
    of radius w/2, keeps a fixed fraction of the distance to the cut;
    on it Re w > 0, so g is evaluated in the right half plane only.
    """
    return CauchyLadder(lambda w: _hyperbolic_profile(g, u, w))


def hcm_check(d, u: float, w_grid=_DEFAULT_W_GRID, max_order: int = 8,
              label: str = "") -> Evidence:
    """Complete monotonicity in w = v + 1/v of pdf(uv) pdf(u/v).

    A family with an exact profile ladder (the gamma quotient) is tested
    through it, every other one through the Cauchy ladder of its
    profile, evaluated by its complex log-density.
    """
    target = d.hcm_ladder(u) or _profile_ladder(
        lambda x: np.exp(d.log_pdf(x)), u)
    return cm_check(target, w_grid, max_order, label=label)


def noncentral_profile_check(mu: float, lam: float, u: float) -> Evidence:
    """Positivity, decrease and convexity of the noncentral chi-square
    profile w -> pdf(uv) pdf(u/v) on (2, oo): its hcm_check at orders 0
    to 2 on the default w grid.

    Convexity is claimed for lam <= 2 mu + 1 (and decrease for lam <=
    2(2 mu + 1)); outside the convex region there is no claim to test.
    """
    if not lam <= 2.0 * mu + 1.0:
        raise ParameterError(
            "noncentral_profile_check requires lam <= 2 mu + 1")
    return hcm_check(DIST_KINDS["nchisq"](mu, lam), u, _DEFAULT_W_GRID, 2)


ABSMON_ANCHOR = "Theorem thprodIabsmon"


def absmon_check(mu: float, u: float, w_grid=_DEFAULT_W_GRID,
                 max_order: int = 6) -> Evidence:
    """Absolute monotonicity in w of I_mu(uv) I_mu(u/v) on (2, oo): a
    cm_check with signs "positive" of the profile ladder of I_mu, so
    the witness is the worst (w, order) pair."""
    if not (mu > -0.5 and u > 0.0):
        raise ParameterError("absmon_check requires mu > -1/2 and u > 0")
    return cm_check(_profile_ladder(lambda x: _sp.iv(mu, x), u), w_grid,
                    max_order, signs="positive")


# ----------------------------------------------------------------------
# Landau constant
# ----------------------------------------------------------------------

LANDAU_ANCHOR = "Corollary part g"


def landau_constant() -> float:
    """sup over t > 0 of t^(1/3) J_0(t), by Newton's method.

    The maximizer solves J_0(t) = 3 t J_1(t) inside (0, j_{0,1}); Newton
    from t = 0.8 reaches it within 5 steps from any start in [0.5, 1.1].
    """
    t = 0.8
    for _ in range(8):
        h = _sp.j0(t) - 3.0 * t * _sp.j1(t)
        hp = -_sp.j1(t) - 3.0 * t * _sp.j0(t)
        t -= h / hp
    return float(np.cbrt(t) * _sp.j0(t))


def landau_bound_margin(mu: float) -> float:
    """Worst slack of I_mu(sqrt x) K_mu(sqrt x) <= pi c_L^2 / (sqrt 3 x^{2/3})
    over 20 log-spaced x in [0.1, 100]; nonpositive return means the
    bound holds there.

    The x^{2/3} decay outpaces the product's x^{1/2} tail, so the bound
    is a bounded-range statement; the grid stops at x = 100.
    """
    cl2 = landau_constant() ** 2
    x = np.geomspace(0.1, 100.0, 20)
    prod = bessel_row(1.0, 0.0, (("I", mu, 1.0, 1), ("K", mu, 1.0, 1)), x)
    return float(np.max(prod * np.sqrt(3.0) * x ** (2.0 / 3.0) / np.pi - cl2))


# ----------------------------------------------------------------------
# Default target lists
# ----------------------------------------------------------------------

_KINDS = {**LT_KINDS, **DIST_KINDS}


def _default(label):
    return _KINDS[label](*_KINDS[label].defaults)


def bernstein_targets():
    """(label, spec) pairs for every proven-infinitely-divisible
    Laplace transform, at its default parameters."""
    return [(k, _default(k)) for k in _KINDS if k != "nchisq"]


def selfdecomp_targets():
    return [(k, _default(k))
            for k in ("mckay1", "kdist", "gig", "rho", "ikmu", "theta")]


def pick_targets():
    return [(k, _default(k)) for k in ("mckay1", "rho", "ikmu", "theta",
                                       "kdist", "gammaquot")]


def profile_targets():
    """(mu, lam, u) triples for the noncentral chi-square profile signs.

    Both derivative-sign claims are sufficient conditions; the triples
    sit well inside the region where the signs actually hold for every
    u (empirically lam <~ mu/2 for convexity), not at the boundary of
    the claimed parameter ranges, where the convexity can fail.
    """
    return [(1.0, 0.4, 1.0), (2.0, 0.8, 0.5), (3.0, 1.2, 2.0)]
