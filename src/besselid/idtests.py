"""Numerical infinite-divisibility machinery for the Bessel Laplace
transforms: complete-monotonicity ladders, Bernstein checks,
self-decomposability quotients, Pick-function grids, hyperbolic
complete-monotonicity profiles, absolute monotonicity of the I-product,
the noncentral chi-square profile signs, and the Landau constant.

Every Laplace transform under test is paired with an analytic
derivative ladder for its Bernstein function phi' = -(ln L)', built
from the closed building blocks in :mod:`besselid.smoothfn`:

* the I-Bessel log-derivative is a Mittag-Leffler sum over squared
  Bessel zeros,
* the K-Bessel log-derivative is a Stieltjes transform with the
  explicit positive kernel 1/(pi^2 t [J^2 + Y^2]),
* exponential and power prefactors differentiate in closed form,
* anything with only a complex-analytic closed form goes through
  Cauchy-circle differentiation.

Sign checks then operate on machine-accurate derivative vectors, so a
failure is evidence about the function, not about the differencing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .distributions import (DIST_DEFAULTS, DIST_KINDS, McKayI,
                            _hyperbolic_profile, _log_iv, _log_kv, _pointwise)
from .errors import DomainError, ParameterError, UnsupportedVariantError
from .smoothfn import (CauchyLadder, Ladder, MLSumLadder, PowerLadder,
                       SumLadder, k_ratio_ladder)
from .specfun import bessel_zeros

__all__ = [
    "Rho", "Omega1", "Omega2", "IKMu", "Chi", "Theta", "Zeta", "Kappa",
    "Epsilon", "EpsilonRecip", "LT_KINDS",
    "lt_value", "lt_value_complex", "neg_logderiv", "neg_logderiv_ladder",
    "CMReport", "PickReport", "cm_check", "bernstein_check",
    "selfdecomp_check", "pick_check", "pick_im", "zeta_witness_search",
    "hcm_check", "noncentral_profile_check", "ProfileReport",
    "absmon_check", "landau_constant", "landau_bound_margin",
    "SELFDECOMP_ANCHOR", "PICK_ANCHOR", "ABSMON_ANCHOR", "LANDAU_ANCHOR",
    "bernstein_targets", "selfdecomp_targets", "pick_targets",
    "profile_targets",
]


# ----------------------------------------------------------------------
# Laplace-transform variants
# ----------------------------------------------------------------------

def _iv_ratio(mu, z):
    return 0.5 * (_sp.iv(mu - 1.0, z) + _sp.iv(mu + 1.0, z)) / _sp.iv(mu, z)


def _kv_ratio(mu, z):
    return -0.5 * (_sp.kv(mu - 1.0, z) + _sp.kv(mu + 1.0, z)) / _sp.kv(mu, z)


class _Variant:
    """Methods shared by the variants; what a variant lacks raises.  The
    Pick value needs _dlog_dw(w) = d ln L / dw at w = sqrt(-s)."""

    def lt_value_complex(self, z):
        raise UnsupportedVariantError(
            f"no complex continuation registered for {self!r}")

    def _dlog_dw(self, w):
        raise UnsupportedVariantError(
            f"no Pick closed form registered for {self!r}")

    def pick_im(self, re, im):
        def at(x, y):
            w = np.sqrt(-complex(x, y))
            return float(np.imag(-0.5 / w * self._dlog_dw(w)))

        return _pointwise(at, re, im)


def _log_rho(mu, a, x):
    """ln of Rho: normalized reciprocal I-Bessel."""
    r = a * np.sqrt(x)
    return (mu * np.log(0.5 * r) - _sp.gammaln(mu + 1.0) - _log_iv(mu, r))


@dataclass(frozen=True)
class Rho(_Variant):
    """(a sqrt x)^mu / (2^mu Gamma(mu+1) I_mu(a sqrt x)); mu > -1, a > 0."""
    mu: float
    a: float
    anchor = "Theorem thiskellap1"

    def __post_init__(self):
        if not (self.mu > -1.0 and self.a > 0.0):
            raise ParameterError("Rho requires mu > -1 and a > 0")

    def lt_value(self, x):
        return np.exp(_log_rho(self.mu, self.a, x))

    def lt_value_complex(self, z):
        mu, a = self.mu, self.a
        w = np.sqrt(z)
        return ((0.5 * a * w) ** mu
                / (np.exp(_sp.gammaln(mu + 1.0)) * _sp.iv(mu, a * w)))

    def phi_ladder(self):
        return MLSumLadder(self.mu, self.a)

    def pick_im(self, re, im):
        t = (bessel_zeros(self.mu, 4000) / self.a) ** 2
        re, im = np.broadcast_arrays(np.asarray(re, dtype=float),
                                     np.asarray(im, dtype=float))
        x, y = re.reshape(-1, 1), im.reshape(-1, 1)
        out = np.empty(x.size)
        # blocks of 8 points keep the (points x zeros) buffer at 256 kB
        for i in range(0, x.size, 8):
            yb = y[i:i + 8]
            s = np.subtract(t, x[i:i + 8])
            np.square(s, out=s)
            s += yb * yb
            np.divide(yb, s, out=s)
            out[i:i + 8] = s.sum(axis=-1)
        return out.reshape(re.shape)[()]


def _log_omega_ratio(mu, nu, a, b, rx):
    """ln of (b/a)^{mu-nu} [I_mu(a.)I_nu(b.)]/[I_mu(b.)I_nu(a.)]."""
    return ((mu - nu) * np.log(b / a)
            + _log_iv(mu, a * rx) + _log_iv(nu, b * rx)
            - _log_iv(mu, b * rx) - _log_iv(nu, a * rx))


@dataclass(frozen=True)
class Omega1(_Variant):
    """(b/a)^{mu-nu} [I_mu(a.)I_nu(b.)]/[I_mu(b.)I_nu(a.)] * Rho(sigma, b)."""
    mu: float
    nu: float
    sigma: float
    a: float
    b: float
    anchor = "Theorem theolap1"

    def __post_init__(self):
        if not (self.mu > -1.0 and self.nu > self.sigma > -1.0
                and self.b > self.a > 0.0):
            raise ParameterError(
                "Omega1 requires mu > -1, nu > sigma > -1 and b > a > 0")

    def lt_value(self, x):
        lg = _log_omega_ratio(self.mu, self.nu, self.a, self.b, np.sqrt(x))
        lg += _log_rho(self.sigma, self.b, x)
        return np.exp(lg)

    def phi_ladder(self):
        mu, nu, sg, a, b = self.mu, self.nu, self.sigma, self.a, self.b
        return SumLadder(
            (MLSumLadder(mu, a), MLSumLadder(nu, b),
             MLSumLadder(mu, b), MLSumLadder(nu, a), MLSumLadder(sg, b)),
            (-1.0, -1.0, 1.0, 1.0, 1.0))


@dataclass(frozen=True)
class Omega2(_Variant):
    """(b/a)^{mu-nu} [I_mu(a.)I_nu(b.)]/[I_mu(b.)I_nu(a.)] * e^{-b sqrt x}."""
    mu: float
    nu: float
    a: float
    b: float
    anchor = "Theorem theolap2"

    def __post_init__(self):
        if not (self.mu > -1.0 and self.nu > 0.5 and self.b > self.a > 0.0):
            raise ParameterError(
                "Omega2 requires mu > -1, nu > 1/2 and b > a > 0")

    def lt_value(self, x):
        rx = np.sqrt(x)
        lg = _log_omega_ratio(self.mu, self.nu, self.a, self.b, rx)
        lg -= self.b * rx
        return np.exp(lg)

    def phi_ladder(self):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        return SumLadder(
            (PowerLadder(0.5 * b, -0.5), MLSumLadder(mu, a),
             MLSumLadder(nu, b), MLSumLadder(mu, b), MLSumLadder(nu, a)),
            (1.0, -1.0, -1.0, 1.0, 1.0))


@dataclass(frozen=True)
class IKMu(_Variant):
    """2 mu I_mu(sqrt x) K_mu(sqrt x); mu > 0."""
    mu: float
    anchor = "Theorem thprod1"

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ParameterError("IKMu requires mu > 0")

    def lt_value(self, x):
        rx = np.sqrt(x)
        return 2.0 * self.mu * np.exp(_log_iv(self.mu, rx)
                                      + _log_kv(self.mu, rx))

    def lt_value_complex(self, z):
        w = np.sqrt(z)
        return 2.0 * self.mu * _sp.iv(self.mu, w) * _sp.kv(self.mu, w)

    def phi_ladder(self):
        return k_ratio_ladder(self.mu, 1.0) - MLSumLadder(self.mu, 1.0)

    def _dlog_dw(self, w):
        return _iv_ratio(self.mu, w) + _kv_ratio(self.mu, w)


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

    def lt_value(self, x):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        rx = np.sqrt(x)
        lc = ((mu - nu + 1.0) * np.log(2.0) + _sp.gammaln(mu + 1.0)
              + nu * np.log(b) - mu * np.log(a) - _sp.gammaln(nu))
        return np.exp(lc - a * rx + 0.5 * (nu - mu) * np.log(x)
                      + _log_iv(mu, a * rx) + _log_kv(nu, b * rx))

    def phi_ladder(self):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        return SumLadder(
            (PowerLadder(0.5 * a, -0.5), MLSumLadder(mu, a),
             k_ratio_ladder(nu, b)),
            (1.0, -1.0, 1.0))


def _theta_lc(mu, nu, a, b):
    return (mu * np.log(a) + nu * np.log(b)
            - (mu + nu - 2.0) * np.log(2.0)
            - _sp.gammaln(mu) - _sp.gammaln(nu))


@dataclass(frozen=True)
class Theta(_Pair):
    """Normalized x^{(mu+nu)/2} K_mu(a sqrt x) K_nu(b sqrt x); mu, nu > 0."""
    anchor = "Theorem thinfdivprodK"
    _orders = (0.0, 0.0)

    def lt_value(self, x):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        rx = np.sqrt(x)
        return np.exp(_theta_lc(mu, nu, a, b) + 0.5 * (mu + nu) * np.log(x)
                      + _log_kv(mu, a * rx) + _log_kv(nu, b * rx))

    def lt_value_complex(self, z):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        w = np.sqrt(z)
        return (np.exp(_theta_lc(mu, nu, a, b)) * w ** (mu + nu)
                * _sp.kv(mu, a * w) * _sp.kv(nu, b * w))

    def phi_ladder(self):
        return k_ratio_ladder(self.mu, self.a) + k_ratio_ladder(self.nu, self.b)

    def _dlog_dw(self, w):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        return ((mu + nu) / w + a * _kv_ratio(mu, a * w)
                + b * _kv_ratio(nu, b * w))


@dataclass(frozen=True)
class Zeta(_Pair):
    """Normalized e^{-(a+b)sqrt x} x^{-(mu+nu)/2} I_mu(a sqrt x) I_nu(b sqrt x)."""
    anchor = "Theorem thprodeqIinfdiv"
    _orders = (0.5, 0.5)

    def lt_value(self, x):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        rx = np.sqrt(x)
        lc = ((mu + nu) * np.log(2.0) + _sp.gammaln(mu + 1.0)
              + _sp.gammaln(nu + 1.0) - mu * np.log(a) - nu * np.log(b))
        return np.exp(lc - (a + b) * rx - 0.5 * (mu + nu) * np.log(x)
                      + _log_iv(mu, a * rx) + _log_iv(nu, b * rx))

    def phi_ladder(self):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        return SumLadder(
            (PowerLadder(0.5 * (a + b), -0.5),
             MLSumLadder(mu, a), MLSumLadder(nu, b)),
            (1.0, -1.0, -1.0))

    def _dlog_dw(self, w):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        return (-(a + b) - (mu + nu) / w + a * _iv_ratio(mu, a * w)
                + b * _iv_ratio(nu, b * w))


@dataclass(frozen=True)
class Kappa(_Pair):
    """Normalized e^{-(a+b)sqrt x} / (x^{(mu+nu)/2} K_mu(a.) K_nu(b.))."""
    anchor = "Theorem recprodKinfdiv"
    _orders = (0.5, 0.5)

    def lt_value(self, x):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        rx = np.sqrt(x)
        lc = ((mu + nu - 2.0) * np.log(2.0) + _sp.gammaln(mu)
              + _sp.gammaln(nu) - mu * np.log(a) - nu * np.log(b))
        return np.exp(lc - (a + b) * rx - 0.5 * (mu + nu) * np.log(x)
                      - _log_kv(mu, a * rx) - _log_kv(nu, b * rx))

    def phi_ladder(self):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        return SumLadder(
            (PowerLadder(0.5 * (a + b), -0.5),
             k_ratio_ladder(mu, a), k_ratio_ladder(nu, b)),
            (1.0, -1.0, -1.0))


@dataclass(frozen=True)
class Epsilon(_Pair):
    """Normalized e^{-(a+b)sqrt x} x^{-(mu+nu)/2} I_mu(a.)/K_nu(b.)."""
    anchor = "Theorem theoquotIKinfdiv"
    _orders = (0.5, 0.5)

    def lt_value(self, x):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        rx = np.sqrt(x)
        lc = ((mu + nu - 1.0) * np.log(2.0) + _sp.gammaln(nu)
              + _sp.gammaln(mu + 1.0) - mu * np.log(a) - nu * np.log(b))
        return np.exp(lc - (a + b) * rx - 0.5 * (mu + nu) * np.log(x)
                      + _log_iv(mu, a * rx) - _log_kv(nu, b * rx))

    def phi_ladder(self):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        return SumLadder(
            (PowerLadder(0.5 * (a + b), -0.5),
             MLSumLadder(mu, a), k_ratio_ladder(nu, b)),
            (1.0, -1.0, -1.0))


@dataclass(frozen=True)
class EpsilonRecip(_Pair):
    """Normalized x^{(mu+nu)/2} K_nu(b sqrt x)/I_mu(a sqrt x)."""
    anchor = "Theorem theoquotIKinfdiv"
    _orders = (-1.0, 0.0)

    def lt_value(self, x):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        rx = np.sqrt(x)
        lc = (mu * np.log(a) + nu * np.log(b)
              - (mu + nu - 1.0) * np.log(2.0)
              - _sp.gammaln(nu) - _sp.gammaln(mu + 1.0))
        return np.exp(lc + 0.5 * (mu + nu) * np.log(x)
                      + _log_kv(nu, b * rx) - _log_iv(mu, a * rx))

    def phi_ladder(self):
        return MLSumLadder(self.mu, self.a) + k_ratio_ladder(self.nu, self.b)


LT_KINDS = {
    "rho": Rho, "omega1": Omega1, "omega2": Omega2, "ikmu": IKMu,
    "chi": Chi, "theta": Theta, "zeta": Zeta, "kappa": Kappa,
    "epsilon": Epsilon, "epsilon_recip": EpsilonRecip,
}

# representative in-domain parameters (positional) of the variants; the
# families take theirs from DIST_DEFAULTS
_LT_DEFAULTS = {
    "rho": (0.8, 1.0),
    "omega1": (0.5, 1.2, 0.3, 0.7, 1.5),
    "omega2": (0.5, 1.2, 0.7, 1.5),
    "ikmu": (1.0,),
    "chi": (1.0, 0.8, 0.9, 1.1),
    "theta": (0.7, 1.2, 0.8, 1.0),
    "zeta": (0.8, 1.1, 1.0, 0.9),
    "kappa": (0.8, 1.1, 1.0, 0.9),
    "epsilon": (0.9, 1.3, 0.8, 1.0),
    "epsilon_recip": (0.9, 1.3, 0.8, 1.0),
}


def lt_value(spec, x):
    """L(x) for x > 0, evaluated through scaled Bessel logarithms."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("lt_value requires x > 0")
    return spec.lt_value(x)


def lt_value_complex(spec, z):
    """Analytic continuation of L to complex z with Re z > 0.

    Supported where the closed form continues with the principal square
    root: Rho, IKMu, Theta, McKayI, GIG and KDist.
    """
    return spec.lt_value_complex(np.asarray(z, dtype=complex))


def neg_logderiv_ladder(spec) -> Ladder:
    """Analytic derivative ladder for phi'(x) = -(ln L)'(x)."""
    return spec.phi_ladder()


def neg_logderiv(spec, x):
    """phi'(x) = -(ln L)'(x) through the analytic ladder."""
    return neg_logderiv_ladder(spec).value(float(x))


# ----------------------------------------------------------------------
# Complete-monotonicity and Bernstein checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CMReport:
    """Sign-pattern verdict for a derivative ladder over a grid.

    worst_margin is the most negative value of the required-sign
    derivative, scaled per order by the largest derivative magnitude on
    the grid; the witness is the (x, order) pair attaining it.
    """

    grid: tuple
    max_order: int
    worst_margin: float
    passed: bool
    witness: object = None
    label: str = ""


_DEFAULT_GRID = tuple(np.exp(np.linspace(np.log(0.05), np.log(50.0), 9)))
_SELFDECOMP_GRID = tuple(np.exp(np.linspace(np.log(0.1), np.log(10.0), 7)))


def cm_check(target, grid=None, max_order: int = 8, slack: float = 1e-9,
             signs: str = "alternating", label: str = "") -> CMReport:
    """Sign-pattern test of the derivatives of the smoothfn ladder
    target, evaluated once on the whole grid.

    signs = "alternating" tests (-1)^n f^(n) >= 0 (complete
    monotonicity); "positive" tests f^(n) >= 0 (absolute monotonicity).
    """
    if grid is None:
        grid = _DEFAULT_GRID
    grid = tuple(float(g) for g in grid)
    table = target.derivatives(np.array(grid), max_order)
    if signs == "alternating":
        signed = table * (-1.0) ** np.arange(max_order + 1)
    elif signs == "positive":
        signed = table
    else:
        raise ParameterError("signs must be 'alternating' or 'positive'")
    scale = np.maximum(np.max(np.abs(table), axis=0), 1e-300)
    margins = signed / scale
    worst = float(np.min(margins))
    i, n = np.unravel_index(np.argmin(margins), margins.shape)
    witness = (grid[i], int(n)) if worst < -slack else None
    return CMReport(grid, max_order, worst, worst >= -slack, witness, label)


def _normalization_gate(lt, grid, max_order: int, label: str):
    """The failing report when the transform lt is off 1 by more than
    1e-6 at x = 1e-16, else None.  x is that small because several
    transforms carry e^{-c sqrt(x)} factors, so the approach to 1 is
    O(sqrt(x)), not O(x)."""
    l0 = float(lt(1e-16))
    if abs(l0 - 1.0) > 1e-6:
        return CMReport(tuple(grid), max_order, -abs(l0 - 1.0), False,
                        (1e-16, -1), label)


def bernstein_check(spec, grid=None, max_order: int = 8,
                    slack: float = 1e-9, label: str = "") -> CMReport:
    """Bernstein-function test: phi(0+) = 0 and phi' completely monotone."""
    if grid is None:
        grid = _DEFAULT_GRID
    return (_normalization_gate(lambda x: lt_value(spec, x), grid, max_order,
                                label)
            or cm_check(neg_logderiv_ladder(spec), grid, max_order, slack,
                        label=label))


SELFDECOMP_ANCHOR = "Lemma 2"


def selfdecomp_check(spec, alpha: float, grid=None, max_order: int = 6,
                     slack: float = 1e-9, label: str = "") -> CMReport:
    """Complete monotonicity of x -> L(x)/L(alpha x), alpha in (0, 1).

    Together with the value 1 at 0+ this is the numerical surrogate for
    the quotient being a Laplace transform (self-decomposability).
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError("selfdecomp_check requires alpha in (0, 1)")
    if grid is None:
        grid = _SELFDECOMP_GRID

    def q(z):
        return lt_value_complex(spec, z) / lt_value_complex(spec, alpha * z)

    def q0(x):
        return float(lt_value(spec, x)) / float(lt_value(spec, alpha * x))

    return (_normalization_gate(q0, grid, max_order, label)
            or cm_check(CauchyLadder(q), grid, max_order, slack, label=label))


# ----------------------------------------------------------------------
# Pick-function checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PickReport:
    """Minimum of Im[psi'(s)/psi(s)] over an upper-half-plane grid."""

    grid: tuple
    min_im_value: float
    passed: bool
    witness: object = None
    label: str = ""


def pick_im(spec, re, im):
    """Im[psi'(s)/psi(s)] at s = re + i im for psi(s) = L(-s),
    elementwise over broadcast arrays re and im."""
    if np.any(np.asarray(im) <= 0.0):
        raise DomainError("pick_im requires im > 0")
    return spec.pick_im(re, im)


def _grid_minimum(spec, points):
    """(value, point) of the first strict minimum of Im[psi'/psi] over
    the points in order, from one pick_im call; NaN and +inf are never
    selected, and (inf, None) is returned when nothing is."""
    points = [(float(x), float(y)) for x, y in points]
    re, im = np.array(points).T
    v = np.asarray(pick_im(spec, re, im), dtype=float)
    i = int(np.argmin(np.where(v < np.inf, v, np.inf)))
    if not v[i] < np.inf:
        return np.inf, None
    return float(v[i]), points[i]


PICK_ANCHOR = "Lemma 3"


def pick_check(spec, grid=None, slack: float = 1e-12,
               label: str = "") -> PickReport:
    """Positivity of Im[psi'/psi] over an upper-half-plane grid."""
    if grid is None:
        grid = tuple((x, y) for x in np.linspace(-5.0, 5.0, 11)
                     for y in (0.25, 0.5, 1.0, 2.5, 5.0))
    value, point = _grid_minimum(spec, grid)
    passed = value >= -slack
    return PickReport(tuple(grid), value, passed,
                      None if passed else point, label)


def zeta_witness_search(spec=None):
    """Search the upper half-plane for Im[psi'/psi] < 0 for the I-product.

    Returns ((re, im), value) at the most negative point found; a
    genuinely negative value certifies the failure of the Pick property
    (the transform is not a generalized gamma convolution).
    """
    if spec is None:
        spec = Zeta(1.0, 1.0, 1.0, 2.0)
    value, point = _grid_minimum(
        spec, [(x, y) for x in np.linspace(-20.0, 5.0, 51)
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


def hcm_check(d, u: float, w_grid=None, max_order: int = 8,
              slack: float = 1e-9, label: str = "") -> CMReport:
    """Complete monotonicity in w = v + 1/v of pdf(uv) pdf(u/v).

    A family with an exact profile ladder (the gamma quotient) is tested
    through it, every other one through the Cauchy ladder of its
    profile, evaluated by its complex log-density.
    """
    if w_grid is None:
        w_grid = _DEFAULT_W_GRID
    target = d.hcm_ladder(u) or _profile_ladder(
        lambda x: np.exp(d.log_pdf(x)), u)
    return cm_check(target, w_grid, max_order, slack, label=label)


@dataclass(frozen=True)
class ProfileReport:
    """First/second derivative signs of the noncentral chi-square
    profile w -> pdf(uv) pdf(u/v) on (2, oo)."""

    decreasing_claimed: bool
    decreasing_ok: bool
    convex_claimed: bool
    convex_ok: bool
    grid: tuple


def noncentral_profile_check(mu: float, lam: float, u: float,
                             w_grid=None) -> ProfileReport:
    """Monotonicity and convexity of the noncentral chi-square profile.

    The profile is claimed strictly decreasing when lam <= 2(2 mu + 1)
    and strictly convex when lam <= 2 mu + 1; outside the claimed
    region the corresponding flag is reported as not claimed.
    """
    d = DIST_KINDS["nchisq"](mu, lam)
    if w_grid is None:
        w_grid = _DEFAULT_W_GRID
    dec_claim = lam <= 2.0 * (2.0 * mu + 1.0)
    cvx_claim = lam <= 2.0 * mu + 1.0
    w = np.array(w_grid, dtype=float)
    ladder = _profile_ladder(lambda x: np.exp(d.log_pdf(x)), u)
    f0, d1, d2 = ladder.derivatives(w, 2).T
    scale = np.abs(f0) / w
    dec_ok = not np.any(d1 >= -1e-9 * scale)
    cvx_ok = not np.any(d2 <= -1e-9 * scale / w)
    return ProfileReport(dec_claim, dec_ok and dec_claim,
                         cvx_claim, cvx_ok and cvx_claim, tuple(w_grid))


ABSMON_ANCHOR = "Theorem thprodIabsmon"


def absmon_check(mu: float, u: float, w_grid=None, max_order: int = 6,
                 slack: float = 1e-9, label: str = "") -> CMReport:
    """Absolute monotonicity in w of I_mu(uv) I_mu(u/v) on (2, oo): a
    cm_check with signs "positive" of the profile ladder of I_mu, so
    the witness is the worst (w, order) pair."""
    if not (mu > -0.5 and u > 0.0):
        raise ParameterError("absmon_check requires mu > -1/2 and u > 0")
    if w_grid is None:
        w_grid = _DEFAULT_W_GRID
    return cm_check(_profile_ladder(lambda x: _sp.iv(mu, x), u), w_grid,
                    max_order, slack, signs="positive", label=label)


# ----------------------------------------------------------------------
# Landau constant
# ----------------------------------------------------------------------

LANDAU_ANCHOR = "Corollary part g"


def landau_constant() -> float:
    """sup over t > 0 of t^(1/3) J_0(t), by golden section plus Newton.

    The maximizer solves J_0(t) = 3 t J_1(t) inside (0, j_{0,1}).
    """
    g = lambda t: np.cbrt(t) * _sp.j0(t)
    lo, hi = 0.2, 2.3
    inv_phi = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    for _ in range(60):
        if g(c) > g(d):
            hi, d = d, c
            c = hi - inv_phi * (hi - lo)
        else:
            lo, c = c, d
            d = lo + inv_phi * (hi - lo)
    t = 0.5 * (lo + hi)
    for _ in range(8):
        h = _sp.j0(t) - 3.0 * t * _sp.j1(t)
        hp = -_sp.j1(t) - 3.0 * t * _sp.j0(t)
        t -= h / hp
    return float(np.cbrt(t) * _sp.j0(t))


def landau_bound_margin(mu: float, n: int = 20, lo: float = 0.1,
                        hi: float = 100.0) -> float:
    """Worst slack of I_mu(sqrt x) K_mu(sqrt x) <= pi c_L^2 / (sqrt 3 x^{2/3})
    over a log grid; nonpositive return means the bound holds there.

    The x^{2/3} decay outpaces the product's x^{1/2} tail, so the bound
    is a bounded-range statement; the default grid stops at x = 100.
    """
    cl2 = landau_constant() ** 2
    x = np.geomspace(lo, hi, n)
    r = np.sqrt(x)
    prod = _sp.ive(mu, r) * _sp.kve(mu, r)
    return float(np.max(prod * np.sqrt(3.0) * x ** (2.0 / 3.0) / np.pi - cl2))


# ----------------------------------------------------------------------
# Default target lists
# ----------------------------------------------------------------------

_KINDS = {**LT_KINDS, **DIST_KINDS}
_DEFAULTS = {**_LT_DEFAULTS, **DIST_DEFAULTS}


def _default(label):
    return _KINDS[label](*_DEFAULTS[label])


def bernstein_targets():
    """(label, spec) pairs for every proven-infinitely-divisible
    Laplace transform, at its default parameters."""
    return [(k, _default(k)) for k in _KINDS if k != "nchisq"]


def selfdecomp_targets():
    return [(k, _default(k))
            for k in ("mckay1", "kdist", "gig", "rho", "ikmu", "theta")]


def pick_targets():
    return [("mckay1", McKayI(1.0, 1.0, 2.0)), ("rho", Rho(1.0, 1.0))] + [
        (k, _default(k)) for k in ("ikmu", "theta", "kdist", "gammaquot")]


def profile_targets():
    """(mu, lam, u) triples for the noncentral chi-square profile signs.

    Both derivative-sign claims are sufficient conditions; the triples
    sit well inside the region where the signs actually hold for every
    u (empirically lam <~ mu/2 for convexity), not at the boundary of
    the claimed parameter ranges, where the convexity can fail.
    """
    return [(1.0, 0.4, 1.0), (2.0, 0.8, 0.5), (3.0, 1.2, 2.0)]
