"""Modified-Bessel probability distributions.

Eight families whose density involves I_mu or K_mu (or which arise as
companions in the same circle of ideas): the two McKay types, their
four-parameter generalization, the squared-Bessel McKay variant, the
K-distribution (gamma-gamma), the generalized inverse Gaussian, the
quotient of two gamma variables, and the noncentral chi-square.

Each family is a frozen dataclass whose methods give a log-space
density, the closed-form Laplace transform where one exists, the
derivative ladder of phi' = -(ln L)' for the infinite-divisibility
checks and the imaginary part of the logarithmic MGF derivative on the
upper half plane for the Pick-function tests; the hyperbolic profile
f(uv) f(u/v) as a function of w = v + 1/v is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.special as _sp

from .errors import (ParameterError, UnsupportedVariantError, points,
                     real_array, upper_half_plane)
from .quad.tanhsinh import (half_line_piece, integrate_pieces, run_ends,
                            spec_plan)
from .smoothfn import (CauchyLadder, Ladder, PowerLadder, RationalLadder,
                       StieltjesLadder, k_ratio_ladder)
from .specfun import _bessel_scaled, tricomi_psi
from .stieltjes import make_identity

__all__ = [
    "McKayI", "McKayII", "GenMcKay", "SqMcKay", "KDist", "GIG",
    "GammaQuotient", "NoncentralChiSq", "DIST_KINDS", "DIST_DEFAULTS",
    "log_pdf", "pdf", "laplace_closed", "mgf_logderiv_im", "hcm_profile",
    "OMEGA_ANCHOR", "format_dist",
]


class _Family:
    """Methods shared by the families; what a family lacks raises."""

    def laplace(self, x):
        raise UnsupportedVariantError(f"no Laplace transform for {self!r}")

    def phi_ladder(self) -> Ladder:
        raise UnsupportedVariantError(f"no Laplace transform for {self!r}")

    def lt_value_complex(self, z):
        raise UnsupportedVariantError(f"no continuation for {self!r}")

    def mgf_logderiv_im(self, re, im):
        raise UnsupportedVariantError(f"no Pick kernel for {self!r}")

    def pick_im(self, re, im):
        return mgf_logderiv_im(self, re, im)

    def hcm_ladder(self, u: float):
        """Exact ladder of the hyperbolic profile in w, or None."""
        return None


@dataclass(frozen=True)
class McKayI(_Family):
    """Density ~ x^mu e^{-bx} I_mu(ax); mu > -1/2, b > a > 0."""
    mu: float
    a: float
    b: float
    anchor = "Theorem th1"
    defaults = (1.0, 0.5, 1.5)

    def __post_init__(self):
        if not (self.mu > -0.5 and self.b > self.a > 0.0):
            raise ParameterError("McKayI requires mu > -1/2 and b > a > 0")

    def log_pdf(self, x):
        mu, a, b = self.mu, self.a, self.b
        lc = (0.5 * np.log(np.pi) + (mu + 0.5) * np.log(b * b - a * a)
              - mu * np.log(2.0 * a) - _sp.gammaln(mu + 0.5))
        return lc + mu * np.log(x) - b * x + _log_iv(mu, a * x)

    def laplace(self, x):
        mu, a, b = self.mu, self.a, self.b
        return ((b * b - a * a) / ((x + b) ** 2 - a * a)) ** (mu + 0.5)

    def phi_ladder(self):
        mu, a, b = self.mu, self.a, self.b
        return RationalLadder(((mu + 0.5, b - a), (mu + 0.5, b + a)))

    def mgf_logderiv_im(self, x, y):
        mu, a, b = self.mu, self.a, self.b
        return (mu + 0.5) * (y / ((x + a - b) ** 2 + y * y)
                             + y / ((x - a - b) ** 2 + y * y))


@dataclass(frozen=True)
class McKayII(_Family):
    """Density ~ x^{mu+1} e^{-bx} I_mu(ax); mu > -1, b > a > 0."""
    mu: float
    a: float
    b: float
    anchor = "Theorem th2"
    defaults = (0.7, 0.6, 1.2)

    def __post_init__(self):
        if not (self.mu > -1.0 and self.b > self.a > 0.0):
            raise ParameterError("McKayII requires mu > -1 and b > a > 0")

    def log_pdf(self, x):
        mu, a, b = self.mu, self.a, self.b
        lc = (0.5 * np.log(np.pi) + (mu + 1.5) * np.log(b * b - a * a)
              - np.log(2.0 * b) - mu * np.log(2.0 * a) - _sp.gammaln(mu + 1.5))
        return lc + (mu + 1.0) * np.log(x) - b * x + _log_iv(mu, a * x)

    def laplace(self, x):
        mu, a, b = self.mu, self.a, self.b
        return (1.0 + x / b) * (
            (b * b - a * a) / ((x + b) ** 2 - a * a)) ** (mu + 1.5)

    def phi_ladder(self):
        mu, a, b = self.mu, self.a, self.b
        return RationalLadder(
            ((mu + 1.5, b - a), (mu + 1.5, b + a), (-1.0, b)))


class _GaussMcKay(_Family):
    """Families with L(x) = (b/(x+b))^e F(A, B; C; q(x)) / F(A, B; C; q(0)),
    q(x) = (k a/(x+b))^2 and F Gauss's hypergeometric function, from the
    family's row (e, (A, B, C), k); L is singular at x = k a - b.  The
    ladder is a Cauchy circle on phi' itself, in closed form through
    F' = (AB/C) F(A+1, B+1; C+1; .) (DLMF 15.5.1):

        phi'(z) = (e + 2 q (AB/C) F(A+1, B+1; C+1; q) / F(A, B; C; q))
                  / (z + b),

    so no ladder takes a complex log."""

    def _q(self, x):
        return (self.row[2] * self.a / (x + self.b)) ** 2

    def _f0(self):
        return _sp.hyp2f1(*self.row[1], self._q(0.0))

    def laplace(self, x):
        e, h, _ = self.row
        return ((self.b / (x + self.b)) ** e * _sp.hyp2f1(*h, self._q(x))
                / self._f0())

    def _phi(self, z):
        e, (A, B, C), _ = self.row
        q = self._q(z)
        return (e + 2.0 * q * (A * B / C)
                * _sp.hyp2f1(A + 1.0, B + 1.0, C + 1.0, q)
                / _sp.hyp2f1(A, B, C, q)) / (z + self.b)

    def phi_ladder(self):
        # the radius reaches toward the true singularity at x = k a - b
        gap = self.b - self.row[2] * self.a
        return CauchyLadder(self._phi, radius_factor=0.6,
                            radius_shift=0.9 * gap)


@dataclass(frozen=True)
class GenMcKay(_GaussMcKay):
    """Density ~ x^{nu-1} e^{-bx} I_mu(ax); mu+1 > 0, mu+nu > 0, b > a > 0."""
    mu: float
    nu: float
    a: float
    b: float
    anchor = "Theorem th3"
    defaults = (0.8, 1.2, 0.5, 1.4)
    row = property(lambda s: (s.mu + s.nu, (0.5 * (s.mu + s.nu),
                                           0.5 * (s.mu + s.nu + 1.0),
                                           s.mu + 1.0), 1.0))

    def __post_init__(self):
        if not (self.mu + 1.0 > 0.0 and self.mu + self.nu > 0.0
                and self.b > self.a > 0.0):
            raise ParameterError(
                "GenMcKay requires mu+1 > 0, mu+nu > 0 and b > a > 0")

    def log_pdf(self, x):
        mu, nu, a, b = self.mu, self.nu, self.a, self.b
        lc = -(mu * np.log(0.5 * a) - (mu + nu) * np.log(b)
               + _sp.gammaln(mu + nu) - _sp.gammaln(mu + 1.0)
               + np.log(self._f0()))
        return lc + (nu - 1.0) * np.log(x) - b * x + _log_iv(mu, a * x)


@dataclass(frozen=True)
class SqMcKay(_GaussMcKay):
    """Density ~ x^{2 mu} e^{-bx} I_mu(ax)^2; mu > -1/4, b > 2a > 0."""
    mu: float
    a: float
    b: float
    anchor = "Theorem th4"
    defaults = (0.5, 0.3, 1.0)
    row = property(lambda s: (4.0 * s.mu + 1.0,
                              (s.mu + 0.5, 2.0 * s.mu + 0.5, s.mu + 1.0), 2.0))

    def __post_init__(self):
        if not (self.mu > -0.25 and self.b > 2.0 * self.a > 0.0):
            raise ParameterError("SqMcKay requires mu > -1/4 and b > 2a > 0")

    def log_pdf(self, x):
        mu, a, b = self.mu, self.a, self.b
        lc = -(4.0 * mu * np.log(2.0) + 2.0 * mu * np.log(a) - np.log(np.pi)
               - (4.0 * mu + 1.0) * np.log(b) + _sp.gammaln(mu + 0.5)
               + _sp.gammaln(2.0 * mu + 0.5) - _sp.gammaln(mu + 1.0)
               + np.log(self._f0()))
        return lc + 2.0 * mu * np.log(x) - b * x + 2.0 * _log_iv(mu, a * x)


class _QuotientMixture(_Family):
    """Families with phi'(x) = integral of coef omega(t) / (x + node(t)) dt,
    omega = kdist_quotient_kernel(al, be, .); _mixture() gives
    (coef, al, be, node).  L is a Tricomi psi, _laplace_at(x) over an
    array x > 0; L(0) = 1."""

    def laplace(self, x):
        out = np.ones_like(x)
        at = x != 0.0
        out[at] = self._laplace_at(x[at])
        return out

    def phi_ladder(self):
        coef, al, be, node = self._mixture()
        return StieltjesLadder.from_kernel(
            lambda t: kdist_quotient_kernel(al, be, t), coef, node)

    # the spec's plan: per exp-sinh level omega times the Jacobian, as
    # the nodes depend on the level only, not on (re, im)
    _plan = property(spec_plan)

    def mgf_logderiv_im(self, x, y):
        # one exp-sinh row per point: the rows share every level's nodes
        # and so every kernel evaluation
        coef, al, be, node = self._mixture()
        x, y = x[:, None], y[:, None]

        def weight(t, rows):
            yr = y[rows]
            return coef * yr / ((node(t) - x[rows]) ** 2 + yr * yr)

        piece = half_line_piece(
            self._plan, lambda t: kdist_quotient_kernel(al, be, t))
        res = integrate_pieces([piece], weight, x.size, tol=1e-11)
        return np.array([r.value for r in res])


@dataclass(frozen=True)
class KDist(_QuotientMixture):
    """Gamma-gamma compound: product of two independent gamma variables."""
    alpha: float
    beta: float
    mu: float
    anchor = "Theorem thK"
    defaults = (1.2, 2.0, 1.0)

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0 and self.mu > 0.0):
            raise ParameterError("KDist requires alpha, beta, mu > 0")

    def log_pdf(self, x):
        al, be, mu = self.alpha, self.beta, self.mu
        r = al * be / mu
        lc = (np.log(2.0) - _sp.gammaln(al) - _sp.gammaln(be)
              + 0.5 * (al + be) * np.log(r))
        return (lc + (0.5 * (al + be) - 1.0) * np.log(x)
                + _log_kv(al - be, 2.0 * np.sqrt(r * x)))

    def _laplace_at(self, x):
        al, be, mu = self.alpha, self.beta, self.mu
        arg = al * be / (mu * x)
        return arg ** al * tricomi_psi(al, 1.0 + al - be, arg)

    def _mixture(self):
        # nodes r/t with r = al be / mu; for alpha > beta the kernel is
        # rebuilt with the roles exchanged, hence the coefficient min
        al, be = self.alpha, self.beta
        r = al * be / self.mu
        return min(al, be), al, be, lambda t: r / t


@dataclass(frozen=True)
class GIG(_Family):
    """Generalized inverse Gaussian; a, b > 0, mu real."""
    mu: float
    a: float
    b: float
    anchor = "Theorem Thnewgigd"
    defaults = (0.7, 1.0, 1.5)

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ParameterError("GIG requires a, b > 0")

    def log_pdf(self, x):
        mu, a, b = self.mu, self.a, self.b
        lc = (0.5 * mu * np.log(a / b) - np.log(2.0)
              - _log_kv(mu, np.sqrt(a * b)))
        return lc + (mu - 1.0) * np.log(x) - 0.5 * (a * x + b / x)

    def laplace(self, x):
        mu, a, b = self.mu, self.a, self.b
        return ((a / (2.0 * x + a)) ** (0.5 * mu)
                * _sp.kv(mu, np.sqrt(b * (2.0 * x + a)))
                / _sp.kv(mu, np.sqrt(a * b)))

    def phi_ladder(self):
        """phi'(x) = 2 mu/(2x+a) + (b/g) K_{mu-1}(g)/K_mu(g), g = sqrt(b(2x+a)),
        as a rational term plus a shifted K-ratio Stieltjes ladder; for
        mu < 0, K_{-nu} = K_nu and K_{nu+1} = K_{nu-1} + (2 nu/g) K_nu
        cancel the rational term and leave the ratio at order |mu|."""
        mu, a, b = self.mu, self.a, self.b
        kr = k_ratio_ladder(abs(mu), np.sqrt(2.0 * b))
        shifted = StieltjesLadder(tuple(np.asarray(kr.nodes) + 0.5 * a),
                                  kr.masses)
        return RationalLadder(((max(mu, 0.0), 0.5 * a),)) + shifted


@dataclass(frozen=True)
class GammaQuotient(_QuotientMixture):
    """Quotient X/Y of independent gammas with shapes alpha, alpha0 and
    rates beta, beta0."""
    alpha: float
    beta: float
    alpha0: float
    beta0: float
    anchor = "Lemma 4"
    defaults = (1.2, 1.0, 0.8, 1.5)

    def __post_init__(self):
        if min(self.alpha, self.beta, self.alpha0, self.beta0) <= 0.0:
            raise ParameterError("GammaQuotient requires positive parameters")

    def log_pdf(self, x):
        al, be, al0, be0 = self.alpha, self.beta, self.alpha0, self.beta0
        r = be0 / be
        lc = (_sp.gammaln(al + al0) - _sp.gammaln(al) - _sp.gammaln(al0)
              + al * np.log(r))
        return lc + (al - 1.0) * np.log(x) - (al + al0) * np.log1p(r * x)

    def _laplace_at(self, x):
        al, be, al0, be0 = self.alpha, self.beta, self.alpha0, self.beta0
        # quotient density has scale beta/beta0 relative to the unit
        # beta-prime law, hence the rescaled argument of psi
        s = (be / be0) * x
        return np.exp(_sp.gammaln(al + al0) - _sp.gammaln(al0)) \
            * tricomi_psi(al, 1.0 - al0, s)

    def _mixture(self):
        # L(x) = const * psi(al, 1 - al0, r x) with r = beta/beta0, whose
        # Stieltjes kernel is omega_{al, al+al0} with nodes at t / r
        al, r = self.alpha, self.beta / self.beta0
        return al, al, al + self.alpha0, lambda t: t / r

    def hcm_ladder(self, u):
        """The profile collapses to A (w + B)^{-(alpha+alpha0)}."""
        al, al0, r = self.alpha, self.alpha0, self.beta0 / self.beta
        c = np.exp(_sp.gammaln(al + al0) - _sp.gammaln(al)
                   - _sp.gammaln(al0) + al * np.log(r))
        coef = c * c * u ** (2.0 * al - 2.0) * (r * u) ** (-(al + al0))
        shift = (1.0 + (r * u) ** 2) / (r * u)
        return PowerLadder(coef, -(al + al0), shift)


@dataclass(frozen=True)
class NoncentralChiSq(_Family):
    """Noncentral chi-square with mu degrees of freedom, noncentrality lam."""
    mu: float
    lam: float
    anchor = "Theorem noncentralchihcm"
    defaults = (1.0, 0.4)

    def __post_init__(self):
        if not (self.mu > 0.0 and self.lam > 0.0):
            raise ParameterError("NoncentralChiSq requires mu, lam > 0")

    def log_pdf(self, x):
        mu, lam = self.mu, self.lam
        return (-np.log(2.0) - 0.5 * (x + lam)
                + (0.25 * mu - 0.5) * np.log(x / lam)
                + _log_iv(0.5 * mu - 1.0, np.sqrt(lam * x)))


DIST_KINDS = {
    "mckay1": McKayI,
    "mckay2": McKayII,
    "genmckay": GenMcKay,
    "sqmckay": SqMcKay,
    "kdist": KDist,
    "gig": GIG,
    "gammaquot": GammaQuotient,
    "nchisq": NoncentralChiSq,
}
_KIND_NAMES = {cls: name for name, cls in DIST_KINDS.items()}

# representative in-domain parameters (positional) of the report rows
DIST_DEFAULTS = {name: cls.defaults for name, cls in DIST_KINDS.items()}


def _log_iv(nu, z):
    """log I_nu(z) for z >= 0 from the scaled I of specfun (Hankel's
    expansion past 1e8); for complex z, a log of I_nu(z) (scipy scales
    it there by e^{-|Re z|})."""
    if np.iscomplexobj(z):
        return np.log(_sp.ive(nu, z)) + np.abs(np.real(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(_bessel_scaled("I", nu, z)) + z


def _log_kv(nu, z):
    """log K_nu(z) as _log_iv; kve scales by e^z for complex z too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(_bessel_scaled("K", nu, z)) - z


def log_pdf(d, x):
    """Natural log of the density of d at x > 0 (vectorized)."""
    return d.log_pdf(points(x, "log_pdf"))


def pdf(d, x):
    """Density of d at x > 0.  A read-only 1-d float array (a node table
    of the quadrature, see tanhsinh.de_level, or a run of them, see
    tanhsinh.run_ends) is answered level by level from d's plan
    (spec_plan), keyed by each level's bytes, so every Laplace point and
    every row on one level shares one evaluation; the values are the
    same bits as a fresh evaluation, and read-only."""
    if (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == float
            and not x.flags.writeable):
        plan, ends, out = spec_plan(d), run_ends(x.size), []
        for i, j in zip(ends, ends[1:]):
            key = x[i:j].tobytes()
            if key not in plan:
                plan[key] = np.exp(log_pdf(d, x[i:j]))
                plan[key].setflags(write=False)
            out.append(plan[key])
        v = out[0] if len(out) == 1 else np.concatenate(out)
        v.setflags(write=False)
        return v
    return np.exp(log_pdf(d, x))


def laplace_closed(d, x):
    """Closed-form Laplace transform L(x) = E e^{-xX} at real finite
    x >= 0 (errors.points), else DomainError.

    A scalar x is evaluated as a one-point array, so an array x gives
    the values of the scalar calls bit for bit.
    """
    x = points(x, "laplace_closed", closed=True)
    return d.laplace(x.reshape(-1)).reshape(x.shape)[()]


OMEGA_ANCHOR = "eq. (pdfome)"


def kdist_quotient_kernel(al: float, be: float, t):
    """Density omega_{alpha,beta}(t) of the gamma quotient underlying the
    K-distribution Bernstein derivative.

    Always a probability density: for alpha > beta the representation
    is rebuilt from the argument-swapped Laplace transform, which
    exchanges the roles of alpha and beta in the normalizing constant
    (the Bernstein integrand then carries the coefficient
    min(alpha, beta) rather than alpha).

    It is the TRICOMI_RATIO catalog kernel in the orientation with c < 1,
    at (a, c) = (min(alpha, beta), 1 - |alpha - beta|), so alpha != beta.
    Integer alpha - beta makes the Tricomi boundary pair's connection
    coefficients singular, so the kernel is then evaluated at
    beta -/+ delta and averaged, which cancels the first-order term of
    the (smooth) beta-dependence.
    """
    if al == be:
        raise ParameterError("kernel requires alpha != beta")
    gap = al - be - np.round(al - be)
    if abs(gap) < 1e-6:
        delta = 1e-5
        return 0.5 * (kdist_quotient_kernel(al, be - delta, t)
                      + kdist_quotient_kernel(al, be + delta, t))
    lo, hi = min(al, be), max(al, be)
    # e^{-t} underflows from t = 700 on, out to inf: there the kernel is 0
    t = real_array(t, "t")
    live = ~(t >= 700.0)
    out = np.zeros(t.shape)
    out[live] = make_identity("TRICOMI_RATIO", a=lo, c=1.0 + lo - hi
                              ).kernel_density(t[live])
    return out


def mgf_logderiv_im(d, re, im):
    """Im[psi'(s)/psi(s)] for psi(s) = L(-s) at s = re + i im, im > 0,
    elementwise over broadcast arrays re and im.

    Supported: McKayI (rational closed form), KDist and GammaQuotient
    (positive Stieltjes kernels).  The family's method takes the points
    as two 1-d arrays, so a scalar point is a one-point array.
    """
    re, im = upper_half_plane(re, im, "mgf_logderiv_im")
    return d.mgf_logderiv_im(re.reshape(-1), im.reshape(-1)
                             ).reshape(re.shape)[()]


def _hyperbolic_profile(g, u: float, w):
    """g(uv) g(u/v) with v + 1/v = w, v = (w + sqrt(w^2 - 4))/2.

    The product is symmetric under v <-> 1/v, so it does not see the
    branch of the square root and continues analytically in w off
    (-oo, -2]; for Re w > 0 both uv and u/v have a positive real part.
    """
    v = 0.5 * (w + np.sqrt(w * w - 4.0))
    return g(u * v) * g(u / v)


def hcm_profile(d, u: float, w):
    """Hyperbolic profile f(uv) f(u/v) with v + 1/v = w, w > 2."""
    w = points(w, "hcm_profile", low=2.0, name="w")
    return _hyperbolic_profile(lambda x: pdf(d, x), u, w)


def format_dist(d) -> str:
    """Plain key-value serialization, e.g. 'kind=mckay1 mu=0.5 a=1 b=2'."""
    kind = _KIND_NAMES[type(d)]
    parts = [f"kind={kind}"]
    for f in fields(d):
        parts.append(f"{f.name}={getattr(d, f.name):g}")
    return " ".join(parts)

