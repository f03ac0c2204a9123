"""Modified-Bessel probability distributions.

Eight families whose density involves I_mu or K_mu (or which arise as
companions in the same circle of ideas): the two McKay types, their
four-parameter generalization, the squared-Bessel McKay variant, the
K-distribution (gamma-gamma), the generalized inverse Gaussian, the
quotient of two gamma variables, and the noncentral chi-square.

Each family gets a log-space density, the closed-form Laplace transform
where one exists, the negative logarithmic derivative of the Laplace
transform (the Bernstein-function derivative used by the
infinite-divisibility checks), the imaginary part of the logarithmic
MGF derivative on the upper half plane for the Pick-function tests, and
the hyperbolic profile f(uv) f(u/v) as a function of w = v + 1/v.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.special as _sp

from .errors import DomainError, ParameterError, UnsupportedVariantError
from .specfun import tricomi_boundary_mod2, tricomi_psi

__all__ = [
    "McKayI", "McKayII", "GenMcKay", "SqMcKay", "KDist", "GIG",
    "GammaQuotient", "NoncentralChiSq", "DIST_KINDS",
    "log_pdf", "pdf", "laplace_closed", "neg_logderiv_lt",
    "mgf_logderiv_im", "hcm_profile", "parse_dist", "format_dist",
]


@dataclass(frozen=True)
class McKayI:
    """Density ~ x^mu e^{-bx} I_mu(ax); mu > -1/2, b > a > 0."""
    mu: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.mu > -0.5 and self.b > self.a > 0.0):
            raise ParameterError("McKayI requires mu > -1/2 and b > a > 0")


@dataclass(frozen=True)
class McKayII:
    """Density ~ x^{mu+1} e^{-bx} I_mu(ax); mu > -1, b > a > 0."""
    mu: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.mu > -1.0 and self.b > self.a > 0.0):
            raise ParameterError("McKayII requires mu > -1 and b > a > 0")


@dataclass(frozen=True)
class GenMcKay:
    """Density ~ x^{nu-1} e^{-bx} I_mu(ax); mu+1 > 0, mu+nu > 0, b > a > 0."""
    mu: float
    nu: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.mu + 1.0 > 0.0 and self.mu + self.nu > 0.0
                and self.b > self.a > 0.0):
            raise ParameterError(
                "GenMcKay requires mu+1 > 0, mu+nu > 0 and b > a > 0")


@dataclass(frozen=True)
class SqMcKay:
    """Density ~ x^{2 mu} e^{-bx} I_mu(ax)^2; mu > -1/4, b > 2a > 0."""
    mu: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.mu > -0.25 and self.b > 2.0 * self.a > 0.0):
            raise ParameterError("SqMcKay requires mu > -1/4 and b > 2a > 0")


@dataclass(frozen=True)
class KDist:
    """Gamma-gamma compound: product of two independent gamma variables."""
    alpha: float
    beta: float
    mu: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0 and self.mu > 0.0):
            raise ParameterError("KDist requires alpha, beta, mu > 0")


@dataclass(frozen=True)
class GIG:
    """Generalized inverse Gaussian; a, b > 0, mu real."""
    mu: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ParameterError("GIG requires a, b > 0")


@dataclass(frozen=True)
class GammaQuotient:
    """Quotient X/Y of independent gammas with shapes alpha, alpha0 and
    rates beta, beta0."""
    alpha: float
    beta: float
    alpha0: float
    beta0: float

    def __post_init__(self):
        if min(self.alpha, self.beta, self.alpha0, self.beta0) <= 0.0:
            raise ParameterError("GammaQuotient requires positive parameters")


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-square with mu degrees of freedom, noncentrality lam."""
    mu: float
    lam: float

    def __post_init__(self):
        if not (self.mu > 0.0 and self.lam > 0.0):
            raise ParameterError("NoncentralChiSq requires mu, lam > 0")


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


_ASYMPTOTIC_Z = 1e8


def _hankel_series_log(nu, z, sign):
    """log of the Hankel asymptotic factor 1 -+ (4nu^2-1)/(8z) + ...;
    three terms suffice to machine precision for z > 1e8."""
    m = 4.0 * nu * nu
    t1 = (m - 1.0) / (8.0 * z)
    t2 = t1 * (m - 9.0) / (16.0 * z)
    t3 = t2 * (m - 25.0) / (24.0 * z)
    return np.log1p(sign * t1 + t2 + sign * t3)


def _log_iv(nu, z):
    """log I_nu(z) for z >= 0, stable for large z via the scaled form
    (scipy's scaled Bessel functions give up past z ~ 1e9, where the
    Hankel expansion is exact to machine precision)."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.log(_sp.ive(nu, np.minimum(z, _ASYMPTOTIC_Z))) + z
        zs = np.maximum(z, _ASYMPTOTIC_Z)
        large = z - 0.5 * np.log(2.0 * np.pi * zs) \
            + _hankel_series_log(nu, zs, -1.0)
    return np.where(z > _ASYMPTOTIC_Z, large, small)


def _log_kv(nu, z):
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.log(_sp.kve(nu, np.minimum(z, _ASYMPTOTIC_Z))) - z
        zs = np.maximum(z, _ASYMPTOTIC_Z)
        large = -z + 0.5 * np.log(0.5 * np.pi / zs) \
            + _hankel_series_log(nu, zs, 1.0)
    return np.where(z > _ASYMPTOTIC_Z, large, small)


def log_pdf(d, x):
    """Natural log of the density of d at x > 0 (vectorized)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("densities are supported on x > 0")
    if isinstance(d, McKayI):
        mu, a, b = d.mu, d.a, d.b
        lc = (0.5 * np.log(np.pi) + (mu + 0.5) * np.log(b * b - a * a)
              - mu * np.log(2.0 * a) - _sp.gammaln(mu + 0.5))
        return lc + mu * np.log(x) - b * x + _log_iv(mu, a * x)
    if isinstance(d, McKayII):
        mu, a, b = d.mu, d.a, d.b
        lc = (0.5 * np.log(np.pi) + (mu + 1.5) * np.log(b * b - a * a)
              - np.log(2.0 * b) - mu * np.log(2.0 * a) - _sp.gammaln(mu + 1.5))
        return lc + (mu + 1.0) * np.log(x) - b * x + _log_iv(mu, a * x)
    if isinstance(d, GenMcKay):
        mu, nu, a, b = d.mu, d.nu, d.a, d.b
        f0 = _sp.hyp2f1(0.5 * (mu + nu), 0.5 * (mu + nu + 1.0), mu + 1.0,
                        (d.a / d.b) ** 2)
        lc = -(mu * np.log(0.5 * a) - (mu + nu) * np.log(b)
               + _sp.gammaln(mu + nu) - _sp.gammaln(mu + 1.0) + np.log(f0))
        return lc + (nu - 1.0) * np.log(x) - b * x + _log_iv(mu, a * x)
    if isinstance(d, SqMcKay):
        mu, a, b = d.mu, d.a, d.b
        f0 = _sp.hyp2f1(mu + 0.5, 2.0 * mu + 0.5, mu + 1.0, 4.0 * a * a / (b * b))
        lc = -(4.0 * mu * np.log(2.0) + 2.0 * mu * np.log(a) - np.log(np.pi)
               - (4.0 * mu + 1.0) * np.log(b) + _sp.gammaln(mu + 0.5)
               + _sp.gammaln(2.0 * mu + 0.5) - _sp.gammaln(mu + 1.0)
               + np.log(f0))
        return lc + 2.0 * mu * np.log(x) - b * x + 2.0 * _log_iv(mu, a * x)
    if isinstance(d, KDist):
        al, be, mu = d.alpha, d.beta, d.mu
        r = al * be / mu
        lc = (np.log(2.0) - _sp.gammaln(al) - _sp.gammaln(be)
              + 0.5 * (al + be) * np.log(r))
        return (lc + (0.5 * (al + be) - 1.0) * np.log(x)
                + _log_kv(al - be, 2.0 * np.sqrt(r * x)))
    if isinstance(d, GIG):
        mu, a, b = d.mu, d.a, d.b
        lc = (0.5 * mu * np.log(a / b) - np.log(2.0)
              - _log_kv(mu, np.sqrt(a * b)))
        return lc + (mu - 1.0) * np.log(x) - 0.5 * (a * x + b / x)
    if isinstance(d, GammaQuotient):
        al, be, al0, be0 = d.alpha, d.beta, d.alpha0, d.beta0
        r = be0 / be
        lc = (_sp.gammaln(al + al0) - _sp.gammaln(al) - _sp.gammaln(al0)
              + al * np.log(r))
        return lc + (al - 1.0) * np.log(x) - (al + al0) * np.log1p(r * x)
    if isinstance(d, NoncentralChiSq):
        mu, lam = d.mu, d.lam
        return (-np.log(2.0) - 0.5 * (x + lam)
                + (0.25 * mu - 0.5) * np.log(x / lam)
                + _log_iv(0.5 * mu - 1.0, np.sqrt(lam * x)))
    raise ParameterError(f"unknown distribution {d!r}")


def pdf(d, x):
    return np.exp(log_pdf(d, x))


def laplace_closed(d, x):
    """Closed-form Laplace transform L(x) = E e^{-xX}, x >= 0.

    Accepts complex x where the closed form continues analytically
    (everything except KDist, whose Tricomi factor is evaluated for
    real arguments only here).
    """
    if isinstance(d, McKayI):
        mu, a, b = d.mu, d.a, d.b
        return ((b * b - a * a) / ((x + b) ** 2 - a * a)) ** (mu + 0.5)
    if isinstance(d, McKayII):
        mu, a, b = d.mu, d.a, d.b
        return (1.0 + x / b) * (
            (b * b - a * a) / ((x + b) ** 2 - a * a)) ** (mu + 1.5)
    if isinstance(d, GenMcKay):
        mu, nu, a, b = d.mu, d.nu, d.a, d.b
        h1, h2, h3 = 0.5 * (mu + nu), 0.5 * (mu + nu + 1.0), mu + 1.0
        f0 = _sp.hyp2f1(h1, h2, h3, (a / b) ** 2)
        fx = _sp.hyp2f1(h1, h2, h3, (a / (x + b)) ** 2)
        return (b / (x + b)) ** (mu + nu) * fx / f0
    if isinstance(d, SqMcKay):
        mu, a, b = d.mu, d.a, d.b
        h1, h2, h3 = mu + 0.5, 2.0 * mu + 0.5, mu + 1.0
        f0 = _sp.hyp2f1(h1, h2, h3, 4.0 * a * a / (b * b))
        fx = _sp.hyp2f1(h1, h2, h3, 4.0 * a * a / (x + b) ** 2)
        return (b / (x + b)) ** (4.0 * mu + 1.0) * fx / f0
    if isinstance(d, KDist):
        al, be, mu = d.alpha, d.beta, d.mu
        if x == 0.0:
            return 1.0
        arg = al * be / (mu * x)
        return arg ** al * tricomi_psi(al, 1.0 + al - be, arg)
    if isinstance(d, GIG):
        mu, a, b = d.mu, d.a, d.b
        if np.iscomplexobj(np.asarray(x)):
            import scipy.special as sp
            kz = sp.kv(mu, np.sqrt(b * (2.0 * x + a)))
        else:
            kz = _sp.kv(mu, np.sqrt(b * (2.0 * x + a)))
        return ((a / (2.0 * x + a)) ** (0.5 * mu) * kz
                / _sp.kv(mu, np.sqrt(a * b)))
    if isinstance(d, GammaQuotient):
        al, be, al0, be0 = d.alpha, d.beta, d.alpha0, d.beta0
        if x == 0.0:
            return 1.0
        # quotient density has scale beta/beta0 relative to the unit
        # beta-prime law, hence the rescaled argument of psi
        s = (be / be0) * x
        return np.exp(_sp.gammaln(al + al0) - _sp.gammaln(al0)) \
            * tricomi_psi(al, 1.0 - al0, s)
    if isinstance(d, NoncentralChiSq):
        raise UnsupportedVariantError(
            "NoncentralChiSq has no closed Laplace transform in this catalog")
    raise ParameterError(f"unknown distribution {d!r}")


def _gen_mckay_logderiv(mu, nu, a, b, x):
    h1, h2, h3 = 0.5 * (mu + nu), 0.5 * (mu + nu + 1.0), mu + 1.0
    q = (a / (x + b)) ** 2
    ratio = _sp.hyp2f1(h1 + 1.0, h2 + 1.0, h3 + 1.0, q) / _sp.hyp2f1(h1, h2, h3, q)
    return ((mu + nu) / (x + b)
            + a * a * (mu + nu) * (mu + nu + 1.0)
            / (2.0 * (mu + 1.0) * (x + b) ** 3) * ratio)


def _sq_mckay_logderiv(mu, a, b, x):
    h1, h2, h3 = mu + 0.5, 2.0 * mu + 0.5, mu + 1.0
    q = 4.0 * a * a / (x + b) ** 2
    ratio = _sp.hyp2f1(h1 + 1.0, h2 + 1.0, h3 + 1.0, q) / _sp.hyp2f1(h1, h2, h3, q)
    return ((4.0 * mu + 1.0) / (x + b)
            + 8.0 * a * a * h1 * h2 / (h3 * (x + b) ** 3) * ratio)


def kdist_quotient_kernel(al: float, be: float, t):
    """Density omega_{alpha,beta}(t) of the gamma quotient underlying the
    K-distribution Bernstein derivative.

    Always a probability density: for alpha > beta the representation
    is rebuilt from the argument-swapped Laplace transform, which
    exchanges the roles of alpha and beta in the normalizing constant
    (the Bernstein integrand then carries the coefficient
    min(alpha, beta) rather than alpha).

    Needs alpha != beta; the orientation with c < 1 of the Tricomi
    boundary pair is chosen automatically.  Integer alpha - beta makes
    the boundary pair's connection coefficients singular, so the kernel
    is then evaluated at beta -/+ delta and averaged, which cancels the
    first-order term of the (smooth) beta-dependence.
    """
    if al == be:
        raise ParameterError("kernel requires alpha != beta")
    gap = al - be - np.round(al - be)
    if abs(gap) < 1e-6:
        delta = 1e-5
        return 0.5 * (kdist_quotient_kernel(al, be - delta, t)
                      + kdist_quotient_kernel(al, be + delta, t))
    if al < be:
        a_, c_ = al, 1.0 + al - be
        expo = be - al - 1.0
        norm = np.exp(-_sp.gammaln(al + 1.0) - _sp.gammaln(be))
    else:
        # Kummer-transformed orientation, alpha and beta exchanged
        a_, c_ = be, 1.0 - al + be
        expo = al - be - 1.0
        norm = np.exp(-_sp.gammaln(be + 1.0) - _sp.gammaln(al))
    t = np.asarray(t, dtype=float)
    # e^{-t} underflows past ~745; the kernel is exactly zero there, so
    # those t skip the boundary evaluation
    dead = t >= 700.0
    ts = np.where(dead, 1.0, t)
    out = ts ** expo * np.exp(-ts) / tricomi_boundary_mod2(a_, c_, ts) * norm
    return np.where(dead, 0.0, out)


def neg_logderiv_lt(d, x, h_scale: float = 1e-3):
    """-(ln L)'(x): derivative of the Bernstein function of d.

    Closed forms everywhere except KDist (quadrature over the quotient
    kernel) and NoncentralChiSq (no Laplace transform here).
    """
    if isinstance(d, McKayI):
        mu, a, b = d.mu, d.a, d.b
        return (mu + 0.5) * (1.0 / (x + b - a) + 1.0 / (x + b + a))
    if isinstance(d, McKayII):
        mu, a, b = d.mu, d.a, d.b
        return ((mu + 1.5) / (x + b - a) + (mu + 1.5) / (x + b + a)
                - 1.0 / (x + b))
    if isinstance(d, GenMcKay):
        return _gen_mckay_logderiv(d.mu, d.nu, d.a, d.b, x)
    if isinstance(d, SqMcKay):
        return _sq_mckay_logderiv(d.mu, d.a, d.b, x)
    if isinstance(d, GIG):
        mu, a, b = d.mu, d.a, d.b
        g = np.sqrt(b * (2.0 * x + a))
        return 2.0 * mu / (2.0 * x + a) + b / g * _sp.kv(mu - 1.0, g) / _sp.kv(mu, g)
    if isinstance(d, GammaQuotient):
        al, al0 = d.alpha, d.alpha0
        r = d.beta / d.beta0
        s = r * x
        return r * al * tricomi_psi(al + 1.0, 2.0 - al0, s) \
            / tricomi_psi(al, 1.0 - al0, s)
    if isinstance(d, KDist):
        from .quad import integrate_singular_decay
        al, be, mu = d.alpha, d.beta, d.mu
        if al == be:
            # fall back to Richardson differencing of ln L
            return _richardson_logderiv(d, x, h_scale)
        r = al * be / mu
        coef = min(al, be)

        def f(t):
            return coef * kdist_quotient_kernel(al, be, t) / (x + r / t)

        return integrate_singular_decay(f, tol=1e-11).value
    if isinstance(d, NoncentralChiSq):
        raise UnsupportedVariantError(
            "NoncentralChiSq has no Laplace transform in this catalog")
    raise ParameterError(f"unknown distribution {d!r}")


def _richardson_logderiv(d, x, h_scale):
    """Central differences of -ln L with one Richardson refinement."""
    h = x * h_scale

    def g(y):
        return -np.log(laplace_closed(d, y))

    d1 = (g(x + h) - g(x - h)) / (2.0 * h)
    d2 = (g(x + 0.5 * h) - g(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def mgf_logderiv_im(d, re: float, im: float):
    """Im[psi'(s)/psi(s)] for psi(s) = L(-s) at s = re + i im, im > 0.

    Supported: McKayI (rational closed form), KDist and GammaQuotient
    (positive Stieltjes kernels).
    """
    if im <= 0.0:
        raise DomainError("mgf_logderiv_im requires im > 0")
    if isinstance(d, McKayI):
        mu, a, b = d.mu, d.a, d.b
        x, y = re, im
        return (mu + 0.5) * (y / ((x + a - b) ** 2 + y * y)
                             + y / ((x - a - b) ** 2 + y * y))
    if isinstance(d, KDist):
        from .quad import integrate_singular_decay
        al, be, mu = d.alpha, d.beta, d.mu
        if al == be:
            raise UnsupportedVariantError("KDist Pick kernel needs alpha != beta")
        r = al * be / mu
        coef = min(al, be)

        def f(t):
            return coef * kdist_quotient_kernel(al, be, t) * im \
                / ((r / t - re) ** 2 + im * im)

        return integrate_singular_decay(f, tol=1e-11).value
    if isinstance(d, GammaQuotient):
        from .quad import integrate_singular_decay
        al, al0 = d.alpha, d.alpha0
        rr = d.beta / d.beta0

        # L(x) = const * psi(al, 1 - al0, rr x), whose Stieltjes kernel is
        # the quotient density omega_{al, al+al0}; the nodes sit at t / rr
        # and carry mass al * omega(t) dt
        def f(t):
            return al * kdist_quotient_kernel(al, al + al0, t) * im \
                / ((t / rr - re) ** 2 + im * im)

        return integrate_singular_decay(f, tol=1e-11).value
    raise UnsupportedVariantError(
        f"mgf_logderiv_im not available for {type(d).__name__}")


def hcm_profile(d, u: float, w):
    """Hyperbolic profile f(uv) f(u/v) with v + 1/v = w, w > 2."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 2.0):
        raise DomainError("hcm_profile requires w > 2")
    v = 0.5 * (w + np.sqrt(w * w - 4.0))
    return pdf(d, u * v) * pdf(d, u / v)


def format_dist(d) -> str:
    """Plain key-value serialization, e.g. 'kind=mckay1 mu=0.5 a=1 b=2'."""
    kind = _KIND_NAMES[type(d)]
    parts = [f"kind={kind}"]
    for f in fields(d):
        parts.append(f"{f.name}={getattr(d, f.name):g}")
    return " ".join(parts)


def parse_dist(text: str):
    """Inverse of format_dist."""
    items = {}
    for tok in text.split():
        if "=" not in tok:
            raise ParameterError(f"malformed token {tok!r}")
        k, v = tok.split("=", 1)
        items[k] = v
    kind = items.pop("kind", None)
    if kind not in DIST_KINDS:
        raise ParameterError(f"unknown distribution kind {kind!r}")
    cls = DIST_KINDS[kind]
    names = {f.name for f in fields(cls)}
    if set(items) != names:
        raise ParameterError(
            f"{kind} needs parameters {sorted(names)}, got {sorted(items)}")
    return cls(**{k: float(v) for k, v in items.items()})
