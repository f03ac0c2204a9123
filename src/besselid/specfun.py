"""Special-function layer: gamma, Bessel, hypergeometric, Tricomi.

Real arguments on the public surface.  Bessel-function zeros of real
order are computed here (McMahon expansion polished by Newton, with a
bracketed-scan fallback for low zeros at large order) and cached per
order; everything else is delegated to scipy.special behind a thin
contract that adds domain checking and the scaled-variant switches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.optimize as _opt
import scipy.special as _sp

from .errors import ConvergenceError, DomainError

__all__ = [
    "EvalPolicy",
    "BoundaryPsiPair",
    "DEFAULT_POLICY",
    "log_gamma",
    "bessel_j",
    "bessel_y",
    "bessel_i",
    "bessel_k",
    "bessel_zero",
    "bessel_zeros",
    "gauss_2f1",
    "kummer_m",
    "tricomi_psi",
    "tricomi_psi_boundary",
    "tricomi_boundary_mod2",
    "whittaker_w",
]


@dataclass(frozen=True)
class EvalPolicy:
    """Accuracy knobs shared by the iterative pieces of this module."""

    rel_tol: float = 1e-12
    max_terms: int = 500

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


DEFAULT_POLICY = EvalPolicy()


@dataclass(frozen=True)
class BoundaryPsiPair:
    """Real and imaginary part of the Tricomi function on the cut.

    Values are the limit of psi(a, c, z) as z approaches -t from the
    upper half plane (arg z -> +pi).
    """

    re: float
    im: float

    @property
    def modulus_sq(self) -> float:
        return self.re * self.re + self.im * self.im


def _as_float_array(x, name="x"):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _maybe_scalar(result, x):
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(result)
    return result


def log_gamma(x):
    """log |Gamma(x)| for x > 0 (vectorized)."""
    arr = _as_float_array(x)
    if np.any(arr <= 0.0):
        raise DomainError("log_gamma requires x > 0")
    return _maybe_scalar(_sp.gammaln(arr), x)


def bessel_j(nu: float, x):
    """Bessel function of the first kind, order nu >= -1."""
    if nu < -1.0:
        raise DomainError("bessel_j requires nu >= -1")
    arr = _as_float_array(x)
    return _maybe_scalar(_sp.jv(nu, arr), x)


def bessel_y(nu: float, x):
    """Bessel function of the second kind for x > 0."""
    arr = _as_float_array(x)
    if np.any(arr <= 0.0):
        raise DomainError("bessel_y requires x > 0")
    return _maybe_scalar(_sp.yv(nu, arr), x)


def bessel_i(nu: float, x, scaled: bool = False):
    """Modified Bessel function I_nu; scaled=True returns e^{-x} I_nu(x)."""
    arr = _as_float_array(x)
    if np.any(arr < 0.0):
        raise DomainError("bessel_i requires x >= 0")
    fn = _sp.ive if scaled else _sp.iv
    return _maybe_scalar(fn(nu, arr), x)


def bessel_k(nu: float, x, scaled: bool = False):
    """Modified Bessel function K_nu for x > 0; scaled=True returns e^{x} K_nu(x)."""
    arr = _as_float_array(x)
    if np.any(arr <= 0.0):
        raise DomainError("bessel_k requires x > 0")
    fn = _sp.kve if scaled else _sp.kv
    return _maybe_scalar(fn(nu, arr), x)


# ---------------------------------------------------------------------------
# Positive zeros j_{nu,n} of J_nu
# ---------------------------------------------------------------------------

_zero_cache: dict[float, np.ndarray] = {}
_zero_lock = threading.Lock()


def _mcmahon(nu: float, n: np.ndarray) -> np.ndarray:
    beta = (n + 0.5 * nu - 0.25) * np.pi
    mu = 4.0 * nu * nu
    b8 = 8.0 * beta
    return (
        beta
        - (mu - 1.0) / b8
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
        - 32.0
        * (mu - 1.0)
        * (83.0 * mu * mu - 982.0 * mu + 3779.0)
        / (15.0 * b8**5)
    )


def _newton_polish(nu: float, x: np.ndarray, policy: EvalPolicy) -> np.ndarray:
    x = x.copy()
    for _ in range(30):
        f = _sp.jv(nu, x)
        fp = _sp.jvp(nu, x)
        step = f / fp
        np.clip(step, -1.0, 1.0, out=step)
        x -= step
        if np.max(np.abs(step)) < policy.rel_tol * np.max(x):
            break
    return x


def _scan_low_zeros(nu: float, count: int) -> np.ndarray:
    """Bracketed scan for the first `count` zeros (robust at large order)."""
    lo = max(nu, 1e-6)
    hi = _mcmahon(nu, np.array([count + max(2.0, 0.6 * nu)]))[0]
    grid = np.linspace(lo, hi, max(2000, 40 * count))
    vals = _sp.jv(nu, grid)
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    roots = []
    for i in idx[: count]:
        roots.append(_opt.brentq(lambda t: _sp.jv(nu, t), grid[i], grid[i + 1],
                                 xtol=1e-14, rtol=8.9e-16))
    if len(roots) < count:
        raise ConvergenceError(f"could not bracket {count} zeros of J_{nu}")
    return np.asarray(roots)


def _compute_zeros(nu: float, nmax: int, policy: EvalPolicy) -> np.ndarray:
    n = np.arange(1, nmax + 1, dtype=float)
    x = _newton_polish(nu, _mcmahon(nu, n), policy)
    # McMahon is an expansion for n >> nu; low zeros at sizable order may
    # have been pulled onto the wrong root, so re-derive them by scanning.
    n_low = int(min(nmax, np.ceil(nu) + 2)) if nu > 1.0 else 0
    ok = np.all(np.diff(x) > 0) and np.all(x > 0)
    if n_low or not ok:
        n_low = max(n_low, 2 if not ok else n_low)
        low = _scan_low_zeros(nu, min(nmax, max(n_low, 2)))
        x[: low.size] = low
        x = _newton_polish(nu, x, policy)
    if not np.all(np.diff(x) > 0):
        raise ConvergenceError(f"zero sequence of J_{nu} not monotone")
    return x


def bessel_zeros(nu: float, nmax: int, policy: EvalPolicy = DEFAULT_POLICY) -> np.ndarray:
    """First `nmax` positive zeros of J_nu, nu > -1, as an array (cached)."""
    if nu <= -1.0:
        raise DomainError("bessel_zeros requires nu > -1")
    if nmax < 1:
        raise DomainError("nmax must be >= 1")
    key = float(nu)
    cached = _zero_cache.get(key)
    if cached is not None and cached.size >= nmax:
        return cached[:nmax]
    # Compute with headroom outside the lock, publish atomically.
    target = max(nmax, 64)
    zeros = _compute_zeros(key, target, policy)
    with _zero_lock:
        cached = _zero_cache.get(key)
        if cached is None or cached.size < zeros.size:
            _zero_cache[key] = zeros
        else:
            zeros = cached
    return zeros[:nmax]


def bessel_zero(nu: float, n: int, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """n-th positive zero j_{nu,n} of J_nu (n >= 1, nu > -1)."""
    return float(bessel_zeros(nu, n, policy)[n - 1])


# ---------------------------------------------------------------------------
# Hypergeometric family
# ---------------------------------------------------------------------------

def gauss_2f1(a: float, b: float, c: float, x):
    """Gauss hypergeometric 2F1(a, b; c; x) for x < 1."""
    arr = _as_float_array(x)
    if np.any(arr >= 1.0):
        raise DomainError("gauss_2f1 requires x < 1")
    if c <= 0.0 and c == np.floor(c):
        raise DomainError("gauss_2f1: c must not be a non-positive integer")
    return _maybe_scalar(_sp.hyp2f1(a, b, c, arr), x)


def kummer_m(a: float, c: float, x):
    """Kummer confluent function M(a, c, x) = Phi(a; c; x)."""
    if c <= 0.0 and c == np.floor(c):
        raise DomainError("kummer_m: c must not be a non-positive integer")
    arr = _as_float_array(x)
    return _maybe_scalar(_sp.hyp1f1(a, c, arr), x)


def _tricomi_psi_integral(a: float, c: float, x: float) -> float:
    """Euler integral for psi(a, c, x); valid for a > 0, x > 0, any c."""
    from .quad.tanhsinh import integrate_singular_decay

    lg = _sp.gammaln(a)

    def f(t):
        return np.exp(-x * t + (a - 1.0) * np.log(t)
                      + (c - a - 1.0) * np.log1p(t) - lg)

    res = integrate_singular_decay(f, tol=1e-13)
    if not res.converged:
        raise ConvergenceError(f"psi({a},{c},{x}) integral did not converge")
    return res.value


def _tricomi_psi_scalar(a: float, c: float, x: float) -> float:
    direct = _sp.hyperu(a, c, x)
    # cross-check via the Kummer transformation psi(a,c,x) =
    # x^{1-c} psi(a-c+1, 2-c, x); scipy's algorithm selection differs
    # between the two parameter points, which exposes its weak regions
    with np.errstate(over="ignore", invalid="ignore"):
        alt = x ** (1.0 - c) * _sp.hyperu(a - c + 1.0, 2.0 - c, x)
    if np.isfinite(direct) and np.isfinite(alt):
        if abs(direct - alt) <= 1e-11 * max(abs(direct), abs(alt)):
            return float(direct)
    return _tricomi_psi_integral(a, c, x)


def tricomi_psi(a: float, c: float, x):
    """Tricomi confluent function psi(a, c, x) for a > 0, x > 0."""
    if a <= 0.0:
        raise DomainError("tricomi_psi requires a > 0")
    arr = _as_float_array(x)
    if np.any(arr <= 0.0):
        raise DomainError("tricomi_psi requires x > 0")
    out = np.array([_tricomi_psi_scalar(a, c, xi) for xi in np.atleast_1d(arr)])
    out = out.reshape(arr.shape) if arr.ndim else out[0]
    return _maybe_scalar(out, x)


def _boundary_re_im(a: float, c: float, t):
    """Real and imaginary part of psi(a, c, t e^{i pi}) on an array t > 0.

    Connection formula psi(a, c, t e^{i pi}) = A - e^{-i pi c} B, with A
    and B real and written through the two Kummer solutions
        y1(x) = M(a, c, x),   y2(x) = x^{1-c} M(a-c+1, 2-c, x),
    so only real-argument series are evaluated.
    """
    if a <= 0.0:
        raise DomainError("Tricomi boundary values require a > 0")
    if c >= 1.0:
        raise DomainError("Tricomi boundary values require c < 1")
    if c == np.floor(c):
        raise DomainError("Tricomi boundary values require non-integer c")
    arr = _as_float_array(t, "t")
    if np.any(arr <= 0.0):
        raise DomainError("Tricomi boundary values require t > 0")
    A = _sp.gamma(1.0 - c) / _sp.gamma(a - c + 1.0) * _sp.hyp1f1(a, c, -arr)
    B = (
        _sp.gamma(c - 1.0)
        / _sp.gamma(a)
        * arr ** (1.0 - c)
        * _sp.hyp1f1(a - c + 1.0, 2.0 - c, -arr)
    )
    return A - np.cos(np.pi * c) * B, np.sin(np.pi * c) * B


def tricomi_psi_boundary(a: float, c: float, t: float) -> BoundaryPsiPair:
    """Boundary values of psi(a, c, .) on the negative axis.

    Returns the limit of psi(a, c, t e^{i pi}) for t > 0 as the cut is
    approached from above.  Requires a > 0 and c < 1 with c not a
    non-positive integer.  For many t use tricomi_boundary_mod2.
    """
    re, im = _boundary_re_im(a, c, t)
    return BoundaryPsiPair(float(re), float(im))


def tricomi_boundary_mod2(a: float, c: float, t):
    """|psi(a, c, t e^{i pi})|^2 on the cut, vectorized over t > 0.

    Same domain as tricomi_psi_boundary, and the modulus_sq of its pair
    at each t; the result has the shape of t.
    """
    re, im = _boundary_re_im(a, c, t)
    return _maybe_scalar(re * re + im * im, t)


def whittaker_w(kappa: float, m: float, x):
    """Whittaker function W_{kappa, m}(x) for x > 0.

    Defined through the Tricomi function,
        W_{kappa,m}(x) = e^{-x/2} x^{m+1/2} psi(m - kappa + 1/2, 1 + 2m, x),
    and symmetric under m -> -m.
    """
    arr = _as_float_array(x)
    if np.any(arr <= 0.0):
        raise DomainError("whittaker_w requires x > 0")
    # the m -> -m symmetry allows either orientation; prefer the one
    # with c = 1 + 2m < 1, falling back to whichever keeps a > 0
    candidates = [-abs(m), abs(m)]
    for m_use in candidates:
        a = m_use - kappa + 0.5
        if a > 0.0:
            m = m_use
            break
    else:
        raise DomainError("whittaker_w requires m - kappa + 1/2 > 0 (up to m-sign)")
    out = np.exp(-arr / 2.0) * arr ** (m + 0.5) * tricomi_psi(a, 1.0 + 2.0 * m, arr)
    return _maybe_scalar(out, x)
