"""Special-function layer: Bessel, hypergeometric, Tricomi.

Real arguments on the public surface, but for the complex z that
`bessel_row` also takes.  Bessel-function zeros of real order are
computed here (McMahon's expansion, rounded once from a double-double,
beyond a head of zeros that Newton's method polishes; at large order
the polish starts the low zeros from brackets scanned on a grid) and
cached per order.  Every Bessel-product left side (the catalog's
Stieltjes entries and the Laplace-transform variants) is one factor row
evaluated by `bessel_row` from scaled I and K, so none overflows.
Everything else is delegated to scipy.special behind a thin contract
that adds domain checking and the scaled-variant switches.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.special as _sp

from .errors import ConvergenceError, DomainError, points

__all__ = [
    "bessel_j",
    "bessel_y",
    "bessel_i",
    "bessel_k",
    "bessel_row",
    "bessel_zero",
    "bessel_zeros",
    "kummer_m",
    "tricomi_psi",
    "tricomi_psi_boundary",
    "tricomi_boundary_mod2",
]


def bessel_j(nu: float, x):
    """Bessel function of the first kind, order nu >= -1, at x >= 0."""
    if nu < -1.0:
        raise DomainError("bessel_j requires nu >= -1")
    return _sp.jv(nu, points(x, "bessel_j", closed=True))[()]


def bessel_y(nu: float, x):
    """Bessel function of the second kind for x > 0."""
    return _sp.yv(nu, points(x, "bessel_y"))[()]


def bessel_i(nu: float, x, scaled: bool = False):
    """Modified Bessel function I_nu; scaled=True returns e^{-x} I_nu(x)."""
    arr = points(x, "bessel_i", closed=True)
    return (_bessel_scaled("I", nu, arr) if scaled else _sp.iv(nu, arr))[()]


def bessel_k(nu: float, x, scaled: bool = False):
    """Modified Bessel function K_nu for x > 0; scaled=True returns e^{x} K_nu(x)."""
    arr = points(x, "bessel_k")
    return (_bessel_scaled("K", nu, arr) if scaled else _sp.kv(nu, arr))[()]


# ---------------------------------------------------------------------------
# Scaled modified Bessel functions and rows of them
# ---------------------------------------------------------------------------

# scipy's scaled I and K are within 4e-16 up to about 1e9 and NaN from
# about 2e9 on; past this point three terms of Hankel's expansion are
# exact to machine precision
_HANKEL_Z = 1e8


def _bessel_scaled(kind, nu, r):
    """e^{-r} I_nu(r) for kind "I", e^{r} K_nu(r) for kind "K": at real
    r >= 0, past _HANKEL_Z from Hankel's expansion (DLMF 10.40.1-2), or
    at complex r with Re r >= 0 (where scipy's ive scales by e^{-|Re r|}
    alone)."""
    fn, sign = (_sp.ive, -1) if kind == "I" else (_sp.kve, 1)
    value = fn(nu, r)
    if value.dtype.kind == "c":
        return value * np.exp(-1j * np.imag(r)) if sign < 0 else value
    # .any() on arrays only: on one point it would cost more than fn
    far = r > _HANKEL_Z
    if not (far.any() if value.ndim else far):
        return value
    rs = np.maximum(r, _HANKEL_Z)
    term = series = 1.0
    for k in (1, 2, 3):  # sign^k a_k(nu) / r^k, DLMF 10.17.1
        term = term * sign * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8 * k * rs)
        series = series + term
    return np.where(far, series * np.sqrt(np.pi ** sign / (2.0 * rs)), value)


def bessel_row(coef, c, factors, z):
    """coef e^{-c sqrt z} prod F(z)^sign over a factor row, each factor
    (kind, order, scale, sign) with sign +1 or -1 one of

        I~_mu(a; z) = z^{-mu/2} I_mu(a sqrt z)    kind "I",
        K~_nu(b; z) = z^{nu/2} K_nu(b sqrt z)     kind "K",

    at real z > 0 or complex z off (-oo, 0], with the principal sqrt z.

    A scalar z is evaluated as a one-point array, so every value is the
    one an array call gives at that point, bit for bit.  The factors are
    evaluated scaled, so nothing overflows; their scales leave
    e^{expo sqrt z}.  expo sums the growing scales, takes c off, then
    adds the decaying ones, so c cancels the scales it matches exactly:
    a rounding error there would grow with sqrt z.
    """
    shape = np.shape(z)
    z = np.reshape(z, -1)
    w = np.sqrt(z)
    power = grow = decay = 0.0
    num, den = [], []
    for kind, order, scale, sign in factors:
        k = sign if kind == "I" else -sign  # +1: the factor grows
        (num if sign > 0 else den).append(
            _bessel_scaled(kind, order, scale * w))
        power -= k * order
        if k > 0:
            grow += scale
        else:
            decay -= scale
    lead = coef * z ** (0.5 * power) if power else coef
    value = math.prod(num, start=lead) / math.prod(den)
    expo = grow - c + decay
    if expo:
        value = value * np.exp(expo * w)
    return value.reshape(shape)[()]


# ---------------------------------------------------------------------------
# Positive zeros j_{nu,n} of J_nu
# ---------------------------------------------------------------------------

_zero_cache: dict[float, np.ndarray] = {}

# pi = _PI_HI + _PI_LO to about 2^-107
_PI_HI = math.pi
_PI_LO = 1.2246467991473532e-16
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitting constant for doubles


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker, 1971)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mcmahon(nu: float, n: np.ndarray, terms: int = 3) -> np.ndarray:
    """McMahon's expansion of j_{nu,n} (DLMF 10.21.19): beta and its
    first `terms` corrections, through (8 beta)^(1 - 2 terms).

    beta = (n + nu/2 - 1/4) pi is formed as a double-double (TwoSum,
    then TwoProduct with pi = pi_hi + pi_lo), the corrections are summed
    in plain double and the whole is rounded once: where the first
    omitted term is far below an ulp (see `_head_size`), the result is
    j_{nu,n} correctly rounded but for near ties.  Three corrections
    make the Newton guesses of the head: the fourth helps far out but
    spoils the lowest guesses.
    """
    s, e = _two_sum(n - 0.25, 0.5 * nu)
    beta, lo = _two_prod(s, _PI_HI)
    lo += s * _PI_LO + e * _PI_HI
    mu = 4.0 * nu * nu
    coef = (1.0, 4.0 * (7.0 * mu - 31.0) / 3.0,
            32.0 * ((83.0 * mu - 982.0) * mu + 3779.0) / 15.0,
            64.0 * (((6949.0 * mu - 153855.0) * mu + 1585743.0) * mu
                    - 6277237.0) / 105.0)[:terms]
    r = 1.0 / (8.0 * beta)
    return beta + (lo - (mu - 1.0) * r * np.polyval(coef[::-1], r * r))


def _head_size(nu: float, nmax: int) -> int:
    """Number of zeros that Newton's method polishes: the last n at which
    McMahon's first omitted term, 512 (mu - 1) P(mu) / (315 (8 beta)^9),
    may exceed 2^-60 j_{nu,n}, at least ceil(nu) + 2 and at most nmax.

    P is bounded by the sum of its coefficients' moduli, so the bound
    never vanishes at a root of P.
    """
    mu = 4.0 * nu * nu
    p = (((70197.0 * mu + 2479316.0) * mu + 48010494.0) * mu
         + 512062548.0) * mu + 2092163573.0
    c = 512.0 * abs(mu - 1.0) * p / (315.0 * 8.0**9) * 2.0**60
    # |term| = c 2^-60 / beta^9 <= 2^-60 beta  where beta^10 >= c
    n = c**0.1 / math.pi - 0.5 * nu + 0.25 if c > 0.0 else 0.0
    return min(nmax, max(math.floor(min(n, nmax)), math.ceil(nu) + 2))


def _newton_polish(nu: float, x: np.ndarray, moving=None):
    """Clipped Newton steps on J_nu from x, at most 30 per zero.

    A pass steps the zeros still moving (all, or those flagged in
    `moving`, on the first).  A zero stops after its first step below
    1e-12 of it: Newton's error after such a step is below 1e-24 of the
    zero, so a further step would only add the noise of J_nu.  Returns
    the zeros and the mask of those still moving after the last pass.
    """
    x = x.copy()
    idx = np.arange(x.size) if moving is None else np.flatnonzero(moving)
    for _ in range(30):
        if not idx.size:
            break
        xi = x[idx]
        step = _sp.jv(nu, xi) / _sp.jvp(nu, xi)
        np.clip(step, -1.0, 1.0, out=step)
        new = xi - step
        x[idx] = new
        idx = idx[np.abs(step) >= 1e-12 * np.abs(new)]
    moved = np.zeros(x.size, dtype=bool)
    moved[idx] = True
    return x, moved


def _scan_low_zeros(nu: float, count: int) -> np.ndarray:
    """Midpoints of the sign-change brackets of the first `count` zeros,
    each bracket no wider than 1, for `_newton_polish` to converge from.

    The grid has 40 cells per zero up to McMahon's zero 0.6 nu past
    the last.  Cells narrower than pi hold one zero at most, the gaps
    exceeding pi for nu > 1/2 (Watson, Treatise, 15.8).  Wider ones, at
    large order, would step over the first zeros, crowded within a few
    nu^(1/3) of nu: there the grid ends at Qu and Wong's upper bound on
    j_{nu,count+1} (Trans. AMS 351, 1999), nu + tau nu^(1/3)
    + (3/10) tau^2 nu^(-1/3) with tau = -a 2^(-1/3), a the zero of Ai.
    Where the cells are wider than the polish's step clip of 1 (from nu
    of about 4e5 on), all brackets are halved at once until none is: 11
    passes at nu = 2e15."""
    lo = max(nu, 1e-6)
    hi = _mcmahon(nu, np.array([count + max(2.0, 0.6 * nu)]))[0]
    if hi - lo > 40 * count * math.pi:
        tau = -_sp.ai_zeros(count + 1)[0][-1] * 2.0 ** (-1.0 / 3.0)
        hi = nu + tau * nu ** (1 / 3) + 0.3 * tau * tau * nu ** (-1 / 3)
    grid = np.linspace(lo, hi, 40 * count + 1)
    vals = _sp.jv(nu, grid)
    if np.isnan(vals).any():
        raise ConvergenceError(f"J_{nu} is NaN on the scan grid")
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0][:count]
    if idx.size < count:
        raise ConvergenceError(f"could not bracket {count} zeros of J_{nu}")
    a, b, sa = grid[idx], grid[idx + 1], sign[idx]
    while np.max(b - a) > 1.0:
        mid = 0.5 * (a + b)
        right = np.sign(_sp.jv(nu, mid)) == sa
        a, b = np.where(right, mid, a), np.where(right, b, mid)
    return 0.5 * (a + b)


def _compute_zeros(nu: float, nmax: int) -> np.ndarray:
    """The first `nmax` zeros: McMahon's expansion beyond the head, and
    on the head Newton's method from McMahon's zeros or, where the scan
    replaces them, from its bracket midpoints.  Raises ConvergenceError
    when a head zero is still moving after the polish's last step."""
    n = np.arange(1.0, nmax + 1.0)
    h = _head_size(nu, nmax)
    x = _mcmahon(nu, n, terms=4)
    # McMahon is an expansion for n >> nu; low zeros at sizable order may
    # have been pulled onto the wrong root, so re-derive them by scanning.
    n_low = math.ceil(nu) + 2 if nu > 1.0 else 0
    if n_low >= h:
        # the scan below replaces the whole head: nothing to polish yet
        head, moving = np.empty(h), np.ones(h, dtype=bool)
    else:
        head, moving = _newton_polish(nu, _mcmahon(nu, n[:h]))
    # consecutive zeros lie about pi apart: a smaller gap is one root
    # reached twice
    if n_low or not (np.all(np.diff(head) > 1.0) and np.all(head > 0)):
        low = _scan_low_zeros(nu, min(h, max(n_low, 2)))
        head[: low.size] = low
        moving[: low.size] = True
        head, moving = _newton_polish(nu, head, moving)
    if moving.any():
        raise ConvergenceError(f"zero {np.flatnonzero(moving)[0] + 1} of "
                               f"J_{nu} still moving after 30 Newton steps")
    x[:h] = head
    if not np.all(np.diff(x) > 0):
        raise ConvergenceError(f"zero sequence of J_{nu} not monotone")
    return x


# the scan of _scan_low_zeros brackets the first 64 zeros up to about
# nu = 2.25e15, and none from there on
_MAX_ZERO_ORDER = 2e15


def bessel_zeros(nu: float, nmax: int) -> np.ndarray:
    """First `nmax` positive zeros of J_nu, -1 < nu <= 2e15, as a
    read-only view of the cached table."""
    if not -1.0 < nu <= _MAX_ZERO_ORDER:
        raise DomainError(f"bessel_zeros requires finite nu in "
                          f"(-1, {_MAX_ZERO_ORDER:g}]")
    if nmax < 1:
        raise DomainError("nmax must be >= 1")
    key = float(nu)
    zeros = _zero_cache.get(key)
    if zeros is None or zeros.size < nmax:
        zeros = _zero_cache[key] = _compute_zeros(key, max(nmax, 64))
        zeros.setflags(write=False)
    return zeros[:nmax]


def bessel_zero(nu: float, n: int) -> float:
    """n-th positive zero j_{nu,n} of J_nu (n >= 1, nu > -1)."""
    return float(bessel_zeros(nu, n)[n - 1])


# ---------------------------------------------------------------------------
# Hypergeometric family
# ---------------------------------------------------------------------------

def kummer_m(a: float, c: float, x):
    """Kummer confluent function M(a, c, x) = Phi(a; c; x)."""
    if c <= 0.0 and c == np.floor(c):
        raise DomainError("kummer_m: c must not be a non-positive integer")
    return _sp.hyp1f1(a, c, points(x, "kummer_m", low=-math.inf))[()]


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


@functools.lru_cache(maxsize=64)
def _laguerre_rule(a: float, n: int):
    """n-point Gauss rule for the weight rho^{a-1} e^{-rho} / Gamma(a).

    Golub & Welsch, Math. Comp. 23 (1969): the nodes are the eigenvalues
    of the Jacobi matrix of the generalized Laguerre polynomials, and
    since the weight has unit mass the weights are the squared first
    components of its eigenvectors.  Read-only (nodes, weights).
    """
    k = np.arange(n, dtype=float)
    off = np.sqrt(k[1:] * (k[1:] + a - 1.0))
    jac = np.diag(2.0 * k + a) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    weights = vecs[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _tricomi_laguerre(a: float, c: float, x):
    """psi(a, c, x) over a 1-d array x >= 5, for a > 0, m = a + 1 - c
    >= -5 and min(m, a) <= 21.5.

    DLMF 13.4.4 with t = rho / x turns the Euler integral into psi =
    x^{-a} int_0^oo rho^{a-1} e^{-rho} / Gamma(a) (1 + rho/x)^{c-a-1}
    drho: a Gauss-Laguerre sum whose only singularity, rho = -x, is
    pole-like of order m.  For -5 <= m <= 7 (below -5 the integrand
    grows too fast for any node count) 30 nodes stay within 1e-13 where
    sqrt(x) >= 2.8 and 80 down to x = 5; a larger m takes m/7 times as
    many, at most 250 at m = 21.5.  A larger m (then c < 1) goes through
    psi = x^{1-c} psi(a-c+1, 2-c, x) (DLMF 13.2.40), of pole order a:
    weight rho^{a-c} e^{-rho}, integrand (1 + rho/x)^{-a}, the same
    prefactor x^{-a}.  Each point is one row of an elementwise product,
    independent of the rest of the batch.
    """
    m = a + 1.0 - c
    b, power = a, c - a - 1.0
    if m > 21.5:
        b, power, m = a - c + 1.0, -a, a
    scale = max(1.0, m / 7.0)
    out = np.empty_like(x)
    far = np.sqrt(x) >= 2.8
    for mask, n in ((far, 30), (~far, 80)):
        if mask.any():
            rho, w = _laguerre_rule(float(b), 10 * math.ceil(n * scale / 10))
            xm = x[mask]
            out[mask] = np.sum(w * (1.0 + rho / xm[:, None]) ** power,
                               axis=1) * xm ** -a
    return out


def tricomi_psi(a: float, c: float, x):
    """Tricomi confluent function psi(a, c, x) for a > 0, x > 0."""
    if a <= 0.0:
        raise DomainError("tricomi_psi requires a > 0")
    arr = points(x, "tricomi_psi")
    flat = arr.ravel()
    out = np.empty_like(flat)
    m = a + 1.0 - c  # the points that _tricomi_laguerre takes:
    rule = (flat >= 5.0) & (-5.0 <= m) & (min(m, a) <= 21.5)
    if rule.any():
        out[rule] = _tricomi_laguerre(a, c, flat[rule])
    for i in np.flatnonzero(~rule):
        out[i] = _tricomi_psi_scalar(a, c, flat[i])
    return out.reshape(arr.shape)[()]


def _tricomi_any(a: float, c: float, z):
    if a <= 0.0:
        # three-term recurrence in a,
        #   psi(a) = (2(a+1) - c + z) psi(a+1)
        #            - (a+1)(a+2-c) psi(a+2),
        # keeps evaluation inside the a > 0 region
        p1 = _tricomi_any(a + 1.0, c, z)
        p2 = _tricomi_any(a + 2.0, c, z)
        return (2.0 * (a + 1.0) - c + z) * p1 \
            - (a + 1.0) * (a + 2.0 - c) * p2
    return tricomi_psi(a, c, z)


def tricomi_psi_boundary(a: float, c: float, t):
    """psi(a, c, t e^{i pi}) on the cut, vectorized over t > 0.

    The limit of psi(a, c, z) as z approaches -t from the upper half
    plane (arg z -> +pi), for a > 0 and c < 1 with c not a non-positive
    integer: complex, of the shape of t, so a scalar t gives a complex
    scalar.  Connection formula psi(a, c, t e^{i pi}) = A - e^{-i pi c} B,
    with A and B real and written through the two Kummer solutions
        y1(x) = M(a, c, x),   y2(x) = x^{1-c} M(a-c+1, 2-c, x),
    so only real-argument series are evaluated.
    """
    if a <= 0.0:
        raise DomainError("Tricomi boundary values require a > 0")
    if c >= 1.0:
        raise DomainError("Tricomi boundary values require c < 1")
    if c == np.floor(c):
        raise DomainError("Tricomi boundary values require non-integer c")
    arr = points(t, "tricomi_psi_boundary", name="t")
    A = _sp.gamma(1.0 - c) / _sp.gamma(a - c + 1.0) * _sp.hyp1f1(a, c, -arr)
    B = (
        _sp.gamma(c - 1.0)
        / _sp.gamma(a)
        * arr ** (1.0 - c)
        * _sp.hyp1f1(a - c + 1.0, 2.0 - c, -arr)
    )
    # the parts are assigned, not multiplied out of complex factors, so
    # each keeps the bits (and any NaN or signed zero) of its formula
    out = np.empty(arr.shape, dtype=complex)
    out.real = A - np.cos(np.pi * c) * B
    out.imag = np.sin(np.pi * c) * B
    return out[()]


def tricomi_boundary_mod2(a: float, c: float, t):
    """|psi(a, c, t e^{i pi})|^2 on the cut, vectorized over t > 0: the
    re^2 + im^2 of tricomi_psi_boundary, of the shape of t."""
    v = tricomi_psi_boundary(a, c, t)
    return v.real * v.real + v.imag * v.imag
