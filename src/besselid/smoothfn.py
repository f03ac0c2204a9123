"""High-order derivative ladders for smooth functions on (0, oo).

Complete-monotonicity and Bernstein checks need derivatives up to order
eight or ten with enough accuracy that sign tests are meaningful.
Finite differencing cannot deliver that, so each function of interest
is represented by a "ladder" object that produces the whole derivative
vector analytically:

* rational terms c / (x + r) differentiate by a reciprocal recurrence,
  one multiply per order and no powers;
* Mittag-Leffler sums over squared Bessel zeros sum a short head of
  cached zeros exactly and the far zeros through a series in x over
  their inverse-power moments, cut at each point where its terms fall
  below rounding, with closed forms beyond the last zero (digamma at
  order 0, Hurwitz zeta above; orders >= 1 valid up to x = r_N / 16);
* Stieltjes transforms with a fixed positive kernel reduce to rational
  ladders over the nodes of one double-exponential quadrature level;
* anything with a complex-analytic closed form that is real on the
  real axis is differentiated by Cauchy's integral formula on a circle,
  evaluated on its upper half only (Schwarz reflection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as _sp

from .errors import DomainError, ParameterError, points
from .quad.tanhsinh import FIRST_LEVEL, _tails_zeroed, de_level, spec_plan
from .specfun import bessel_zeros
from .stieltjes import make_identity

__all__ = [
    "RationalLadder", "PowerLadder", "MLSumLadder", "StieltjesLadder",
    "CauchyLadder", "SumLadder", "k_ratio_ladder", "falling_factorial",
]


def falling_factorial(p: float, n: int) -> float:
    """p (p-1) ... (p-n+1); empty product for n = 0."""
    out = 1.0
    for k in range(n):
        out *= p - k
    return out


class Ladder:
    """Base: derivatives(x, max_order) -> f^(n)(x), n = 0..max_order, at
    every element of x, shape x.shape + (max_order + 1,); a scalar x
    gives one vector.  Each ladder's _derivatives takes x as a 1-d
    array of finite points, so a scalar x is a one-point array and a
    grid gives the per-point vectors bit for bit."""

    def derivatives(self, x, max_order: int) -> np.ndarray:
        x = points(x, type(self).__name__, low=-math.inf)
        return self._derivatives(x.reshape(-1), max_order).reshape(
            x.shape + (max_order + 1,))

    def _derivatives(self, x, max_order: int) -> np.ndarray:
        raise NotImplementedError

    def __add__(self, other):
        return SumLadder((self, other))


def _rational_ladder_vec(coefs, roots, x, max_order):
    """Derivatives of sum_i coefs[i] / (x + roots[i]) at each element of
    the 1-d array x, shape (x.size, max_order + 1): the n-th is (-1)^n n!
    sum_i coefs[i] v_i^{n+1}, v = 1/(x + roots).  Each point's row is
    summed alone (a BLAS product's order would depend on the rows)."""
    base = x[:, None] + np.asarray(roots, dtype=float)
    if np.any(base <= 0.0):
        raise DomainError("rational ladder evaluated at a pole or beyond")
    inv = 1.0 / base
    term = np.asarray(coefs, dtype=float) * inv
    out, fac = np.empty((x.size, max_order + 1)), 1.0
    for n in range(max_order + 1):
        if n > 0:
            term *= inv
            fac *= -n
        out[:, n] = fac * term.sum(axis=-1)
    return out


def _keep_rows(ladder, rows):
    """Keep the (coefficients, roots) rows of a frozen ladder as one
    read-only float array, _rows, built once at construction."""
    rows = np.array(rows, dtype=float)
    rows.setflags(write=False)
    object.__setattr__(ladder, "_rows", rows)


@dataclass(frozen=True)
class RationalLadder(Ladder):
    """Sum of terms coef / (x + root); terms: tuple of (coef, root)
    pairs.  A power other than 1 is a PowerLadder(coef, -power, root)."""

    terms: tuple

    def __post_init__(self):
        _keep_rows(self, tuple(zip(*self.terms)))

    def _derivatives(self, x, max_order: int) -> np.ndarray:
        return _rational_ladder_vec(*self._rows, x, max_order)


@dataclass(frozen=True)
class PowerLadder(Ladder):
    """coef * (x + shift)^exponent."""

    coef: float
    exponent: float
    shift: float = 0.0

    def _derivatives(self, x, max_order: int) -> np.ndarray:
        base = x + self.shift
        if np.any(base <= 0.0):
            raise DomainError("power ladder needs x + shift > 0")
        e = self.exponent
        facs = np.array([self.coef * falling_factorial(e, n)
                         for n in range(max_order + 1)])
        return facs * base[:, None] ** (e - np.arange(max_order + 1))


# The Mittag-Leffler sum at x is split after its first K(x) = max(_ML_HEAD,
# number of r_k < _ML_GAP x) terms: those term by term, the rest through
# at most _ML_TERMS + 1 terms of its series in x over inverse-power moments.
_ML_HEAD = 64
_ML_GAP = 16.0
_ML_TERMS = 24
_ML_BLOCK = 8


@lru_cache(maxsize=None)
def _ml_series_coefs(max_order: int) -> np.ndarray:
    """(-1)^(n+m) (n+m)!/m!, the coefficient of x^m M_{n+1+m} in the
    n-th derivative of sum_k 1/(x + r_k); rows n = 0..max_order,
    columns m = 0.._ML_TERMS."""
    c = np.array([[(-1) ** (n + m) * math.perm(n + m, n)
                   for m in range(_ML_TERMS + 1)]
                  for n in range(max_order + 1)], dtype=float)
    c.setflags(write=False)
    return c


def _ml_split(roots, x, max_order):
    """(heads, cuts), shape (len(roots), x.size), at each x for each
    ladder's squared zeros in roots (arrays of one length): the head
    K(x), and the last m kept of the moment series.  Its order-n term
    t_m = (-1)^(n+m) (n+m)!/m! x^m M_{n+1+m} has |t_{m+1} / t_m| <=
    (n+m+1)/(m+1) q, q = x / r_{K+1} (no moment root lies below
    r_{K+1}), so |t_m| <= C(N+m, m) q^m |t_0| for n <= N = max_order;
    the cut is the last m where that bound reaches 2^-53.  At
    q <= 1/16 and N <= 8 each later ratio is at most (n+1) q <= 9/16: the
    terms dropped sum to below (16/7) 2^-53 |t_0| <= 4 2^-53 |f^(n)|, as t_0
    shares the sign of f^(n) and is at most (17/16)^9 times it.  With no
    zero beyond the head (order 0 only) the series is empty, cut 0."""
    gap = _ML_GAP * x
    heads = np.maximum([r.searchsorted(gap) for r in roots], _ML_HEAD)
    far = np.array([r.take(k, mode="clip") for r, k in zip(roots, heads)])
    # past the last zero q = x / inf = 0
    q = np.where(heads < roots[0].size, x / far, 0.0)
    ms = np.arange(1, _ML_TERMS + 1)
    bound = np.cumprod(q[..., None] * ((max_order + ms) / ms), axis=-1)
    return heads, np.count_nonzero(bound >= 2.0 ** -53, axis=-1)


def _inverse_power_sums(inv, starts, n_p):
    """sum(inv[s:] ** p) for each s of starts and p = 1..n_p, shape
    (len(starts), n_p); the powers by repeated multiplication, at most
    _ML_BLOCK of them held at a time."""
    out = np.empty((len(starts), n_p))
    rows = np.empty((min(_ML_BLOCK, n_p), inv.size))
    prev = np.ones_like(inv)
    for p0 in range(0, n_p, rows.shape[0]):
        block = rows[:n_p - p0]
        for row in block:
            prev = np.multiply(prev, inv, out=row)
        for g, s in enumerate(starts):
            out[g, p0:p0 + block.shape[0]] = block[:, s:].sum(axis=1)
    return out


@dataclass(frozen=True)
class MLSumLadder(Ladder):
    """Mittag-Leffler sum over squared Bessel zeros:

        f(x) = sum_{k >= 1} 1 / (x + r_k),   r_k = j_{mu,k}^2 / a^2,
             = (a / (2 sqrt x)) I_{mu+1}(a sqrt x) / I_mu(a sqrt x).

    At each x the first K(x) = max(64, number of r_k < 16 x) terms are
    summed exactly.  The rest, k = K+1..n_zeros, all with x / r_k <= 1/16,
    enter through

        f^(n) rest = sum_{m <= L(x)} (-1)^(n+m) (n+m)!/m! x^m M_{n+1+m},
        M_p = sum_{K < k <= n_zeros} r_k^{-p},

    cut where its terms fall below rounding (_ml_split): 3 to 8 terms on
    the Bernstein grid, 19 just below x = r_K / 16.  The moments, up to
    the pass's largest cut, are products of 1/r_k, no powers, kept per
    head K in the ladder's plan (spec_plan); a call needing more powers
    than a head has rebuilds that head from p = 1, so no moment's bits
    depend on the calls made before.  McMahon's
    j_k ~ pi (k + mu/2 - 1/4) gives the remainder beyond the last zero in
    closed form: at order 0 for every x through the digamma function,
    and at orders >= 1 as the Hurwitz zeta tail (a/pi)^{2p} zeta(2p,
    n_zeros + 1 + mu/2 - 1/4) added to each M_p.  Orders >= 1 therefore
    need x <= r_{n_zeros}/16 (about 1e7/a^2 at its n_zeros = 4000
    zeros) and raise DomainError beyond it.  Each point's value depends on that
    point alone, so a grid gives the per-point values bit for bit.  The
    plan (_plan) keeps all that is grid-free: the roots, the moments, the
    order-0 constant r psi'(c) and the Hurwitz vector.  A ladder is
    evaluated as a group of one (_ml_tables); a SumLadder evaluates all
    its MLSumLadder parts as one group, whose rows that share one head
    K, as the Bernstein grid's do, take one head sum.
    """

    mu: float
    a: float
    n_zeros = 4000

    def __post_init__(self):
        if self.mu <= -1.0 or self.a <= 0.0:
            raise ParameterError("MLSumLadder requires mu > -1 and a > 0")

    def _plan(self):
        """The ladder's plan (spec_plan), built on first use: "roots" r_k,
        "moments" M_p per head K, "tail0" r psi'(c) and "hurwitz" the
        Hurwitz tails of M_1, M_2, ..., rebuilt from p = 1 when short."""
        plan = spec_plan(self)
        if "roots" not in plan:
            roots = (bessel_zeros(self.mu, self.n_zeros) / self.a) ** 2
            roots.setflags(write=False)
            plan.update(roots=roots, moments={}, hurwitz=np.empty(0),
                        tail0=self.a * self.a / (np.pi * np.pi)
                        * float(_sp.polygamma(1, self._c)))
        return plan

    # McMahon past the last zero: j_k ~ pi (k + delta), delta = mu/2 - 1/4
    _c = property(lambda s: s.n_zeros + 1.0 + (0.5 * s.mu - 0.25))

    def _derivatives(self, x, max_order: int) -> np.ndarray:
        return _ml_tables((self,), x, max_order)[0]


def _ml_tables(ladders, x, max_order):
    """The tables of a group of MLSumLadders at the points x, shape
    (len(ladders), x.size, max_order + 1), in one pass over the stacked
    (ladder, point) rows: one split, one Horner loop up to the group's
    largest cut, one head sum per distinct head K and one order-0 tail.
    Every row is summed in the order its ladder alone would sum it, so
    each table has the bits of its ladder evaluated alone."""
    n_l = len(ladders)
    if not n_l or not x.size:
        return np.zeros((n_l, x.size, max_order + 1))
    if np.any(x <= 0.0):
        raise DomainError("MLSumLadder requires x > 0")
    plans = [lad._plan() for lad in ladders]
    roots = [plan["roots"] for plan in plans]
    nz = roots[0].size
    heads, cuts = _ml_split(roots, x, max_order)
    if max_order >= 1 and heads.max() >= nz:
        i = (heads >= nz).any(axis=1).argmax()
        raise DomainError(
            f"MLSumLadder derivatives need x <= r_N / {_ML_GAP:g} = "
            f"{float(roots[i][-1]) / _ML_GAP!r} (N = n_zeros = {nz}); "
            f"got x = {float(x.max())!r}")
    heads, cuts = heads.ravel(), cuts.ravel()
    rows, xr = np.arange(n_l).repeat(x.size), np.concatenate([x] * n_l)
    top = int(cuts.max())
    n_p = max_order + 1 + top
    # the (head, ladder) pairs in use, head first; one head for the whole
    # group, as on the Bernstein grid, is one pair per ladder
    key = heads * n_l + rows
    pairs, group = np.unique(key, return_inverse=True) \
        if heads.min() < heads.max() else (key[::x.size], rows)
    pairs = [divmod(p, n_l) for p in pairs.tolist()]
    for i, (lad, plan) in enumerate(zip(ladders, plans)):
        table = plan["moments"]
        build = [k for k, j in pairs if j == i and len(table.get(k, ())) < n_p]
        if build:
            table.update(zip(build, _inverse_power_sums(
                1.0 / roots[i][build[0]:], [k - build[0] for k in build], n_p)))
        if plan["hurwitz"].size < n_p:
            # Hurwitz tail of M_p beyond the last zero, in logs: the
            # factor (a/pi)^{2p} alone overflows at large a
            ps = np.arange(1, n_p + 1, dtype=float)
            with np.errstate(divide="ignore"):
                plan["hurwitz"] = np.exp(ps * (2.0 * np.log(lad.a / np.pi))
                                         + np.log(_sp.zeta(ps + ps, lad._c)))
    # the Horner coefficients per pair, then per row
    moments = np.array([plans[j]["moments"][k][:n_p] for k, j in pairs])
    hurwitz = np.array([plans[j]["hurwitz"][:n_p] for _, j in pairs])
    coefs = _ml_series_coefs(max_order)[:, :top + 1]
    cm = coefs * (moments + hurwitz)[:, np.add.outer(
        np.arange(max_order + 1), np.arange(top + 1))]
    # order 0 takes the partial moments: its digamma remainder below
    # covers the zeros beyond the last
    cm[:, 0] = coefs[0] * moments[:, :top + 1]
    # a row's coefficients above its own cut are +0, so its Horner sum
    # is +0 until its cut: the bits of a sum started there
    cm = np.where(np.arange(top + 1) <= cuts[:, None, None], cm[group], 0.0)
    out = np.zeros((xr.size, max_order + 1))
    for j in range(top, -1, -1):
        out = out * xr[:, None] + cm[..., j]
    sizes = sorted({k for k, _ in pairs})
    for k in sizes:
        sel = heads == k if len(sizes) > 1 else slice(None)
        head = np.array([r[:k] for r in roots])[rows[sel]]
        out[sel] += _rational_ladder_vec(1.0, head, xr[sel], max_order)
    # order-0 remainder: with j^2 ~ pi^2 (k + delta)^2 - (4 mu^2 - 1)/4
    # the shifted-argument digamma identity
    # sum_{n >= 0} 1/((n + c)^2 + q^2) = Im psi(c + i q) / q
    # sums it in closed form
    shift, aa, r, c, tail = np.array([(
        (4.0 * lad.mu * lad.mu - 1.0) / (4.0 * lad.a * lad.a), lad.a * lad.a,
        lad.a * lad.a / (np.pi * np.pi), lad._c, plan["tail0"])
        for lad, plan in zip(ladders, plans)]).T[:, rows]
    q2 = aa * (xr - shift) / (np.pi * np.pi)
    pos, neg = q2 > 0.0, q2 < 0.0
    q = np.sqrt(q2[pos])
    tail[pos] = r[pos] * np.imag(_sp.digamma(c[pos] + 1j * q)) / q
    p, c = np.sqrt(-q2[neg]), c[neg]
    tail[neg] = r[neg] * (_sp.digamma(c + p) - _sp.digamma(c - p)) / (2.0 * p)
    out[:, 0] += tail
    return out.reshape(n_l, x.size, max_order + 1)


# The exp-sinh level of every Stieltjes ladder.  Against level 10, level
# 7 on [-6, 6] keeps the default K-ratio and quotient ladders within
# 2.1e-13 at orders 0-8 on the Bernstein grid, where level 6 is 8.5e-6
# off on the K-distribution; x_max 6.5 would add nodes out to 1e227.
_LADDER_LEVEL = 7
_LADDER_X_MAX = 6.0


@dataclass(frozen=True)
class StieltjesLadder(Ladder):
    """f(x) = sum_i masses[i] / (x + nodes[i]); the discretization of a
    Stieltjes transform on fixed quadrature nodes."""

    nodes: tuple
    masses: tuple

    @classmethod
    def from_kernel(cls, kernel, coef: float, node):
        """coef * integral of kernel(t) / (x + node(t)) over t > 0: the
        kernel evaluated once on every node of the exp-sinh trapezoid of
        level _LADDER_LEVEL on [-_LADDER_X_MAX, _LADDER_X_MAX] (the
        levels of quad.tanhsinh.de_level up to it).  Every nonzero mass
        keeps its sign; a non-finite one drops on a tail node and raises
        on a core node (quad.tanhsinh._tails_zeroed)."""
        levels = [de_level("exp", _LADDER_X_MAX, k)
                  for k in range(FIRST_LEVEL, _LADDER_LEVEL + 1)]
        x, t, jac = (np.concatenate([lv[i] for lv in levels])
                     for i in (0, 2, 3))
        with np.errstate(all="ignore"):
            m = coef * levels[-1][1] * jac * kernel(t)
        m = _tails_zeroed(m, x, _LADDER_X_MAX)
        keep = m != 0.0
        return cls(tuple(node(t[keep])), tuple(m[keep]))

    def __post_init__(self):
        _keep_rows(self, (self.masses, self.nodes))

    def _derivatives(self, x, max_order: int) -> np.ndarray:
        return _rational_ladder_vec(*self._rows, x, max_order)


def k_ratio_ladder(mu: float, a: float) -> StieltjesLadder:
    """Ladder for (a / (2 sqrt x)) K_{mu-1}(a sqrt x) / K_mu(a sqrt x):
    half the K_RATIO catalog kernel at s, the Stieltjes node s / a^2."""
    if a <= 0.0:
        raise ParameterError("k_ratio_ladder requires a > 0")
    rec = make_identity("K_RATIO", mu=mu)
    return StieltjesLadder.from_kernel(rec.kernel_density, 0.5,
                                       lambda s: s / (a * a))


@dataclass(frozen=True)
class CauchyLadder(Ladder):
    """Derivatives of a complex-analytic function by Cauchy's formula:

        f^(n)(x) = n! r^{-n} (1/M) sum_k f(x + r e^{i theta_k}) e^{-i n theta_k}

    fn must be real on the real axis.  By Schwarz reflection, f(conj z)
    = conj f(z), so the lower half circle repeats the upper one
    conjugated: fn is evaluated at theta_k = 2 pi k / M for k = 0..M/2
    only (M = n_points = 64), and the Hermitian FFT (np.fft.hfft) gives
    the coefficients.  An imaginary part above 1e-12 of the row's
    largest |f| at theta = 0 or pi raises DomainError naming x.

    The radius is radius_factor * (x + radius_shift); radius_shift > 0
    widens the circle when the nearest singularity sits left of the
    origin instead of at it (the circle must stay inside the
    analyticity domain).
    """

    fn: object
    radius_factor: float = 0.5
    radius_shift: float = 0.0
    n_points = 64

    def _derivatives(self, x, max_order: int) -> np.ndarray:
        if np.any(x <= 0.0):
            raise DomainError("CauchyLadder requires x > 0")
        r = self.radius_factor * (x + self.radius_shift)
        m = self.n_points
        theta = 2.0 * np.pi * np.arange(m // 2 + 1) / m
        z = x[:, None] + r[:, None] * np.exp(1j * theta)
        vals = np.asarray(self.fn(z), dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise DomainError("function returned non-finite values on circle")
        # theta = 0 and theta = pi lie on the real axis
        off = np.abs(vals[:, ::m // 2].imag).max(axis=1) \
            > 1e-12 * np.abs(vals).max(axis=1)
        if np.any(off):
            raise DomainError("CauchyLadder needs fn real on the real axis; "
                              f"it is not at x = {float(x[off][0])!r}")
        coef = np.fft.hfft(vals, n=m, axis=-1) / m
        n = np.arange(max_order + 1)
        fact = np.array([math.factorial(k) for k in n.tolist()], dtype=float)
        return coef[:, :max_order + 1] * fact / r[:, None] ** n


class SumLadder(Ladder):
    """Linear combination of ladders."""

    def __init__(self, parts, coefs=None):
        self.parts = tuple(parts)
        self.coefs = tuple(coefs) if coefs is not None \
            else (1.0,) * len(self.parts)
        if len(self.parts) != len(self.coefs):
            raise ParameterError("parts and coefs must match in length")

    def _derivatives(self, x, max_order: int) -> np.ndarray:
        # the Mittag-Leffler parts in one pass, their tables added in turn
        ml = iter(_ml_tables([p for p in self.parts
                              if isinstance(p, MLSumLadder)], x, max_order))
        out = np.zeros(x.shape + (max_order + 1,))
        for c, p in zip(self.coefs, self.parts):
            out += c * (next(ml) if isinstance(p, MLSumLadder)
                        else p._derivatives(x, max_order))
        return out
