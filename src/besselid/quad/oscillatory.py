"""Half-line integrals of kernels oscillating in sqrt(t), by contour
rotation of Hankel terms (numerical steepest descent: Huybrechs and
Vandewalle, SIAM J. Numer. Anal. 44, 2006).

With u = sqrt(t) the kernel is written as the real part of a finite sum
of terms

    coef * u^p * e^{i omega u} * prod_k H^{(1|2)}_{nu_k}(s_k u)^{+-1},

each with a net frequency Omega = omega + sum(+-s_k) (+ for H^(1), - for
H^(2), times the exponent).  A weight w(t) that is analytic off the
negative axis and real on the positive one (1/(z+t), e^{-st}, 1/t)
then gives

    int_0^oo m(t) w(t) dt = head + Re[ray] + tail:

* head: the closed kernel on u in [0, u0], by tanh-sinh;
* ray: the terms with Omega > 0 along u0 + r e^{i pi/4}, by exp-sinh in
  r; there they decay like e^{-Omega Im u}, and the ray never meets
  the poles of 1/(z+u^2) on the imaginary axis;
* tail: the terms with Omega = 0 along [u0, oo), by exp-sinh in r;
  scaled Hankel functions do not oscillate there.

A term with Omega < 0 is to be written as its complex conjugate, which
has the same real part on the real axis.  With no terms the kernel is
integrated over the whole half line by exp-sinh in t.  Every value but
the weight's sits on nodes that do not depend on the weight, so a plan
shared across calls (one per term list) keeps them in its pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from ..errors import DomainError
from .tanhsinh import (FINITE_X_MAX, HALF_LINE_X_MAX, Piece, de_level,
                       half_line_piece, integrate_pieces, tanh_sinh_level)

_HALF_PI = 0.5 * np.pi
_RAY = np.exp(0.25j * np.pi)
_SQRT2 = np.sqrt(2.0)
_ASYMPTOTIC = 1e6       # |x| beyond which H_nu(x) uses its Hankel series


@dataclass(frozen=True)
class HankelTerm:
    """coef * u^power * e^{i omega u} * prod H^{(kind)}_order(scale u)^exponent
    with factors a tuple of (kind, order, scale, exponent), kind 1 or 2
    and exponent +1 or -1."""

    coef: complex
    power: float = 0.0
    omega: float = 0.0
    factors: tuple = ()

    @property
    def frequency(self) -> float:
        """Net frequency: the rate of e^{i Omega u} in the term's
        large-u behaviour."""
        return self.omega + sum((s if k == 1 else -s) * e
                                for k, _, s, e in self.factors)

    def __call__(self, u):
        """Values at real or complex u with Re u > 0, from the scaled
        Hankel functions; an exact zero, with no Hankel evaluation, where
        e^{i Omega u} is below e^{-700}."""
        u = np.asarray(u, dtype=complex)
        w = self.frequency
        live = ~(w * u.imag > 700.0)
        ul = u[live]
        v = self.coef * ul ** self.power * np.exp(1j * w * ul)
        for kind, nu, s, e in self.factors:
            v = v * _hankel_scaled(kind, nu, s * ul) ** e
        out = np.zeros(u.shape, dtype=complex)
        out[live] = v
        return out


def _hankel_scaled(kind: int, nu: float, x):
    """H^{(1)}_nu(x) e^{-ix} or H^{(2)}_nu(x) e^{ix}; beyond |x| = 1e6 by
    three terms of the Hankel series (DLMF 10.17.5-6), whose next term
    is below 1e-18 there for moderate nu."""
    sign = 1.0 if kind == 1 else -1.0
    big = np.abs(x) > _ASYMPTOTIC
    out = np.empty(x.shape, dtype=complex)
    out[~big] = (_sp.hankel1e if kind == 1 else _sp.hankel2e)(nu, x[~big])
    if big.any():
        xb = x[big]
        m = 4.0 * nu * nu
        a1 = (m - 1.0) / 8.0
        a2 = (m - 1.0) * (m - 9.0) / 128.0
        series = 1.0 + sign * 1j * a1 / xb - a2 / (xb * xb)
        phase = np.exp(-sign * 1j * (_HALF_PI * nu + 0.25 * np.pi))
        out[big] = np.sqrt(2.0 / (np.pi * xb)) * phase * series
    return out


def _pieces(terms: list, kernel) -> list:
    if not terms:
        return [half_line_piece({}, kernel)]
    u0 = _head_length(terms)

    def head(level):
        x, h, u, jac = tanh_sinh_level(0.0, u0, FINITE_X_MAX, level)
        t = u * u
        return x, h, t, 2.0 * u * jac * kernel(t)

    def on_path(rotate, group):
        def build(level):
            x, h, r, jac = de_level("exp", HALF_LINE_X_MAX, level)
            u = u0 + rotate * r
            a = rotate * jac * 2.0 * u * sum(tm(u) for tm in group)
            if rotate == 1.0:
                t = u * u
            else:
                # u^2 = u0^2 + sqrt2 u0 r + i (sqrt2 u0 r + r^2) from its
                # parts: the complex product's real part is a difference
                # of two terms of about r^2/2, which keeps no digit, not
                # even the sign, once r is past about 1e17
                c = _SQRT2 * u0 * r
                t = (u0 * u0 + c) + 1j * (c + r * r)
            # past |u| ~ 1e154 u^2 overflows; the terms are exact zeros
            # there, and the weights vanish at infinity
            t[~np.isfinite(t)] = np.inf
            return x, h, t, a if rotate != 1.0 else a.real
        return build

    rays = [tm for tm in terms if tm.frequency > 0.0]
    flat = [tm for tm in terms if tm.frequency == 0.0]
    out = [Piece("head", FINITE_X_MAX, head)]
    if rays:
        out.append(Piece("ray", HALF_LINE_X_MAX, on_path(_RAY, rays)))
    if flat:
        out.append(Piece("tail", HALF_LINE_X_MAX, on_path(1.0, flat)))
    return out


def _head_length(terms) -> float:
    """u0 = 2 pi over the smallest Hankel scale or frequency: past it
    every Hankel factor is in its oscillatory regime, so the terms
    carry no cancelling singular parts."""
    scales = [s for tm in terms for _, _, s, _ in tm.factors] \
        + [abs(tm.omega) for tm in terms]
    scales = [s for s in scales if s > 0.0]
    return 2.0 * np.pi / min(scales) if scales else 1.0


def integrate_oscillatory(weight, terms, kernel, tol: float, plan: dict,
                          n_rows: int = None):
    """Integral of kernel(t) * weight(t) over (0, oo), where
    kernel(t) = Re sum(term(sqrt t) for term in terms); with no terms,
    the whole half line by exp-sinh in t.

    weight is called on real and complex t (see the module docstring);
    kernel only on real t, in (0, u0^2] when there are terms.  plan
    keeps every value but the weight's across calls with the same terms
    and kernel, in its "pieces" (tanhsinh.Piece); terms may be a
    function returning them, called only when plan has no pieces.  The
    error estimate and info["reason"] are those of
    tanhsinh.integrate_pieces.  With n_rows, weight(t) has one row per
    integrand, shape (n_rows, t.size) (or (t.size,) for one), and the
    result is a QuadRows whose row i equals the one-row call on weight
    row i, bit for bit.
    """
    if "pieces" not in plan:
        terms = terms() if callable(terms) else terms
        if terms and min(tm.frequency for tm in terms) < 0.0:
            raise DomainError(
                "integrate_oscillatory needs net frequencies >= 0")
        plan["pieces"] = _pieces(terms, kernel)
    n = n_rows or 1
    out = integrate_pieces(plan["pieces"], lambda t, rows: weight(t)
                           if len(rows) == n else weight(t)[rows], n, tol)
    return out if n_rows else out[0]
