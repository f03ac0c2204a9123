"""Double-exponential quadrature on one table of levels (de_level):
tanh-sinh (finite interval with endpoint singularities) and exp-sinh
(half line, integrable singularity at 0 plus decay at infinity)."""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from ..errors import DomainError
from .result import QuadResult

_HALF_PI = 0.5 * np.pi
FIRST_LEVEL = 3


@functools.lru_cache(maxsize=64)
def de_level(kind: str, x_max: float, level: int) -> tuple:
    """(x, h, *parts), read-only: the nodes x of one trapezoid level on
    [-x_max, x_max] (all at FIRST_LEVEL, the new odd ones after it), its
    step h and the map's weight-free arrays, with s = (pi/2) sinh x:
    kind "exp" (exp-sinh onto (0, oo)) the nodes e^s and their Jacobian;
    "tanh" q = e^{-2|s|}, 1 + q, cosh x, cosh(s)^2 (see tanh_sinh_nodes)."""
    h = x_max / 2.0 ** level
    if level == FIRST_LEVEL:
        x = np.arange(-x_max, x_max + 0.5 * h, h)
    else:
        x = np.arange(-x_max + h, x_max, 2.0 * h)
    with np.errstate(over="ignore", under="ignore"):
        s = _HALF_PI * np.sinh(x)
        if kind == "exp":
            r = np.exp(s)
            parts = (r, _HALF_PI * np.cosh(x) * r)
        else:
            q = np.exp(-2.0 * np.abs(s))
            parts = (q, 1.0 + q, np.cosh(x), np.cosh(s) ** 2)
    for v in (x, *parts):
        v.setflags(write=False)
    return (x, h, *parts)


def tanh_sinh_nodes(lvl: tuple, a: float, b: float) -> tuple:
    """Nodes in (a, b) and Jacobian of tanh-sinh on a "tanh" level."""
    x, _, q, one_q, cosh_x, cosh_s2 = lvl
    half = 0.5 * (b - a)
    # distance to the nearer endpoint without cancellation, where
    # mid + half*tanh(s) would round onto it and lose a singularity
    delta = half * 2.0 * q / one_q
    return (np.where(x < 0.0, a + delta, b - delta),
            half * _HALF_PI * cosh_x / cosh_s2)


def _values_on_nodes(memo: dict, t: np.ndarray, fn) -> np.ndarray:
    """fn(t) on a quadrature node array, evaluated once per node set.

    The nodes of an engine do not depend on the outer argument (z, s or
    a point of the upper half plane), so a sweep over that argument
    reuses every array; arrays are keyed in memo by shape, dtype and a
    digest of their bytes and stored read-only."""
    key = (t.shape, t.dtype.str,
           hashlib.blake2b(t.tobytes(), digest_size=16).digest())
    m = memo.get(key)
    if m is None:
        m = np.asarray(fn(t))
        m.flags.writeable = False
        memo[key] = m
    return m


def _de_integrate(g, kind: str, n_rows: int, x_max: float, tol: float,
                  max_level: int = 12):
    """Trapezoid sums of n_rows integrands on the levels of
    de_level(kind, x_max, .), with a last-difference error estimate.

    g(lvl, rows) gives the rows listed in the index array `rows` on the
    level lvl, shape (rows.size, nodes).  Each row stops at the level
    where its own last difference meets tol, so its value, error,
    evaluation count and convergence flag (arrays over the rows) are
    those of a one-row call.  Non-finite values in the extreme tails,
    where the map has damped the integrand below tolerance, count as
    zero; in the core they abort.
    """
    def row_sums(lvl, rows):
        u = lvl[0]
        with np.errstate(over="ignore", invalid="ignore", under="ignore",
                         divide="ignore"):
            v = np.asarray(g(lvl, rows), dtype=float)
        v = v.reshape(rows.size, u.size)
        bad = ~np.isfinite(v)
        if bad.any():
            if np.any(np.abs(u[bad.any(axis=0)]) < 0.75 * x_max):
                raise DomainError("integrand returned non-finite values")
            v = np.where(bad, 0.0, v)
        return v.sum(axis=-1)

    level = FIRST_LEVEL
    x, h, *_ = lvl = de_level(kind, x_max, level)
    n = x.size
    total = (row_sums(lvl, np.arange(n_rows)) * h).tolist()
    err = [np.inf] * n_rows
    n_evals = [n] * n_rows
    converged = [False] * n_rows
    # the level bookkeeping runs per live row in Python floats: the
    # arithmetic of a one-row call, at its cost
    rows = list(range(n_rows))
    while level < max_level and rows:
        level += 1
        x, h, *_ = lvl = de_level(kind, x_max, level)
        n += x.size
        live = []
        for r, s in zip(rows, row_sums(lvl, np.array(rows)).tolist()):
            new = 0.5 * total[r] + h * s
            err[r] = abs(new - total[r])
            total[r] = new
            n_evals[r] = n
            # double-exponential convergence: one more halving squares
            # the error, so the last difference bounds it comfortably
            if err[r] <= tol * max(abs(new), 1e-300):
                converged[r] = True
            else:
                live.append(r)
        rows = live
    return (np.array(total), np.array(err), np.array(n_evals),
            np.array(converged))


def _first_row(res: QuadResult) -> QuadResult:
    return QuadResult(float(res.value[0]), float(res.err_estimate[0]),
                      int(res.n_evals[0]), bool(res.converged[0]))


def tanh_sinh_finite(f, a: float, b: float, tol: float = 1e-12,
                     u_max: float = 4.0, max_level: int = 12) -> QuadResult:
    """Integral over [a, b] tolerating endpoint singularities."""
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise DomainError("tanh_sinh_finite requires finite a < b")

    def g(lvl, rows):
        x, jac = tanh_sinh_nodes(lvl, a, b)
        return f(x) * jac

    return _first_row(QuadResult(*_de_integrate(g, "tanh", 1, u_max, tol,
                                                 max_level)))


def integrate_singular_decay(f, tol: float = 1e-10, u_max: float = 6.5,
                             max_level: int = 12) -> QuadResult:
    """Integral of f over (0, infinity) by the exp-sinh transform.

    Handles an integrable algebraic singularity t^p (p > -1) at the
    origin together with exponential or algebraic (faster than 1/t)
    decay at infinity.
    """
    return _first_row(_integrate_singular_decay_rows(
        lambda t, rows: f(t), 1, tol, u_max, max_level))


def _integrate_singular_decay_rows(f, n_rows: int, tol: float = 1e-10,
                                   u_max: float = 6.5,
                                   max_level: int = 12) -> QuadResult:
    """integrate_singular_decay of n_rows integrands in one pass.

    f(t, rows) gives the rows listed in the index array `rows` at the
    nodes t, shape (rows.size, t.size).  Every field of the result is
    an array over the rows, and row i equals the one-row call on its
    integrand, bit for bit.
    """

    def g(lvl, rows):
        _, _, t, jac = lvl
        return np.where(np.isfinite(jac), f(t, rows) * jac, np.inf)

    return QuadResult(*_de_integrate(g, "exp", n_rows, u_max, tol,
                                     max_level))
