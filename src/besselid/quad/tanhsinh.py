"""Double-exponential quadrature: tanh-sinh (finite interval with
endpoint singularities) and exp-sinh (half line, integrable endpoint
singularity at 0 plus decay at infinity)."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .result import QuadResult

_HALF_PI = 0.5 * np.pi


def _de_integrate(g, n_rows: int, u_max: float, tol: float,
                  max_level: int = 12):
    """Trapezoid sums of n_rows transformed integrands over [-u_max, u_max]
    with step halving and a last-difference error estimate.

    g(u, rows) gives the rows listed in the index array `rows` at the
    nodes u, shape (rows.size, u.size).  Each row stops at the level
    where its own last difference meets tol and is not sampled again,
    so its value, error, evaluation count and convergence flag (arrays
    over the rows) are those of a one-row call.

    Values that are non-finite in the extreme tails are treated as zero
    (the transform has already damped them below tolerance there);
    non-finite values in the core abort the computation.
    """
    def row_sums(u, rows):
        with np.errstate(over="ignore", invalid="ignore", under="ignore",
                         divide="ignore"):
            v = np.asarray(g(u, rows), dtype=float).reshape(rows.size, u.size)
        bad = ~np.isfinite(v)
        if bad.any():
            if np.any(np.abs(u[bad.any(axis=0)]) < 0.75 * u_max):
                raise DomainError("integrand returned non-finite values")
            v = np.where(bad, 0.0, v)
        return v.sum(axis=-1)

    level = 3
    h = u_max / 2.0 ** level
    u = np.arange(-u_max, u_max + 0.5 * h, h)
    n = u.size
    total = (row_sums(u, np.arange(n_rows)) * h).tolist()
    err = [np.inf] * n_rows
    n_evals = [n] * n_rows
    converged = [False] * n_rows
    # the level bookkeeping runs per live row in Python floats: the
    # arithmetic of a one-row call, at its cost
    rows = list(range(n_rows))
    while level < max_level and rows:
        level += 1
        h *= 0.5
        u_new = np.arange(-u_max + h, u_max, 2.0 * h)
        n += u_new.size
        live = []
        for r, s in zip(rows, row_sums(u_new, np.array(rows)).tolist()):
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
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def g(u, rows):
        s = _HALF_PI * np.sinh(u)
        # distance to the nearer endpoint, cancellation-free:
        # 1 - tanh|s| = 2 e^{-2|s|} / (1 + e^{-2|s|}) stays accurate in
        # the tails where mid + half*tanh(s) would round onto the
        # endpoint and destroy integrable singularities
        q = np.exp(-2.0 * np.abs(s))
        delta = half * 2.0 * q / (1.0 + q)
        x = np.where(u < 0.0, a + delta, b - delta)
        jac = half * _HALF_PI * np.cosh(u) / np.cosh(s) ** 2
        return f(x) * jac

    return _first_row(QuadResult(*_de_integrate(g, 1, u_max, tol,
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

    def g(u, rows):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            s = _HALF_PI * np.sinh(u)
            t = np.exp(s)
            jac = _HALF_PI * np.cosh(u) * t
            out = np.where(np.isfinite(jac), f(t, rows) * jac, np.inf)
        return out

    return QuadResult(*_de_integrate(g, n_rows, u_max, tol, max_level))
