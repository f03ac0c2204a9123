"""Semi-infinite integrals of Bessel/trig kernels oscillating in sqrt(t).

The substitution u = sqrt(t) turns the phases into plain frequencies.
The u-axis is partitioned into cells of one full common period of every
frequency the kernel carries (sums and differences of commensurate base
frequencies are again multiples of the base, so each cell sum decays
smoothly with the cell index).  The cell partial sums are extrapolated
with a divided-difference Levin-type transformation (Sidi's
W-algorithm, u-type remainder estimates); the saturation point of the
table supplies both the value and an honest error estimate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from ..errors import DomainError
from .gauss_kronrod import _NODES, _WGFULL, _WK
from .result import QuadResult
from .tanhsinh import tanh_sinh_finite


def _common_base(freqs) -> float:
    """Largest frequency dividing all entries (rationalized); falls back
    to the smallest frequency for effectively incommensurate sets."""
    fracs = []
    for w in freqs:
        fr = Fraction(w).limit_denominator(512)
        if fr == 0 or abs(float(fr) - w) > 1e-9 * abs(w):
            return min(freqs)
        fracs.append(fr)
    num, den = 0, 1
    for fr in fracs:
        num = gcd(num, fr.numerator)
        den = lcm(den, fr.denominator)
    return num / den


def _composite_gk(g, lo: float, hi: float, panels: int):
    """Non-adaptive composite G7/K15 over [lo, hi] in one vector call."""
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    x = (mids[:, None] + halves[:, None] * _NODES[None, :]).ravel()
    y = np.asarray(g(x), dtype=float).reshape(panels, _NODES.size)
    if not np.all(np.isfinite(y)):
        raise DomainError("integrand returned non-finite values")
    ik = halves * (y @ _WK)
    ig = halves * (y @ _WGFULL)
    d = float(np.sum(np.abs(ik - ig)))
    err = min(d, (200.0 * d) ** 1.5 / 200.0) if d > 0 else 0.0
    return float(np.sum(ik)), err, x.size


def _sidi_w(sums: np.ndarray, cells: np.ndarray, max_depth: int = 16):
    """Limit estimate of the cell partial sums by the W-algorithm.

    Remainder model: omega_j * (polynomial in x_j), with u-type
    omega_j = (j+2) * cells[j] and x_j = 1/(j+2).  Returns (estimate,
    error estimate) at the saturation depth of the table.
    """
    n = sums.size
    if n < 4:
        return float(sums[-1]), np.inf
    xs = 1.0 / np.arange(2.0, n + 2.0)
    omega = np.arange(2.0, n + 2.0) * cells
    omega = np.where(omega == 0.0, 1e-300, omega)
    M = sums / omega
    N = 1.0 / omega
    history = []
    best = (float(sums[-1]), np.inf)
    for k in range(1, min(max_depth, n - 1) + 1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            M = (M[1:] - M[:-1]) / (xs[k:] - xs[:-k])
            N = (N[1:] - N[:-1]) / (xs[k:] - xs[:-k])
            est = M[-1] / N[-1]
        history.append(est)
        if k >= 2 and np.isfinite(history[-1]) and np.isfinite(history[-2]):
            err = abs(history[-1] - history[-2])
            if k >= 3 and np.isfinite(history[-3]):
                err += abs(history[-2] - history[-3])
            else:
                err *= 2.0
            if err < best[1]:
                best = (float(est), err)
    return best


def integrate_oscillatory(f, sqrt_frequencies: tuple,
                          tol: float = 1e-7) -> QuadResult:
    """Integral of f over (0, infinity) for kernels oscillating in sqrt(t).

    sqrt_frequencies holds the frequencies of the oscillatory factors as
    functions of u = sqrt(t): a for J_mu(a sqrt t) or trig(a sqrt t).
    """
    freqs = tuple(sqrt_frequencies)
    if not freqs or min(freqs) <= 0.0:
        raise DomainError("sqrt_frequencies must be nonempty and positive")
    base = _common_base(freqs)
    period = 2.0 * np.pi / base
    # resolve the fastest possible beat of products of the given factors
    w_fast = 2.0 * sum(freqs)
    panels = int(max(6, np.ceil(w_fast * period / np.pi)))

    def g(u):
        return 2.0 * u * f(u * u)

    head = tanh_sinh_finite(g, 0.0, period, tol=1e-13)
    n_evals = head.n_evals
    quad_err = head.err_estimate

    cells: list[float] = []
    sums: list[float] = []
    total = head.value
    best = (total, np.inf)
    converged = False
    for target in (16, 24, 32, 40, 56, 72, 96, 128):
        while len(cells) < target:
            k = len(cells)
            lo = (k + 1.0) * period
            c, e, ne = _composite_gk(g, lo, lo + period, panels)
            n_evals += ne
            quad_err += e
            total += c
            cells.append(c)
            sums.append(total)
        est, err = _sidi_w(np.asarray(sums), np.asarray(cells))
        if np.isfinite(est) and err < best[1]:
            best = (est, err)
        # rapidly damped envelopes terminate the cell series outright;
        # the raw sum then beats any extrapolation
        tail = abs(cells[-1]) + abs(cells[-2])
        if tail < best[1]:
            best = (total, tail)
        scale = max(abs(best[0]), 1e-300)
        if best[1] + quad_err <= tol * scale:
            converged = True
            break
    err_estimate = best[1] + quad_err if np.isfinite(best[1]) else abs(total - best[0]) + quad_err
    return QuadResult(best[0], err_estimate, n_evals, converged,
                      info={"cells": len(cells), "period": period,
                            "raw_tail_sum": total})
