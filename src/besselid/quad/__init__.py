"""Quadrature engines used throughout the package."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, points
from .oscillatory import HankelTerm, integrate_oscillatory
from .result import QuadResult, QuadRows
from .tanhsinh import (HALF_LINE, half_line_piece, integrate_pieces,
                       integrate_singular_decay, tanh_sinh_finite)

__all__ = [
    "QuadResult",
    "QuadRows",
    "tanh_sinh_finite",
    "integrate_singular_decay",
    "integrate_oscillatory",
    "HankelTerm",
    "numeric_laplace",
    "positive_points",
]


def positive_points(x, what: str) -> np.ndarray:
    """x as a 1-d float array of one or more finite points > 0
    (errors.points), else DomainError."""
    xs = points(x, what, name="points").reshape(-1)
    if not xs.size:
        raise DomainError(f"{what} requires one or more points")
    return xs


def numeric_laplace(f, x, tol: float = 1e-10):
    """Numeric Laplace transform: integral of e^{-x t} f(t) over (0, oo).
    An array x gives a QuadRows from one exp-sinh call on the shared
    tanhsinh.HALF_LINE, which evaluates f once per level for all live
    rows; row i equals the call at x[i]."""
    xs = positive_points(x, "numeric_laplace")
    # one row as a scalar: numpy broadcasts 1-d arrays faster
    col = -xs[:, None] if xs.size > 1 else -float(xs[0])
    rows = integrate_pieces(
        [half_line_piece(HALF_LINE)], lambda t, rows: np.exp(
            (col if len(rows) == xs.size else col[rows]) * t) * f(t),
        xs.size, tol)
    return rows if np.asarray(x).ndim else rows[0]
