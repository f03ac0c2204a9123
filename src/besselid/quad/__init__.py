"""Quadrature engines used throughout the package."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .oscillatory import HankelTerm, integrate_oscillatory
from .result import QuadResult
from .tanhsinh import integrate_singular_decay, tanh_sinh_finite

__all__ = [
    "QuadResult",
    "tanh_sinh_finite",
    "integrate_singular_decay",
    "integrate_oscillatory",
    "HankelTerm",
    "numeric_laplace",
]


def numeric_laplace(f, x: float, tol: float = 1e-10) -> QuadResult:
    """Numeric Laplace transform: integral of e^{-x t} f(t) over (0, oo)."""
    if x <= 0.0:
        raise DomainError("numeric_laplace requires x > 0")
    return integrate_singular_decay(lambda t: np.exp(-x * t) * f(t), tol=tol)
