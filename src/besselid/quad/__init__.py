"""Quadrature engines used throughout the package."""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import DomainError
from .oscillatory import integrate_oscillatory
from .result import QuadResult
from .tanhsinh import integrate_singular_decay, tanh_sinh_finite

__all__ = [
    "QuadResult",
    "tanh_sinh_finite",
    "integrate_singular_decay",
    "integrate_oscillatory",
    "numeric_laplace",
]


def numeric_laplace(f, x: float, tol: float = 1e-10) -> QuadResult:
    """Numeric Laplace transform: integral of e^{-x t} f(t) over (0, oo)."""
    if x <= 0.0:
        raise DomainError("numeric_laplace requires x > 0")

    def g(t):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-x * t) * f(t)

    return integrate_singular_decay(g, tol=tol)


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
