"""Exception types shared across the package, and its checks of real
and complex input."""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """A parameter set violates the constraints of a distribution or identity."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to reach the requested tolerance."""


class UnsupportedVariantError(NotImplementedError):
    """The requested operation has no closed form for this variant."""


def real_array(x, what: str = "x") -> np.ndarray:
    """x as a float array; DomainError where x is complex, whose
    imaginary part a float conversion would drop."""
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise DomainError(f"{what} must be real, got complex input")
    return arr.astype(float, copy=False)


def points(x, what: str, low: float = 0.0, closed: bool = False,
           name: str = "x") -> np.ndarray:
    """x as a float array, a scalar staying 0-d; DomainError naming the
    entry point `what`, the first point that is not finite and above low
    (at or above it when closed) and its flat index.  low = -inf asks
    for finite points alone.  The one rule for every real entry point."""
    arr = real_array(x, f"{what} {name}")
    # a loop accepts a few points faster than numpy's reductions; NaN
    # fails every comparison
    if arr.size <= 16:
        vals = arr.ravel().tolist()
        if all(low <= v < math.inf for v in vals) if closed \
                else all(low < v < math.inf for v in vals):
            return arr
    flat = arr.reshape(-1)
    ok = (flat >= low if closed else flat > low) & (flat < np.inf)
    if ok.all():
        return arr
    i = int(np.argmin(ok))
    bound = "" if low == -math.inf else f" {'>=' if closed else '>'} {low:g}"
    raise DomainError(f"{what} requires finite {name}{bound}; got {name} = "
                      f"{float(flat[i])!r} at flat index {i}")


def off_cut(z, what: str) -> np.ndarray:
    """z as a complex array; DomainError at a non-finite part and on the
    cut (-oo, 0], whose two rims differ, whatever the sign of Im z = 0."""
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr) & ((arr.imag != 0.0) | (arr.real > 0.0))):
        raise DomainError(f"{what} requires finite z off the cut (-oo, 0]")
    return arr


def upper_half_plane(re, im, what: str) -> tuple:
    """re and im broadcast to float arrays; DomainError unless every re
    is finite and every im in (0, oo)."""
    re, im = np.broadcast_arrays(real_array(re, "re"), real_array(im, "im"))
    if not np.all(np.isfinite(re) & (im > 0.0) & (im < np.inf)):
        raise DomainError(f"{what} requires finite re and im > 0")
    return re, im
