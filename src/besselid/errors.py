"""Exception types shared across the package, and its complex-input check."""

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
