"""The one domain rule of every real entry point (errors.points)."""

import math

import numpy as np
import pytest

from besselid import specfun
from besselid.distributions import (KDist, McKayI, McKayII, hcm_profile,
                                    laplace_closed, log_pdf, pdf)
from besselid.errors import DomainError, points
from besselid.idtests import IKMu, lt_value
from besselid.quad import numeric_laplace
from besselid.smoothfn import PowerLadder
from besselid.stieltjes import make_identity

_REC = make_identity("IK_EQUAL")
_MCKAY1 = McKayI(1.0, 0.5, 1.5)
_MCKAY2 = McKayII(0.7, 0.6, 1.2)

# entry point: (the name its DomainError gives, call, low, closed); a
# point is valid when finite and above low (at or above it when closed)
ENTRY_POINTS = {
    "bessel_j": ("bessel_j", lambda x: specfun.bessel_j(0.5, x), 0.0, True),
    "bessel_y": ("bessel_y", lambda x: specfun.bessel_y(0.5, x), 0.0, False),
    "bessel_i": ("bessel_i", lambda x: specfun.bessel_i(0.5, x), 0.0, True),
    "bessel_i_scaled": ("bessel_i", lambda x: specfun.bessel_i(
        0.5, x, scaled=True), 0.0, True),
    "bessel_k": ("bessel_k", lambda x: specfun.bessel_k(0.5, x), 0.0, False),
    "kummer_m": ("kummer_m", lambda x: specfun.kummer_m(0.7, 0.3, x),
                 -math.inf, False),
    "tricomi_psi": ("tricomi_psi", lambda x: specfun.tricomi_psi(
        0.7, 0.3, x), 0.0, False),
    "tricomi_psi_boundary": ("tricomi_psi_boundary", lambda t:
                             specfun.tricomi_psi_boundary(1.5, 0.5, t),
                             0.0, False),
    "tricomi_boundary_mod2": ("tricomi_psi_boundary", lambda t:
                              specfun.tricomi_boundary_mod2(1.5, 0.5, t),
                              0.0, False),
    "numeric_laplace": ("numeric_laplace", lambda x: numeric_laplace(
        lambda t: np.exp(-t), x), 0.0, False),
    "lhs_value": ("lhs_value", _REC.lhs_value, 0.0, False),
    "stieltjes_rhs": ("stieltjes_rhs", _REC.stieltjes_rhs, 0.0, False),
    "kernel_density": ("kernel_density", _REC.kernel_density, 0.0, False),
    "laplace_density": ("laplace_density", _REC.laplace_density, 0.0, False),
    "inversion_check": ("inversion_check", _REC.inversion_check, 0.0, False),
    "lt_value": ("lt_value", lambda x: lt_value(IKMu(1.0), x), 0.0, False),
    "lt_value_family": ("lt_value", lambda x: lt_value(_MCKAY2, x),
                        0.0, False),
    "log_pdf": ("log_pdf", lambda x: log_pdf(_MCKAY1, x), 0.0, False),
    "pdf": ("log_pdf", lambda x: pdf(_MCKAY1, x), 0.0, False),
    "hcm_profile": ("hcm_profile", lambda w: hcm_profile(
        KDist(1.2, 2.0, 1.0), 1.0, w), 2.0, False),
    "ladder": ("PowerLadder", lambda x: PowerLadder(1.5, -0.7, 0.2)
               .derivatives(x, 2), -math.inf, False),
    "laplace_closed": ("laplace_closed", lambda x: laplace_closed(
        _MCKAY2, x), 0.0, True),
}


def _cases():
    for key, (_, _, low, closed) in ENTRY_POINTS.items():
        below = [] if low == -math.inf else [
            low - 1e-300 if closed else low, low - 1.0, low - 2.0]
        for bad in [math.nan, math.inf, -math.inf] + below:
            yield pytest.param(key, bad, id=f"{key}-{bad!r}")


@pytest.mark.parametrize("key,bad", _cases())
def test_every_real_entry_point_rejects_bad_points(key, bad):
    # no NaN, no inf and no value of a continuation: one DomainError that
    # names the entry point, the first bad point and its flat index, on
    # one point, in a short array (checked point by point) and in a long
    # one (checked by numpy)
    what, call, low, _ = ENTRY_POINTS[key]
    good = low + 1.5 if low > -math.inf else 0.5
    text = rf"{what} requires finite .*; got \w+ = {bad!r} at flat index"
    with pytest.raises(DomainError, match=rf"{text} 0\b"):
        call(bad)
    with pytest.raises(DomainError, match=rf"{text} 1\b"):
        call([good, bad, good + 1.0])
    with pytest.raises(DomainError, match=rf"{text} 2\b"):
        call(np.array([[good, good], [bad, good]]))
    long = np.full(40, good)
    long[[23, 31]] = bad
    with pytest.raises(DomainError, match=rf"{text} 23\b"):
        call(long)


def test_points_keeps_shape_and_values():
    for x in (0.7, np.array(0.7), [0.7, 2.0],
              np.linspace(0.1, 5.0, 40).reshape(8, 5)):
        got = points(x, "f")
        assert got.dtype == float and got.shape == np.shape(x)
        assert np.array_equal(got, x)
    # a closed bound takes the bound itself, -0.0 too
    assert points(-0.0, "f", closed=True) == 0.0
    with pytest.raises(DomainError, match="f requires finite x > 0"):
        points(0.0, "f")
