"""Catalog of Stieltjes-transform identities for modified Bessel and
Tricomi functions.

Each catalog entry pairs a closed-form left-hand side F(z) with a
closed-form kernel density m(t) such that

    F(z) = c0(z) + [z]^e * integral m(t) / (z + t) dt,

where c0 is a constant term (zero for most entries) and e is 0 or 1
(the Tricomi shift identities carry a z/(z+t) factor).  The module
verifies the identity numerically, evaluates the inner Laplace
transforms that produce probability densities, and cross-checks the
kernels through the Perron-Stieltjes inversion formula.

Two entries (the product representations of K_mu(x)K_mu(y) and
I_mu(a)I_mu(b)) are plain one-dimensional integral identities rather
than Stieltjes transforms; they share the residual interface but do
not support inversion or inner Laplace evaluation.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import DomainError, ParameterError, UnsupportedVariantError
from .quad import (OscSpec, QuadResult, integrate_oscillatory,
                   integrate_singular_decay, tanh_sinh_finite)
from .specfun import tricomi_boundary_mod2, tricomi_psi

__all__ = [
    "IdentityRecord", "make_identity", "catalog_names", "default_params",
    "tolerance", "verification_rows", "rows_to_csv",
]

_TIGHT = 1e-7
_HARD = 1e-4
_HARD_ENTRIES = frozenset({"KK_RECIP", "IK_QUOT"})

# entries that are genuine Stieltjes transforms of a measure (support
# inversion); the complement is the pair of product identities
_PRODUCT_ENTRIES = frozenset({"MCDONALD", "I_PRODUCT_ANGLE"})
# entries of the form "inner Laplace gives a section-3 density"
_LAPLACE_ENTRIES = frozenset({
    "I_EXP", "IK_PROD", "IK_EQUAL", "IK_EXP", "KK_PROD", "II_EXP",
    "KK_RECIP", "IK_QUOT", "K_RECIP", "K_RATIO",
})
_TRICOMI_ENTRIES = frozenset({
    "TRICOMI_RATIO", "TRICOMI_Cm1", "TRICOMI_Ap1", "TRICOMI_Cp1",
    "TRICOMI_Am1",
})


def _sqrtz(z):
    """Principal square root accepting complex z off the cut."""
    return np.sqrt(z + 0.0j) if np.iscomplexobj(np.asarray(z)) else np.sqrt(z)


def _iv_scaled(nu, w):
    """I_nu(w) e^{-w}; exact scaling for real w, plain product for complex."""
    if np.iscomplexobj(np.asarray(w)):
        return _sp.iv(nu, w) * np.exp(-w)
    return _sp.ive(nu, w)


def _kv_scaled(nu, w):
    """K_nu(w) e^{+w}."""
    if np.iscomplexobj(np.asarray(w)):
        return _sp.kv(nu, w) * np.exp(w)
    return _sp.kve(nu, w)


def _tricomi_complex_large(a: float, c: float, z: complex):
    """Divergent-series asymptotics psi ~ z^{-a} sum (a)_k (a-c+1)_k /
    (k! (-z)^k), truncated at the smallest term."""
    total = term = 1.0 + 0j
    for k in range(40):
        nxt = term * (a + k) * (a - c + 1.0 + k) / ((k + 1.0) * (-z))
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
    return np.exp(-a * np.log(z)) * total


def _tricomi_complex_integral(a: float, c: float, z: complex):
    """psi(a, c, z) = (1/Gamma(a)) int_0^oo e^{-zt} t^{a-1} (1+t)^{c-a-1} dt
    on frozen exp-sinh nodes; needs a > 0 and Re z comfortably positive."""
    h = 1.0 / 40.0
    u = np.arange(-3.5, 3.5 + 0.5 * h, h)
    s = 0.5 * np.pi * np.sinh(u)
    t = np.exp(s)
    w = h * 0.5 * np.pi * np.cosh(u) * t
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ex = np.where(z.real * t < 700.0, np.exp(-z * t), 0.0)
        vals = ex * t ** (a - 1.0) * (1.0 + t) ** (c - a - 1.0)
    return np.sum(w * vals) / math.gamma(a)


def _tricomi_complex(a: float, c: float, z):
    """Tricomi psi(a, c, z) for complex z off (-oo, 0], c non-integer.

    The two-Kummer connection formula cancels like e^{Re z}, so it is
    used only for Re z <= 8; larger real parts go through the Laplace
    integral and |z| > 25 through the large-argument asymptotic series.
    """
    za = np.asarray(z, dtype=complex)
    if za.ndim > 0:
        return np.array([_tricomi_complex(a, c, w) for w in za.ravel()]
                        ).reshape(za.shape)
    zc = complex(za)
    if abs(zc) > 25.0:
        return _tricomi_complex_large(a, c, zc)
    if zc.real > 8.0 and a > 0.0:
        return _tricomi_complex_integral(a, c, zc)
    m1 = _sp.hyp1f1(a, c, zc)
    m2 = _sp.hyp1f1(a - c + 1.0, 2.0 - c, zc)
    g1 = math.gamma(1.0 - c) / math.gamma(a - c + 1.0)
    g2 = math.gamma(c - 1.0) / math.gamma(a)
    return g1 * m1 + g2 * np.exp((1.0 - c) * np.log(zc)) * m2


def _tricomi_any(a: float, c: float, z):
    if a <= 0.0:
        # three-term recurrence in a,
        #   psi(a) = (2(a+1) - c + z) psi(a+1)
        #            - (a+1)(a+2-c) psi(a+2),
        # keeps evaluation inside the a > 0 region
        p1 = _tricomi_any(a + 1.0, c, z)
        p2 = _tricomi_any(a + 2.0, c, z)
        return (2.0 * (a + 1.0) - c + z) * p1 \
            - (a + 1.0) * (a + 2.0 - c) * p2
    if np.iscomplexobj(np.asarray(z)):
        return _tricomi_complex(a, c, z)
    return tricomi_psi(a, c, z)


# ---------------------------------------------------------------------------
# Entry table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Entry:
    names: tuple                  # parameter names in order
    check: object                 # params -> None or raises ParameterError
    lhs: object                   # (params, z) -> value (complex capable)
    kernel: object                # (params, t array) -> array
    osc: object                   # params -> OscSpec
    defaults: dict
    const: object = None          # (params, z) -> constant term (default 0)
    z_factor: bool = False        # integral carries z/(z+t) instead of 1/(z+t)


def _chk(cond: bool, msg: str):
    if not cond:
        raise ParameterError(msg)


def _bessel_mod2(mu, r):
    """J_mu(r)^2 + Y_mu(r)^2, switching to the Hankel-modulus asymptotic
    2/(pi r) (1 + (4 mu^2 - 1)/(8 r^2)) where scipy's J, Y lose accuracy."""
    r = np.asarray(r, dtype=float)
    big = r > 1e6
    rs = np.where(big, 1.0, r)
    with np.errstate(invalid="ignore"):
        small = _sp.jv(mu, rs) ** 2 + _sp.yv(mu, rs) ** 2
    ra = np.where(big, r, 1.0)
    large = 2.0 / (np.pi * ra) * (1.0 + (4.0 * mu * mu - 1.0) / (8.0 * ra * ra))
    return np.where(big, large, small)


def _gamma_big(mu, nu, a, b, t):
    """Gamma_{mu,nu,a,b}(t): oscillatory numerator over the product of
    Bessel moduli, from the reciprocal-KK representation."""
    ra, rb = a * np.sqrt(t), b * np.sqrt(t)
    jm, ym = _sp.jv(mu, ra), _sp.yv(mu, ra)
    jn, yn = _sp.jv(nu, rb), _sp.yv(nu, rb)
    t1 = jm * yn + jn * ym
    t2 = jm * jn - ym * yn
    s = (a + b) * np.sqrt(t)
    return (t1 * np.cos(s) - t2 * np.sin(s)) / ((jm**2 + ym**2) * (jn**2 + yn**2))


def _gamma_small(nu, a, b, t):
    """gamma_{nu,a,b}(t) from the I/K quotient representation."""
    rb = b * np.sqrt(t)
    jn, yn = _sp.jv(nu, rb), _sp.yv(nu, rb)
    s = (a + b) * np.sqrt(t)
    return (jn * np.cos(s) + yn * np.sin(s)) / (jn**2 + yn**2)


def _build_catalog():
    cat = {}

    # --- pure Bessel family -------------------------------------------------
    def iexp_lhs(p, z):
        mu, a = p["mu"], p["a"]
        w = _sqrtz(z)
        return z ** (-0.5 * mu) * _iv_scaled(mu, a * w)

    cat["I_EXP"] = _Entry(
        names=("mu", "a"),
        check=lambda p: _chk(p["a"] > 0 and p["mu"] > -0.5,
                             "I_EXP requires a > 0 and mu > -1/2"),
        lhs=iexp_lhs,
        kernel=lambda p, t: (1.0 / np.pi) * t ** (-0.5 * p["mu"])
        * _sp.jv(p["mu"], p["a"] * np.sqrt(t)) * np.sin(p["a"] * np.sqrt(t)),
        osc=lambda p: OscSpec((p["a"], p["a"]), endpoint_exponent=0.5),
        defaults={"mu": 1.0, "a": 1.0},
    )

    def ikprod_check(p):
        _chk(0.0 < p["a"] <= p["b"], "IK_PROD requires 0 < a <= b")
        if p.get("extended_domain"):
            _chk(p["nu"] > -1.0 and p["nu"] - p["mu"] < 2.0,
                 "IK_PROD extended domain requires nu > -1 and nu - mu < 2")
        else:
            _chk(p["nu"] >= 0.0 and p["nu"] - p["mu"] < 1.0,
                 "IK_PROD requires nu >= 0 and nu - mu < 1 "
                 "(pass extended_domain=1 for nu > -1, nu - mu < 2)")

    def ikprod_lhs(p, z):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        w = _sqrtz(z)
        return z ** (0.5 * (nu - mu)) * _iv_scaled(mu, a * w) \
            * _kv_scaled(nu, b * w) * np.exp((a - b) * w)

    cat["IK_PROD"] = _Entry(
        names=("mu", "nu", "a", "b"),
        check=ikprod_check,
        lhs=ikprod_lhs,
        kernel=lambda p, t: 0.5 * t ** (0.5 * (p["nu"] - p["mu"]))
        * _sp.jv(p["mu"], p["a"] * np.sqrt(t))
        * _sp.jv(p["nu"], p["b"] * np.sqrt(t)),
        osc=lambda p: OscSpec((p["a"], p["b"]),
                              endpoint_exponent=0.5 * (p["nu"] + p["mu"])
                              + 0.5 * (p["nu"] - p["mu"])),
        defaults={"mu": 0.6, "nu": 0.8, "a": 0.75, "b": 1.0},
    )

    cat["IK_EQUAL"] = _Entry(
        names=("mu",),
        check=lambda p: _chk(p["mu"] > -1.0, "IK_EQUAL requires mu > -1"),
        lhs=lambda p, z: 2.0 * _iv_scaled(p["mu"], _sqrtz(z))
        * _kv_scaled(p["mu"], _sqrtz(z)),
        kernel=lambda p, t: _sp.jv(p["mu"], np.sqrt(t)) ** 2,
        osc=lambda p: OscSpec((1.0, 1.0), endpoint_exponent=p["mu"]),
        defaults={"mu": 0.7},
    )

    def ikexp_lhs(p, z):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        w = _sqrtz(z)
        return z ** (0.5 * (nu - mu)) * _iv_scaled(mu, a * w) \
            * _kv_scaled(nu, b * w) * np.exp(-b * w)

    def ikexp_kernel(p, t):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        rt = np.sqrt(t)
        return 0.5 * t ** (0.5 * (nu - mu)) * _sp.jv(mu, a * rt) \
            * (_sp.jv(nu, b * rt) * np.cos(a * rt)
               - _sp.yv(nu, b * rt) * np.sin(a * rt))

    cat["IK_EXP"] = _Entry(
        names=("mu", "nu", "a", "b"),
        check=lambda p: _chk(p["mu"] > -1.0 and p["nu"] > -1.0
                             and p["a"] > 0 and p["b"] > 0,
                             "IK_EXP requires mu, nu > -1 and a, b > 0"),
        lhs=ikexp_lhs,
        kernel=ikexp_kernel,
        osc=lambda p: OscSpec((p["a"], p["b"], p["a"]),
                              endpoint_exponent=min(p["nu"],
                                                    0.5 * (p["nu"] - p["mu"])
                                                    + 0.5 * p["mu"])),
        defaults={"mu": 0.8, "nu": 0.6, "a": 0.4, "b": 0.5},
    )

    def kkprod_lhs(p, z):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        w = _sqrtz(z)
        return z ** (0.5 * (mu + nu)) * _kv_scaled(mu, a * w) \
            * _kv_scaled(nu, b * w) * np.exp(-(a + b) * w)

    def kkprod_kernel(p, t):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        rt = np.sqrt(t)
        return -0.25 * np.pi * t ** (0.5 * (mu + nu)) \
            * (_sp.jv(mu, a * rt) * _sp.yv(nu, b * rt)
               + _sp.jv(nu, b * rt) * _sp.yv(mu, a * rt))

    cat["KK_PROD"] = _Entry(
        names=("mu", "nu", "a", "b"),
        check=lambda p: _chk(p["mu"] >= 0 and p["nu"] >= 0
                             and p["a"] > 0 and p["b"] > 0,
                             "KK_PROD requires mu, nu >= 0 and a, b > 0"),
        lhs=kkprod_lhs,
        kernel=kkprod_kernel,
        osc=lambda p: OscSpec((p["a"], p["b"]),
                              endpoint_exponent=0.0 if p["nu"] > 0
                              else 0.5 * p["mu"]),
        defaults={"mu": 0.3, "nu": 0.6, "a": 0.2, "b": 0.3},
    )

    def iiexp_lhs(p, z):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        w = _sqrtz(z)
        return z ** (-0.5 * (mu + nu)) * _iv_scaled(mu, a * w) \
            * _iv_scaled(nu, b * w)

    cat["II_EXP"] = _Entry(
        names=("mu", "nu", "a", "b"),
        check=lambda p: _chk(p["mu"] > -1.0 and p["nu"] > -1.0
                             and p["mu"] + p["nu"] > -1.0
                             and p["a"] > 0 and p["b"] > 0,
                             "II_EXP requires mu, nu > -1, mu + nu > -1"),
        lhs=iiexp_lhs,
        kernel=lambda p, t: (1.0 / np.pi) * t ** (-0.5 * (p["mu"] + p["nu"]))
        * _sp.jv(p["mu"], p["a"] * np.sqrt(t))
        * _sp.jv(p["nu"], p["b"] * np.sqrt(t))
        * np.sin((p["a"] + p["b"]) * np.sqrt(t)),
        osc=lambda p: OscSpec((p["a"], p["b"], p["a"] + p["b"]),
                              endpoint_exponent=0.5),
        defaults={"mu": 0.7, "nu": 0.6, "a": 0.2, "b": 0.3},
    )

    def kkrecip_lhs(p, z):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        w = _sqrtz(z)
        return z ** (-0.5 * (mu + nu)) \
            / (_kv_scaled(mu, a * w) * _kv_scaled(nu, b * w))

    cat["KK_RECIP"] = _Entry(
        names=("mu", "nu", "a", "b"),
        check=lambda p: _chk(p["mu"] + p["nu"] > 1.0
                             and p["a"] > 0 and p["b"] > 0,
                             "KK_RECIP requires mu + nu > 1 and a, b > 0"),
        lhs=kkrecip_lhs,
        kernel=lambda p, t: (4.0 / np.pi**3)
        * t ** (-0.5 * (p["mu"] + p["nu"]))
        * _gamma_big(p["mu"], p["nu"], p["a"], p["b"], t),
        osc=lambda p: OscSpec((p["a"], p["b"], p["a"] + p["b"]),
                              endpoint_exponent=0.0),
        defaults={"mu": 0.8, "nu": 0.7, "a": 0.3, "b": 0.4},
    )

    def ikquot_lhs(p, z):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        w = _sqrtz(z)
        return z ** (-0.5 * (mu + nu)) * _iv_scaled(mu, a * w) \
            / _kv_scaled(nu, b * w)

    cat["IK_QUOT"] = _Entry(
        names=("mu", "nu", "a", "b"),
        check=lambda p: _chk(p["mu"] > -1.0 and p["mu"] + p["nu"] > 0.0
                             and p["a"] > 0 and p["b"] > 0,
                             "IK_QUOT requires mu > -1 and mu + nu > 0"),
        lhs=ikquot_lhs,
        kernel=lambda p, t: -(2.0 / np.pi**2)
        * t ** (-0.5 * (p["mu"] + p["nu"]))
        * _sp.jv(p["mu"], p["a"] * np.sqrt(t))
        * _gamma_small(p["nu"], p["a"], p["b"], t),
        osc=lambda p: OscSpec((p["a"], p["b"], p["a"] + p["b"]),
                              endpoint_exponent=0.0),
        defaults={"mu": 0.8, "nu": 0.6, "a": 0.3, "b": 0.4},
    )

    def krecip_lhs(p, z):
        nu, b = p["nu"], p["b"]
        w = _sqrtz(z)
        return z ** (-0.5 * nu) / _kv_scaled(nu, b * w)

    cat["K_RECIP"] = _Entry(
        names=("nu", "b"),
        check=lambda p: _chk(p["nu"] > 0.5 and p["b"] > 0,
                             "K_RECIP requires nu > 1/2 and b > 0"),
        lhs=krecip_lhs,
        kernel=lambda p, t: -(2.0 / np.pi**2) * t ** (-0.5 * p["nu"])
        * _gamma_small(p["nu"], 0.0, p["b"], t),
        osc=lambda p: OscSpec((p["b"], p["b"]), endpoint_exponent=0.0),
        defaults={"nu": 0.8, "b": 0.5},
    )

    def kratio_lhs(p, z):
        mu = p["mu"]
        w = _sqrtz(z)
        return _kv_scaled(mu - 1.0, w) / (w * _kv_scaled(mu, w))

    def kratio_kernel(p, t):
        mu = p["mu"]
        return (2.0 / np.pi**2) / (t * _bessel_mod2(mu, np.sqrt(t)))

    cat["K_RATIO"] = _Entry(
        names=("mu",),
        check=lambda p: _chk(p["mu"] >= 0.0, "K_RATIO requires mu >= 0"),
        lhs=kratio_lhs,
        kernel=kratio_kernel,
        osc=lambda p: OscSpec(()),
        defaults={"mu": 0.9},
    )

    # --- Tricomi family -----------------------------------------------------
    def tric_check(p):
        a, c = p["a"], p["c"]
        _chk(a > 0.0 and c < 1.0, "Tricomi entries require a > 0 and c < 1")
        _chk(abs(c - round(c)) > 1e-9,
             "Tricomi entries require non-integer c")

    def tric_kernel(p, t, gamma_shift):
        a, c = p["a"], p["c"]
        norm = np.exp(-_sp.gammaln(a + gamma_shift[0])
                      - _sp.gammaln(a - c + gamma_shift[1]))
        t = np.asarray(t, dtype=float)
        # e^{-t} underflows past ~745; the kernel is identically zero
        # there in double precision, so skip the boundary evaluation
        dead = t >= 700.0
        ts = np.where(dead, 1.0, t)
        out = ts ** (-c) * np.exp(-ts) / tricomi_boundary_mod2(a, c, ts) * norm
        return np.where(dead, 0.0, out)

    cat["TRICOMI_RATIO"] = _Entry(
        names=("a", "c"),
        check=tric_check,
        lhs=lambda p, z: _tricomi_any(p["a"] + 1.0, p["c"] + 1.0, z)
        / _tricomi_any(p["a"], p["c"], z),
        kernel=lambda p, t: tric_kernel(p, t, (1.0, 1.0)),
        osc=lambda p: OscSpec(()),
        defaults={"a": 1.5, "c": 0.5},
    )
    cat["TRICOMI_Cm1"] = _Entry(
        names=("a", "c"),
        check=tric_check,
        lhs=lambda p, z: _tricomi_any(p["a"], p["c"] - 1.0, z)
        / _tricomi_any(p["a"], p["c"], z),
        kernel=lambda p, t: tric_kernel(p, t, (0.0, 2.0)),
        osc=lambda p: OscSpec(()),
        defaults={"a": 1.5, "c": 0.5},
        const=lambda p, z: (1.0 - p["c"]) / (p["a"] - p["c"] + 1.0),
        z_factor=True,
    )
    cat["TRICOMI_Ap1"] = _Entry(
        names=("a", "c"),
        check=tric_check,
        lhs=lambda p, z: _tricomi_any(p["a"] + 1.0, p["c"], z)
        / _tricomi_any(p["a"], p["c"], z),
        kernel=lambda p, t: -tric_kernel(p, t, (1.0, 2.0)),
        osc=lambda p: OscSpec(()),
        defaults={"a": 1.5, "c": 0.5},
        const=lambda p, z: 1.0 / (p["a"] - p["c"] + 1.0),
        z_factor=True,
    )
    cat["TRICOMI_Cp1"] = _Entry(
        names=("a", "c"),
        check=tric_check,
        lhs=lambda p, z: _tricomi_any(p["a"], p["c"] + 1.0, z)
        / _tricomi_any(p["a"], p["c"], z),
        kernel=lambda p, t: tric_kernel(p, t, (0.0, 1.0)),
        osc=lambda p: OscSpec(()),
        defaults={"a": 1.5, "c": 0.5},
        const=lambda p, z: 1.0,
    )
    cat["TRICOMI_Am1"] = _Entry(
        names=("a", "c"),
        check=tric_check,
        lhs=lambda p, z: _tricomi_any(p["a"] - 1.0, p["c"], z)
        / _tricomi_any(p["a"], p["c"], z),
        kernel=lambda p, t: tric_kernel(p, t, (0.0, 1.0)),
        osc=lambda p: OscSpec(()),
        defaults={"a": 1.5, "c": 0.5},
        const=lambda p, z: z - p["c"] + p["a"],
        z_factor=True,
    )

    # --- product identities (not Stieltjes transforms) ----------------------
    cat["MCDONALD"] = _Entry(
        names=("mu", "x", "y"),
        check=lambda p: _chk(p["x"] > 0 and p["y"] > 0,
                             "MCDONALD requires x, y > 0"),
        lhs=lambda p, z: _sp.kv(p["mu"], p["x"]) * _sp.kv(p["mu"], p["y"]),
        kernel=None,
        osc=lambda p: OscSpec(()),
        defaults={"mu": 0.3, "x": 1.0, "y": 1.0},
    )
    cat["I_PRODUCT_ANGLE"] = _Entry(
        names=("mu", "x", "y"),
        check=lambda p: _chk(p["mu"] > -0.5 and p["x"] > 0 and p["y"] > 0,
                             "I_PRODUCT_ANGLE requires mu > -1/2, x, y > 0"),
        lhs=lambda p, z: _sp.iv(p["mu"], p["x"]) * _sp.iv(p["mu"], p["y"]),
        kernel=None,
        osc=lambda p: OscSpec(()),
        defaults={"mu": 0.7, "x": 0.9, "y": 1.4},
    )
    return cat


_CATALOG = _build_catalog()


def catalog_names() -> tuple:
    return tuple(_CATALOG)


def default_params(name: str) -> dict:
    return dict(_CATALOG[name].defaults)


def tolerance(name: str) -> float:
    return _HARD if name in _HARD_ENTRIES else _TIGHT


@dataclass(frozen=True)
class IdentityRecord:
    """A catalog identity bound to a concrete parameter set."""

    name: str
    params: tuple  # sorted (key, value) pairs

    @property
    def p(self) -> dict:
        return dict(self.params)

    @property
    def tol_class(self) -> str:
        return "hard" if self.name in _HARD_ENTRIES else "tight"

    @property
    def tol(self) -> float:
        return tolerance(self.name)

    def _entry(self) -> _Entry:
        return _CATALOG[self.name]

    # -- closed forms -------------------------------------------------------
    def lhs_value(self, z):
        """Closed-form left-hand side; z may be complex off (-oo, 0]."""
        if not np.iscomplexobj(np.asarray(z)) and z <= 0.0:
            raise DomainError("lhs_value requires z > 0 on the real axis")
        return self._entry().lhs(self.p, z)

    def kernel_density(self, t):
        """Kernel density m(t) of the representation integral."""
        e = self._entry()
        if e.kernel is None:
            raise UnsupportedVariantError(
                f"{self.name} is a product identity without a Stieltjes kernel")
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise DomainError("kernel_density requires t > 0")
        return e.kernel(self.p, t)

    def measure_density(self, t):
        """Density recovered by Perron-Stieltjes inversion of the LHS.

        Equals the kernel for plain entries; entries written with a
        z/(z+t) factor invert to -t * kernel(t).
        """
        k = self.kernel_density(t)
        return -np.asarray(t) * k if self._entry().z_factor else k

    # -- verification -------------------------------------------------------
    def stieltjes_rhs(self, z: float, tol: float = None) -> QuadResult:
        """Right-hand side: constant term plus the representation integral."""
        if z <= 0.0:
            raise DomainError("stieltjes_rhs requires z > 0")
        e = self._entry()
        p = self.p
        if e.kernel is None:
            return self._product_rhs(z)
        tol = tol if tol is not None else 0.01 * self.tol
        spec = e.osc(p)

        def f(t):
            return e.kernel(p, t) / (z + t)

        r = integrate_oscillatory(f, spec, tol=tol) if spec.sqrt_frequencies \
            else integrate_singular_decay(f, tol=tol)
        value = r.value * (z if e.z_factor else 1.0)
        if e.const is not None:
            value += e.const(p, z)
        err = r.err_estimate * (z if e.z_factor else 1.0)
        return QuadResult(value, err, r.n_evals, r.converged, info=r.info)

    def _product_rhs(self, z: float) -> QuadResult:
        p = self.p
        mu = p["mu"]
        if self.name == "MCDONALD":
            x, y = p["x"], p["y"]

            def f(t):
                with np.errstate(over="ignore", under="ignore"):
                    return 0.5 * np.exp(-0.5 * t - 0.5 * (x * x + y * y) / t) \
                        * _sp.kv(mu, x * y / t) / t

            return integrate_singular_decay(f, tol=1e-12)
        # I_PRODUCT_ANGLE
        x, y = p["x"], p["y"]
        pref = (0.5 * x * y) ** mu / (np.sqrt(np.pi) * math.gamma(mu + 0.5))

        def g(t):
            s2 = x * x + y * y - 2.0 * x * y * np.cos(t)
            s = np.sqrt(s2)
            return s ** (-mu) * _sp.iv(mu, s) * np.sin(t) ** (2.0 * mu)

        r = tanh_sinh_finite(g, 0.0, np.pi, tol=1e-13)
        return QuadResult(pref * r.value, pref * r.err_estimate,
                          r.n_evals, r.converged)

    def residual(self, z: float, tol: float = None) -> float:
        """|lhs - rhs| / max(|lhs|, tiny) at z > 0."""
        lhs = self.lhs_value(z)
        rhs = self.stieltjes_rhs(z, tol=tol)
        return abs(lhs - rhs.value) / max(abs(lhs), 1e-300)

    # -- inner Laplace ------------------------------------------------------
    def laplace_density(self, s: float, tol: float = 1e-9) -> QuadResult:
        """Inner Laplace transform g(s) = integral e^{-st} m(t) dt; the
        density (up to normalization) of the associated distribution."""
        if self.name not in _LAPLACE_ENTRIES:
            raise UnsupportedVariantError(
                f"{self.name} has no inner-Laplace density")
        if s <= 0.0:
            raise DomainError("laplace_density requires s > 0")
        e = self._entry()
        p = self.p
        spec = e.osc(p)

        def f(t):
            with np.errstate(over="ignore", under="ignore"):
                return np.exp(-s * t) * e.kernel(p, t)

        if spec.sqrt_frequencies:
            return integrate_oscillatory(f, spec, tol=tol)
        return integrate_singular_decay(f, tol=tol)

    def kernel_mass(self, tol: float = 1e-9) -> QuadResult:
        """Total mass of the inner-Laplace density by Fubini:
        integral g(s) ds = integral m(t) / t dt."""
        if self.name not in _LAPLACE_ENTRIES:
            raise UnsupportedVariantError(
                f"{self.name} has no inner-Laplace density")
        e = self._entry()
        p = self.p
        spec = e.osc(p)

        def f(t):
            return e.kernel(p, t) / t

        if spec.sqrt_frequencies:
            return integrate_oscillatory(f, spec, tol=tol)
        return integrate_singular_decay(f, tol=tol)

    # -- Perron-Stieltjes inversion -----------------------------------------
    def inversion_check(self, t: float,
                        eta_ladder=(1e-2, 1e-3, 1e-4)) -> float:
        """Density recovered from boundary values of the LHS:

            D(eta) = [F(-t - i eta) - F(-t + i eta)] / (2 pi i),

        polynomially extrapolated to eta = 0 along the ladder.  The
        result should match measure_density(t).
        """
        if self.name in _PRODUCT_ENTRIES:
            raise UnsupportedVariantError(
                f"{self.name} is not a Stieltjes transform")
        if t <= 0.0:
            raise DomainError("inversion_check requires t > 0")
        etas = np.asarray(sorted(eta_ladder, reverse=True), dtype=float)
        vals = []
        for eta in etas:
            fm = self.lhs_value(complex(-t, -eta))
            fp = self.lhs_value(complex(-t, eta))
            vals.append(float(np.real((fm - fp) / (2j * np.pi))))
        # Lagrange extrapolation to eta = 0
        out = 0.0
        for i, vi in enumerate(vals):
            w = 1.0
            for j, ej in enumerate(etas):
                if j != i:
                    w *= ej / (ej - etas[i])
            out += w * vi
        return out


def make_identity(name: str, **params) -> IdentityRecord:
    """Construct a catalog identity, validating the parameter domain."""
    if name not in _CATALOG:
        raise ParameterError(f"unknown identity {name!r}; "
                             f"known: {', '.join(_CATALOG)}")
    e = _CATALOG[name]
    extras = set(params) - set(e.names) - {"extended_domain"}
    if extras:
        raise ParameterError(f"{name} does not take parameters {sorted(extras)}")
    p = dict(e.defaults)
    p.update(params)
    missing = set(e.names) - set(p)
    if missing:
        raise ParameterError(f"{name} missing parameters {sorted(missing)}")
    e.check(p)
    return IdentityRecord(name, tuple(sorted(p.items())))


def verification_rows(names=None, z_values=None, tol_scale: float = 1.0):
    """Residual table across the catalog: one dict per (entry, z)."""
    names = list(names) if names is not None else list(_CATALOG)
    rows = []
    for name in names:
        rec = make_identity(name)
        zs = z_values if z_values is not None else np.logspace(-2, 2, 7)
        for z in zs:
            lhs = rec.lhs_value(float(z))
            rhs = rec.stieltjes_rhs(float(z), tol=0.01 * rec.tol * tol_scale)
            res = abs(lhs - rhs.value) / max(abs(lhs), 1e-300)
            rows.append({
                "entry_id": name,
                "params": " ".join(f"{k}={v:g}" for k, v in rec.params),
                "z": float(z),
                "lhs": float(lhs),
                "rhs": float(rhs.value),
                "residual": float(res),
                "err_estimate": float(rhs.err_estimate),
                "n_evals": int(rhs.n_evals),
                "converged": bool(rhs.converged),
            })
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
