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

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.special as _sp

from .errors import (DomainError, ParameterError, UnsupportedVariantError,
                     off_cut, points)
from .quad import (HankelTerm, QuadResult, QuadRows, integrate_oscillatory,
                   integrate_singular_decay, positive_points,
                   tanh_sinh_finite)
from .quad.tanhsinh import spec_plan
from .specfun import _tricomi_any, bessel_row, tricomi_boundary_mod2

__all__ = [
    "IdentityRecord", "make_identity", "catalog_names", "tolerance",
]

_TIGHT = 1e-7


# ---------------------------------------------------------------------------
# Entry table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Entry:
    check: object                 # params -> None or raises ParameterError
    lhs: object                   # (params, 1-d z) -> values (complex capable)
    defaults: dict                # parameter names, in order, and values
    anchor: str                   # source of the identity in the paper
    kernel: object = None         # (params, t array) -> array
    terms: object = lambda p: ()  # params -> HankelTerms, Re sum = kernel
                                  # at u = sqrt(t); none: exp-sinh in t
    const: object = lambda p, z: 0.0  # (params, z) -> constant term
    z_factor: bool = False        # integral carries z/(z+t) instead of 1/(z+t)
    laplace: bool = True          # the inner Laplace transform is a density
    rhs: object = None            # params -> QuadResult, in place of a kernel
    options: tuple = ()           # optional parameters beyond `defaults`
    origin: object = None         # params -> p with m(t) ~ t^p at t = 0,
                                  # where kernel_mass may diverge


def _chk(cond: bool, msg: str):
    if not cond:
        raise ParameterError(msg)


def _bessel_mod2(mu, r):
    """J_mu(r)^2 + Y_mu(r)^2 = |H^(1)_mu(r)|^2 (DLMF 10.4.3): +inf where
    it overflows (scipy's hankel1 is NaN there), and past r = 1e6, where H
    loses accuracy, the asymptotic 2/(pi r) (1 + (4 mu^2 - 1)/(8 r^2))."""
    big = r > 1e6
    h = np.zeros(r.shape, dtype=complex)
    h[~big] = _sp.hankel1(mu, r[~big])
    with np.errstate(over="ignore"):
        small = h.real * h.real + h.imag * h.imag
    ra = np.where(big, r, 1.0)
    large = 2.0 / (np.pi * ra) * (1.0 + (4.0 * mu * mu - 1.0) / (8.0 * ra * ra))
    return np.where(big, large, np.where(np.isnan(small), np.inf, small))


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


def _pair_terms(coef, power, omega, j_factor, *factors):
    """J_nu(s u) * Re[coef u^power e^{i omega u} * prod(factors)] as two
    Hankel terms, from J = (H1 + H2) / 2 with j_factor = (nu, s): J is
    real on the real axis, so it moves inside the real part."""
    nu, s = j_factor
    return tuple(HankelTerm(0.5 * coef, power, omega,
                            ((kind, nu, s, 1),) + factors)
                 for kind in (1, 2))


def _build_catalog():
    cat = {}

    # --- pure Bessel family -------------------------------------------------
    cat["I_EXP"] = _Entry(
        check=lambda p: _chk(p["a"] > 0 and p["mu"] > -0.5,
                             "I_EXP requires a > 0 and mu > -1/2"),
        lhs=lambda p, z: bessel_row(1.0, p["a"], (("I", p["mu"], p["a"], 1),),
                                    z),
        kernel=lambda p, t: (1.0 / np.pi) * t ** (-0.5 * p["mu"])
        * _sp.jv(p["mu"], p["a"] * np.sqrt(t)) * np.sin(p["a"] * np.sqrt(t)),
        terms=lambda p: _pair_terms(-1j / np.pi, -p["mu"], p["a"],
                                    (p["mu"], p["a"])),
        defaults={"mu": 1.0, "a": 1.0},
        anchor="Theorem thIfirst",
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

    cat["IK_PROD"] = _Entry(
        check=ikprod_check,
        lhs=lambda p, z: bessel_row(1.0, 0.0, (("I", p["mu"], p["a"], 1),
                                               ("K", p["nu"], p["b"], 1)), z),
        kernel=lambda p, t: 0.5 * t ** (0.5 * (p["nu"] - p["mu"]))
        * _sp.jv(p["mu"], p["a"] * np.sqrt(t))
        * _sp.jv(p["nu"], p["b"] * np.sqrt(t)),
        # H2_mu(a u) H1_nu(b u) has net frequency b - a >= 0
        terms=lambda p: _pair_terms(0.5, p["nu"] - p["mu"], 0.0,
                                    (p["mu"], p["a"]),
                                    (1, p["nu"], p["b"], 1)),
        defaults={"mu": 0.6, "nu": 0.8, "a": 0.75, "b": 1.0},
        anchor="eq. (eqproddifpar)",
        options=("extended_domain",),
    )

    cat["IK_EQUAL"] = _Entry(
        check=lambda p: _chk(p["mu"] > -1.0, "IK_EQUAL requires mu > -1"),
        lhs=lambda p, z: bessel_row(2.0, 0.0, (("I", p["mu"], 1.0, 1),
                                               ("K", p["mu"], 1.0, 1)), z),
        kernel=lambda p, t: _sp.jv(p["mu"], np.sqrt(t)) ** 2,
        terms=lambda p: _pair_terms(1.0, 0.0, 0.0, (p["mu"], 1.0),
                                    (1, p["mu"], 1.0, 1)),
        defaults={"mu": 0.7},
        anchor="eq. (eqprod1)",
    )

    def ikexp_kernel(p, t):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        rt = np.sqrt(t)
        return 0.5 * t ** (0.5 * (nu - mu)) * _sp.jv(mu, a * rt) \
            * (_sp.jv(nu, b * rt) * np.cos(a * rt)
               - _sp.yv(nu, b * rt) * np.sin(a * rt))

    cat["IK_EXP"] = _Entry(
        check=lambda p: _chk(p["mu"] > -1.0 and p["nu"] > -1.0
                             and p["a"] > 0 and p["b"] > 0,
                             "IK_EXP requires mu, nu > -1 and a, b > 0"),
        lhs=lambda p, z: bessel_row(1.0, p["a"], (("I", p["mu"], p["a"], 1),
                                                  ("K", p["nu"], p["b"], 1)),
                                    z),
        kernel=ikexp_kernel,
        # J_nu cos - Y_nu sin = Re[e^{iau} H1_nu(bu)]
        terms=lambda p: _pair_terms(0.5, p["nu"] - p["mu"], p["a"],
                                    (p["mu"], p["a"]),
                                    (1, p["nu"], p["b"], 1)),
        defaults={"mu": 0.8, "nu": 0.6, "a": 0.4, "b": 0.5},
        anchor="Theorem theprodIKexprepr2",
    )

    def kkprod_kernel(p, t):
        mu, nu, a, b = p["mu"], p["nu"], p["a"], p["b"]
        rt = np.sqrt(t)
        return -0.25 * np.pi * t ** (0.5 * (mu + nu)) \
            * (_sp.jv(mu, a * rt) * _sp.yv(nu, b * rt)
               + _sp.jv(nu, b * rt) * _sp.yv(mu, a * rt))

    cat["KK_PROD"] = _Entry(
        check=lambda p: _chk(p["mu"] >= 0 and p["nu"] >= 0
                             and p["a"] > 0 and p["b"] > 0,
                             "KK_PROD requires mu, nu >= 0 and a, b > 0"),
        lhs=lambda p, z: bessel_row(1.0, 0.0, (("K", p["mu"], p["a"], 1),
                                               ("K", p["nu"], p["b"], 1)), z),
        kernel=kkprod_kernel,
        # J_mu Y_nu + J_nu Y_mu = Im[H1_mu(au) H1_nu(bu)]
        terms=lambda p: (HankelTerm(0.25j * np.pi, p["mu"] + p["nu"], 0.0,
                                    ((1, p["mu"], p["a"], 1),
                                     (1, p["nu"], p["b"], 1))),),
        defaults={"mu": 0.3, "nu": 0.6, "a": 0.2, "b": 0.3},
        anchor="eq. (eqprodK1)",
    )

    cat["II_EXP"] = _Entry(
        check=lambda p: _chk(p["mu"] > -1.0 and p["nu"] > -1.0
                             and p["mu"] + p["nu"] > -1.0
                             and p["a"] > 0 and p["b"] > 0,
                             "II_EXP requires mu, nu > -1, mu + nu > -1"),
        lhs=lambda p, z: bessel_row(1.0, p["a"] + p["b"],
                                    (("I", p["mu"], p["a"], 1),
                                     ("I", p["nu"], p["b"], 1)), z),
        kernel=lambda p, t: (1.0 / np.pi) * t ** (-0.5 * (p["mu"] + p["nu"]))
        * _sp.jv(p["mu"], p["a"] * np.sqrt(t))
        * _sp.jv(p["nu"], p["b"] * np.sqrt(t))
        * np.sin((p["a"] + p["b"]) * np.sqrt(t)),
        # J_mu J_nu sin(s) = Re[-i e^{is} (H1 + H2)_mu (H1 + H2)_nu / 4]
        terms=lambda p: tuple(
            HankelTerm(-0.25j / np.pi, -(p["mu"] + p["nu"]), p["a"] + p["b"],
                       ((k, p["mu"], p["a"], 1), (j, p["nu"], p["b"], 1)))
            for k in (1, 2) for j in (1, 2)),
        defaults={"mu": 0.7, "nu": 0.6, "a": 0.2, "b": 0.3},
        anchor="eq. (prodeqI)",
    )

    cat["KK_RECIP"] = _Entry(
        check=lambda p: _chk(p["mu"] + p["nu"] > 1.0
                             and p["a"] > 0 and p["b"] > 0,
                             "KK_RECIP requires mu + nu > 1 and a, b > 0"),
        lhs=lambda p, z: bessel_row(1.0, p["a"] + p["b"],
                                    (("K", p["mu"], p["a"], -1),
                                     ("K", p["nu"], p["b"], -1)), z),
        kernel=lambda p, t: (4.0 / np.pi**3)
        * t ** (-0.5 * (p["mu"] + p["nu"]))
        * _gamma_big(p["mu"], p["nu"], p["a"], p["b"], t),
        # Gamma = Re[i e^{i(a+b)u} / (H1_mu(au) H1_nu(bu))]
        terms=lambda p: (HankelTerm(4j / np.pi**3, -(p["mu"] + p["nu"]),
                                    p["a"] + p["b"],
                                    ((1, p["mu"], p["a"], -1),
                                     (1, p["nu"], p["b"], -1))),),
        defaults={"mu": 0.8, "nu": 0.7, "a": 0.3, "b": 0.4},
        anchor="Theorem recprodKrepr",
    )

    cat["IK_QUOT"] = _Entry(
        check=lambda p: _chk(p["mu"] > -1.0 and p["mu"] + p["nu"] > 0.0
                             and p["a"] > 0 and p["b"] > 0,
                             "IK_QUOT requires mu > -1 and mu + nu > 0"),
        lhs=lambda p, z: bessel_row(1.0, p["a"] + p["b"],
                                    (("I", p["mu"], p["a"], 1),
                                     ("K", p["nu"], p["b"], -1)), z),
        kernel=lambda p, t: -(2.0 / np.pi**2)
        * t ** (-0.5 * (p["mu"] + p["nu"]))
        * _sp.jv(p["mu"], p["a"] * np.sqrt(t))
        * _gamma_small(p["nu"], p["a"], p["b"], t),
        # gamma = Re[e^{i(a+b)u} / H1_nu(bu)]
        terms=lambda p: _pair_terms(-2.0 / np.pi**2, -(p["mu"] + p["nu"]),
                                    p["a"] + p["b"], (p["mu"], p["a"]),
                                    (1, p["nu"], p["b"], -1)),
        defaults={"mu": 0.8, "nu": 0.6, "a": 0.3, "b": 0.4},
        anchor="Theorem theoquotIK",
    )

    cat["K_RECIP"] = _Entry(
        check=lambda p: _chk(p["nu"] > 0.5 and p["b"] > 0,
                             "K_RECIP requires nu > 1/2 and b > 0"),
        lhs=lambda p, z: bessel_row(1.0, p["b"], (("K", p["nu"], p["b"], -1),),
                                    z),
        kernel=lambda p, t: -(2.0 / np.pi**2) * t ** (-0.5 * p["nu"])
        * _gamma_small(p["nu"], 0.0, p["b"], t),
        terms=lambda p: (HankelTerm(-2.0 / np.pi**2, -p["nu"], p["b"],
                                    ((1, p["nu"], p["b"], -1),)),),
        defaults={"nu": 0.8, "b": 0.5},
        anchor="Corollary theoquotIKcoro",
    )

    def kratio_kernel(p, t):
        mu = p["mu"]
        return (2.0 / np.pi**2) / (t * _bessel_mod2(mu, np.sqrt(t)))

    cat["K_RATIO"] = _Entry(
        check=lambda p: _chk(p["mu"] >= 0.0, "K_RATIO requires mu >= 0"),
        lhs=lambda p, z: bessel_row(1.0, 0.0, (("K", p["mu"] - 1.0, 1.0, 1),
                                               ("K", p["mu"], 1.0, -1)), z),
        kernel=kratio_kernel,
        defaults={"mu": 0.9},
        anchor="eq. (integralKquot)",
        # Y_mu(sqrt t)^2 ~ t^-mu dominates the modulus
        origin=lambda p: p["mu"] - 1.0,
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
        live = ~(t >= 700.0)
        tl, out = t[live], np.zeros(t.shape)
        out[live] = (tl ** (-c) * np.exp(-tl)
                     / tricomi_boundary_mod2(a, c, tl) * norm)
        return out

    def tric_entry(da, dc, gamma_shift, sign=1.0, anchor="Theorem tricrepr",
                   **extra):
        """psi(a + da, c + dc, z) / psi(a, c, z) over the Tricomi kernel."""
        return _Entry(
            check=tric_check,
            lhs=lambda p, z: _tricomi_any(p["a"] + da, p["c"] + dc, z)
            / _tricomi_any(p["a"], p["c"], z),
            kernel=lambda p, t: sign * tric_kernel(p, t, gamma_shift),
            laplace=False,
            defaults={"a": 1.5, "c": 0.5},
            anchor=anchor,
            **extra,
        )

    cat["TRICOMI_RATIO"] = tric_entry(1.0, 1.0, (1.0, 1.0),
                                      anchor="eq. (intfor)")
    cat["TRICOMI_Cm1"] = tric_entry(
        0.0, -1.0, (0.0, 2.0), z_factor=True,
        const=lambda p, z: (1.0 - p["c"]) / (p["a"] - p["c"] + 1.0))
    cat["TRICOMI_Ap1"] = tric_entry(
        1.0, 0.0, (1.0, 2.0), -1.0, z_factor=True,
        const=lambda p, z: 1.0 / (p["a"] - p["c"] + 1.0))
    cat["TRICOMI_Cp1"] = tric_entry(0.0, 1.0, (0.0, 1.0),
                                    const=lambda p, z: 1.0)
    cat["TRICOMI_Am1"] = tric_entry(
        -1.0, 0.0, (0.0, 1.0), z_factor=True,
        const=lambda p, z: z - p["c"] + p["a"])

    # --- product identities (not Stieltjes transforms) ----------------------
    def mcdonald_rhs(p):
        mu, x, y = p["mu"], p["x"], p["y"]

        def f(t):
            return 0.5 * np.exp(-0.5 * t - 0.5 * (x * x + y * y) / t) \
                * _sp.kv(mu, x * y / t) / t

        return integrate_singular_decay(f, tol=1e-12)

    cat["MCDONALD"] = _Entry(
        check=lambda p: _chk(p["x"] > 0 and p["y"] > 0,
                             "MCDONALD requires x, y > 0"),
        lhs=lambda p, z: np.full(z.shape, _sp.kv(p["mu"], p["x"])
                                 * _sp.kv(p["mu"], p["y"])),
        rhs=mcdonald_rhs,
        laplace=False,
        defaults={"mu": 0.3, "x": 1.0, "y": 1.0},
        anchor="eq. (prodK)",
    )

    def iprod_rhs(p):
        mu, x, y = p["mu"], p["x"], p["y"]
        pref = (0.5 * x * y) ** mu / (np.sqrt(np.pi) * math.gamma(mu + 0.5))

        def g(t):
            s2 = x * x + y * y - 2.0 * x * y * np.cos(t)
            s = np.sqrt(s2)
            return s ** (-mu) * _sp.iv(mu, s) * np.sin(t) ** (2.0 * mu)

        r = tanh_sinh_finite(g, 0.0, np.pi, tol=1e-13)
        return QuadResult(pref * r.value, pref * r.err_estimate,
                          r.n_evals, r.converged, info=r.info)

    cat["I_PRODUCT_ANGLE"] = _Entry(
        check=lambda p: _chk(p["mu"] > -0.5 and p["x"] > 0 and p["y"] > 0,
                             "I_PRODUCT_ANGLE requires mu > -1/2, x, y > 0"),
        lhs=lambda p, z: np.full(z.shape, _sp.iv(p["mu"], p["x"])
                                 * _sp.iv(p["mu"], p["y"])),
        rhs=iprod_rhs,
        laplace=False,
        defaults={"mu": 0.7, "x": 0.9, "y": 1.4},
        anchor="eq. (intIprod)",
    )
    return cat


_CATALOG = _build_catalog()


def catalog_names() -> tuple:
    return tuple(_CATALOG)


def _entry(name: str) -> _Entry:
    if name not in _CATALOG:
        raise ParameterError(f"unknown identity {name!r}; "
                             f"known: {', '.join(_CATALOG)}")
    return _CATALOG[name]


def tolerance(name: str) -> float:
    """Residual tolerance of the catalog entry `name`; one for all."""
    _entry(name)
    return _TIGHT


@dataclass(frozen=True)
class IdentityRecord:
    """A catalog identity bound to a concrete parameter set."""

    name: str
    params: tuple  # sorted (key, value) pairs

    @property
    def p(self) -> dict:
        return dict(self.params)

    @property
    def anchor(self) -> str:
        return self._entry().anchor

    def _entry(self) -> _Entry:
        return _CATALOG[self.name]

    # -- closed forms -------------------------------------------------------
    def lhs_value(self, z):
        """Closed-form left-hand side; z may be complex off the cut
        (errors.off_cut) but for a Tricomi entry, whose psi is real only
        (DomainError).  A scalar z is evaluated as a one-point array, so
        an array z gives the values of the scalar calls bit for bit."""
        za = np.asarray(z)
        zs = off_cut(za, "lhs_value").reshape(-1) if np.iscomplexobj(za) \
            else positive_points(za, "lhs_value")
        return self._entry().lhs(self.p, zs).reshape(za.shape)[()]

    def kernel_density(self, t):
        """Kernel density m(t) of the representation integral."""
        e = self._entry()
        if e.kernel is None:
            raise UnsupportedVariantError(
                f"{self.name} is a product identity without a Stieltjes kernel")
        return e.kernel(self.p, points(t, "kernel_density", name="t"))

    # the record's plan (its keys: see quad.tanhsinh.spec_plan)
    _plan = property(spec_plan)

    def _integrate_kernel(self, weight, tol: float, n_rows: int = None):
        """Integral of kernel * weight over (0, oo) on the planned
        engine: contour rotation of the entry's Hankel terms, or the
        whole half line by exp-sinh where it lists none; with n_rows,
        one row per row of weight(t) (see integrate_oscillatory)."""
        e = self._entry()
        return integrate_oscillatory(weight, lambda: e.terms(self.p),
                                     lambda t: e.kernel(self.p, t),
                                     tol=tol, plan=self._plan, n_rows=n_rows)

    def measure_density(self, t):
        """Density recovered by Perron-Stieltjes inversion of the LHS.

        Equals the kernel for plain entries; entries written with a
        z/(z+t) factor invert to -t * kernel(t).
        """
        k = self.kernel_density(t)
        return -np.asarray(t) * k if self._entry().z_factor else k

    # -- verification -------------------------------------------------------
    def stieltjes_rhs(self, z, tol: float = None):
        """Right-hand side: constant term plus the representation
        integral.  z is a float, giving a QuadResult, or an array, giving
        a QuadRows with one row per point from one engine call; row i
        equals the call at z[i] bit for bit."""
        zs = positive_points(z, "stieltjes_rhs")
        e = self._entry()
        p = self.p
        if e.rhs is not None:
            # a product identity: one right side for every z, kept in
            # the plan; a copy of it, so a caller cannot change the plan
            plan = self._plan
            if "rhs" not in plan:
                plan["rhs"] = e.rhs(p)
            r = plan["rhs"]
            rows = [replace(r, info=dict(r.info)) for _ in range(zs.size)]
        else:
            tol = tol if tol is not None else 0.01 * _TIGHT
            # one row as a scalar: numpy broadcasts 1-d arrays faster
            col = zs[:, None] if zs.size > 1 else float(zs[0])
            rows = []
            for zi, r in zip(zs.tolist(), self._integrate_kernel(
                    lambda t: 1.0 / (col + t), tol, zs.size)):
                scale = zi if e.z_factor else 1.0
                value = r.value * scale + e.const(p, zi)
                rows.append(QuadResult(value, r.err_estimate * scale,
                                       r.n_evals, r.converged, info=r.info))
        return QuadRows(rows) if np.asarray(z).ndim else rows[0]

    # -- inner Laplace ------------------------------------------------------
    def laplace_density(self, s: float, tol: float = 1e-9) -> QuadResult:
        """Inner Laplace transform g(s) = integral e^{-st} m(t) dt; the
        density (up to normalization) of the associated distribution."""
        if not self._entry().laplace:
            raise UnsupportedVariantError(
                f"{self.name} has no inner-Laplace density")
        points(s, "laplace_density", name="s")
        return self._integrate_kernel(lambda t: np.exp(-s * t), tol)

    def kernel_mass(self, tol: float = 1e-9) -> QuadResult:
        """Total mass of the inner-Laplace density by Fubini:
        integral g(s) ds = integral m(t) / t dt."""
        e = self._entry()
        if not e.laplace:
            raise UnsupportedVariantError(
                f"{self.name} has no inner-Laplace density")
        p = e.origin(self.p) if e.origin is not None else 1.0
        if p <= 0.0:
            raise DomainError(f"the kernel mass of {self.name} diverges: "
                              f"m(t) / t ~ t^{p - 1.0:g} at t = 0")
        return self._integrate_kernel(lambda t: 1.0 / t, tol)

    # -- Perron-Stieltjes inversion -----------------------------------------
    inversion_anchor = "Lemma 7"

    def inversion_check(self, t: float) -> float:
        """Density recovered from boundary values of the LHS:

            D(eta) = [F(-t - i eta) - F(-t + i eta)] / (2 pi i),

        polynomially extrapolated to eta = 0 from eta = 1e-2, 1e-3 and
        1e-4.  The result should match measure_density(t).
        """
        if self._entry().kernel is None:
            raise UnsupportedVariantError(
                f"{self.name} is not a Stieltjes transform")
        points(t, "inversion_check", name="t")
        etas = np.array([1e-2, 1e-3, 1e-4])
        f = self.lhs_value(np.concatenate([-t - 1j * etas, -t + 1j * etas]))
        vals = np.real((f[:etas.size] - f[etas.size:]) / (2j * np.pi)).tolist()
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
    e = _entry(name)
    extras = set(params) - set(e.defaults) - set(e.options)
    if extras:
        raise ParameterError(f"{name} does not take parameters {sorted(extras)}")
    p = {**e.defaults, **params}
    e.check(p)
    return IdentityRecord(name, tuple(sorted(p.items())))
