"""End-to-end acceptance gate: ten numbered criteria, one line each.

Each test computes its full check, prints a single ``[criterion N]
PASS/FAIL`` line with the worst observed margin, and then asserts.
Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import numpy as np
import pytest
from scipy import special as sp

from paramsets import PARAM_SETS

from besselid.checks import residuals
from besselid.distributions import (DIST_KINDS, kdist_quotient_kernel,
                                    laplace_closed, pdf)
from besselid.idtests import (absmon_check, bernstein_check,
                              bernstein_targets, hcm_check, landau_bound_margin,
                              landau_constant, noncentral_profile_check,
                              pick_check, pick_targets, profile_targets,
                              selfdecomp_check, selfdecomp_targets,
                              zeta_witness_search)
from besselid.quad import integrate_singular_decay, numeric_laplace
from besselid.specfun import (bessel_i, bessel_j, bessel_k, bessel_y,
                              bessel_zero, bessel_zeros, kummer_m)
from besselid.stieltjes import catalog_names, make_identity, tolerance


def _report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ----------------------------------------------------------------------
# 1. special-function floor
# ----------------------------------------------------------------------

def test_criterion_1_special_function_floor():
    x = np.exp(np.linspace(np.log(0.1), np.log(50.0), 25))
    worst = 0.0
    for nu in (0.0, 0.3, 0.5, 1.0, 2.5):
        ik = (bessel_i(nu, x, scaled=True) * bessel_k(nu + 1.0, x, scaled=True)
              + bessel_i(nu + 1.0, x, scaled=True)
              * bessel_k(nu, x, scaled=True))
        jy = (bessel_j(nu + 1.0, x) * bessel_y(nu, x)
              - bessel_j(nu, x) * bessel_y(nu + 1.0, x))
        worst = max(worst, float(np.max(np.abs(ik - 1.0 / x))),
                    float(np.max(np.abs(jy - 2.0 / (np.pi * x)))))
    wronskian_ok = worst < 1e-10
    j01_err = abs(bessel_zero(0.0, 1) - 2.404825557695773)
    spacing_ok = all(float(np.min(np.diff(bessel_zeros(mu, 50)))) > np.pi
                     for mu in (0.51, 1.0, 3.0))
    ok = wronskian_ok and j01_err < 1e-9 and spacing_ok
    _report(1, ok, f"wronskian worst {worst:.2e}, j01 err {j01_err:.2e}, "
            f"zero spacing > pi: {spacing_ok}")


# ----------------------------------------------------------------------
# 2. distribution normalization and reductions
# ----------------------------------------------------------------------

def test_criterion_2_normalization():
    worst = 0.0
    for kind, sets in PARAM_SETS.items():
        assert len(sets) >= 5, kind
        for args in sets:
            d = DIST_KINDS[kind](*args)
            r = integrate_singular_decay(lambda t: pdf(d, t), tol=1e-11)
            worst = max(worst, abs(r.value - 1.0))
    red = 0.0
    x = np.exp(np.linspace(np.log(0.05), np.log(20.0), 15))
    for mu, a, b in PARAM_SETS["mckay1"]:
        g = DIST_KINDS["genmckay"](mu, mu + 1.0, a, b)
        m = DIST_KINDS["mckay1"](mu, a, b)
        red = max(red, float(np.max(np.abs(pdf(g, x) / pdf(m, x) - 1.0))))
    for mu, a, b in PARAM_SETS["mckay2"]:
        g = DIST_KINDS["genmckay"](mu, mu + 2.0, a, b)
        m = DIST_KINDS["mckay2"](mu, a, b)
        red = max(red, float(np.max(np.abs(pdf(g, x) / pdf(m, x) - 1.0))))
    ok = worst < 1e-8 and red < 1e-12
    _report(2, ok, f"worst |mass-1| {worst:.2e} over "
            f"{sum(len(s) for s in PARAM_SETS.values())} cases, "
            f"worst reduction {red:.2e}")


# ----------------------------------------------------------------------
# 3. Laplace consistency and quotient-kernel mass
# ----------------------------------------------------------------------

def test_criterion_3_laplace_consistency():
    worst = ("", 0.0)
    ok = True
    for kind in DIST_KINDS:
        if kind == "nchisq":
            continue
        tol = 1e-6 if kind == "kdist" else 1e-7
        d = DIST_KINDS[kind](*PARAM_SETS[kind][0])
        for x in (0.1, 1.0, 10.0):
            closed = float(laplace_closed(d, x))
            num = numeric_laplace(lambda t: pdf(d, t), x, tol=1e-10)
            rel = abs(closed - num.value) / abs(closed)
            if rel > worst[1]:
                worst = (f"{kind}@{x:g}", rel)
            ok = ok and rel <= tol
    mass_err = 0.0
    for al, be in ((1.5, 2.5), (0.7, 0.9), (3.0, 1.0)):
        r = integrate_singular_decay(
            lambda t: kdist_quotient_kernel(al, be, t), tol=1e-10)
        mass_err = max(mass_err, abs(r.value - 1.0))
    ok = ok and mass_err < 1e-7
    _report(3, ok, f"worst LT rel err {worst[1]:.2e} ({worst[0]}), "
            f"worst omega mass err {mass_err:.2e}")


# ----------------------------------------------------------------------
# 4. Stieltjes catalog residuals and the inner-Laplace closed form
# ----------------------------------------------------------------------

def test_criterion_4_identity_catalog():
    ok = True
    worst = ("", 0.0)
    for name in catalog_names():
        rec = make_identity(name)
        # right sides at verify's default tolerance 1e-7, to 1e-9
        zs = np.logspace(-2.0, 2.0, 7).tolist()
        for z, _, _, res in residuals(rec, zs, 1e-7):
            ratio = res / tolerance(name)
            if ratio > worst[1]:
                worst = (f"{name}@{z:.3g}", ratio)
            ok = ok and res <= tolerance(name)
    sig_err = 0.0
    for mu in (0.5, 1.0, 3.0):
        rec = make_identity("IK_EQUAL", mu=mu)
        for s in (0.2, 1.0, 5.0):
            want = (mu / s) * np.exp(-0.5 / s) * sp.iv(mu, 0.5 / s)
            got = mu * rec.laplace_density(s, tol=1e-10).value
            sig_err = max(sig_err, abs(got - want) / abs(want))
    ok = ok and sig_err < 1e-8
    _report(4, ok, f"{len(catalog_names())} entries x 7 z, worst "
            f"residual/tol {worst[1]:.2e} ({worst[0]}), "
            f"inner-Laplace err {sig_err:.2e}")


# ----------------------------------------------------------------------
# 5. Tricomi representations and the confluent Wronskian
# ----------------------------------------------------------------------

def test_criterion_5_tricomi():
    names = ("TRICOMI_RATIO", "TRICOMI_Cm1", "TRICOMI_Ap1", "TRICOMI_Cp1",
             "TRICOMI_Am1")
    worst = 0.0
    for a, c in ((1.5, 0.5), (2.0, -0.5), (0.7, 0.2)):
        for name in names:
            rec = make_identity(name, a=a, c=c)
            for _, _, _, res in residuals(rec, [0.5, 1.0, 5.0], 1e-7):
                worst = max(worst, res)
    wr = 0.0
    for a, c in ((1.5, 0.5), (2.0, -0.5), (0.7, 0.2)):
        for x in (0.5, 1.0, 5.0):
            y1 = kummer_m(a, c, x)
            d1 = (a / c) * kummer_m(a + 1.0, c + 1.0, x)
            m2 = kummer_m(a - c + 1.0, 2.0 - c, x)
            y2 = x ** (1.0 - c) * m2
            d2 = (1.0 - c) * x ** (-c) * m2 \
                + x ** (1.0 - c) * (a - c + 1.0) / (2.0 - c) \
                * kummer_m(a - c + 2.0, 3.0 - c, x)
            want = (1.0 - c) * x ** (-c) * np.exp(x)
            wr = max(wr, abs((y1 * d2 - y2 * d1) / want - 1.0))
    ok = worst <= 1e-6 and wr <= 1e-9
    _report(5, ok, f"worst representation residual {worst:.2e}, "
            f"worst Wronskian rel err {wr:.2e}")


# ----------------------------------------------------------------------
# 6. Bernstein and self-decomposability ladder
# ----------------------------------------------------------------------

def test_criterion_6_bernstein_selfdecomp():
    ok = True
    worst = ("", 0.0)
    for label, spec in bernstein_targets():
        rep = bernstein_check(spec, max_order=8)
        if rep.margin < worst[1]:
            worst = (f"bernstein:{label}", rep.margin)
        ok = ok and rep.passed
    for label, spec in selfdecomp_targets():
        for alpha in (0.25, 0.5, 0.75):
            rep = selfdecomp_check(spec, alpha)
            if rep.margin < worst[1]:
                worst = (f"selfdecomp:{label}:{alpha:g}", rep.margin)
            ok = ok and rep.passed
    _report(6, ok, f"{len(bernstein_targets())} Bernstein + "
            f"{3 * len(selfdecomp_targets())} self-decomposability checks, "
            f"worst margin {worst[1]:.2e} ({worst[0] or 'none'})")


# ----------------------------------------------------------------------
# 7. Pick positivity and the negative witness
# ----------------------------------------------------------------------

def test_criterion_7_pick():
    ok = True
    worst = 0.0
    for label, spec in pick_targets():
        rep = pick_check(spec)
        worst = min(worst, rep.margin)
        ok = ok and rep.passed
    point, value = zeta_witness_search()
    found = value < 0.0
    ok = ok and found
    _report(7, ok, f"min Im over positive targets {worst:.2e}, "
            f"negative witness {value:.3g} at {point}")


# ----------------------------------------------------------------------
# 8. HCM closed form, noncentral profile, absolute monotonicity
# ----------------------------------------------------------------------

def test_criterion_8_hcm_profiles():
    d = DIST_KINDS["gammaquot"](1.2, 1.0, 0.8, 1.5)
    hcm = hcm_check(d, 1.0, max_order=8)
    prof_ok = True
    for mu, lam, u in profile_targets():
        assert lam <= 2.0 * (2.0 * mu + 1.0) and lam <= 2.0 * mu + 1.0
        rep = noncentral_profile_check(mu, lam, u)
        prof_ok = prof_ok and rep.passed
    abs_ok = True
    abs_worst = 0.0
    for mu, u in ((0.0, 1.0), (0.7, 0.5), (2.0, 1.5)):
        rep = absmon_check(mu, u, max_order=6)
        abs_worst = min(abs_worst, rep.margin)
        abs_ok = abs_ok and rep.passed
    ok = hcm.passed and prof_ok and abs_ok
    _report(8, ok, f"gamma-quotient HCM margin {hcm.margin:.2e}, "
            f"profile signs at 3 triples: {prof_ok}, "
            f"abs. monotonicity worst margin {abs_worst:.2e}")


# ----------------------------------------------------------------------
# 9. Landau constant and product bound
# ----------------------------------------------------------------------

def test_criterion_9_landau():
    c_err = abs(landau_constant() - 0.7857468704)
    margins = {mu: landau_bound_margin(mu) for mu in (0.5, 1.0, 3.0)}
    ok = c_err < 1e-8 and all(m < 0.0 for m in margins.values())
    _report(9, ok, f"constant err {c_err:.2e}, bound margins "
            + " ".join(f"mu={mu:g}:{m:.3f}" for mu, m in margins.items()))


# ----------------------------------------------------------------------
# 10. Perron-Stieltjes inversion
# ----------------------------------------------------------------------

def test_criterion_10_inversion():
    ok = True
    worst = ("", 0.0)
    for name in ("IK_EQUAL", "I_EXP", "K_RATIO"):
        rec = make_identity(name)
        for t in (0.6, 2.0, 5.0):
            want = float(rec.measure_density(t))
            got = rec.inversion_check(t)
            rel = abs(got - want) / max(abs(want), 1e-300)
            if rel > worst[1]:
                worst = (f"{name}@{t:g}", rel)
            ok = ok and rel <= 1e-5
    _report(10, ok, f"worst inversion rel err {worst[1]:.2e} ({worst[0]})")
