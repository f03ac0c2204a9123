"""The checks of `besselid verify`, one table entry per report row.

The table is built from the library's target lists (catalog names,
family defaults, the idtests targets) and the cases below, and building
it runs no check.  A check binds its check function when the table is
built, so a wrapper installed on the module globals before that sees
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .distributions import (DIST_DEFAULTS, DIST_KINDS, OMEGA_ANCHOR,
                            NoncentralChiSq, format_dist,
                            kdist_quotient_kernel, laplace_closed, pdf)
from .errors import ConvergenceError
from .idtests import (ABSMON_ANCHOR, LANDAU_ANCHOR, PICK_ANCHOR,
                      SELFDECOMP_ANCHOR, Evidence, Zeta, absmon_check,
                      bernstein_check, bernstein_targets, hcm_check,
                      landau_bound_margin, landau_constant,
                      noncentral_profile_check, pick_check, pick_targets,
                      profile_targets, selfdecomp_check, selfdecomp_targets,
                      zeta_witness_search)
from .quad import integrate_singular_decay, numeric_laplace
from .stieltjes import IdentityRecord, catalog_names, make_identity

__all__ = ["Check", "SCOPES", "table", "SELFDECOMP_ALPHAS", "ABSMON_CASES"]

SELFDECOMP_ALPHAS = (0.25, 0.5, 0.75)
ABSMON_CASES = ((0.0, 1.0), (0.7, 0.5), (2.0, 1.5))
_OMEGA_PAIRS = ((1.5, 2.5), (0.7, 0.9), (3.0, 1.0))
_LAPLACE_X = (0.1, 1.0, 10.0)
_LANDAU_REF = 0.7857468704


@dataclass(frozen=True)
class Check:
    """One report row before it runs: run() gives its Evidence.
    `params` is the params text, or a function giving it when the text
    holds a value the check computes.  A check that raises still gives
    its row: inconclusive on a ConvergenceError, else fail."""

    id: str
    anchor: str
    params: str | Callable[[], str]
    run: Callable[[], Evidence]

    def report(self) -> dict:
        params = self.params if isinstance(self.params, str) else ""
        try:
            ev = self.run()
            if callable(self.params):
                params = self.params()
        except ConvergenceError as exc:
            ev = Evidence("inconclusive", None, str(exc))
        except Exception as exc:
            # one broken check is a failing row, not an aborted report
            ev = Evidence("fail", None, f"{type(exc).__name__}: {exc}")
        return {"id": self.id, "params": params, "anchor": self.anchor,
                "verdict": ev.verdict,
                "margin": None if ev.margin is None else float(ev.margin),
                "witness": ev.witness}


def _identity(name: str, zs, tol: float) -> Evidence:
    """Worst residual over zs; inconclusive, with the first uncertified
    z and the engine's reason as witness, where a right side is not
    certified.  The margin then covers the certified z only."""
    rec = make_identity(name)
    worst, wz, uncertified = 0.0, None, None
    for z, lhs, rhs in zip(zs, rec.lhs_value(zs),
                           rec.stieltjes_rhs(zs, tol=0.01 * tol)):
        # the quadrature aims well below tol; its own error estimate
        # certifying tol itself is still conclusive
        if not (rhs.converged or rhs.err_estimate <= 0.5 * tol * abs(lhs)):
            if uncertified is None:
                uncertified = f"z={z:g}: {rhs.info['reason']}"
            continue
        res = abs(lhs - rhs.value) / max(abs(lhs), 1e-300)
        if res > worst:
            worst, wz = res, z
    return Evidence.graded(tol - worst, uncertified or wz,
                           converged=uncertified is None)


def _norm(d) -> Evidence:
    r = integrate_singular_decay(lambda x: pdf(d, x), tol=1e-11)
    return Evidence.graded(1e-8 - abs(r.value - 1.0), converged=r.converged)


def _laplace(d, tol: float) -> Evidence:
    worst, wx = 0.0, None
    nums = numeric_laplace(lambda t: pdf(d, t), _LAPLACE_X, tol=1e-10)
    closed = laplace_closed(d, _LAPLACE_X).tolist()
    for x, lx, num in zip(_LAPLACE_X, closed, nums):
        res = abs(lx - num.value) / max(abs(lx), 1e-300)
        if res > worst:
            worst, wx = res, x
    return Evidence.graded(tol - worst, wx, nums.converged)


def _omega_mass(al: float, be: float, tol: float) -> Evidence:
    r = integrate_singular_decay(lambda t: kdist_quotient_kernel(al, be, t),
                                 tol=1e-10)
    return Evidence.graded(tol - abs(r.value - 1.0), converged=r.converged)


def _zeta_witness() -> Evidence:
    point, value = zeta_witness_search()
    return Evidence("expected-fail" if value < 0.0 else "fail", -value,
                    [point[0], point[1]])


def _landau_constant() -> Evidence:
    return Evidence.graded(1e-8 - abs(landau_constant() - _LANDAU_REF))


def _landau_bound(mu: float) -> Evidence:
    return Evidence.graded(-landau_bound_margin(mu))


def _inversion_kernel(name: str, t: float) -> float:
    return float(make_identity(name).measure_density(t))


def _inversion(name: str, t: float) -> Evidence:
    got = make_identity(name).inversion_check(t)
    want = _inversion_kernel(name, t)
    return Evidence.graded(1e-5 - abs(got - want) / max(abs(want), 1e-300))


def _inversion_params(name: str, t: float) -> str:
    return f"t={t:g} kernel={_inversion_kernel(name, t):.6g}"


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

def _identity_checks(cfg) -> list:
    zs = [float(z) for z in cfg.grid]
    return [Check(f"identity:{rec.name}", rec.anchor,
                  " ".join(f"{k}={v:g}" for k, v in rec.params),
                  partial(_identity, rec.name, zs, cfg.tol_tight))
            for rec in map(make_identity, catalog_names())]


def _distribution_checks(cfg) -> list:
    out = []
    for kind, args in DIST_DEFAULTS.items():
        d = DIST_KINDS[kind](*args)
        out.append(Check(f"norm:{kind}", d.anchor, format_dist(d),
                         partial(_norm, d)))
        if kind != "nchisq":
            out.append(Check(f"laplace:{kind}", d.anchor, format_dist(d),
                             partial(_laplace, d, cfg.tol_tight)))
    return out + [Check(f"omega-mass:{al:g}-{be:g}", OMEGA_ANCHOR,
                        f"alpha={al:g} beta={be:g}",
                        partial(_omega_mass, al, be, cfg.tol_tight))
                  for al, be in _OMEGA_PAIRS]


def _idtests_checks(cfg) -> list:
    out = [Check(f"bernstein:{label}", spec.anchor, label,
                 partial(bernstein_check, spec, max_order=cfg.max_order,
                         label=label))
           for label, spec in bernstein_targets()]
    out += [Check(f"selfdecomp:{label}:{alpha:g}", SELFDECOMP_ANCHOR,
                  f"{label} alpha={alpha:g}",
                  partial(selfdecomp_check, spec, alpha,
                          max_order=cfg.max_order, label=label))
            for label, spec in selfdecomp_targets()
            for alpha in SELFDECOMP_ALPHAS]
    out += [Check(f"pick:{label}", PICK_ANCHOR, label,
                  partial(pick_check, spec, label=label))
            for label, spec in pick_targets()]
    out.append(Check("pick-witness:zeta", Zeta.anchor, "mu=1 nu=1 a=1 b=2",
                     _zeta_witness))
    for kind in ("gammaquot", "kdist", "gig"):
        d = DIST_KINDS[kind](*DIST_DEFAULTS[kind])
        out.append(Check(f"hcm:{kind}", d.anchor, format_dist(d),
                         partial(hcm_check, d, 1.0, max_order=cfg.max_order,
                                 label=kind)))
    out += [Check(f"profile:{mu:g}-{lam:g}-{u:g}", NoncentralChiSq.anchor,
                  f"mu={mu:g} lam={lam:g} u={u:g}",
                  partial(noncentral_profile_check, mu, lam, u))
            for mu, lam, u in profile_targets()]
    out += [Check(f"absmon:{mu:g}-{u:g}", ABSMON_ANCHOR, f"mu={mu:g} u={u:g}",
                  partial(absmon_check, mu, u))
            for mu, u in ABSMON_CASES]
    out.append(Check("landau:constant", LANDAU_ANCHOR, f"ref={_LANDAU_REF}",
                     _landau_constant))
    out += [Check(f"landau:bound:{mu:g}", LANDAU_ANCHOR, f"mu={mu:g}",
                  partial(_landau_bound, mu))
            for mu in (0.5, 1.0, 3.0)]
    return out + [Check(f"inversion:{name}:{t:g}",
                        IdentityRecord.inversion_anchor,
                        partial(_inversion_params, name, t),
                        partial(_inversion, name, t))
                  for name in ("IK_EQUAL", "I_EXP", "K_RATIO")
                  for t in (0.6, 2.0, 5.0)]


_BUILDERS = {"identities": _identity_checks,
             "distributions": _distribution_checks,
             "idtests": _idtests_checks}
SCOPES = tuple(_BUILDERS)


def table(scope: str, cfg) -> list:
    """The checks of one of SCOPES, or of all of them for "all", in run
    order, under the tolerances, grid and order of the RunConfig cfg."""
    return [c for name, build in _BUILDERS.items()
            if scope in (name, "all") for c in build(cfg)]
