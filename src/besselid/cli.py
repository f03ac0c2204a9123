"""Command-line interface: evaluate catalog quantities, run verification
suites, and dump profile/zero tables for external plotting.

Commands
--------
eval     print one value (special function, pdf, Laplace transform, ...)
verify   run a verification suite and emit a JSON/CSV report
profile  CSV of (z, lhs, rhs, residual) for an identity or transform
zeros    table of Bessel function zeros j_{nu,n}
landau   print the Landau constant

Exit codes: 0 all asserted checks pass, 1 check failure, 2 usage error,
3 numerical non-convergence (inconclusive rows without
--allow-inconclusive).
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import click
import numpy as np

from . import __version__
# perfbench/workloads.py reads the family defaults as cli._DIST_DEFAULTS
from .distributions import (DIST_DEFAULTS as _DIST_DEFAULTS, DIST_KINDS,
                            NoncentralChiSq, format_dist,
                            kdist_quotient_kernel, laplace_closed, pdf)
from .errors import (ConvergenceError, DomainError, ParameterError,
                     UnsupportedVariantError)
from .idtests import (LT_KINDS, Zeta, absmon_check, bernstein_check,
                      bernstein_targets, hcm_check, landau_bound_margin,
                      landau_constant, lt_value, noncentral_profile_check,
                      pick_check, pick_targets, profile_targets,
                      selfdecomp_check, selfdecomp_targets, zeta_witness_search)
from .quad import integrate_singular_decay, numeric_laplace
from .specfun import (bessel_i, bessel_j, bessel_k, bessel_y, bessel_zero,
                      bessel_zeros, kummer_m, tricomi_psi)
from .stieltjes import catalog_names, make_identity, rows_to_csv

REPORT_VERSION = 1

@dataclass(frozen=True)
class RunConfig:
    """Suite configuration; flags override config-file values."""

    tol_tight: float = 1e-7
    tol_hard: float = 1e-4
    grid_lo: float = 1e-2
    grid_hi: float = 1e2
    grid_n: int = 7
    max_order: int = 8
    threads: int = 1
    fmt: str = "json"
    stable: bool = False
    allow_inconclusive: bool = False
    only: str = ""

    def __post_init__(self):
        if not (self.tol_tight > 0.0 and self.tol_hard > 0.0):
            raise ParameterError("tolerances must be positive")
        if not (self.grid_n >= 1 and self.grid_hi > self.grid_lo > 0.0):
            raise ParameterError("grid must be nonempty with 0 < lo < hi")

    @property
    def grid(self):
        return np.logspace(np.log10(self.grid_lo), np.log10(self.grid_hi),
                           self.grid_n)


def _parse_grid(text: str):
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError:
        raise click.UsageError(f"grid must be lo:hi:n, got {text!r}")


def _load_config_file(path: str) -> dict:
    """Plain key-value config: one `key = value` or `key value` per line."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, val = (s.strip() for s in line.split("=", 1))
            else:
                key, _, val = line.partition(" ")
                val = val.strip()
            out[key.replace("-", "_")] = val
    return out


def _config_from(path, **overrides) -> RunConfig:
    cfg = RunConfig()
    if path:
        raw = _load_config_file(path)
        kwargs = {}
        for key, val in raw.items():
            if key == "grid":
                kwargs["grid_lo"], kwargs["grid_hi"], kwargs["grid_n"] = \
                    _parse_grid(val)
            elif key in ("tol_tight", "tol_hard", "grid_lo", "grid_hi"):
                kwargs[key] = float(val)
            elif key in ("grid_n", "max_order", "threads"):
                kwargs[key] = int(val)
            elif key in ("stable", "allow_inconclusive"):
                kwargs[key] = val.lower() in ("1", "true", "yes", "on")
            elif key in ("fmt", "format"):
                kwargs["fmt"] = val
            elif key == "only":
                kwargs["only"] = val
            else:
                raise click.UsageError(f"unknown config key {key!r}")
        cfg = replace(cfg, **kwargs)
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    if "grid" in kwargs:
        lo, hi, n = _parse_grid(kwargs.pop("grid"))
        kwargs.update(grid_lo=lo, grid_hi=hi, grid_n=n)
    return replace(cfg, **kwargs)


def _parse_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise click.UsageError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _identity_name(text: str):
    """Case-insensitive catalog lookup (entry names are mixed-case)."""
    by_fold = {n.lower(): n for n in catalog_names()}
    return by_fold.get(text.lower())


def _from_kind(kinds: dict, kv: dict, what: str):
    """kinds[kind] built from the key=value pairs left in kv (consumed)."""
    kind = kv.pop("kind", None)
    if kind not in kinds:
        raise click.UsageError(f"unknown {what} kind {kind!r}")
    out = kinds[kind](**{k: float(v) for k, v in kv.items()})
    kv.clear()
    return out


def _pop_float(kv: dict, key: str) -> float:
    if key not in kv:
        raise click.UsageError(f"missing parameter {key}=")
    try:
        return float(kv.pop(key))
    except ValueError:
        raise click.UsageError(f"{key} must be a number")


# ----------------------------------------------------------------------
# Verification rows
# ----------------------------------------------------------------------

def _row(check_id: str, params: str, anchor: str, verdict: str,
         margin: float, witness=None) -> dict:
    return {
        "id": check_id,
        "params": params,
        "anchor": anchor,
        "verdict": verdict,
        "margin": None if margin is None else float(margin),
        "witness": witness,
    }


def _verdict(margin: float) -> str:
    return "pass" if margin >= 0.0 else "fail"


def _report_row(check_id: str, params: str, anchor: str, r,
                margin: float) -> dict:
    return _row(check_id, params, anchor, "pass" if r.passed else "fail",
                margin, r.witness)


_OMEGA_PAIRS = ((1.5, 2.5), (0.7, 0.9), (3.0, 1.0))
_LAPLACE_X = (0.1, 1.0, 10.0)
_SELFDECOMP_ALPHAS = (0.25, 0.5, 0.75)
_ABSMON_CASES = ((0.0, 1.0), (0.7, 0.5), (2.0, 1.5))
_LANDAU_REF = 0.7857468704
_LANDAU_ANCHOR = "Corollary part g"
_INVERSION_CASES = (
    ("IK_EQUAL", (0.6, 2.0, 5.0)),
    ("I_EXP", (0.6, 2.0, 5.0)),
    ("K_RATIO", (0.6, 2.0, 5.0)),
)


def _identity_tasks(cfg: RunConfig):
    zs = cfg.grid

    def run(name):
        def task():
            rec = make_identity(name)
            tol = cfg.tol_hard if rec.tol_class == "hard" else cfg.tol_tight
            worst, wz, conv = 0.0, None, True
            for z in zs:
                rhs = rec.stieltjes_rhs(float(z), tol=0.01 * tol)
                lhs = rec.lhs_value(float(z))
                # the quadrature aims well below tol; its own error
                # estimate certifying tol itself is still conclusive
                conv = conv and (rhs.converged
                                 or rhs.err_estimate <= 0.5 * tol * abs(lhs))
                res = abs(lhs - rhs.value) / max(abs(lhs), 1e-300)
                if res > worst:
                    worst, wz = res, float(z)
            params = " ".join(f"{k}={v:g}" for k, v in rec.params)
            verdict = _verdict(tol - worst)
            if not conv:
                verdict = "inconclusive"
            return _row(f"identity:{name}", params, rec.anchor,
                        verdict, tol - worst, wz)
        return task

    return [(f"identity:{name}", run(name)) for name in catalog_names()]


def _distribution_tasks(cfg: RunConfig):
    tasks = []

    def norm_task(kind, args):
        def task():
            d = DIST_KINDS[kind](*args)
            r = integrate_singular_decay(lambda x: pdf(d, x), tol=1e-11)
            margin = 1e-8 - abs(r.value - 1.0)
            verdict = _verdict(margin) if r.converged else "inconclusive"
            return _row(f"norm:{kind}", format_dist(d), d.anchor,
                        verdict, margin)
        return task

    def laplace_task(kind, args):
        def task():
            d = DIST_KINDS[kind](*args)
            tol = 1e-6 if kind == "kdist" else cfg.tol_tight
            worst, wx, conv = 0.0, None, True
            for x in _LAPLACE_X:
                closed = float(laplace_closed(d, x))
                num = numeric_laplace(lambda t: pdf(d, t), x, tol=1e-10)
                conv = conv and num.converged
                res = abs(closed - num.value) / max(abs(closed), 1e-300)
                if res > worst:
                    worst, wx = res, x
            verdict = _verdict(tol - worst) if conv else "inconclusive"
            return _row(f"laplace:{kind}", format_dist(d), d.anchor,
                        verdict, tol - worst, wx)
        return task

    def omega_task(al, be):
        def task():
            r = integrate_singular_decay(
                lambda t: kdist_quotient_kernel(al, be, t), tol=1e-10)
            margin = cfg.tol_tight - abs(r.value - 1.0)
            verdict = _verdict(margin) if r.converged else "inconclusive"
            return _row(f"omega-mass:{al:g}-{be:g}",
                        f"alpha={al:g} beta={be:g}", "eq. (pdfome)",
                        verdict, margin)
        return task

    for kind, args in _DIST_DEFAULTS.items():
        tasks.append((f"norm:{kind}", norm_task(kind, args)))
        if kind != "nchisq":
            tasks.append((f"laplace:{kind}", laplace_task(kind, args)))
    for al, be in _OMEGA_PAIRS:
        tasks.append((f"omega-mass:{al:g}-{be:g}", omega_task(al, be)))
    return tasks


def _idtests_tasks(cfg: RunConfig):
    tasks = []

    def bern_task(label, spec):
        def task():
            r = bernstein_check(spec, max_order=cfg.max_order, label=label)
            return _report_row(f"bernstein:{label}", label, spec.anchor, r,
                               r.worst_margin)
        return task

    def sd_task(label, spec, alpha):
        def task():
            r = selfdecomp_check(spec, alpha, label=label)
            return _report_row(f"selfdecomp:{label}:{alpha:g}",
                               f"{label} alpha={alpha:g}", "Lemma 2", r,
                               r.worst_margin)
        return task

    def pick_task(label, spec):
        def task():
            r = pick_check(spec, label=label)
            return _report_row(f"pick:{label}", label, "Lemma 3", r,
                               r.min_im_value)
        return task

    def zeta_task():
        point, value = zeta_witness_search()
        found = value < 0.0
        return _row("pick-witness:zeta", "mu=1 nu=1 a=1 b=2", Zeta.anchor,
                    "expected-fail" if found else "fail",
                    -value, [point[0], point[1]])

    def hcm_task(kind, order):
        def task():
            d = DIST_KINDS[kind](*_DIST_DEFAULTS[kind])
            r = hcm_check(d, u=1.0, max_order=order, label=kind)
            return _report_row(f"hcm:{kind}", format_dist(d), d.anchor, r,
                               r.worst_margin)
        return task

    def profile_task(mu, lam, u):
        def task():
            r = noncentral_profile_check(mu, lam, u)
            ok = r.decreasing_ok and r.convex_ok
            return _row(f"profile:{mu:g}-{lam:g}-{u:g}",
                        f"mu={mu:g} lam={lam:g} u={u:g}",
                        NoncentralChiSq.anchor,
                        "pass" if ok else "fail", 1.0 if ok else -1.0)
        return task

    def absmon_task(mu, u):
        def task():
            r = absmon_check(mu, u, max_order=6)
            return _report_row(f"absmon:{mu:g}-{u:g}", f"mu={mu:g} u={u:g}",
                               "Theorem thprodIabsmon", r, r.worst_margin)
        return task

    def landau_value_task():
        margin = 1e-8 - abs(landau_constant() - _LANDAU_REF)
        return _row("landau:constant", f"ref={_LANDAU_REF}",
                    _LANDAU_ANCHOR, _verdict(margin), margin)

    def landau_bound_task(mu):
        def task():
            margin = -landau_bound_margin(mu)
            return _row(f"landau:bound:{mu:g}", f"mu={mu:g}",
                        _LANDAU_ANCHOR, _verdict(margin), margin)
        return task

    def inversion_task(name, t):
        def task():
            rec = make_identity(name)
            got = rec.inversion_check(t)
            want = float(rec.measure_density(t))
            res = abs(got - want) / max(abs(want), 1e-300)
            return _row(f"inversion:{name}:{t:g}",
                        f"t={t:g} kernel={want:.6g}",
                        "Lemma 7", _verdict(1e-5 - res),
                        1e-5 - res)
        return task

    for label, spec in bernstein_targets():
        tasks.append((f"bernstein:{label}", bern_task(label, spec)))
    for label, spec in selfdecomp_targets():
        for alpha in _SELFDECOMP_ALPHAS:
            tasks.append((f"selfdecomp:{label}:{alpha:g}",
                          sd_task(label, spec, alpha)))
    for label, spec in pick_targets():
        tasks.append((f"pick:{label}", pick_task(label, spec)))
    tasks.append(("pick-witness:zeta", zeta_task))
    tasks.append(("hcm:gammaquot", hcm_task("gammaquot", cfg.max_order)))
    tasks.append(("hcm:kdist", hcm_task("kdist", 3)))
    tasks.append(("hcm:gig", hcm_task("gig", 3)))
    for mu, lam, u in profile_targets():
        tasks.append((f"profile:{mu:g}-{lam:g}-{u:g}",
                      profile_task(mu, lam, u)))
    for mu, u in _ABSMON_CASES:
        tasks.append((f"absmon:{mu:g}-{u:g}", absmon_task(mu, u)))
    tasks.append(("landau:constant", landau_value_task))
    for mu in (0.5, 1.0, 3.0):
        tasks.append((f"landau:bound:{mu:g}", landau_bound_task(mu)))
    for name, ts in _INVERSION_CASES:
        for t in ts:
            tasks.append((f"inversion:{name}:{t:g}", inversion_task(name, t)))
    return tasks


def _run_tasks(tasks, cfg: RunConfig):
    def guarded(check_id, fn):
        start = time.perf_counter()
        try:
            row = fn()
        except ConvergenceError as exc:
            row = _row(check_id, "", "", "inconclusive", None, str(exc))
        except Exception as exc:
            # one broken check is a failing row, not an aborted report
            row = _row(check_id, "", "", "fail", None,
                       f"{type(exc).__name__}: {exc}")
        row["seconds"] = round(time.perf_counter() - start, 4)
        return row

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            rows = list(pool.map(lambda t: guarded(*t), tasks))
    else:
        rows = [guarded(check_id, fn) for check_id, fn in tasks]
    rows.sort(key=lambda r: r["id"])
    if cfg.stable:
        for row in rows:
            del row["seconds"]
    return rows


def _envelope(scope: str, cfg: RunConfig, rows) -> dict:
    counts = {"pass": 0, "fail": 0, "expected-fail": 0, "inconclusive": 0}
    for row in rows:
        counts[row["verdict"]] += 1
    return {
        "version": REPORT_VERSION,
        "tool": f"besselid {__version__}",
        "scope": scope,
        "config": {
            "tol_tight": cfg.tol_tight, "tol_hard": cfg.tol_hard,
            "grid": f"{cfg.grid_lo:g}:{cfg.grid_hi:g}:{cfg.grid_n}",
            "max_order": cfg.max_order, "threads": cfg.threads,
            "format": cfg.fmt, "stable": cfg.stable,
            "allow_inconclusive": cfg.allow_inconclusive,
            "only": cfg.only,
        },
        "rows": rows,
        "summary": counts,
    }


def _emit(envelope: dict, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(envelope, indent=2, sort_keys=True))
        return
    buf = io.StringIO()
    fieldnames = ["id", "params", "anchor", "verdict", "margin", "witness"]
    rows = envelope["rows"]
    if rows and "seconds" in rows[0]:
        fieldnames.append("seconds")
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        out = dict(row)
        if isinstance(out.get("witness"), (list, tuple)):
            out["witness"] = " ".join(f"{v:g}" for v in out["witness"])
        writer.writerow(out)
    click.echo(buf.getvalue(), nl=False)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

@click.group()
@click.version_option(__version__)
def main():
    """Modified-Bessel distributions: evaluation and verification."""


_CONFIG_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="key-value config file"),
    click.option("--tol-tight", type=float, default=None),
    click.option("--tol-hard", type=float, default=None),
    click.option("--grid", default=None, help="log grid as lo:hi:n"),
    click.option("--max-order", type=int, default=None),
    click.option("--threads", type=int, default=None),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                 default=None),
    click.option("--stable", is_flag=True, default=None,
                 help="omit timings for byte-identical output"),
    click.option("--allow-inconclusive", is_flag=True, default=None),
    click.option("--only", default=None,
                 help="run only rows whose id contains this substring"),
]


def _with_config_options(fn):
    for opt in reversed(_CONFIG_OPTIONS):
        fn = opt(fn)
    return fn


@main.command()
@click.argument("scope", type=click.Choice(
    ["identities", "distributions", "idtests", "all"]))
@_with_config_options
def verify(scope, config_path, **overrides):
    """Run the verification suite for SCOPE and print a report."""
    cfg = _config_from(config_path, **overrides)
    tasks = []
    if scope in ("identities", "all"):
        tasks += _identity_tasks(cfg)
    if scope in ("distributions", "all"):
        tasks += _distribution_tasks(cfg)
    if scope in ("idtests", "all"):
        tasks += _idtests_tasks(cfg)
    if cfg.only:
        tasks = [t for t in tasks if cfg.only in t[0]]
        if not tasks:
            raise click.UsageError(f"--only {cfg.only!r} matches no checks")
    rows = _run_tasks(tasks, cfg)
    _emit(_envelope(scope, cfg, rows), cfg.fmt)
    counts = {"fail": 0, "inconclusive": 0}
    for row in rows:
        if row["verdict"] in counts:
            counts[row["verdict"]] += 1
    if counts["inconclusive"] and not cfg.allow_inconclusive:
        sys.exit(3)
    sys.exit(1 if counts["fail"] else 0)


def _eval_bessel(fn, kv):
    nu = _pop_float(kv, "nu")
    x = _pop_float(kv, "x")
    scaled = kv.pop("scaled", "false").lower() in ("1", "true", "yes")
    if fn in (bessel_i, bessel_k):
        return float(fn(nu, x, scaled=scaled))
    return float(fn(nu, x))


@main.command("eval")
@click.argument("name")
@click.argument("params", nargs=-1)
def eval_cmd(name, params):
    """Evaluate NAME at key=value PARAMS and print the value.

    Names: bessel_{j,y,i,k}, bessel_zero, tricomi_psi, kummer_m,
    pdf, lt (closed Laplace transform of a distribution), ltspec
    (catalog Laplace-transform variant), lhs (identity left side),
    kernel (identity Stieltjes kernel).
    """
    kv = _parse_kv(params)
    try:
        if name in ("bessel_j", "bessel_y", "bessel_i", "bessel_k"):
            fn = {"bessel_j": bessel_j, "bessel_y": bessel_y,
                  "bessel_i": bessel_i, "bessel_k": bessel_k}[name]
            value = _eval_bessel(fn, kv)
        elif name == "bessel_zero":
            value = bessel_zero(_pop_float(kv, "nu"), int(_pop_float(kv, "n")))
        elif name == "tricomi_psi":
            value = float(tricomi_psi(_pop_float(kv, "a"),
                                      _pop_float(kv, "c"),
                                      _pop_float(kv, "x")))
        elif name == "kummer_m":
            value = float(kummer_m(_pop_float(kv, "a"), _pop_float(kv, "c"),
                                   _pop_float(kv, "x")))
        elif name in ("pdf", "lt"):
            x = _pop_float(kv, "x")
            d = _from_kind(DIST_KINDS, kv, "distribution")
            value = float(pdf(d, x)) if name == "pdf" \
                else float(laplace_closed(d, x))
        elif name == "ltspec":
            x = _pop_float(kv, "x")
            value = float(lt_value(_from_kind(LT_KINDS, kv, "transform"), x))
        elif name in ("lhs", "kernel"):
            ident = _identity_name(kv.pop("id", ""))
            if ident is None:
                raise click.UsageError("unknown identity id")
            point = _pop_float(kv, "z" if name == "lhs" else "t")
            rec = make_identity(ident, **{k: float(v) for k, v in kv.items()})
            kv.clear()
            value = float(rec.lhs_value(point)) if name == "lhs" \
                else float(rec.kernel_density(point))
        else:
            raise click.UsageError(f"unknown eval target {name!r}")
    except (ParameterError, DomainError, UnsupportedVariantError,
            TypeError) as exc:
        raise click.UsageError(str(exc))
    if kv:
        raise click.UsageError(f"unused parameters {sorted(kv)}")
    click.echo(f"{value:.16g}")


@main.command("profile")
@click.argument("target")
@click.argument("params", nargs=-1)
@click.option("--grid", default="1e-2:1e2:25", help="log grid as lo:hi:n")
def profile_cmd(target, params, grid):
    """CSV of (z, lhs, rhs, residual) for an identity or `lt kind=...`.

    For an identity name the right side is the Stieltjes representation
    integral; for a distribution transform it is the numeric Laplace
    transform of the density.
    """
    lo, hi, n = _parse_grid(grid)
    zs = np.logspace(np.log10(lo), np.log10(hi), n)
    kv = _parse_kv(params)
    rows = []
    try:
        if _identity_name(target) is not None:
            rec = make_identity(_identity_name(target),
                                **{k: float(v) for k, v in kv.items()})
            for z in zs:
                lhs = float(rec.lhs_value(float(z)))
                rhs = rec.stieltjes_rhs(float(z))
                res = abs(lhs - rhs.value) / max(abs(lhs), 1e-300)
                rows.append({"z": float(z), "lhs": lhs,
                             "rhs": float(rhs.value), "residual": res})
        elif target == "lt":
            d = _from_kind(DIST_KINDS, kv, "distribution")
            for z in zs:
                lhs = float(laplace_closed(d, float(z)))
                rhs = numeric_laplace(lambda t: pdf(d, t), float(z))
                res = abs(lhs - rhs.value) / max(abs(lhs), 1e-300)
                rows.append({"z": float(z), "lhs": lhs,
                             "rhs": float(rhs.value), "residual": res})
        else:
            raise click.UsageError(f"unknown profile target {target!r}")
    except (ParameterError, DomainError, UnsupportedVariantError,
            TypeError) as exc:
        raise click.UsageError(str(exc))
    click.echo(rows_to_csv(rows), nl=False)


@main.command("zeros")
@click.option("--nu", type=float, default=0.0, show_default=True)
@click.option("--count", type=int, default=20, show_default=True)
def zeros_cmd(nu, count):
    """Print the first COUNT positive zeros j_{nu,n}."""
    try:
        zs = bessel_zeros(nu, count)
    except (ParameterError, DomainError) as exc:
        raise click.UsageError(str(exc))
    for n, z in enumerate(zs, start=1):
        click.echo(f"{n:4d} {z:.15g}")


@main.command("landau")
def landau_cmd():
    """Print the Landau constant sup t^(1/3) J_0(t)."""
    click.echo(f"{landau_constant():.10f}")


if __name__ == "__main__":
    main()
