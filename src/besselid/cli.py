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
import math
import time
from dataclasses import dataclass, fields

import click
import numpy as np

from . import __version__, checks
# perfbench/workloads.py reads the three underscored names as cli attributes
from .checks import (ABSMON_CASES as _ABSMON_CASES,
                     SELFDECOMP_ALPHAS as _SELFDECOMP_ALPHAS)
from .distributions import (DIST_DEFAULTS as _DIST_DEFAULTS, DIST_KINDS,
                            laplace_closed, pdf)
from .errors import DomainError, ParameterError, UnsupportedVariantError
from .idtests import LT_KINDS, landau_constant, lt_value
from .quad import numeric_laplace
from .specfun import (bessel_i, bessel_j, bessel_k, bessel_y, bessel_zero,
                      bessel_zeros, kummer_m, tricomi_psi)
from .stieltjes import catalog_names, make_identity

REPORT_VERSION = 1

@dataclass(frozen=True)
class RunConfig:
    """Suite configuration; flags override config-file values."""

    tol_tight: float = 1e-7
    grid_lo: float = 1e-2
    grid_hi: float = 1e2
    grid_n: int = 7
    max_order: int = 8
    fmt: str = "json"
    stable: bool = False
    allow_inconclusive: bool = False
    only: str = ""

    def __post_init__(self):
        if not self.tol_tight > 0.0:
            raise ParameterError("the tolerance must be positive")
        _log_grid(self.grid_lo, self.grid_hi, self.grid_n)
        if not self.max_order >= 1:
            raise ParameterError("max_order must be at least 1")
        if self.fmt not in ("json", "csv"):
            raise ParameterError("format must be json or csv")

    @property
    def grid(self):
        return _log_grid(self.grid_lo, self.grid_hi, self.grid_n)


def _log_grid(lo: float, hi: float, n: int):
    """n log-spaced points from lo to hi; ParameterError naming a bad grid."""
    if not (n >= 1 and 0.0 < lo <= hi < math.inf):
        raise ParameterError(f"grid {lo:g}:{hi:g}:{n} needs finite "
                             "0 < lo <= hi and n >= 1")
    return np.logspace(np.log10(lo), np.log10(hi), n)


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


_PARSERS = {"float": float, "int": int, "str": str,
            "bool": lambda v: v.lower() in ("1", "true", "yes", "on")}


def _config_from(path, **overrides) -> RunConfig:
    """File values converted by their RunConfig field's type; flags win."""
    kwargs = {}
    types = {f.name: f.type for f in fields(RunConfig)}
    try:
        for key, val in (_load_config_file(path) if path else {}).items():
            key = "fmt" if key == "format" else key
            if key not in types and key != "grid":
                raise click.UsageError(f"unknown config key {key!r}")
            kwargs[key] = val if key == "grid" else _PARSERS[types[key]](val)
        kwargs.update((k, v) for k, v in overrides.items() if v is not None)
        if "grid" in kwargs:
            lo, hi, n = _parse_grid(kwargs.pop("grid"))
            kwargs.update(grid_lo=lo, grid_hi=hi, grid_n=n)
        return RunConfig(**kwargs)
    except ValueError as exc:  # a value of the wrong type, or out of range
        raise click.UsageError(str(exc))


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
    return kinds[kind](**_numbers(kv))


def _numbers(kv: dict, *keys: str) -> dict:
    """The values of `keys`, or of every key left when none is named,
    popped from kv as finite floats."""
    out = {}
    for key in keys or list(kv):
        if key not in kv:
            raise click.UsageError(f"missing parameter {key}=")
        text = kv.pop(key)
        try:
            out[key] = float(text)
        except ValueError:
            out[key] = math.nan
        if not math.isfinite(out[key]):
            raise click.UsageError(f"{key} must be a finite number, "
                                   f"got {text!r}")
    return out


# ----------------------------------------------------------------------
# Verification report
# ----------------------------------------------------------------------

def _run_tasks(tasks, cfg: RunConfig):
    """Rows of the (check_id, fn) tasks in id order; fn returns a row,
    timed in its "seconds" field unless the report is stable."""
    rows = []
    for _, fn in tasks:
        start = time.perf_counter()
        row = fn()
        if not cfg.stable:
            row["seconds"] = round(time.perf_counter() - start, 4)
        rows.append(row)
    return sorted(rows, key=lambda r: r["id"])


def _envelope(scope: str, cfg: RunConfig, rows) -> dict:
    counts = {"pass": 0, "fail": 0, "expected-fail": 0, "inconclusive": 0}
    for row in rows:
        counts[row["verdict"]] += 1
    return {
        "version": REPORT_VERSION,
        "tool": f"besselid {__version__}",
        "scope": scope,
        "config": {
            "tol_tight": cfg.tol_tight,
            "grid": f"{cfg.grid_lo:g}:{cfg.grid_hi:g}:{cfg.grid_n}",
            "max_order": cfg.max_order,
            "format": cfg.fmt, "stable": cfg.stable,
            "allow_inconclusive": cfg.allow_inconclusive,
            "only": cfg.only,
        },
        "rows": rows,
        "summary": counts,
    }


def rows_to_csv(rows) -> str:
    """CSV text of a list of dicts sharing the first one's keys, with a
    header; empty for no rows."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(envelope: dict, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(envelope, indent=2, sort_keys=True))
        return
    rows = [dict(row, witness=" ".join(f"{v:g}" for v in row["witness"]))
            if isinstance(row["witness"], (list, tuple)) else row
            for row in envelope["rows"]]
    click.echo(rows_to_csv(rows), nl=False)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

@click.group()
@click.version_option(__version__)
def main():
    """Modified-Bessel distributions: evaluation and verification."""


@main.command()
@click.argument("scope", type=click.Choice([*checks.SCOPES, "all"]))
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="key-value config file")
@click.option("--tol-tight", type=float, default=None)
@click.option("--grid", default=None, help="log grid as lo:hi:n")
@click.option("--max-order", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default=None)
@click.option("--stable", is_flag=True, default=None,
              help="omit timings for byte-identical output")
@click.option("--allow-inconclusive", is_flag=True, default=None)
@click.option("--only", default=None,
              help="run only rows whose id contains this substring")
def verify(scope, config_path, **overrides):
    """Run the verification suite for SCOPE and print a report."""
    cfg = _config_from(config_path, **overrides)
    table = [c for c in checks.table(scope, cfg) if cfg.only in c.id]
    if not table:
        raise click.UsageError(f"--only {cfg.only!r} matches no checks")
    rows = _run_tasks([(c.id, c.report) for c in table], cfg)
    _emit(_envelope(scope, cfg, rows), cfg.fmt)
    verdicts = {row["verdict"] for row in rows}
    if "inconclusive" in verdicts and not cfg.allow_inconclusive:
        click.get_current_context().exit(3)
    click.get_current_context().exit(1 if "fail" in verdicts else 0)


def _eval_bessel(fn, kv):
    nu, x = _numbers(kv, "nu", "x").values()
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
            nu, n = _numbers(kv, "nu", "n").values()
            if not n.is_integer():
                raise click.UsageError("n must be a whole number")
            value = bessel_zero(nu, int(n))
        elif name in ("tricomi_psi", "kummer_m"):
            fn = tricomi_psi if name == "tricomi_psi" else kummer_m
            value = float(fn(*_numbers(kv, "a", "c", "x").values()))
        elif name in ("pdf", "lt"):
            x = _numbers(kv, "x")["x"]
            d = _from_kind(DIST_KINDS, kv, "distribution")
            value = float(pdf(d, x)) if name == "pdf" \
                else float(laplace_closed(d, x))
        elif name == "ltspec":
            x = _numbers(kv, "x")["x"]
            value = float(lt_value(_from_kind(LT_KINDS, kv, "transform"), x))
        elif name in ("lhs", "kernel"):
            ident = _identity_name(kv.pop("id", ""))
            if ident is None:
                raise click.UsageError("unknown identity id")
            key = "z" if name == "lhs" else "t"
            point = _numbers(kv, key)[key]
            rec = make_identity(ident, **_numbers(kv))
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
    kv = _parse_kv(params)
    rows = []
    try:
        zs = _log_grid(*_parse_grid(grid))
        if _identity_name(target) is not None:
            rec = make_identity(_identity_name(target), **_numbers(kv))
            lhss, rhss = rec.lhs_value(zs), rec.stieltjes_rhs(zs)
        elif target == "lt":
            d = _from_kind(DIST_KINDS, kv, "distribution")
            lhss = laplace_closed(d, zs)
            rhss = numeric_laplace(lambda t: pdf(d, t), zs)
        else:
            raise click.UsageError(f"unknown profile target {target!r}")
        for z, lhs, rhs in zip(zs.tolist(), lhss, rhss):
            lhs = float(lhs)
            res = abs(lhs - rhs.value) / max(abs(lhs), 1e-300)
            rows.append({"z": z, "lhs": lhs, "rhs": float(rhs.value),
                         "residual": res})
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
