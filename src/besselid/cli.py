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
import re
import time
from dataclasses import asdict, dataclass

import click

from . import __version__, checks
# perfbench/workloads.py reads the three underscored names as cli attributes
from .checks import (ABSMON_CASES as _ABSMON_CASES,
                     SELFDECOMP_ALPHAS as _SELFDECOMP_ALPHAS)
from .distributions import (DIST_DEFAULTS as _DIST_DEFAULTS, DIST_KINDS,
                            laplace_closed, pdf)
from .errors import DomainError, ParameterError, UnsupportedVariantError
from .idtests import LT_KINDS, landau_constant, lt_value
from .specfun import (bessel_i, bessel_j, bessel_k, bessel_y, bessel_zero,
                      bessel_zeros, kummer_m, tricomi_psi)
from .stieltjes import catalog_names, make_identity

REPORT_VERSION = 1

@dataclass(frozen=True)
class RunConfig:
    """Suite settings: one field per option of `verify` but --config,
    named as the option."""

    tol_tight: float = 1e-7
    grid: tuple = (1e-2, 1e2, 7)
    max_order: int = 8
    format: str = "json"
    stable: bool = False
    allow_inconclusive: bool = False
    only: str = ""


class _Tolerance(click.ParamType):
    """A float above 0 (inf is, nan is not)."""

    name = "float"

    def convert(self, value, param, ctx):
        x = click.FLOAT.convert(value, param, ctx)
        if not x > 0.0:
            self.fail(f"the tolerance must be positive, got {value}",
                      param, ctx)
        return x


class _Grid(click.ParamType):
    """A log grid lo:hi:n, as (lo, hi, n) with finite 0 < lo <= hi and
    n >= 1; checks.log_points gives its points."""

    name = "lo:hi:n"

    def convert(self, value, param, ctx):
        try:
            lo, hi, n = value.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError:
            self.fail(f"grid must be lo:hi:n, got {value!r}", param, ctx)
        if not (n >= 1 and 0.0 < lo <= hi < math.inf):
            self.fail(f"grid {lo:g}:{hi:g}:{n} needs finite "
                      "0 < lo <= hi and n >= 1", param, ctx)
        return lo, hi, n


def _load_config_file(path: str) -> dict:
    """Plain key-value config: one `key = value` or `key value` per line.
    A `#` at the start of a line or after whitespace starts a comment;
    any other `#` belongs to the value."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, val = (s.strip() for s in line.split("=", 1))
            else:
                key, _, val = line.partition(" ")
                val = val.strip()
            out[key.replace("-", "_")] = val
    return out


def _read_config(ctx, param, path):
    """The eager --config: the file's values become the defaults of the
    other options, each keyed by its name, so a value goes through its
    flag's type and a flag on the command line still wins."""
    if path is None:
        return
    values = _load_config_file(path)
    options = {p.name for p in ctx.command.params
               if isinstance(p, click.Option) and p is not param}
    unknown = sorted(set(values) - options)
    if unknown:
        raise click.UsageError(f"unknown config keys {unknown}")
    ctx.default_map = values


def _parse_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise click.UsageError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _from_kind(kinds: dict, kv: dict, what: str):
    """kinds[kind] built from the key=value pairs left in kv (consumed)."""
    kind = kv.pop("kind", None)
    if kind not in kinds:
        raise click.UsageError(f"unknown {what} kind {kind!r}")
    return kinds[kind](**_numbers(kv))


def _target(name: str, kv: dict):
    """The catalog identity `name` (any case; entry names are
    mixed-case), or for "lt" the distribution of kind=..., built from
    the key=value pairs left in kv (consumed)."""
    if name == "lt":
        return _from_kind(DIST_KINDS, kv, "distribution")
    by_fold = {n.lower(): n for n in catalog_names()}
    if name.lower() not in by_fold:
        raise click.UsageError(f"unknown identity {name!r}")
    return make_identity(by_fold[name.lower()], **_numbers(kv))


# the library's errors that a bad parameter or point raises: exit 2
_USAGE_ERRORS = (ParameterError, DomainError, UnsupportedVariantError,
                 TypeError)


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
        "config": dict(asdict(cfg), grid="{:g}:{:g}:{}".format(*cfg.grid)),
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
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              is_eager=True, expose_value=False, callback=_read_config,
              help="key-value file of these options")
@click.option("--tol-tight", type=_Tolerance())
@click.option("--grid", type=_Grid(), help="log grid as lo:hi:n")
@click.option("--max-order", type=click.IntRange(min=1))
@click.option("--format", type=click.Choice(["json", "csv"]))
@click.option("--stable", is_flag=True, default=None,
              help="omit timings for byte-identical output")
@click.option("--allow-inconclusive", is_flag=True, default=None)
@click.option("--only", default=None,
              help="run only rows whose id contains this substring")
def verify(scope, **settings):
    """Run the verification suite for SCOPE and print a report."""
    cfg = RunConfig(**{k: v for k, v in settings.items() if v is not None})
    table = [c for c in checks.table(scope, cfg) if cfg.only in c.id]
    if not table:
        raise click.UsageError(f"--only {cfg.only!r} matches no checks")
    rows = _run_tasks([(c.id, c.report) for c in table], cfg)
    _emit(_envelope(scope, cfg, rows), cfg.format)
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
            ident = kv.pop("id", "")
            key = "z" if name == "lhs" else "t"
            point = _numbers(kv, key)[key]
            # id= names an identity; "lt" is a profile target only
            rec = _target("" if ident == "lt" else ident, kv)
            value = float(rec.lhs_value(point)) if name == "lhs" \
                else float(rec.kernel_density(point))
        else:
            raise click.UsageError(f"unknown eval target {name!r}")
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    if kv:
        raise click.UsageError(f"unused parameters {sorted(kv)}")
    click.echo(f"{value:.16g}")


@main.command("profile")
@click.argument("target")
@click.argument("params", nargs=-1)
@click.option("--grid", type=_Grid(), default="1e-2:1e2:25",
              help="log grid as lo:hi:n")
def profile_cmd(target, params, grid):
    """CSV of (z, lhs, rhs, residual) for an identity or `lt kind=...`.

    For an identity name the right side is the Stieltjes representation
    integral, at verify's default tolerance; for a distribution
    transform it is the numeric Laplace transform of the density.
    """
    kv = _parse_kv(params)
    try:
        rows = checks.residuals(_target(target, kv), checks.log_points(grid),
                                RunConfig.tol_tight)
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))
    click.echo(rows_to_csv([{"z": z, "lhs": lhs, "rhs": float(rhs.value),
                             "residual": res}
                            for z, lhs, rhs, res in rows]), nl=False)


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
