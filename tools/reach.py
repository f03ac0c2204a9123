"""Trace which statements and functions of the package the CLI reaches.

    PYTHONPATH=src python3 tools/reach.py

Runs a fixed set of CLI invocations in this interpreter under
`sys.settrace`: `verify all --stable` as JSON and as CSV, one `verify`
from a config file, `profile` of every catalog identity and every
distribution's closed Laplace transform, `eval` of every target kind
(each distribution, variant and identity at its defaults), `zeros` and
`landau`; then the warm-up rounds of the `zsweep` and `idchecks`
benchmark workloads, from `perfbench/workloads.py` (read, not changed)
at seed 90417.  The package is imported under the trace, so its
import-time statements count.

Prints, per module of the package, the statements reached over the
statements in it (docstrings excluded; a statement is reached when a
line of its head runs), then every function that no invocation calls,
then every defaulted parameter of a reached function or method that no
traced call sets to another value (neither `is` nor `==` its default).
A function whose whole body is one `raise` is an error branch and is
not listed; nested functions are not looked at.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "besselid"
PERFBENCH = ROOT / "perfbench"
SEED = 90417

CONFIG = """\
# a config file in both of its line forms and key spellings
format = csv
max-order 4
tol_tight = 1e-7
only identity:K_RATIO
stable = true
"""


def _numbers(names, values) -> list:
    return [f"{k}={float(v)!r}" for k, v in zip(names, values)]


def invocations(config_path: str) -> list:
    """The CLI argument lists to run, in order."""
    from besselid.distributions import DIST_DEFAULTS, DIST_KINDS
    from besselid.idtests import LT_KINDS
    from besselid.stieltjes import catalog_names, make_identity

    runs = [["verify", "all", "--stable"],
            ["verify", "all", "--stable", "--format", "csv"],
            ["verify", "identities", "--config", config_path]]
    idents = [(name, [f"{k}={v!r}" for k, v in make_identity(name).p.items()])
              for name in catalog_names()]
    dists = [(kind, ["kind=" + kind] + _numbers(
        [f.name for f in fields(cls)], DIST_DEFAULTS[kind]))
        for kind, cls in DIST_KINDS.items()]
    runs += [["profile", name, *kv, "--grid", "1e-2:1e2:25"]
             for name, kv in idents]
    runs += [["profile", "lt", *kv, "--grid", "1e-2:1e2:25"]
             for _, kv in dists]
    runs += [["eval", fn, "nu=0.7", "x=1.3"]
             for fn in ("bessel_j", "bessel_y", "bessel_i", "bessel_k")]
    runs += [["eval", fn, "nu=0.7", "x=1.3", "scaled=true"]
             for fn in ("bessel_i", "bessel_k")]
    runs += [["eval", "bessel_zero", "nu=0.7", "n=3"],
             ["eval", "tricomi_psi", "a=1.5", "c=0.5", "x=0.7"],
             ["eval", "tricomi_psi", "a=1.5", "c=0.5", "x=7.0"],
             ["eval", "kummer_m", "a=1.5", "c=0.5", "x=0.7"]]
    runs += [["eval", fn, *kv, "x=0.8"] for _, kv in dists
             for fn in ("pdf", "lt")]
    runs += [["eval", "ltspec", "kind=" + kind, *_numbers(
        [f.name for f in fields(cls)], cls.defaults), "x=0.8"]
        for kind, cls in LT_KINDS.items()]
    runs += [["eval", fn, "id=" + name, *kv, f"{key}=0.8"]
             for name, kv in idents for fn, key in (("lhs", "z"),
                                                     ("kernel", "t"))]
    # a <= 0 on the left side of TRICOMI_Am1: the recurrence in a
    runs += [["eval", "lhs", "id=TRICOMI_Am1", "a=0.8", "z=0.8"],
             ["zeros", "--nu", "0.7", "--count", "5"], ["landau"]]
    return runs


def _statements(tree) -> dict:
    """{first line: lines of its head} for every statement but a
    docstring; a compound statement's head runs up to its body."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body \
            else node.end_lineno
        out[first] = range(first, max(first, last) + 1)
    return out


def _functions(tree, prefix: str = ""):
    """(qualified name, first line) of every def, decorators included,
    but those whose body is one raise after an optional docstring."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                body = body[1:]
            if not (len(body) == 1 and isinstance(body[0], ast.Raise)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                yield f"{prefix}{node.name}", first
            yield from _functions(node, f"{prefix}{node.name}.")


def _module_name(path) -> str:
    return ".".join(Path(path).relative_to(PACKAGE).with_suffix("").parts)


def defaulted() -> dict:
    """{code: (name, {parameter: default})} of every function and method
    of the loaded package modules, decorators unwrapped, that has a
    parameter with a default."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "besselid":
            continue
        for key, obj in vars(module).items():
            members = [(f"{key}.{k}", v) for k, v in vars(obj).items()] \
                if inspect.isclass(obj) else [(key, obj)]
            for name, fn in members:
                fn = inspect.unwrap(
                    getattr(fn, "__func__", getattr(fn, "fget", fn)))
                # a dataclass's generated __init__ has no file
                if not (inspect.isfunction(fn) and fn.__module__ == mod_name
                        and fn.__code__.co_filename.startswith(str(PACKAGE))):
                    continue
                params = {p.name: p.default for p in
                          inspect.signature(fn).parameters.values()
                          if p.default is not p.empty}
                if params and fn.__code__ not in out:
                    out[fn.__code__] = (
                        f"{_module_name(fn.__code__.co_filename)}.{name}",
                        params)
    return out


def _is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default)
    except (TypeError, ValueError):     # an array's truth is ambiguous
        return False


def trace(config_path: str) -> tuple:
    """Run the invocations and the warm-up rounds under sys.settrace:
    the number of invocations, the sets of (file, line) executed and of
    (file, first line) of the code objects called, and the defaulted
    parameters of the called functions that no call sets, as
    "module.function(parameter)"."""
    root = str(PACKAGE)
    lines, calls = set(), set()
    table, unset = {}, {}

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(root):
            return None
        calls.add((code.co_filename, code.co_firstlineno))
        lines.add((code.co_filename, frame.f_lineno))
        if code in table:
            params = table[code][1]
            left = unset.setdefault(code, set(params))
            left -= {p for p in left
                     if not _is_default(frame.f_locals[p], params[p])}
        return local

    import click

    sys.settrace(tracer)
    try:
        from besselid import cli
    finally:
        sys.settrace(None)
    # built untraced: reading the defaults reaches nothing of its own
    runs = invocations(config_path)
    table.update(defaulted())
    sys.path.insert(0, str(PERFBENCH))
    from workloads import OPS, make_inputs

    rounds = [(OPS[w], make_inputs(w, SEED, 0)["warmup"])
              for w in ("zsweep", "idchecks")]
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for args in runs:
                try:
                    cli.main(args, standalone_mode=False)
                except click.ClickException:
                    pass
            for ops, rnd in rounds:
                for _, op in ops(rnd):
                    op()
    finally:
        sys.settrace(None)
    params = sorted(f"{table[code][0]}({p})" for code, left in unset.items()
                    for p in left)
    return len(runs), lines, calls, params


def reach(lines, calls) -> tuple:
    """Per module (name, reached, total), and the unreached functions."""
    modules, unreached = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        name = _module_name(path)
        ran = {line for f, line in lines if f == str(path)}
        heads = _statements(tree).values()
        modules.append((name, sum(1 for h in heads if ran.intersection(h)),
                        len(heads)))
        called = {line for f, line in calls if f == str(path)}
        unreached += [f"{name}.{fn}" for fn, first in _functions(tree)
                      if first not in called]
    return modules, unreached


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "reach.cfg"
        config.write_text(CONFIG)
        n_runs, lines, calls, params = trace(str(config))
    modules, unreached = reach(lines, calls)
    print(f"{n_runs} invocations and the zsweep and idchecks warm-up "
          f"rounds (seed {SEED})")
    print(f"{'module':24s} reached/statements")
    for name, hit, total in modules:
        print(f"{name:24s} {hit:4d}/{total}")
    print(f"{'total':24s} {sum(m[1] for m in modules):4d}/"
          f"{sum(m[2] for m in modules)}")
    print("unreached functions:")
    for fn in unreached:
        print(f"  {fn}")
    print("defaulted parameters that no call sets:")
    for param in params:
        print(f"  {param}")


if __name__ == "__main__":
    main()
