"""Span recorder for traced benchmark runs.

The benchmark wraps besselid's public functions at every module
attribute that refers to them (so calls through `from .x import f`
copies are caught too), plus the `derivatives` method of each ladder
class and the integrands handed to the quadrature engines.  No file of
the package is changed.

Each wrapped call records one span: name, start, end, parent span and
op id.  Spans are kept in flat arrays while the run is going and
summarised (and written out) at the end.  A span's self time is its
duration minus the durations of its child spans; calls are serial, so
child spans never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

_perf = time.perf_counter

QUAD_ENGINES = ("quad.integrate_oscillatory", "quad.integrate_singular_decay",
                "quad.tanh_sinh_finite", "quad.numeric_laplace")
LADDERS = ("RationalLadder", "PowerLadder", "MLSumLadder", "StieltjesLadder",
           "CauchyLadder", "SumLadder")


def _points(index, keyword):
    """Count = number of evaluation points of the argument at `index`."""
    def count(args, kwargs, out):
        x = args[index] if len(args) > index else kwargs[keyword]
        return int(np.size(x)), 0
    return count


def _quad_result(args, kwargs, out):
    """Count = integrand evaluations; flag = the engine did not converge."""
    return int(out.n_evals), int(not out.converged)


class Tracer:
    """In-memory span table; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.flag = array("b")
        self.ops: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._engines = {self.name_id(n) for n in QUAD_ENGINES}
        self._integrand = self.name_id("quad.integrand")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0)
        self.flag.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float):
        self.end[idx] = _perf()
        self.start[idx] = t0
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, integrand: bool = False):
        """Wrapper recording a span around each call of fn.

        integrand=True marks a quadrature engine: its first argument is
        wrapped too, unless another engine called it (then the caller's
        integrand is already wrapped and the argument is an internal
        change of variables).
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if integrand:
                caller = self._stack[-1]
                if caller < 0 or self.name[caller] not in self._engines:
                    args = (self._wrap_integrand(args[0]),) + args[1:]
            idx = self._open(nid)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if count is not None:
                self.count[idx], self.flag[idx] = count(args, kwargs, out)
            return out

        return traced

    def _wrap_integrand(self, f):
        def integrand(x):
            idx = self._open(self._integrand)
            t0 = _perf()
            try:
                return f(x)
            finally:
                self._close(idx, t0)
                self.count[idx] = int(np.size(x))
        return integrand

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span called `name`."""
        idx = self._open(self.name_id(name))
        t0 = _perf()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0)

    def run_op(self, label: str, fn, *args):
        """Run one benchmark op inside an `op` span carrying its id."""
        self._op = len(self.ops)
        self.ops.append(label)
        try:
            return self.span("op", fn, *args)
        finally:
            self._op = -1

    # -- summary ------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.int64),
            "flag": np.frombuffer(self.flag, dtype=np.int8),
        }

    def summary(self) -> dict:
        """Per-span-name calls, count sum, flag sum, self and total time,
        plus the derived quantities the benchmark reports."""
        a = self.arrays()
        n_names = len(self.names)
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_t = dur - child

        def per_name(weights=None):
            return np.bincount(name, weights=weights, minlength=n_names)

        calls = per_name()
        counts = per_name(a["count"].astype(float))
        flags = per_name(a["flag"].astype(float))
        selfs = per_name(self_t)
        out = {}
        for nid, label in enumerate(self.names):
            out[label] = {"calls": int(calls[nid]),
                          "count": int(round(counts[nid])),
                          "flag": int(round(flags[nid])),
                          "self_s": float(selfs[nid])}

        # outermost integrands (no integrand above them), and those of
        # them evaluated under a Stieltjes right-hand side
        rhs = self._ids.get("stieltjes.stieltjes_rhs", -1)
        integrand = self._integrand
        under_rhs = np.zeros(name.size, dtype=bool)
        under_integrand = np.zeros(name.size, dtype=bool)
        names_l, parent_l = name.tolist(), parent.tolist()
        for i, p in enumerate(parent_l):
            if p >= 0:
                under_rhs[i] = under_rhs[p] or names_l[p] == rhs
                under_integrand[i] = under_integrand[p] or names_l[p] == integrand
        outer = (name == integrand) & ~under_integrand
        op_spans = name == self._ids.get("op", -1)
        out["_derived"] = {
            "integrand_s": float(dur[outer].sum()),
            "kernel_s": float(dur[outer & under_rhs].sum()),
            "op_s": float(dur[op_spans].sum()),
            "op_self_s": float(self_t[op_spans].sum()),
            "spans": int(name.size),
        }
        out["_per_op"] = [
            {"op": self.ops[int(a["op"][i])], "s": float(dur[i]),
             "unattributed_s": float(self_t[i])}
            for i in np.flatnonzero(op_spans)]
        return out

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names),
                            ops=np.array(self.ops), **self.arrays())


def install(tracer: Tracer):
    """Wrap the package's layer entry points with tracer spans."""
    import besselid.cli  # noqa: F401  (loads every module of the package)
    from besselid import distributions, idtests, quad, smoothfn, specfun
    from besselid.quad import oscillatory, tanhsinh
    from besselid.stieltjes import IdentityRecord

    functions = [
        (specfun, "tricomi_psi_boundary", None, False),
        (specfun, "tricomi_psi", _points(2, "x"), False),
        (specfun, "bessel_zeros", None, False),
        (oscillatory, "integrate_oscillatory", _quad_result, True),
        (tanhsinh, "integrate_singular_decay", _quad_result, True),
        (tanhsinh, "tanh_sinh_finite", _quad_result, True),
        (quad, "numeric_laplace", _quad_result, True),
        (distributions, "pdf", _points(1, "x"), False),
        (distributions, "kdist_quotient_kernel", _points(2, "t"), False),
        (distributions, "laplace_closed", None, False),
        (distributions, "mgf_logderiv_im", None, False),
    ] + [(idtests, fn, None, False) for fn in (
        "bernstein_check", "selfdecomp_check", "pick_check", "hcm_check",
        "absmon_check", "lt_value", "lt_value_complex", "pick_im")]

    replace = {}
    for module, attr, count, integrand in functions:
        fn = getattr(module, attr)
        layer = module.__name__.split(".")[1]
        replace[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn, count, integrand)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "besselid" or mod_name.startswith("besselid."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace:
                    setattr(module, attr, replace[id(obj)])

    for method in ("lhs_value", "stieltjes_rhs"):
        setattr(IdentityRecord, method, tracer.wrap(
            f"stieltjes.{method}", getattr(IdentityRecord, method)))
    for cls_name in LADDERS:
        cls = getattr(smoothfn, cls_name)
        cls.derivatives = tracer.wrap(f"smoothfn.{cls_name}", cls.derivatives)
