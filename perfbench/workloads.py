"""Inputs and ops of the `zsweep` and `idchecks` workloads.

Inputs are made from the seed alone, by `make_inputs`, and written to a
JSON file that the child processes read; the package only ever sees the
generated z values and grids.  A round is one fixed set of ops: every
catalog entry or check target once, each with its own seeded points.
A child's fixed work is one untimed warm-up round and then its own
measured rounds: every child of a run draws fresh points, so a run
covers as many distinct points as it has children times rounds.

Points are stratified (one uniform draw per equal-width cell of the
range, on a log scale where the range is logarithmic), so each round
covers its whole range and the cost of a round varies little between
seeds, while every point of the range stays reachable.
"""

from __future__ import annotations

import numpy as np

# measured rounds in the fixed work of one child (after the warm-up round)
ROUNDS = {"zsweep": 3, "idchecks": 6}
Z_PER_ENTRY = 8      # zsweep: z points per catalog identity per round
# x points per closed Laplace transform per round: 9, not 8, because
# exactly half of the 24 entries cost under 2 ms an op, so with equal
# counts the op median lies on the gap between two cost classes and
# jumps between them from seed to seed; with 9 it lies inside the
# 1.5-2 ms class
X_PER_LAPLACE = 9
Z_RANGE = (1e-3, 1e3)

# default ranges of the idtests checks (besselid.idtests defaults)
BERNSTEIN_X = (0.05, 50.0, 9)
SELFDECOMP_X = (0.1, 10.0, 7)
PICK_RE = (-5.0, 5.0, 11)
PICK_IM = (0.25, 5.0, 5)
HCM_W = (0.2, 18.0, 8)      # w - 2
HCM_U = 1.0
BERNSTEIN_ORDER = 8
HCM_ORDERS = {"gammaquot": 8, "kdist": 3, "gig": 3}
ABSMON_ORDER = 6


def _strata(rng, lo: float, hi: float, n: int, log: bool = True) -> list:
    a, b = (np.log(lo), np.log(hi)) if log else (lo, hi)
    edges = np.linspace(a, b, n + 1)
    v = edges[:-1] + np.diff(edges) * rng.uniform(size=n)
    return [float(x) for x in (np.exp(v) if log else v)]


def _zsweep_round(rng, warmup: bool = False) -> dict:
    from besselid import cli, stieltjes
    n, m = (1, 1) if warmup else (Z_PER_ENTRY, X_PER_LAPLACE)
    return {
        "identity": {name: _strata(rng, *Z_RANGE, n)
                     for name in stieltjes.catalog_names()},
        "laplace": {kind: _strata(rng, *Z_RANGE, m)
                    for kind in cli._DIST_DEFAULTS if kind != "nchisq"},
    }


def _idchecks_round(rng, warmup: bool = False) -> dict:
    from besselid import cli, idtests

    def grid(lo, hi, n, log=True):
        return _strata(rng, lo, hi, 1 if warmup else n, log)

    return {
        "bernstein": {label: grid(*BERNSTEIN_X)
                      for label, _ in idtests.bernstein_targets()},
        "selfdecomp": {f"{label}:{alpha:g}": grid(*SELFDECOMP_X)
                       for label, _ in idtests.selfdecomp_targets()
                       for alpha in cli._SELFDECOMP_ALPHAS},
        "pick": {label: [[x, y] for x in grid(*PICK_RE, log=False)
                         for y in grid(*PICK_IM)]
                 for label, _ in idtests.pick_targets()},
        "hcm": {kind: [2.0 + w for w in grid(*HCM_W)]
                for kind in HCM_ORDERS},
        "absmon": {f"{mu:g}-{u:g}": [2.0 + w for w in grid(*HCM_W)]
                   for mu, u in cli._ABSMON_CASES},
    }


def make_inputs(workload: str, seed: int, children: int) -> dict:
    """The warm-up round plus the measured rounds of each of `children`
    children, all from `seed`.  The warm-up round has one point per
    entry or grid: enough to fill the caches (Bessel zeros) and finish
    lazy set-up before timing."""
    make = {"zsweep": _zsweep_round, "idchecks": _idchecks_round}[workload]
    rng = np.random.default_rng(seed)
    warmup = make(rng, warmup=True)
    return {"workload": workload, "seed": seed, "warmup": warmup,
            "children": [[make(rng) for _ in range(ROUNDS[workload])]
                         for _ in range(children)]}


# ----------------------------------------------------------------------
# Ops.  Each returns "ok", "inconclusive" or "fail".  Package functions
# are looked up on their modules at call time, so a traced run sees the
# wrapped versions.
# ----------------------------------------------------------------------

def _identity_op(rec, tol: float, z: float):
    def op():
        # the acceptance rule of `verify identities` (cli._identity_tasks)
        rhs = rec.stieltjes_rhs(z, tol=0.01 * tol)
        lhs = rec.lhs_value(z)
        certified = rhs.converged or rhs.err_estimate <= 0.5 * tol * abs(lhs)
        res = abs(lhs - rhs.value) / max(abs(lhs), 1e-300)
        if not certified:
            return "inconclusive"
        return "ok" if res <= tol else "fail"
    return op


def _laplace_op(dists, quad, d, tol: float, x: float):
    def op():
        closed = float(dists.laplace_closed(d, x))
        num = quad.numeric_laplace(lambda t: dists.pdf(d, t), x, tol=1e-10)
        if not num.converged:
            return "inconclusive"
        res = abs(closed - num.value) / max(abs(closed), 1e-300)
        return "ok" if res <= tol else "fail"
    return op


def _check_op(run):
    def op():
        return "ok" if run().passed else "fail"
    return op


def zsweep_ops(rnd: dict) -> list:
    from besselid import cli, quad, stieltjes
    from besselid import distributions as dists
    ops = []
    for name, zs in rnd["identity"].items():
        rec = stieltjes.make_identity(name)
        tol = stieltjes.tolerance(name)
        ops += [(f"identity:{name}@{z!r}", _identity_op(rec, tol, z))
                for z in zs]
    for kind, xs in rnd["laplace"].items():
        d = dists.DIST_KINDS[kind](*cli._DIST_DEFAULTS[kind])
        tol = 1e-6 if kind == "kdist" else 1e-7   # as `verify distributions`
        ops += [(f"laplace:{kind}@{x!r}", _laplace_op(dists, quad, d, tol, x))
                for x in xs]
    return ops


def idchecks_ops(rnd: dict) -> list:
    from besselid import cli, idtests
    from besselid import distributions as dists
    ops = []
    targets = dict(idtests.bernstein_targets())
    for label, grid in rnd["bernstein"].items():
        ops.append((f"bernstein:{label}", _check_op(
            lambda s=targets[label], g=tuple(grid), lb=label:
            idtests.bernstein_check(s, grid=g, max_order=BERNSTEIN_ORDER,
                                    label=lb))))
    targets = dict(idtests.selfdecomp_targets())
    for key, grid in rnd["selfdecomp"].items():
        label, alpha = key.rsplit(":", 1)
        ops.append((f"selfdecomp:{key}", _check_op(
            lambda s=targets[label], a=float(alpha), g=tuple(grid), lb=label:
            idtests.selfdecomp_check(s, a, grid=g, label=lb))))
    targets = dict(idtests.pick_targets())
    for label, grid in rnd["pick"].items():
        ops.append((f"pick:{label}", _check_op(
            lambda s=targets[label], g=tuple(map(tuple, grid)), lb=label:
            idtests.pick_check(s, grid=g, label=lb))))
    for kind, ws in rnd["hcm"].items():
        d = dists.DIST_KINDS[kind](*cli._DIST_DEFAULTS[kind])
        ops.append((f"hcm:{kind}", _check_op(
            lambda d=d, w=tuple(ws), n=HCM_ORDERS[kind], lb=kind:
            idtests.hcm_check(d, u=HCM_U, w_grid=w, max_order=n, label=lb))))
    for key, ws in rnd["absmon"].items():
        mu, u = (float(v) for v in key.split("-"))
        ops.append((f"absmon:{key}", _check_op(
            lambda mu=mu, u=u, w=tuple(ws):
            idtests.absmon_check(mu, u, w_grid=w, max_order=ABSMON_ORDER))))
    return ops


OPS = {"zsweep": zsweep_ops, "idchecks": idchecks_ops}
