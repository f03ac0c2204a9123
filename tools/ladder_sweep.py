"""Time the derivative ladders of the Bernstein check targets.

    PYTHONPATH=src python3 tools/ladder_sweep.py [--repeats 7]

For each of the 17 targets of `idtests.bernstein_targets()` evaluates
`neg_logderiv_ladder(spec).derivatives(grid, 8)` on the default
Bernstein grid (9 x in 0.05..50) and on the one point x = 1, with the
Bessel zeros and the Mittag-Leffler moment tables already built by one
untimed sweep of each.  Prints the median of the timed sweeps in ms on
each grid, each target's two medians (the one-point one is the fixed
cost of a call), and five deterministic counts of its work on the
nine points: `exact`, the (root x point x
order) terms of its reciprocal recurrences (rational, Stieltjes and
Mittag-Leffler head terms); `powers`, the elements of its array powers
(a PowerLadder's (x + shift)^(e - n) and a Cauchy circle's r^n);
`moments`, the (power x zero) terms of the moment-table builds of the
untimed sweep (targets sharing a Mittag-Leffler factor build its table
once, and the timed sweeps build none); `series`, the (coefficient x
point x order) steps of their Horner sums; and `circle`, the points
where a Cauchy ladder evaluates its function, x.size (n_points/2 + 1)
on the upper half circle.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from besselid import smoothfn
from besselid.idtests import _DEFAULT_GRID, bernstein_targets, \
    neg_logderiv_ladder

GRID = np.asarray(_DEFAULT_GRID)
ONE = np.array([1.0])
ORDER = 8


FIELDS = ("exact", "powers", "moments", "series", "circle")


def work_counts(ladder, x, max_order: int) -> dict:
    """The five counts of the ladder.derivatives(x, max_order) call about
    to be made; `moments` counts only the heads its tables still lack."""
    if isinstance(ladder, smoothfn.SumLadder):
        parts = [work_counts(p, x, max_order) for p in ladder.parts]
        return {f: sum(c[f] for c in parts) for f in FIELDS}
    out = dict.fromkeys(FIELDS, 0)
    rungs = (max_order + 1) * x.size
    if isinstance(ladder, smoothfn.RationalLadder):
        out["exact"] = len(ladder.terms) * rungs
    elif isinstance(ladder, smoothfn.StieltjesLadder):
        out["exact"] = len(ladder.nodes) * rungs
    elif isinstance(ladder, smoothfn.PowerLadder):
        out["powers"] = rungs
    elif isinstance(ladder, smoothfn.CauchyLadder):
        out["powers"] = rungs
        out["circle"] = x.size * (smoothfn.CauchyLadder.n_points // 2 + 1)
    elif isinstance(ladder, smoothfn.MLSumLadder):
        nz = smoothfn.MLSumLadder.n_zeros
        plan = ladder._plan()
        roots, table = plan["roots"], plan["moments"]
        heads, cuts = (a[0] for a in smoothfn._ml_split([roots], x, max_order))
        n_p = max_order + 1 + int(cuts.max())
        build = [k for k in np.unique(heads).tolist()
                 if len(table.get(k, ())) < n_p]
        out["exact"] = int(heads.sum()) * (max_order + 1)
        out["moments"] = n_p * (nz - build[0]) if build else 0
        out["series"] = (max_order + 1) * sum(
            int((heads == k).sum()) * (int(cuts[heads == k].max()) + 1)
            for k in np.unique(heads).tolist())
    return out


def sweep(ladders, grid) -> dict:
    """Seconds per target of one sweep over the grid."""
    out = {}
    for label, lad in ladders:
        t0 = time.perf_counter()
        lad.derivatives(grid, ORDER)
        out[label] = time.perf_counter() - t0
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=7)
    args = p.parse_args()
    ladders = [(label, neg_logderiv_ladder(spec))
               for label, spec in bernstein_targets()]
    counts = {}
    for label, lad in ladders:  # the untimed sweeps
        counts[label] = work_counts(lad, GRID, ORDER)
        lad.derivatives(GRID, ORDER)
    sweep(ladders, ONE)
    runs = {g: [sweep(ladders, grid) for _ in range(args.repeats)]
            for g, grid in (("nine", GRID), ("one", ONE))}
    total = {g: statistics.median(sum(r.values()) for r in rs)
             for g, rs in runs.items()}
    totals = {f: sum(c[f] for c in counts.values()) for f in FIELDS}
    print(f"median {total['nine'] * 1e3:.2f} ms over {args.repeats} sweeps "
          f"(one point: {total['one'] * 1e3:.2f} ms); "
          + ", ".join(f"{f} {n:,}" for f, n in totals.items()))
    for label, _ in ladders:
        ms = [statistics.median(r[label] for r in runs[g]) * 1e3
              for g in ("nine", "one")]
        print(f"  {label:14s} {ms[0]:7.3f} ms {ms[1]:7.3f} ms 1pt  "
              + "  ".join(f"{f} {counts[label][f]:7,}" for f in FIELDS))


if __name__ == "__main__":
    main()
