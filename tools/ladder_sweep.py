"""Time the derivative ladders of the Bernstein check targets.

    PYTHONPATH=src python3 tools/ladder_sweep.py [--repeats 7]

For each of the 17 targets of `idtests.bernstein_targets()` evaluates
`neg_logderiv_ladder(spec).derivatives(grid, 8)` on the default
Bernstein grid (9 x in 0.05..50), with the Bessel zeros and the
Mittag-Leffler moment tables already built by one untimed sweep.
Prints the median of the timed sweeps in ms, each target's median, and
five deterministic counts of its work: `exact`, the (root x point x
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


def sweep(ladders) -> dict:
    """Seconds per target of one sweep."""
    out = {}
    for label, lad in ladders:
        t0 = time.perf_counter()
        lad.derivatives(GRID, ORDER)
        out[label] = time.perf_counter() - t0
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=7)
    args = p.parse_args()
    ladders = [(label, neg_logderiv_ladder(spec))
               for label, spec in bernstein_targets()]
    counts = {}
    for label, lad in ladders:  # the untimed sweep
        counts[label] = work_counts(lad, GRID, ORDER)
        lad.derivatives(GRID, ORDER)
    runs = [sweep(ladders) for _ in range(args.repeats)]
    total = statistics.median(sum(r.values()) for r in runs)
    totals = {f: sum(c[f] for c in counts.values()) for f in FIELDS}
    print(f"median {total * 1e3:.2f} ms over {args.repeats} sweeps; "
          + ", ".join(f"{f} {n:,}" for f, n in totals.items()))
    for label, _ in ladders:
        ms = statistics.median(r[label] for r in runs) * 1e3
        print(f"  {label:14s} {ms:7.3f} ms  " + "  ".join(
            f"{f} {counts[label][f]:7,}" for f in FIELDS))


if __name__ == "__main__":
    main()
