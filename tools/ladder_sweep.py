"""Time the derivative ladders of the Bernstein check targets.

    PYTHONPATH=src python3 tools/ladder_sweep.py [--repeats 7]

For each of the 17 targets of `idtests.bernstein_targets()` evaluates
`neg_logderiv_ladder(spec).derivatives(grid, 8)` on the default
Bernstein grid (9 x in 0.05..50), with the Bessel zeros already
computed by one untimed sweep.  Prints the median of the timed sweeps
in ms, each target's median, and a deterministic count of the
(root x point x order) terms of its rational parts: those summed
exactly, and those that enter a Mittag-Leffler ladder through its
moment series (0 on a checkout without the series).
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from besselid import smoothfn
from besselid.idtests import _DEFAULT_GRID, bernstein_targets, \
    neg_logderiv_ladder
from besselid.specfun import bessel_zeros

GRID = np.asarray(_DEFAULT_GRID)
ORDER = 8


def term_counts(ladder, x, max_order: int) -> tuple:
    """(exact, series) counts of root x point x order terms."""
    if isinstance(ladder, smoothfn.SumLadder):
        counts = [term_counts(p, x, max_order) for p in ladder.parts]
        return tuple(sum(c) for c in zip(*counts)) if counts else (0, 0)
    rungs = (max_order + 1) * x.size
    if isinstance(ladder, smoothfn.RationalLadder):
        return len(ladder.terms) * rungs, 0
    if isinstance(ladder, smoothfn.StieltjesLadder):
        return len(ladder.nodes) * rungs, 0
    if isinstance(ladder, smoothfn.MLSumLadder):
        nz = ladder.n_zeros
        head = getattr(smoothfn, "_ML_HEAD", None)
        if head is None:
            return nz * rungs, 0
        roots = (bessel_zeros(ladder.mu, nz) / ladder.a) ** 2
        k = np.maximum(head, np.searchsorted(roots, smoothfn._ML_GAP * x))
        exact = int(np.minimum(k, nz).sum()) * (max_order + 1)
        return exact, nz * rungs - exact
    return 0, 0


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
    sweep(ladders)
    runs = [sweep(ladders) for _ in range(args.repeats)]
    total = statistics.median(sum(r.values()) for r in runs)
    counts = {label: term_counts(lad, GRID, ORDER) for label, lad in ladders}
    exact = sum(c[0] for c in counts.values())
    series = sum(c[1] for c in counts.values())
    print(f"median {total * 1e3:.2f} ms over {args.repeats} sweeps; "
          f"terms exact {exact:,}, by series {series:,}")
    for label, _ in ladders:
        ms = statistics.median(r[label] for r in runs) * 1e3
        e, s = counts[label]
        print(f"  {label:14s} {ms:7.3f} ms  exact {e:9,}  series {s:9,}")


if __name__ == "__main__":
    main()
