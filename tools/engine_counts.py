"""Count the DE quadrature engine's work and the Mittag-Leffler passes
in one benchmark child or in `besselid verify all --stable`.

    PYTHONPATH=src python3 tools/engine_counts.py zsweep|idchecks \
        [--seed 90417] [--part 0]
    PYTHONPATH=src python3 tools/engine_counts.py report

Wraps `quad.tanhsinh.integrate_pieces`, under every module name the
package calls it by, and the weight of each of its calls, and prints
JSON with eight counts: engine calls, weight calls, points evaluated
(points times rows of every weight call) and points consumed (the sum
of `n_evals` over the rows the engine returns).  More points evaluated
than consumed means some levels were evaluated that no row reached.
The fifth, points dropped, counts the weight values that the callers
of `quad.integrate_oscillatory` computed for rows the engine had
already stopped: that engine evaluates its caller's weight on every
row and keeps the live ones.  The last two count the Mittag-Leffler
passes (`smoothfn._ml_tables` calls on at least one ladder) and the
`MLSumLadder`s they evaluate: a `SumLadder` takes all its
Mittag-Leffler parts in one pass.  The eighth, boundary points, counts
the points handed to `specfun.tricomi_boundary_mod2`, the Tricomi
kernels' modulus on the cut.

For zsweep and idchecks the inputs are those of one benchmark child,
from `perfbench/workloads.make_inputs` (read, not changed): its warm-up
round runs uncounted, then the measured rounds of part K are counted.
`report` counts the whole command in this interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COUNTS = ("engine_calls", "weight_calls", "points_evaluated",
          "points_consumed", "points_dropped", "ml_passes", "ml_ladders",
          "boundary_points")


def install(counts: dict) -> None:
    """Replace integrate_pieces and integrate_oscillatory by counting
    wrappers in every module that calls them, the Mittag-Leffler pass
    in smoothfn and the Tricomi boundary modulus in stieltjes."""
    from besselid import distributions, quad, smoothfn, specfun, stieltjes
    from besselid.quad import oscillatory, tanhsinh

    engine = tanhsinh.integrate_pieces
    contour = oscillatory.integrate_oscillatory
    tables = smoothfn._ml_tables
    boundary = stieltjes.tricomi_boundary_mod2

    def counted(pieces, weight, *args, **kwargs):
        def counted_weight(t, rows):
            counts["weight_calls"] += 1
            counts["points_evaluated"] += t.size * len(rows)
            return weight(t, rows)

        out = engine(pieces, counted_weight, *args, **kwargs)
        counts["engine_calls"] += 1
        counts["points_consumed"] += out.n_evals
        return out

    def counted_contour(weight, *args, **kwargs):
        computed = 0

        def counted_weight(t):
            nonlocal computed
            values = weight(t)
            computed += values.size
            return values

        kept = counts["points_evaluated"]
        out = contour(counted_weight, *args, **kwargs)
        counts["points_dropped"] += computed - (counts["points_evaluated"]
                                                - kept)
        return out

    def counted_tables(ladders, *args):
        if ladders:
            counts["ml_passes"] += 1
            counts["ml_ladders"] += len(ladders)
        return tables(ladders, *args)

    def counted_boundary(a, c, t):
        counts["boundary_points"] += np.size(t)
        return boundary(a, c, t)

    for module in (tanhsinh, oscillatory, quad, distributions, specfun):
        module.integrate_pieces = counted
    smoothfn._ml_tables = counted_tables
    stieltjes.tricomi_boundary_mod2 = counted_boundary
    for module in (oscillatory, quad, stieltjes):
        module.integrate_oscillatory = counted_contour


def child(workload: str, seed: int, part: int, counts: dict) -> None:
    """One benchmark child's fixed work, counting its measured rounds."""
    sys.path.insert(0, str(PERFBENCH))
    from workloads import OPS, make_inputs

    # part K's rounds do not depend on how many parts follow it
    inputs = make_inputs(workload, seed, part + 1)
    for _, op in OPS[workload](inputs["warmup"]):
        op()
    install(counts)
    for rnd in inputs["children"][part]:
        for _, op in OPS[workload](rnd):
            op()


def report(counts: dict) -> None:
    from besselid import cli

    install(counts)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "all", "--stable"], standalone_mode=False)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=["zsweep", "idchecks", "report"])
    p.add_argument("--seed", type=int, default=90417)
    p.add_argument("--part", type=int, default=0)
    args = p.parse_args(argv)
    counts = dict.fromkeys(COUNTS, 0)
    if args.workload == "report":
        report(counts)
    else:
        child(args.workload, args.seed, args.part, counts)
    print(json.dumps(counts))


if __name__ == "__main__":
    main()
