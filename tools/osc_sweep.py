"""Time the z sweep of the nine oscillatory Stieltjes identities.

    PYTHONPATH=src python3 tools/osc_sweep.py [--repeats 7]

For each of the nine entries whose kernel oscillates in sqrt(t), makes a
fresh record at its default parameters and evaluates `stieltjes_rhs` at
the 25 z of logspace(-6, 6, 25) in one array call, at the default
tolerance.  One untimed sweep warms the imports and caches; the median
of the timed sweeps is printed in ms, with each entry's median.  One
more sweep, untimed, counts its deterministic work: the points passed
to scipy's scaled Hankel functions and the total `n_evals` of the
results.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np
import scipy.special as sp

from besselid.stieltjes import make_identity

ENTRIES = ("I_EXP", "IK_PROD", "IK_EQUAL", "IK_EXP", "KK_PROD", "II_EXP",
           "KK_RECIP", "IK_QUOT", "K_RECIP")
ZS = np.logspace(-6.0, 6.0, 25)


def sweep() -> dict:
    """Seconds per entry of one sweep on fresh records."""
    out = {}
    for name in ENTRIES:
        t0 = time.perf_counter()
        make_identity(name).stieltjes_rhs(ZS)
        out[name] = time.perf_counter() - t0
    return out


def count() -> tuple:
    """Hankel-factor points passed to scipy and total n_evals of one
    sweep on fresh records."""
    points = 0

    def counted(fn):
        def hankel(nu, x):
            nonlocal points
            points += np.size(x)
            return fn(nu, x)
        return hankel

    saved = {fn: getattr(sp, fn) for fn in ("hankel1e", "hankel2e")}
    for fn, f in saved.items():
        setattr(sp, fn, counted(f))
    try:
        n_evals = 0
        for name in ENTRIES:
            n_evals += make_identity(name).stieltjes_rhs(ZS).n_evals
    finally:
        for fn, f in saved.items():
            setattr(sp, fn, f)
    return points, n_evals


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=7)
    args = p.parse_args()
    sweep()
    runs = [sweep() for _ in range(args.repeats)]
    total = statistics.median(sum(r.values()) for r in runs)
    points, n_evals = count()
    print(f"median {total * 1e3:.1f} ms over {args.repeats} sweeps; "
          f"per sweep {points} Hankel points to scipy, {n_evals} n_evals")
    for name in ENTRIES:
        ms = statistics.median(r[name] for r in runs) * 1e3
        print(f"  {name:9s} {ms:6.1f} ms")


if __name__ == "__main__":
    main()
