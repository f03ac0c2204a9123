"""Time and check the two regimes of the real Tricomi psi on a seeded draw.

    PYTHONPATH=src python3 tools/psi_sweep.py [--repeats 7]

Draws DRAWS parameter pairs a in (0.01, 3], c in (-3, 3) (c kept 1e-3
from an integer) and, for each pair and regime, POINTS points inside
that regime's region, from SEED:

    real-rule     x in [5, 1e4]: the Gauss-Laguerre rule
    real-scalar   x in [0.01, 5): scipy's hyperu per point

Each batch is one call of `specfun.tricomi_psi`.  One untimed pass
fills the Gauss-Laguerre rule cache; the median over the timed passes
is printed in us per point.  Where mpmath is installed, the first 4
points of every batch are also compared with mpmath's hyperu at 30
digits, and each regime's worst relative error is printed.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from besselid.specfun import tricomi_psi

# log10 of each regime's range of x
REGIMES = {"real-rule": (np.log10(5.0), 4.0),
           "real-scalar": (-2.0, np.log10(5.0))}
SEED = 7
DRAWS = 20
POINTS = 64
N_CHECKED = 4


def _draw() -> dict:
    rng = np.random.default_rng(SEED)
    cases = {name: [] for name in REGIMES}
    for _ in range(DRAWS):
        a = rng.uniform(0.01, 3.0)
        c = rng.uniform(-3.0, 3.0)
        while abs(c - round(c)) < 1e-3:
            c = rng.uniform(-3.0, 3.0)
        for name, (lo, hi) in REGIMES.items():
            cases[name].append((a, c, 10.0 ** rng.uniform(lo, hi, POINTS)))
    return cases


def _time(batches: list) -> float:
    t0 = time.perf_counter()
    for a, c, x in batches:
        tricomi_psi(a, c, x)
    return time.perf_counter() - t0


def _worst_error(batches: list) -> float:
    import mpmath as mp

    worst = 0.0
    with mp.workdps(30):
        for a, c, x in batches:
            got = tricomi_psi(a, c, x[:N_CHECKED])
            for g, w in zip(got, x[:N_CHECKED]):
                want = float(mp.hyperu(a, c, w))
                worst = max(worst, abs(g - want) / abs(want))
    return worst


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=7)
    args = p.parse_args()
    cases = _draw()
    try:
        import mpmath  # noqa: F401
        have_mp = True
    except ImportError:
        have_mp = False
    n = DRAWS * POINTS
    print(f"seed {SEED}: {DRAWS} (a, c) draws x {POINTS} points per "
          f"regime, median of {args.repeats} passes")
    for name in REGIMES:
        _time(cases[name])
        us = statistics.median(_time(cases[name])
                               for _ in range(args.repeats)) / n * 1e6
        line = f"  {name:12s} {us:7.2f} us/point"
        if have_mp:
            line += f"   worst rel err {_worst_error(cases[name]):.1e}"
        print(line)


if __name__ == "__main__":
    main()
