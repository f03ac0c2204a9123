"""Time and check each regime of the Tricomi psi on a seeded draw.

    PYTHONPATH=src python3 tools/psi_sweep.py [--repeats 7]

Draws DRAWS parameter pairs a in (0.01, 3], c in (-3, 3) (c kept 1e-3
from an integer, which the Kummer connection needs) and, for each pair
and regime, POINTS points inside that regime's region, from SEED:

    laguerre-30   complex, Re z >= 0, Re sqrt(z) >= 2.8, |z| <= 1e4
    laguerre-80   complex, Re z >= 0, |z| >= 5, Re sqrt(z) < 2.8
    asymptotic    complex, Re z < 0, 25 < |z| <= 1e4
    kummer        complex, |z| < 5, or Re z < 0 and |z| <= 25
    real-rule     real x in [5, 1e4]
    real-scalar   real x in [0.01, 5)

Each batch is one call of the complex psi (`specfun._tricomi_complex`)
or of `specfun.tricomi_psi`.  One untimed pass fills the Gauss-Laguerre
rule cache; the median over the timed passes is printed in us per
point.  Where mpmath is installed, the first 4 points of every batch
are also compared with mpmath's hyperu at 30 digits, and each regime's
worst relative error is printed.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from besselid.specfun import _tricomi_complex, tricomi_psi

REGIMES = ("laguerre-30", "laguerre-80", "asymptotic", "kummer",
           "real-rule", "real-scalar")
SEED = 7
DRAWS = 20
POINTS = 64
N_CHECKED = 4


def _in_region(name: str, z) -> bool:
    r, q = abs(z), np.sqrt(z).real
    return {
        "laguerre-30": z.real >= 0.0 and q >= 2.8,
        "laguerre-80": z.real >= 0.0 and r >= 5.0 and q < 2.8,
        "asymptotic": z.real < 0.0 and r > 25.0,
        "kummer": r < 5.0 or (z.real < 0.0 and r <= 25.0),
    }[name]


def _points(rng, name: str, n: int) -> np.ndarray:
    """n points of one regime, drawn by rejection from log-uniform |z|
    and uniform arg z over a range that covers the region."""
    if name == "real-rule":
        return 10.0 ** rng.uniform(np.log10(5.0), 4.0, n)
    if name == "real-scalar":
        return 10.0 ** rng.uniform(-2.0, np.log10(5.0), n)
    lo, hi, half = {"laguerre-30": (7.84, 1e4, True),
                    "laguerre-80": (5.0, 15.7, True),
                    "asymptotic": (25.0, 1e4, False),
                    "kummer": (1e-2, 25.0, False)}[name]
    out = []
    while len(out) < n:
        r = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi))
        arg = rng.uniform(-0.5, 0.5) * np.pi if half \
            else rng.uniform(-0.999, 0.999) * np.pi
        z = r * np.exp(1j * arg)
        if _in_region(name, z):
            out.append(z)
    return np.array(out)


def _draw() -> dict:
    rng = np.random.default_rng(SEED)
    cases = {name: [] for name in REGIMES}
    for _ in range(DRAWS):
        a = rng.uniform(0.01, 3.0)
        c = rng.uniform(-3.0, 3.0)
        while abs(c - round(c)) < 1e-3:
            c = rng.uniform(-3.0, 3.0)
        for name in REGIMES:
            cases[name].append((a, c, _points(rng, name, POINTS)))
    return cases


def _psi(name: str, a: float, c: float, z):
    return tricomi_psi(a, c, z) if name.startswith("real") \
        else _tricomi_complex(a, c, z)


def _time(name: str, batches: list) -> float:
    t0 = time.perf_counter()
    for a, c, z in batches:
        _psi(name, a, c, z)
    return time.perf_counter() - t0


def _worst_error(name: str, batches: list) -> float:
    import mpmath as mp

    worst = 0.0
    with mp.workdps(30):
        for a, c, z in batches:
            got = _psi(name, a, c, z[:N_CHECKED])
            for g, w in zip(got, z[:N_CHECKED]):
                want = complex(mp.hyperu(a, c, w))
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
        _time(name, cases[name])
        us = statistics.median(_time(name, cases[name])
                               for _ in range(args.repeats)) / n * 1e6
        line = f"  {name:12s} {us:7.2f} us/point"
        if have_mp:
            line += f"   worst rel err {_worst_error(name, cases[name]):.1e}"
        print(line)


if __name__ == "__main__":
    main()
