"""Machine-speed probe: the scale that turns measured times into times
at a fixed reference speed.

On a shared host the speed of a core drifts by about ±20% from second
to second, and by up to 60% over spells that last whole runs; the load
average and steal time do not show it.  So every process of a run
times a small fixed probe task, which mixes interpreted Python, numpy
and scipy.special work as besselid does with the page faults of fresh
memory that a new interpreter pays, every PROBE_EVERY_S of its
work, and a time measured next to those probes is multiplied by
(REF_S / median of the nearby probe times) ** beta.  The result reads
in seconds on a machine where the probe takes REF_S.  A change to
besselid moves the scaled time as it moves the raw one; a change of the
host's speed moves the probe as well and cancels.  Raw times are kept
beside the scaled ones in results.json.

The exponent is how strongly a kind of work follows the probe.  Over
ten runs of each workload, during which the median probe of a child
went from 1.6 to 2.9 ms, the log of a child's summed op time rose 1.16
to 1.25 times as fast as the log of its probe (correlation 0.94-0.96),
its launch-to-exit time 1.09 to 1.18 times, and a fresh
`import besselid.cli` 0.82 times (correlation 0.86).  Work in a warm
interpreter slows more than the small probe does, importing less.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np
import scipy.special

REF_S = 1.8e-3          # reference probe time (about its median on a 2-core Xeon VM)
PROBE_EVERY_S = 0.025   # work between two probes of a child
WINDOW = 5              # probes on each side of an op that set its scale
BRACKET = 9             # probes before and after a set-up child
WORK_BETA = 1.2         # exponent for op and child times
SETUP_BETA = 0.8        # exponent for a fresh `import besselid.cli`

_X = np.linspace(0.1, 5.0, 1000)


def probe() -> float:
    """Seconds taken by the fixed probe task."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i
    for _ in range(5):
        np.exp(np.sin(_X)).sum()
    scipy.special.kv(1.3, _X).sum()
    m = mmap.mmap(-1, 1 << 20)      # 256 fresh pages, one write each
    m[::4096] = b"x" * 256
    m.close()
    return time.perf_counter() - t0


class Prober:
    """Probes at most every PROBE_EVERY_S; `tick` is called before each
    op and returns the index of the latest probe."""

    def __init__(self):
        self.times: list[float] = []
        self._next = 0.0

    def tick(self) -> int:
        if time.perf_counter() >= self._next:
            self.times.append(probe())
            self._next = time.perf_counter() + PROBE_EVERY_S
        return len(self.times) - 1


def scale(times, beta: float = WORK_BETA) -> float:
    return (REF_S / statistics.median(times)) ** beta


def scaled_ops(child: dict) -> list:
    """Latency of each op of a child (ops rows [round, label, seconds,
    outcome, probe index]), scaled by the probes around it."""
    probes = child["probes"]
    return [op[2] * scale(probes[max(0, op[4] - WINDOW):op[4] + WINDOW + 1])
            for op in child["ops"]]
