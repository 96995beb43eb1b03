"""Machine-speed calibration.

On a shared virtual machine (a 2-vCPU Intel Xeon guest at 2.1 GHz when
this was written) the same stream runs 20-40% slower or faster from one
half minute to the next, far more than the input mix varies between
seeds.  So every run also times a fixed reference kernel (pure-Python
rational, dict and bit arithmetic, the mix the package itself runs) at
the start, every CALIBRATE_EVERY_S of query time, and at the end, off the
clock.  Each time is then reported at the reference speed: scaled by
NOMINAL_S over the kernel time measured around it.  On a machine where
the kernel takes NOMINAL_S the scaled and the raw figures agree; the raw
ones are printed alongside.

The kernel depends on nothing the package does, so a change to the package
moves the scaled figures in the same proportion as the raw ones.  It runs
with the garbage collector paused so that the size of the package's memos
cannot slow it down.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0017  # kernel time that defines the reference speed
CALIBRATE_EVERY_S = 0.5
REPEATS = 5


def _kernel() -> None:
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        total += Fraction(i & 7, i)
        table[i * 2654435761 & 0xFFFF] = total
    for i in range(1, 1500):
        while i:
            i &= i - 1


def sample() -> float:
    """Median time of a few kernel runs, garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scaled_latencies(latencies: list[float], samples: list[tuple[int, float]]) -> list[float]:
    """Each latency at the reference speed.

    samples holds (queries completed, kernel time) pairs in stream order,
    the first taken before any query and the last after all of them; a
    query is scaled by the mean of the samples just before and after it.
    """
    scaled = []
    k = 0
    for i, latency in enumerate(latencies):
        while samples[k + 1][0] <= i:
            k += 1
        scaled.append(latency * NOMINAL_S * 2 / (samples[k][1] + samples[k + 1][1]))
    return scaled


def run_factor(samples: list[tuple[int, float]]) -> float:
    """Scale for figures aggregated over a whole run."""
    return NOMINAL_S / statistics.mean(s[1] for s in samples)
