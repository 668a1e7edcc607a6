"""Interpreter speed, measured next to the timed work.

On a shared machine the same code can run at two thirds of its speed
for minutes at a time.  On a 2-vCPU VM the pointwise p50 latency read
0.054 ms in one spell and 0.09 ms in another, and the sweep's p99 read
21 ms and 40 ms.  So the benchmark times a fixed pure-Python loop of
the library's kind of work (complex products and quotients of a series
term recursion) between operations.  It then scales each batch's
timings by the reference time over the median loop time.  The loop
does not touch the package, so a change to the package cannot move it.
Over six consecutive pointwise runs, the slowest raw lower-quartile
batch time was 1.77 times the fastest; scaled, 1.16 times.
"""

import time

# the loop's median time between operations on an undisturbed 2-vCPU
# Intel Xeon VM (Python 3.11)
REFERENCE_S = 0.00045
_TERMS = 1000
# timed work between two speed samples, and the fewest samples a batch
# needs to be scaled
EVERY_S = 0.02
MIN_SAMPLES = 5


def _series_loop():
    q, qk = 0.5, 1.0
    a, b, c, z = 0.3 + 0j, 0.4 + 0j, 0.7 + 0j, 0.2 + 0.1j
    term = total = 1 + 0j
    for _ in range(_TERMS):
        term *= (1 - a * qk) * (1 - b * qk) / ((1 - q * qk) * (1 - c * qk)) * z
        total += term
        qk = qk * q if qk > 1e-200 else 1.0
    return total


def loop_seconds() -> float:
    """One timed run of the loop."""
    t0 = time.perf_counter()
    _series_loop()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Multiply a time measured while ``samples`` were taken by this to
    express it at reference speed (median sample against the reference)."""
    ordered = sorted(samples)
    return REFERENCE_S / ordered[len(ordered) // 2]


def speed_factor(count: int = 40) -> float:
    """Speed factor from ``count`` samples taken now."""
    return factor([loop_seconds() for _ in range(count)])
