"""The speed of the core right now, from a fixed pure-Python kernel.

The cores of a shared machine change speed under the benchmark: in
three-second windows a fixed Python loop ran at one speed for a while and
then 1.5 to 1.8 times slower, for seconds up to a minute. A whole run can
fall into a slow stretch, so neither longer runs nor best-of-n remove it.

The benchmark therefore times this kernel between operations and scales
each latency by REFERENCE_S over the kernel's time around it. The kernel
does the kinds of work latmink does (exact Fraction elimination, sets of
integer tuples) but runs none of latmink's code, so a change to latmink
leaves it alone. Scaled latencies read as seconds on a core on which the
kernel takes REFERENCE_S; over a run they stayed within about 3% while the
raw ones moved by 30%.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Best-of-three kernel time on an uncontended core of the 2-core x86-64
# container the benchmark was written on (Python 3.11).
REFERENCE_S = 0.0006


def kernel():
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(6)] for i in range(5)]
    for k in range(5):
        pivot = rows[k][k]
        rows[k] = [x / pivot for x in rows[k]]
        for i in range(5):
            if i != k:
                f = rows[i][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    points = sorted({(i % 9, i % 11) for i in range(300)})[:20]
    return rows, sorted({(a[0] + b[0], a[1] + b[1]) for a in points for b in points})


def measure(repeats: int = 3) -> float:
    """Best of `repeats` kernel times, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel times into reference seconds."""
    return REFERENCE_S / (before * after) ** 0.5
