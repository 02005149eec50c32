"""A fixed stdlib-only kernel that measures how fast the machine is right now.

On a small shared host the same work can take 1.5-2x longer for minutes at a
time, while neighbours load the cores; a run of the benchmark cannot outlast
such a phase, nor can a call of ten seconds or more.  The benchmark
therefore times this kernel before and after every call and, through
`Sampler`, about once a second during it, and reports times scaled to the
speed at which the kernel takes REFERENCE_S:

    scaled = measured * REFERENCE_S / median kernel time around and during the call

The sampler's own time is taken out of the call's time.  It holds the garbage
collector off while it runs, so that it never collects the program's heap;
what is left of its allocations brings the program's next young-generation
collection forward, by about two collections a second, against about 46 a
second of the program's own when it solves (9,2,8)s12 of the `cuts` workload.

The kernel does the three kinds of work the toolkit does (exact rational
elimination, integer Dijkstra on a heap, LP-style text formatting) and never
calls the toolkit, so a change to the toolkit cannot change it.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's time on the machine the benchmark was written on
# (2-vCPU Intel Xeon VM at 2.0 GHz, CPython 3.11).  Only a scale factor.
REFERENCE_S = 0.040
SAMPLE_PERIOD_S = 1.0


def calibrate() -> float:
    """The kernel's median wall time in seconds over three runs."""
    return statistics.median(_kernel() for _ in range(3))


def _kernel() -> float:
    t0 = perf_counter()
    rng = random.Random(7)
    n = 18
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    m = 300
    adj = [[(rng.randrange(m), rng.randint(1, 9)) for _ in range(4)] for _ in range(m)]
    for src in range(40):
        dist = [None] * m
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d != dist[u]:
                continue
            for v, w in adj[u]:
                if dist[v] is None or d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    "".join(f"x_{i}_{j} + {i * j}\n" for i in range(100) for j in range(60))
    return perf_counter() - t0


class Sampler:
    """Runs the kernel from a timer signal every SAMPLE_PERIOD_S while active.

    `readings` are the kernel times; `stolen` is the time the handler took,
    which the caller subtracts from the interrupted call's time.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.stolen = 0.0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.readings.append(_kernel())
        finally:
            if enabled:
                gc.enable()
        self.stolen += perf_counter() - t0
