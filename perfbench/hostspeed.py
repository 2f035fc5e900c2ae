"""Host-speed probes, for times that do not follow a shared host's drift.

On a shared host the same code runs up to twice as slowly for seconds or
minutes at a time, when other work takes the cores.  A probe times one fixed
piece of pure-Python work that uses nothing from the library under test (see
probe_work), so a change to the library cannot change the probe.  The
harness probes between operations, every PROBE_EVERY seconds, and divides
each operation's time by the host's slowness near it: the median of the
probes within PROBE_WINDOW seconds of the operation, over REFERENCE_S.
The result is the operation's time on the host at its reference speed.
"""
from __future__ import annotations

import bisect
import random
import statistics
import time

from generators import pattern_square, random_valid_rectangle, sudoku_violations

PROBE_EVERY = 0.1  # seconds between probes, when operations are shorter
PROBE_WINDOW = 1.0  # seconds on either side of an operation whose probes count
MIN_NEAR = 5  # probes an operation's slowness is taken from, at least
# The probe's time on the reference host (2-CPU Xeon, CPython 3.11.7) when it
# was at its fastest; a normalised time is a time on that host at that speed.
REFERENCE_S = 0.005


def probe_work() -> int:
    """The fixed work a probe times: the same operations on every call.

    Integer arithmetic, a sort of floats, and the benchmark's own square
    generator and checks, so that the probe slows down under contention about
    as much as the library's mix of arithmetic, container and call overhead.
    """
    x = 1
    for _ in range(10000):
        x = (x * 1103515245 + 12345) % 2147483648
    rng = random.Random(1)
    values = [rng.random() for _ in range(8000)]
    values.sort()
    square = pattern_square(6, 6, rng)
    return x + len(values) + sudoku_violations(square, 6, 6) + len(
        random_valid_rectangle(3, 3, 5, 9, rng))


class HostSpeed:
    """Probe readings of one run, in time order."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoints of the probes
        self.took: list[float] = []  # their durations
        self.last = float("-inf")

    def probe(self) -> None:
        began = time.perf_counter()
        probe_work()
        ended = time.perf_counter()
        self.at.append((began + ended) / 2)
        self.took.append(ended - began)
        self.last = ended

    def probe_if_due(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY:
            self.probe()

    def slowness(self, start: float, end: float) -> float:
        """The host's slowness around [start, end]: 1.0 at reference speed.

        The median of the probes within PROBE_WINDOW of the interval, or of
        the MIN_NEAR probes nearest to it when fewer lie there, over
        REFERENCE_S.
        """
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW)
        while hi - lo < MIN_NEAR and (lo > 0 or hi < len(self.at)):
            before = start - self.at[lo - 1] if lo > 0 else float("inf")
            after = self.at[hi] - end if hi < len(self.at) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.took[lo:hi]) / REFERENCE_S

    def normalised(self, start: float, end: float) -> float:
        """end - start at the reference speed."""
        return (end - start) / self.slowness(start, end)
