"""Host-speed normalisation with a fixed pure-Python reference loop.

The speed of a shared host drifts by up to 1.8x within seconds (other
tenants, frequency changes), and CPU time drifts with wall time, so raw
seconds from two runs are not comparable.  :class:`HostClock` times a
fixed reference loop in the measuring process, every
:data:`SAMPLE_PERIOD_S` on a ``SIGALRM`` timer or on demand, using thread
CPU time so that waiting for a CPU does not count.  An interval measured
while the loop ran at ``k`` times its nominal cost is reported as
``raw / k``: seconds on a host running at nominal speed.

The sampler runs in the measuring process only: interval timers are not
inherited by forked pool workers.  Its own cost (about 3% of the process's
time while it runs) is the same on every commit.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

#: Seconds between two timer-driven samples.
SAMPLE_PERIOD_S = 0.1

#: Shortest window whose samples are averaged to normalise one interval.
MIN_WINDOW_S = 1.0

#: Thread CPU seconds the reference loop takes on a host at nominal speed.
#: A fixed constant: only its being the same on every commit matters.
NOMINAL_S = 0.002

# The loop's working set: larger than a core's private caches, like the
# simulator's event heap and packet records, so that it slows down under
# the same cache and memory contention as the workload does.
_TABLE = [(index, float(index)) for index in range(50_000)]
_PICKS = [(index * 7919) % len(_TABLE) for index in range(1_500)]


class _Event:
    __slots__ = ("time", "seq", "data")

    def __init__(self, time: int, seq: int, data: tuple) -> None:
        self.time = time
        self.seq = seq
        self.data = data

    def fire(self, table: dict) -> int:
        table[self.seq & 1023] = self.data
        return self.time


def reference_loop() -> int:
    """Fixed work in the simulator's style: allocation, a heap, calls, dicts."""
    heap: list = []
    table: dict = {}
    total = 0
    for seq, pick in enumerate(_PICKS):
        event = _Event((pick * 31) % 997, seq, _TABLE[pick])
        heapq.heappush(heap, (event.time, event.seq, event))
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].fire(table)
    return total


class HostClock:
    """A time series of reference-loop costs and the factor they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self._previous_handler = None

    def sample(self) -> float:
        """Time one reference loop now, record it, and return its slowdown."""
        started = time.thread_time()
        reference_loop()
        cost = time.thread_time() - started
        self.times.append(time.perf_counter())
        self.costs.append(cost)
        return cost / NOMINAL_S

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def slowdown(self, start: float, end: float) -> float:
        """Mean reference cost around ``[start, end]`` relative to nominal.

        Averages the samples inside the interval widened to at least
        :data:`MIN_WINDOW_S`, or the two nearest its midpoint when that
        window holds fewer than two.
        """
        pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        low = bisect.bisect_left(self.times, start - pad)
        high = bisect.bisect_right(self.times, end + pad)
        if high - low < 2:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            low, high = max(0, middle - 1), min(len(self.times), middle + 1)
        if high <= low:
            raise RuntimeError("no host-speed samples were taken")
        return statistics.fmean(self.costs[low:high]) / NOMINAL_S

    def normalise(self, seconds: float, end: float) -> float:
        """``seconds`` that ended at ``end``, scaled to nominal host speed."""
        return seconds / self.slowdown(end - seconds, end)
