"""The discrete-event simulator core.

The :class:`Simulator` owns a time-ordered queue of scheduled callbacks.
Every component of the reproduction (links, TCP sockets, the Netlink
channel, controllers, applications) registers callbacks on the same loop,
which makes whole experiments deterministic for a given seed.

Design choices
--------------
* Callbacks, not coroutines.  The networking code is naturally event driven
  (a segment arrives, a timer fires); modelling it with plain callables keeps
  the control flow explicit and easy to unit test.
* Two-tier event kernel.  Most traffic (serialisation completions, ACK
  clocking, RTO churn) lands within a few hundred milliseconds of *now*, so
  the queue is a calendar wheel of small per-bucket heaps covering a sliding
  near-future window, with a single spill heap for everything beyond the
  horizon.  Pushes into the wheel are plain list appends; a bucket is only
  heapified when the cursor reaches it.  When the wheel drains, the window
  is rebuilt around the earliest spill event.  The observable order is
  exactly the flat-heap order: strictly by ``(time, seq)``.
* Cancellation by invalidation.  A cancelled :class:`ScheduledEvent` is
  flagged and skipped when popped; a live counter keeps
  :attr:`Simulator.pending_events` O(1), and :meth:`Simulator.run`
  compacts the queues automatically once dead entries pile up past a
  threshold.
* Stable ordering.  Events scheduled for the same instant run in the order
  they were scheduled (a monotonically increasing sequence number breaks
  ties), which removes a whole class of flaky behaviours.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.randomness import RandomSource

#: Largest admissible event time.  Using the float maximum (rather than
#: ``inf``) lets the scheduling guard reject NaN, infinity and the past with
#: one chained comparison on the hot path.
_MAX_EVENT_TIME = 1.7976931348623157e308

#: Calendar-wheel geometry.  256 buckets of 2 ms cover a 512 ms window —
#: wide enough that serialisation completions, propagation delays and most
#: RTO arms stay inside the wheel, narrow enough that a bucket rarely holds
#: more than a handful of events.
_WHEEL_BUCKETS = 256
_WHEEL_WIDTH = 0.002


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class ScheduledEvent:
    """A handle for a callback scheduled on the simulator.

    The handle can be used to cancel the callback before it runs and to
    inspect whether it already ran.  Instances are created by
    :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`; they are
    not meant to be constructed directly.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "_cancelled", "_executed", "_sim", "_pooled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: Optional[dict],
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self._cancelled = False
        self._executed = False
        self._sim: Optional["Simulator"] = None
        self._pooled = False

    @property
    def cancelled(self) -> bool:
        """True when the event was cancelled before execution."""
        return self._cancelled

    @property
    def executed(self) -> bool:
        """True when the callback already ran."""
        return self._executed

    @property
    def pending(self) -> bool:
        """True when the event is still waiting to run."""
        return not (self._cancelled or self._executed)

    def cancel(self) -> None:
        """Prevent the callback from running.

        Cancelling an event that already ran or was already cancelled is a
        no-op: the caller only cares that the callback will not run in the
        future.  The owning simulator is informed so its pending/dead
        counters stay exact without scanning the queue.
        """
        if self._executed or self._cancelled:
            return
        self._cancelled = True
        sim = self._sim
        if sim is not None:
            sim._pending -= 1
            sim._dead += 1

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("done" if self._executed else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<ScheduledEvent t={self.time:.6f} {name} [{state}]>"


class Simulator:
    """Deterministic discrete-event loop.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random source.  Experiments derive
        every stochastic decision (link losses, ECMP port draws, latency
        jitter) from this seed, so a run is fully reproducible.
    start_time:
        Initial simulated time in seconds.
    auto_compact_threshold:
        Number of lingering cancelled entries that triggers an automatic
        :meth:`compact` inside :meth:`run`.  The default is far above what
        a baseline campaign cell ever accumulates, so gated metrics such
        as ``events_compacted`` are unaffected; long fuzz or many-timer
        runs get their queues trimmed for free.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0, auto_compact_threshold: int = 1024) -> None:
        #: Current simulated time, in seconds.  A plain attribute rather
        #: than a property: every component reads the clock per segment, and
        #: only the event loop writes it.
        self.now = float(start_time)
        self._sequence = itertools.count()
        self._running = False
        self._processed = 0
        # Two-tier event kernel: near-future calendar wheel + far-future spill heap.
        self._wheel: list[list[tuple]] = [[] for _ in range(_WHEEL_BUCKETS)]
        self._wheel_start = self.now
        self._cursor = 0
        self._wheel_count = 0  # raw entries in the wheel, dead included
        self._spill: list[tuple] = []
        self._span = _WHEEL_BUCKETS * _WHEEL_WIDTH
        self._inv_width = 1.0 / _WHEEL_WIDTH
        # Live bookkeeping: pending + dead = raw queued entries.
        self._pending = 0
        self._dead = 0
        self._auto_compact_threshold = int(auto_compact_threshold)
        self._auto_compacted = 0
        # Recycled fire-and-forget events (see schedule_pooled).
        self._free: list[ScheduledEvent] = []
        self.random = RandomSource(seed)
        # Structured tracing hook (repro.obs).  Components cache
        # per-category channels off this attribute at construction, so
        # with no log attached the instrumented hot paths pay a single
        # attribute load plus None check and build no event objects.
        self.event_log = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued and not cancelled.

        Maintained as a live counter (O(1)); cancelled events linger in the
        queues until popped or :meth:`compact`-ed and are counted by
        :attr:`queued_entries` instead.
        """
        return self._pending

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    @property
    def queued_entries(self) -> int:
        """Raw queue size, including cancelled entries (see :meth:`compact`)."""
        return self._wheel_count + len(self._spill)

    @property
    def auto_compacted_entries(self) -> int:
        """Cancelled entries dropped by automatic compaction inside :meth:`run`."""
        return self._auto_compacted

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay!r})")
        return self.schedule_at(self.now + delay, callback, *args, **kwargs)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> ScheduledEvent:
        """Schedule ``callback`` to run at the absolute simulated ``time``."""
        if not callable(callback):
            raise SimulationError(f"callback must be callable, got {callback!r}")
        if not self.now <= time <= _MAX_EVENT_TIME:  # rejects NaN, inf and the past at once
            self._reject_time(time)
        seq = next(self._sequence)
        event = ScheduledEvent(time, seq, callback, args, kwargs)
        event._sim = self
        self._pending += 1
        self._insert((time, seq, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> ScheduledEvent:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule_at(self.now, callback, *args, **kwargs)

    def schedule_pooled(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a fire-and-forget callback on the recycled-event pool.

        Internal fast path for high-rate schedulers (link serialisation and
        delivery).  No handle is returned, so the event can never be
        cancelled from outside — which is exactly what makes recycling the
        event object safe once it has run.  Sequence numbers are drawn from
        the same counter as :meth:`schedule`, so the execution order is
        identical to scheduling a fresh event.
        """
        now = self.now
        time = now + delay
        if not now <= time <= _MAX_EVENT_TIME:
            self._reject_time(time)
        free = self._free
        seq = next(self._sequence)
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event._cancelled = False
            event._executed = False
        else:
            event = ScheduledEvent(time, seq, callback, args, None)
            event._sim = self
            event._pooled = True
        self._pending += 1
        # _insert, inlined: this and rearm() run once per segment per hop.
        index = int((time - self._wheel_start) * self._inv_width)
        if index >= _WHEEL_BUCKETS:
            heappush(self._spill, (time, seq, event))
            return
        cursor = self._cursor
        if index <= cursor:
            heappush(self._wheel[cursor], (time, seq, event))
        else:
            self._wheel[index].append((time, seq, event))
        self._wheel_count += 1

    def rearm(self, event: ScheduledEvent, delay: float) -> None:
        """Re-arm an event that already ran to fire again ``delay`` from now.

        The event keeps its callback and arguments but draws a fresh
        sequence number, so ordering is identical to scheduling a brand-new
        event — without allocating one.  Only executed events may be
        re-armed: a cancelled-but-queued event still sits inside a heap and
        mutating its key would corrupt the queue.
        """
        if not event._executed:
            raise SimulationError("rearm() requires an event that has already run")
        now = self.now
        time = now + delay
        if not now <= time <= _MAX_EVENT_TIME:
            self._reject_time(time)
        seq = next(self._sequence)
        event.time = time
        event.seq = seq
        event._executed = False
        self._pending += 1
        # _insert, inlined (see schedule_pooled).
        index = int((time - self._wheel_start) * self._inv_width)
        if index >= _WHEEL_BUCKETS:
            heappush(self._spill, (time, seq, event))
            return
        cursor = self._cursor
        if index <= cursor:
            heappush(self._wheel[cursor], (time, seq, event))
        else:
            self._wheel[index].append((time, seq, event))
        self._wheel_count += 1

    def cancel(self, event: Optional[ScheduledEvent]) -> None:
        """Cancel a previously scheduled event (``None`` is tolerated)."""
        if event is not None:
            event.cancel()

    def compact(self) -> int:
        """Drop cancelled events from the queues and rebuild them.

        Cancellation is lazy (heaps have no efficient removal), so
        long-lived simulations — and batch drivers such as the sweep engine
        that reuse a process for many cells — accumulate dead entries that
        inflate the queues and slow every push/pop.  Returns the number of
        entries dropped.
        """
        if self._running:
            raise SimulationError("cannot compact the queue while the simulator is running")
        return self._compact_queues()

    def _reject_time(self, time: float) -> None:
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"invalid event time {time!r}")
        raise SimulationError(
            f"cannot schedule an event at {time!r}, current time is {self.now!r}"
        )

    # ------------------------------------------------------------------
    # event kernel internals
    # ------------------------------------------------------------------
    def _insert(self, entry: tuple) -> None:
        """Place a ``(time, seq, event)`` entry into the wheel or spill heap.

        Queue entries are plain tuples so heap comparisons run entirely in
        C (float/int compares) instead of calling ``ScheduledEvent.__lt__``
        per sift step; ``seq`` is unique, so the event object itself is
        never compared.  Events beyond the wheel horizon go to the spill
        heap.  Events at or behind the cursor (possible after a window
        rebuild, because ``now`` can trail ``wheel_start``) are pushed into
        the cursor bucket, which is maintained as a heap; later buckets are
        plain appends and only heapified when the cursor reaches them.
        """
        index = int((entry[0] - self._wheel_start) * self._inv_width)
        if index >= _WHEEL_BUCKETS:
            heappush(self._spill, entry)
            return
        cursor = self._cursor
        if index <= cursor:
            heappush(self._wheel[cursor], entry)
        else:
            self._wheel[index].append(entry)
        self._wheel_count += 1

    def _front(self) -> Optional[tuple]:
        """The next live entry, left in place at ``wheel[cursor][0]``.

        Discards dead entries along the way, advances the cursor over empty
        buckets, and rebuilds the window from the spill heap when the wheel
        drains.  Returns ``None`` when nothing is pending.
        """
        wheel = self._wheel
        while True:
            bucket = wheel[self._cursor]
            while bucket:
                entry = bucket[0]
                if entry[2]._cancelled:
                    heappop(bucket)
                    self._wheel_count -= 1
                    self._dead -= 1
                else:
                    return entry
            if self._wheel_count:
                cursor = self._cursor + 1
                while not wheel[cursor]:
                    cursor += 1
                self._cursor = cursor
                heapify(wheel[cursor])
                continue
            spill = self._spill
            while spill and spill[0][2]._cancelled:
                heappop(spill)
                self._dead -= 1
            if not spill:
                return None
            self._rebuild_window()

    def _rebuild_window(self) -> None:
        """Re-anchor the (empty) wheel around the earliest spill event."""
        spill = self._spill
        start = spill[0][0]
        self._wheel_start = start
        self._cursor = 0
        horizon = start + self._span
        inv_width = self._inv_width
        wheel = self._wheel
        moved = 0
        while spill and spill[0][0] < horizon:
            entry = heappop(spill)
            if entry[2]._cancelled:
                self._dead -= 1
                continue
            index = int((entry[0] - start) * inv_width)
            if index >= _WHEEL_BUCKETS:  # float rounding at the horizon edge
                index = _WHEEL_BUCKETS - 1
            wheel[index].append(entry)
            moved += 1
        self._wheel_count += moved
        heapify(wheel[0])

    def _compact_queues(self) -> int:
        """Drop dead entries; survivors go back through the spill heap."""
        dropped = self._dead
        survivors = [entry for entry in self._spill if not entry[2]._cancelled]
        wheel = self._wheel
        for index in range(self._cursor, _WHEEL_BUCKETS):
            bucket = wheel[index]
            if bucket:
                survivors.extend(entry for entry in bucket if not entry[2]._cancelled)
                bucket.clear()
        heapify(survivors)
        self._spill = survivors
        self._wheel_count = 0
        self._cursor = 0
        self._dead = 0
        return dropped

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.

        Returns ``True`` when an event was executed, ``False`` when the
        queue is empty.
        """
        entry = self._front()
        if entry is None:
            return False
        heappop(self._wheel[self._cursor])
        self._wheel_count -= 1
        self._pending -= 1
        event = entry[2]
        self.now = entry[0]
        event._executed = True
        self._processed += 1
        kwargs = event.kwargs
        if kwargs:
            event.callback(*event.args, **kwargs)
        else:
            event.callback(*event.args)
        if event._pooled:
            event.callback = None
            event.args = ()
            self._free.append(event)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the simulated time when the loop stopped.  When ``until`` is
        given, the clock is advanced to ``until`` even if the queue drained
        earlier, mirroring how an emulation "waits out" its duration.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        executed = 0
        threshold = self._auto_compact_threshold
        wheel = self._wheel
        free = self._free
        # Hoist the optional bounds out of the loop: event times never
        # exceed _MAX_EVENT_TIME, so an absent ``until`` simply never trips.
        limit = _MAX_EVENT_TIME if until is None else until
        budget = -1 if max_events is None else max_events
        try:
            while True:
                if self._dead >= threshold:
                    self._auto_compacted += self._compact_queues()
                # Fast path: a live event at the head of the cursor bucket.
                # _front() does the same check first thing; peeking here
                # saves a call per event on the dominant path.
                bucket = wheel[self._cursor]
                if bucket and not (entry := bucket[0])[2]._cancelled:
                    pass
                else:
                    entry = self._front()
                    if entry is None:
                        break
                    bucket = wheel[self._cursor]
                if entry[0] > limit:
                    break
                if executed == budget:
                    break
                heappop(bucket)
                self._wheel_count -= 1
                self._pending -= 1
                event = entry[2]
                self.now = entry[0]
                event._executed = True
                self._processed += 1
                executed += 1
                kwargs = event.kwargs
                if kwargs:
                    event.callback(*event.args, **kwargs)
                else:
                    event.callback(*event.args)
                if event._pooled:
                    event.callback = None
                    event.args = ()
                    free.append(event)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain, guarding against runaway loops."""
        return self.run(max_events=max_events)
