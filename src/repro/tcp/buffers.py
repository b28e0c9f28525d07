"""Sender retransmission queue and receiver reassembly tracking.

These helpers keep :mod:`repro.tcp.socket` readable: the socket deals with
the protocol state machine while the byte-range bookkeeping lives here.
Both structures work on (sequence, length) ranges — no payload bytes are
stored anywhere in the reproduction.

Loss recovery runs on every SACK-bearing ACK and every out-of-order
arrival, so both structures keep their per-call cost proportional to the
number of holes and SACK blocks rather than to the window:

* the retransmission queue is only ever appended at ``snd_nxt``, so it is
  sorted and contiguous; the SACK walk stops at the first segment that
  ends past the highest SACKed byte, and the lost-segment walk stops at a
  high-water mark past which nothing is marked lost;
* the reassembly keeps its out-of-order ranges as a sorted list of starts
  (merged by ``bisect`` and one slice assignment) plus a start → end dict
  whose insertion order is the SACK-block recency order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Optional


@dataclass(slots=True)
class SentSegment:
    """One segment sitting in the retransmission queue."""

    seq: int
    length: int
    metadata: Any
    first_sent_at: float
    last_sent_at: float
    retransmitted: bool = False
    transmissions: int = 1
    sacked: bool = False
    lost: bool = False

    @property
    def end_seq(self) -> int:
        """Sequence number one past the last byte of this segment."""
        return self.seq + self.length


class RetransmissionQueue:
    """Ordered queue of sent-but-unacknowledged segments."""

    def __init__(self) -> None:
        # A deque: cumulative ACKs strip segments from the front, so the
        # hot ``ack_upto`` path must not shift the whole list per segment.
        self._segments: deque[SentSegment] = deque()
        # Every segment marked lost lies below this sequence number.
        self._lost_end = 0

    def __len__(self) -> int:
        return len(self._segments)

    def __bool__(self) -> bool:
        return bool(self._segments)

    @property
    def segments(self) -> "deque[SentSegment]":
        """The queued segments in sequence order (do not mutate)."""
        return self._segments

    def push(self, segment: SentSegment) -> None:
        """Append a newly transmitted segment (sequence order is maintained
        because new data is always sent at ``snd_nxt``)."""
        self._segments.append(segment)

    def head(self) -> Optional[SentSegment]:
        """The oldest unacknowledged segment, if any."""
        return self._segments[0] if self._segments else None

    def ack_upto(self, ack: int) -> list[SentSegment]:
        """Remove and return every segment fully covered by ``ack``."""
        segments = self._segments
        acked: list[SentSegment] = []
        while segments and segments[0].seq + segments[0].length <= ack:
            acked.append(segments.popleft())
        return acked

    def apply_sack(self, blocks: tuple[tuple[int, int], ...]) -> tuple[Optional[SentSegment], bool]:
        """Apply one SACK option's blocks (simplified RFC 6675).

        Every unSACKed segment inside a block becomes SACKed; every other
        unSACKed segment that ends at or below the highest SACKed byte and
        was never retransmitted is marked lost.  With per-path FIFO links
        there is no reordering within a subflow, so anything skipped was
        dropped.  A retransmitted segment is never re-marked: if the
        retransmission is lost too, the RTO recovers it.

        Returns the last newly SACKed segment that was sent only once (the
        RTT sample, as Linux takes it) and whether anything was newly
        marked lost.
        """
        highest = 0
        for _, block_end in blocks:
            if block_end > highest:
                highest = block_end
        sample = None
        newly_lost = False
        lost_end = self._lost_end
        for sent in self._segments:
            if sent.sacked:
                continue
            start = sent.seq
            end = start + sent.length
            if end > highest:
                # The queue is sorted: no later segment fits in a block.
                break
            for block_start, block_end in blocks:
                if block_start <= start and end <= block_end:
                    sent.sacked = True
                    sent.lost = False
                    if not sent.retransmitted:
                        sample = sent
                    break
            else:
                if not sent.lost and not sent.retransmitted:
                    sent.lost = True
                    newly_lost = True
                    if end > lost_end:
                        lost_end = end
        self._lost_end = lost_end
        return sample, newly_lost

    def take_lost(self, budget: int) -> list[SentSegment]:
        """Up to ``budget`` segments marked lost and not SACKed, in sequence
        order, with their lost marks cleared for retransmission."""
        taken: list[SentSegment] = []
        if budget <= 0:
            return taken
        lost_end = self._lost_end
        for sent in self._segments:
            if sent.seq >= lost_end:
                break
            if sent.lost and not sent.sacked:
                sent.lost = False
                taken.append(sent)
                budget -= 1
                if not budget:
                    return taken
        # The walk passed every segment that could be lost.
        self._lost_end = 0
        return taken

    def outstanding_bytes(self) -> int:
        """Total unacknowledged payload bytes."""
        return sum(segment.length for segment in self._segments)

    def metadata_items(self) -> list[Any]:
        """Metadata of every outstanding segment (used for MPTCP reinjection)."""
        return [segment.metadata for segment in self._segments if segment.metadata is not None]

    def clear(self) -> list[SentSegment]:
        """Drop everything (connection aborted); returns what was pending."""
        pending = list(self._segments)
        self._segments.clear()
        self._lost_end = 0
        return pending


class ReceiveReassembly:
    """Tracks the receiver's cumulative sequence progress.

    ``register`` accepts possibly out-of-order, possibly overlapping
    (retransmitted) ranges and advances ``rcv_nxt`` over any contiguous
    prefix.  The number of *new* bytes covered is returned so callers can
    keep byte counters without double counting duplicates.

    Buffered ranges are disjoint, never touch, and all start above
    ``rcv_nxt``.  ``ranges`` maps each range's start to its end, least
    recently updated first; ``_starts`` holds the same starts sorted.
    """

    def __init__(self, initial_seq: int = 0) -> None:
        #: Next expected in-order sequence number.
        self.rcv_nxt = initial_seq
        #: Out-of-order ranges, start -> end, least recently updated first
        #: (read-only for callers; empty when everything arrived in order).
        self.ranges: dict[int, int] = {}
        self._starts: list[int] = []
        self._duplicate_bytes = 0

    @property
    def out_of_order_ranges(self) -> list[tuple[int, int]]:
        """Currently buffered out-of-order ranges as (start, end) tuples."""
        ranges = self.ranges
        return [(start, ranges[start]) for start in self._starts]

    def sack_blocks(self, limit: int = 4) -> list[tuple[int, int]]:
        """Out-of-order ranges ordered most-recently-updated first (RFC 2018).

        Reporting the most recently received block first matters: it is what
        lets the sender learn about *every* hole within a round trip even
        though each ACK only carries a handful of blocks.
        """
        return list(islice(reversed(self.ranges.items()), limit))

    @property
    def duplicate_bytes(self) -> int:
        """Bytes received more than once (retransmissions/spurious)."""
        return self._duplicate_bytes

    def register(self, seq: int, length: int) -> int:
        """Record a received range; returns the number of new bytes."""
        if length < 0:
            raise ValueError(f"length cannot be negative: {length!r}")
        if length == 0:
            return 0
        start, end = seq, seq + length
        rcv_nxt = self.rcv_nxt
        if end <= rcv_nxt:
            self._duplicate_bytes += length
            return 0
        if start < rcv_nxt:
            self._duplicate_bytes += rcv_nxt - start
            start = rcv_nxt
        starts = self._starts
        if start == rcv_nxt and not starts:
            # In-order fast path: nothing to merge, the window just slides.
            self.rcv_nxt = end
            return end - start
        # Ranges [i, j) overlap or touch [start, end) and merge with it.
        ranges = self.ranges
        i = bisect_left(starts, start)
        if i and ranges[starts[i - 1]] >= start:
            i -= 1
        j = bisect_right(starts, end, i)
        new_bytes = end - start
        if i < j:
            first = starts[i]
            for existing_start in starts[i:j]:
                existing_end = ranges.pop(existing_start)
                overlap = (existing_end if existing_end < end else end) - (
                    existing_start if existing_start > start else start
                )
                if overlap > 0:
                    new_bytes -= overlap
            self._duplicate_bytes += end - start - new_bytes
            if first < start:
                start = first
            if existing_end > end:
                end = existing_end
        if start == rcv_nxt:
            # The merged range fills the hole at rcv_nxt (only i == 0 can).
            del starts[:j]
            self.rcv_nxt = end
        else:
            starts[i:j] = (start,)
            ranges[start] = end
        return new_bytes

    def missing_before(self, seq: int) -> bool:
        """True when there is a gap between ``rcv_nxt`` and ``seq``."""
        return seq > self.rcv_nxt
