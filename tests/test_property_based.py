"""Property-based tests (hypothesis) for core data structures and codecs."""

from hypothesis import given, settings, strategies as st

from repro.analysis.cdf import Cdf
from repro.analysis.stats import summarize
from repro.core import codec
from repro.core.commands import CommandReply, CreateSubflowCommand, RemoveSubflowCommand, ReplyStatus
from repro.core.events import SubflowClosedEvent, SubflowEstablishedEvent, TimeoutEvent
from repro.net.addressing import FourTuple, IPAddress
from repro.tcp.buffers import ReceiveReassembly, RetransmissionQueue, SentSegment
from repro.tcp.options import SackOption
from repro.tcp.rtt import RttEstimator

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPAddress)
ports = st.integers(min_value=0, max_value=0xFFFF)
tokens = st.integers(min_value=0, max_value=0xFFFFFFFF)
four_tuples = st.builds(FourTuple, addresses, ports, addresses, ports)


class TestReassemblyProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=60)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rcv_nxt_matches_delivered_prefix(self, chunks):
        """rcv_nxt always equals the length of the contiguous received prefix,
        and total new bytes never exceed the distinct bytes offered."""
        reasm = ReceiveReassembly(0)
        covered = set()
        new_total = 0
        for start, length in chunks:
            new_total += reasm.register(start, length)
            covered.update(range(start, start + length))
        expected_prefix = 0
        while expected_prefix in covered:
            expected_prefix += 1
        assert reasm.rcv_nxt == expected_prefix
        assert new_total <= len(covered)
        # Out-of-order ranges never overlap and sit entirely above rcv_nxt.
        ranges = reasm.out_of_order_ranges
        for index, (start, end) in enumerate(ranges):
            assert start < end
            assert start >= reasm.rcv_nxt
            if index:
                assert start >= ranges[index - 1][1]

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=40)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_duplicate_delivery_never_counted_twice(self, chunks):
        reasm = ReceiveReassembly(0)
        for start, length in chunks:
            reasm.register(start, length)
        before = reasm.rcv_nxt
        for start, length in chunks:
            assert reasm.register(start, length) == 0 or reasm.rcv_nxt > before


class _ListMergeReassembly:
    """Reference model: the list-merge implementation that
    ``ReceiveReassembly`` replaced, kept as the oracle for
    :class:`TestReassemblyDifferential`.

    Every out-of-order arrival rebuilds and re-sorts the whole range list;
    SACK blocks are ranked by an update stamp.
    """

    class _Range:
        def __init__(self, start, end, stamp=0):
            self.start = start
            self.end = end
            self.stamp = stamp

    def __init__(self, initial_seq=0):
        self._rcv_nxt = initial_seq
        self._out_of_order = []
        self._duplicate_bytes = 0
        self._stamp = 0

    @property
    def rcv_nxt(self):
        return self._rcv_nxt

    @property
    def out_of_order_ranges(self):
        return [(r.start, r.end) for r in self._out_of_order]

    def sack_blocks(self, limit=4):
        ordered = sorted(self._out_of_order, key=lambda r: r.stamp, reverse=True)
        return [(r.start, r.end) for r in ordered[:limit]]

    @property
    def duplicate_bytes(self):
        return self._duplicate_bytes

    def register(self, seq, length):
        if length == 0:
            return 0
        start, end = seq, seq + length
        rcv_nxt = self._rcv_nxt
        if end <= rcv_nxt:
            self._duplicate_bytes += length
            return 0
        if start < rcv_nxt:
            self._duplicate_bytes += rcv_nxt - start
            start = rcv_nxt
        if start == rcv_nxt and not self._out_of_order:
            self._rcv_nxt = end
            return end - start
        new_bytes = self._insert(start, end)
        self._advance()
        return new_bytes

    def _insert(self, start, end):
        new_bytes = end - start
        merged = []
        for existing in self._out_of_order:
            if existing.end < start or existing.start > end:
                merged.append(existing)
                continue
            overlap = min(end, existing.end) - max(start, existing.start)
            if overlap > 0:
                self._duplicate_bytes += overlap
                new_bytes -= overlap
            start = min(start, existing.start)
            end = max(end, existing.end)
        self._stamp += 1
        merged.append(self._Range(start, end, stamp=self._stamp))
        merged.sort(key=lambda r: r.start)
        self._out_of_order = merged
        return max(new_bytes, 0)

    def _advance(self):
        while self._out_of_order and self._out_of_order[0].start <= self._rcv_nxt:
            head = self._out_of_order[0]
            if head.end > self._rcv_nxt:
                self._rcv_nxt = head.end
            self._out_of_order.pop(0)


# Arrivals on a 10-byte grid make exact duplicates, adjacent and touching
# ranges common; free-form arrivals add ragged overlaps.
_grid_arrivals = st.tuples(
    st.integers(min_value=0, max_value=40).map(lambda unit: 10 * unit),
    st.integers(min_value=0, max_value=6).map(lambda units: 10 * units),
)
_ragged_arrivals = st.tuples(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=60))


class TestReassemblyDifferential:
    @given(
        st.integers(min_value=0, max_value=50),
        st.lists(st.one_of(_grid_arrivals, _ragged_arrivals), min_size=1, max_size=80),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_list_merge_reference(self, initial_seq, arrivals):
        """Every observable of the bisect/dict reassembly equals the
        list-merge reference after every single arrival."""
        fast = ReceiveReassembly(initial_seq)
        reference = _ListMergeReassembly(initial_seq)
        for seq, length in arrivals:
            assert fast.register(seq, length) == reference.register(seq, length)
            assert fast.rcv_nxt == reference.rcv_nxt
            assert fast.out_of_order_ranges == reference.out_of_order_ranges
            for limit in range(1, 5):
                assert fast.sack_blocks(limit) == reference.sack_blocks(limit)
            assert fast.duplicate_bytes == reference.duplicate_bytes
            assert bool(fast.ranges) == bool(reference.out_of_order_ranges)


class _WindowWalkScoreboard:
    """Reference model: the per-ACK scoreboard loops of ``TcpSocket`` before
    they moved into :class:`RetransmissionQueue`.

    ``process_sack`` checks every queued segment against the option on each
    ACK; ``retransmit_lost`` scans the whole queue for lost segments.
    """

    def __init__(self, segments):
        self.segments = segments

    def process_sack(self, sack):
        highest = sack.highest
        newly_lost = False
        sample = None
        for sent in self.segments:
            if not sent.sacked and sack.covers(sent.seq, sent.end_seq):
                sent.sacked = True
                sent.lost = False
                if not sent.retransmitted:
                    sample = sent
            elif (
                not sent.sacked
                and not sent.lost
                and not sent.retransmitted
                and sent.end_seq <= highest
            ):
                sent.lost = True
                newly_lost = True
        return sample, newly_lost

    def retransmit_lost(self, budget=3):
        retransmitted = []
        for sent in self.segments:
            if budget <= 0:
                break
            if sent.lost and not sent.sacked:
                sent.retransmitted = True
                sent.lost = False
                retransmitted.append(sent.seq)
                budget -= 1
        return retransmitted

    def ack_upto(self, ack):
        while self.segments and self.segments[0].end_seq <= ack:
            self.segments.pop(0)


# One scoreboard operation: a SACK option, a lost-segment retransmission
# round, a head retransmission (fast retransmit / RTO) or a cumulative ACK.
# SACK blocks are either aligned to segment boundaries (as a receiver sends
# them; ``("segments", i, n)`` spans n segments from the i-th) or ragged
# byte ranges; both are offsets into the queue's span, so a later ACK's
# highest block may well sit below an earlier one's.
_sack_block_specs = st.one_of(
    st.tuples(st.just("segments"), st.integers(min_value=0, max_value=24), st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("bytes"), st.integers(min_value=0, max_value=2400), st.integers(min_value=1, max_value=700)),
)
_scoreboard_ops = st.one_of(
    st.tuples(st.just("sack"), st.lists(_sack_block_specs, min_size=1, max_size=4)),
    st.tuples(st.just("retransmit_lost"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("retransmit_head"), st.just(0)),
    st.tuples(st.just("ack"), st.integers(min_value=0, max_value=2400)),
)


class TestSackScoreboardDifferential:
    @given(
        st.integers(min_value=0, max_value=1000),
        st.lists(
            st.tuples(
                st.sampled_from([100, 100, 100, 40, 250]),
                st.booleans(),
                st.booleans(),
            ),
            min_size=0,
            max_size=24,
        ),
        st.lists(_scoreboard_ops, min_size=1, max_size=30),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_window_walk_reference(self, base, shape, ops):
        """apply_sack/take_lost agree with the window-walking loops on every
        flag, RTT sample, newly-lost verdict and retransmitted sequence."""
        queue = RetransmissionQueue()
        reference_segments = []
        seq = base
        boundaries = [base]
        for length, sacked, retransmitted in shape:
            flags = {"retransmitted": retransmitted, "sacked": sacked}
            queue.push(SentSegment(seq, length, None, 0.0, 0.0, **flags))
            reference_segments.append(SentSegment(seq, length, None, 0.0, 0.0, **flags))
            seq += length
            boundaries.append(seq)

        def block(kind, first, size):
            if kind == "bytes":
                return (base + first, base + first + size)
            first = min(first, len(boundaries) - 1)
            last = first + size
            start = boundaries[first]
            return (start, boundaries[last] if last < len(boundaries) else start + 100 * size)

        reference = _WindowWalkScoreboard(reference_segments)
        def scoreboard(segments):
            return [(s.seq, s.length, s.sacked, s.lost, s.retransmitted) for s in segments]

        for op, argument in ops:
            if op == "sack":
                blocks = tuple(block(*spec) for spec in argument)
                sack = SackOption(blocks=blocks)
                sample, newly_lost = queue.apply_sack(sack.blocks)
                expected_sample, expected_lost = reference.process_sack(sack)
                assert newly_lost == expected_lost
                assert (sample.seq if sample else None) == (
                    expected_sample.seq if expected_sample else None
                )
            elif op == "retransmit_lost":
                taken = queue.take_lost(argument)
                for sent in taken:
                    sent.retransmitted = True
                assert [s.seq for s in taken] == reference.retransmit_lost(argument)
            elif op == "retransmit_head":
                for head in (queue.head(), reference.segments[0] if reference.segments else None):
                    if head is not None:
                        head.retransmitted = True
            else:
                queue.ack_upto(base + argument)
                reference.ack_upto(base + argument)
            assert scoreboard(queue.segments) == scoreboard(reference.segments)


class TestRttProperties:
    @given(st.lists(st.floats(min_value=1e-4, max_value=2.0), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_rto_bounds(self, samples):
        est = RttEstimator(rto_min=0.2, rto_max=120.0)
        for sample in samples:
            est.add_sample(sample)
        assert 0.2 <= est.rto <= 120.0
        assert est.srtt is not None
        assert min(samples) <= est.srtt <= max(samples) + 1e-9

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_backoff_monotone_and_capped(self, timeouts):
        est = RttEstimator(rto_min=0.2, rto_max=60.0)
        est.add_sample(0.05)
        previous = est.rto
        for _ in range(timeouts):
            est.on_timeout()
            assert est.rto >= previous
            previous = est.rto
        assert est.rto <= 60.0


class TestCodecProperties:
    @given(st.floats(min_value=0, max_value=1e6), tokens, st.integers(0, 65535), st.floats(0, 120), st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_timeout_event_roundtrip(self, time, token, subflow_id, rto, consecutive):
        event = TimeoutEvent(time, token, subflow_id, rto, consecutive)
        assert codec.decode_event(codec.encode_event(event)) == event

    @given(st.floats(min_value=0, max_value=1e6), tokens, st.integers(0, 65535), four_tuples, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sub_estab_event_roundtrip(self, time, token, subflow_id, tup, backup):
        event = SubflowEstablishedEvent(time, token, subflow_id, tup, backup)
        assert codec.decode_event(codec.encode_event(event)) == event

    @given(st.floats(min_value=0, max_value=1e6), tokens, st.integers(0, 65535), four_tuples,
           st.integers(min_value=-200, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_sub_closed_event_roundtrip(self, time, token, subflow_id, tup, reason):
        event = SubflowClosedEvent(time, token, subflow_id, tup, reason)
        assert codec.decode_event(codec.encode_event(event)) == event

    @given(tokens, st.integers(1, 1 << 30), addresses, ports, addresses, ports, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_create_subflow_roundtrip(self, token, request_id, local, lport, remote, rport, backup):
        command = CreateSubflowCommand(request_id, token, local, lport, remote, rport, backup)
        assert codec.decode_command(codec.encode_command(command)) == command

    @given(tokens, st.integers(1, 1 << 30), st.integers(0, 65535), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_remove_subflow_roundtrip(self, token, request_id, subflow_id, reset):
        command = RemoveSubflowCommand(request_id, token, subflow_id, reset)
        assert codec.decode_command(codec.encode_command(command)) == command

    @given(
        st.integers(1, 1 << 30),
        st.dictionaries(
            st.text(min_size=1, max_size=12),
            st.one_of(
                st.integers(min_value=-(1 << 40), max_value=1 << 40),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.text(max_size=20),
                st.booleans(),
                st.none(),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_reply_payload_roundtrip(self, request_id, payload):
        reply = CommandReply(request_id, ReplyStatus.OK, payload)
        decoded = codec.decode_reply(codec.encode_reply(reply))
        assert decoded.request_id == request_id
        assert decoded.payload == payload


class TestFourTupleProperties:
    @given(four_tuples)
    @settings(max_examples=200, deadline=None)
    def test_packed_roundtrip(self, tup):
        assert FourTuple.from_packed(tup.packed()) == tup

    @given(four_tuples)
    @settings(max_examples=200, deadline=None)
    def test_ecmp_key_symmetric(self, tup):
        assert tup.ecmp_key() == tup.reversed().ecmp_key()


class TestAnalysisProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_cdf_invariants(self, samples):
        cdf = Cdf(samples)
        assert cdf.minimum <= cdf.median <= cdf.maximum
        assert cdf.probability_below(cdf.maximum) == 1.0
        assert 0.0 <= cdf.probability_below(cdf.minimum) <= 1.0
        assert cdf.percentile(0.0) == cdf.minimum
        assert cdf.percentile(1.0) == cdf.maximum
        fractions = [point[1] for point in cdf.points()]
        assert fractions == sorted(fractions)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_summary_invariants(self, samples):
        stats = summarize(samples)
        tolerance = 1e-9 * max(1.0, abs(stats.maximum), abs(stats.minimum))
        assert stats.minimum <= stats.p25 <= stats.median <= stats.p75 <= stats.maximum
        assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
        assert stats.count == len(samples)
        assert stats.stddev >= 0


# ----------------------------------------------------------------------
# scheduler properties
# ----------------------------------------------------------------------
from repro.mptcp.scheduler import (  # noqa: E402
    SCHEDULER_REGISTRY,
    available_schedulers,
    make_scheduler,
)


class _SchedFakeSocket:
    """Just enough socket surface for the schedulers."""

    def __init__(self, srtt, window, established):
        class _Rtt:
            pass

        self.rtt = _Rtt()
        self.rtt.srtt = srtt
        self._window = window
        self._established = established
        self.backup = False

    @property
    def is_established(self):
        return self._established

    @property
    def is_closed(self):
        return False

    def available_window(self):
        return self._window


class _SchedFakeFlow:
    def __init__(self, flow_id, srtt, window, backup, established):
        self.id = flow_id
        self.backup = backup
        self.socket = _SchedFakeSocket(srtt, window, established)
        self.is_usable = established
        self.is_established = established
        self.is_closed = False


flow_states = st.builds(
    lambda srtt, window, backup, established: (srtt, window, backup, established),
    st.one_of(st.none(), st.floats(min_value=1e-4, max_value=2.0)),
    st.integers(min_value=0, max_value=100_000),
    st.booleans(),
    st.booleans(),
)
flow_sets = st.lists(flow_states, min_size=0, max_size=8).map(
    lambda states: [
        _SchedFakeFlow(index + 1, *state) for index, state in enumerate(states)
    ]
)


class TestSchedulerProperties:
    @given(st.sampled_from(sorted(SCHEDULER_REGISTRY)), flow_sets)
    @settings(max_examples=300, deadline=None)
    def test_selection_comes_from_eligible_set(self, name, flows):
        scheduler = make_scheduler(name)
        chosen = scheduler.select(flows, 1400)
        eligible = scheduler.eligible(flows)
        if chosen is None:
            assert eligible == []
        else:
            assert chosen in eligible

    @given(st.sampled_from(sorted(SCHEDULER_REGISTRY)), flow_sets)
    @settings(max_examples=300, deadline=None)
    def test_never_selects_unusable_or_windowless_subflow(self, name, flows):
        scheduler = make_scheduler(name)
        chosen = scheduler.select(flows, 1400)
        if chosen is not None:
            assert chosen.is_usable
            assert chosen.socket.available_window() > 0

    @given(flow_sets)
    @settings(max_examples=300, deadline=None)
    def test_backup_semantics(self, flows):
        """RFC 6824: backup subflows carry data only when no regular one can.

        Applies to every scheduler with the default eligibility rules; the
        redundant scheduler opts out of backup priority by design.
        """
        for name in ("lowest_rtt", "round_robin"):
            scheduler = make_scheduler(name)
            chosen = scheduler.select(flows, 1400)
            regular_available = any(
                flow.is_usable and not flow.backup and flow.socket.available_window() > 0
                for flow in flows
            )
            if chosen is not None and chosen.backup:
                assert not regular_available

    @given(st.lists(flow_sets, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_round_robin_stable_under_churn(self, generations):
        """Arbitrary subflow churn never desynchronises the rotation cursor."""
        scheduler = make_scheduler("round_robin")
        for flows in generations:
            for _ in range(len(flows) + 1):
                chosen = scheduler.select(flows, 1400)
                eligible = scheduler.eligible(flows)
                if eligible:
                    assert chosen in eligible
                else:
                    assert chosen is None

    def test_registry_round_trips(self):
        assert available_schedulers() == sorted(SCHEDULER_REGISTRY)
        for name in available_schedulers():
            scheduler = make_scheduler(name)
            assert isinstance(scheduler, SCHEDULER_REGISTRY[name])
            assert scheduler.name == name
            # Case-insensitive lookup is part of the contract.
            assert type(make_scheduler(name.upper())) is type(scheduler)


# ----------------------------------------------------------------------
# event kernel vs. reference heap
# ----------------------------------------------------------------------
# The simulator's two-tier kernel (calendar wheel + spill heap) must be
# observationally identical to the flat heapq it replaced: events fire in
# (time, schedule-order) order, cancellation invalidates in place, compact()
# never changes what runs, and run(until=...) stops at the same point.  The
# delay strategy mixes arbitrary floats with exact bucket-width multiples so
# same-time collisions, bucket boundaries (2 ms), the wheel horizon (512 ms)
# and the spill heap are all exercised.

_kernel_delays = st.one_of(
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.001, 0.002, 0.004, 0.256, 0.510, 0.512, 0.514, 1.0]),
)


class TestEventKernelProperties:
    @given(st.lists(_kernel_delays, min_size=1, max_size=80))
    @settings(max_examples=120, deadline=None)
    def test_execution_order_matches_reference_heap(self, delays):
        """Pop order equals a heapq over (time, schedule-order) pairs."""
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, order.append, index)
        sim.run()
        reference = [index for _, index in sorted((d, i) for i, d in enumerate(delays))]
        assert order == reference
        assert sim.pending_events == 0
        assert sim.processed_events == len(delays)

    @given(st.lists(st.tuples(_kernel_delays, st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_cancellation_by_invalidation(self, items):
        """Cancelled events never fire; survivors keep the reference order."""
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []
        events = [
            sim.schedule(delay, order.append, index)
            for index, (delay, _) in enumerate(items)
        ]
        for event, (_, cancel) in zip(events, items):
            if cancel:
                event.cancel()
        live = [(delay, index) for index, (delay, cancel) in enumerate(items) if not cancel]
        assert sim.pending_events == len(live)
        sim.run()
        assert order == [index for _, index in sorted(live)]

    @given(st.lists(st.tuples(_kernel_delays, _kernel_delays), min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_cancel_during_run_matches_reference(self, pairs):
        """A canceller event stops its target iff it fires strictly first.

        The target is scheduled before its canceller, so at equal times the
        target's lower sequence number wins — exactly the flat-heap rule.
        """
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        fired = []
        for index, (target_delay, cancel_delay) in enumerate(pairs):
            target = sim.schedule(target_delay, fired.append, index)
            sim.schedule(cancel_delay, sim.cancel, target)
        sim.run()
        expected = [index for index, (t, c) in enumerate(pairs) if t <= c]
        assert sorted(fired) == expected

    @given(st.lists(st.tuples(_kernel_delays, st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_compact_equivalence(self, items):
        """compact() after cancellations never changes observable behaviour."""
        from repro.sim import Simulator

        def trace(do_compact):
            sim = Simulator(seed=1)
            order = []
            events = [
                sim.schedule(delay, order.append, index)
                for index, (delay, _) in enumerate(items)
            ]
            for event, (_, cancel) in zip(events, items):
                if cancel:
                    event.cancel()
            if do_compact:
                sim.compact()
            sim.run()
            return order, sim.now, sim.processed_events, sim.pending_events

        assert trace(True) == trace(False)

    @given(
        st.lists(_kernel_delays, min_size=1, max_size=60),
        _kernel_delays,
    )
    @settings(max_examples=120, deadline=None)
    def test_run_until_stop_matches_reference(self, delays, until):
        """run(until=...) executes exactly the events at time <= until."""
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, order.append, index)
        stopped_at = sim.run(until=until)
        ranked = sorted((d, i) for i, d in enumerate(delays))
        assert order == [index for delay, index in ranked if delay <= until]
        assert stopped_at == until
        assert sim.now == until
        sim.run()
        assert order == [index for _, index in ranked]

    @given(st.lists(st.tuples(_kernel_delays, st.one_of(st.none(), _kernel_delays)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_nested_scheduling_matches_reference_simulation(self, pairs):
        """Events scheduled from inside callbacks follow the same rule.

        Mirrors the run against a literal heapq simulation that assigns
        sequence numbers in the same order the kernel does (one per
        schedule call, in call order).
        """
        import heapq
        import itertools

        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []

        def fire(index, follow_delay):
            order.append(index)
            if follow_delay is not None:
                sim.schedule(follow_delay, fire, index + 1000, None)

        for index, (delay, follow) in enumerate(pairs):
            sim.schedule(delay, fire, index, follow)
        sim.run()

        sequence = itertools.count()
        heap = []
        for index, (delay, follow) in enumerate(pairs):
            heapq.heappush(heap, (delay, next(sequence), index, follow))
        reference = []
        while heap:
            time_, _, index, follow = heapq.heappop(heap)
            reference.append(index)
            if follow is not None:
                heapq.heappush(heap, (time_ + follow, next(sequence), index + 1000, None))
        assert order == reference
