"""Oracles for the capture digest and the router's ECMP pick.

The trace probe reduces a capture in one pass (:func:`trace_digest`): it
formats each segment's header/options text once per segment object, hashes
the lines in batches and sums the payload bytes on the way.  The reference
below is the plain per-record digest that pass replaced, kept verbatim, and
``trace_packets`` / ``trace_data_bytes`` are checked against the tracer's
length and :func:`repro.analysis.trace.payload_byte_totals`.

The router forwards by hashing the segment's four ints directly; the
differential test holds its pick to :meth:`EcmpGroup.path_index` and to the
CRC-32 of :meth:`FourTuple.ecmp_key` over random flows and salts.
"""

from __future__ import annotations

import hashlib
import zlib

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.analysis.trace import payload_byte_totals
from repro.net import EcmpGroup, Router
from repro.net.addressing import FourTuple, IPAddress
from repro.net.packet import Segment
from repro.net.tracer import PacketRecord, PacketTracer
from repro.sim.engine import Simulator
from repro.workloads import Harness, HarnessSpec, trace_digest


def reference_trace_digest(tracer: PacketTracer) -> str:
    """The per-record digest, one formatted line per record."""
    digest = hashlib.sha256()
    names_by_options: dict[int, str] = {}
    for record in tracer.records:
        segment = record.segment
        options = segment.options
        option_names = names_by_options.get(id(options))
        if option_names is None:
            option_names = ",".join(type(option).__name__ for option in options)
            names_by_options[id(options)] = option_names
        digest.update(
            (
                f"{record.time!r}|{record.link}|{record.from_iface}>{record.to_iface}|"
                f"{segment.src}:{segment.sport}>{segment.dst}:{segment.dport}|"
                f"seq={segment.seq} ack={segment.ack} flags={int(segment.flags)} "
                f"len={segment.payload_len}|{option_names}\n"
            ).encode("utf-8")
        )
    return digest.hexdigest()


CELLS = {
    "bulk_ecmp": HarnessSpec(
        workload="bulk_transfer", scenario="ecmp", controller="ndiffports", seed=4,
        horizon=60.0,
        params={"transfer_bytes": 1_500_000, "subflow_count": 5, "bind_local": False},
    ),
    "bulk_natted": HarnessSpec(
        workload="bulk_transfer", scenario="natted", controller="fullmesh", seed=2,
        horizon=30.0, params={"transfer_bytes": 300_000},
    ),
    "bulk_faulted_downgrade": HarnessSpec(
        workload="bulk_transfer", scenario="faulted_downgrade", controller="fullmesh", seed=3,
        horizon=15.0, params={"transfer_bytes": 60_000},
    ),
    # A middlebox strips MP_CAPABLE mid-path: the stripped copy keeps the
    # original's segment_id but carries other options, so the digest's memo
    # must key on the segment object, not its id field.
    "bulk_mpcapable_stripped": HarnessSpec(
        workload="bulk_transfer", scenario="mpcapable_stripped", controller="fullmesh", seed=6,
        horizon=15.0, params={"transfer_bytes": 60_000},
    ),
    "http_10_connections": HarnessSpec(
        workload="http", scenario="dual_homed", controller="fullmesh", seed=5,
        horizon=20.0, connections=10,
        params={"request_count": 3, "object_size": 20_000},
    ),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_one_pass_summary_equals_the_reference(cell):
    run = Harness().run(CELLS[cell])
    tracer = run.probe("trace").tracer
    expected_bytes = sum(payload_byte_totals(tracer).values())
    assert len(tracer) > 0 and expected_bytes > 0

    summary = trace_digest(tracer)
    assert summary.digest == reference_trace_digest(tracer)
    assert summary.packets == len(tracer)
    assert summary.data_bytes == expected_bytes
    assert run.metrics["trace_digest"] == summary.digest
    assert run.metrics["trace_packets"] == summary.packets
    assert run.metrics["trace_data_bytes"] == summary.data_bytes


def test_digest_spans_memo_resets_and_batches():
    # More segments than the memo holds and more records than one batch,
    # with each segment captured on two links, far apart in the capture.
    tracer = PacketTracer()
    segments = [
        Segment(src=IPAddress(0x0A000001), dst=IPAddress(0x0A000102), sport=1000 + i % 7,
                dport=80, seq=i * 1000, payload_len=i % 3 * 700)
        for i in range(6000)
    ]
    records = tracer._records
    for hop, link in enumerate(("a", "b")):
        for i, segment in enumerate(segments):
            records.append(PacketRecord(float(hop * 10_000 + i), segment, f"{link}.x", f"{link}.y", link))
    summary = trace_digest(tracer)
    assert summary.digest == reference_trace_digest(tracer)
    assert summary.packets == 12_000
    assert summary.data_bytes == sum(payload_byte_totals(tracer).values())


addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports = st.integers(min_value=0, max_value=0xFFFF)
ROUTER_ADDRESS = 0xFFFFFFFE


@given(
    src=addresses, sport=ports, dst=addresses, dport=ports,
    salt=st.integers(min_value=0, max_value=0xFFFFFFFF),
    width=st.integers(min_value=1, max_value=8),
)
@example(src=7, sport=80, dst=7, dport=80, salt=0, width=4)
@example(src=7, sport=81, dst=7, dport=80, salt=3, width=4)
@example(src=9, sport=80, dst=7, dport=81, salt=0, width=3)
@settings(max_examples=300, deadline=None)
def test_router_ecmp_pick_equals_path_index(src, sport, dst, dport, salt, width):
    assume(dst != ROUTER_ADDRESS and not 1 <= dst <= width)  # not the router's own
    router = Router(Simulator(seed=0), "r")
    inbound = router.add_interface("in", IPAddress(ROUTER_ADDRESS))
    names = [f"p{index}" for index in range(width)]
    for index, name in enumerate(names):
        router.add_interface(name, IPAddress(index + 1))
    group = EcmpGroup(names, salt=salt)
    router.add_route(IPAddress(dst), group)
    segment = Segment(src=IPAddress(src), dst=IPAddress(dst), sport=sport, dport=dport)

    # The members are attached to no link, so the one the router picked
    # counts the segment as dropped.
    router.receive(segment, inbound)
    [picked] = [index for index, name in enumerate(names) if router.interface(name).dropped_down]

    assert picked == group.path_index(segment)
    assert names[picked] == group.select(segment)
    key = FourTuple(IPAddress(src), sport, IPAddress(dst), dport).ecmp_key()
    assert picked == zlib.crc32(key, salt) % width
