"""Call budget for the TCP layer on the lossy bulk data path.

Loss recovery must cost O(holes + SACK blocks) per ACK, not O(window).  A
scan over the retransmission queue or the out-of-order list per ACK does
not change any result, only the number of Python calls, so this test
counts them: one lossy ``bulk_transfer`` x ``ecmp`` cell runs under a
``sys.setprofile`` hook that counts every Python call into code owned by a
``repro.tcp`` module, and the count per delivered segment (both stacks'
``segments_delivered`` counters) must stay within :data:`TCP_CALLS_PER_SEGMENT`.

The count is exact and repeats run to run on one interpreter version.  A
warm-up cell runs first so lazy imports and first-use caches are not
counted.  Measured on CPython 3.11: 24.9 calls per segment; the window
walks this budget guards against cost 228.7 on the same cell.  The budget
leaves headroom for comprehensions, which are calls before Python 3.12
and inlined from 3.12 on.
"""

from __future__ import annotations

import sys

from repro.workloads import Harness, HarnessSpec

#: Python calls into ``repro.tcp`` per delivered segment.
TCP_CALLS_PER_SEGMENT = 40.0

TRANSFER_BYTES = 2_000_000


def _bulk_over_ecmp(seed: int, transfer_bytes: int) -> HarnessSpec:
    return HarnessSpec(
        workload="bulk_transfer",
        scenario="ecmp",
        controller="ndiffports",
        seed=seed,
        horizon=60.0,
        params={"transfer_bytes": transfer_bytes, "subflow_count": 5, "bind_local": False},
    )


def _layer(module_name) -> str:
    """``repro.<layer>...`` -> ``<layer>``; anything else is not ours."""
    if not module_name:
        return "other"
    parts = module_name.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "other"


def _tcp_calls(spec: HarnessSpec):
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and _layer(frame.f_globals.get("__name__")) == "tcp":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run = Harness().run(spec)
    finally:
        sys.setprofile(previous)
    return calls, run


def test_tcp_calls_per_delivered_segment_within_budget():
    Harness().run(_bulk_over_ecmp(seed=2, transfer_bytes=50_000))
    calls, run = _tcp_calls(_bulk_over_ecmp(seed=1, transfer_bytes=TRANSFER_BYTES))

    client, server = run.client.stack.counters(), run.server_stack.counters()
    assert run.metrics["bytes_delivered"] == TRANSFER_BYTES
    # The cell must exercise loss recovery, or the budget proves nothing.
    assert client["retransmissions"] > 0
    segments = client["segments_delivered"] + server["segments_delivered"]
    per_segment = calls / segments
    assert per_segment <= TCP_CALLS_PER_SEGMENT, (
        f"{per_segment:.1f} repro.tcp calls per delivered segment exceeds the budget of "
        f"{TCP_CALLS_PER_SEGMENT}: is a per-ACK loop scanning the whole window again?"
    )
