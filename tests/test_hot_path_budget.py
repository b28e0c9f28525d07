"""Call budgets per layer on the lossy bulk data path.

Each budget guards a hot path whose extra cost changes no result, only the
number of Python calls, so the test counts them: one lossy
``bulk_transfer`` x ``ecmp`` cell runs under a ``sys.setprofile`` hook that
counts every Python call into code owned by a ``repro.<layer>`` module, and
each layer's count per delivered segment (both stacks'
``segments_delivered`` counters) must stay within its budget in
:data:`CALLS_PER_SEGMENT`.  Collect-time work (the trace probe's digest)
runs inside ``Harness.run`` and is counted too.

* ``tcp``: loss recovery must cost O(holes + SACK blocks) per ACK, not
  O(window).  Measured: 20.0; the window walks this guards against cost
  228.7 on the same cell.
* ``net``: per-hop forwarding resolves route, ECMP member and interface
  state from the segment's ints and plain attributes (no ``IPAddress`` or
  ``FourTuple`` rebuilt per hop), and the capture digest formats each
  segment once, not once per hop.  Measured: 36.0; the per-hop property
  chain this guards against cost 82.6.
* ``sim``: the clock is a plain attribute and the pooled/re-armed event
  paths place their entry without an ``_insert`` call.  Measured: 11.1;
  with a ``now`` property and the extra call it cost 23.3.
* ``mptcp``: the scheduler reads ``Subflow.socket`` as an attribute.
  Measured: 17.4; with the property chain it cost 25.4.

The commit before these fast paths fails the net, sim and mptcp budgets.
The counts are exact and repeat run to run on one interpreter version.  A
warm-up cell runs first so lazy imports and first-use caches are not
counted.  Measured on CPython 3.11; the budgets leave headroom for
comprehensions, which are calls before Python 3.12 and inlined from 3.12
on.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.workloads import Harness, HarnessSpec

#: Python calls into each ``repro.<layer>`` per delivered segment.
CALLS_PER_SEGMENT = {"tcp": 40.0, "net": 45.0, "sim": 15.0, "mptcp": 22.0}

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


def _calls_by_layer(spec: HarnessSpec):
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[_layer(frame.f_globals.get("__name__"))] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run = Harness().run(spec)
    finally:
        sys.setprofile(previous)
    return calls, run


@pytest.fixture(scope="module")
def lossy_bulk_cell():
    Harness().run(_bulk_over_ecmp(seed=2, transfer_bytes=50_000))
    calls, run = _calls_by_layer(_bulk_over_ecmp(seed=1, transfer_bytes=TRANSFER_BYTES))
    client, server = run.client.stack.counters(), run.server_stack.counters()
    assert run.metrics["bytes_delivered"] == TRANSFER_BYTES
    # The cell must exercise loss recovery, or the budgets prove nothing.
    assert client["retransmissions"] > 0
    return calls, client["segments_delivered"] + server["segments_delivered"]


@pytest.mark.parametrize("layer", sorted(CALLS_PER_SEGMENT))
def test_calls_per_delivered_segment_within_budget(lossy_bulk_cell, layer):
    calls, segments = lossy_bulk_cell
    per_segment = calls[layer] / segments
    budget = CALLS_PER_SEGMENT[layer]
    assert per_segment <= budget, (
        f"{per_segment:.1f} repro.{layer} calls per delivered segment exceeds the budget of "
        f"{budget}: is a per-segment path walking a window or a property chain again?"
    )
