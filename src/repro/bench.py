"""The shared workload benchmark harness.

One place owns the "run a batch of identical-shaped sweep cells and time
them" loop: the pytest benchmarks (``benchmarks/test_bench_workloads.py``),
the CLI (``runner bench``) and the examples all call into this module, so
cell specs, batch sizes and rate arithmetic cannot drift apart between the
committed baseline and the things that compare against it.

The unit of work is one sweep cell (see :func:`repro.sweep.run_cell`) —
workload × scenario × controller × scheduler, fully assembled and torn
down — because that is what the sweep engine schedules and therefore what
end-to-end wall-clock budgets are made of.  Rates are reported both as
``cells_per_s`` (the operational number) and ``events_per_s`` (simulator
events dispatched per wall second, a hardware-independent-ish view of the
event-kernel hot path).
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from repro.sweep import run_cell

#: One representative cell per benchmarked workload.  Shapes are chosen so
#: a batch finishes in well under a second on ordinary hardware while still
#: exercising the full stack (connection setup, data path, teardown).
BENCH_CELLS: dict[str, dict] = {
    "bulk_transfer": {
        "experiment": "bulk_transfer",
        "scenario": "dual_homed",
        "scheduler": "lowest_rtt",
        "controller": "fullmesh",
        "seed_index": 0,
        "params": {"transfer_bytes": 150_000, "horizon": 20.0},
    },
    "streaming": {
        "experiment": "streaming",
        "scenario": "dual_homed",
        "scheduler": "lowest_rtt",
        "controller": "fullmesh",
        "seed_index": 0,
        "params": {"block_bytes": 16_384, "block_count": 8, "interval": 0.25,
                   "horizon": 20.0},
    },
    "http": {
        "experiment": "http",
        "scenario": "dual_homed",
        "scheduler": "lowest_rtt",
        "controller": "fullmesh",
        "seed_index": 0,
        "params": {"request_count": 4, "object_size": 40_000, "horizon": 20.0},
    },
    "longlived": {
        "experiment": "longlived",
        "scenario": "dual_homed",
        "scheduler": "lowest_rtt",
        "controller": "fullmesh",
        "seed_index": 0,
        # A short interval keeps the batch long enough to time stably; the
        # workload still spends most simulated time idle between messages.
        "params": {"message_bytes": 400, "message_interval": 0.2, "horizon": 20.0},
    },
    "bulk_many": {
        "experiment": "bulk_transfer",
        "scenario": "dual_homed",
        "scheduler": "lowest_rtt",
        "controller": "passive",
        "seed_index": 0,
        # The scale-axis cell: 50 tiny concurrent transfers through one
        # bottleneck, trace off (the capture list would dominate both the
        # wall clock and memory at this connection count).
        "connections": 50,
        "params": {"transfer_bytes": 4_000, "horizon": 10.0,
                   "trace_probe": False, "connection_stagger": 2.0},
    },
}

#: Cells per timed batch; small enough to keep a four-workload round under
#: a few seconds, large enough to amortise interpreter warm-up per batch.
CELLS_PER_ROUND = 5

#: Campaign seed of every benchmark batch (arbitrary but fixed: rates must
#: be compared across runs of the *same* cells).
BENCH_CAMPAIGN_SEED = 33

#: The workload whose rate anchors the cross-workload ratios.
RATIO_ANCHOR = "bulk_transfer"


@dataclass(frozen=True)
class BenchResult:
    """Timing of one batch of identical-shaped cells."""

    workload: str
    cells: int
    elapsed_s: float
    events_total: int

    @property
    def cells_per_s(self) -> float:
        return self.cells / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    @property
    def events_per_cell(self) -> float:
        return self.events_total / self.cells if self.cells else 0.0

    @property
    def events_per_s(self) -> float:
        return self.events_total / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    def summary(self) -> str:
        """One human-readable line (shared by pytest -s and the CLI)."""
        return (
            f"{self.workload}: {self.cells} cells in {self.elapsed_s:.2f}s "
            f"({self.cells_per_s:.1f} cells/s, ~{self.events_per_cell:.0f} events/cell, "
            f"{self.events_per_s:.0f} events/s)"
        )


def run_batch(
    workload: str,
    cells: int = CELLS_PER_ROUND,
    campaign_seed: int = BENCH_CAMPAIGN_SEED,
) -> BenchResult:
    """Time ``cells`` sweep cells of one workload (distinct seed indices)."""
    try:
        spec = BENCH_CELLS[workload]
    except KeyError:
        raise ValueError(
            f"unknown bench workload {workload!r} (have {sorted(BENCH_CELLS)})"
        ) from None
    started = time.perf_counter()
    results = [
        run_cell({**spec, "seed_index": index}, campaign_seed) for index in range(cells)
    ]
    elapsed = time.perf_counter() - started
    return BenchResult(
        workload=workload,
        cells=cells,
        elapsed_s=elapsed,
        events_total=sum(r["events_processed"] for r in results),
    )


def best_batch(
    workload: str,
    cells: int = CELLS_PER_ROUND,
    campaign_seed: int = BENCH_CAMPAIGN_SEED,
    rounds: int = 3,
) -> BenchResult:
    """Best-of-``rounds`` batch (shortest elapsed wall clock).

    Taking the fastest round is the standard noise filter for wall-clock
    benchmarks: interference from other processes only ever makes a round
    slower, so the minimum is the closest observation of the code's true
    cost.  This is what the baseline recorder and the ratio gate use.
    """
    results = [run_batch(workload, cells, campaign_seed) for _ in range(max(1, rounds))]
    return min(results, key=lambda result: result.elapsed_s)


def run_all(
    workloads: Optional[Iterable[str]] = None,
    cells: int = CELLS_PER_ROUND,
    campaign_seed: int = BENCH_CAMPAIGN_SEED,
    rounds: int = 1,
) -> dict[str, BenchResult]:
    """Run one (best-of-``rounds``) batch per workload, in sorted order."""
    names = sorted(BENCH_CELLS) if workloads is None else list(workloads)
    return {
        name: best_batch(name, cells, campaign_seed, rounds=rounds) for name in names
    }


def profile_batch(
    workload: str,
    cells: int = CELLS_PER_ROUND,
    campaign_seed: int = BENCH_CAMPAIGN_SEED,
    top: int = 25,
) -> str:
    """cProfile one batch; returns the top-``top`` cumulative-time report."""
    profiler = cProfile.Profile()
    profiler.enable()
    run_batch(workload, cells, campaign_seed)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# the committed baseline (BENCH_workloads.json)
# ----------------------------------------------------------------------
def baseline_payload(results: Mapping[str, BenchResult]) -> dict:
    """The JSON document committed as ``BENCH_workloads.json``.

    Absolute rates are machine-bound context; the cross-workload
    ``ratios_vs_bulk`` are what CI gates on, because both sides of each
    ratio run in the same session and hardware speed cancels out.
    """
    anchor = results[RATIO_ANCHOR]
    return {
        "recorded_on": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "cells_per_round": CELLS_PER_ROUND,
        "ratios_vs_bulk": {
            name: round(anchor.cells_per_s / result.cells_per_s, 3)
            for name, result in results.items()
            if name != RATIO_ANCHOR
        },
        "workloads": {
            name: {
                "cells_per_s": round(result.cells_per_s, 2),
                "events_per_cell": round(result.events_per_cell),
                "events_per_s": round(result.events_per_s),
            }
            for name, result in results.items()
        },
    }


def load_baseline(path: str) -> dict:
    """Read a committed baseline document."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def ratio_drifts(
    results: Mapping[str, BenchResult], baseline: Mapping[str, Any]
) -> dict[str, float]:
    """Fractional drift of each current bulk-vs-workload ratio.

    ``0.0`` means the ratio matches the committed baseline exactly;
    ``+0.10`` means the workload got 10 % slower *relative to bulk* (or
    bulk relatively faster).  ``baseline`` is a committed
    ``BENCH_workloads.json`` document, compared through its
    ``ratios_vs_bulk``.  Workloads absent from either side are skipped —
    the caller decides whether missing coverage is an error.
    """
    recorded = {name: float(value) for name, value in baseline["ratios_vs_bulk"].items()}
    anchor = results.get(RATIO_ANCHOR)
    drifts: dict[str, float] = {}
    if anchor is None:
        return drifts
    for name, result in results.items():
        if name == RATIO_ANCHOR or name not in recorded or not recorded[name]:
            continue
        current = anchor.cells_per_s / result.cells_per_s
        drifts[name] = current / recorded[name] - 1.0
    return drifts
