"""Run one benchmark workload in this process and print its figures.

Started by ``run.py`` as a child process of its own, so the peak resident
memory it reports belongs to this workload alone.  With ``--trace 0`` it
plays a fixed number of campaigns sized to about ``--seconds`` seconds,
each cold into a fresh store and then warm from it, with tracing off.
With ``--trace 1`` it runs the workload once untraced and once under the
call ledger and spans (:mod:`tracing`), and writes the spans and the
ledger to ``--out``.

Every campaign's cells are checked (:func:`bench_grids.cell_failure`) and
every campaign digest must match the others of the run and, at the
default seed, the recorded one.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from typing import Optional

from bench_grids import (
    Workload,
    campaign_digest,
    cell_failure,
    expected_digests,
    make_workload,
)
from hostclock import NOMINAL_S, HostClock
from repro.sweep import run_campaign
from tracing import Tracer

#: Warm reruns (``Workload.warm_reruns`` after each cold campaign) are
#: timed in batches of about WARM_BATCH_S, each normalised by its own host
#: samples.
WARM_BATCH_S = 0.02


class Checker:
    """Counts attempted and failed cells, and whether every output was right.

    A cell fails when it falls short of its requested work
    (:func:`bench_grids.cell_failure`) or its campaign is wrong.  A
    campaign is wrong when its digest differs from the one pinned for its
    index (the recorded one at the default seed, else its first run's),
    when a cold run hits the store, or when a warm rerun misses it.  The
    run's outputs are correct when no campaign was wrong and the negative
    control failed as it must.  A cell that falls short the same way on
    every run is a failed operation, not a wrong output.
    """

    def __init__(self, expected: list[str]) -> None:
        self.digests: dict[int, str] = dict(enumerate(expected))
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.wrong: Counter = Counter()
        self.seen: set[int] = set()

    def check(self, campaign, iteration: int, cold: bool) -> None:
        """Check every cell of a finished campaign and its digest."""
        self.seen.add(iteration)
        digest = campaign_digest(campaign)
        problem = None
        if self.digests.setdefault(iteration, digest) != digest:
            problem = "campaign digest differs from the pinned one"
        elif cold and campaign.cache_hits:
            problem = "cold run hit the store"
        elif not cold and campaign.cache_misses:
            problem = "warm rerun missed the store"
        failures = [cell_failure(cell.spec, cell.result) for cell in campaign.cells]
        if problem:
            self.wrong[problem] += 1
            failures = [reason or problem for reason in failures]
        self.attempted += len(failures)
        for reason in failures:
            if reason:
                self.failed += 1
                self.reasons[f"{reason} ({'cold' if cold else 'warm'})"] += 1

    def negative_control(self, campaign) -> None:
        """A perturbed expected digest must fail every cell of ``campaign``."""
        digest = campaign_digest(campaign)
        perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        if not all(campaign_failures(campaign, perturbed)):
            self.wrong["negative control passed a wrong digest"] += 1

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.wrong


def campaign_failures(campaign, expected: Optional[str]) -> list[Optional[str]]:
    """One failure reason (or ``None``) per cell of ``campaign``.

    A digest that differs from ``expected`` fails every cell: the canonical
    JSON does not say which cell is wrong, only that the campaign is.
    """
    reasons = [cell_failure(cell.spec, cell.result) for cell in campaign.cells]
    if expected is not None and campaign_digest(campaign) != expected:
        problem = "campaign digest differs from the expected one"
        reasons = [reason or problem for reason in reasons]
    return reasons


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: list[float], fraction: float) -> float:
    """Inclusive percentile of ``values`` (the only value when there is one)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def run_once(workload: Workload, iteration: int, store_dir: str, progress=None):
    """One campaign into ``store_dir``; returns it, its wall time and end time."""
    started = time.perf_counter()
    campaign = run_campaign(
        workload.grid(iteration), workers=workload.workers, backend=workload.backend,
        store_dir=store_dir, progress=progress,
    )
    ended = time.perf_counter()
    return campaign, ended - started, ended


def warm_up(workload: Workload) -> None:
    """Run the workload's small axis-covering grids once, unmeasured."""
    for grid in workload.warmup:
        run_campaign(grid, workers=1, backend="serial")


def timed(workload: Workload, seconds: float, work_dir: str, checker: Checker) -> tuple[dict, dict]:
    """Campaigns, each cold then warm, for about ``seconds``; end-to-end metrics.

    The run plays ``workload.campaign_count(seconds)`` campaigns, each
    followed by ``workload.warm_reruns`` warm reruns: a fixed amount of
    work, so that the attempted and failed counts depend on the seed alone.

    Every time is normalised to nominal host speed (:mod:`hostclock`).
    Campaign and cell times, and the first campaign's peak memory, are also
    scaled to the workload's reference size: a campaign that put ``p``
    packets on the simulated links counts ``reference_packets / p`` times
    its value.  The packet count is simulated behaviour, pinned by the
    digest, so a pure speed change leaves it alone, while the seed's effect
    on how much traffic a run needs (ECMP collisions force retransmissions)
    cancels out.  The raw values are returned beside the metrics.
    """
    walls: list[tuple[float, float]] = []
    warm: list[float] = []
    raw_warm: list[float] = []
    cell_ends: list[tuple[float, float, int]] = []
    scales: list[float] = []
    events = 0

    def on_cell(spec, result, cached, telemetry) -> None:
        if not cached:
            cell_ends.append((telemetry.wall_time_s, time.perf_counter(), len(walls)))

    with HostClock() as clock:
        for iteration in range(workload.campaign_count(seconds)):
            store_dir = os.path.join(work_dir, f"store-{iteration}")
            campaign, wall, ended = run_once(workload, iteration, store_dir, on_cell)
            walls.append((wall, ended))
            checker.check(campaign, iteration, cold=True)
            events += sum(cell.telemetry.sim_events for cell in campaign.cells)
            packets = sum(cell.result["trace_packets"] for cell in campaign.cells)
            scales.append(workload.reference_packets / packets)
            # Sweep up the cold run's garbage now, or the warm reruns pay
            # for collecting it.
            gc.collect()
            warm_campaign: list[float] = []
            while len(warm_campaign) < workload.warm_reruns:
                # Reruns are short, so each batch is normalised by host
                # samples taken right before and after it.
                before = clock.sample()
                batch: list[float] = []
                batch_started = time.perf_counter()
                while not batch or (
                    len(warm_campaign) + len(batch) < workload.warm_reruns
                    and time.perf_counter() - batch_started < WARM_BATCH_S
                ):
                    rerun, rerun_wall, _ = run_once(workload, iteration, store_dir)
                    batch.append(rerun_wall)
                    checker.check(rerun, iteration, cold=False)
                slowdown = (before + clock.sample()) / 2
                warm_campaign += [wall / slowdown for wall in batch]
                raw_warm += batch
            warm += warm_campaign
            shutil.rmtree(store_dir)
            if iteration == 0:
                # Later campaigns reuse memory the first one grew into, so
                # only the first campaign's peak is comparable across runs.
                peak = peak_rss_mb()
    checker.negative_control(campaign)

    walls_s = [clock.normalise(wall, end) * scale for (wall, end), scale in zip(walls, scales)]
    # Cell percentiles are taken per campaign, then the median over
    # campaigns, so the number of campaigns in a run does not bias them.
    by_campaign: list[list[float]] = [[] for _ in walls]
    for wall, end, index in cell_ends:
        by_campaign[index].append(clock.normalise(wall, end) * scales[index])
    raw_cells = [wall for wall, _, _ in cell_ends]
    metrics = {
        "wall_s": (statistics.median(walls_s), "s"),
        "cell_s_p50": (statistics.median(statistics.median(cells) for cells in by_campaign), "s"),
        "cell_s_p99": (statistics.median(percentile(cells, 0.99) for cells in by_campaign), "s"),
        "sim_events_per_s": (
            events / sum(clock.normalise(wall, end) for wall, end, _ in cell_ends), "1/s"
        ),
        "warm_rerun_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (peak * scales[0], "MiB"),
    }
    raw = {
        "peak_rss_mb": peak,
        "wall_s": statistics.median(wall for wall, _ in walls),
        "cell_s_p50": statistics.median(raw_cells),
        "cell_s_p99": percentile(raw_cells, 0.99),
        "sim_events_per_s": events / sum(raw_cells),
        "warm_rerun_s": statistics.median(raw_warm),
        "campaigns": len(walls),
        "cells": len(cell_ends),
        "warm_reruns": len(warm),
        "size_scales": scales,
        "host_slowdown": statistics.fmean(clock.costs) / NOMINAL_S,
    }
    return metrics, raw


def _span_total(spans: list[dict], name: str) -> tuple[float, int]:
    durations = [span["end"] - span["start"] for span in spans if span["name"] == name]
    return sum(durations), len(durations)


def layer_metrics(cold, warm, cold_campaign, warm_campaign) -> dict:
    """Per-layer metrics from a cold and a warm traced campaign."""
    cells = cold.cells
    counters: Counter = Counter()
    layers: Counter = Counter()
    functions: Counter = Counter()
    builtins = sim_events = 0
    setup = collect = 0.0
    for record in cells:
        counters.update(record["counters"])
        layers.update(record["ledger"]["layers"])
        functions.update(record["ledger"]["functions"])
        builtins += record["ledger"]["builtins"]
        sim_events += record["sim_events"]
        by_name = {span["name"]: span for span in record["spans"]}
        harness, loop = by_name["workloads.harness_run"], by_name["sim.run"]
        setup += loop["start"] - harness["start"]
        collect += harness["end"] - loop["end"]
    segments = counters["segments_delivered"]
    total = sum(layers.values()) + builtins
    cold_spans = cold.all_spans()
    metrics = {
        f"{layer}.calls_per_seg": (layers[layer] / segments, "calls/seg")
        for layer in ("tcp", "net", "sim", "mptcp", "core", "apps", "workloads", "obs", "stdlib")
    }
    metrics["builtins.calls_per_seg"] = (builtins / segments, "calls/seg")
    metrics["total.calls_per_seg"] = (total / segments, "calls/seg")
    metrics["sim.events_per_seg"] = (sim_events / segments, "events/seg")
    connections = counters["connections_initiated"]
    metrics["core.calls_per_conn"] = (layers["core"] / connections, "calls/conn")
    metrics["mptcp.subflows_per_conn"] = (
        functions["repro.mptcp.subflow:Subflow.__init__"]
        / functions["repro.mptcp.connection:MptcpConnection.__init__"],
        "subflows/conn",
    )
    metrics["tcp.rtx_per_sent"] = (counters["retransmissions"] / counters["segments_sent"], "ratio")
    for metric, span in (
        ("sim.run_s", "sim.run"),
        ("netem.build_s", "netem.build"),
        ("workloads.trace_digest_s", "workloads.trace_digest"),
        ("sweep.plan_s", "sweep.plan"),
        ("sweep.execute_s", "sweep.execute"),
        ("sweep.merge_s", "sweep.merge"),
    ):
        metrics[metric] = (_span_total(cold_spans, span)[0], "s")
    metrics["workloads.setup_s"] = (setup, "s")
    metrics["workloads.collect_s"] = (collect, "s")
    busy = _span_total(cold_spans, "sweep.cell")[0]
    execute = metrics["sweep.execute_s"][0]
    metrics["sweep.worker_busy_frac"] = (busy / (cold_campaign.workers_used * execute), "ratio")
    for operation in ("put_cell", "commit_manifest"):
        seconds, count = _span_total(cold_spans, f"store.{operation}")
        metrics[f"store.{operation}_s"] = (seconds, "s")
        metrics[f"store.{operation}_count"] = (count, "count")
    seconds, lookups = _span_total(warm.all_spans(), "store.get_cell")
    metrics["store.get_cell_s"] = (seconds, "s")
    metrics["store.hit_ratio"] = (warm_campaign.cache_hits / lookups, "ratio")
    metrics["workloads.trace_records"] = (
        sum(cell.result.get("trace_packets", 0) for cell in cold_campaign.cells), "count"
    )
    return metrics


def traced(workload: Workload, work_dir: str, out_path: str, checker: Checker) -> tuple[dict, dict]:
    """One untraced and one traced campaign; per-layer metrics."""
    with Tracer():
        warm_up(workload)
    untraced_dir = os.path.join(work_dir, "store-untraced")
    campaign, untraced_wall, _ = run_once(workload, 0, untraced_dir)
    checker.check(campaign, 0, cold=True)
    shutil.rmtree(untraced_dir)

    traced_dir = os.path.join(work_dir, "store-traced")
    with Tracer() as cold:
        cold_campaign, traced_wall, _ = run_once(workload, 0, traced_dir)
    checker.check(cold_campaign, 0, cold=True)
    with Tracer() as warm:
        warm_campaign, _, _ = run_once(workload, 0, traced_dir)
    checker.check(warm_campaign, 0, cold=False)
    shutil.rmtree(traced_dir)
    checker.negative_control(cold_campaign)

    metrics = layer_metrics(cold, warm, cold_campaign, warm_campaign)
    metrics["obs.trace_overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    functions: Counter = Counter()
    for record in cold.cells:
        functions.update(record["ledger"]["functions"])
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "spans": {"cold": cold.all_spans(), "warm": warm.all_spans()},
                "cells": [
                    {key: record[key] for key in ("cell", "pid", "counters", "sim_events")}
                    | {key: record["ledger"][key] for key in ("layers", "builtins")}
                    for record in cold.cells
                ],
                "functions": dict(functions.most_common()),
                "metrics": {name: value for name, (value, _) in metrics.items()},
            },
            handle,
        )
    return metrics, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", help="where the traced pass writes its spans and ledger")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    checker = Checker(expected_digests(args.workload, args.seed))
    os.makedirs(args.work_dir, exist_ok=True)
    if args.trace:
        metrics, raw = traced(workload, args.work_dir, args.out, checker)
    else:
        warm_up(workload)
        metrics, raw = timed(workload, args.seconds, args.work_dir, checker)
    for reason, count in (checker.wrong + checker.reasons).most_common():
        print(f"failed x{count}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "digests": [checker.digests[index] for index in sorted(checker.seen)],
        "raw": raw,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
