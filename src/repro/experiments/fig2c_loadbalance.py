"""Figure 2c — smarter exploitation of flow-based load balancing.

A 100 MB transfer crosses two routers that ECMP-hash every subflow onto one
of four 8 Mbps paths (delays 10/20/30/40 ms).  The client opens five
subflows.  With the in-kernel ndiffports strategy the random source ports
may hash several subflows onto the same path, producing the paper's three
completion-time clusters (~28 s with four distinct paths, ~37 s with three,
~55 s with two).  The Refresh controller measures each subflow's pacing
rate every 2.5 s, removes the slowest one and opens a replacement, so it
converges onto all four paths and concentrates near the optimum.

A full-size run (dozens of seeds at 100 MB) is expensive in pure Python;
``scale`` shrinks the transferred volume proportionally (completion times
scale accordingly) and is reported in the result.

Each run is a preset over the unified workload harness: the bulk workload
on the ECMP scenario under either the ndiffports path manager or the
refresh controller (both straight from the controller registry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.cdf import Cdf
from repro.analysis.report import format_cdf_table, format_table
from repro.net.router import EcmpGroup
from repro.netem.scenarios import EcmpScenario
from repro.workloads import Harness, HarnessSpec, cell_gc

SERVER_PORT = 7001
FULL_FILE_BYTES = 100 * 1024 * 1024


@dataclass
class RunRecord:
    """Outcome of one transfer."""

    seed: int
    variant: str
    completion_time: Optional[float]
    distinct_paths: int
    subflows_created: int


@dataclass
class Fig2cResult:
    """Completion-time CDFs of the two subflow-management strategies."""

    title: str
    cdf_ndiffports: Cdf
    cdf_refresh: Cdf
    runs: list[RunRecord]
    file_bytes: int
    scale: float
    notes: list[str] = field(default_factory=list)

    def format_report(self) -> str:
        """Text rendering of the per-variant CDFs (paper Figure 2c)."""
        lines = [
            self.title,
            f"file size: {self.file_bytes / 1e6:.1f} MB (scale {self.scale:.3f} of the paper's 100 MB)",
            format_cdf_table({"ndiffports": self.cdf_ndiffports, "refresh": self.cdf_refresh}, unit="s"),
        ]
        rows = []
        for variant in ("ndiffports", "refresh"):
            records = [run for run in self.runs if run.variant == variant]
            for paths in (4, 3, 2, 1):
                count = sum(1 for run in records if run.distinct_paths == paths)
                if count:
                    rows.append([variant, paths, count])
        lines.append("distinct ECMP paths in use at the end of the transfer:")
        lines.append(format_table(["variant", "paths", "runs"], rows))
        lines.extend(self.notes)
        return "\n".join(lines)


def _distinct_paths(scenario: EcmpScenario, conn) -> int:
    """How many distinct ECMP paths the connection's subflows hash onto."""
    group = scenario.left_router.lookup(scenario.server_address)
    if not isinstance(group, EcmpGroup):
        return 1
    indices = set()
    for flow in conn.subflows:
        if flow.bytes_scheduled == 0:
            continue
        probe = flow.socket
        from repro.net.packet import Segment

        segment = Segment(
            src=probe.local_address,
            dst=probe.remote_address,
            sport=probe.local_port,
            dport=probe.remote_port,
        )
        indices.add(group.path_index(segment))
    return len(indices)


@cell_gc()
def _run_once(
    seed: int,
    variant: str,
    file_bytes: int,
    subflow_count: int,
    refresh_interval: float,
    horizon: float,
) -> RunRecord:
    run = Harness().run(
        HarnessSpec(
            workload="bulk_transfer",
            scenario="ecmp",
            controller="refresh" if variant == "refresh" else "ndiffports",
            seed=seed,
            horizon=horizon,
            server_port=SERVER_PORT,
            params={
                "transfer_bytes": file_bytes,
                "close_when_done": True,
                # Single-homed client: let the routing table pick the
                # egress interface, like the original script did.
                "bind_local": False,
                "subflow_count": subflow_count,
                "refresh_interval": refresh_interval,
            },
            probes=(),
        )
    )

    return RunRecord(
        seed=seed,
        variant=variant,
        completion_time=run.driver.completion_time,
        distinct_paths=_distinct_paths(run.scenario, run.connection),
        subflows_created=len(run.connection.subflows),
    )


def run_fig2c(
    seeds: int = 10,
    scale: float = 0.1,
    subflow_count: int = 5,
    refresh_interval: float = 2.5,
    horizon: Optional[float] = None,
) -> Fig2cResult:
    """Run the load-balancing experiment (Figure 2c) over several seeds."""
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale!r}")
    file_bytes = int(FULL_FILE_BYTES * scale)
    # Worst case in the paper is ~112 s at full size (everything on one
    # path); scale the safety horizon accordingly.
    run_horizon = horizon if horizon is not None else max(60.0, 130.0 * scale + 30.0)

    runs: list[RunRecord] = []
    for index in range(seeds):
        for variant in ("ndiffports", "refresh"):
            runs.append(
                _run_once(
                    seed=1000 + index,
                    variant=variant,
                    file_bytes=file_bytes,
                    subflow_count=subflow_count,
                    refresh_interval=refresh_interval,
                    horizon=run_horizon,
                )
            )

    ndiff_times = [run.completion_time for run in runs if run.variant == "ndiffports" and run.completion_time]
    refresh_times = [run.completion_time for run in runs if run.variant == "refresh" and run.completion_time]
    return Fig2cResult(
        title="Figure 2c - CDF of transfer completion time over 4 ECMP paths",
        cdf_ndiffports=Cdf(ndiff_times, label="ndiffports"),
        cdf_refresh=Cdf(refresh_times, label="refresh"),
        runs=runs,
        file_bytes=file_bytes,
        scale=scale,
        notes=[
            "expectation: ndiffports clusters by the number of distinct paths its subflows hit; "
            "the refresh controller concentrates near the all-paths optimum",
        ],
    )
