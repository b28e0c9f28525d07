"""Figure 2a — smarter backup: data-sequence progress across the handover.

A bulk transfer starts on the primary path; after ``loss_start`` seconds
the primary path becomes very lossy (30 % in the paper).  The smart backup
controller watches the ``timeout`` events and, once the reported RTO
exceeds its threshold (1 s), closes the primary subflow and creates a
subflow over the backup path.  The figure plots the data sequence numbers
of the segments sent over time, coloured by subflow; the reproduction
returns exactly that series plus the controller's switch time.

The kernel-only baseline (a backup-flagged subflow that is only used after
the primary dies from ~15 RTO doublings) can optionally be simulated too;
the paper reports it takes about 12 minutes with the default Linux
configuration.

Both variants are presets over the unified workload harness: the bulk
workload composed with a dual-homed scenario, a smart-backup (or passive)
client stack, a trace probe and a scheduled loss-onset hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.analysis.report import format_table
from repro.analysis.trace import SubflowSequenceTrace
from repro.core.controllers import SmartBackupController
from repro.core.manager import SmappManager
from repro.mptcp.subflow import SubflowOrigin
from repro.net.addressing import FourTuple
from repro.netem.scenarios import build_dual_homed
from repro.workloads import ClientSetup, Harness, HarnessSpec, TraceProbe, cell_gc

SERVER_PORT = 5001


@dataclass
class Fig2aResult:
    """Everything needed to redraw Figure 2a."""

    title: str
    trace: SubflowSequenceTrace
    primary: Optional[FourTuple]
    backup: Optional[FourTuple]
    loss_start: float
    switch_time: Optional[float]
    bytes_on_primary: int
    bytes_on_backup: int
    duration: float
    baseline_failover_time: Optional[float] = None
    notes: list[str] = field(default_factory=list)

    def format_report(self, bucket: float = 0.5) -> str:
        """Text rendering of the sequence-progress series (paper Figure 2a)."""
        rows = []
        time = 0.0
        while time <= self.duration + 1e-9:
            primary_seq = self.trace.highest_seq_before(time, self.primary) if self.primary else 0
            backup_seq = self.trace.highest_seq_before(time, self.backup) if self.backup else 0
            rows.append(
                [
                    f"{time:.1f}",
                    f"{primary_seq / 1e5:.2f}",
                    f"{backup_seq / 1e5:.2f}",
                ]
            )
            time += bucket
        lines = [
            self.title,
            format_table(["time (s)", "master seq (1e5 B)", "backup seq (1e5 B)"], rows),
            f"loss on primary from t={self.loss_start:.1f}s; controller switch at "
            + (f"t={self.switch_time:.2f}s" if self.switch_time is not None else "never"),
            f"bytes sent on primary={self.bytes_on_primary}  backup={self.bytes_on_backup}",
        ]
        if self.baseline_failover_time is not None:
            lines.append(
                f"kernel-only backup baseline failover after {self.baseline_failover_time:.0f}s "
                f"({self.baseline_failover_time / 60:.1f} minutes)"
            )
        lines.extend(self.notes)
        return "\n".join(lines)


def _smart_backup_client(ctx, rto_threshold: float) -> ClientSetup:
    """Client stack preset: SMAPP manager with the smart backup controller."""
    manager = SmappManager(ctx.sim, ctx.scenario.client)
    controller = manager.attach_controller(
        SmartBackupController,
        backup_local_address=ctx.scenario.client_addresses[1],
        backup_remote_address=ctx.scenario.server_addresses[1],
        backup_remote_port=SERVER_PORT,
        rto_threshold=rto_threshold,
    )
    return ClientSetup(manager.stack, manager=manager, controller=controller)


def _schedule_loss(run, loss_start: float, loss_percent: float) -> None:
    """Hook: the primary path turns lossy at ``loss_start``."""
    run.sim.schedule(
        loss_start, run.scenario.path_links[0].set_loss_rate, loss_percent / 100.0
    )


@cell_gc()
def run_fig2a(
    seed: int = 1,
    duration: float = 5.0,
    loss_start: float = 1.0,
    loss_percent: float = 30.0,
    rto_threshold: float = 1.0,
    rate_mbps: float = 2.0,
    delay_ms: float = 10.0,
    transfer_bytes: int = 8_000_000,
    include_baseline: bool = False,
    baseline_horizon: float = 1800.0,
) -> Fig2aResult:
    """Run the smart-backup handover experiment (Figure 2a)."""
    trace_probe = TraceProbe(tracer_name="capture")
    run = Harness().run(
        HarnessSpec(
            workload="bulk_transfer",
            scenario=lambda sim: build_dual_homed(sim, rate_mbps=rate_mbps, delay_ms=delay_ms),
            controller=partial(_smart_backup_client, rto_threshold=rto_threshold),
            seed=seed,
            horizon=duration,
            server_port=SERVER_PORT,
            params={"transfer_bytes": transfer_bytes, "close_when_done": False},
            probes=(trace_probe,),
            hooks=(partial(_schedule_loss, loss_start=loss_start, loss_percent=loss_percent),),
        )
    )

    trace = trace_probe.sequence_trace()
    primary_tuple = None
    backup_tuple = None
    bytes_primary = 0
    bytes_backup = 0
    for flow in run.connection.subflows:
        if flow.is_initial:
            primary_tuple = flow.four_tuple
            bytes_primary = flow.bytes_scheduled
        elif flow.origin is SubflowOrigin.CONTROLLER:
            backup_tuple = flow.four_tuple
            bytes_backup = flow.bytes_scheduled

    switch_time = run.client.controller.switch_times.get(run.connection.local_token)

    baseline_failover = None
    if include_baseline:
        baseline_failover = _run_kernel_backup_baseline(
            seed=seed,
            loss_start=loss_start,
            loss_percent=loss_percent,
            rate_mbps=rate_mbps,
            delay_ms=delay_ms,
            horizon=baseline_horizon,
        )

    return Fig2aResult(
        title="Figure 2a - smart backup handover (data sequence progress per subflow)",
        trace=trace,
        primary=primary_tuple,
        backup=backup_tuple,
        loss_start=loss_start,
        switch_time=switch_time,
        bytes_on_primary=bytes_primary,
        bytes_on_backup=bytes_backup,
        duration=duration,
        baseline_failover_time=baseline_failover,
    )


def _schedule_kernel_backup(run) -> None:
    """Hook: open a backup-flagged subflow shortly after establishment."""
    conn = run.connection
    scenario = run.scenario
    sim = run.sim

    def open_backup() -> None:
        if conn.established:
            conn.create_subflow(
                scenario.client_addresses[1],
                remote_address=scenario.server_addresses[1],
                remote_port=SERVER_PORT,
                backup=True,
            )
        else:
            sim.schedule(0.1, open_backup)

    sim.schedule(0.2, open_backup)


def _run_kernel_backup_baseline(
    seed: int,
    loss_start: float,
    loss_percent: float,
    rate_mbps: float,
    delay_ms: float,
    horizon: float,
) -> Optional[float]:
    """Kernel-only semantics: the backup subflow exists from the start but is
    only used once the primary subflow has died from repeated RTO expirations.

    Returns the time at which data first flows on the backup subflow, or
    ``None`` if it never happens within ``horizon``.
    """
    run = Harness().run(
        HarnessSpec(
            workload="bulk_transfer",
            scenario=lambda sim: build_dual_homed(sim, rate_mbps=rate_mbps, delay_ms=delay_ms),
            controller="passive",
            seed=seed + 1000,
            horizon=horizon,
            server_port=SERVER_PORT,
            params={"transfer_bytes": 50_000_000, "close_when_done": False},
            probes=(),
            hooks=(
                _schedule_kernel_backup,
                partial(_schedule_loss, loss_start=loss_start, loss_percent=loss_percent),
            ),
        )
    )

    conn = run.connection
    backup_flow = None
    for flow in conn.subflows:
        if flow.backup:
            backup_flow = flow
    if backup_flow is None or backup_flow.bytes_scheduled == 0:
        return None
    # The initial subflow's death is what unlocks the backup subflow.
    initial = conn.initial_subflow
    if initial is not None and initial.closed_at is not None:
        return initial.closed_at
    return None
