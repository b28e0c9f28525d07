"""The unified workload layer: one composition for figures, apps and sweeps.

``repro.workloads`` owns the orthogonal grid the rest of the repo runs on:

* the **registries** (scenario, controller, workload, probe) — one shared
  namespace for the sweep engine, the figure presets and the CLI;
* the **harness** — the single assembly path that composes one point of
  the grid into a deterministic simulation run;
* the **probes** — pluggable metric extraction feeding both figure reports
  and sweep aggregation.

Register a workload (see :mod:`repro.workloads.catalog` for the pattern)
and it immediately becomes a sweep experiment over every scenario and a
runnable CLI cell.
"""

from repro.workloads import catalog  # noqa: F401  (registers the built-in workloads)
from repro.workloads.base import ClientSetup, HarnessContext, Workload
from repro.workloads.catalog import (
    BulkTransferWorkload,
    HttpWorkload,
    LongLivedWorkload,
    StreamingWorkload,
)
from repro.workloads.harness import (
    DEFAULT_SERVER_PORT,
    Harness,
    HarnessRun,
    HarnessSpec,
    cell_gc,
    run_workload,
)
from repro.workloads.probes import (
    DEFAULT_PROBES,
    PROBES,
    AggregateProbe,
    AppLatencyProbe,
    EventsProbe,
    FallbackProbe,
    FaultProbe,
    GoodputProbe,
    Probe,
    SubflowProbe,
    TraceProbe,
    TraceSummary,
    make_probe,
    trace_digest,
)
from repro.workloads.registry import (
    CONTROLLERS,
    SCENARIOS,
    WORKLOADS,
    get_workload,
    register_controller,
    register_scenario,
    register_workload,
)

# Registering the faulted scenario variants requires the registries above,
# so the faults catalog imports this package's submodules, never this
# package itself — importing it last closes the loop safely.
import repro.faults.catalog  # noqa: E402,F401  (registers faulted_* scenarios)

__all__ = [
    "Workload",
    "ClientSetup",
    "HarnessContext",
    "Harness",
    "HarnessSpec",
    "HarnessRun",
    "run_workload",
    "cell_gc",
    "DEFAULT_SERVER_PORT",
    "Probe",
    "TraceProbe",
    "GoodputProbe",
    "SubflowProbe",
    "AppLatencyProbe",
    "FaultProbe",
    "FallbackProbe",
    "AggregateProbe",
    "EventsProbe",
    "PROBES",
    "DEFAULT_PROBES",
    "make_probe",
    "trace_digest",
    "TraceSummary",
    "SCENARIOS",
    "CONTROLLERS",
    "WORKLOADS",
    "register_scenario",
    "register_controller",
    "register_workload",
    "get_workload",
    "BulkTransferWorkload",
    "StreamingWorkload",
    "HttpWorkload",
    "LongLivedWorkload",
]
