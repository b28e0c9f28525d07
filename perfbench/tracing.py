"""The traced pass: a call ledger and spans, installed from outside ``src/``.

The :class:`Ledger` counts every Python call (``sys.setprofile`` "call"
events) against the module that owns the called code, and counts C calls
("c_call" events) as one ``builtins`` total.  Counts are exact and repeat
run to run, unlike times.

The :class:`Tracer` records spans around calls into each layer's public
functions by replacing those functions for the duration of a ``with``
block: the sweep phases, the store's reads and writes, the harness, the
scenario builders, the simulator loop and the trace digest.  Spans of one
cell share the cell's key.  Cells may run in pool workers: the workers are
forked from the instrumented process, so they run the same wrappers, and
each cell's spans, ledger counts and stack counters travel back to the
parent inside the cell's payload.  Nothing is written until the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from typing import Any, Callable, Optional

import repro.sweep.backends as backends
import repro.sweep.engine as engine
import repro.workloads.probes as probes
from repro.sim.engine import Simulator
from repro.store import CampaignStore
from repro.sweep.grid import CellSpec
from repro.workloads.harness import Harness
from repro.workloads.registry import SCENARIOS

#: Payload key under which a cell's trace record travels back to the parent.
PAYLOAD_KEY = "perfbench"


def layer_of(module: Optional[str]) -> str:
    """The layer a module belongs to: ``repro.<layer>...``, else ``stdlib``.

    This module's own wrappers are the ``perfbench`` layer, which the
    ledger leaves out.
    """
    if module is None:
        return "stdlib"
    if module == __name__:
        return "perfbench"
    parts = module.split(".")
    if parts[0] == "repro":
        return parts[1] if len(parts) > 1 else "repro"
    return "stdlib"


class Ledger:
    """Python call counts keyed by code object, and a C call count.

    Python calls are attributed to the module that owns the called code; C
    calls are counted unless the benchmark's own wrappers made them.
    """

    def __init__(self) -> None:
        self.calls: dict = {}
        self.modules: dict = {}
        self.c_calls = 0
        self._previous = None

    def __enter__(self) -> "Ledger":
        calls, modules = self.calls, self.modules
        own_globals = globals()
        c_calls = 0

        def hook(frame, event, arg):
            nonlocal c_calls
            if event == "call":
                code = frame.f_code
                count = calls.get(code)
                if count is None:
                    modules[code] = frame.f_globals.get("__name__")
                    calls[code] = 1
                else:
                    calls[code] = count + 1
            elif event == "c_call" and frame.f_globals is not own_globals:
                c_calls += 1

        def c_call_count() -> int:
            return c_calls

        self._c_call_count = c_call_count
        self._previous = sys.getprofile()
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous)
        self.c_calls = self._c_call_count()

    def summary(self) -> dict:
        """Plain-dict counts: Python calls per layer and per function, C calls.

        ``layers`` maps a layer name to the Python calls into its code,
        ``functions`` maps ``module:qualname`` to its calls, and
        ``builtins`` counts C calls.
        """
        layers: Counter = Counter()
        functions: Counter = Counter()
        for code, count in self.calls.items():
            layer = layer_of(self.modules[code])
            if layer == "perfbench":
                continue
            layers[layer] += count
            functions[f"{self.modules[code]}:{code.co_qualname}"] += count
        return {"layers": dict(layers), "builtins": self.c_calls, "functions": dict(functions)}


class Tracer:
    """Spans around each layer's public calls, plus per-cell ledgers.

    Use as a context manager; the layer functions are replaced on entry and
    restored on exit.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.cells: list[dict] = []
        self._stack: list[str] = []
        self._next_id = 0
        self._cell_record: Optional[dict] = None
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _span(self, name: str, function: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            span_id = f"{os.getpid()}-{tracer._next_id}"
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                record = tracer._cell_record
                (tracer.spans if record is None else record["spans"]).append(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "cell": None if record is None else record["cell"]}
                )

        return traced

    def _replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, attribute, owner[attribute]))
            owner[attribute] = replacement
        else:
            self._restore.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)

    # ------------------------------------------------------------------
    # the per-cell wrapper (runs in whichever process runs the cell)
    # ------------------------------------------------------------------
    def _wrap_cell(self, function: Callable) -> Callable:
        tracer = self

        def run_cell_with_telemetry(spec_dict, campaign_seed):
            key = CellSpec.from_dict(spec_dict).key
            tracer._cell_record = {"cell": key, "pid": os.getpid(), "spans": [], "counters": {}}
            try:
                with Ledger() as ledger:
                    payload = cell_span(spec_dict, campaign_seed)
                tracer._cell_record["ledger"] = ledger.summary()
                payload = dict(payload)
                payload[PAYLOAD_KEY] = tracer._cell_record
                return payload
            finally:
                tracer._cell_record = None

        cell_span = self._span("sweep.cell", function)
        # Pool workers receive the function by reference, so the name it is
        # pickled under must resolve to this wrapper: the backends module's.
        run_cell_with_telemetry.__module__ = backends.__name__
        run_cell_with_telemetry.__qualname__ = function.__qualname__
        return run_cell_with_telemetry

    def _wrap_run_cells(self, function: Callable) -> Callable:
        tracer = self

        def run_cells(backend, pending, campaign_seed, workers, on_cell, store=None):
            def collect(index, payload):
                record = payload.pop(PAYLOAD_KEY, None)
                if record is None:
                    raise RuntimeError(
                        "a cell came back without its trace record; pool workers "
                        "must be forked from the traced process"
                    )
                tracer.cells.append(record)
                on_cell(index, payload)

            return function(backend, pending, campaign_seed, workers, collect, store=store)

        return run_cells

    def _wrap_harness_run(self, function: Callable) -> Callable:
        tracer = self

        def run(harness, spec):
            finished = function(harness, spec)
            if tracer._cell_record is not None:
                counters: Counter = Counter(finished.client.stack.counters())
                counters.update(finished.server_stack.counters())
                tracer._cell_record["counters"] = dict(counters)
                tracer._cell_record["sim_events"] = finished.sim.processed_events
            return finished

        return self._span("workloads.harness_run", run)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self._replace(engine, "plan_campaign", self._span("sweep.plan", engine.plan_campaign))
        self._replace(engine, "execute_plan", self._span("sweep.execute", engine.execute_plan))
        self._replace(engine, "merge_campaign", self._span("sweep.merge", engine.merge_campaign))
        for method, span in (
            ("put_cell", "store.put_cell"),
            ("get_cell", "store.get_cell"),
            ("commit_manifest_if_changed", "store.commit_manifest"),
        ):
            self._replace(CampaignStore, method, self._span(span, getattr(CampaignStore, method)))
        self._replace(
            backends, "run_cell_with_telemetry", self._wrap_cell(backends.run_cell_with_telemetry)
        )
        for backend in (backends.SerialBackend, backends.ProcessPoolBackend):
            self._replace(backend, "run_cells", self._wrap_run_cells(backend.run_cells))
        self._replace(Harness, "run", self._wrap_harness_run(Harness.run))
        self._replace(Simulator, "run", self._span("sim.run", Simulator.run))
        self._replace(
            probes, "trace_digest", self._span("workloads.trace_digest", probes.trace_digest)
        )
        for name, builder in list(SCENARIOS.items()):
            self._replace(SCENARIOS, name, self._span("netem.build", builder))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    def all_spans(self) -> list[dict]:
        """Parent-side spans followed by every cell's spans."""
        return self.spans + [span for cell in self.cells for span in cell["spans"]]
