"""Delta-debugging failing fault plans down to minimal counterexamples.

``runner fuzz --shrink`` lands here: given a failing plan and a
deterministic failure predicate, :func:`shrink_plan` runs the classic
ddmin loop over the plan's event list and returns the smallest event
subsequence that still fails.  The result is packaged as a
machine-readable counterexample artifact that can be committed as a test
fixture and replayed byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.faults.inject import faulted
from repro.faults.plan import FaultPlan

#: Bump when the counterexample artifact schema changes incompatibly.
COUNTEREXAMPLE_FORMAT_VERSION = 1


@dataclass
class ShrinkResult:
    """The outcome of one ddmin run."""

    original: FaultPlan
    minimal: FaultPlan
    evaluations: int
    steps: list[dict] = field(default_factory=list)

    @property
    def removed_events(self) -> int:
        """How many events the shrink eliminated."""
        return len(self.original) - len(self.minimal)


def shrink_plan(
    plan: FaultPlan,
    failing: Callable[[FaultPlan], bool],
    max_evaluations: int = 200,
) -> ShrinkResult:
    """Reduce ``plan`` to a minimal failing event subsequence (ddmin).

    ``failing(plan)`` must be deterministic; results are memoised by event
    subset, so re-testing a subset costs nothing.  The returned plan is
    1-minimal: removing any single remaining event makes the failure
    disappear (unless ``max_evaluations`` was exhausted first, which the
    step log records).
    """
    if not failing(plan):
        raise ValueError("plan does not fail: nothing to shrink")

    cache: dict[tuple[int, ...], bool] = {}
    evaluations = 0
    steps: list[dict] = []

    def test(indices: tuple[int, ...]) -> bool:
        nonlocal evaluations
        if indices in cache:
            return cache[indices]
        if evaluations >= max_evaluations:
            cache[indices] = False
            return False
        evaluations += 1
        fails = bool(failing(plan.subset(indices)))
        cache[indices] = fails
        steps.append({"events": list(indices), "failed": fails})
        return fails

    current = tuple(range(len(plan)))
    cache[current] = True
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk:]
            if candidate and test(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(current), granularity * 2)
    return ShrinkResult(
        original=plan,
        minimal=plan.subset(current),
        evaluations=evaluations,
        steps=steps,
    )


def cell_failure_predicate(
    workload: str,
    base_scenario: str,
    seed: int = 1,
    horizon: float = 15.0,
    params: Optional[Mapping] = None,
    controller: str = "passive",
    scheduler: str = "lowest_rtt",
    goodput_floor: float = 0.5,
    target_verdict: str = "failed",
):
    """Build the failure predicate for one harness cell.

    Runs the clean twin once, then judges each candidate plan by running
    the same cell under :func:`~repro.faults.inject.faulted` and comparing
    metrics with :func:`repro.analysis.faults.evaluate_cell`.  The plan
    "fails" when the triage verdict equals ``target_verdict`` — ``failed``
    for classic counterexamples, ``fallback`` to minimise a plan down to
    the events that force a plain-TCP downgrade.  Returns
    ``(failing, clean_metrics)``.
    """
    from repro.analysis.faults import evaluate_cell
    from repro.workloads.harness import Harness, HarnessSpec, cell_gc
    from repro.workloads.registry import SCENARIOS

    base_builder = SCENARIOS[base_scenario]

    @cell_gc()
    def run_with(plan: Optional[FaultPlan]) -> dict:
        scenario = (
            base_builder if plan is None else faulted(base_builder, base_scenario, plan=plan)
        )
        run = Harness().run(
            HarnessSpec(
                workload=workload,
                scenario=scenario,
                controller=controller,
                scheduler=scheduler,
                seed=seed,
                horizon=horizon,
                params=dict(params or {}),
            )
        )
        return dict(run.metrics)

    clean = run_with(None)

    def failing(plan: FaultPlan) -> bool:
        verdict = evaluate_cell(run_with(plan), clean, goodput_floor=goodput_floor)
        return verdict["verdict"] == target_verdict

    return failing, clean


def counterexample_artifact(
    result: ShrinkResult,
    workload: str,
    base_scenario: str,
    seed: int,
    horizon: float,
    controller: str = "passive",
    scheduler: str = "lowest_rtt",
    params: Optional[Mapping] = None,
    plan_name: Optional[str] = None,
    target_verdict: str = "failed",
) -> dict:
    """Package a shrink result as a deterministic, committable artifact."""
    return {
        "counterexample_format_version": COUNTEREXAMPLE_FORMAT_VERSION,
        "cell": {
            "workload": workload,
            "base_scenario": base_scenario,
            "controller": controller,
            "scheduler": scheduler,
            "seed": int(seed),
            "horizon": horizon,
            "params": dict(params or {}),
        },
        "plan_name": plan_name,
        "target_verdict": target_verdict,
        "original_events": len(result.original),
        "minimal_events": len(result.minimal),
        "evaluations": result.evaluations,
        "minimal_plan": result.minimal.as_dict(),
        "minimal_described": [event.describe() for event in result.minimal.events],
    }


def counterexample_json(artifact: Mapping) -> str:
    """The canonical byte-stable rendering of a counterexample artifact."""
    return json.dumps(artifact, sort_keys=True, indent=2) + "\n"


def write_counterexample(artifact: Mapping, path: str) -> None:
    """Write an artifact to disk in canonical form."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(counterexample_json(artifact))


def load_counterexample(path: str) -> dict:
    """Load a committed counterexample, checking the schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    version = artifact.get("counterexample_format_version")
    if version != COUNTEREXAMPLE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported counterexample format version {version!r} "
            f"(expected {COUNTEREXAMPLE_FORMAT_VERSION})"
        )
    return artifact
