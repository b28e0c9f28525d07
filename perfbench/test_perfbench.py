"""Tests of the benchmark itself: determinism, purity, names, checks.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.  Every grid here is a small variant of a benchmark
workload, so the file runs in seconds.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace

import pytest

from bench_grids import WORKLOAD_NAMES, _fig2c_bulk, _pm_churn, make_workload
from measure import Checker, campaign_failures, timed, traced, warm_up
from repro.sweep import run_campaign
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _small(name: str):
    """A cheap stand-in for workload ``name`` with the same axes."""
    workload = make_workload(name, seed=5)
    if name == "fig2c_bulk":
        return replace(workload, build=lambda seed: _fig2c_bulk(seed, scale=0.003))
    if name == "pm_churn":
        return replace(workload, build=lambda seed: _pm_churn(seed, request_count=15, seeds=2))
    return replace(workload, build=lambda seed: workload.warmup[1])


def _traced_counts(workload, backend: str) -> list:
    with Tracer() as tracer:
        run_campaign(workload.grid(), workers=2, backend=backend)
    return sorted(
        (record["cell"], record["ledger"], record["counters"], record["sim_events"])
        for record in tracer.cells
    )


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_two_traced_runs_give_identical_ledger_counts(name):
    workload = _small(name)
    with Tracer():
        warm_up(workload)
    first = _traced_counts(workload, workload.backend)
    second = _traced_counts(workload, workload.backend)
    assert first and first == second
    totals = [sum(ledger["layers"].values()) for _, ledger, _, _ in first]
    assert all(total > 0 for total in totals)


def test_pool_and_serial_traced_runs_count_the_same_calls():
    workload = _small("full_grid")
    with Tracer():
        warm_up(workload)
    assert _traced_counts(workload, "pool") == _traced_counts(workload, "serial")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workloads_are_a_pure_function_of_the_seed(name):
    grids = [make_workload(name, 3).grid(i).as_dict() for i in range(2)]
    assert grids == [make_workload(name, 3).grid(i).as_dict() for i in range(2)]
    assert grids[0] != grids[1]
    assert make_workload(name, 4).grid(0).as_dict() != grids[0]


def test_metric_names_are_well_formed_and_unique():
    spec = _benchmark_json()
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]
    ]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert {entry["name"] for entry in spec["workloads"]} == set(WORKLOAD_NAMES)


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    workload = _small("pm_churn")
    checker = Checker([])
    metrics, _ = traced(workload, str(tmp_path / "work"), str(tmp_path / "trace.json"), checker)
    assert checker.correct, checker.wrong
    # setup.import_s comes from the fresh interpreters run.py starts.
    reported = set(metrics) | {"setup.import_s"}
    assert reported == {entry["name"] for entry in _benchmark_json()["per_layer"]}
    assert metrics["obs.calls_per_seg"][0] == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    cells = {span["cell"] for span in trace["spans"]["cold"] if span["name"] == "sim.run"}
    assert len(cells) == workload.grid().cell_count


def test_checks_fail_wrong_digests_and_short_cells():
    workload = _small("fig2c_bulk")
    campaign = run_campaign(workload.grid())
    assert not any(campaign_failures(campaign, None))

    checker = Checker([])
    checker.check(campaign, 0, cold=True)
    checker.negative_control(campaign)
    assert checker.correct and checker.failed == 0

    perturbed = "0" * 64
    assert all(campaign_failures(campaign, perturbed))
    checker = Checker([perturbed])
    checker.check(campaign, 0, cold=True)
    assert checker.failed == campaign.cell_count and not checker.correct

    # A short cell is a failed operation; the run's outputs stay correct
    # as long as the campaign's digest is the pinned one.
    campaign.cells[0].result["bytes_delivered"] -= 1
    assert campaign_failures(campaign, None)[0].startswith("delivered")
    checker = Checker([])
    checker.check(campaign, 0, cold=True)
    assert checker.failed == 1 and checker.correct


def test_timed_runs_do_the_same_work_whatever_the_host_speed(tmp_path):
    workload = replace(_small("pm_churn"), campaign_s=1.0, warm_reruns=4)
    assert workload.campaign_count(2.4) == 2 and workload.campaign_count(0.1) == 1
    counts = []
    for attempt in range(2):
        checker = Checker([])
        _, raw = timed(workload, 2.4, str(tmp_path / f"work-{attempt}"), checker)
        assert checker.correct, checker.wrong
        assert raw["campaigns"] == 2 and raw["warm_reruns"] == 2 * 4
        counts.append((checker.attempted, checker.failed))
    assert counts[0] == counts[1] == (2 * (1 + 4) * workload.grid().cell_count, 0)
