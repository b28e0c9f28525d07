"""Command-line entry point: ``smapp-experiments``.

Runs one (or all) of the paper-reproduction experiments and prints the
text rendering of the corresponding figure.  Scaling options keep the run
times reasonable on a laptop; ``docs/CLI.md`` lists each figure's scaled
defaults.

Beyond the figure presets, ``sweep`` runs a named campaign grid, ``cell``
runs one arbitrary workload × scenario × controller × scheduler point of
the harness, ``list`` prints every registry the grid is built from, and
the regression-gate pair ``baseline`` / ``diff`` snapshots a campaign to
a committed JSON file and compares a fresh (or stored) run against it —
``diff`` exits non-zero on out-of-tolerance drift, which is what CI keys
on.

Each subcommand owns its flags (``argparse`` subparsers), so e.g.
``fig2a --baseline`` (include the kernel-only baseline run) and
``diff --baseline PATH`` (the snapshot to compare against) coexist.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Optional, Sequence, Union

from repro.experiments.fig2a_backup import run_fig2a
from repro.experiments.fig2b_streaming import run_fig2b
from repro.experiments.fig2c_loadbalance import run_fig2c
from repro.experiments.fig3_pm_delay import run_fig3
from repro.experiments.grids import named_grid
from repro.experiments.longlived import run_longlived
from repro.sweep.engine import run_campaign
from repro.sweep.report import format_campaign_report, format_diff_report

#: A handler returns the report text, optionally paired with an exit code.
HandlerResult = Union[str, tuple[str, int]]


def _run_fig2a(args: argparse.Namespace) -> str:
    result = run_fig2a(seed=args.seed, include_baseline=args.baseline)
    return result.format_report()


def _run_fig2b(args: argparse.Namespace) -> str:
    result = run_fig2b(seed=args.seed, block_count=args.blocks, include_smart_sweep=args.sweep)
    return result.format_report()


def _run_fig2c(args: argparse.Namespace) -> str:
    result = run_fig2c(seeds=args.runs, scale=args.scale)
    return result.format_report()


def _run_fig3(args: argparse.Namespace) -> str:
    result = run_fig3(seed=args.seed, request_count=args.requests, stressed=args.stressed)
    return result.format_report()


def _run_longlived(args: argparse.Namespace) -> str:
    result = run_longlived(seed=args.seed, duration=args.duration)
    return result.format_report()


def _sweep_progress_printer(total: int) -> Callable:
    """A live ``cells done/total + ETA`` line for ``sweep --progress``.

    Writes to stderr (and only there), so piping stdout — reports, JSON,
    canonical output — stays byte-identical with the flag on.  The ETA
    extrapolates the observed per-cell pace over the remaining cells.
    """
    state = {"done": 0, "cached": 0, "started": time.monotonic()}

    def on_cell(spec, result, cached, telemetry) -> None:
        state["done"] += 1
        if cached:
            state["cached"] += 1
        elapsed = time.monotonic() - state["started"]
        remaining = total - state["done"]
        eta = (elapsed / state["done"]) * remaining
        print(
            f"\r[sweep] {state['done']}/{total} cells "
            f"({state['cached']} cached) elapsed {elapsed:.1f}s eta {eta:.1f}s",
            end="", file=sys.stderr, flush=True,
        )

    return on_cell


def _campaign_kwargs(args: argparse.Namespace) -> dict:
    """The ``run_campaign`` keywords shared by every campaign subcommand."""
    return {
        "workers": args.workers,
        "backend": getattr(args, "backend", None),
        "store_dir": getattr(args, "store", None),
    }


def _run_sweep(args: argparse.Namespace) -> str:
    grid = named_grid(args.grid, campaign_seed=args.seed)
    progress = _sweep_progress_printer(grid.cell_count) if args.progress else None
    result = run_campaign(grid, progress=progress, **_campaign_kwargs(args))
    if progress is not None:
        print(file=sys.stderr, flush=True)
    return format_campaign_report(result)


def _run_trace(args: argparse.Namespace) -> str:
    """Run one traced harness cell and export its structured event log."""
    from repro.obs import chrome_trace, events_jsonl
    from repro.workloads import Harness, HarnessSpec

    params = json.loads(args.params) if args.params else {}
    params["event_log"] = True
    if args.categories:
        params["event_log_categories"] = args.categories
    if args.limit is not None:
        params["event_log_limit"] = args.limit
    run = Harness().run(
        HarnessSpec(
            workload=args.workload,
            scenario=args.scenario,
            controller=args.controller,
            scheduler=args.scheduler,
            seed=args.seed,
            horizon=args.horizon,
            connections=args.connections,
            params=params,
        )
    )
    log = run.probe("events").log
    payload = events_jsonl(log) if args.format == "jsonl" else chrome_trace(log)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
        key = f"{args.workload}/{args.scenario}/{args.scheduler}/{args.controller}/seed{args.seed}"
        counts = ", ".join(
            f"{category}={count}"
            for category, count in log.counts_by_category().items()
        )
        return (
            f"trace {key}: {len(log)} events ({counts}), {log.dropped} dropped\n"
            f"wrote {args.format} timeline to {args.out}"
        )
    return payload.rstrip("\n")


def _run_telemetry(args: argparse.Namespace) -> str:
    """Run (or replay from a store) a grid and print its campaign telemetry."""
    from repro.obs import format_telemetry_report, summarize_telemetry

    grid = named_grid(args.grid, campaign_seed=args.seed)
    result = run_campaign(grid, **_campaign_kwargs(args))
    summary = summarize_telemetry(
        [cell.telemetry for cell in result.cells], top=args.top
    )
    report = format_telemetry_report(summary)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report += f"\nwrote telemetry JSON to {args.json}"
    return report


def _run_baseline(args: argparse.Namespace) -> str:
    """Run a named grid and snapshot it to a committed baseline file."""
    from repro.sweep.baseline import write_baseline

    grid = named_grid(args.grid, campaign_seed=args.seed)
    result = run_campaign(grid, **_campaign_kwargs(args))
    baseline = write_baseline(result, args.out)
    return (
        f"wrote baseline '{baseline.name}' ({baseline.cell_count} cells, "
        f"campaign seed {baseline.campaign_seed}) to {args.out}"
    )


def _run_diff(args: argparse.Namespace) -> HandlerResult:
    """Compare a campaign against a committed baseline; exit 1 on drift.

    The reference (left) side is always the ``--baseline`` snapshot file.
    The candidate (right) side is, in order of preference: another
    snapshot file (``--candidate``), the campaign store alone
    (``--from-store``, no cells are run), or a fresh run of ``--grid``
    (which still reuses ``--store`` when given).  Grid name and campaign seed
    default to the snapshot's own, so the common call is just
    ``diff --baseline baselines/<grid>.json``.
    """
    from repro.sweep.baseline import (
        Baseline,
        baseline_from_store,
        load_baseline,
    )
    from repro.sweep.diff import diff_campaigns

    reference = load_baseline(args.baseline)
    if args.candidate is not None:
        conflicting = [
            flag for flag, value in (
                ("--grid", args.grid), ("--seed", args.seed),
                ("--store", args.store),
                ("--from-store", args.from_store or None),
            ) if value is not None
        ]
        if conflicting:
            raise SystemExit(
                f"diff --candidate compares two snapshot files; it conflicts "
                f"with {', '.join(conflicting)}"
            )
        candidate = load_baseline(args.candidate)
    else:
        grid_name = args.grid if args.grid is not None else reference.name
        seed = args.seed if args.seed is not None else reference.campaign_seed
        grid = named_grid(grid_name, campaign_seed=seed)
        if args.from_store:
            if args.store is None:
                raise SystemExit("diff --from-store requires --store")
            candidate = baseline_from_store(grid, args.store)
        else:
            result = run_campaign(grid, **_campaign_kwargs(args))
            candidate = Baseline.from_result(result, source=f"run of grid '{grid_name}'")

    diff = diff_campaigns(reference, candidate)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(diff.to_json() + "\n")
    return format_diff_report(diff), (0 if diff.gate_ok else 1)


def _run_fuzz(args: argparse.Namespace) -> HandlerResult:
    """Run a fuzz campaign and triage it — or shrink one failing plan.

    The campaign path runs the ``fuzz`` grid (faulted scenario variants
    next to their clean twins), reduces it to the canonical triage report
    and optionally writes the byte-stable JSON; with ``--fail-on-failed``
    the exit code reflects failed cells (off by default: fuzzing reports,
    the diff gate gates).  The ``--shrink`` path takes a named or on-disk
    fault plan, verifies it fails the configured cell, ddmin-reduces it to
    a minimal event subsequence and writes the counterexample artifact.
    """
    if args.shrink:
        return _run_shrink(args)
    from repro.analysis.faults import format_fault_report, triage_campaign, triage_json
    from repro.experiments.grids import fuzz_grid

    grid = fuzz_grid(campaign_seed=args.seed, seeds=args.seeds)
    result = run_campaign(grid, **_campaign_kwargs(args))
    triage = triage_campaign(result, goodput_floor=args.goodput_floor)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(triage_json(triage))
    report = format_fault_report(triage)
    if args.store is not None:
        # The campaign's cells are already in the store; file the triage
        # report next to them so the corpus keeps verdict history too.
        from repro.store import CampaignStore

        triage_hash = CampaignStore(args.store).put_artifact("triage", triage)
        report += f"\ntriage artifact {triage_hash} filed in store {args.store}"
    failed = triage["verdicts"].get("failed", 0)
    code = 1 if (args.fail_on_failed and failed) else 0
    return report, code


def _run_shrink(args: argparse.Namespace) -> HandlerResult:
    import os

    from repro.faults.plan import FaultPlan
    from repro.faults.plans import NAMED_PLANS
    from repro.faults.shrink import (
        cell_failure_predicate,
        counterexample_artifact,
        shrink_plan,
        write_counterexample,
    )

    if args.plan is None:
        raise SystemExit("fuzz --shrink requires --plan NAME_OR_PATH")
    plan_name = None
    base_scenario = args.base_scenario
    if args.plan in NAMED_PLANS:
        named = NAMED_PLANS[args.plan]
        plan_name = named.name
        plan = named.build(args.horizon) if args.horizon is not None else named.build()
        if base_scenario is None:
            base_scenario = named.base_scenario
    elif os.path.exists(args.plan):
        plan = FaultPlan.load(args.plan)
    else:
        raise SystemExit(
            f"--plan {args.plan!r} is neither a named plan "
            f"({sorted(NAMED_PLANS)}) nor a file"
        )
    if base_scenario is None:
        raise SystemExit("fuzz --shrink with a plan file requires --base-scenario")
    # The cell must run at least as long as the plan's own schedule, or a
    # plan that fails at its recorded horizon stops failing here.
    horizon = args.horizon if args.horizon is not None else plan.horizon

    params = json.loads(args.params) if args.params else {}
    predicate, _clean = cell_failure_predicate(
        workload=args.workload,
        base_scenario=base_scenario,
        seed=args.seed,
        horizon=horizon,
        params=params,
        controller=args.controller,
        scheduler=args.scheduler,
        goodput_floor=args.goodput_floor,
        target_verdict=args.target_verdict,
    )
    try:
        result = shrink_plan(plan, predicate)
    except ValueError as error:
        return f"nothing to shrink: {error}", 1
    artifact = counterexample_artifact(
        result,
        workload=args.workload,
        base_scenario=base_scenario,
        seed=args.seed,
        horizon=horizon,
        params=params,
        controller=args.controller,
        scheduler=args.scheduler,
        plan_name=plan_name,
        target_verdict=args.target_verdict,
    )
    if args.out is not None:
        write_counterexample(artifact, args.out)
    lines = [
        f"shrunk {len(result.original)} events to {len(result.minimal)} "
        f"in {result.evaluations} evaluations:",
    ]
    lines.extend(f"  {event.describe()}" for event in result.minimal.events)
    if args.out is not None:
        lines.append(f"counterexample written to {args.out}")
    if args.store is not None:
        # Corpus management: identical minimal plans deduplicate to one
        # content-addressed artifact, so the corpus only grows on novelty.
        from repro.store import CampaignStore

        artifact_hash = CampaignStore(args.store).put_artifact("counterexample", artifact)
        lines.append(f"counterexample artifact {artifact_hash} filed in store {args.store}")
    return "\n".join(lines)


def _run_worker(args: argparse.Namespace) -> str:
    """Execute one shard plan against a campaign store (a backend child).

    The receiving end of :class:`repro.sweep.backends.SubprocessShardBackend`
    — and the template for remote execution: anything that can invoke this
    subcommand against a shared store (SSH, a container job) is a sweep
    worker.  Already-stored cells are skipped, so re-spawning a worker
    after a crash recomputes only the gap.
    """
    from repro.sweep.backends import run_worker_shard

    summary = run_worker_shard(args.plan, args.store)
    return (
        f"worker: {summary['cells']} cell(s) in shard, "
        f"{summary['ran']} computed, {summary['skipped']} already stored"
    )


def _format_store_stats(store) -> list[str]:
    """Human rendering of :meth:`CampaignStore.stats`."""
    stats = store.stats()
    lines = [
        f"store {stats['root']}:",
        f"  objects: {stats['objects']} ({stats['object_bytes']} bytes)",
        f"  campaigns: {stats['campaigns']}, manifests: {stats['manifests']}",
    ]
    for campaign_id in stats["campaign_ids"]:
        manifest = store.latest_manifest(campaign_id)
        if manifest is None:
            continue
        status = "complete" if manifest.complete else (
            f"partial ({len(manifest.completed)}/{len(manifest.cells)} cells)"
        )
        lines.append(
            f"    {campaign_id}: '{manifest.name}' seed {manifest.campaign_seed}, "
            f"{len(manifest.cells)} cells, {status}, latest commit #{manifest.sequence}"
        )
    for kind, count in sorted(stats["artifacts"].items()):
        lines.append(f"  artifacts/{kind}: {count}")
    return lines


def _run_store(args: argparse.Namespace) -> HandlerResult:
    """Inspect or verify a campaign store (stats/manifest/verify)."""
    from repro.store import CampaignStore

    store = CampaignStore(args.store)
    if args.action == "stats":
        return "\n".join(_format_store_stats(store))
    if args.action == "manifest":
        campaign_id = args.campaign
        if campaign_id is None:
            campaigns = store.campaign_ids()
            if len(campaigns) != 1:
                raise SystemExit(
                    f"store holds {len(campaigns)} campaigns; pass --campaign "
                    f"(have {campaigns})"
                )
            campaign_id = campaigns[0]
        manifest = store.latest_manifest(campaign_id)
        if manifest is None:
            raise SystemExit(f"no manifest for campaign {campaign_id!r}")
        return manifest.to_json().rstrip("\n")
    if args.action == "verify":
        problems = store.verify_objects()
        if problems:
            return "\n".join(
                [f"store verify: {len(problems)} problem(s)"]
                + [f"  {problem}" for problem in problems]
            ), 1
        return f"store verify: all {len(store)} object(s) ok"
    raise SystemExit(f"unknown store action {args.action!r}")


def _run_cell(args: argparse.Namespace) -> str:
    """Run one harness cell named entirely by registry entries."""
    from repro.workloads import Harness, HarnessSpec

    params = json.loads(args.params) if args.params else {}
    run = Harness().run(
        HarnessSpec(
            workload=args.workload,
            scenario=args.scenario,
            controller=args.controller,
            scheduler=args.scheduler,
            seed=args.seed,
            horizon=args.horizon,
            connections=args.connections,
            params=params,
        )
    )
    key = f"{args.workload}/{args.scenario}/{args.scheduler}/{args.controller}/seed{args.seed}"
    if args.connections != 1:
        key += f"/conn{args.connections}"
    lines = [f"cell {key}:"]
    for metric, value in sorted(run.metrics.items()):
        lines.append(f"  {metric} = {value}")
    return "\n".join(lines)


def _run_bench(args: argparse.Namespace) -> str:
    """Benchmark the sweep workloads with the shared harness in repro.bench."""
    from repro import bench

    if args.workload:
        unknown = sorted(set(args.workload) - set(bench.BENCH_CELLS))
        if unknown:
            raise SystemExit(
                f"unknown bench workload(s) {unknown} (have {sorted(bench.BENCH_CELLS)})"
            )
        names = sorted(set(args.workload))
    else:
        names = sorted(bench.BENCH_CELLS)

    lines = [f"benchmark: {args.cells} cells per workload"]
    results = {}
    for name in names:
        result = bench.run_batch(name, cells=args.cells)
        results[name] = result
        lines.append("  " + result.summary())
        if args.profile:
            lines.append(f"--- cProfile top {args.top} ({name}) ---")
            lines.append(bench.profile_batch(name, cells=args.cells, top=args.top).rstrip())

    baseline_path = args.baseline
    if baseline_path:
        baseline = bench.load_baseline(baseline_path)
        drifts = bench.ratio_drifts(results, baseline)
        for name, drift in sorted(drifts.items()):
            lines.append(f"  bulk-vs-{name} ratio drift vs {baseline_path}: {drift:+.0%}")

    if args.json:
        payload = {
            name: {
                "cells": result.cells,
                "elapsed_s": result.elapsed_s,
                "cells_per_s": result.cells_per_s,
                "events_per_cell": result.events_per_cell,
                "events_per_s": result.events_per_s,
            }
            for name, result in results.items()
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        lines.append(f"  wrote rates to {args.json}")
    return "\n".join(lines)


def _format_grid_axes(name: str) -> str:
    """One ``list`` line per named grid: its axes, spelled out.

    A grid is more than a name — it is a cell count and a set of axis
    values (including the ``connections`` scale axis); listing them saves a
    trip to the source when deciding what ``sweep --grid`` will run.
    """
    from repro.experiments.grids import named_grid

    grid = named_grid(name)
    axes = [
        f"experiments={','.join(grid.experiments)}",
        f"scenarios={','.join(grid.scenarios)}",
        f"schedulers={','.join(grid.schedulers)}",
        f"controllers={','.join(grid.controllers)}",
        f"connections={','.join(str(count) for count in grid.connections)}",
        f"seeds={grid.seeds}",
    ]
    return f"{name} ({grid.cell_count} cells)\n    " + "\n    ".join(axes)


def _list_registries(args: argparse.Namespace) -> str:
    """Print every axis of the workload × scenario × controller grid."""
    from repro.experiments.grids import figure_campaigns
    from repro.faults import FAULT_MODELS, MIDDLEBOXES, NAMED_PLANS
    from repro.mptcp.scheduler import SCHEDULER_REGISTRY
    from repro.workloads import CONTROLLERS, PROBES, SCENARIOS, WORKLOADS

    grid_names = [
        "quick", "default", "full", "workloads", "scale", "fuzz", "downgrade",
    ] + sorted(figure_campaigns())
    grids = [_format_grid_axes(name) for name in grid_names]
    fault_models = [
        f"{name} — {FAULT_MODELS[name].description}" for name in sorted(FAULT_MODELS)
    ]
    fault_plans = [
        f"{name} — {NAMED_PLANS[name].description} (base: {NAMED_PLANS[name].base_scenario})"
        for name in sorted(NAMED_PLANS)
    ]
    from repro.sweep.backends import BACKENDS

    backends = [
        f"{name} — {BACKENDS[name].description}" for name in sorted(BACKENDS)
    ] + ["auto — process pool when --workers > 1, serial otherwise (the default)"]
    sections = [
        ("workloads (sweep experiments)", sorted(WORKLOADS)),
        ("scenarios", sorted(SCENARIOS)),
        ("controllers", sorted(CONTROLLERS)),
        ("schedulers", sorted(SCHEDULER_REGISTRY)),
        ("probes", sorted(PROBES)),
        ("middleboxes", sorted(MIDDLEBOXES)),
        ("fault models", fault_models),
        ("fault plans (named)", fault_plans),
        ("execution backends (sweep --backend)", backends),
        ("grids", grids),
    ]
    lines = []
    for title, names in sections:
        lines.append(f"{title}:")
        for name in names:
            lines.append(f"  {name}")
    lines.append(
        "any workload x scenario x controller x scheduler combination runs via "
        "'cell' or as a sweep grid axis; 'fuzz' sweeps fault-plan seeds and "
        "'fuzz --shrink' minimises a failing plan"
    )
    if getattr(args, "store", None) is not None:
        from repro.store import CampaignStore

        lines.extend(_format_store_stats(CampaignStore(args.store)))
    return "\n".join(lines)


EXPERIMENTS: dict[str, Callable[[argparse.Namespace], HandlerResult]] = {
    "fig2a": _run_fig2a,
    "fig2b": _run_fig2b,
    "fig2c": _run_fig2c,
    "fig3": _run_fig3,
    "longlived": _run_longlived,
    "sweep": _run_sweep,
    "cell": _run_cell,
    "list": _list_registries,
    "baseline": _run_baseline,
    "diff": _run_diff,
    "fuzz": _run_fuzz,
    "bench": _run_bench,
    "trace": _run_trace,
    "telemetry": _run_telemetry,
    "worker": _run_worker,
    "store": _run_store,
}

#: Subcommands ``all`` does not run: campaigns, single cells, the registry
#: listing, the regression-gate pair, the fuzzer, the benchmark, the
#: observability pair and the store/worker plumbing are opt-in via their
#: own names.
OPT_IN = frozenset(
    {"sweep", "cell", "list", "baseline", "diff", "fuzz", "bench", "trace",
     "telemetry", "worker", "store"}
)


def _add_figure_options(parser: argparse.ArgumentParser, figures: Sequence[str]) -> None:
    """Attach the per-figure scaling flags (shared with the ``all`` runner)."""
    if "fig2a" in figures:
        parser.add_argument(
            "--baseline", action="store_true",
            help="fig2a: also simulate the kernel-only backup baseline",
        )
    if "fig2b" in figures:
        parser.add_argument("--blocks", type=int, default=60,
                            help="fig2b: number of 64 KB blocks per run")
        parser.add_argument("--sweep", action="store_true",
                            help="fig2b: run the smart controller at every loss rate")
    if "fig2c" in figures:
        parser.add_argument("--runs", type=int, default=10,
                            help="fig2c: number of seeds per variant")
        parser.add_argument("--scale", type=float, default=0.1,
                            help="fig2c: fraction of the 100 MB transfer")
    if "fig3" in figures:
        parser.add_argument("--requests", type=int, default=200,
                            help="fig3: number of HTTP requests")
        parser.add_argument("--stressed", action="store_true",
                            help="fig3: add CPU-stress scheduling jitter")
    if "longlived" in figures:
        parser.add_argument("--duration", type=float, default=900.0,
                            help="longlived: experiment duration in seconds")


def _add_campaign_options(
    parser: argparse.ArgumentParser,
    grid_default: Optional[str] = "default",
    grid_required: bool = False,
) -> None:
    """The grid/worker/store flags shared by ``sweep``/``baseline``/``diff``.

    ``baseline`` requires an explicit grid (a snapshot of the wrong grid
    is a silent footgun) and ``diff`` defaults to the snapshot's own grid
    name, so only ``sweep`` keeps the ``default`` grid default.
    """
    grid_help = (
        "named campaign grid (quick, default, full, workloads, scale, fuzz, "
        "downgrade, fig2a, fig2b, fig2c, fig3, longlived)"
    )
    if grid_required:
        parser.add_argument("--grid", required=True, help=grid_help)
    elif grid_default is None:
        parser.add_argument(
            "--grid", default=None,
            help=grid_help + "; defaults to the --baseline snapshot's grid name",
        )
    else:
        parser.add_argument("--grid", default=grid_default, help=grid_help)
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    _add_store_options(parser)


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    """The execution-backend/store flags shared by campaign subcommands."""
    from repro.sweep.backends import BACKENDS

    parser.add_argument(
        "--backend", default=None, choices=sorted(BACKENDS) + ["auto"],
        help="execution backend for fresh cells (default auto: process pool "
        "when --workers > 1, serial otherwise); results are byte-identical "
        "across backends",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed campaign store directory (cells and snapshot "
        "manifests; resumes partial campaigns)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="smapp-experiments",
        description="Reproduce the evaluation of 'SMAPP: Towards Smart Multipath TCP-enabled APPlications'",
    )
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", type=int, default=1, help="base random seed")

    subparsers = parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="experiment",
        help="which figure/section to reproduce ('sweep' runs a campaign, 'cell' one "
        "workload/scenario/controller point, 'list' prints the registries, "
        "'baseline'/'diff' snapshot and regression-check a campaign, 'all' every figure)",
    )

    for figure in ("fig2a", "fig2b", "fig2c", "fig3", "longlived"):
        figure_parser = subparsers.add_parser(
            figure, parents=[seed_parent], help=f"reproduce {figure}"
        )
        _add_figure_options(figure_parser, [figure])

    all_parser = subparsers.add_parser(
        "all", parents=[seed_parent], help="reproduce every paper figure"
    )
    _add_figure_options(all_parser, ["fig2a", "fig2b", "fig2c", "fig3", "longlived"])

    sweep_parser = subparsers.add_parser(
        "sweep", parents=[seed_parent], help="run a named campaign grid"
    )
    _add_campaign_options(sweep_parser)
    sweep_parser.add_argument(
        "--progress", action="store_true",
        help="print a live cells-done/total + ETA line to stderr "
        "(never part of the gated stdout output)",
    )

    baseline_parser = subparsers.add_parser(
        "baseline",
        parents=[seed_parent],
        help="run a named grid and snapshot it to a baseline JSON file",
    )
    _add_campaign_options(baseline_parser, grid_required=True)
    baseline_parser.add_argument(
        "--out", required=True, help="path of the baseline snapshot to write"
    )

    diff_parser = subparsers.add_parser(
        "diff",
        help="compare a campaign against a committed baseline (exit 1 on drift)",
    )
    diff_parser.add_argument(
        "--seed", type=int, default=None,
        help="campaign seed for the candidate run (defaults to the snapshot's)",
    )
    _add_campaign_options(diff_parser, grid_default=None)
    diff_parser.add_argument(
        "--baseline", required=True,
        help="reference baseline snapshot (the committed file to gate against)",
    )
    diff_parser.add_argument(
        "--candidate", default=None,
        help="compare another snapshot file instead of running the grid",
    )
    diff_parser.add_argument(
        "--from-store", action="store_true",
        help="load the candidate purely from --store (error on missing cells)",
    )
    diff_parser.add_argument(
        "--json", default=None, help="also write the machine-readable diff JSON here"
    )

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        parents=[seed_parent],
        help="run a fault-injection fuzz campaign, or --shrink a failing plan",
    )
    fuzz_parser.add_argument("--seeds", type=int, default=2,
                             help="fault-plan seeds per scenario (the fuzz axis)")
    fuzz_parser.add_argument("--workers", type=int, default=1, help="worker processes")
    _add_store_options(fuzz_parser)
    fuzz_parser.add_argument("--json", default=None,
                             help="also write the byte-stable triage JSON here")
    fuzz_parser.add_argument("--goodput-floor", type=float, default=0.5,
                             help="retained-goodput fraction below which a cell is degraded")
    fuzz_parser.add_argument("--fail-on-failed", action="store_true",
                             help="exit non-zero when any faulted cell fails outright")
    fuzz_parser.add_argument("--shrink", action="store_true",
                             help="minimise a failing fault plan instead of running a campaign")
    fuzz_parser.add_argument("--target-verdict", default="failed",
                             choices=("failed", "fallback"),
                             help="shrink: triage verdict the minimal plan must keep "
                             "producing ('fallback' minimises down to the events "
                             "that force a plain-TCP downgrade)")
    fuzz_parser.add_argument("--plan", default=None,
                             help="shrink: named fault plan or path to a plan JSON file")
    fuzz_parser.add_argument("--workload", default="bulk_transfer",
                             help="shrink: workload of the failing cell")
    fuzz_parser.add_argument("--base-scenario", default=None,
                             help="shrink: clean scenario the plan targets "
                             "(defaults to the named plan's)")
    fuzz_parser.add_argument("--controller", default="passive",
                             help="shrink: controller of the failing cell")
    fuzz_parser.add_argument("--scheduler", default="lowest_rtt",
                             help="shrink: scheduler of the failing cell")
    fuzz_parser.add_argument("--horizon", type=float, default=None,
                             help="shrink: simulated run horizon in seconds "
                             "(defaults to the plan's own horizon)")
    fuzz_parser.add_argument("--params", default=None,
                             help="shrink: workload parameters as a JSON object — "
                             "must match the cell the plan failed in (the fuzz "
                             "grid uses e.g. {\"transfer_bytes\": 60000})")
    fuzz_parser.add_argument("--out", default=None,
                             help="shrink: write the counterexample artifact here")

    cell_parser = subparsers.add_parser(
        "cell", parents=[seed_parent], help="run one harness cell by registry names"
    )
    cell_parser.add_argument("--workload", default="bulk_transfer", help="workload registry name")
    cell_parser.add_argument("--scenario", default="dual_homed", help="scenario registry name")
    cell_parser.add_argument("--controller", default="passive", help="controller registry name")
    cell_parser.add_argument("--scheduler", default="lowest_rtt", help="scheduler registry name")
    cell_parser.add_argument("--horizon", type=float, default=30.0,
                             help="simulated run horizon in seconds")
    cell_parser.add_argument("--connections", type=int, default=1,
                             help="concurrent client connections (the scale axis); "
                             "starts are staggered over the connection_stagger param")
    cell_parser.add_argument("--params", default=None,
                             help="workload parameters as a JSON object")

    trace_parser = subparsers.add_parser(
        "trace",
        parents=[seed_parent],
        help="run one traced harness cell and export its structured event log",
    )
    trace_parser.add_argument("--workload", default="bulk_transfer", help="workload registry name")
    trace_parser.add_argument("--scenario", default="dual_homed", help="scenario registry name")
    trace_parser.add_argument("--controller", default="passive", help="controller registry name")
    trace_parser.add_argument("--scheduler", default="lowest_rtt", help="scheduler registry name")
    trace_parser.add_argument("--horizon", type=float, default=30.0,
                              help="simulated run horizon in seconds")
    trace_parser.add_argument("--connections", type=int, default=1,
                              help="concurrent client connections (the scale axis)")
    trace_parser.add_argument("--params", default=None,
                              help="workload parameters as a JSON object")
    trace_parser.add_argument("--categories", default=None,
                              help="comma-separated event categories to record "
                              "(default: all — connection, fallback, fault, pm, "
                              "scheduler, subflow, timer)")
    trace_parser.add_argument("--limit", type=int, default=None,
                              help="event-log retention cap (drops are counted beyond it)")
    trace_parser.add_argument("--format", default="chrome",
                              choices=("chrome", "jsonl"),
                              help="chrome: Chrome-trace-format timeline; "
                              "jsonl: one JSON object per event")
    trace_parser.add_argument("--out", default=None,
                              help="write the export here instead of stdout")

    telemetry_parser = subparsers.add_parser(
        "telemetry",
        parents=[seed_parent],
        help="run a grid and print its campaign telemetry summary",
    )
    _add_campaign_options(telemetry_parser)
    telemetry_parser.add_argument("--top", type=int, default=5,
                                  help="number of slowest fresh cells to list")
    telemetry_parser.add_argument("--json", default=None,
                                  help="also write the telemetry summary JSON here")

    bench_parser = subparsers.add_parser(
        "bench",
        help="time batches of sweep cells per workload (cells/s and events/s)",
    )
    bench_parser.add_argument(
        "--workload", action="append", default=None, metavar="NAME",
        help="benchmark only this workload (repeatable; default: all four)",
    )
    bench_parser.add_argument("--cells", type=int, default=5,
                              help="cells per timed batch")
    bench_parser.add_argument("--profile", action="store_true",
                              help="also cProfile one batch per workload")
    bench_parser.add_argument("--top", type=int, default=25,
                              help="profile: number of cumulative-time rows to print")
    bench_parser.add_argument("--baseline", default=None, metavar="PATH",
                              help="report ratio drift against this BENCH_workloads.json")
    bench_parser.add_argument("--json", default=None,
                              help="also write the measured rates as JSON here")

    list_parser = subparsers.add_parser(
        "list", parents=[seed_parent],
        help="print every registry the grid is built from",
    )
    list_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="also print object/manifest/artifact stats for this campaign store",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help="execute one shard plan against a campaign store "
        "(spawned by the subprocess backend; usable standalone for remote shards)",
    )
    worker_parser.add_argument("--store", required=True, metavar="DIR",
                               help="campaign store the shard reads/writes")
    worker_parser.add_argument("--plan", required=True, metavar="FILE",
                               help="shard plan JSON written by the coordinating backend")

    store_parser = subparsers.add_parser(
        "store",
        help="inspect or verify a campaign store",
    )
    store_parser.add_argument(
        "action", choices=("stats", "manifest", "verify"),
        help="stats: object/manifest/artifact counts; "
        "manifest: print a campaign's latest snapshot manifest; "
        "verify: recheck every object against its content hash (exit 1 on damage)",
    )
    store_parser.add_argument("--store", required=True, metavar="DIR",
                              help="campaign store directory")
    store_parser.add_argument("--campaign", default=None, metavar="ID",
                              help="manifest: campaign id (default: the store's "
                              "only campaign)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns non-zero when a subcommand reports failure
    (currently only ``diff``, on out-of-tolerance drift)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "all":
        # "all" means every paper figure; campaigns, single cells and the
        # registry listing are opt-in via their own subcommands.
        names = sorted(name for name in EXPERIMENTS if name not in OPT_IN)
    else:
        names = [args.experiment]
    exit_code = 0
    for name in names:
        started = time.time()
        outcome = EXPERIMENTS[name](args)
        report, code = outcome if isinstance(outcome, tuple) else (outcome, 0)
        exit_code = max(exit_code, code)
        elapsed = time.time() - started
        print(report)
        print(f"[{name} completed in {elapsed:.1f}s wall clock]")
        print()
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
