"""Text rendering of a finished campaign — and of a campaign diff.

Mirrors the per-figure report style of ``repro.experiments``: a header with
the run accounting, percentile tables of the headline metric per scenario,
and a cross-scenario CDF comparison — the "as many scenarios as you can
imagine" counterpart of the paper's single-scenario figures.
:func:`format_diff_report` renders the regression-gate view of a
:class:`~repro.sweep.diff.CampaignDiff` with the same table formatters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.aggregate import cdfs_by, summarize_groups
from repro.analysis.deltas import summarize_drift_by_axis, worst_cell_deltas
from repro.analysis.report import format_cdf_table, format_table
from repro.sweep.diff import resolve_tolerance
from repro.sweep.engine import CampaignResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.diff import CampaignDiff

#: Headline metric per experiment type.
HEADLINE_METRICS = {
    "bulk_transfer": ("completion_time", "s"),
    "streaming": ("block_delay_mean", "s"),
    "http": ("request_time_mean", "s"),
    "longlived": ("delivery_time_max", "s"),
}


def format_campaign_report(result: CampaignResult) -> str:
    """Render the campaign summary as plain text."""
    lines = [
        f"campaign '{result.name}' (seed {result.campaign_seed}): "
        f"{result.cell_count} cells, "
        f"{result.cache_hits} cached / {result.cache_misses} computed, "
        # workers_used is 0 when every cell came from the store.
        f"workers={result.workers_used}, "
        f"wall time {result.wall_time:.1f}s",
    ]
    lines.extend(result.notes)

    experiments = []
    for cell in result.cells:
        if cell.spec.experiment not in experiments:
            experiments.append(cell.spec.experiment)

    for experiment in experiments:
        metric, unit = HEADLINE_METRICS.get(experiment, ("completion_time", "s"))
        cells = [cell for cell in result.cells if cell.spec.experiment == experiment]

        lines.append("")
        lines.append(f"[{experiment}] {metric} by scenario / scheduler / controller:")
        summaries = summarize_groups(cells, metric, by=("scenario", "scheduler", "controller"))
        rows = []
        for key, stats in summaries.items():
            scenario, scheduler, controller = key
            if stats is None:
                rows.append([scenario, scheduler, controller, 0, "-", "-", "-", "-"])
            else:
                rows.append(
                    [
                        scenario,
                        scheduler,
                        controller,
                        stats.count,
                        f"{stats.median:.3f}{unit}",
                        f"{stats.mean:.3f}{unit}",
                        f"{stats.p95:.3f}{unit}",
                        f"{stats.maximum:.3f}{unit}",
                    ]
                )
        lines.append(
            format_table(
                ["scenario", "scheduler", "controller", "n", "median", "mean", "p95", "max"],
                rows,
            )
        )

        cdfs = cdfs_by(cells, metric, by=("scenario",))
        if cdfs:
            lines.append("")
            lines.append(f"[{experiment}] cross-scenario {metric} CDF:")
            lines.append(format_cdf_table(cdfs, unit=unit))

    return "\n".join(lines)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return "-"
    return str(value)


def format_diff_report(diff: "CampaignDiff") -> str:
    """Render a campaign diff as plain text (the regression-gate view).

    Leads with the verdict, then the out-of-tolerance cells metric by
    metric, the worst within-tolerance movers, and a drift-by-scenario
    summary so a regression's blast radius is visible at a glance.
    """
    lines = [
        f"campaign diff: '{diff.left.name}' ({diff.left.source}) vs "
        f"'{diff.right.name}' ({diff.right.source})",
        f"  cells: {len(diff.matched)} matched, "
        f"{len(diff.left_only)} left-only, {len(diff.right_only)} right-only",
        f"  matched: {len(diff.matched) - len(diff.changed_cells)} identical, "
        f"{len(diff.changed_cells) - len(diff.out_of_tolerance_cells)} within tolerance, "
        f"{len(diff.out_of_tolerance_cells)} out of tolerance",
    ]
    if diff.gate_ok:
        lines.append("  verdict: OK — no out-of-tolerance drift")
    else:
        lines.append("  verdict: DRIFT — regression gate failed")

    for label, keys in (("left-only", diff.left_only), ("right-only", diff.right_only)):
        if keys:
            lines.append("")
            lines.append(f"  {label} cells (grids do not align):")
            lines.extend(f"    {key}" for key in keys)

    if diff.config_mismatched_cells:
        lines.append("")
        lines.append("  config-mismatched cells (same key, different configuration):")
        lines.extend(f"    {cell.key}" for cell in diff.config_mismatched_cells)

    if diff.out_of_tolerance_cells:
        lines.append("")
        lines.append("out-of-tolerance cells:")
        for cell in diff.out_of_tolerance_cells:
            lines.append(f"  {cell.key}:")
            for delta in cell.out_of_tolerance:
                tolerance = resolve_tolerance(delta.metric, diff.tolerances)
                tol_note = f" (tol rel {tolerance.rel:.3g} abs {tolerance.abs:.3g})"
                rel_note = (
                    f", rel {delta.rel_delta:.2%}" if delta.rel_delta is not None else ""
                )
                lines.append(
                    f"    {delta.metric} [{delta.family}]: "
                    f"{_format_value(delta.left)} -> {_format_value(delta.right)}"
                    f"{rel_note}{tol_note}"
                )

    changed = diff.changed_cells
    if changed:
        lines.append("")
        lines.append("largest movers (worst relative delta per changed cell):")
        rows = [
            [key, metric, "inf" if rel == float("inf") else f"{rel:.2%}"]
            for key, metric, rel in worst_cell_deltas(changed, limit=10)
        ]
        lines.append(format_table(["cell", "metric", "rel delta"], rows))

        lines.append("")
        lines.append("drift by scenario (relative deltas over changed metrics):")
        rows = []
        for key, stats in summarize_drift_by_axis(diff.matched, by=("scenario",)).items():
            (scenario,) = key
            if stats is None:
                rows.append([scenario, 0, "-", "-", "-"])
            else:
                rows.append(
                    [
                        scenario,
                        stats.count,
                        f"{stats.median:.2%}",
                        f"{stats.mean:.2%}",
                        f"{stats.maximum:.2%}",
                    ]
                )
        lines.append(format_table(["scenario", "n", "median", "mean", "max"], rows))

    return "\n".join(lines)
