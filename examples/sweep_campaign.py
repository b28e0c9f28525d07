#!/usr/bin/env python3
"""A sweep campaign: schedulers × controllers × scenarios × seeds, in parallel.

Declares a 24-cell grid over the scenario library (the acceptance matrix of
the sweep subsystem), runs it on a pool of worker processes into a content-addressed
campaign store, and prints the aggregated campaign report.  Run it twice:
the second run answers entirely from the store and still prints byte-identical
aggregates — per-cell seeds derive from the campaign seed and the cell
coordinates, so worker count and scheduling order can never leak into the
results.

Run with:  python examples/sweep_campaign.py [workers] [store_dir]
"""

import sys

from repro.sweep import CampaignGrid, format_campaign_report, run_campaign


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    store_dir = sys.argv[2] if len(sys.argv) > 2 else ".campaign-store"

    grid = CampaignGrid(
        name="example",
        campaign_seed=42,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed", "asymmetric_loss", "path_failure_recovery"],
        schedulers=["lowest_rtt", "round_robin"],
        controllers=["passive", "fullmesh"],
        seeds=2,
        params={"transfer_bytes": 500_000, "horizon": 25.0},
    )
    print(f"expanding '{grid.name}': {grid.cell_count} cells, workers={workers}, store={store_dir}")

    def progress(spec, result, cached, telemetry):
        marker = "store" if cached else "ran  "
        headline = result.get("completion_time")
        rendered = f"{headline:.3f}s" if headline is not None else "incomplete"
        print(f"  [{marker}] {spec.key:60s} {rendered}")

    result = run_campaign(grid, workers=workers, store_dir=store_dir, progress=progress)
    print()
    print(format_campaign_report(result))


if __name__ == "__main__":
    main()
