"""Benchmark regenerating Figure 2c (Refresh controller vs in-kernel ndiffports).

Runs scaled-down transfers over the four-path ECMP topology for both
subflow-management strategies and checks the paper's qualitative result:
the Refresh controller ends up using (almost) all paths and beats
ndiffports, whose completion times spread out according to how many
distinct paths its five random subflows happened to hash onto.
"""

from repro.experiments.fig2c_loadbalance import run_fig2c


def test_fig2c_refresh_vs_ndiffports(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig2c(seeds=3, scale=0.04),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.format_report())

    assert len(result.cdf_refresh) == 3
    assert len(result.cdf_ndiffports) == 3

    # The refresh controller wins on average and at the median.
    assert result.cdf_refresh.mean < result.cdf_ndiffports.mean
    assert result.cdf_refresh.median <= result.cdf_ndiffports.median

    # The refresh controller converges onto more distinct paths than
    # ndiffports does on average.
    refresh_paths = [run.distinct_paths for run in result.runs if run.variant == "refresh"]
    ndiff_paths = [run.distinct_paths for run in result.runs if run.variant == "ndiffports"]
    assert sum(refresh_paths) / len(refresh_paths) >= sum(ndiff_paths) / len(ndiff_paths)
    # At this benchmark's reduced scale the transfer only spans a couple of
    # refresh rounds; full-length runs (``runner fig2c --scale 1.0``)
    # converge to all four paths.
    assert max(refresh_paths) >= 3
