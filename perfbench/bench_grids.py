"""The benchmark's workloads and the checks on their outputs.

Each workload is a campaign grid built by the public campaign API
(:class:`repro.sweep.CampaignGrid`) as a pure function of the benchmark
seed, plus how the benchmark runs it (backend, workers, warm rerun).  The
program only ever sees the generated grid.

Every cell a run produces goes through :func:`cell_failure`, and every
campaign through :func:`campaign_digest`; ``measure.Checker`` counts the
cells that fell short of their requested work or belong to a wrong
campaign.  A cell that raises aborts its campaign, and with it the run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.experiments.grids import full_grid
from repro.sim.randomness import derive_seed
from repro.sweep import CampaignGrid

#: The seed the expected digests in ``expected_digests.json`` belong to.
DEFAULT_SEED = 1

#: Upper bound on worker processes (the benchmark host may have 2 CPUs).
NPROC = 2

EXPECTED_DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "expected_digests.json"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its grids and the way they are executed."""

    name: str
    seed: int
    build: Callable[[int], CampaignGrid]
    """The workload's grid for a given campaign seed."""
    backend: str
    workers: int
    warmup: tuple[CampaignGrid, ...]
    """Small grids covering every axis value, run once before anything is
    measured so lazy imports and first-use set-up are paid up front."""
    reference_packets: int
    """The workload's reference size: packets on the simulated links in
    one campaign, near the mean over campaign seeds."""
    campaign_s: float
    """Run length allotted to one campaign: a run of ``seconds`` plays
    ``round(seconds / campaign_s)`` of them (:meth:`campaign_count`).  Set
    from what a campaign took on the 2-CPU host the benchmark was tuned
    on, so that runs fit their time limit even in that host's slow spells."""
    warm_reruns: int
    """Warm reruns after each cold campaign, about half a second of them."""

    def campaign_count(self, seconds: float) -> int:
        """Campaigns a run of ``seconds`` plays: a function of its arguments only.

        The count never depends on how fast the host happens to be, so two
        runs with the same seed do the same work and count the same
        attempted and failed cells.
        """
        return max(1, round(seconds / self.campaign_s))

    def grid(self, iteration: int = 0) -> CampaignGrid:
        """The grid of the run's ``iteration``-th campaign.

        Each campaign of a run gets its own campaign seed, derived from the
        benchmark seed, so a run averages over several sets of cell seeds.
        """
        return self.build(derive_seed(self.seed, self.name, iteration))


def _fig2c_bulk(seed: int, scale: float = 0.1) -> CampaignGrid:
    # Fig. 2c in its own cell shape: 100 MB x scale over 4 ECMP paths,
    # 5 subflows, single-homed client (bind_local False), refresh every 2.5 s.
    # The horizon is the preset's max(60, 130 * scale + 30).
    return CampaignGrid(
        name="fig2c_bulk",
        campaign_seed=seed,
        experiments=["bulk_transfer"],
        scenarios=["ecmp"],
        schedulers=["lowest_rtt"],
        controllers=["ndiffports", "refresh"],
        seeds=1,
        params={
            "transfer_bytes": int(100_000_000 * scale),
            "subflow_count": 5,
            "refresh_interval": 2.5,
            "bind_local": False,
            "horizon": max(60.0, 130.0 * scale + 30.0),
        },
    )


def _pm_churn(seed: int, request_count: int = 1000, seeds: int = 4) -> CampaignGrid:
    # Fig. 3's setting with small objects: every request is a new MPTCP
    # connection whose extra subflow the userspace path manager opens.
    # The horizon is the Fig. 3 preset's request_count * 0.1 + 10.
    return CampaignGrid(
        name="pm_churn",
        campaign_seed=seed,
        experiments=["http"],
        scenarios=["lan"],
        schedulers=["lowest_rtt"],
        controllers=["userspace_ndiffports"],
        seeds=seeds,
        params={
            "request_count": request_count,
            "object_size": 10 * 1024,
            "horizon": request_count * 0.1 + 10.0,
        },
    )


def _full_grid(seed: int) -> CampaignGrid:
    return full_grid(campaign_seed=seed)


def _shrunk(grid: CampaignGrid, name: str, **axes) -> CampaignGrid:
    """A one-seed copy of ``grid`` with some axes and params replaced."""
    data = grid.as_dict()
    data.update(name=name, seeds=1, **axes)
    return CampaignGrid.from_dict(data)


def _axis_cover(grid: CampaignGrid, params: dict) -> tuple[CampaignGrid, ...]:
    """Two small grids that touch every axis value of ``grid`` once."""
    return (
        _shrunk(
            grid, "warmup-a", schedulers=grid.schedulers[:1],
            controllers=grid.controllers[:1], params=params,
        ),
        _shrunk(
            grid, "warmup-b", experiments=grid.experiments[:1],
            scenarios=grid.scenarios[:1], params=params,
        ),
    )


def make_workload(name: str, seed: int) -> Workload:
    """Build workload ``name`` from the benchmark seed (a pure function)."""
    if name == "fig2c_bulk":
        warmup = (_fig2c_bulk(seed, scale=0.002),)
        return Workload(name, seed, _fig2c_bulk, "serial", 1, warmup, 400_000, 15.0, 1500)
    if name == "pm_churn":
        return Workload(
            name, seed, _pm_churn, "serial", 1, (_pm_churn(seed, 20, 1),), 144_000, 30.0, 1200
        )
    if name == "full_grid":
        small = dict(full_grid().params, transfer_bytes=20_000, object_size=10_000, horizon=6.0)
        warmup = _axis_cover(full_grid(campaign_seed=seed), small)
        return Workload(name, seed, _full_grid, "pool", NPROC, warmup, 450_000, 15.0, 8)
    raise ValueError(f"unknown workload {name!r} (have {list(WORKLOAD_NAMES)})")


WORKLOAD_NAMES = ("fig2c_bulk", "pm_churn", "full_grid")


def cell_failure(spec, result: dict) -> Optional[str]:
    """Why a finished cell fell short of its requested work (``None`` if not).

    Bulk transfers must deliver every byte and HTTP clients must complete
    every request.  Streaming and long-lived cells have no completion
    target: scenarios such as ``wifi_lte_handover`` take a path down for
    good, and a stream that stalls there is the measured outcome, not a
    failed run.  Those cells are checked for internal consistency only;
    the campaign digest pins their exact values.
    """
    params = spec.param_dict
    connections = spec.connections
    if spec.experiment == "bulk_transfer":
        want = int(params["transfer_bytes"]) * connections
        got = result.get("bytes_delivered")
        return None if got == want else f"delivered {got} of {want} bytes"
    if spec.experiment == "http":
        want = int(params["request_count"]) * connections
        got = result.get("requests_completed")
        if got == want and result.get("requests_started") == want:
            return None
        return f"completed {got} of {want} requests"
    if spec.experiment == "streaming":
        got = result.get("blocks_delivered")
        if isinstance(got, int) and 0 <= got <= int(params["block_count"]):
            return None
        return f"delivered {got!r} of {params['block_count']} blocks"
    if spec.experiment == "longlived":
        sent, got = result.get("messages_sent"), result.get("messages_delivered")
        if isinstance(sent, int) and isinstance(got, int) and 0 <= got <= sent and sent > 0:
            return None
        return f"delivered {got!r} of {sent!r} messages"
    return f"no completion check for experiment {spec.experiment!r}"


def campaign_digest(campaign) -> str:
    """SHA-256 of the campaign's canonical JSON (specs, hashes, results)."""
    return hashlib.sha256(campaign.to_canonical_json().encode("utf-8")).hexdigest()


def expected_digests(name: str, seed: int) -> list[str]:
    """The recorded digests of workload ``name``'s first campaigns at ``seed``."""
    if seed != DEFAULT_SEED:
        return []
    with open(EXPECTED_DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(name, [])
