"""The SMAPP simulator benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fig2c_bulk --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (host time, tracing off);
``--trace 1`` prints the per-layer metrics of a traced pass and writes its
spans and call ledger under ``.perfbench-work/``.  Human-readable lines go
to stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The workload itself runs in a child interpreter of its own (so its peak
memory is its own), and set-up time is measured in fresh interpreters.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("fig2c_bulk", "pm_churn", "full_grid")

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 9

#: Fixed stdlib-only work for a fresh reference interpreter, started beside
#: each set-up interpreter: it pays the same process start and import
#: machinery, and no code of the repository.
REFERENCE_PROBE = (
    "import argparse, dataclasses, decimal, email.parser, fractions, hashlib, heapq,"
    " http.client, inspect, json, random, statistics, typing, xml.dom.minidom"
)

#: Seconds the reference interpreter takes on a host at nominal speed.  A
#: fixed constant (about what it took on the 2-CPU host the benchmark was
#: tuned on): only its being the same on every commit matters.
REFERENCE_NOMINAL_S = 0.15

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0

# Runs in a fresh interpreter: import the CLI module, plan the grid, report.
SETUP_PROBE = """
import json, os, sys, time
started = time.perf_counter()
import repro.experiments.runner
imported = time.perf_counter()
from bench_grids import make_workload
from repro.sweep import plan_campaign
plan = plan_campaign(make_workload(sys.argv[1], int(sys.argv[2])).grid())
print(json.dumps({"import_s": imported - started, "cells": plan.cell_count}), flush=True)
os._exit(0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def measure_setup(workload: str, seed: int) -> dict:
    """Median time for a fresh interpreter to import the CLI and plan the grid.

    Each set-up interpreter follows a reference interpreter
    (:data:`REFERENCE_PROBE`), and the reported figure is the median over
    the pairs of ``raw * REFERENCE_NOMINAL_S / reference``.  Process
    start and imports drift with the host in ways the in-process reference
    loop of :mod:`hostclock` does not follow, but a fresh interpreter doing
    fixed work right beside them does.  The raw median is kept beside.
    """
    references, totals, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", REFERENCE_PROBE],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True,
        )
        references.append(time.perf_counter() - started)
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        totals.append(time.perf_counter() - started)
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])

    def normalised(values: list) -> float:
        return statistics.median(
            value * REFERENCE_NOMINAL_S / reference for value, reference in zip(values, references)
        )

    return {
        "setup_s": normalised(totals),
        "import_s": normalised(imports),
        "raw_setup_s": statistics.median(totals),
        "raw_reference_s": statistics.median(references),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="SMAPP simulator benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro", "sweep")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    out_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
    os.makedirs(WORK, exist_ok=True)
    try:
        setup = measure_setup(args.workload, args.seed)
        done = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "measure.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", work_dir, "--out", out_path,
            ],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
    except (subprocess.SubprocessError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        print(f"perfbench: workload child exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.decode().splitlines()[-1])
    metrics = result["metrics"]
    result["raw"]["setup_s"] = setup["raw_setup_s"]
    result["raw"]["setup_reference_s"] = setup["raw_reference_s"]
    if args.trace:
        metrics["setup.import_s"] = {"value": setup["import_s"], "unit": "s"}
    else:
        metrics["setup_s"] = {"value": setup["setup_s"], "unit": "s"}

    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
        f"failed_frac={result['failed'] / result['attempted']:.4f}",
        file=sys.stderr,
    )
    print(f"  digests {' '.join(result['digests'])}", file=sys.stderr)
    print(f"  raw {json.dumps(result['raw'], sort_keys=True)}", file=sys.stderr)
    for name, metric in sorted(metrics.items()):
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
