"""Campaign scaling benchmark: tasks/sec at several worker counts.

Runs one design-space grid through the coordinator at each requested
worker count (fresh cache per run, so every point actually executes),
verifies the metrics documents are byte-identical across counts, and
writes a summary JSON (``BENCH_campaign_scaling.json``)::

    python -m repro.campaign.bench                  # >=1k-point grid, 1/2/4
    python -m repro.campaign.bench --smoke          # tiny grid, 1 vs 2

``--smoke`` is the CI determinism gate (``make campaign-smoke``): a
small sharded grid whose 2-worker output must match the 1-worker
reference byte-for-byte, exiting non-zero on any divergence.  Both modes
then rerun the grid at 1 worker on the first run's now-warm cache: the
replay must execute no point and reproduce the metrics byte-for-byte,
so a broken cache index fails the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from ..runner.runner import to_canonical_json
from .coordinator import CampaignCoordinator
from .spec import CampaignSpec

__all__ = ["scaling_grid", "smoke_grid", "run_scaling"]


def scaling_grid() -> CampaignSpec:
    """The committed-bench grid: 1296 points over the survey engines."""
    return CampaignSpec(
        name="scaling",
        kind="overhead",
        engines=("aegis", "best", "ds5002fp", "ds5240", "gi", "gilmont",
                 "stream", "vlsi", "xom"),
        workloads=("sequential", "branchy", "data-local", "data-random",
                   "write-heavy", "mixed"),
        accesses=(256,),
        cache_sizes=(1024, 4096),
        line_sizes=(16, 32),
        associativities=(1, 2),
        latencies=(20, 40, 80),
        seeds=(2005,),
    )


def smoke_grid() -> CampaignSpec:
    """A seconds-scale grid for the CI determinism gate (16 points)."""
    return CampaignSpec(
        name="smoke",
        kind="overhead",
        engines=("stream", "xom"),
        workloads=("mixed", "sequential"),
        accesses=(256,),
        cache_sizes=(1024, 4096),
        latencies=(20, 40),
    )


def run_scaling(spec: CampaignSpec, worker_counts: List[int],
                out: Optional[Path]) -> int:
    """Run the grid per worker count; write the scaling summary."""
    runs = []
    reference_json: Optional[str] = None
    digest = ""
    scratch = Path(tempfile.mkdtemp(prefix="campaign-bench-"))
    try:
        for workers in worker_counts:
            coordinator = CampaignCoordinator(
                spec, workers=workers, shards=max(workers, 1),
                cache_dir=scratch / f"cache-w{workers}",
            )
            result = coordinator.run()
            metrics_json = result.metrics_json()
            digest = hashlib.sha256(metrics_json.encode()).hexdigest()
            if reference_json is None:
                reference_json = metrics_json
            elif metrics_json != reference_json:
                print(f"campaign-bench: FAIL — {workers}-worker metrics "
                      f"differ from the {worker_counts[0]}-worker "
                      f"reference", file=sys.stderr)
                return 1
            runs.append({
                "workers": workers,
                "shards": coordinator.shards,
                "points": result.profile["points"],
                "executed": result.executed,
                "wall_seconds": result.profile["wall_seconds"],
                "tasks_per_second": result.tasks_per_second,
            })
            print(f"campaign-bench: {workers} worker(s): "
                  f"{result.profile['points']} points in "
                  f"{result.profile['wall_seconds']}s "
                  f"({result.tasks_per_second} tasks/s)")
        replay = CampaignCoordinator(
            spec, workers=1,
            cache_dir=scratch / f"cache-w{worker_counts[0]}",
        ).run()
        if replay.executed or replay.metrics_json() != reference_json:
            print(f"campaign-bench: FAIL — the warm-cache replay executed "
                  f"{replay.executed} points or changed the metrics",
                  file=sys.stderr)
            return 1
        print(f"campaign-bench: warm-cache replay: {replay.cached} hits, "
              f"0 executed, metrics byte-identical")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"campaign-bench: metrics byte-identical across workers "
          f"{worker_counts} (sha256 {digest[:16]})")
    if out is not None:
        document = {
            "schema": "repro-campaign-scaling/1",
            "grid": spec.to_dict(),
            "grid_points": spec.size,
            "metrics_sha256": digest,
            "byte_identical": True,
            "runs": runs,
        }
        out.write_text(to_canonical_json(document), encoding="utf-8")
        print(f"campaign-bench: summary -> {out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.bench",
        description="Campaign coordinator scaling benchmark.",
    )
    parser.add_argument("--workers", type=int, nargs="*",
                        help="worker counts to sweep (default: 1 2 4; "
                             "smoke default: 1 2)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid, no summary file unless --out is "
                             "given (the CI determinism gate)")
    parser.add_argument("--out", metavar="PATH",
                        help="scaling summary JSON path (default: "
                             "BENCH_campaign_scaling.json; smoke: none)")
    args = parser.parse_args(argv)

    if args.smoke:
        spec, counts = smoke_grid(), args.workers or [1, 2]
        out = Path(args.out) if args.out else None
    else:
        spec, counts = scaling_grid(), args.workers or [1, 2, 4]
        out = Path(args.out) if args.out else Path(
            "BENCH_campaign_scaling.json")
    if any(w < 1 for w in counts):
        parser.error("worker counts must be >= 1")
    print(f"campaign-bench: grid '{spec.name}' — {spec.size} points, "
          f"workers {counts}")
    return run_scaling(spec, counts, out)


if __name__ == "__main__":
    raise SystemExit(main())
