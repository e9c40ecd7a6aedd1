"""The four benchmark workloads, each one batch job run through ``repro.api``.

Why these four (each stresses layers the others barely touch):

``stream-dma``
    xom, timing-only, on the numpy array-chunk path: trace generation,
    per-chunk compile and the executor, store-heavy so the dirty
    writeback/spill path runs.  No cipher work per access.
``stream-crypto``
    aegis, functional, read-dominated mixed traffic: decrypt-on-fill
    through the cipher kernels at about one block per call.
``campaign-grid``
    the 1296-point overhead grid of ``BENCH_campaign_scaling.json`` on
    two workers with a fresh on-disk cache: coordinator, fork pool,
    merge, result-cache publication, engine and memory set-up.
``faults-matrix``
    every campaign label x {baseline, spoof, splice, replay, glitch}:
    the fault injector and rigs, the per-line engines with functional
    writes, DES rounds.

The program receives only the inputs generated from the seed.  Modelled
caches start empty in every operation.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

WORKLOADS = ("stream-dma", "stream-crypto", "campaign-grid", "faults-matrix")

#: Worker count of the measured runs; ``None`` means no campaign pool.
MAIN_WORKERS: Dict[str, Optional[int]] = {
    "stream-dma": None,
    "stream-crypto": None,
    "campaign-grid": 2,
    "faults-matrix": 1,
}

#: One stream operation: about 0.7 s (stream-dma, seven 64Ki-access
#: chunks) and 1 s (stream-crypto) on a 2-core host.  Each run also
#: builds the engine and installs the 32 KiB image, about 7 ms; at these
#: sizes that set-up is under 1% of the operation.
STREAM_RUNS = {
    "stream-dma": dict(engine="xom", workload="dma-burst", functional=False,
                       accesses=400_000),
    "stream-crypto": dict(engine="aegis", workload="mixed", functional=True,
                          accesses=30_000),
}

FAULT_KINDS = (None, "spoof", "splice", "replay", "glitch")

#: Line fills of one fault campaign point: two sweeps over the 224 lines
#: of the 8 KiB campaign image outside its protected zone, then the audit
#: fetch.  The point documents carry no access count, so faults-matrix
#: reports its accesses as this fixed count per point.
FAULT_POINT_FILLS = 2 * 224 + 1


@dataclass
class Outcome:
    """What one operation batch produced, reduced for the checks."""

    digest: str
    points: int                 # operations: campaign points or 1 run
    accesses: int               # simulated accesses
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def grid_spec(seed: int):
    """The committed 1296-point scaling grid, at ``seed``."""
    import dataclasses

    from repro.campaign.bench import scaling_grid

    return dataclasses.replace(scaling_grid(), seeds=(seed,))


def faults_spec(seed: int):
    """Every campaign label x baseline and the four fault kinds."""
    import repro.api as api
    from repro.faults import campaign_labels

    return api.CampaignSpec(kind="faults", name="faults-matrix",
                            engines=tuple(campaign_labels()),
                            fault_kinds=FAULT_KINDS, seeds=(seed,))


class Prepared:
    """One workload with its inputs built; :meth:`run` is the timed call."""

    def __init__(self, run: Callable[[], object],
                 outcome: Callable[[object], Outcome],
                 cleanup: Callable[[], None] = lambda: None,
                 repeatable: bool = False):
        self.run = run
        self.outcome = outcome
        self.cleanup = cleanup
        self.repeatable = repeatable


def prepare(name: str, seed: int, workers: Optional[int],
            work_dir: Path) -> Prepared:
    """Build ``name``'s inputs: spec expansion and validation included."""
    import repro.api as api

    if name in STREAM_RUNS:
        params = dict(STREAM_RUNS[name], seed=seed)
        return Prepared(lambda: api.run_stream(**params),
                        lambda doc: _stream_outcome(doc, params),
                        repeatable=True)
    if name == "campaign-grid":
        spec = grid_spec(seed)
        expected = len(spec.points())
        cache_dir = work_dir / "campaign-cache"
        if cache_dir.exists():
            raise RuntimeError(f"{cache_dir} is not fresh")
        return Prepared(
            lambda: api.run_campaign(spec, workers=workers,
                                     cache_dir=cache_dir),
            lambda result: _grid_outcome(result, expected),
            lambda: shutil.rmtree(cache_dir, ignore_errors=True))
    if name == "faults-matrix":
        spec = faults_spec(seed)
        expected = len(spec.points())
        return Prepared(
            lambda: api.run_campaign(spec, workers=workers, cache_dir=None),
            lambda result: _faults_outcome(result, expected))
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _stream_outcome(doc, params) -> Outcome:
    metrics = doc["metrics"]
    errors = []
    if metrics["accesses"] != params["accesses"]:
        errors.append(f"accesses {metrics['accesses']} != "
                      f"{params['accesses']}")
    if metrics["cache_hits"] + metrics["cache_misses"] != metrics["accesses"]:
        errors.append("cache hits + misses != accesses")
    if doc["engine"] != params["engine"] or doc["seed"] != params["seed"]:
        errors.append("document names another engine or seed")
    return Outcome(
        digest=_sha256(json.dumps(doc, sort_keys=True,
                                  separators=(",", ":"))), points=1,
        accesses=metrics["accesses"],
        counts={"cycles": metrics["cycles"],
                "cache_misses": metrics["cache_misses"],
                "bus_bytes": metrics["bus_bytes"]},
        errors=errors)


def _grid_outcome(result, expected: int) -> Outcome:
    points = result.points
    errors = [] if len(points) == expected else [
        f"{len(points)} points, expected {expected}"]
    if result.executed != expected:
        errors.append(f"{result.executed} points executed, expected "
                      f"{expected} (the cache was not empty)")
    # Each point simulates its engine and the plaintext baseline over the
    # same trace, so it completes twice its trace length in accesses.
    return Outcome(
        digest=_sha256(result.metrics_json()), points=len(points),
        accesses=sum(2 * p["accesses"] for p in points.values()),
        counts={key: sum(p[key] for p in points.values())
                for key in ("cycles", "cache_misses", "bus_bytes")},
        errors=errors)


def _faults_outcome(result, expected: int) -> Outcome:
    points = result.points
    errors = [] if len(points) == expected else [
        f"{len(points)} points, expected {expected}"]
    return Outcome(
        digest=_sha256(result.metrics_json()), points=len(points),
        accesses=FAULT_POINT_FILLS * len(points),
        counts={"injected": sum(p["injected"] for p in points.values()),
                "detected": sum(bool(p["detected"])
                                for p in points.values())},
        errors=errors)
