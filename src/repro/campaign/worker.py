"""Campaign worker: execute design points, one shard per process.

The worker side of the coordinator/worker split.  :func:`execute_point`
turns one :class:`~repro.campaign.spec.CampaignPoint` into its metrics
dict; :func:`execute_shard` is the ``multiprocessing`` entry point that
walks a whole shard, publishing each completed point into the shared
on-disk :class:`~repro.runner.cache.ResultCache` as it lands (atomic
rename makes concurrent shard writers safe), so an interrupted sweep
loses at most the points in flight.

Per-process memoization: workload traces are built and compiled once per
``(workload, accesses, seed, line_size)`` and reused across every design
point that shares them — the same compile-once discipline
``overhead_grid`` applies within one experiment, extended across a
shard.  The plaintext baseline of an overhead point does not depend on
the engine, so it is simulated once per trace and system configuration
and shared by every engine of that column.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..runner.cache import ResultCache, stable_floats

__all__ = ["execute_point", "execute_shard"]

#: One shard handed to a worker process: its id, the pending points as
#: ``(name, kind, params, task_key)`` tuples, and the cache directory
#: (``None`` disables publication).
ShardPayload = Tuple[int, List[Tuple[str, str, dict, str]], Optional[str]]


@lru_cache(maxsize=64)
def _compiled_trace(workload: str, accesses: int, seed: int,
                    line_size: int):
    """Build + compile one workload trace, memoized per process."""
    from ..sim.fastpath import compile_trace
    from ..traces import make_workload

    trace = make_workload(workload, n=accesses, seed=seed)
    return compile_trace(trace, line_size)


def _system_configs(line_size: int, cache_size: int, associativity: int,
                    latency: int):
    from ..sim import CacheConfig, MemoryConfig

    return (CacheConfig(size=cache_size, line_size=line_size,
                        associativity=associativity),
            MemoryConfig(latency=latency))


@lru_cache(maxsize=1024)
def _baseline_report(trace_key: Tuple[str, int, int, int],
                     system_key: Tuple[int, int, int, int]):
    """Simulate one plaintext baseline, memoized per process."""
    from ..sim import SecureSystem

    cache_config, mem_config = _system_configs(*system_key)
    system = SecureSystem(engine=None, cache_config=cache_config,
                          mem_config=mem_config)
    return system.run(_compiled_trace(*trace_key))


def _overhead_point(params: Dict[str, object]) -> Dict[str, object]:
    from ..analysis import measure_overhead
    from ..core.registry import make_engine
    from ..obs import current_sink

    line_size = int(params["line_size"])
    trace_key = (str(params["workload"]), int(params["accesses"]),
                 int(params["seed"]), line_size)
    system_key = (line_size, int(params["cache_size"]),
                  int(params["associativity"]), int(params["latency"]))
    cache_config, mem_config = _system_configs(*system_key)
    # Under an ambient sink the baseline runs again, so the sink sees its
    # events exactly as on the unmemoized path.
    baseline = (None if current_sink() is not None
                else _baseline_report(trace_key, system_key))
    result = measure_overhead(
        lambda: make_engine(str(params["engine"]), functional=False),
        _compiled_trace(*trace_key),
        workload=trace_key[0],
        cache_config=cache_config,
        mem_config=mem_config,
        baseline=baseline,
    )
    secured, baseline = result.secured, result.baseline
    return {
        "accesses": secured.accesses,
        "cycles": secured.cycles,
        "baseline_cycles": baseline.cycles,
        "overhead": round(result.overhead, 6),
        "miss_rate": round(baseline.miss_rate, 6),
        "cache_hits": secured.cache_hits,
        "cache_misses": secured.cache_misses,
        "bus_transactions": secured.bus_transactions,
        "bus_bytes": secured.bus_bytes,
        "bytes_enciphered": secured.bytes_enciphered,
    }


def _faults_point(params: Dict[str, object]) -> Dict[str, object]:
    from ..faults import run_campaign

    fault = params["fault"]
    result = run_campaign(
        str(params["label"]), None if fault is None else str(fault),
        seed=int(params["seed"]), quick=True,
    )
    return {
        "engine": result.engine_name,
        "fault": result.kind,
        "verdict": result.verdict,
        "conforms": result.conforms,
        "expected_detect": result.expected_detect,
        "injected": result.injected,
        "detected": result.detected,
        "corrupted": result.corrupted,
        "checks": result.checks,
        "tampers": result.tampers,
    }


_POINT_FAMILIES = {
    "overhead": _overhead_point,
    "faults": _faults_point,
}


def execute_point(kind: str, params: Dict[str, object]) -> Dict[str, object]:
    """Run one design point; returns canonical JSON-ready metrics.

    The metrics pass through :func:`stable_floats` *before* they are
    returned or cached, so a freshly-executed point and its cache replay
    are the same bytes — the invariant the deterministic merge relies
    on.
    """
    try:
        family = _POINT_FAMILIES[kind]
    except KeyError:
        raise KeyError(
            f"unknown campaign point kind {kind!r}; "
            f"known: {', '.join(sorted(_POINT_FAMILIES))}"
        ) from None
    return stable_floats(family(params))


def execute_shard(payload: ShardPayload):
    """Process-pool entry point: execute every pending point of a shard.

    Returns ``(shard_id, [(name, metrics), ...])`` in execution order.
    Each point is published to the on-disk cache immediately after it
    completes; the coordinator never re-collects cached points from the
    return value, so a worker killed mid-shard simply leaves its
    completed prefix behind for the next run to resume from.
    """
    shard_id, items, cache_dir = payload
    cache = ResultCache(Path(cache_dir)) if cache_dir else None
    completed = []
    for name, kind, params, key in items:
        metrics = execute_point(kind, params)
        if cache is not None:
            cache.put(key, {"metrics": metrics})
        completed.append((name, metrics))
    return shard_id, completed
