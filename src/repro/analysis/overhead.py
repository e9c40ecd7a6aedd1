"""Performance-overhead accounting across engines and workloads.

The survey's recurring metric is "performance overhead of the encryption
engine" — cycles with the EDU over cycles without, minus one.  This module
runs engine x workload grids and produces the comparison structures the
benches print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.engine import BusEncryptionEngine
from ..sim.cache import CacheConfig
from ..sim.memory import MemoryConfig
from ..sim.system import SecureSystem, SimReport
from ..traces.trace import Trace

__all__ = ["OverheadResult", "measure_overhead", "overhead_grid",
           "EngineFactory"]

#: A zero-argument callable producing a fresh engine (engines keep state —
#: pad caches, IV tables — so each run needs its own instance).
EngineFactory = Callable[[], Optional[BusEncryptionEngine]]


@dataclass
class OverheadResult:
    """One engine on one workload, versus the plaintext baseline."""

    engine_name: str
    workload: str
    baseline: SimReport
    secured: SimReport

    @property
    def overhead(self) -> float:
        return self.secured.overhead_vs(self.baseline)

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.overhead

    def __str__(self) -> str:
        return (
            f"{self.engine_name} on {self.workload}: "
            f"{self.overhead_percent:+.2f}% "
            f"({self.secured.cycles} vs {self.baseline.cycles} cycles, "
            f"miss rate {self.baseline.miss_rate:.1%})"
        )


def measure_overhead(
    engine_factory: EngineFactory,
    trace: Trace,
    workload: str = "",
    image: Optional[bytes] = None,
    image_base: int = 0,
    cache_config: Optional[CacheConfig] = None,
    mem_config: Optional[MemoryConfig] = None,
    baseline: Optional[SimReport] = None,
    **system_kwargs,
) -> OverheadResult:
    """Run one engine and the baseline on the same trace.

    A ``baseline`` report already simulated for this trace and
    configuration is used as is instead of running the plaintext system
    again; it does not depend on the engine.
    """
    from ..sim.fastpath import compile_trace

    cache_config = cache_config or CacheConfig()
    mem_config = mem_config or MemoryConfig()
    # Compile once: both runs (and, through overhead_grid, every engine on
    # this workload) replay the same coalesced access runs.
    compiled = compile_trace(trace, cache_config.line_size)

    def run(engine: Optional[BusEncryptionEngine]) -> SimReport:
        system = SecureSystem(
            engine=engine, cache_config=cache_config, mem_config=mem_config,
            **system_kwargs,
        )
        if image is not None:
            system.install_image(image_base, image)
        return system.run(compiled)

    engine = engine_factory()
    secured = run(engine)
    if baseline is None:
        baseline = run(None)
    return OverheadResult(
        engine_name=secured.label,
        workload=workload,
        baseline=baseline,
        secured=secured,
    )


def overhead_grid(
    engines: Dict[str, EngineFactory],
    workloads: Dict[str, Trace],
    **kwargs,
) -> List[OverheadResult]:
    """Every engine on every workload; the E14 survey-table data."""
    from ..sim.fastpath import compile_trace

    line_size = (kwargs.get("cache_config") or CacheConfig()).line_size
    results = []
    for workload_name, trace in workloads.items():
        # One compilation serves the whole engine column (compile_trace
        # passes an already-compiled trace through unchanged).
        trace = compile_trace(trace, line_size)
        for engine_name, factory in engines.items():
            result = measure_overhead(
                factory, trace, workload=workload_name, **kwargs
            )
            result.engine_name = engine_name
            results.append(result)
    return results
