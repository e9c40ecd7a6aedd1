"""Per-layer spans for the traced benchmark run, recorded from outside.

The program has no timers of its own yet, so the traced run wraps the
public entry points of each layer (functions and methods of the
``repro`` package) in timing shims installed at run time.  Nothing in
``src/`` changes; the untraced runs that produce the end-to-end numbers
never install the shims.

A layer's *self* time is its spans' duration minus the time of wrapped
spans nested inside them, so the self times of all layers plus the
``unattributed`` remainder add up to the traced wall time.  Calls are
counted only for the outermost span of a layer (an integrity engine's
``fill_line`` calling its inner engine's ``fill_line`` is one fill).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional

#: Self-time metric name -> layer span name.
TIME_METRICS = {
    "traces.gen_s": "traces.gen",
    "sim.run_s": "sim.run",
    "sim.compile_s": "sim.compile",
    "sim.memory_init_s": "sim.memory_init",
    "core.engine_build_s": "core.engine_build",
    "core.fill_s": "core.fill",
    "core.write_s": "core.write",
    "crypto.cipher_s": "crypto.cipher",
    "crypto.mac_s": "crypto.mac",
    "analysis.overhead_s": "analysis.overhead",
    "runner.cache_put_s": "runner.cache_put",
    "runner.cache_get_s": "runner.cache_get",
    "campaign.plan_s": "campaign.plan",
    "campaign.merge_s": "campaign.merge",
    "faults.self_s": "faults",
}

#: Count metric name -> counter key (outermost calls are ``calls:<layer>``).
COUNT_METRICS = {
    "traces.accesses": "accesses",
    "sim.compile_calls": "calls:sim.compile",
    "sim.memory_inits": "calls:sim.memory_init",
    "core.engine_builds": "calls:core.engine_build",
    "core.fill_calls": "calls:core.fill",
    "core.lines_filled": "lines_filled",
    "core.write_calls": "calls:core.write",
    "crypto.cipher_calls": "calls:crypto.cipher",
    "crypto.blocks": "blocks",
    "crypto.mac_calls": "calls:crypto.mac",
    "analysis.overhead_calls": "calls:analysis.overhead",
    "runner.cache_puts": "calls:runner.cache_put",
    "runner.cache_hits": "cache_hits",
    "runner.cache_misses": "cache_misses",
    "faults.campaigns": "calls:faults",
}


class Tracer:
    """Span recorder: self time per layer plus counts, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        # One entry per open span: seconds covered by its child spans.
        self._child_s = []

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a ``layer`` span.

        ``count(args, kwargs, result)`` runs after the outermost span of
        the layer and returns extra ``{counter: increment}``.
        """
        clock, child_s, depth = self.clock, self._child_s, self._depth
        self_s, counts = self.self_s, self.counts
        calls_key = f"calls:{layer}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = depth[layer] == 0
            depth[layer] += 1
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] -= 1
                self_s[layer] += elapsed - child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
            if outermost:
                counts[calls_key] += 1
                if count is not None:
                    counts.update(count(args, kwargs, result))
            return result

        return traced

    def wrap_iterator(self, layer: str, iterator, count: Callable):
        """Yield from ``iterator``, timing each ``next`` as a span."""
        step = self.wrap(layer, next, count)
        while True:
            try:
                item = step(iterator)
            except StopIteration:
                return
            yield item

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Self times, counts and ratios for one traced wall interval."""
        out = {name: self.self_s.get(layer, 0.0)
               for name, layer in TIME_METRICS.items()}
        out.update({name: self.counts.get(key, 0)
                    for name, key in COUNT_METRICS.items()})
        out["unattributed_s"] = wall_s - sum(self.self_s.values())
        out["traced_wall_s"] = wall_s
        return out


def _replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro`` module attribute that is ``original``.

    Callers that did ``from x import f`` hold their own binding, so the
    shim has to replace each of them, not just the defining module's.
    """
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def _wrap_method(tracer: Tracer, cls: type, name: str, layer: str,
                 count: Optional[Callable] = None) -> None:
    if name in vars(cls):
        setattr(cls, name, tracer.wrap(layer, vars(cls)[name], count))


def _wrap_function(tracer: Tracer, original: Callable, layer: str,
                   count: Optional[Callable] = None) -> None:
    if not _replace_everywhere(original, tracer.wrap(layer, original,
                                                     count)):
        raise RuntimeError(f"no module binds {original.__qualname__}")


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points with ``tracer`` spans.

    Imports every module whose functions are wrapped first, so the
    identity scan finds all their bindings.
    """
    import repro.analysis.overhead as overhead
    import repro.api  # noqa: F401 - binds make_engine/measure_overhead
    import repro.campaign.coordinator as coordinator
    import repro.campaign.merge as merge
    import repro.campaign.worker  # noqa: F401
    import repro.core.registry as registry
    import repro.crypto.kernels as kernels
    import repro.faults.campaign as faults
    import repro.sim.fastpath as fastpath
    import repro.traces as traces
    # The package re-exports functions named like these modules.
    hmac = importlib.import_module("repro.crypto.hmac")
    sha256 = importlib.import_module("repro.crypto.sha256")
    from repro.core.engine import BusEncryptionEngine
    from repro.runner.cache import ResultCache
    from repro.sim.memory import MainMemory
    from repro.sim.system import SecureSystem
    from repro.traces.stream import TraceStream

    # traces: chunk production of streams, whole materialized traces.
    chunks = TraceStream.chunks

    def traced_chunks(stream):
        return tracer.wrap_iterator(
            "traces.gen", chunks(stream),
            lambda args, kwargs, chunk: {"accesses": len(chunk)})

    TraceStream.chunks = traced_chunks
    _wrap_function(tracer, traces.make_workload, "traces.gen",
                   lambda a, k, trace: {"accesses": len(trace)})

    # sim: executor, per-trace and per-chunk compile, memory set-up.
    for name in ("run", "run_reference"):
        _wrap_method(tracer, SecureSystem, name, "sim.run")
    _wrap_function(tracer, fastpath.compile_trace, "sim.compile")
    _wrap_function(tracer, fastpath._compile_arrays, "sim.compile")
    _wrap_method(tracer, MainMemory, "__init__", "sim.memory_init")

    # core: engine construction, line fills, line writes.
    _wrap_function(tracer, registry.make_engine, "core.engine_build")

    def lines_filled(args, kwargs, result):
        return {"lines_filled": len(result) if isinstance(result, list)
                else 1}

    for cls in [BusEncryptionEngine, *_subclasses(BusEncryptionEngine)]:
        for name in ("fill_line", "fill_lines"):
            _wrap_method(tracer, cls, name, "core.fill", lines_filled)
        for name in ("spill_lines", "write_line", "write_partial",
                     "encrypt_lines"):
            _wrap_method(tracer, cls, name, "core.write")

    # crypto: batched cipher kernels and the MAC/hash primitives.
    def kernel_blocks(args, kwargs, result):
        return {"blocks": len(args[1]) // args[0].block_size}

    for cls in (kernels.AESKernel, kernels.DESKernel,
                kernels.TripleDESKernel, kernels.ReferenceKernel):
        for name in ("encrypt_blocks", "decrypt_blocks"):
            _wrap_method(tracer, cls, name, "crypto.cipher", kernel_blocks)
    for fn in (kernels.encrypt_blocks, kernels.decrypt_blocks):
        _wrap_function(tracer, fn, "crypto.cipher", kernel_blocks)

    def pad_blocks(args, kwargs, result):
        cipher, addr, nbytes = args[:3]
        size = cipher.block_size
        return {"blocks": -(-(addr % size + nbytes) // size)}

    _wrap_function(tracer, kernels.ctr_pad, "crypto.cipher", pad_blocks)
    _wrap_function(tracer, hmac.hmac_sha256, "crypto.mac")
    _wrap_function(tracer, sha256.sha256, "crypto.mac")

    # analysis, runner cache, campaign coordinator, fault campaigns.
    _wrap_function(tracer, overhead.measure_overhead, "analysis.overhead")
    _wrap_method(tracer, ResultCache, "put", "runner.cache_put")
    _wrap_method(
        tracer, ResultCache, "get", "runner.cache_get",
        lambda a, k, hit: {"cache_hits" if hit is not None
                           else "cache_misses": 1})
    _wrap_method(tracer, coordinator.CampaignCoordinator, "plan",
                 "campaign.plan")
    _wrap_function(tracer, merge.merge_shard_documents, "campaign.merge")
    _wrap_function(tracer, merge.build_document, "campaign.merge")
    _wrap_function(tracer, faults.run_campaign, "faults")
