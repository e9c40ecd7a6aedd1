"""Request handlers and worker-side executors for the experiment server.

Three tiers of ops:

* *cheap* ops (``ping``, ``list_experiments``, ``list_engines``,
  ``stats``, ``shutdown``) are answered inline on the event loop;
* *compute* ops (``run_experiment``, ``run_campaign``, ``run_stream``)
  are validated here, keyed with :meth:`ResultCache.task_key`, and
  executed off the event loop (fork pool or thread) via the
  module-level functions in :data:`EXECUTORS` — module-level so the
  fork pool can send them to worker processes by reference;
* *stream* ops (``trace_begin`` / ``trace_chunk`` / ``trace_end``,
  :data:`STREAM_OPS`) carry a client's live trace over the framed
  protocol into a per-connection :class:`repro.sim.StreamExecutor`
  session — stateful by design, so they bypass dedup and cache.  The
  validation/decoding helpers live here; the session bookkeeping lives
  in :mod:`repro.serve.server`.

Executors return *canonical* documents (``stable_floats`` over a JSON
round trip), the same bytes a local :func:`repro.api.run_experiment` /
:func:`repro.api.run_campaign` / :func:`repro.api.run_stream` call
produces — the serve layer's core invariant, gated by
``tests/test_serve.py`` and the loadgen's byte-identity check.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..runner import METRICS_SCHEMA, ResultCache

__all__ = ["RequestError", "CHEAP_OPS", "COMPUTE_OPS", "EXECUTORS",
           "STREAM_OPS", "prepare_execution", "handle_cheap_op",
           "execute_experiment_op", "execute_campaign_op",
           "execute_stream_op", "begin_stream_session", "decode_records",
           "stream_metrics"]


class RequestError(Exception):
    """A request that cannot be executed; maps to a typed error frame."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# -- worker-side executors -------------------------------------------------


def execute_experiment_op(experiment_id: str, quick: bool) -> dict:
    """Run one registry experiment; returns its canonical document."""
    from ..api import run_experiment

    return run_experiment(experiment_id, quick=quick).to_document()


def execute_campaign_op(spec_doc: dict, cache_dir: Optional[str]) -> dict:
    """Run one campaign sweep; returns ``{"metrics", "profile"}``.

    Runs in-process inside the worker (``workers=1``) against the
    *server's* cache directory: completed points publish atomically in
    doubling batches, so a server killed mid-campaign leaves all but its
    in-flight batch behind and the next serve of the same spec resumes
    instead of restarting (``profile.cache.hits`` shows the replay).
    """
    from ..api import run_campaign
    from ..campaign import CampaignSpec

    result = run_campaign(
        CampaignSpec.from_dict(spec_doc), workers=1,
        cache_dir=Path(cache_dir) if cache_dir else None,
    )
    return {"metrics": result.metrics, "profile": result.profile}


def execute_stream_op(engine: Optional[str], workload: str, accesses: int,
                      chunk_size: int, seed: int) -> dict:
    """Run one chunk-streamed workload; returns its canonical document."""
    from ..api import run_stream

    return run_stream(engine=engine, workload=workload, accesses=accesses,
                      chunk_size=chunk_size, seed=seed)


#: Compute-op name -> executor.  Resolved at execution time (not at
#: validation time) so tests can substitute instrumented executors.
EXECUTORS: Dict[str, Callable] = {
    "run_experiment": execute_experiment_op,
    "run_campaign": execute_campaign_op,
    "run_stream": execute_stream_op,
}

COMPUTE_OPS = tuple(sorted(EXECUTORS))

#: Server-side bound on ``run_stream`` trace length: keeps one request's
#: worker occupancy to seconds, not minutes (longer traces stream through
#: the session ops instead, where the client pays the generation cost).
MAX_STREAM_ACCESSES = 5_000_000


def prepare_execution(op: str, params: dict,
                      server) -> Tuple[str, tuple]:
    """Validate a compute request; returns ``(task_key, executor_args)``.

    Raises :class:`RequestError` with a typed code on anything the
    server should reject before spending a worker on it.
    """
    if op == "run_experiment":
        from ..runner import list_experiments

        experiment = params.get("experiment")
        quick = bool(params.get("quick", True))
        if experiment not in list_experiments():
            raise RequestError(
                "unknown-experiment",
                f"unknown experiment {experiment!r}; "
                f"known: {', '.join(list_experiments())}",
            )
        key = ResultCache.task_key(
            "serve/experiment", str(experiment), {"quick": quick},
            schema=METRICS_SCHEMA, quick=quick,
        )
        return key, (str(experiment), quick)

    if op == "run_campaign":
        from ..campaign import CAMPAIGN_SCHEMA, CampaignSpec

        spec_doc = params.get("spec")
        if not isinstance(spec_doc, dict):
            raise RequestError(
                "bad-campaign", "params.spec must be a campaign spec object"
            )
        try:
            spec = CampaignSpec.from_dict(spec_doc)
            spec.validate()
        except (KeyError, ValueError, TypeError) as exc:
            raise RequestError("bad-campaign", str(exc)) from exc
        key = ResultCache.task_key(
            "serve/campaign", spec.name, spec.to_dict(),
            schema=CAMPAIGN_SCHEMA, quick=False,
        )
        cache_dir = str(server.cache.root) if server.cache else None
        return key, (spec.to_dict(), cache_dir)

    if op == "run_stream":
        engine = params.get("engine")
        workload = params.get("workload", "mixed")
        accesses = params.get("accesses", 200_000)
        chunk_size = params.get("chunk_size", 65536)
        seed = params.get("seed", 2005)
        engine = _check_engine(engine)
        _check_stream_workload(workload)
        if not isinstance(accesses, int) or not \
                1 <= accesses <= MAX_STREAM_ACCESSES:
            raise RequestError(
                "bad-stream",
                f"accesses must be an int in [1, {MAX_STREAM_ACCESSES}], "
                f"got {accesses!r}",
            )
        if not isinstance(chunk_size, int) or not \
                1 <= chunk_size <= 1_000_000:
            raise RequestError(
                "bad-stream",
                f"chunk_size must be an int in [1, 1000000], "
                f"got {chunk_size!r}",
            )
        if not isinstance(seed, int):
            raise RequestError("bad-stream", f"seed must be an int, "
                                             f"got {seed!r}")
        key = ResultCache.task_key(
            "serve/stream", f"{engine or 'baseline'}/{workload}",
            {"accesses": accesses, "chunk_size": chunk_size, "seed": seed},
            schema=METRICS_SCHEMA, quick=False,
        )
        return key, (engine, workload, accesses, chunk_size, seed)

    raise RequestError("unknown-op", f"op {op!r} is not a compute op")


# -- stream sessions (trace_begin / trace_chunk / trace_end) ----------------

STREAM_OPS = ("trace_begin", "trace_chunk", "trace_end")


def _check_engine(engine) -> Optional[str]:
    from ..core.registry import engine_names

    if engine in (None, "", "baseline"):
        return None
    if engine not in engine_names():
        raise RequestError(
            "bad-stream",
            f"unknown engine {engine!r}; known: "
            f"{', '.join(engine_names())} (or omit for the baseline)",
        )
    return engine


def _check_stream_workload(workload) -> None:
    from ..traces import STREAM_WORKLOAD_NAMES

    if not (isinstance(workload, str)
            and (workload.startswith("mcu-")
                 or workload in STREAM_WORKLOAD_NAMES)):
        raise RequestError(
            "bad-stream",
            f"unknown workload {workload!r}; choose from "
            f"{STREAM_WORKLOAD_NAMES} or mcu-<kernel>",
        )


def begin_stream_session(params: dict):
    """Validate ``trace_begin`` params; returns a ready system + label.

    The system matches :func:`repro.api.run_stream`'s construction
    (cache geometry, memory model, zeroed image), so a session fed the
    same accesses produces the same canonical metrics.
    """
    from ..core.registry import make_engine
    from ..sim import CacheConfig, MemoryConfig, SecureSystem

    engine = _check_engine(params.get("engine"))
    cache_size = params.get("cache_size", 4096)
    mem_latency = params.get("mem_latency", 40)
    image_size = params.get("image_size", 32 * 1024)
    if not isinstance(cache_size, int) or not 64 <= cache_size <= 1 << 20:
        raise RequestError(
            "bad-stream", f"cache_size must be an int in [64, 2^20], "
                          f"got {cache_size!r}")
    if not isinstance(mem_latency, int) or not 1 <= mem_latency <= 10_000:
        raise RequestError(
            "bad-stream", f"mem_latency must be an int in [1, 10000], "
                          f"got {mem_latency!r}")
    if not isinstance(image_size, int) or not 32 <= image_size <= 1 << 21:
        raise RequestError(
            "bad-stream", f"image_size must be an int in [32, 2^21], "
                          f"got {image_size!r}")
    try:
        system = SecureSystem(
            engine=make_engine(engine) if engine else None,
            cache_config=CacheConfig(size=cache_size, line_size=32,
                                     associativity=2),
            mem_config=MemoryConfig(size=1 << 21, latency=mem_latency),
        )
        system.install_image(0, bytes(image_size))
    except (KeyError, ValueError) as exc:
        raise RequestError("bad-stream", str(exc)) from exc
    return system, (engine or "baseline")


#: ``trace_chunk`` record label -> access kind (the din convention:
#: 0 = load, 1 = store, 2 = fetch).
_RECORD_KINDS: Dict[int, object] = {}


def decode_records(records) -> List:
    """Decode a ``trace_chunk`` records payload into accesses.

    Records are ``[label, addr, size]`` triples with din labels; any
    malformed record raises a one-line :class:`RequestError`.
    """
    from ..traces import Access, AccessKind

    if not _RECORD_KINDS:
        _RECORD_KINDS.update({0: AccessKind.LOAD, 1: AccessKind.STORE,
                              2: AccessKind.FETCH})
    if not isinstance(records, list):
        raise RequestError(
            "bad-stream", "params.records must be a list of "
                          "[label, addr, size] triples")
    out: List = []
    for i, rec in enumerate(records):
        if not (isinstance(rec, list) and len(rec) == 3
                and all(isinstance(v, int) for v in rec)):
            raise RequestError(
                "bad-stream",
                f"record {i}: expected [label, addr, size] ints, "
                f"got {rec!r}")
        label, addr, size = rec
        kind = _RECORD_KINDS.get(label)
        if kind is None:
            raise RequestError(
                "bad-stream",
                f"record {i}: unknown access label {label} "
                f"(0=load, 1=store, 2=fetch)")
        if addr < 0 or size <= 0:
            raise RequestError(
                "bad-stream",
                f"record {i}: invalid record (addr {addr:#x}, size {size})")
        out.append(Access(kind, addr, size))
    return out


def stream_metrics(system, label: str) -> dict:
    """Canonical metrics document for a finished stream session."""
    from ..runner import stable_floats

    report = system.report(label)
    return stable_floats(json.loads(json.dumps(report.to_metrics())))


# -- cheap ops -------------------------------------------------------------


def _ping(server, params: dict) -> dict:
    return {"pong": True, "payload": params.get("payload")}


def _list_experiments(server, params: dict) -> dict:
    from ..runner import list_experiments

    return {"experiments": list_experiments()}


def _list_engines(server, params: dict) -> dict:
    from ..api import list_engines

    return {"engines": list_engines(
        survey_only=bool(params.get("survey_only", False)))}


def _stats(server, params: dict) -> dict:
    return server.stats_document()


CHEAP_OPS: Dict[str, Callable] = {
    "ping": _ping,
    "list_experiments": _list_experiments,
    "list_engines": _list_engines,
    "stats": _stats,
}


def handle_cheap_op(server, op: str, params: dict) -> dict:
    return CHEAP_OPS[op](server, params)
