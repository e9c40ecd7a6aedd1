"""One benchmark child process: set up one workload, run it, report.

Started by ``run.py`` with ``--t0`` set to the parent's monotonic clock
just before the spawn, so ``setup_s`` covers interpreter start, imports,
the backend probe and the workload's spec expansion and validation.
A repeatable workload runs its operation again until ``--until``; the
campaigns run once, because their per-process memos would make a second
run in the same process warmer than the first.  Before and after each
operation the child prints ``burst`` and waits for a line on standard
input while the parent times its reference burst.  Prints one JSON
record as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import workloads


def _peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped pool workers (ru_maxrss KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=0,
                        help="campaign worker count (0: no pool)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--until", type=float, required=True,
                        help="time.monotonic() after which no repeatable "
                             "operation starts (one always runs)")
    parser.add_argument("--src", required=True,
                        help="the src/ directory repro must import from")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    import repro
    import repro.api  # noqa: F401 - part of set-up: every layer imported
    import repro.crypto.kernels  # noqa: F401 - settles the backend probe
    from repro import backend

    src = Path(args.src).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"child: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None

    prepared = workloads.prepare(args.workload, args.seed,
                                 args.workers or None, Path(args.work_dir))
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)

    def pause() -> None:
        print("burst", flush=True)
        sys.stdin.readline()

    setup_s = time.monotonic() - args.t0
    op_s, outcomes = [], []
    while not op_s or (prepared.repeatable and time.monotonic() < args.until):
        pause()
        start = time.perf_counter()
        result = prepared.run()
        op_s.append(time.perf_counter() - start)
        prepared.cleanup()
        outcomes.append(prepared.outcome(result))
    pause()

    outcome = outcomes[0]
    errors = sorted({e for o in outcomes for e in o.errors})
    if len({o.digest for o in outcomes}) > 1:
        errors.append("repeated operations disagree on the output digest")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "workers": args.workers,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "op_s": op_s,
        "points": outcome.points,
        "accesses": outcome.accesses,
        "counts": outcome.counts,
        "digest": outcome.digest,
        "errors": errors,
        "peak_rss_mb": _peak_rss_mb(),
        "rung": {"requested": backend.REQUESTED, "active": backend.ACTIVE},
        "numpy": numpy_version,
        "python": platform.python_version(),
    }
    if tracer is not None:
        # Per operation: the tracer accumulated over all of them.
        record["layers"] = {
            name: value / len(op_s)
            for name, value in tracer.layer_metrics(sum(op_s)).items()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
