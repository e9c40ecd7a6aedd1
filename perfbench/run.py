"""The repository benchmark: host speed of the simulator on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload stream-dma --seed 2005 \\
        --seconds 30 --trace 0

One client in a closed loop: each child process (``child.py``) sets the
workload up from ``--seed`` and runs its operation; the next child starts
when the previous one has finished, until ``--seconds`` have passed and
at least ``MIN_CHILDREN`` set-ups were measured.  A stream child repeats
its run for its share of the time; a campaign child runs once, so the
program's per-process memos start cold in every campaign operation.
Modelled caches start empty in every operation.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
median set-up time, the median operation's throughput and the median
peak RSS of the children.  Times are in reference seconds (see
:func:`reference_s`): a shared host's speed drifts by a quarter within
seconds, and a fixed burst timed next to every operation cancels that.
``--trace 1`` runs untraced children next to children whose layer entry
points are wrapped in spans (``layers.py``) and prints the per-layer
metrics, the ``unattributed_s`` remainder and the tracing overhead.

Every child's canonical output is hashed and compared with the digest
committed in ``digests.json`` for that workload and seed (for a seed
without one, the children must agree with each other); a mismatch, a
failed invariant, or a backend rung other than the one requested
(``REPRO_BACKEND``, or the top ``numpy`` rung when unset) fails every
operation of that child.  The line before the result is a record with
the host fingerprint, ``fail_rate`` and the spread of the raw host
seconds behind the medians (quartiles and extremes).  The last line is the
result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEFAULT_SEED = 2005
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150
#: Host seconds of one reference burst on the reference host (the
#: burst's fast-state time on a shared 2-core x86_64 host, Python 3.11).
CAL_REF_S = 0.010
#: The CPUs this run may use.  A child without a worker pool is pinned to
#: the last one, a pooled child may use them all.
CPUS = sorted(os.sched_getaffinity(0))


def expected_rung(requested: str) -> str:
    """The rung a run must execute on: the one asked for, else the top."""
    return "numpy" if requested in ("", "auto") else requested


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def source_id() -> str:
    """``git describe`` of the checkout, else a hash of ``src/``."""
    try:
        # The ceiling keeps git from reading repositories above ROOT.
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def reference_s(cpus: List[int], bursts: int = 6) -> float:
    """Median host seconds of a fixed interpreter-bound burst on ``cpus``.

    Other tenants of a shared host slow each CPU by a share that drifts
    within seconds; on a 2-core host, operations a few seconds apart
    differed by up to 2x.  The bursts run in this process, which never
    imports the program, while the child waits between operations, so
    nothing the program does moves them; each burst is pinned in turn to
    one of the CPUs the child runs on, because the slowdown is per CPU.
    Each operation's time is divided by the mean of the bursts just
    before and after it (the set-up time by the one after it) and
    reported in *reference seconds*: host seconds on a host where one
    burst takes ``CAL_REF_S``.
    """
    times = []
    for k in range(bursts):
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(60_000):
            acc = (acc * 31 + i) & 0xFFFFF
            table[acc & 1023] = table.get(i & 1023, 0) + 1
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn(workload: str, seed: int, workers: Optional[int], traced: bool,
          work_dir: Path, slice_s: float = 0.0) -> dict:
    """Run one child to completion; its record, or raise on failure.

    The child prints ``burst`` and waits before and after each
    operation; a reference burst is timed here and the child resumed.
    """
    cpus = CPUS if (workers or 1) > 1 else CPUS[-1:]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    work_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--workers", str(workers or 0), "--trace", str(int(traced)),
           "--src", str(ROOT / "src"), "--work-dir", str(work_dir)]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0), "--until", repr(t0 + slice_s)]
    err = tempfile.TemporaryFile("w+")
    os.sched_setaffinity(0, cpus)  # inherited by the child
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=err, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill() -> None:
        # The child and its pool go together.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(CHILD_TIMEOUT_S,
                            lambda: (timed_out.set(), kill()))
    timer.start()
    bursts, last = [], ""
    try:
        for line in proc.stdout:
            if line == "burst\n":
                bursts.append(reference_s(cpus))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                last = line
        proc.wait()
    finally:
        # Interrupted, timed out or done: whatever the child left
        # running stops with it.
        timer.cancel()
        kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    if timed_out.is_set():
        raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        err.seek(0)
        raise RuntimeError(
            f"child exited {proc.returncode}:\n{err.read().strip()}")
    record = json.loads(last)
    record["setup_ref_s"] = bursts[0]
    record["ref_s"] = [(a + b) / 2 for a, b in zip(bursts, bursts[1:])]
    return record


def plan(workload: str, trace: bool):
    """The child modes of one run: ``(role, workers, traced)``.

    The traced run adds an untraced child at the traced child's worker
    count (the tracing-overhead base) and, for campaigns, one at the
    other worker count (the scaling-efficiency pair).
    """
    main = workloads.MAIN_WORKERS[workload]
    if not trace:
        return [("main", main, False)]
    if main is None:
        return [("main", None, False), ("traced", None, True)]
    other = 1 if main == 2 else 2
    return [("main", main, False), ("other", other, False),
            ("traced", 1, True)]


def run_children(args, work_root: Path) -> List[dict]:
    """Spawn children, one at a time, until ``--seconds`` have passed.

    A repeatable workload's child keeps repeating its operation for its
    share of the run, so a run holds at least ``MIN_CHILDREN`` set-ups
    (trace 0) or one child of each mode (trace 1).
    """
    modes = plan(args.workload, bool(args.trace))
    least = len(modes) if args.trace else MIN_CHILDREN
    slice_s = args.seconds / least
    deadline = time.monotonic() + args.seconds
    records: List[dict] = []
    while True:
        for role, workers, traced in modes:
            record = spawn(args.workload, args.seed, workers, traced,
                           work_root / f"child-{len(records)}", slice_s)
            record["role"] = role
            records.append(record)
        if time.monotonic() >= deadline and len(records) >= least:
            return records


def check(records: List[dict], expected: Optional[str]) -> List[str]:
    """Why each child failed (empty string: it passed)."""
    digests = {r["digest"] for r in records}
    reasons = []
    for r in records:
        wanted = expected_rung(r["rung"]["requested"])
        if r["rung"]["active"] != wanted:
            reasons.append(f"rung {r['rung']['active']} ran, "
                           f"{wanted} was requested")
        elif r["errors"]:
            reasons.append("; ".join(r["errors"]))
        elif expected is not None and r["digest"] != expected:
            reasons.append(f"digest {r['digest'][:16]} != committed "
                           f"{expected[:16]}")
        elif expected is None and len(digests) > 1:
            reasons.append("children disagree on the output digest")
        else:
            reasons.append("")
    return reasons


def ref_op_s(records: List[dict], role: str) -> float:
    """Median operation time of ``role``'s children, in reference seconds."""
    return statistics.median(
        t * CAL_REF_S / ref for r in records if r["role"] == role
        for t, ref in zip(r["op_s"], r["ref_s"]))


def samples(records: List[dict]) -> Dict[str, List[float]]:
    """Raw host values of the main children."""
    main = [r for r in records if r["role"] == "main"]
    return {
        "setup_s": [r["setup_s"] for r in main],
        "op_s": [t for r in main for t in r["op_s"]],
        "ref_s": [t for r in main for t in r["ref_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in main],
    }


def end_to_end(records: List[dict]) -> Dict[str, float]:
    main = next(r for r in records if r["role"] == "main")
    op_s = ref_op_s(records, "main")
    return {
        "setup_s": statistics.median(
            r["setup_s"] * CAL_REF_S / r["setup_ref_s"]
            for r in records if r["role"] == "main"),
        "accesses_per_s": main["accesses"] / op_s,
        "points_per_s": main["points"] / op_s,
        "peak_rss_mb": statistics.median(samples(records)["peak_rss_mb"]),
    }


def per_layer(records: List[dict]) -> Dict[str, float]:
    traced = [r for r in records if r["traced"]]
    out = {name: statistics.fmean(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["core.lines_per_fill_call"] = (
        out["core.lines_filled"] / out["core.fill_calls"]
        if out["core.fill_calls"] else 0.0)
    out["crypto.blocks_per_call"] = (
        out["crypto.blocks"] / out["crypto.cipher_calls"]
        if out["crypto.cipher_calls"] else 0.0)
    counts = traced[0]["counts"]
    for name in ("cycles", "cache_misses", "bus_bytes"):
        out[f"sim.{name}"] = counts.get(name, 0)
    for name in ("injected", "detected"):
        out[f"faults.{name}"] = counts.get(name, 0)

    base = next(r["role"] for r in records
                if not r["traced"] and r["workers"] == traced[0]["workers"])
    out["trace_overhead_frac"] = (ref_op_s(records, "traced")
                                  / ref_op_s(records, base) - 1)
    # Pool scaling: 2-worker rate over twice the 1-worker rate, untraced.
    # A workload without a pool runs its one worker at full efficiency.
    out["campaign.worker_efficiency"] = 1.0
    pools = {r["workers"]: r["points"] / ref_op_s(records, r["role"])
             for r in records if not r["traced"] and r["workers"]}
    if 1 in pools and 2 in pools:
        out["campaign.worker_efficiency"] = pools[2] / (2 * pools[1])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    table = json.loads((HERE / "digests.json").read_text())
    expected = table["workloads"][args.workload].get(str(args.seed))

    work_root = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        records = run_children(args, work_root)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass

    reasons = check(records, expected)
    attempted = sum(r["points"] * len(r["op_s"]) for r in records)
    failed = sum(r["points"] * len(r["op_s"])
                 for r, why in zip(records, reasons) if why)

    if args.trace:
        values = per_layer(records)
        wanted = spec["per_layer"]
        spread = {}
    else:
        spread = {name: quartiles(v)
                  for name, v in samples(records).items()}
        values = end_to_end(records)
        wanted = spec["end_to_end"]
    first = records[0]
    print(json.dumps({"perfbench": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": first["python"],
            "numpy": first["numpy"],
            "rung": first["rung"],
            "source": source_id(),
        },
        "digest": {"committed": expected,
                   "observed": sorted({r["digest"] for r in records})},
        "children": len(records),
        "fail_rate": failed / attempted,
        "failures": sorted({why for why in reasons if why}),
        "spread": spread,
    }}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
