"""Regenerate the committed output digests in ``digests.json``.

Run from the repository root after a change that is meant to alter the
program's outputs (or the workload definitions)::

    python3 perfbench/make_digests.py

Each workload runs once per seed in :data:`SEEDS`, in a child process
exactly as a benchmark run does, two children at a time, and the table
is rewritten with their canonical output digests.  A child with a
failed invariant or a demoted backend rung stops the regeneration.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run
import workloads

DIGESTS = run.HERE / "digests.json"
#: The seed a later gain claim is checked on after tuning on the default.
HELD_OUT_SEED = 1977
#: Seeds with a committed digest: the default, the held-out seed and the
#: small seeds repeated-run records use.
SEEDS = (*range(100), run.DEFAULT_SEED, HELD_OUT_SEED)


def digest_of(workload: str, seed: int, work_root: Path) -> str:
    record = run.spawn(workload, seed, workloads.MAIN_WORKERS[workload],
                       False, work_root / f"{workload}-{seed}")
    [reason] = run.check([record], None)
    if reason:
        raise RuntimeError(f"{workload} seed {seed}: {reason}")
    return record["digest"]


def main() -> int:
    table = json.loads(DIGESTS.read_text())
    table.update(default_seed=run.DEFAULT_SEED, held_out_seed=HELD_OUT_SEED,
                 workloads={})
    jobs = [(w, s) for w in workloads.WORKLOADS for s in SEEDS]
    work_root = run.ROOT / ".perfbench-work" / f"digests-{os.getpid()}"
    try:
        with ThreadPoolExecutor(2) as pool:
            digests = pool.map(lambda job: digest_of(*job, work_root), jobs)
            for (workload, seed), digest in zip(jobs, digests):
                table["workloads"].setdefault(workload, {})[str(seed)] = \
                    digest
                print(f"{workload} {seed} {digest}", flush=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass
    for workload, by_seed in table["workloads"].items():
        table["workloads"][workload] = dict(
            sorted(by_seed.items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
