"""On-disk memoization of completed experiment tasks.

Task results are pure functions of ``(experiment, task, context,
code-version)``, so re-running a bench suite only pays for what changed.
Results are keyed by a SHA-256 of the identifying tuple; the package
version is part of the key so upgrading the code invalidates stale
results wholesale.

The directory holds *segments*: one file per publication, named after
its first key (``<key>.json``), with one ``{"key": ..., "value": ...}``
JSON line per entry.  :meth:`ResultCache.put_many` writes a batch as one
segment; :meth:`ResultCache.put` writes a one-entry segment, which is
byte-identical to the one-file-per-key layout of earlier versions, so
old cache directories still replay.  Reads go through an in-memory
index of the segments seen so far: a miss loads only the segment files
not read yet (a replaced file has a new inode and is read again), never
the whole directory.  Garbage, truncated lines and entries of the wrong
shape are skipped, so they read as misses.  A segment that starts with
the same key as an older one replaces that file; entries only the
older file held are recomputed by a later run, never replayed wrong.

The cache is safe under concurrent writers (each segment is published
by an atomic rename) and safe to delete at any time (``make clean``
removes it).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from .. import __version__

__all__ = ["ResultCache", "stable_floats"]


def stable_floats(value, places: int = 6):
    """Canonical float formatting for result documents.

    Rounds every float to ``places`` decimals and collapses ``-0.0`` to
    ``0.0``, recursively, so a metrics dict serializes to the same bytes
    no matter which process produced it or whether it round-tripped
    through the cache.  Shard merge determinism depends on this: two
    workers computing the same point must publish byte-identical
    documents, and an aggregate computed from cached entries must equal
    one computed from fresh results.
    """
    if isinstance(value, float):
        rounded = round(value, places)
        return 0.0 if rounded == 0.0 else rounded
    if isinstance(value, dict):
        return {key: stable_floats(item, places)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [stable_floats(item, places) for item in value]
    return value


class ResultCache:
    """A directory of memoized task results."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: key -> the JSON line of its entry, for every segment read.
        self._index: Dict[str, str] = {}
        #: segment file name -> inode it had when it was read.
        self._segments: Dict[str, int] = {}

    @staticmethod
    def task_key(experiment_id: str, task_name: str, ctx_key: dict,
                 schema: str = "", *, quick: Optional[bool] = None) -> str:
        """Stable digest identifying one task execution.

        ``schema`` is the metrics schema the caller will store under the
        key: bumping the document schema must invalidate cached entries,
        otherwise stale results of the old shape would be replayed into
        new documents.

        ``quick`` is folded into the key as a first-class field so a
        quick-suite (scaled-down) result can never be replayed into a
        full-scale document — even if a caller builds ``ctx_key`` by hand
        and forgets the flag.  When not passed explicitly it is recovered
        from ``ctx_key``.
        """
        if quick is None:
            quick = bool(ctx_key.get("quick", False))
        ident = json.dumps(
            {
                "experiment": experiment_id,
                "task": task_name,
                "ctx": ctx_key,
                "quick": bool(quick),
                "schema": schema,
                "version": __version__,
            },
            sort_keys=True,
        )
        return hashlib.sha256(ident.encode()).hexdigest()[:24]

    def counters(self) -> dict:
        """Hit/miss accounting as a JSON-ready dict (profiles, stats)."""
        return {"hits": self.hits, "misses": self.misses}

    def get(self, key: str) -> Optional[dict]:
        line = self._index.get(key)
        if line is None:
            self._load_new_segments()
            line = self._index.get(key)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        # Decoded per hit: no two callers share one replayed object.
        return json.loads(line)["value"]

    def put(self, key: str, value: dict) -> None:
        self.put_many([(key, value)])

    def put_many(self, entries: Iterable[Tuple[str, dict]]) -> None:
        """Publish ``entries`` as one segment; no file when empty."""
        # Canonical on-disk form: sorted keys below, stable floats here.
        # Producers already emit rounded floats, so this is normally the
        # identity — it exists so no writer can introduce entries whose
        # replay differs from a fresh execution by float formatting.
        lines = {key: json.dumps({"key": key, "value": stable_floats(value)},
                                 sort_keys=True)
                 for key, value in entries}
        if not lines:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        name = f"{next(iter(lines))}.json"
        # Atomic publish: never expose a half-written segment.
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines.values()))
                inode = os.fstat(fh.fileno()).st_ino
            os.replace(tmp, self.root / name)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._segments[name] = inode
        self._index.update(lines)

    def _load_new_segments(self) -> None:
        """Index every segment file not read yet (or replaced since)."""
        try:
            with os.scandir(self.root) as entries:
                fresh = [(entry.name, entry.inode()) for entry in entries
                         if entry.name.endswith(".json")
                         and self._segments.get(entry.name) != entry.inode()]
        except OSError:
            return
        for name, inode in fresh:
            self._segments[name] = inode
            try:
                with open(self.root / name, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, ValueError):
                continue
            for line in text.split("\n"):
                try:
                    payload = json.loads(line)
                except (ValueError, RecursionError):
                    continue
                # Entries written before the payload carried a "value"
                # field, or of any other shape, are unreadable by
                # construction: skip them, so they read as misses.
                if (isinstance(payload, dict)
                        and isinstance(payload.get("key"), str)
                        and isinstance(payload.get("value"), dict)):
                    self._index[payload["key"]] = line
