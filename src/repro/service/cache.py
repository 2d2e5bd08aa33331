"""Sharded content-addressed result cache: the one on-disk result store.

The compile service caches its replies here and the experiment runner
its per-loop outcomes.  Entries are small JSON documents keyed by the
hex compile-request fingerprint
(:func:`repro.workloads.fingerprint.compile_fingerprint`; the runner's
keys add an ``extra`` record-kind tag, so the two never collide in a
shared directory).  Keys spread over 256 shard directories (the first
two hex characters), so a million-entry cache never puts a million
files in one directory and shard subsets can be rsynced / expired
independently.

Writes are atomic (temp file + rename), replays are validated against
the writer's ``version`` (:data:`CACHE_VERSION`), and a corrupt or torn
entry reads as a miss, never an error.  Callers count hits and misses
on the trace.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional

#: Bumped whenever a cached document's schema, or the outcome the
#: compiler gives some input, changes; entries written under another
#: version read as misses.  (4: malformed inputs fail at the compile
#: boundary, where a negative latency used to compile.)
CACHE_VERSION = 4


class ShardedResultCache:
    """Directory-sharded key→document store."""

    def __init__(self, root: str, version: int) -> None:
        self.root = root
        self.version = version
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        if len(key) < 3:
            raise ValueError(f"cache key too short: {key!r}")
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[Dict]:
        """The cached document under ``key``, or None."""
        try:
            with open(self._path(key)) as handle:
                doc = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        if doc.get("version") != self.version:
            return None
        return doc.get("value")

    def put(self, key: str, value: Dict) -> None:
        """Persist one document atomically under ``key``."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w") as handle:
            json.dump({"version": self.version, "value": value}, handle)
        os.replace(tmp, path)

    def __len__(self) -> int:
        count = 0
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            count += sum(
                1 for entry in os.listdir(shard_dir)
                if entry.endswith(".json")
            )
        return count
