"""The sharded content-addressed result cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import EngineOptions, run_experiment
from repro.machine import two_cluster_gp
from repro.obs import tracing
from repro.service import ShardedResultCache
from repro.workloads import paper_suite

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestShardedCache:
    def test_round_trip(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), version=3)
        cache.put(KEY, {"status": "ok", "ii": 4})
        assert cache.get(KEY) == {"status": "ok", "ii": 4}

    def test_miss_returns_none(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), version=3)
        assert cache.get(KEY) is None

    def test_keys_spread_over_shard_directories(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), version=3)
        cache.put(KEY, {"a": 1})
        cache.put(OTHER, {"b": 2})
        assert os.path.exists(
            os.path.join(str(tmp_path), "ab", f"{KEY}.json")
        )
        assert os.path.exists(
            os.path.join(str(tmp_path), "cd", f"{OTHER}.json")
        )
        assert len(cache) == 2

    def test_version_mismatch_is_a_miss(self, tmp_path):
        old = ShardedResultCache(str(tmp_path), version=2)
        old.put(KEY, {"stale": True})
        new = ShardedResultCache(str(tmp_path), version=3)
        assert new.get(KEY) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), version=3)
        cache.put(KEY, {"fine": 1})
        path = os.path.join(str(tmp_path), "ab", f"{KEY}.json")
        with open(path, "w") as handle:
            handle.write("{ torn write")
        assert cache.get(KEY) is None

    def test_overwrite_replaces(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), version=3)
        cache.put(KEY, {"ii": 4})
        cache.put(KEY, {"ii": 5})
        assert cache.get(KEY) == {"ii": 5}
        assert len(cache) == 1

    def test_hit_rate_counters(self, tmp_path):
        # The cache counts nothing; the runner counts each lookup of a
        # resumed run on the trace, as a hit or as a miss.
        suite = paper_suite(9)
        machine = two_cluster_gp()
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_experiment(suite[:5], machine, options=options)
        with tracing() as trace:
            result = run_experiment(suite, machine, options=options)
        assert result.cache_hits == 5
        assert trace.counter("engine.cache_hits") == result.cache_hits
        assert trace.counter("engine.cache_misses") == \
            len(suite) - result.cache_hits

    def test_short_key_rejected(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), version=3)
        with pytest.raises(ValueError):
            cache.put("ab", {"x": 1})

    def test_entries_are_plain_json(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), version=3)
        cache.put(KEY, {"ii": 4})
        path = os.path.join(str(tmp_path), "ab", f"{KEY}.json")
        with open(path) as handle:
            doc = json.load(handle)
        assert doc == {"version": 3, "value": {"ii": 4}}
