"""Tests for the two-tier partition cache (repro.engine.cache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import PartitionCache, ShardedSyrennEngine
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.segment import LineSegment


def payload(value: float) -> dict[str, np.ndarray]:
    return {"ratios": np.array([0.0, value, 1.0])}


class TestMemoryTier:
    def test_hit_returns_stored_payload(self, tmp_path):
        cache = PartitionCache(directory=tmp_path, disk=False)
        cache.put(("net", "geo"), payload(0.5))
        stored = cache.get(("net", "geo"))
        np.testing.assert_array_equal(stored["ratios"], [0.0, 0.5, 1.0])
        assert cache.stats.memory.hits == 1
        assert cache.stats.memory.misses == 0

    def test_miss_counts_both_tiers_when_disk_disabled(self, tmp_path):
        cache = PartitionCache(directory=tmp_path, disk=False)
        assert cache.get(("net", "missing")) is None
        assert cache.stats.memory.misses == 1
        assert cache.stats.disk.misses == 1
        assert cache.stats.hits == 0

    def test_lru_eviction_order(self, tmp_path):
        cache = PartitionCache(max_entries=2, directory=tmp_path, disk=False)
        cache.put(("n", "a"), payload(0.1))
        cache.put(("n", "b"), payload(0.2))
        # Touch "a" so "b" becomes the least recently used entry.
        assert cache.get(("n", "a")) is not None
        cache.put(("n", "c"), payload(0.3))
        assert cache.stats.memory.evictions == 1
        assert cache.memory_keys() == [("n", "a"), ("n", "c")]
        assert cache.get(("n", "b")) is None           # evicted
        assert cache.get(("n", "a")) is not None       # survived
        assert cache.get(("n", "c")) is not None       # newest

    def test_put_same_key_does_not_grow(self, tmp_path):
        cache = PartitionCache(max_entries=2, directory=tmp_path, disk=False)
        for value in (0.1, 0.2, 0.3):
            cache.put(("n", "a"), payload(value))
        assert len(cache) == 1
        assert cache.stats.memory.evictions == 0
        np.testing.assert_array_equal(cache.get(("n", "a"))["ratios"], [0.0, 0.3, 1.0])

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PartitionCache(max_entries=0, directory=tmp_path)


class TestDiskTier:
    def test_round_trip_through_disk(self, tmp_path):
        writer = PartitionCache(directory=tmp_path)
        writer.put(("net", "geo"), payload(0.25))
        assert writer.stats.disk.puts == 1
        # A fresh cache over the same directory models a second process.
        reader = PartitionCache(directory=tmp_path)
        stored = reader.get(("net", "geo"))
        np.testing.assert_array_equal(stored["ratios"], [0.0, 0.25, 1.0])
        assert reader.stats.memory.misses == 1
        assert reader.stats.disk.hits == 1
        # The disk hit was promoted: the next get is a memory hit.
        assert reader.get(("net", "geo")) is not None
        assert reader.stats.memory.hits == 1

    def test_eviction_does_not_lose_disk_copy(self, tmp_path):
        cache = PartitionCache(max_entries=1, directory=tmp_path)
        cache.put(("n", "a"), payload(0.1))
        cache.put(("n", "b"), payload(0.2))
        assert cache.stats.memory.evictions == 1
        # "a" was evicted from memory but comes back from disk.
        stored = cache.get(("n", "a"))
        np.testing.assert_array_equal(stored["ratios"], [0.0, 0.1, 1.0])
        assert cache.stats.disk.hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = PartitionCache(directory=tmp_path)
        cache.put(("net", "geo"), payload(0.5))
        cache.clear_memory()
        cache._disk_path(("net", "geo")).write_bytes(b"not an npz file")
        assert cache.get(("net", "geo")) is None
        assert cache.stats.disk.misses == 1

    def test_torn_write_is_a_miss_and_recoverable(self, tmp_path):
        """A truncated .npz (a torn write) must not poison the key forever."""
        cache = PartitionCache(directory=tmp_path)
        cache.put(("net", "geo"), payload(0.5))
        cache.clear_memory()
        path = cache._disk_path(("net", "geo"))
        path.write_bytes(path.read_bytes()[:20])  # valid zip magic, torn body
        assert cache.get(("net", "geo")) is None
        # The torn file was dropped, so a re-put repairs the disk tier.
        assert not path.exists()
        cache.put(("net", "geo"), payload(0.75))
        cache.clear_memory()
        np.testing.assert_array_equal(
            cache.get(("net", "geo"))["ratios"], [0.0, 0.75, 1.0]
        )

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = PartitionCache(directory=tmp_path)
        for index in range(3):
            cache.put(("net", f"geo{index}"), payload(0.5))
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_contains_checks_both_tiers(self, tmp_path):
        cache = PartitionCache(directory=tmp_path)
        cache.put(("net", "geo"), payload(0.5))
        cache.clear_memory()
        assert ("net", "geo") in cache
        assert ("net", "other") not in cache

    def test_default_directory_honors_repro_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))
        cache = PartitionCache()
        cache.put(("net", "geo"), payload(0.5))
        assert (tmp_path / "cache-root" / "partitions").exists()

    def test_as_dict_shape(self, tmp_path):
        cache = PartitionCache(max_entries=4, directory=tmp_path)
        cache.put(("n", "a"), payload(0.1))
        cache.get(("n", "a"))
        summary = cache.as_dict()
        assert summary["max_entries"] == 4
        assert summary["memory_entries"] == 1
        assert summary["disk_enabled"] is True
        assert summary["memory"]["hits"] == 1
        assert summary["disk"]["puts"] == 1


class TestCrossProcessReuse:
    def test_engine_reuses_partitions_across_instances(self, tmp_path, monkeypatch, rng):
        """Two engines sharing a tmp REPRO_CACHE_DIR share decompositions."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        network = Network(
            [
                FullyConnectedLayer.from_shape(2, 6, rng),
                ReLULayer(6),
                FullyConnectedLayer.from_shape(6, 2, rng),
            ]
        )
        segment = LineSegment([-1.0, -1.0], [1.0, 1.0])

        first_engine = ShardedSyrennEngine(workers=1)
        first = first_engine.transform_lines(network, [segment])[0]
        assert first_engine.cache.stats.misses == 1
        assert first_engine.cache.stats.disk.puts == 1

        # A fresh engine (as another process would build it) hits the disk
        # tier instead of re-decomposing, and returns identical ratios.
        second_engine = ShardedSyrennEngine(workers=1)
        second = second_engine.transform_lines(network, [segment])[0]
        assert second_engine.cache.stats.disk.hits == 1
        assert second_engine.stats()["jobs_executed"] == 0
        assert second.ratios.tobytes() == first.ratios.tobytes()
