"""Tests for the per-cluster partition cache."""

import pytest

from repro.common.errors import ConfigurationError
from repro.warehouse.cache import PARTITION_BYTES, PartitionCache


def cache_for(n_partitions: int) -> PartitionCache:
    return PartitionCache(capacity_bytes=n_partitions * PARTITION_BYTES)


class TestPartitionCache:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionCache(-1)

    def test_empty_access_is_warm(self):
        assert cache_for(4).access([]) == 1.0

    def test_first_access_misses(self):
        cache = cache_for(4)
        assert cache.access(["a", "b"]) == 0.0

    def test_second_access_hits(self):
        cache = cache_for(4)
        cache.access(["a", "b"])
        assert cache.access(["a", "b"]) == 1.0

    def test_partial_hit_ratio(self):
        cache = cache_for(4)
        cache.access(["a", "b"])
        assert cache.access(["a", "c"]) == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = cache_for(2)
        cache.access(["a"])
        cache.access(["b"])
        cache.access(["a"])  # refresh a; b is now least recent
        cache.access(["c"])  # evicts b
        assert "a" in cache
        assert "c" in cache
        assert "b" not in cache

    def test_capacity_respected(self):
        cache = cache_for(3)
        cache.access([f"p{i}" for i in range(10)])
        assert len(cache) == 3

    def test_zero_capacity_never_stores(self):
        cache = PartitionCache(0)
        cache.access(["a"])
        assert len(cache) == 0
        assert cache.access(["a"]) == 0.0

    def test_clear_drops_everything(self):
        cache = cache_for(4)
        cache.access(["a", "b"])
        cache.clear()
        assert len(cache) == 0
        assert cache.access(["a"]) == 0.0

    def test_resize_shrinks_lru_first(self):
        cache = cache_for(3)
        cache.access(["a"])
        cache.access(["b"])
        cache.access(["c"])
        cache.resize(2 * PARTITION_BYTES)
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_hit_miss_counters(self):
        cache = cache_for(4)
        cache.access(["a", "b"])
        cache.access(["a", "c"])
        assert cache.hits == 1
        assert cache.misses == 3
