"""Tests for the keyed memoization layer (`repro.perf.cache`)."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.perf import (
    LRUCache,
    cache_stats,
    caches_to_metrics,
    caching_disabled,
    clear_all_caches,
    get_cache,
)


class TestLRUCache:
    def test_hit_and_miss_counters(self):
        cache = LRUCache("t_counts", maxsize=4)
        assert cache.get_or_compute("a", lambda: 1) == 1
        assert cache.get_or_compute("a", lambda: 2) == 1  # cached value wins
        assert cache.misses == 1
        assert cache.hits == 1

    def test_eviction_bounds_memory(self):
        cache = LRUCache("t_evict", maxsize=3)
        for i in range(10):
            cache.get_or_compute(i, lambda i=i: i * 2)
        assert len(cache) == 3
        assert cache.evictions == 7
        # Least recently used entries are the ones gone.
        assert cache.get_or_compute(9, lambda: None) == 18
        assert cache.hits == 1

    def test_lru_order_refreshes_on_hit(self):
        cache = LRUCache("t_lru", maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: None)  # refresh a
        cache.get_or_compute("c", lambda: 3)     # evicts b, not a
        assert cache.get_or_compute("a", lambda: 99) == 1
        assert cache.get_or_compute("b", lambda: 42) == 42  # recomputed

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            LRUCache("t_bad", maxsize=0)

    def test_ndarray_values_are_frozen(self):
        cache = LRUCache("t_freeze", maxsize=2)
        arr = cache.get_or_compute("k", lambda: np.arange(4.0))
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 99.0

    def test_tuple_values_freeze_nested_arrays(self):
        cache = LRUCache("t_freeze_tuple", maxsize=2)
        value = cache.get_or_compute("k", lambda: (np.ones(3), 7))
        assert not value[0].flags.writeable

    def test_disabled_bypass_computes_every_time(self):
        cache = LRUCache("t_disabled", maxsize=4)
        calls = []
        with caching_disabled():
            for _ in range(3):
                cache.get_or_compute("k", lambda: calls.append(1))
        assert len(calls) == 3
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache("t_clear", maxsize=4)
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_prefix_grows_to_the_next_power_of_two(self):
        cache = LRUCache("t_prefix", maxsize=2)
        lengths = []

        def compute(n):
            lengths.append(n)
            return np.arange(float(n))

        for n in (5, 8, 9, 2, 16):
            got = cache.get_prefix("k", n, compute)
            assert got.tobytes() == np.arange(float(n)).tobytes()
            assert not got.flags.writeable
        assert lengths == [8, 16]  # 5 -> 8 serves 8; 9 -> 16 serves the rest
        assert (cache.hits, cache.misses, cache.evictions, len(cache)) == (3, 2, 0, 1)

    def test_prefix_keeps_the_longer_of_two_concurrent_misses(self):
        """A shorter miss finishing after a longer one does not replace it."""
        cache = LRUCache("t_prefix_race", maxsize=2)
        lengths = []

        def compute(n):
            lengths.append(n)
            if n == 16:  # another caller misses at 100 while this one computes
                cache.get_prefix("k", 100, compute)
            return np.arange(float(n))

        got = cache.get_prefix("k", 10, compute)
        assert got.tobytes() == np.arange(10.0).tobytes()
        assert cache.get_prefix("k", 100, compute).tobytes() == np.arange(100.0).tobytes()
        assert lengths == [16, 128]
        assert (cache.hits, cache.misses, len(cache)) == (1, 2, 1)

    def test_prefix_disabled_computes_at_exactly_n(self):
        cache = LRUCache("t_prefix_disabled", maxsize=2)
        lengths = []
        with caching_disabled():
            got = cache.get_prefix("k", 5, lambda n: lengths.append(n) or np.zeros(n))
        assert lengths == [5] and len(got) == 5
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0


class TestRegistry:
    def test_get_cache_returns_same_instance(self):
        a = get_cache("t_registry_same")
        b = get_cache("t_registry_same")
        assert a is b

    def test_maxsize_applies_only_at_creation(self):
        a = get_cache("t_registry_size", maxsize=5)
        b = get_cache("t_registry_size", maxsize=50)
        assert b.maxsize == 5 and a is b

    def test_stats_aggregate_instances_sharing_a_name(self):
        a = LRUCache("t_shared_name", maxsize=2)
        b = LRUCache("t_shared_name", maxsize=2)
        a.get_or_compute("x", lambda: 1)
        a.get_or_compute("x", lambda: 1)
        b.get_or_compute("y", lambda: 2)
        s = cache_stats()["t_shared_name"]
        assert s.hits == 1
        assert s.misses == 2
        assert s.entries == 2

    def test_clear_all_caches(self):
        cache = get_cache("t_clear_all")
        cache.get_or_compute("k", lambda: 1)
        clear_all_caches()
        assert len(cache) == 0

    def test_metrics_export(self):
        cache = LRUCache("t_export", maxsize=1)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)  # evicts a
        registry = MetricsRegistry()
        caches_to_metrics(registry)
        assert registry.value("pab_cache_hits_total", cache="t_export") == 1
        assert registry.value("pab_cache_misses_total", cache="t_export") == 2
        assert registry.value("pab_cache_evictions_total", cache="t_export") == 1
        assert registry.value("pab_cache_entries", cache="t_export") == 1
        assert registry.value("pab_cache_capacity", cache="t_export") == 1

    def test_capacity_gauge_tracks_maxsize_not_fill(self):
        cache = LRUCache("t_capacity", maxsize=8)
        cache.get_or_compute("a", lambda: 1)
        registry = MetricsRegistry()
        caches_to_metrics(registry)
        # entries/capacity is the live fill ratio (1/8 here).
        assert registry.value("pab_cache_capacity", cache="t_capacity") == 8
        assert registry.value("pab_cache_entries", cache="t_capacity") == 1


def _canonical_result(result):
    """Every observable field of a LinkResult, exactly."""
    demod = result.demod
    return (
        result.powered_up,
        result.query_decoded,
        result.success,
        None if demod is None else demod.bits.tobytes(),
        None if demod is None else repr(demod.snr_db),
        repr(result.ber),
        repr(result.snr_db),
    )


class TestCachedTransactIdentity:
    """A cached campaign must be byte-identical to an uncached one."""

    def _run(self, rounds):
        from repro.cli import _build_bench_fleet
        from repro.net.messages import Command, Query

        clear_all_caches()
        transports = _build_bench_fleet(2, seed=7, bitrate=2_000.0)
        out = []
        for _ in range(rounds):
            for addr in sorted(transports):
                query = Query(destination=addr, command=Command.READ_PH)
                out.append(_canonical_result(transports[addr](query)))
        return out

    def test_cached_vs_uncached_bit_identical(self):
        with caching_disabled():
            uncached = self._run(3)
        cached = self._run(3)
        assert cached == uncached
