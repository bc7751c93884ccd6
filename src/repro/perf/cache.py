"""Keyed, size-bounded memoization caches for the DSP hot path.

Every expensive intermediate in a PAB transaction that is a *pure
function of its configuration* gets recomputed on each exchange in the
naive pipeline: the carrier and the receiver's oscillator, the FM0
preamble correlation template, Butterworth SOS designs, and the
per-geometry channel impulse response.  A polling campaign re-derives
all of them hundreds of times with identical inputs.

This module provides the shared cache substrate:

* :class:`LRUCache` — a thread-safe, size-bounded least-recently-used
  cache with hit/miss/eviction accounting;
* a process-global registry of *named* caches (:func:`get_cache`) so
  call sites in :mod:`repro.dsp`, :mod:`repro.core`,
  :mod:`repro.acoustics`, and :mod:`repro.node` share one home and one
  kill switch;
* :func:`caches_to_metrics` — exports the counters into a
  :class:`~repro.obs.metrics.MetricsRegistry` (``pab_cache_*``);
* :func:`caching_disabled` / :func:`set_cache_enabled` — a global
  bypass used by the ``repro bench`` baseline mode and by correctness
  tests that compare cached against uncached outputs.

Correctness contract: caching must be exact.  Cached values are the
very arrays the first computation produced (ndarray entries are marked
read-only before storing), so a cached decode is bit-identical to an
uncached one — asserted by ``tests/perf/test_cache.py``.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Process-global enable flag (the bench baseline switches it off).
_enabled = True

#: Named process-global caches (strong refs).
_named_caches: dict = {}

#: Every live cache, including per-instance ones (e.g. link leg memos),
#: for aggregated stats.  Weak so short-lived caches don't leak.
_all_caches: "weakref.WeakSet[LRUCache]" = weakref.WeakSet()

# Reentrant: get_cache() constructs LRUCache instances (which register
# themselves in _all_caches) while holding it.
_registry_lock = threading.RLock()


@dataclass
class CacheStats:
    """Snapshot of one cache's accounting."""

    name: str
    hits: int
    misses: int
    evictions: int
    entries: int
    maxsize: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Thread-safe size-bounded LRU cache with hit/miss counters.

    Parameters
    ----------
    name:
        Label under which the cache's counters aggregate (several
        instances may share a name — e.g. one leg memo per link).
    maxsize:
        Entry bound; the least recently used entry is evicted first.
    """

    def __init__(self, name: str, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        with _registry_lock:
            _all_caches.add(self)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        """Presence probe that does not touch counters or LRU order.

        The batched engine's planning pass uses this to decide which
        legs it must precompute; a probe is not a use, so it must not
        perturb hit/miss accounting (the bench reports those) or evict
        differently than the sequential schedule would.
        """
        if not _enabled:
            return False
        with self._lock:
            return key in self._data

    def put(self, key, value) -> None:
        """Seed ``key`` with an externally computed ``value``.

        Counts as a miss (the computation happened, just not inside
        :meth:`get_or_compute`) and evicts exactly like a computed
        store.  No-op while caching is globally disabled so the
        uncached baseline stays honest.
        """
        if not _enabled:
            return
        _freeze(value)
        self._store(key, value)

    def get_or_compute(self, key, compute):
        """``cache[key]``, computing (and storing) on a miss.

        When caching is globally disabled the computation runs directly
        and the cache is neither consulted nor counted — the bypass
        used to time the uncached baseline.
        """
        if not _enabled:
            return compute()
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
        value = compute()
        _freeze(value)
        self._store(key, value)
        return value

    def get_prefix(self, key, n: int, compute):
        """``compute(n)``, served as the first ``n`` samples of one stored array.

        For arrays whose samples do not depend on the array's length,
        such as an elementwise function of ``arange(length)`` (a carrier,
        an oscillator): the first ``n`` samples of a longer one are the
        ``n``-sample array bit for bit.  ``key`` therefore names the
        array without its length.  A request longer than the stored
        array recomputes it at the next power of two at or above ``n``
        (counted as a miss), so growing requests recompute only as often
        as they cross a power of two, and the stored length depends only
        on the longest request: of two misses computed at once, the
        longer array stays.  Returns a read-only view.  With caching
        globally disabled ``compute(n)`` runs at exactly ``n``.
        """
        if not _enabled:
            return compute(n)
        with self._lock:
            value = self._data.get(key)
            if value is not None and len(value) >= n:
                self.hits += 1
                self._data.move_to_end(key)
                return value[:n]
        length = 1 << max(int(n) - 1, 0).bit_length()
        value = compute(length)
        _freeze(value)
        self._store(key, value, prefix=True)
        return value[:n]

    def _store(self, key, value, *, prefix: bool = False) -> None:
        """Store a computed ``value`` as a miss, evicting down to ``maxsize``.

        With ``prefix`` an entry at least as long as ``value`` stays: it
        serves every request ``value`` would.
        """
        with self._lock:
            self.misses += 1
            held = self._data.get(key)
            if not (prefix and held is not None and len(held) >= len(value)):
                self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._data),
                maxsize=self.maxsize,
            )


def _freeze(value) -> None:
    """Mark ndarray cache entries read-only (shared across callers)."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


def get_cache(name: str, maxsize: int = 64) -> LRUCache:
    """The process-global cache registered under ``name`` (created on
    first use; ``maxsize`` only applies at creation)."""
    with _registry_lock:
        cache = _named_caches.get(name)
        if cache is None:
            cache = LRUCache(name, maxsize=maxsize)
            _named_caches[name] = cache
        return cache


def cache_stats() -> dict:
    """Aggregated ``{name: CacheStats}`` across every live cache.

    Instances sharing a name (per-link leg memos) sum their counters.
    """
    out: dict = {}
    with _registry_lock:
        caches = list(_all_caches)
    for cache in sorted(caches, key=lambda c: c.name):
        s = cache.stats()
        prev = out.get(s.name)
        if prev is None:
            out[s.name] = s
        else:
            out[s.name] = CacheStats(
                name=s.name,
                hits=prev.hits + s.hits,
                misses=prev.misses + s.misses,
                evictions=prev.evictions + s.evictions,
                entries=prev.entries + s.entries,
                maxsize=max(prev.maxsize, s.maxsize),
            )
    return out


def clear_all_caches() -> None:
    """Empty every live cache (named and per-instance)."""
    with _registry_lock:
        caches = list(_all_caches)
    for cache in caches:
        cache.clear()


def set_cache_enabled(flag: bool) -> None:
    """Globally enable/disable all caches (they bypass when disabled)."""
    global _enabled
    _enabled = bool(flag)


def cache_enabled() -> bool:
    """Whether the memoization layer is currently active."""
    return _enabled


@contextmanager
def caching_disabled():
    """Temporarily bypass every cache (bench baseline / A-B tests)."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


def caches_to_metrics(registry) -> None:
    """Export cache counters into a metrics registry.

    One-shot export (call at report time, like
    ``EnergyLedger.to_metrics``): hit/miss/eviction counters are
    incremented by the current totals, ``pab_cache_entries`` gauges
    carry the live entry counts, and ``pab_cache_capacity`` gauges the
    configured bound — entries/capacity is the live fill ratio, and a
    non-zero eviction rate against a full gauge pair is the
    working-set-too-big signal.
    """
    for name, s in sorted(cache_stats().items()):
        registry.counter("pab_cache_hits_total", cache=name).inc(s.hits)
        registry.counter("pab_cache_misses_total", cache=name).inc(s.misses)
        registry.counter("pab_cache_evictions_total", cache=name).inc(
            s.evictions
        )
        registry.gauge("pab_cache_entries", cache=name).set(s.entries)
        registry.gauge("pab_cache_capacity", cache=name).set(s.maxsize)
