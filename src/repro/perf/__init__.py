"""Performance layer: memoization caches, kernels, and the batched engine.

The hot path of the reproduction is the waveform pipeline
(:mod:`repro.dsp`, :mod:`repro.core`); this package makes it fast
without changing a single decoded bit:

* :mod:`repro.perf.cache` — keyed, size-bounded LRU caches for the
  deterministic intermediates (PWM query templates, sync correlation
  kernels, FIR designs, channel impulse responses) with hit/miss
  counters exported through :mod:`repro.obs.metrics`;
* :mod:`repro.perf.kernels` — convolution helpers that auto-select
  direct vs FFT (overlap-add) evaluation by operand length;
* :mod:`repro.perf.batch` — :class:`~repro.perf.batch.BatchedLinkEngine`,
  the ``ReaderController(parallel="batch")`` prepass that computes a
  window of upcoming exchanges as stacked matrix DSP (byte-identical
  to sequential polling for the same seed).

There is no thread-pool mode: polling is GIL-bound compute, which
threads cannot overlap (``docs/PERFORMANCE.md`` has the numbers).

See ``docs/PERFORMANCE.md`` for the design and the CI perf gate.
"""

from repro.perf.cache import (
    LRUCache,
    cache_enabled,
    cache_stats,
    caches_to_metrics,
    caching_disabled,
    clear_all_caches,
    get_cache,
    set_cache_enabled,
)
from repro.perf.kernels import (
    batched_convolve,
    batched_correlate,
    smart_convolve,
    smart_correlate,
)

__all__ = [
    "LRUCache",
    "batched_convolve",
    "batched_correlate",
    "cache_enabled",
    "cache_stats",
    "caches_to_metrics",
    "caching_disabled",
    "clear_all_caches",
    "get_cache",
    "set_cache_enabled",
    "smart_convolve",
    "smart_correlate",
]
