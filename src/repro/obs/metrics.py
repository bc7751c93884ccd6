"""Metrics registry: counters, gauges, fixed-bucket histograms.

The quantitative side of the observability layer: where spans answer
"where did the time go in *this* transaction", metrics answer "how many
polls / retries / CRC failures, and what does the SNR distribution look
like" across a whole campaign.

Deliberately Prometheus-shaped (instrument types, label sets, text
exposition via :func:`repro.obs.export.metrics_to_prometheus`) but with
zero dependencies and no background machinery: instruments are plain
objects owned by a :class:`MetricsRegistry`, and multi-reader runs
combine with :meth:`MetricsRegistry.merge` the same way
:meth:`~repro.net.mac.MacStats.merge` combines MAC counters.

Determinism: registries iterate in sorted ``(name, labels)`` order, so
every exporter's output is reproducible for a reproducible workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.state import Stateful


#: Default histogram buckets for second-valued latencies (upper bounds).
LATENCY_BUCKETS_S = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0
)

#: Buckets for receiver SNR observations [dB].
SNR_DB_BUCKETS = (-10.0, -5.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0)

#: Buckets for bit-error-rate observations.
BER_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.5)

#: Buckets for supercap state-of-charge observations [V] — knees at the
#: LDO dropout (2.1 V), the power-up threshold (2.5 V), and the rating.
SOC_VOLTS_BUCKETS = (0.5, 1.0, 1.5, 2.0, 2.1, 2.5, 3.0, 3.5, 4.0, 5.0, 5.5)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter(Stateful):
    """Monotonically increasing count."""

    __state__ = ("value",)

    name: str
    labels: tuple = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge(Stateful):
    """Point-in-time value (last write wins)."""

    __state__ = ("value",)

    name: str
    labels: tuple = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


@dataclass
class Histogram(Stateful):
    """Fixed-bucket histogram with cumulative-count exposition.

    ``buckets`` holds ascending upper bounds; observations above the
    last bound land in the implicit ``+Inf`` bucket.  NaN observations
    are counted (in ``count``) but excluded from ``sum`` and buckets —
    a failed decode's ``nan`` BER must not poison the aggregate.
    """

    __state__ = ("buckets", "bucket_counts", "sum", "count", "nan_count")

    name: str
    buckets: tuple[float, ...] = LATENCY_BUCKETS_S
    labels: tuple = ()
    bucket_counts: list = field(default_factory=list)
    sum: float = 0.0
    count: int = 0
    nan_count: int = 0

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly ascending")
        self.buckets = bounds
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        if value != value:  # nan
            self.nan_count += 1
            return
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative(self) -> list:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    @property
    def mean(self) -> float:
        finite = self.count - self.nan_count
        return self.sum / finite if finite else float("nan")


#: Instrument classes by name, as a registry snapshot records them.
_INSTRUMENTS = {cls.__name__: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry(Stateful):
    """Get-or-create home for instruments, keyed by name + labels.

    >>> reg = MetricsRegistry()
    >>> reg.counter("pab_polls_total", node=3).inc()
    >>> reg.value("pab_polls_total", node=3)
    1.0

    Re-requesting an instrument with the same name and labels returns
    the same object; requesting an existing name as a different
    instrument type raises.
    """

    __state__ = ("_metrics",)
    _metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object]

    def __init__(self) -> None:
        self._metrics: dict = {}

    # -- instrument accessors ---------------------------------------------------------

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"{name} already registered as {type(existing).__name__}"
                )
            return existing
        metric = cls(name=name, labels=key[1], **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, /, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, /, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, /, buckets=None, **labels) -> Histogram:
        if buckets is not None:
            return self._get(Histogram, name, labels, buckets=tuple(buckets))
        return self._get(Histogram, name, labels)

    # -- introspection ----------------------------------------------------------------

    def __iter__(self):
        """Instruments in sorted ``(name, labels)`` order (deterministic)."""
        return iter(self._metrics[k] for k in sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, /, **labels) -> float:
        """Current value of a counter/gauge (KeyError if absent)."""
        metric = self._metrics[(name, _label_key(labels))]
        return metric.value

    # -- checkpointing ----------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Every instrument, plus the instrument types in key order."""
        state = super().snapshot_state()
        state["types"] = [type(metric).__name__ for metric in self]
        return state

    def restore_state(self, state: dict) -> None:
        """Rebuild the snapshot's instruments, then restore them
        (replaces current contents)."""
        self._metrics.clear()
        for ((name, labels), _), kind in zip(state["_metrics"], state["types"]):
            self._get(_INSTRUMENTS[kind], name, dict(labels))
        super().restore_state(state)

    # -- aggregation ------------------------------------------------------------------

    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry combining this one with ``others``.

        Counters and histograms sum (histograms must agree on bucket
        bounds); gauges are point-in-time, so the first operand that
        defines a gauge wins.  Operands are left untouched — the same
        contract as :meth:`repro.net.mac.MacStats.merge`.
        """
        merged = MetricsRegistry()
        for source in (self, *others):
            for key, metric in source._metrics.items():
                name, labels = key
                if isinstance(metric, Counter):
                    merged._get(Counter, name, dict(labels)).inc(metric.value)
                elif isinstance(metric, Gauge):
                    if key not in merged._metrics:
                        merged._get(Gauge, name, dict(labels)).set(metric.value)
                elif isinstance(metric, Histogram):
                    target = merged._get(
                        Histogram, name, dict(labels), buckets=metric.buckets
                    )
                    if target.buckets != metric.buckets:
                        raise ValueError(
                            f"bucket mismatch merging histogram {name}"
                        )
                    for i, n in enumerate(metric.bucket_counts):
                        target.bucket_counts[i] += n
                    target.sum += metric.sum
                    target.count += metric.count
                    target.nan_count += metric.nan_count
        return merged


def set_build_info(registry: "MetricsRegistry", *, version: str | None = None,
                   schema: int | None = None) -> Gauge:
    """Register the ``pab_build_info`` gauge (value 1, identity labels).

    The Prometheus build-info convention: a constant gauge whose labels
    carry the code version and the telemetry stream-schema version, so
    every scraped or streamed snapshot is attributable to the exact
    code + contract that produced it.  Defaults come from
    ``repro.__version__`` and
    :data:`repro.obs.stream.SCHEMA_VERSION`.
    """
    if version is None:
        from repro import __version__ as version
    if schema is None:
        from repro.obs.stream import SCHEMA_VERSION as schema
    gauge = registry.gauge(
        "pab_build_info", version=str(version), schema=str(schema)
    )
    gauge.set(1.0)
    return gauge
