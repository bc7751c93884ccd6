"""Observability for the PAB stack: tracing, metrics, exporters.

The measurement substrate under every performance claim in this repo:

* :mod:`repro.obs.trace` — nestable wall-clock spans with a disabled
  no-op mode (free on the waveform hot path) and a deterministic
  virtual clock for byte-identical test traces.
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms in a mergeable registry.
* :mod:`repro.obs.export` — JSONL trace dumps, collapsed-stack and
  speedscope flamegraphs (``repro trace --flame-out``), Prometheus
  text exposition, and ``benchmarks/results/``-compatible CSV.
* :mod:`repro.obs.probe` — named waveform taps through the decode
  pipeline (disabled-by-default, like the tracer).
* :mod:`repro.obs.postmortem` — structured verdicts assembled from a
  failed exchange's taps, serialized as JSONL.
* :mod:`repro.obs.ledger` — per-node energy ledgers: harvested vs
  consumed joules by power state, supercap SoC, brownout margin, and
  conservation checks.
* :mod:`repro.obs.slo` — fleet SLO tracking (delivery, availability,
  energy sustainability) with error budgets and burn rates.
* :mod:`repro.obs.timeline` — the merged per-round campaign view
  (health + faults + SoC + SLO burn) as text / CSV / JSONL.
* :mod:`repro.obs.stream` — the streaming telemetry bus every producer
  above publishes to incrementally (disabled by default), its JSONL
  stream sink, the Prometheus snapshot HTTP server, and the
  :class:`StreamAggregator` that rebuilds the end-of-run views from a
  stream (``repro tail``).
* :mod:`repro.obs.recorder` — the bounded ring-buffer flight recorder
  dumped next to checkpoints on campaign aborts.
* :mod:`repro.obs.analytics` — deterministic online anomaly detectors
  (EWMA z-score, CUSUM) the reader feeds per round; detections become
  schema-1 ``anomaly`` envelopes and ``pab_anomaly_*`` metrics.
* :mod:`repro.obs.diff` — the campaign diff engine: aligns two
  campaign artifacts and attributes drift to stage, node,
  failure-taxonomy class, and energy bucket (``repro diff``).

See ``docs/OBSERVABILITY.md`` for the instrumentation guide and the
overhead policy.
"""

from repro.obs.analytics import (
    AnomalyMonitor,
    CusumDetector,
    EwmaDetector,
    publish_anomalies,
)
from repro.obs.diff import (
    DiffThresholds,
    diff_campaigns,
    drift_to_json,
    load_artifact,
    render_drift,
)
from repro.obs.export import (
    collapsed_stacks,
    events_to_metrics,
    metrics_to_csv,
    metrics_to_prometheus,
    rows_to_csv,
    spans_to_jsonl,
    speedscope_document,
    speedscope_stage_totals,
    stage_table,
    write_csv,
    write_flamegraphs,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    BER_BUCKETS,
    LATENCY_BUCKETS_S,
    SNR_DB_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    set_build_info,
)
from repro.obs.postmortem import (
    DecodePostmortem,
    StageFinding,
    load_postmortems_jsonl,
    postmortems_to_jsonl,
    write_postmortems_jsonl,
)
from repro.obs.probe import (
    ProbeRegistry,
    ProbeTap,
    dump_failure_artifacts,
    get_probes,
    set_probes,
    use_probes,
)
from repro.obs.recorder import FlightRecorder, dump_flight_recorders
from repro.obs.slo import DEFAULT_TARGETS, OBJECTIVES, SLOTracker
from repro.obs.stream import (
    SCHEMA_VERSION,
    JsonlStreamSink,
    MemorySink,
    MetricsSnapshotServer,
    StreamAggregator,
    TelemetryBus,
    event_from_line,
    event_to_line,
    get_bus,
    set_bus,
    use_bus,
)
from repro.obs.timeline import (
    build_timeline,
    render_timeline,
    soc_rows,
    timeline_to_csv,
    timeline_to_jsonl,
    write_timeline_csv,
    write_timeline_jsonl,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    VirtualClock,
    get_tracer,
    set_tracer,
    use_tracer,
)

#: Names served lazily from :mod:`repro.obs.ledger` (PEP 562).  The
#: ledger module imports :mod:`repro.node`, whose firmware imports
#: :mod:`repro.net.messages`, which reaches back into this package via
#: the DSP probe hooks — importing it eagerly here would close that
#: cycle.  Everything else in this package stays dependency-light.
_LEDGER_EXPORTS = ("DIRECTIONS", "EnergyLedger", "NodeEnergyHarness")


def __getattr__(name: str):
    if name in _LEDGER_EXPORTS:
        from repro.obs import ledger

        return getattr(ledger, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BER_BUCKETS",
    "DEFAULT_TARGETS",
    "DIRECTIONS",
    "LATENCY_BUCKETS_S",
    "NULL_SPAN",
    "OBJECTIVES",
    "SNR_DB_BUCKETS",
    "AnomalyMonitor",
    "Counter",
    "CusumDetector",
    "DecodePostmortem",
    "DiffThresholds",
    "EnergyLedger",
    "EwmaDetector",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FlightRecorder",
    "JsonlStreamSink",
    "MemorySink",
    "MetricsSnapshotServer",
    "NodeEnergyHarness",
    "ProbeRegistry",
    "ProbeTap",
    "SCHEMA_VERSION",
    "SLOTracker",
    "Span",
    "StageFinding",
    "StreamAggregator",
    "TelemetryBus",
    "Tracer",
    "VirtualClock",
    "build_timeline",
    "collapsed_stacks",
    "diff_campaigns",
    "drift_to_json",
    "dump_failure_artifacts",
    "dump_flight_recorders",
    "event_from_line",
    "event_to_line",
    "events_to_metrics",
    "get_bus",
    "get_probes",
    "get_tracer",
    "load_artifact",
    "load_postmortems_jsonl",
    "metrics_to_csv",
    "metrics_to_prometheus",
    "postmortems_to_jsonl",
    "publish_anomalies",
    "render_drift",
    "render_timeline",
    "rows_to_csv",
    "set_build_info",
    "set_bus",
    "set_probes",
    "set_tracer",
    "soc_rows",
    "spans_to_jsonl",
    "speedscope_document",
    "speedscope_stage_totals",
    "stage_table",
    "timeline_to_csv",
    "timeline_to_jsonl",
    "use_bus",
    "use_probes",
    "use_tracer",
    "write_csv",
    "write_flamegraphs",
    "write_postmortems_jsonl",
    "write_spans_jsonl",
    "write_timeline_csv",
    "write_timeline_jsonl",
]
