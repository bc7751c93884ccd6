"""Exporters for traces and metrics: JSONL, flamegraphs, Prometheus text, CSV.

One instrumentation substrate, four serialisations:

* :func:`spans_to_jsonl` — one JSON object per span, sorted keys, for
  offline trace analysis; byte-deterministic under a
  :class:`~repro.obs.trace.VirtualClock`.
* :func:`collapsed_stacks` / :func:`speedscope_document` /
  :func:`write_flamegraphs` — collapsed-stack text (Brendan Gregg's
  ``root;child;leaf weight`` lines) and a speedscope evented profile
  from the same spans (``repro trace --flame-out``); byte-identical
  across runs under a ticking virtual clock.
* :func:`metrics_to_prometheus` — the text exposition format, so a
  deployment can be scraped without any client library.
* :func:`metrics_to_csv` / :func:`write_csv` — rows compatible with the
  ``benchmarks/results/`` CSVs (same formatting rules as
  :class:`~repro.core.experiment.ExperimentTable`).

The structured fault :class:`~repro.faults.events.EventLog` is *an
emitter into* this substrate, not a parallel universe: bind a registry
to a live log (``log.metrics = registry``) to count events as they
happen, or replay an existing log with :func:`events_to_metrics`.
"""

from __future__ import annotations

import json
import math
import pathlib


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def span_to_dict(span) -> dict:
    """A JSON-ready rendering of one finished span."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "duration_s": span.duration_s,
        "attrs": {str(k): _json_safe(v) for k, v in sorted(span.attrs.items())},
    }


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def spans_to_jsonl(spans) -> str:
    """One JSON object per line, completion order, deterministic keys."""
    return "\n".join(
        json.dumps(span_to_dict(s), sort_keys=True, separators=(",", ":"))
        for s in spans
    ) + ("\n" if spans else "")


def write_spans_jsonl(path, spans) -> pathlib.Path:
    """Write a JSONL trace dump; returns the path written."""
    path = pathlib.Path(path)
    path.write_text(spans_to_jsonl(spans))
    return path


# ---------------------------------------------------------------------------
# Flamegraphs (pure functions over recorded spans)
# ---------------------------------------------------------------------------

def _span_forest(spans):
    """``(roots, children)`` from finished spans, deterministic order.

    Children sort by start time (unique under a ticking clock; span_id
    breaks wall-clock ties), so traversal order is reproducible.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict = {s.span_id: [] for s in spans}
    roots = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children[span.parent_id].append(span)
        else:
            roots.append(span)
    key = lambda s: (s.start_s, s.span_id)  # noqa: E731 - tiny sort key
    roots.sort(key=key)
    for kids in children.values():
        kids.sort(key=key)
    return roots, children


def _self_seconds(span, children) -> float:
    child_s = sum(c.duration_s for c in children[span.span_id])
    return max(span.duration_s - child_s, 0.0)


def collapsed_stacks(spans, *, scale: float = 1.0) -> str:
    """Collapsed-stack flamegraph text (``stack;frames weight`` lines).

    Each span contributes its *self* time (duration minus children) to
    its full stack path; identical paths aggregate.  Weights are
    integers — ``scale`` converts span time units to counts (use 1.0
    with a unit-tick :class:`~repro.obs.trace.VirtualClock`, ``1e6``
    for wall-clock seconds -> microseconds).  Lines sort
    lexicographically, so output is deterministic for deterministic
    spans.  Render with any ``flamegraph.pl``-compatible tool or paste
    into speedscope.
    """
    roots, children = _span_forest(spans)
    weights: dict = {}

    def visit(span, path):
        path = path + (span.name,)
        weight = int(round(_self_seconds(span, children) * scale))
        if weight > 0:
            key = ";".join(path)
            weights[key] = weights.get(key, 0) + weight
        for child in children[span.span_id]:
            visit(child, path)

    for root in roots:
        visit(root, ())
    lines = [f"{path} {weights[path]}" for path in sorted(weights)]
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(spans, *, name: str = "pab-campaign",
                        unit: str = "none") -> dict:
    """A speedscope-compatible evented profile from finished spans.

    Open/close events come from a deterministic tree traversal (never a
    raw timestamp sort), so the event stream is well-nested even when a
    wall clock hands sibling spans identical timestamps.  With a
    virtual clock the document is byte-stable across runs; its
    per-frame totals equal :meth:`Tracer.stage_totals` by construction
    (asserted in ``tests/obs/test_export.py``).

    ``unit`` should be ``"none"`` for virtual-clock ticks and
    ``"seconds"`` for wall-clock spans.
    """
    roots, children = _span_forest(spans)
    frame_index: dict = {}
    frames: list = []
    events: list = []

    def frame_of(span_name: str) -> int:
        if span_name not in frame_index:
            frame_index[span_name] = len(frames)
            frames.append({"name": span_name})
        return frame_index[span_name]

    def visit(span, lo: float, hi: float):
        # Clamp into the parent's interval: defensive against clock
        # skew; a no-op for well-nested virtual-clock spans.
        start = min(max(span.start_s, lo), hi)
        end = min(max(span.end_s, start), hi)
        idx = frame_of(span.name)
        events.append({"type": "O", "frame": idx, "at": start})
        for child in children[span.span_id]:
            visit(child, start, end)
        events.append({"type": "C", "frame": idx, "at": end})

    start_value = min((s.start_s for s in spans), default=0.0)
    end_value = max((s.end_s for s in spans), default=0.0)
    for root in roots:
        visit(root, start_value, end_value)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro.obs.export",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "evented",
            "name": name,
            "unit": unit,
            "startValue": start_value,
            "endValue": end_value,
            "events": events,
        }],
    }


def speedscope_stage_totals(doc: dict) -> dict:
    """``{frame name: total}`` from a speedscope evented document.

    Re-derives per-stage totals from the exported events (not from the
    spans that built them) so tests can assert that the flamegraph
    agrees with the tracer's own :meth:`stage_totals`.
    """
    frames = doc["shared"]["frames"]
    totals: dict = {}
    open_at: dict = {}
    for event in doc["profiles"][0]["events"]:
        name = frames[event["frame"]]["name"]
        if event["type"] == "O":
            open_at.setdefault(name, []).append(event["at"])
        else:
            start = open_at[name].pop()
            totals[name] = totals.get(name, 0.0) + (event["at"] - start)
    return totals


def write_flamegraphs(base, spans, *, scale: float = 1.0,
                      name: str = "pab-campaign",
                      unit: str = "none") -> dict:
    """Write ``BASE.collapsed.txt`` + ``BASE.speedscope.json``.

    Returns ``{"collapsed": path, "speedscope": path}``.  Both files
    are byte-deterministic for deterministic spans (sorted keys,
    compact separators, trailing newline).
    """
    base = pathlib.Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    collapsed = base.with_name(base.name + ".collapsed.txt")
    collapsed.write_text(collapsed_stacks(spans, scale=scale))
    speedscope = base.with_name(base.name + ".speedscope.json")
    doc = speedscope_document(spans, name=name, unit=unit)
    speedscope.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    )
    return {"collapsed": collapsed, "speedscope": speedscope}


# ---------------------------------------------------------------------------
# Metrics — Prometheus text exposition
# ---------------------------------------------------------------------------

def _escape_label_value(value) -> str:
    # Prometheus exposition format: backslash, double-quote, and line
    # feed must be escaped inside label values.
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text) -> str:
    # HELP text escapes only backslash and line feed (no quotes — the
    # text is not quoted in the exposition format).
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


#: ``# HELP`` text per metric family.  Families not listed fall back to
#: a generated line so every family still gets exactly one HELP entry.
METRIC_HELP = {
    "pab_anomaly_events_total": "Online-detector anomaly detections, by series, detector, and severity.",
    "pab_anomaly_score": "Last anomaly z/CUSUM score per series and node.",
    "pab_build_info": "Constant 1; labels carry the code and stream-schema versions.",
    "pab_cache_capacity": "Configured LRU cache entry bound (maxsize).",
    "pab_cache_entries": "Current LRU cache entries.",
    "pab_cache_evictions_total": "LRU cache evictions.",
    "pab_cache_hits_total": "LRU cache hits.",
    "pab_cache_misses_total": "LRU cache misses.",
    "pab_events_total": "Structured fault/recovery events recorded, by kind.",
    "pab_faults_injected_total": "Faults fired by injectors, by injector name.",
    "pab_link_ber": "Measured uplink bit error rate per decoded transaction.",
    "pab_link_crc_failures_total": "Uplink frames whose CRC check failed.",
    "pab_link_powerups_total": "Node power-up events observed by the link.",
    "pab_link_query_decodes_total": "Downlink queries the node decoded.",
    "pab_link_snr_db": "Measured uplink SNR in dB per transaction.",
    "pab_link_successes_total": "Link transactions that decoded end to end.",
    "pab_link_transactions_total": "Link transactions attempted, by outcome.",
    "pab_mac_attempts_total": "MAC transmission attempts.",
    "pab_mac_backoff_seconds": "Retry backoff delay per scheduled retry.",
    "pab_mac_exceptions_total": "Transport exceptions contained by the MAC.",
    "pab_mac_give_ups_total": "Polls abandoned after exhausting retries.",
    "pab_mac_polls_total": "Poll transactions issued by the MAC.",
    "pab_mac_retries_total": "MAC retransmissions scheduled.",
    "pab_mac_successes_total": "MAC exchanges that decoded successfully.",
    "pab_node_brownouts_total": "Supercap brownout events per node.",
    "pab_node_energy_joules_total": "Joules moved through the ledger, by direction and power state.",
    "pab_node_energy_margin_volts": "Supercap voltage margin above the brownout threshold.",
    "pab_node_health_code": "Health state code (0=HEALTHY 1=DEGRADED 2=QUARANTINED 3=PROBING).",
    "pab_node_soc_volts": "Supercap state of charge in volts.",
    "pab_reader_readings_total": "Decoded sensor readings stored per node.",
    "pab_reader_rounds_total": "Polling rounds completed.",
    "pab_shard_quarantines_total": "Shards quarantined after consecutive worker crashes.",
    "pab_slo_burn_rate": "Rolling SLO budget burn multiplier.",
    "pab_slo_compliance": "Fraction of units meeting the objective.",
    "pab_slo_error_budget_remaining": "SLO error budget remaining (1=untouched, <0=violated).",
    "pab_span_seconds": "Span durations by stage name.",
    "pab_stream_unknown_kinds_total": "Stream envelopes skipped because their kind is unknown to this consumer.",
    "pab_watchdog_timeouts_total": "Polls abandoned at their watchdog deadline.",
    "pab_worker_crashes_total": "Worker crashes past the restart budget.",
    "pab_worker_restarts_total": "Supervised worker restarts.",
}


def _labels_text(labels, extra=()) -> str:
    items = list(labels) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _num(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def metrics_to_prometheus(registry) -> str:
    """Prometheus text-format exposition of a registry.

    Emits one ``# HELP`` and one ``# TYPE`` line per metric family
    (first occurrence; :data:`METRIC_HELP` supplies the help text,
    with a generated fallback for unlisted families) and the standard
    ``_bucket``/``_sum``/``_count`` series for histograms.
    """
    from repro.obs.metrics import Counter, Gauge, Histogram

    lines = []
    typed = set()

    def _family(name: str, kind: str) -> None:
        if name not in typed:
            help_text = METRIC_HELP.get(name, f"{name} ({kind}).")
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)

    for metric in registry:
        if isinstance(metric, Counter):
            _family(metric.name, "counter")
            lines.append(
                f"{metric.name}{_labels_text(metric.labels)} {_num(metric.value)}"
            )
        elif isinstance(metric, Gauge):
            _family(metric.name, "gauge")
            lines.append(
                f"{metric.name}{_labels_text(metric.labels)} {_num(metric.value)}"
            )
        elif isinstance(metric, Histogram):
            _family(metric.name, "histogram")
            for bound, cumulative in metric.cumulative():
                le = "+Inf" if bound == float("inf") else _num(bound)
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_labels_text(metric.labels, [('le', le)])} {cumulative}"
                )
            lines.append(
                f"{metric.name}_sum{_labels_text(metric.labels)} {_num(metric.sum)}"
            )
            lines.append(
                f"{metric.name}_count{_labels_text(metric.labels)} {metric.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# CSV (benchmarks/results/-compatible)
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    # Mirrors ExperimentTable's cell formatting so obs CSVs and the
    # figure-reproduction CSVs interleave in one results directory.
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def rows_to_csv(columns, rows) -> str:
    """CSV text from a header plus row tuples."""
    lines = [",".join(str(c) for c in columns)]
    lines += [",".join(_fmt_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path, columns, rows) -> pathlib.Path:
    """Write ``columns``/``rows`` as CSV; returns the path written."""
    path = pathlib.Path(path)
    path.write_text(rows_to_csv(columns, rows))
    return path


def metrics_to_csv(registry) -> str:
    """Flat CSV view of a registry (histograms as mean + count)."""
    from repro.obs.metrics import Counter, Gauge, Histogram

    rows = []
    for metric in registry:
        labels = ";".join(f"{k}={v}" for k, v in metric.labels)
        if isinstance(metric, (Counter, Gauge)):
            kind = "counter" if isinstance(metric, Counter) else "gauge"
            rows.append((metric.name, labels, kind, metric.value, ""))
        elif isinstance(metric, Histogram):
            rows.append(
                (metric.name, labels, "histogram", metric.mean, metric.count)
            )
    return rows_to_csv(("name", "labels", "type", "value", "count"), rows)


def stage_table(tracer):
    """Per-stage timing rows from a tracer (an ExperimentTable).

    Convenience for the CLI and the perf-baseline benchmark: aggregates
    spans by name into ``(stage, count, total_s, mean_s)`` rows.
    """
    from repro.core.experiment import ExperimentTable

    table = ExperimentTable(
        title="Per-stage span timings",
        columns=("stage", "count", "total_s", "mean_s"),
    )
    for name, entry in tracer.stage_totals().items():
        table.add_row(name, entry["count"], entry["total_s"], entry["mean_s"])
    return table


# ---------------------------------------------------------------------------
# EventLog adapter
# ---------------------------------------------------------------------------

def events_to_metrics(log, registry=None):
    """Replay an :class:`~repro.faults.events.EventLog` into a registry.

    Counts ``pab_events_total{kind=...}`` per event kind — the batch
    counterpart of binding a registry to a live log via its ``metrics``
    attribute.  Returns the registry (a fresh one when omitted).
    """
    from repro.obs.metrics import MetricsRegistry

    if registry is None:
        registry = MetricsRegistry()
    for event in log:
        registry.counter("pab_events_total", kind=str(event.kind)).inc()
    return registry
