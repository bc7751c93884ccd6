"""Streaming telemetry bus: incremental campaign observability.

Everything built so far — spans, metrics, the fault
:class:`~repro.faults.events.EventLog`, energy ledgers, SLO burn — is
batch-shaped: it accumulates in memory and is exported after the
campaign ends.  This module adds the live half: a deterministic,
disabled-by-default :class:`TelemetryBus` that producers publish to
*incrementally*, and composable sinks that consume the stream — a
rotating JSONL writer (:class:`JsonlStreamSink`), the bounded
ring-buffer flight recorder (:class:`repro.obs.recorder.FlightRecorder`),
a stdlib-only Prometheus snapshot endpoint
(:class:`MetricsSnapshotServer`), and the :class:`StreamAggregator`
behind ``repro tail``.

Event contract (version :data:`SCHEMA_VERSION`)
-----------------------------------------------

Each event is one JSON object per line, sorted keys, compact
separators::

    {"data":{...},"kind":"round","node":-1,"schema":1,"seq":42,
     "source":"reader","t":17.0}

``schema``
    The stream schema version (this module's :data:`SCHEMA_VERSION`).
    Consumers must reject majors they don't understand.
``seq``
    Monotonic per-stream sequence number.  Appending to an existing
    stream file (``repro resume --stream-out``) continues the
    numbering (:meth:`JsonlStreamSink.last_seq`).
``t``
    The producer's virtual clock (polling rounds for the reader
    stack).  Never a wall clock, so streams are byte-reproducible.
``node``
    Node address the event concerns; ``-1`` for fleet-wide events.
``kind`` / ``source`` / ``data``
    See the table below.  ``data`` payloads are JSON-ready dicts;
    non-finite floats are emitted as Python's ``NaN``/``Infinity``
    tokens (the stdlib ``json`` round-trips them exactly, which the
    streamed == batch guarantee depends on).

=================  =========  ==================================================
kind               source     data payload
=================  =========  ==================================================
``stream_start``   cli/bus    version, schema, campaign metadata; appears once
                              per stream segment (again after a resume)
``event``          log        one :meth:`~repro.faults.events.Event.to_dict` —
                              faults, retries, state transitions, worker
                              restarts/crashes, shard quarantines
``span``           tracer     one finished span
                              (:func:`repro.obs.export.span_to_dict`)
``metrics``        reader     ``{"values": {"name{labels}": value}}`` —
                              counters/gauges that changed this round, as
                              *absolute* values (idempotent to replay)
``soc``            ledger     one ledger round record (SoC volts, harvested /
                              consumed joules, sustainability)
``slo``            slo        per-objective burn rate / budget remaining /
                              compliance after the round
``round``          reader     the reader's round record: delivery outcomes per
                              node, SLO burn, cumulative MAC counters
``postmortem``     obs        one :class:`~repro.obs.postmortem.DecodePostmortem`
``checkpoint``     reader     checkpoint file written (path, round)
``anomaly``        analytics  one online-detector hit (series, node, stage,
                              detector, severity, score) from
                              :class:`repro.obs.analytics.AnomalyMonitor`
``readings``       reader     history only: a node's sensor readings decoded
                              since the previous checkpoint
``soc_samples``    ledger     history only: a ledger's SoC series since the
                              previous checkpoint (decimation factor ``keep``
                              plus the new ``soc_t``/``soc_v`` tail, packed)
=================  =========  ==================================================

The two history-only kinds appear in the append-only ``history.jsonl``
that campaign checkpoints point into
(:mod:`repro.resilience.checkpoint`), never on the bus; that file also
carries ``event``, ``round`` (without the ``mac`` samples) and ``soc``
rows, so :class:`StreamAggregator` reduces it like any stream.

Determinism: the reader publishes only from the shared event log and
the per-round observer, in sorted-address order, so sequential and
``parallel="batch"`` campaigns produce byte-identical streams.
Replaying a stream through :class:`StreamAggregator` is *idempotent* —
events are keyed (log seq, round number, (node, round)) with
last-write-wins — so a stream appended across a crash/resume boundary
still reduces to exactly the batch end state.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time


#: Version of the stream event schema documented above.  Bump the
#: major on breaking payload changes; consumers reject unknown majors.
SCHEMA_VERSION = 1

#: Event kinds the stack publishes (free-form kinds are also allowed;
#: consumers must ignore kinds they don't understand).
EVENT_KINDS = (
    "stream_start", "event", "span", "metrics", "soc", "slo", "round",
    "postmortem", "checkpoint", "anomaly", "readings", "soc_samples",
)


def make_event(seq: int, kind: str, *, t: float = 0.0, node: int = -1,
               source: str = "", data: dict | None = None) -> dict:
    """One schema-:data:`SCHEMA_VERSION` envelope (a stream line's dict)."""
    return {
        "schema": SCHEMA_VERSION,
        "seq": seq,
        "t": float(t),
        "node": int(node),
        "kind": str(kind),
        "source": str(source),
        "data": data if data is not None else {},
    }


def event_to_line(event: dict) -> str:
    """The canonical one-line JSON rendering of a stream event."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def event_from_line(line: str) -> dict:
    """Inverse of :func:`event_to_line` (exact round-trip, NaN included)."""
    return json.loads(line)


class TelemetryBus:
    """Fan-out point between telemetry producers and stream sinks.

    Mirrors the tracer/probe pattern: a process-global instance exists
    but is **disabled by default**, so the hot path pays one attribute
    check and nothing else.  When enabled, :meth:`publish` stamps each
    event with the schema version and a monotonic sequence number and
    hands it to every sink's ``emit`` immediately (the flight recorder
    must be current even if the process dies before the next flush);
    buffered sinks write out on :meth:`flush`, which producers call at
    their natural batch boundary (the reader: once per polling round).

    Parameters
    ----------
    enabled:
        When False, :meth:`publish` returns ``None`` without building
        anything.
    sinks:
        Initial sink objects: anything with ``emit(event)`` and
        ``flush()`` (``close()`` is optional).
    """

    def __init__(self, *, enabled: bool = True, sinks=()) -> None:
        self.enabled = bool(enabled)
        self.sinks = list(sinks)
        #: Next sequence number to assign; set it before the first
        #: publish to continue an existing stream file's numbering.
        self.seq = 0
        #: Wall-clock seconds spent in each :meth:`flush` call — the
        #: per-round flush latencies the soak gate asserts on.
        self.flush_latencies: list = []

    # -- wiring -----------------------------------------------------------------------

    def add_sink(self, sink):
        """Attach a sink; returns it (for chaining)."""
        self.sinks.append(sink)
        return sink

    def recorders(self) -> list:
        """Attached sinks that look like flight recorders (duck-typed:
        they expose ``snapshot()`` and ``dump_jsonl(path)``)."""
        return [
            s for s in self.sinks
            if hasattr(s, "snapshot") and hasattr(s, "dump_jsonl")
        ]

    # -- publishing -------------------------------------------------------------------

    def publish(self, kind: str, *, t: float = 0.0, node: int = -1,
                source: str = "", data: dict | None = None) -> dict | None:
        """Stamp and dispatch one event; returns it (None when disabled)."""
        if not self.enabled:
            return None
        event = make_event(
            self.seq, kind, t=t, node=node, source=source, data=data
        )
        self.seq += 1
        for sink in self.sinks:
            sink.emit(event)
        return event

    def flush(self) -> float:
        """Flush every sink; returns (and records) the seconds spent."""
        start = time.perf_counter()
        for sink in self.sinks:
            sink.flush()
        elapsed = time.perf_counter() - start
        self.flush_latencies.append(elapsed)
        return elapsed

    def flush_stats(self) -> dict:
        """``{"count", "p50_s", "p99_s", "max_s"}`` over recorded flushes."""
        lat = sorted(self.flush_latencies)
        if not lat:
            return {"count": 0, "p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0}

        def pct(q: float) -> float:
            # Linear interpolation between closest ranks (numpy's
            # default quantile method): exact at the sample points, and
            # p99 over small counts no longer degenerates to the max
            # the way nearest-rank did.
            pos = q * (len(lat) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(lat) - 1)
            return lat[lo] + (pos - lo) * (lat[hi] - lat[lo])

        return {
            "count": len(lat),
            "p50_s": pct(0.50),
            "p99_s": pct(0.99),
            "max_s": lat[-1],
        }

    def close(self) -> None:
        """Flush, then close every sink that supports closing."""
        if self.enabled:
            self.flush()
        for sink in self.sinks:
            closer = getattr(sink, "close", None)
            if closer is not None:
                closer()


# ---------------------------------------------------------------------------
# Process-global bus (disabled by default, like the tracer and probes)
# ---------------------------------------------------------------------------

_GLOBAL_BUS = TelemetryBus(enabled=False)


def get_bus() -> TelemetryBus:
    """The process-global telemetry bus (a disabled one until installed)."""
    return _GLOBAL_BUS


def set_bus(bus: TelemetryBus) -> TelemetryBus:
    """Install ``bus`` globally; returns the previous one."""
    global _GLOBAL_BUS
    previous = _GLOBAL_BUS
    _GLOBAL_BUS = bus
    return previous


@contextlib.contextmanager
def use_bus(bus: TelemetryBus):
    """Temporarily install ``bus`` as the global bus."""
    previous = set_bus(bus)
    try:
        yield bus
    finally:
        set_bus(previous)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class MemorySink:
    """Keep every event in a list (tests and in-process consumers)."""

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def flush(self) -> None:  # pragma: no cover - nothing buffered
        pass


class JsonlStreamSink:
    """Append-mode JSONL stream writer with size-based rotation.

    Events buffer in memory between :meth:`flush` calls (one syscall
    batch per polling round, not per event).  The file is opened in
    append mode on every flush, so a resumed campaign (``repro resume
    --stream-out FILE``) extends the existing stream instead of
    truncating it — pair with :meth:`last_seq` to continue the bus's
    sequence numbering across the boundary.

    Rotation: when ``max_bytes`` is set and the file exceeds it after
    a flush, the file is rotated to ``FILE.1`` (existing ``FILE.N``
    shift up; at most ``max_files`` rotated generations are kept) and
    the next flush starts a fresh ``FILE``.
    """

    def __init__(self, path, *, max_bytes: int | None = None,
                 max_files: int = 3) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when given")
        if max_files < 1:
            raise ValueError("max_files must be >= 1")
        self.path = pathlib.Path(path)
        self.max_bytes = max_bytes
        self.max_files = int(max_files)
        self._pending: list[str] = []

    def emit(self, event: dict) -> None:
        self._pending.append(event_to_line(event))

    def flush(self) -> None:
        if not self._pending:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write("\n".join(self._pending) + "\n")
        self._pending.clear()
        if (
            self.max_bytes is not None
            and self.path.stat().st_size >= self.max_bytes
        ):
            self._rotate()

    def _rotate(self) -> None:
        oldest = self.path.with_name(f"{self.path.name}.{self.max_files}")
        if oldest.exists():
            oldest.unlink()
        for i in range(self.max_files - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{i}")
            if src.exists():
                src.rename(self.path.with_name(f"{self.path.name}.{i + 1}"))
        self.path.rename(self.path.with_name(f"{self.path.name}.1"))

    def close(self) -> None:
        self.flush()

    @staticmethod
    def last_seq(path) -> int | None:
        """The last event's ``seq`` in an existing stream file, or
        ``None`` (missing/empty file).  Feed ``last_seq + 1`` to
        :attr:`TelemetryBus.seq` before resuming a streamed campaign so
        the appended segment continues the numbering."""
        p = pathlib.Path(path)
        if not p.exists():
            return None
        last = None
        with p.open() as fh:
            for line in fh:
                if line.strip():
                    last = line
        if last is None:
            return None
        try:
            return int(json.loads(last)["seq"])
        except (ValueError, KeyError, TypeError):
            return None


class MetricsSnapshotServer:
    """Serve a registry's Prometheus exposition over stdlib HTTP.

    ``GET /metrics`` renders
    :func:`repro.obs.export.metrics_to_prometheus` at request time;
    ``GET /healthz`` answers ``ok``.  The server runs on a daemon
    thread; ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  The registry is read while the campaign mutates
    it — a scrape that races a write is retried once and answers 503 if
    the registry will not settle; campaign determinism is untouched
    either way (scrapes never write).
    """

    def __init__(self, registry, *, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.registry = registry
        self.host = host
        self.port = int(port)
        self._httpd = None
        self._thread = None

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port."""
        import http.server
        import threading

        from repro.obs.export import metrics_to_prometheus

        registry = self.registry

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib API name
                if self.path == "/healthz":
                    body = b"ok\n"
                    ctype = "text/plain; charset=utf-8"
                elif self.path in ("/metrics", "/"):
                    try:
                        text = metrics_to_prometheus(registry)
                    except RuntimeError:
                        try:  # registry mutated mid-iteration; retry once
                            text = metrics_to_prometheus(registry)
                        except RuntimeError:
                            self.send_response(503)
                            self.end_headers()
                            return
                    body = text.encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    self.send_response(404)
                    self.end_headers()
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # noqa: D102 - silence stderr
                pass

        self._httpd = http.server.ThreadingHTTPServer(
            (self.host, self.port), Handler
        )
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="pab-metrics-server",
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down (idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
            self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Stream consumption (repro tail)
# ---------------------------------------------------------------------------

class _ReplayLedger:
    """Duck-typed stand-in for an EnergyLedger: just ``round_history``."""

    def __init__(self) -> None:
        self.round_history: list = []


class StreamAggregator:
    """Reduce a telemetry stream back to the batch campaign state.

    Feed events (parsed dicts) in file order; the aggregator rebuilds
    the reader's round log, the fault event log, and per-node energy
    round histories — exactly the inputs
    :func:`repro.obs.timeline.build_timeline` consumes — so a streamed
    campaign's timeline and SLO numbers reproduce the batch ones
    byte-for-byte.

    Reduction is idempotent: ``event`` kinds key on the log sequence
    number, ``round`` kinds on the round number, ``soc`` kinds on
    ``(node, round)``, all last-write-wins.  A stream appended across a
    kill/resume boundary replays the overlap (the rounds between the
    restored checkpoint and the crash) twice with identical payloads,
    so the reduced state is unchanged — no special-casing needed.
    """

    def __init__(self, *, metrics=None) -> None:
        self.segments = 0          # stream_start events seen
        self.schema: int | None = None
        self._events: dict = {}    # log seq -> Event
        self._rounds: dict = {}    # round number -> round-log record
        self._energy: dict = {}    # (node, round) -> ledger round record
        self._slo: dict = {}       # round number -> slo sample
        self._anomalies: dict = {} # (round, series, node, detector) -> envelope
        self.metrics_values: dict = {}  # "name{labels}" -> latest value
        self.postmortems: list = []
        self.checkpoints: list = []
        self.spans: list = []
        #: Envelope kinds this consumer does not understand, counted
        #: per kind.  Unknown kinds are skipped, never fatal: a schema-1
        #: producer is allowed to add kinds, and an older consumer must
        #: degrade to ignoring them.  A retired kind reduces the same
        #: way, so older streams that carry ``profile`` lines still
        #: reduce.  Mirrored into
        #: ``pab_stream_unknown_kinds_total{kind=...}`` when the
        #: aggregator was built with a metrics registry.
        self.unknown_kinds: dict = {}
        self.metrics = metrics

    # -- ingestion --------------------------------------------------------------------

    def feed(self, event: dict) -> dict:
        """Reduce one stream event; returns it (for chaining)."""
        schema = int(event.get("schema", 0))
        if schema > SCHEMA_VERSION:
            raise ValueError(
                f"stream schema {schema} is newer than supported "
                f"({SCHEMA_VERSION}); upgrade the consumer"
            )
        if self.schema is None:
            self.schema = schema
        kind = event.get("kind")
        data = event.get("data", {})
        if kind == "stream_start":
            self.segments += 1
        elif kind == "event":
            from repro.faults.events import Event

            parsed = Event.from_dict(data)
            self._events[parsed.seq] = parsed
        elif kind == "round":
            record = {
                "t": float(data["t"]),
                "outcomes": {
                    int(addr): info
                    for addr, info in data.get("outcomes", {}).items()
                },
            }
            if "burn" in data:
                record["burn"] = data["burn"]
            if "mac" in data:
                record["mac"] = {
                    int(addr): sample
                    for addr, sample in data["mac"].items()
                }
            self._rounds[int(record["t"])] = record
        elif kind == "soc":
            self._energy[(int(event.get("node", -1)), int(float(data["t"])))] = data
        elif kind == "slo":
            self._slo[int(float(event.get("t", 0.0)))] = data
        elif kind == "metrics":
            self.metrics_values.update(data.get("values", {}))
        elif kind == "postmortem":
            self.postmortems.append(data)
        elif kind == "checkpoint":
            self.checkpoints.append(data)
        elif kind == "span":
            self.spans.append(data)
        elif kind in ("readings", "soc_samples"):
            # History-only rows: a checkpoint restore replays them; no
            # timeline or SLO view is built from them.
            pass
        elif kind == "anomaly":
            # Keyed on the detection's identity rather than the
            # envelope seq: a resumed stream re-emits the overlap's
            # detections under fresh seq numbers, and last-write-wins
            # on (round, series, node, detector) keeps the reduction
            # idempotent like every other kind here.
            key = (
                int(data.get("round", event.get("t", -1))),
                str(data.get("series", "")),
                int(data.get("node", event.get("node", -1))),
                str(data.get("detector", "")),
            )
            self._anomalies[key] = event
        elif kind is not None:
            # Forward compatibility: skip-and-count kinds from newer
            # producers instead of treating schema-1's kind set as
            # closed.
            self.unknown_kinds[kind] = self.unknown_kinds.get(kind, 0) + 1
            if self.metrics is not None:
                self.metrics.counter(
                    "pab_stream_unknown_kinds_total", kind=kind
                ).inc()
        return event

    def feed_line(self, line: str) -> dict | None:
        """Parse and :meth:`feed` one JSONL line (skips blanks)."""
        line = line.strip()
        if not line:
            return None
        return self.feed(event_from_line(line))

    def feed_file(self, path) -> int:
        """Feed every line of a stream file; returns events consumed."""
        n = 0
        with pathlib.Path(path).open() as fh:
            for line in fh:
                if self.feed_line(line) is not None:
                    n += 1
        return n

    # -- reduced state ----------------------------------------------------------------

    @property
    def round_log(self) -> list:
        """Round-log records in round order (the reader's shape)."""
        return [self._rounds[r] for r in sorted(self._rounds)]

    def event_log(self):
        """The reduced fault :class:`~repro.faults.events.EventLog`."""
        from repro.faults.events import EventLog

        log = EventLog()
        log.events = [self._events[s] for s in sorted(self._events)]
        return log

    def energy_ledgers(self) -> dict:
        """``{node: ledger-like}`` with per-round histories rebuilt."""
        out: dict = {}
        for (node, rnd) in sorted(self._energy):
            out.setdefault(node, _ReplayLedger()).round_history.append(
                self._energy[(node, rnd)]
            )
        return out

    def timeline_rows(self) -> list:
        """The campaign timeline, byte-identical to the batch build."""
        from repro.obs.timeline import build_timeline

        return build_timeline(
            self.round_log, log=self.event_log(),
            ledgers=self.energy_ledgers(),
        )

    def final_burn(self) -> dict:
        """The last round's per-objective SLO burn rates ({} if none)."""
        if not self._rounds:
            return {}
        return dict(self._rounds[max(self._rounds)].get("burn", {}))

    def final_slo(self) -> dict:
        """The last published ``slo`` sample ({} if none streamed)."""
        if not self._slo:
            return {}
        return dict(self._slo[max(self._slo)])

    def rounds_observed(self) -> int:
        return len(self._rounds)

    def delivery_totals(self) -> dict:
        """Cumulative polled/delivered counts over the whole stream."""
        polled = delivered = 0
        for record in self._rounds.values():
            for info in record["outcomes"].values():
                polled += int(bool(info.get("polled", False)))
                delivered += int(bool(info.get("delivered", False)))
        return {"polled": polled, "delivered": delivered}

    def round_line(self, rnd: int) -> str:
        """One-line live rendering of a round (the ``repro tail`` view)."""
        record = self._rounds[rnd]
        outcomes = record["outcomes"]
        polled = sum(1 for i in outcomes.values() if i.get("polled"))
        delivered = sum(1 for i in outcomes.values() if i.get("delivered"))
        parts = [f"round {rnd:>4d}", f"delivered {delivered}/{polled}"]
        socs = [
            self._energy[(node, rnd)]["soc_v"]
            for node in sorted(outcomes)
            if (node, rnd) in self._energy
        ]
        if socs:
            parts.append(f"soc_min {min(socs):.2f}V")
        burn = record.get("burn", {})
        if burn:
            parts.append(
                "burn " + " ".join(
                    f"{obj[:5]}={_fmt_burn(burn[obj])}"
                    for obj in sorted(burn)
                )
            )
        churn = sum(
            1 for e in self._events.values()
            if str(e.kind) == "state" and int(e.t) == rnd
        )
        if churn:
            parts.append(f"churn {churn}")
        return "  ".join(parts)

    @property
    def anomalies(self) -> list:
        """Anomaly envelopes ordered (round, series, node, detector)."""
        return [self._anomalies[k] for k in sorted(self._anomalies)]

    def anomalies_for_round(self, rnd: int) -> list:
        """The round's anomaly envelopes, same ordering as above."""
        return [
            self._anomalies[k]
            for k in sorted(self._anomalies)
            if k[0] == int(rnd)
        ]

    def anomaly_counts(self) -> dict:
        """``{severity: count}`` over every reduced anomaly."""
        out: dict = {}
        for event in self._anomalies.values():
            sev = event.get("data", {}).get("severity", "warn")
            out[sev] = out.get(sev, 0) + 1
        return out

    @staticmethod
    def anomaly_line(event: dict) -> str:
        """One-line highlighted rendering of an anomaly envelope.

        The ``!!`` prefix is the highlight — it greps cleanly and
        survives pipes where ANSI color would not.
        """
        data = event.get("data", {})
        node = int(data.get("node", event.get("node", -1)))
        where = f"node {node}" if node >= 0 else "fleet"
        stage = data.get("stage", "")
        series = data.get("series", "?")
        return (
            f"!! {data.get('severity', 'warn'):<8s} "
            f"round {int(data.get('round', event.get('t', -1))):>4d}  "
            f"{where}  {series}"
            + (f" [{stage}]" if stage else "")
            + f"  {data.get('detector', '?')}"
            f" score={_fmt_burn(data.get('score'))}"
            f" value={_fmt_burn(data.get('value'))}"
            f" expected={_fmt_burn(data.get('expected'))}"
        )


def _fmt_burn(value) -> str:
    try:
        value = float(value)
    except (TypeError, ValueError):
        return str(value)
    if value != value:
        return "-"
    return f"{value:.2f}"
