"""Streaming telemetry bus, sinks, and the stream aggregator.

The contract under test, end to end:

* producers publish incrementally through the process-global
  :class:`TelemetryBus` (disabled by default — everything here opts in);
* the stream is byte-identical across repeated runs (the reader
  publishes once per round, from the shared sinks);
* :class:`StreamAggregator` reduces a stream — including a resumed
  campaign's re-streamed overlap — back to the exact batch outputs:
  timeline rows, event log, final SLO burn.
"""

import math
import urllib.error
import urllib.request

import pytest

from repro.faults import (
    BrownoutInjector,
    EventLog,
    NoiseBurstInjector,
    TransportExceptionInjector,
)
from repro.net import Command, HealthPolicy, ReaderController, Response, RetryPolicy
from repro.obs import MetricsRegistry, SLOTracker
from repro.obs.ledger import NodeEnergyHarness
from repro.obs.recorder import FlightRecorder
from repro.obs.stream import (
    EVENT_KINDS,
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
from repro.obs.timeline import build_timeline, timeline_to_jsonl
from repro.resilience import read_checkpoint


# ---------------------------------------------------------------------------
# A miniature chaos fleet: stub firmware + fault injectors bound to the
# SHARED event log + energy harnesses + SLO tracking.
# ---------------------------------------------------------------------------


class _StubResult:
    def __init__(self, packet):
        self.success = True
        self.demod = type("Demod", (), {})()
        self.demod.packet = packet
        self.demod.success = True


def _stub(address):
    def transact(query):
        if query.command is Command.READ_TEMPERATURE:
            raw = int((18.0 + address) * 100.0 + 10_000)
            data = bytes([(raw >> 8) & 0xFF, raw & 0xFF])
            response = Response(source=address, command=query.command, data=data)
        else:
            response = Response(source=address, command=query.command)
        return _StubResult(response.to_packet())

    return transact


def _make_fleet(seed=7, nodes=5, window=10):
    log = EventLog()
    transports, harnesses = {}, {}
    for addr in range(1, nodes + 1):
        inner = _stub(addr)
        role = addr % 3
        if role == 1:
            inner = NoiseBurstInjector(
                inner, start=2 + addr, duration=4, node=addr, log=log,
                seed=seed + addr,
            )
        elif role == 2:
            inner = TransportExceptionInjector(
                inner, at=(3, 7 + addr), node=addr, log=log, seed=seed + addr
            )
        else:
            inner = BrownoutInjector(
                inner, at=4, dark_for=8, node=addr, log=log, seed=seed + addr
            )
        transports[addr] = inner
        v_oc = 1.9 if addr == nodes else 3.4 + 0.15 * addr
        harnesses[addr] = NodeEnergyHarness(
            addr, v_oc_v=v_oc, r_out_ohm=4.0e3, initial_voltage_v=3.0
        )
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.1, jitter=0.25, seed=seed
        ),
        health_policy=HealthPolicy(
            degrade_after=2, quarantine_after=4, recover_after=2,
            probe_backoff_rounds=2,
        ),
        log=log,
        metrics=MetricsRegistry(),
        ledgers=harnesses,
        slo=SLOTracker(window=window),
    )
    return reader, log, harnesses


def _run_streamed(*, rounds=10, seed=7, sinks=None):
    """One streamed campaign; returns (reader, log, harnesses, sink)."""
    sink = MemorySink()
    bus = TelemetryBus(sinks=[sink] + list(sinks or []))
    with use_bus(bus):
        reader, log, harnesses = _make_fleet(seed=seed)
        reader.run_campaign(Command.READ_TEMPERATURE, rounds)
    bus.close()
    return reader, log, harnesses, sink


# ---------------------------------------------------------------------------
# Event schema and envelope
# ---------------------------------------------------------------------------


class TestEventSchema:
    def test_envelope_fields_and_version(self):
        bus = TelemetryBus(sinks=[sink := MemorySink()])
        event = bus.publish("round", t=3.0, node=4, source="reader",
                            data={"x": 1})
        assert event == sink.events[0]
        assert event["schema"] == SCHEMA_VERSION
        assert event["seq"] == 0
        assert event["t"] == 3.0
        assert event["node"] == 4
        assert event["kind"] == "round"
        assert event["source"] == "reader"
        assert event["data"] == {"x": 1}

    def test_line_is_compact_sorted_json(self):
        line = event_to_line({"b": 1, "a": {"z": 2, "y": 3}})
        assert line == '{"a":{"y":3,"z":2},"b":1}'

    def test_line_round_trips_nan(self):
        # SLO burn rates are NaN before the window fills; the stream
        # must round-trip them exactly for streamed == batch to hold.
        event = {"v": float("nan"), "w": float("inf")}
        back = event_from_line(event_to_line(event))
        assert math.isnan(back["v"]) and math.isinf(back["w"])

    def test_documented_kinds(self):
        for kind in ("stream_start", "event", "span", "metrics", "soc",
                     "slo", "round", "postmortem", "checkpoint",
                     "anomaly"):
            assert kind in EVENT_KINDS

    def test_aggregator_rejects_newer_schema(self):
        agg = StreamAggregator()
        with pytest.raises(ValueError, match="schema"):
            agg.feed({"schema": SCHEMA_VERSION + 1, "seq": 0, "kind": "round",
                      "t": 0.0, "node": -1, "source": "", "data": {}})


class TestTelemetryBus:
    def test_disabled_publish_is_inert(self):
        sink = MemorySink()
        bus = TelemetryBus(enabled=False, sinks=[sink])
        assert bus.publish("round", data={"x": 1}) is None
        assert sink.events == []
        assert bus.seq == 0

    def test_global_bus_disabled_by_default(self):
        assert not get_bus().enabled

    def test_use_bus_restores_previous(self):
        original = get_bus()
        replacement = TelemetryBus()
        with use_bus(replacement):
            assert get_bus() is replacement
        assert get_bus() is original

    def test_seq_monotonic_across_kinds(self):
        bus = TelemetryBus(sinks=[sink := MemorySink()])
        bus.publish("event")
        bus.publish("soc")
        bus.publish("round")
        assert [e["seq"] for e in sink.events] == [0, 1, 2]

    def test_flush_stats_percentiles(self):
        bus = TelemetryBus(sinks=[MemorySink()])
        for _ in range(10):
            bus.flush()
        stats = bus.flush_stats()
        assert stats["count"] == 10
        assert stats["p50_s"] <= stats["p99_s"] <= stats["max_s"]

    def test_flush_stats_empty(self):
        stats = TelemetryBus(sinks=[MemorySink()]).flush_stats()
        assert stats == {"count": 0, "p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0}

    def test_flush_stats_single_sample_is_that_sample(self):
        bus = TelemetryBus(sinks=[MemorySink()])
        bus.flush_latencies.append(0.5)
        stats = bus.flush_stats()
        assert stats["count"] == 1
        assert stats["p50_s"] == stats["p99_s"] == stats["max_s"] == 0.5

    def test_flush_stats_two_samples_interpolate(self):
        # Linear interpolation between closest ranks: the median of
        # {0, 1} is 0.5 and p99 is 0.99 — neither degenerates to the
        # max the way nearest-rank did.
        bus = TelemetryBus(sinks=[MemorySink()])
        bus.flush_latencies.extend([0.0, 1.0])
        stats = bus.flush_stats()
        assert stats["p50_s"] == 0.5
        assert abs(stats["p99_s"] - 0.99) < 1e-12
        assert stats["max_s"] == 1.0

    def test_flush_stats_exact_at_sample_points(self):
        bus = TelemetryBus(sinks=[MemorySink()])
        bus.flush_latencies.extend([1.0, 2.0, 3.0])
        assert bus.flush_stats()["p50_s"] == 2.0

    def test_recorders_are_duck_typed(self):
        bus = TelemetryBus(sinks=[MemorySink()])
        recorder = bus.add_sink(FlightRecorder(capacity=4))
        assert bus.recorders() == [recorder]


class TestJsonlStreamSink:
    def test_buffers_until_flush(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlStreamSink(path)
        bus = TelemetryBus(sinks=[sink])
        bus.publish("event", data={"n": 1})
        assert not path.exists() or path.read_text() == ""
        bus.flush()
        assert len(path.read_text().splitlines()) == 1

    def test_appends_across_instances_and_last_seq(self, tmp_path):
        path = tmp_path / "s.jsonl"
        first = TelemetryBus(sinks=[JsonlStreamSink(path)])
        first.publish("event")
        first.publish("event")
        first.close()
        assert JsonlStreamSink.last_seq(path) == 1
        second = TelemetryBus(sinks=[JsonlStreamSink(path)])
        second.seq = JsonlStreamSink.last_seq(path) + 1
        second.publish("event")
        second.close()
        seqs = [event_from_line(l)["seq"] for l in path.read_text().splitlines()]
        assert seqs == [0, 1, 2]

    def test_rotation_bounds_file_size(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlStreamSink(path, max_bytes=500, max_files=2)
        bus = TelemetryBus(sinks=[sink])
        for i in range(100):
            bus.publish("event", t=float(i), data={"pad": "x" * 40})
            bus.flush()
        bus.close()
        assert path.stat().st_size <= 1_000
        assert (tmp_path / "s.jsonl.1").exists()
        assert not (tmp_path / "s.jsonl.3").exists()

    def test_last_seq_of_missing_file(self, tmp_path):
        assert JsonlStreamSink.last_seq(tmp_path / "nope.jsonl") is None


class TestMetricsSnapshotServer:
    def test_serves_prometheus_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("pab_polls_total", node=1).inc(3)
        with MetricsSnapshotServer(registry, port=0) as server:
            url = f"http://127.0.0.1:{server.port}/metrics"
            body = urllib.request.urlopen(url, timeout=5).read().decode()
            assert 'pab_polls_total{node="1"} 3' in body
            assert "# TYPE pab_polls_total counter" in body
            # Live: a later scrape sees the updated value.
            registry.counter("pab_polls_total", node=1).inc()
            body = urllib.request.urlopen(url, timeout=5).read().decode()
            assert 'pab_polls_total{node="1"} 4' in body

    def test_healthz_and_unknown_path(self):
        with MetricsSnapshotServer(MetricsRegistry(), port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            assert urllib.request.urlopen(base + "/healthz", timeout=5).status == 200
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope", timeout=5)

    def test_concurrent_scrapes_during_writes_never_tear(self):
        # A campaign mutates the registry while Prometheus scrapes it:
        # every scrape must be a well-formed exposition (one HELP/TYPE
        # per family, parseable sample lines), never a torn snapshot or
        # a 500, and /healthz must stay live throughout.
        import threading

        registry = MetricsRegistry()
        registry.counter("pab_scrape_test_total", node=0).inc()
        stop = threading.Event()

        def writer():
            node = 0
            while not stop.is_set():
                node = (node + 1) % 8
                registry.counter("pab_scrape_test_total", node=node).inc()
                registry.gauge("pab_scrape_gauge", node=node).set(node * 0.5)

        thread = threading.Thread(target=writer, daemon=True)
        with MetricsSnapshotServer(registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            thread.start()
            try:
                for _ in range(20):
                    response = urllib.request.urlopen(
                        base + "/metrics", timeout=5
                    )
                    assert response.status == 200
                    body = response.read().decode()
                    lines = body.splitlines()
                    assert lines, "scrape returned an empty body"
                    families = [
                        l.split()[2] for l in lines
                        if l.startswith("# TYPE")
                    ]
                    assert len(families) == len(set(families)), (
                        "torn exposition: duplicate TYPE lines"
                    )
                    for line in lines:
                        if line.startswith("#"):
                            continue
                        name_part, _, value = line.rpartition(" ")
                        assert name_part, f"malformed sample line: {line!r}"
                        float(value)  # every sample value parses
                    health = urllib.request.urlopen(
                        base + "/healthz", timeout=5
                    )
                    assert health.status == 200
            finally:
                stop.set()
                thread.join(timeout=5)
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# Campaign streams: repeatability, streamed == batch, resume
# ---------------------------------------------------------------------------


def _stream_lines(sink):
    return [event_to_line(e) for e in sink.events]


class TestCampaignStream:
    def test_stream_covers_every_producer(self):
        _, _, _, sink = _run_streamed()
        kinds = {e["kind"] for e in sink.events}
        assert {"event", "soc", "slo", "round", "metrics"} <= kinds

    def test_stream_repeatable(self):
        first = _stream_lines(_run_streamed()[3])
        assert _stream_lines(_run_streamed()[3]) == first

    def test_streamed_timeline_equals_batch(self):
        reader, log, harnesses, sink = _run_streamed()
        agg = StreamAggregator()
        for event in sink.events:
            agg.feed(event)
        batch = timeline_to_jsonl(
            build_timeline(reader.round_log, log=log, ledgers=harnesses)
        )
        assert timeline_to_jsonl(agg.timeline_rows()) == batch
        assert agg.event_log().to_jsonl() == log.to_jsonl()
        assert agg.rounds_observed() == 10

    def test_streamed_final_burn_equals_batch(self):
        reader, _, _, sink = _run_streamed()
        agg = StreamAggregator()
        for event in sink.events:
            agg.feed(event)
        batch_burn = reader.round_log[-1]["burn"]
        streamed = agg.final_burn()
        assert sorted(streamed) == sorted(batch_burn)
        for objective, value in batch_burn.items():
            assert repr(streamed[objective]) == repr(value)

    def test_refeeding_is_idempotent(self):
        # The resume-overlap guarantee in miniature: feeding the same
        # stream twice reduces to the same state as feeding it once.
        _, _, _, sink = _run_streamed()
        once, twice = StreamAggregator(), StreamAggregator()
        for event in sink.events:
            once.feed(event)
        for event in sink.events + sink.events:
            twice.feed(event)
        assert timeline_to_jsonl(twice.timeline_rows()) == timeline_to_jsonl(
            once.timeline_rows()
        )
        assert twice.event_log().to_jsonl() == once.event_log().to_jsonl()

    def test_metrics_events_carry_absolute_values(self):
        _, _, _, sink = _run_streamed()
        rounds_total = [
            e["data"]["values"]["pab_reader_rounds_total"]
            for e in sink.events
            if e["kind"] == "metrics"
            and "pab_reader_rounds_total" in e["data"]["values"]
        ]
        assert rounds_total == sorted(rounds_total)
        assert rounds_total[-1] == 10.0

    def test_checkpoint_events_mark_boundaries(self, tmp_path):
        sink = MemorySink()
        bus = TelemetryBus(sinks=[sink])
        with use_bus(bus):
            reader, _, _ = _make_fleet()
            reader.run_campaign(
                Command.READ_TEMPERATURE, 9,
                checkpoint_every=4, checkpoint_dir=tmp_path,
            )
        marks = [e["data"] for e in sink.events if e["kind"] == "checkpoint"]
        assert [m["round"] for m in marks] == [4, 8]
        assert marks[0]["path"] == "checkpoint-000004.json"

    def test_resumed_stream_replays_to_uninterrupted_state(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        # Uninterrupted streamed run: the reference reduction.
        full_reader, full_log, full_harnesses, full_sink = _run_streamed(rounds=10)
        reference = StreamAggregator()
        for event in full_sink.events:
            reference.feed(event)

        # Interrupted run: stream the first 6 rounds and checkpoint at 4.
        bus = TelemetryBus(sinks=[JsonlStreamSink(path)])
        with use_bus(bus):
            reader, _, _ = _make_fleet()
            reader.run_campaign(
                Command.READ_TEMPERATURE, 6,
                checkpoint_every=4, checkpoint_dir=tmp_path,
            )
        bus.close()

        # Resume from round 4 on a FRESH fleet, appending to the same
        # stream with continued sequence numbers.  Rounds 4-5 are
        # re-streamed (they post-date the checkpoint) — byte-identical
        # to the first pass, so the last-write-wins reduction dedups.
        resume_bus = TelemetryBus(sinks=[JsonlStreamSink(path)])
        resume_bus.seq = JsonlStreamSink.last_seq(path) + 1
        with use_bus(resume_bus):
            reader2, _, _ = _make_fleet()
            reader2.run_campaign(
                Command.READ_TEMPERATURE, 10,
                resume_from=tmp_path / "checkpoint-000004.json",
            )
        resume_bus.close()

        spliced = StreamAggregator()
        spliced.feed_file(path)
        assert timeline_to_jsonl(spliced.timeline_rows()) == timeline_to_jsonl(
            reference.timeline_rows()
        )
        assert spliced.event_log().to_jsonl() == reference.event_log().to_jsonl()
        assert spliced.delivery_totals() == reference.delivery_totals()


class TestCheckpointHistory:
    """The history file beside the checkpoints is a schema-1 stream."""

    def test_history_prefix_rebuilds_the_live_views(self, tmp_path):
        reader, log, harnesses = _make_fleet()
        reader.run_campaign(
            Command.READ_TEMPERATURE, 7,
            checkpoint_every=3, checkpoint_dir=tmp_path,
        )
        path = reader.save_checkpoint(tmp_path)   # checkpoint k = 7
        round_log = [dict(rec) for rec in reader.round_log]
        events = log.to_jsonl()
        histories = {
            addr: [dict(info) for info in h.ledger.round_history]
            for addr, h in harnesses.items()
        }
        timeline = timeline_to_jsonl(
            build_timeline(reader.round_log, log=log, ledgers=harnesses)
        )
        # Later saves append rows past checkpoint 7's prefix.
        reader.run_campaign(
            Command.READ_TEMPERATURE, 12,
            checkpoint_every=1, checkpoint_dir=tmp_path,
        )

        agg = StreamAggregator()
        for row in read_checkpoint(path)["history"]:
            agg.feed(row)
        assert agg.round_log == round_log
        assert agg.event_log().to_jsonl() == events
        assert {
            addr: ledger.round_history
            for addr, ledger in agg.energy_ledgers().items()
        } == histories
        assert timeline_to_jsonl(agg.timeline_rows()) == timeline
        assert agg.unknown_kinds == {}

    def test_history_lines_are_canonical(self, tmp_path):
        """Addresses past 9 sort differently as ints and as strings, so
        a row keyed by int addresses would not survive a re-encode."""
        reader, _, _ = _make_fleet(nodes=12)
        reader.run_campaign(
            Command.READ_TEMPERATURE, 6,
            checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert {event_from_line(line)["kind"] for line in lines} == {
            "event", "round", "readings", "soc", "soc_samples",
        }
        for line in lines:
            assert event_to_line(event_from_line(line)) == line

    def test_history_rows_never_reach_the_bus(self, tmp_path):
        def strip(events):
            return [
                event_to_line({**e, "seq": None})
                for e in events if e["kind"] != "checkpoint"
            ]

        plain = _run_streamed()[3].events
        checkpointed = MemorySink()
        bus = TelemetryBus(sinks=[checkpointed])
        with use_bus(bus):
            reader, _, _ = _make_fleet()
            reader.run_campaign(
                Command.READ_TEMPERATURE, 10,
                checkpoint_every=2, checkpoint_dir=tmp_path,
            )
        bus.close()
        assert strip(checkpointed.events) == strip(plain)
        assert not {"readings", "soc_samples"} & {
            e["kind"] for e in checkpointed.events
        }


def _envelope(kind, *, seq=0, t=0.0, node=-1, source="test", data=None):
    return {
        "schema": SCHEMA_VERSION, "seq": seq, "t": t, "node": node,
        "kind": kind, "source": source, "data": data or {},
    }


class TestUnknownKinds:
    """Forward compatibility: newer producers may add envelope kinds."""

    def test_unknown_kind_skipped_and_counted(self):
        agg = StreamAggregator()
        agg.feed(_envelope("hologram", data={"x": 1}))
        agg.feed(_envelope("hologram", seq=1))
        agg.feed(_envelope("round", seq=2, data={"t": 0.0, "outcomes": {}}))
        # A retired kind: older streams carry per-round ``profile`` lines.
        agg.feed(_envelope("profile", seq=3, data={"round": 0, "stages": {}}))
        assert agg.unknown_kinds == {"hologram": 2, "profile": 1}
        assert agg.rounds_observed() == 1  # known kinds still reduce

    def test_unknown_kind_counter_metric(self):
        registry = MetricsRegistry()
        agg = StreamAggregator(metrics=registry)
        agg.feed(_envelope("hologram"))
        assert registry.value(
            "pab_stream_unknown_kinds_total", kind="hologram"
        ) == 1.0

    def test_known_kinds_never_counted(self):
        agg = StreamAggregator()
        for kind in EVENT_KINDS:
            if kind in ("event", "round", "soc", "slo"):
                continue  # these require structured payloads
            agg.feed(_envelope(kind, data={"t": 0.0, "round": 0}))
        assert agg.unknown_kinds == {}


class TestAnomalyReduction:
    def _anomaly(self, *, seq=0, rnd=3, series="delivery_ratio", node=-1,
                 detector="ewma", severity="warn"):
        return _envelope("anomaly", seq=seq, t=float(rnd), node=node,
                         source="analytics", data={
                             "series": series, "node": node, "stage": "mac",
                             "round": rnd, "detector": detector,
                             "severity": severity, "value": 0.5,
                             "expected": 1.0, "deviation": -0.5,
                             "score": 25.0, "threshold": 4.0,
                         })

    def test_refeeding_is_idempotent(self):
        # The resume-overlap case: the same detection re-streamed under
        # a fresh seq must not double-count.
        agg = StreamAggregator()
        agg.feed(self._anomaly(seq=0))
        agg.feed(self._anomaly(seq=99))
        assert len(agg.anomalies) == 1
        assert agg.anomaly_counts() == {"warn": 1}

    def test_ordering_and_round_filter(self):
        agg = StreamAggregator()
        agg.feed(self._anomaly(rnd=7, series="soc_v", node=2))
        agg.feed(self._anomaly(rnd=3))
        agg.feed(self._anomaly(rnd=3, detector="cusum", severity="critical"))
        rounds = [e["data"]["round"] for e in agg.anomalies]
        assert rounds == [3, 3, 7]
        assert len(agg.anomalies_for_round(3)) == 2
        assert agg.anomaly_counts() == {"warn": 2, "critical": 1}

    def test_anomaly_line_highlights_and_names_series(self):
        line = StreamAggregator.anomaly_line(
            self._anomaly(rnd=12, series="soc_v", node=5,
                          severity="critical")
        )
        assert line.startswith("!! critical")
        assert "round   12" in line
        assert "node 5" in line
        assert "soc_v [mac]" in line
        assert "ewma" in line
        assert "score=25.00" in line

    def test_anomaly_line_fleet_series(self):
        line = StreamAggregator.anomaly_line(self._anomaly())
        assert "fleet" in line
        assert "delivery_ratio" in line


class TestRoundLine:
    def test_round_line_renders_delivery_soc_and_burn(self):
        _, _, _, sink = _run_streamed()
        agg = StreamAggregator()
        for event in sink.events:
            agg.feed(event)
        line = agg.round_line(9)
        assert line.startswith("round    9")
        assert "delivered" in line
        assert "soc_min" in line
        assert "burn" in line

    def test_delivery_totals_accumulate(self):
        _, _, _, sink = _run_streamed()
        agg = StreamAggregator()
        for event in sink.events:
            agg.feed(event)
        totals = agg.delivery_totals()
        assert 0 < totals["delivered"] <= totals["polled"] <= 50


class TestLogBusBinding:
    def test_reader_binds_enabled_bus_to_log(self):
        bus = TelemetryBus(sinks=[MemorySink()])
        with use_bus(bus):
            reader, log, _ = _make_fleet()
        assert log.bus is bus

    def test_disabled_bus_not_bound(self):
        reader, log, _ = _make_fleet()
        assert log.bus is None

    def test_log_records_publish_event_kind(self):
        sink = MemorySink()
        bus = TelemetryBus(sinks=[sink])
        log = EventLog()
        log.bus = bus
        log.record(2.0, 5, "fault", injector="noise_burst")
        (event,) = sink.events
        assert event["kind"] == "event"
        assert event["source"] == "log"
        assert event["data"]["kind"] == "fault"
        assert event["data"]["node"] == 5
