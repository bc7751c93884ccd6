"""Online anomaly detection: detectors, the monitor, and determinism.

The determinism contract under test mirrors the stream's: for a given
campaign the emitted anomaly sequence is byte-identical across repeated
runs and across a kill+resume splice (detector state rides the reader
checkpoint).
"""

import json

import pytest

from repro.faults import EventLog, NoiseBurstInjector
from repro.net import Command, HealthPolicy, ReaderController, Response, RetryPolicy
from repro.obs import MetricsRegistry
from repro.obs.analytics import (
    SEVERITIES,
    AnomalyMonitor,
    CusumDetector,
    EwmaDetector,
    publish_anomalies,
)
from repro.obs.stream import (
    JsonlStreamSink,
    MemorySink,
    StreamAggregator,
    TelemetryBus,
    event_to_line,
    use_bus,
)


# ---------------------------------------------------------------------------
# Detector units
# ---------------------------------------------------------------------------


class TestEwmaDetector:
    def test_warmup_never_flags(self):
        detector = EwmaDetector(warmup=8)
        for x in [0.0, 100.0, -50.0, 3.0, 7.0, 1.0, 2.0, 9.0]:
            assert detector.observe(x) is None

    def test_flags_spike_after_stable_baseline(self):
        detector = EwmaDetector(warmup=8, threshold=4.0)
        for _ in range(12):
            assert detector.observe(1.0) is None
        hit = detector.observe(0.0)
        assert hit is not None
        assert hit["detector"] == "ewma"
        assert hit["value"] == 0.0
        assert hit["score"] >= 4.0

    def test_constant_series_has_finite_scores(self):
        # Zero variance must not divide by zero: the sigma floor keeps
        # the z-score finite (and the constant value itself un-flagged).
        detector = EwmaDetector(warmup=4)
        for _ in range(50):
            assert detector.observe(2.5) is None

    def test_adaptive_baseline_flags_recovery_too(self):
        detector = EwmaDetector(warmup=8, threshold=4.0)
        for _ in range(12):
            detector.observe(1.0)
        assert detector.observe(0.0) is not None  # onset
        for _ in range(20):
            detector.observe(0.0)                 # baseline re-learns 0.0
        assert detector.observe(1.0) is not None  # recovery flagged

    def test_snapshot_restore_round_trips(self):
        a = EwmaDetector(warmup=4)
        for x in [1.0, 2.0, 1.5, 1.2, 1.4, 1.1]:
            a.observe(x)
        b = EwmaDetector(warmup=4)
        b.restore_state(a.snapshot_state())
        for x in [1.3, 9.0, 1.2]:
            assert a.observe(x) == b.observe(x)
        assert a.snapshot_state() == b.snapshot_state()


class TestCusumDetector:
    def test_slow_drift_accumulates_to_detection(self):
        # Each step is only ~2 sigma from the frozen baseline — below
        # any single-sample threshold — but the sum trips.
        detector = CusumDetector(warmup=8, threshold=5.0, drift=0.5)
        baseline = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.02, 0.98]
        for x in baseline:
            assert detector.observe(x) is None
        hits = [detector.observe(1.05) for _ in range(10)]
        assert any(h is not None for h in hits)

    def test_one_detection_per_excursion(self):
        # A persistent shift must not re-fire every round: the detector
        # disarms at the threshold crossing and rearms only after the
        # statistic decays back below it.
        detector = CusumDetector(warmup=8, threshold=5.0)
        for x in [1.0, 1.01, 0.99, 1.0, 1.01, 0.99, 1.0, 1.0]:
            detector.observe(x)
        hits = [detector.observe(2.0) for _ in range(30)]
        assert sum(1 for h in hits if h is not None) == 1

    def test_rearms_after_recovery(self):
        detector = CusumDetector(warmup=8, threshold=5.0)
        for x in [1.0, 1.01, 0.99, 1.0, 1.01, 0.99, 1.0, 1.0]:
            detector.observe(x)
        first = [detector.observe(2.0) for _ in range(10)]
        assert sum(1 for h in first if h) == 1
        # The clamp (2x threshold) bounds the decay time back to armed.
        recovery = [detector.observe(1.0) for _ in range(40)]
        assert all(h is None for h in recovery)
        assert detector.armed
        second = [detector.observe(2.0) for _ in range(10)]
        assert sum(1 for h in second if h) == 1

    def test_snapshot_restore_round_trips(self):
        a = CusumDetector(warmup=4)
        for x in [1.0, 1.1, 0.9, 1.0, 1.5, 1.6, 1.7]:
            a.observe(x)
        b = CusumDetector(warmup=4)
        b.restore_state(a.snapshot_state())
        for x in [1.8, 1.9, 1.0, 1.0]:
            assert a.observe(x) == b.observe(x)
        assert a.snapshot_state() == b.snapshot_state()


# ---------------------------------------------------------------------------
# The monitor
# ---------------------------------------------------------------------------


class TestAnomalyMonitor:
    def _warm(self, monitor, series="s", value=1.0, n=12, **kw):
        for _ in range(n):
            monitor.observe(series, value, **kw)

    def test_unknown_detector_kind_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown detector"):
            AnomalyMonitor(detectors=("bogus",))

    def test_payload_shape_and_rounding(self):
        monitor = AnomalyMonitor(detectors=("ewma",), warmup=8)
        self._warm(monitor, value=1.0, node=3)
        (payload,) = monitor.observe("s", 0.123456789, node=3, stage="mac", rnd=14)
        assert payload["series"] == "s"
        assert payload["node"] == 3
        assert payload["stage"] == "mac"
        assert payload["round"] == 14
        assert payload["severity"] in SEVERITIES
        assert payload["value"] == 0.123457  # 6-decimal rounding
        assert payload == json.loads(json.dumps(payload))

    def test_severity_escalates_with_score(self):
        monitor = AnomalyMonitor(
            detectors=("ewma",), ewma_threshold=4.0, critical_factor=2.0
        )
        self._warm(monitor, value=1.0)
        (payload,) = monitor.observe("s", 0.0)
        # Constant baseline: sigma floor 0.02 -> z = 50 >> 8.
        assert payload["severity"] == "critical"

    def test_disabled_monitor_is_inert(self):
        monitor = AnomalyMonitor(enabled=False)
        assert monitor.observe("s", 1.0) == []
        assert monitor.observe_campaign_round(0.0, {"outcomes": {}}) == []
        assert monitor.summary()["total"] == 0

    def test_non_finite_and_missing_values_skipped(self):
        monitor = AnomalyMonitor()
        assert monitor.observe("s", None) == []
        assert monitor.observe("s", float("nan")) == []
        assert monitor.observe("s", float("inf")) == []

    def test_series_are_independent_per_node(self):
        monitor = AnomalyMonitor(detectors=("ewma",))
        self._warm(monitor, node=1)
        # Node 2's detector has seen nothing: no detection, no warmup.
        assert monitor.observe("s", 0.0, node=2) == []
        assert monitor.observe("s", 0.0, node=1) != []

    def test_campaign_round_flags_delivery_and_names_stage(self):
        monitor = AnomalyMonitor(detectors=("ewma",))
        healthy = {
            "outcomes": {
                a: {"polled": True, "delivered": True} for a in (1, 2, 3)
            }
        }
        for t in range(12):
            assert monitor.observe_campaign_round(float(t), healthy) == []
        broken = {
            "outcomes": {
                1: {"polled": True, "delivered": True},
                2: {"polled": True, "delivered": False},
                3: {"polled": True, "delivered": True},
            }
        }
        hits = monitor.observe_campaign_round(12.0, broken)
        series = {(h["series"], h["node"]) for h in hits}
        assert ("delivery_ratio", -1) in series
        assert ("node_delivered", 2) in series
        by_series = {h["series"]: h for h in hits}
        assert by_series["delivery_ratio"]["stage"] == "mac"
        assert by_series["delivery_ratio"]["round"] == 12

    def test_campaign_round_watches_soc_and_burn(self):
        monitor = AnomalyMonitor(detectors=("ewma",))
        for t in range(12):
            record = {
                "outcomes": {1: {"polled": True, "delivered": True, "soc_v": 3.0}},
                "burn": {"delivery": 1.0},
            }
            monitor.observe_campaign_round(float(t), record)
        record = {
            "outcomes": {1: {"polled": True, "delivered": True, "soc_v": 1.8}},
            "burn": {"delivery": 14.0},
        }
        hits = monitor.observe_campaign_round(12.0, record)
        series = {h["series"] for h in hits}
        assert "soc_v" in series
        assert "slo_burn:delivery" in series
        stages = {h["series"]: h["stage"] for h in hits}
        assert stages["soc_v"] == "energy"
        assert stages["slo_burn:delivery"] == "slo"

    def test_link_quality_observes_histogram_delta_mean(self):
        monitor = AnomalyMonitor(detectors=("ewma",))
        registry = MetricsRegistry()
        snr = registry.histogram("pab_link_snr_db")
        for t in range(12):
            snr.observe(20.0)
            monitor.observe_campaign_round(
                float(t), {"outcomes": {}}, registry=registry
            )
        # Round 12's transactions average 0 dB: the *delta* mean is
        # anomalous even though the cumulative mean barely moves.
        snr.observe(0.0)
        hits = monitor.observe_campaign_round(
            12.0, {"outcomes": {}}, registry=registry
        )
        assert any(
            h["series"] == "snr_db" and h["stage"] == "link" for h in hits
        )

    def test_summary_counts_by_severity(self):
        monitor = AnomalyMonitor(detectors=("ewma",))
        self._warm(monitor)
        monitor.observe("s", 0.0)
        summary = monitor.summary()
        assert summary["total"] == 1
        assert summary["warn"] + summary["critical"] == 1

    def test_snapshot_restore_continues_identically(self):
        a = AnomalyMonitor()
        values = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]
        for i, x in enumerate(values):
            a.observe("s", x, node=1, rnd=i)
        b = AnomalyMonitor()
        b.restore_state(a.snapshot_state())
        tail = [1.0, 0.0, 0.0, 1.0, 2.0]
        for i, x in enumerate(tail, start=len(values)):
            assert a.observe("s", x, node=1, rnd=i) == b.observe(
                "s", x, node=1, rnd=i
            )
        assert a.summary() == b.summary()
        assert a.snapshot_state() == b.snapshot_state()

    def test_restore_keeps_summary_total_across_checkpoint(self):
        a = AnomalyMonitor(detectors=("ewma",))
        self._warm(a)
        a.observe("s", 0.0)           # one pre-checkpoint detection
        state = a.snapshot_state()
        b = AnomalyMonitor(detectors=("ewma",))
        b.restore_state(state)
        assert b.summary()["total"] == 1
        assert b.anomalies == []      # envelope already on the stream
        assert b.snapshot_state() == a.snapshot_state()


class TestPublishAnomalies:
    def _detection(self, severity="warn"):
        return {
            "series": "delivery_ratio", "node": -1, "stage": "mac",
            "round": 12, "detector": "ewma", "severity": severity,
            "value": 0.5, "expected": 1.0, "deviation": -0.5,
            "score": 25.0, "threshold": 4.0,
        }

    def test_metrics_families(self):
        registry = MetricsRegistry()
        publish_anomalies(
            [self._detection(), self._detection("critical")],
            t=12.0, metrics=registry,
        )
        assert registry.value(
            "pab_anomaly_events_total",
            series="delivery_ratio", detector="ewma", severity="warn",
        ) == 1.0
        assert registry.value(
            "pab_anomaly_score", series="delivery_ratio", node=-1
        ) == 25.0

    def test_envelope_published_on_enabled_bus_only(self):
        sink = MemorySink()
        bus = TelemetryBus(sinks=[sink])
        publish_anomalies([self._detection()], t=12.0, bus=bus)
        (event,) = sink.events
        assert event["kind"] == "anomaly"
        assert event["source"] == "analytics"
        assert event["data"]["series"] == "delivery_ratio"
        disabled = TelemetryBus(enabled=False, sinks=[MemorySink()])
        publish_anomalies([self._detection()], t=12.0, bus=disabled)
        assert disabled.sinks[0].events == []


# ---------------------------------------------------------------------------
# Campaign-level determinism
# ---------------------------------------------------------------------------
#
# A 3-node stub fleet where node 2 goes dark at round 12 (after the
# 8-round detector warmup): the delivery shift is sharp, so both
# detector families fire and the anomaly stream is non-trivial.


class _StubResult:
    def __init__(self, packet):
        self.success = True
        self.demod = type("Demod", (), {})()
        self.demod.packet = packet
        self.demod.success = True


def _stub(address):
    def transact(query):
        response = Response(source=address, command=query.command)
        return _StubResult(response.to_packet())

    return transact


def _make_fleet(seed=7, nodes=3):
    log = EventLog()
    transports = {}
    for addr in range(1, nodes + 1):
        inner = _stub(addr)
        if addr == 2:
            inner = NoiseBurstInjector(
                inner, start=12, duration=6, node=addr, log=log,
                seed=seed + addr,
            )
        transports[addr] = inner
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
        analytics=AnomalyMonitor(),
    )
    return reader


def _anomaly_lines(events):
    return [event_to_line(e) for e in events if e["kind"] == "anomaly"]


def _run_streamed(*, rounds=20, seed=7):
    sink = MemorySink()
    bus = TelemetryBus(sinks=[sink])
    with use_bus(bus):
        reader = _make_fleet(seed=seed)
        reader.run_campaign(Command.PING, rounds)
    bus.close()
    return reader, sink


class TestCampaignDeterminism:
    def test_identical_campaigns_emit_byte_identical_anomalies(self):
        first = _anomaly_lines(_run_streamed()[1].events)
        second = _anomaly_lines(_run_streamed()[1].events)
        assert first, "fixture campaign must produce anomalies"
        assert first == second

    def test_monitor_state_checkpoints_with_reader(self):
        reader, _ = _run_streamed(rounds=10)
        state = reader.snapshot_state()
        assert "analytics" in state
        json.dumps(state)  # checkpoint must stay JSON-serializable
        fresh = _make_fleet()
        fresh.restore(state)
        assert (
            fresh.analytics.snapshot_state()
            == reader.analytics.snapshot_state()
        )

    def test_kill_resume_splice_matches_uninterrupted(self, tmp_path):
        # Reference: one uninterrupted 20-round campaign.
        _, full_sink = _run_streamed(rounds=20)
        reference = StreamAggregator()
        for event in full_sink.events:
            reference.feed(event)
        assert reference.anomalies, "reference campaign must flag anomalies"

        # Interrupted at round 14 (checkpoint at 8), resumed to 20 on a
        # fresh fleet appending to the same stream file.
        path = tmp_path / "stream.jsonl"
        bus = TelemetryBus(sinks=[JsonlStreamSink(path)])
        with use_bus(bus):
            reader = _make_fleet()
            reader.run_campaign(
                Command.PING, 14, checkpoint_every=8, checkpoint_dir=tmp_path
            )
        bus.close()
        resume_bus = TelemetryBus(sinks=[JsonlStreamSink(path)])
        resume_bus.seq = JsonlStreamSink.last_seq(path) + 1
        with use_bus(resume_bus):
            reader2 = _make_fleet()
            reader2.run_campaign(
                Command.PING, 20,
                resume_from=tmp_path / "checkpoint-000008.json",
            )
        resume_bus.close()

        spliced = StreamAggregator()
        spliced.feed_file(path)
        assert [e["data"] for e in spliced.anomalies] == [
            e["data"] for e in reference.anomalies
        ]
        assert spliced.anomaly_counts() == reference.anomaly_counts()
