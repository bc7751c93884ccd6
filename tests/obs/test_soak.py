"""Soak: a long streamed campaign gating flush latency.

The CI ``soak`` job's payload (``pytest -m soak``): a 12-node chaos
fleet polled sequentially streams 300 rounds to a real JSONL file
with a flight recorder attached.  Gates:

* p99 per-round flush latency stays under a generous bound — the
  stream writer must never become the campaign bottleneck;
* the on-disk stream replays to the exact batch timeline (the
  streamed == batch identity holds at soak length);
* the recorder ring stays bounded the whole way.

Latency bound note: 50 ms p99 is ~100x the typical observed flush on
a developer machine — the gate exists to catch an accidental O(file)
rewrite (the failure mode that motivated append-mode streaming), not
to benchmark the disk.
"""

import pytest

from repro.faults import EventLog, NoiseBurstInjector, TransportExceptionInjector
from repro.net import Command, HealthPolicy, ReaderController, Response, RetryPolicy
from repro.obs import MetricsRegistry, SLOTracker
from repro.obs.ledger import NodeEnergyHarness
from repro.obs.recorder import FlightRecorder
from repro.obs.stream import (
    JsonlStreamSink,
    StreamAggregator,
    TelemetryBus,
    use_bus,
)
from repro.obs.timeline import build_timeline, timeline_to_jsonl

pytestmark = pytest.mark.soak

ROUNDS = 300
NODES = 12

#: p99 per-round flush budget [s]; see the module docstring.
P99_FLUSH_BUDGET_S = 0.05


class _StubResult:
    def __init__(self, packet):
        self.success = True
        self.demod = type("Demod", (), {})()
        self.demod.packet = packet
        self.demod.success = True


def _stub(address):
    def transact(query):
        return _StubResult(
            Response(source=address, command=query.command).to_packet()
        )

    return transact


def test_streamed_soak_campaign(tmp_path):
    log = EventLog()
    transports, harnesses = {}, {}
    for addr in range(1, NODES + 1):
        inner = _stub(addr)
        if addr % 3 == 1:
            inner = NoiseBurstInjector(
                inner, start=5 * addr, duration=6, node=addr, log=log,
                seed=addr,
            )
        elif addr % 3 == 2:
            inner = TransportExceptionInjector(
                inner, at=(11 * addr, 11 * addr + 40), node=addr, log=log,
                seed=addr,
            )
        transports[addr] = inner
        harnesses[addr] = NodeEnergyHarness(
            addr, v_oc_v=3.3, r_out_ohm=4.0e3, initial_voltage_v=3.0
        )

    path = tmp_path / "soak.jsonl"
    recorder = FlightRecorder(capacity=256)
    bus = TelemetryBus(sinks=[JsonlStreamSink(path), recorder])
    with use_bus(bus):
        reader = ReaderController(
            transports,
            retry_policy=RetryPolicy(
                max_retries=1, base_backoff_s=0.05, jitter=0.25, seed=42
            ),
            health_policy=HealthPolicy(
                degrade_after=2, quarantine_after=4, recover_after=2,
                probe_backoff_rounds=2,
            ),
            log=log,
            metrics=MetricsRegistry(),
            ledgers=harnesses,
            slo=SLOTracker(window=20),
        )
        report = reader.run_campaign(Command.READ_TEMPERATURE, ROUNDS)
    bus.close()

    assert report["rounds"] == ROUNDS

    # Flush-latency gate: the stream writer appends, so per-round cost
    # must not grow with campaign length.
    stats = bus.flush_stats()
    assert stats["count"] >= ROUNDS
    assert stats["p99_s"] < P99_FLUSH_BUDGET_S, (
        f"p99 round flush {stats['p99_s'] * 1e3:.1f} ms exceeds "
        f"{P99_FLUSH_BUDGET_S * 1e3:.0f} ms budget "
        f"(p50 {stats['p50_s'] * 1e3:.1f} ms, max {stats['max_s'] * 1e3:.1f} ms)"
    )

    # The ring stayed bounded while seeing the whole campaign.
    assert len(recorder) == 256
    assert recorder.events_seen > ROUNDS

    # Streamed == batch at soak length.
    agg = StreamAggregator()
    agg.feed_file(path)
    assert agg.rounds_observed() == ROUNDS
    assert timeline_to_jsonl(agg.timeline_rows()) == timeline_to_jsonl(
        build_timeline(reader.round_log, log=log, ledgers=harnesses)
    )
