"""Flight recorder: bounded ring, deterministic dumps, crash artifacts.

The recorder is a bus sink holding the last N events in memory so a
dying campaign can leave its final moments on disk.  The guarantees:

* the ring NEVER exceeds its capacity, no matter how long the campaign
  (a 1k-round chaos campaign here);
* with the same seed, the dump is byte-identical across runs — the
  recorder sees the reader's stream, which is itself deterministic;
* a fatal :class:`CampaignAbort` dumps the ring next to the campaign's
  checkpoints (``flight-recorder-NNNNNN.jsonl``).
"""

import pytest

from repro.faults import BrownoutInjector, EventLog, NoiseBurstInjector
from repro.net import Command, HealthPolicy, ReaderController, Response, RetryPolicy
from repro.obs import MetricsRegistry, SLOTracker
from repro.obs.ledger import NodeEnergyHarness
from repro.obs.recorder import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    dump_flight_recorders,
)
from repro.obs.stream import TelemetryBus, use_bus
from repro.resilience import CampaignAbort, install_worker_crash


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


def _chaos_reader(seed, log, *, nodes=4, ledgers=True):
    transports, harnesses = {}, {}
    for addr in range(1, nodes + 1):
        inner = _stub(addr)
        if addr % 2:
            inner = NoiseBurstInjector(
                inner, start=2 + addr, duration=4, node=addr, log=log,
                seed=seed + addr,
            )
        else:
            inner = BrownoutInjector(
                inner, at=3, dark_for=6, node=addr, log=log, seed=seed + addr
            )
        transports[addr] = inner
        harnesses[addr] = NodeEnergyHarness(
            addr, v_oc_v=3.3, r_out_ohm=4.0e3, initial_voltage_v=3.0
        )
    return ReaderController(
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
        ledgers=harnesses if ledgers else None,
        slo=SLOTracker(window=10) if ledgers else None,
    )


class TestRing:
    def test_bounded_and_counts_everything(self):
        recorder = FlightRecorder(capacity=16)
        bus = TelemetryBus(sinks=[recorder])
        for i in range(100):
            bus.publish("event", t=float(i))
        assert len(recorder) == 16
        assert recorder.events_seen == 100
        assert [e["t"] for e in recorder.snapshot()] == [
            float(i) for i in range(84, 100)
        ]

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_dump_jsonl(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        bus = TelemetryBus(sinks=[recorder])
        for i in range(6):
            bus.publish("soc", t=float(i), node=1)
        path = recorder.dump_jsonl(tmp_path / "fr.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert '"kind":"soc"' in lines[0]

    def test_ring_bounded_under_1k_round_chaos_campaign(self):
        recorder = FlightRecorder(capacity=64)
        bus = TelemetryBus(sinks=[recorder])
        with use_bus(bus):
            reader = _chaos_reader(5, EventLog(), ledgers=False)
            reader.run_campaign(Command.PING, 1_000)
        assert len(recorder) == 64
        assert recorder.events_seen > 1_000


class TestDeterminism:
    def _dump(self):
        recorder = FlightRecorder(capacity=128)
        bus = TelemetryBus(sinks=[recorder])
        with use_bus(bus):
            reader = _chaos_reader(9, EventLog())
            reader.run_campaign(Command.READ_TEMPERATURE, 25)
        return recorder.to_jsonl()

    def test_dump_repeatable(self):
        first = self._dump()
        assert first  # non-empty: the ring saw the campaign
        assert self._dump() == first


class TestCrashDump:
    def test_campaign_abort_dumps_next_to_checkpoints(self, tmp_path):
        recorder = FlightRecorder(capacity=32)
        bus = TelemetryBus(sinks=[recorder])
        with use_bus(bus):
            reader = _chaos_reader(3, EventLog())
            # Crash before the injectors can quarantine the node (a
            # quarantined shard's worker never runs, so never crashes).
            install_worker_crash(reader, 2, rounds=(2,), fatal=True)
            with pytest.raises(CampaignAbort):
                reader.run_campaign(
                    Command.READ_TEMPERATURE, 12,
                    checkpoint_every=1, checkpoint_dir=tmp_path,
                )
        dump = reader.last_recorder_dump
        assert dump is not None
        assert dump.name == "flight-recorder-000002.jsonl"
        assert dump.parent == tmp_path
        assert (tmp_path / "checkpoint-000001.json").exists()
        lines = dump.read_text().splitlines()
        assert 0 < len(lines) <= 32
        # The ring's tail holds the abort-adjacent telemetry.
        assert any('"kind":"round"' in line for line in lines)

    def test_no_dump_without_checkpoint_dir(self):
        bus = TelemetryBus(sinks=[FlightRecorder(capacity=8)])
        with use_bus(bus):
            reader = _chaos_reader(3, EventLog())
            install_worker_crash(reader, 2, rounds=(2,), fatal=True)
            with pytest.raises(CampaignAbort):
                reader.run_campaign(Command.READ_TEMPERATURE, 8)
        assert reader.last_recorder_dump is None


class TestArtifactHook:
    def test_dump_flight_recorders_sanitizes_and_writes(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        bus = TelemetryBus(sinks=[recorder])
        bus.publish("event", t=1.0)
        with use_bus(bus):
            paths = dump_flight_recorders(
                tmp_path, "tests/obs/test_x.py::TestY::test_z[param 1]"
            )
        assert len(paths) == 1
        assert paths[0].parent == tmp_path
        assert "::" not in paths[0].name and " " not in paths[0].name
        assert paths[0].name.endswith("-flight-recorder.jsonl")

    def test_empty_recorders_not_dumped(self, tmp_path):
        bus = TelemetryBus(sinks=[FlightRecorder(capacity=8)])
        with use_bus(bus):
            assert dump_flight_recorders(tmp_path, "nodeid") == []

    def test_disabled_bus_dumps_nothing(self, tmp_path):
        assert dump_flight_recorders(tmp_path, "nodeid") == []
