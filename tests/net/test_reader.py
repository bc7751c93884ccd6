"""Tests for the reader-side controller."""

import pytest

from repro.acoustics import POOL_A, Position
from repro.core import BackscatterLink, Projector
from repro.net import Command
from repro.net.messages import BITRATE_TABLE
from repro.net.reader import ReaderController
from repro.node.node import Environment, PABNode
from repro.piezo import Transducer
from repro.sensing.pressure import WaterColumn


class StubResult:
    def __init__(self, success, packet=None):
        self.success = success

        class D:
            pass

        self.demod = D()
        self.demod.packet = packet


class StubNodeTransport:
    """A behaviourally faithful stand-in: executes queries against real
    firmware without the waveform physics (fast)."""

    def __init__(self, address, fail_first=0):
        self.node = PABNode(
            address=address,
            environment=Environment(
                water=WaterColumn(depth_m=0.4, temperature_c=19.0),
                true_ph=7.2,
            ),
        )
        self.node.force_power(True)
        self.fail_first = fail_first
        self.calls = 0

    def __call__(self, query):
        self.calls += 1
        if self.calls <= self.fail_first:
            return StubResult(False)
        response = self.node.respond(query)
        if response is None:
            return StubResult(False)
        self.node.firmware.response_sent()
        return StubResult(True, response.to_packet())


class TestConfiguration:
    def make(self):
        return ReaderController({1: StubNodeTransport(1), 2: StubNodeTransport(2)})

    def test_set_bitrate_acknowledged(self):
        reader = self.make()
        assert reader.set_bitrate(1, 2_000.0)
        assert reader.nodes[1].bitrate == 2_000.0

    def test_set_bitrate_unknown_value(self):
        with pytest.raises(ValueError, match="BITRATE_TABLE"):
            self.make().set_bitrate(1, 1_234.0)

    def test_set_resonance_mode_rejected_by_single_mode_node(self):
        reader = self.make()
        # Default nodes have one mode; asking for mode 1 gets no ack.
        assert not reader.set_resonance_mode(1, 1)
        assert reader.nodes[1].resonance_mode is None

    def test_set_resonance_mode_zero_acknowledged(self):
        reader = self.make()
        assert reader.set_resonance_mode(2, 0)
        assert reader.nodes[2].resonance_mode == 0

    def test_unknown_address(self):
        with pytest.raises(KeyError):
            self.make().poll(9, Command.PING)

    def test_empty_transports(self):
        with pytest.raises(ValueError):
            ReaderController({})

    @pytest.mark.parametrize(
        "parallel", [1, 4, -3, True, False, 2.7, 0.0, "auto", "batched", "0", None]
    )
    def test_parallel_accepts_only_sequential_or_batch(self, parallel):
        with pytest.raises(ValueError, match=r"0 \(sequential\) or 'batch'"):
            ReaderController({1: StubNodeTransport(1)}, parallel=parallel)


class TestPolling:
    def test_poll_reads_sensor(self):
        reader = ReaderController({1: StubNodeTransport(1)})
        reading = reader.poll(1, Command.READ_PH)
        assert reading is not None
        assert reading.kind == "ph"
        assert reading.values[0] == pytest.approx(7.2, abs=0.15)

    def test_poll_round_covers_all_nodes(self):
        reader = ReaderController(
            {1: StubNodeTransport(1), 2: StubNodeTransport(2)}
        )
        round_result = reader.poll_round(Command.READ_PRESSURE_TEMP)
        assert set(round_result) == {1, 2}
        assert all(r is not None for r in round_result.values())

    def test_retries_recover_flaky_node(self):
        reader = ReaderController(
            {1: StubNodeTransport(1, fail_first=2)}, max_retries=2
        )
        assert reader.poll(1, Command.PING) is not None

    def test_run_schedule_counts(self):
        reader = ReaderController({1: StubNodeTransport(1)})
        delivered = reader.run_schedule(Command.READ_TEMPERATURE, rounds=3)
        assert delivered[1] == 3
        assert len(reader.nodes[1].readings) == 3

    def test_schedule_validation(self):
        reader = ReaderController({1: StubNodeTransport(1)})
        with pytest.raises(ValueError):
            reader.run_schedule(Command.PING, rounds=0)

    def test_summary(self):
        reader = ReaderController({1: StubNodeTransport(1)})
        reader.set_bitrate(1, BITRATE_TABLE[5])
        reader.poll(1, Command.READ_PH)
        summary = reader.summary()
        assert summary[0]["address"] == 1
        assert summary[0]["bitrate"] == BITRATE_TABLE[5]
        assert summary[0]["readings"] == 1


class TestEnergyAndSloIntegration:
    def make(self, *, fail_first=0):
        from repro.obs import MetricsRegistry, NodeEnergyHarness, SLOTracker

        harnesses = {
            1: NodeEnergyHarness(1, v_oc_v=4.0),
            # Starved: source below the cap voltage, pure discharge.
            2: NodeEnergyHarness(2, v_oc_v=1.5, initial_voltage_v=2.6),
        }
        metrics = MetricsRegistry()
        reader = ReaderController(
            {1: StubNodeTransport(1), 2: StubNodeTransport(2, fail_first=fail_first)},
            metrics=metrics,
            ledgers=harnesses,
            slo=SLOTracker(),
        )
        return reader, harnesses, metrics

    def test_round_log_tracks_outcomes_and_burn(self):
        reader, _, _ = self.make()
        reader.poll_round(Command.READ_PH)
        reader.poll_round(Command.READ_PH)
        assert len(reader.round_log) == 2
        record = reader.round_log[0]
        assert set(record["outcomes"]) == {1, 2}
        assert set(record["burn"]) == {"availability", "delivery", "energy"}
        info = record["outcomes"][1]
        assert info["polled"] and info["delivered"] and info["up"]
        assert "sustainable" in info and "soc_v" in info

    def test_harnesses_advance_with_the_campaign_clock(self):
        reader, harnesses, _ = self.make()
        reader.run_schedule(Command.READ_PH, 5)
        assert harnesses[1].ledger.t == pytest.approx(5.0)
        assert len(harnesses[1].ledger.round_history) == 5
        assert abs(harnesses[1].ledger.balance()["error_fraction"]) < 1e-9

    def test_report_carries_energy_and_slo_sections(self):
        reader, _, metrics = self.make()
        report = reader.run_campaign(Command.READ_PH, 4)
        assert set(report["energy"]) == {1, 2}
        assert report["energy"][1]["node"] == 1
        assert "duty_cycle" in report["energy"][1]
        assert report["slo"]["rounds"] == 4
        assert "delivery" in report["slo"]["fleet"]
        # Ledger + SLO gauges landed in the shared registry.
        assert metrics.value("pab_node_soc_volts", node=1) > 0
        assert metrics.value(
            "pab_slo_compliance", objective="delivery", node="fleet"
        ) == pytest.approx(1.0)

    def test_untracked_reader_keeps_no_round_log(self):
        reader = ReaderController({1: StubNodeTransport(1)})
        reader.poll_round(Command.READ_PH)
        assert reader.round_log == []
        assert "energy" not in reader.report()
        assert "slo" not in reader.report()

    def test_failed_delivery_burns_the_budget(self):
        reader, _, _ = self.make(fail_first=100)
        reader.run_schedule(Command.READ_PH, 4)
        good, bad = reader.slo.counts("delivery", 2)
        assert bad > 0
        assert reader.slo.error_budget_remaining("delivery", 2) < 1.0


class TestEndToEndWithWaveformLink:
    def test_full_stack_configuration_and_sensing(self):
        """ReaderController over the real waveform link."""
        transducer = Transducer.from_cylinder_design()
        f = transducer.resonance_hz
        projector = Projector(
            transducer=transducer, drive_voltage_v=50.0, carrier_hz=f
        )
        node = PABNode(
            address=0x21,
            channel_frequencies_hz=(f,),
            environment=Environment(
                water=WaterColumn(depth_m=0.7, temperature_c=17.0)
            ),
        )
        link = BackscatterLink(
            POOL_A, projector, Position(0.5, 1.5, 0.6),
            node, Position(1.5, 1.5, 0.6), Position(1.0, 0.8, 0.6),
        )
        reader = ReaderController({0x21: link.run_query})
        assert reader.set_bitrate(0x21, 400.0)
        assert node.bitrate == 400.0  # the command took effect on-node
        reading = reader.poll(0x21, Command.READ_PRESSURE_TEMP)
        assert reading is not None
        pressure, temperature = reading.values
        assert temperature == pytest.approx(17.0, abs=0.3)
