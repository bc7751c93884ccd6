"""Seeded fuzz of snapshot -> restore -> snapshot across all state.

Every stateful component a checkpoint carries must restore *exactly*:
the snapshot taken from a restored twin is JSON-equal to the original
snapshot, and the twin's future behaviour (RNG draws, derived reports)
matches the original's.  Exactness matters — json round-trips preserve
int/float identity, so any coercion in a restore path shows up here.
"""

import json
import random

import numpy as np
import pytest

from repro.acoustics import POOL_A, Position
from repro.acoustics.noise import AmbientNoiseModel
from repro.core import BackscatterLink, Projector
from repro.faults import (
    BrownoutInjector,
    EventLog,
    GilbertElliottInjector,
    NoiseBurstInjector,
)
from repro.net import Command, HealthPolicy, Query, RetryPolicy
from repro.net.addresses import NodeAddress
from repro.net.health import NodeHealth
from repro.net.mac import PollingMac
from repro.net.messages import bitrate_code
from repro.node.firmware import FirmwareConfig
from repro.node.node import PABNode
from repro.obs import MetricsRegistry, SLOTracker
from repro.obs.analytics import CusumDetector, EwmaDetector
from repro.obs.ledger import EnergyLedger, NodeEnergyHarness
from repro.node.power import PowerState
from repro.piezo import Transducer
from repro.sensing.adc import SarADC
from repro.sensing.ph import PhSensor

pytestmark = pytest.mark.resilience

SEEDS = [0, 1, 7, 23, 101]


def canon(state):
    """The JSON form a checkpoint file stores (and sorts)."""
    return json.dumps(state, sort_keys=True)


def assert_exact_round_trip(original, fresh):
    """snapshot(original) -> restore into fresh -> snapshot equality."""
    state = original.snapshot_state()
    # Through JSON, like a real checkpoint file (sort_keys reorders
    # dicts — restore must not depend on insertion order).
    state = json.loads(canon(state))
    fresh.restore_state(state)
    assert canon(fresh.snapshot_state()) == canon(original.snapshot_state())


class TestHealthMachine:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        policy = HealthPolicy(
            degrade_after=2, quarantine_after=3, recover_after=2,
            probe_backoff_rounds=2,
        )
        health = NodeHealth(node=7, policy=policy, log=EventLog())
        for t in range(40):
            health.on_result(bool(rng.random() < 0.6), float(t))
        twin = NodeHealth(node=7, policy=policy, log=EventLog())
        assert_exact_round_trip(health, twin)

    def test_future_behaviour_matches(self):
        policy = HealthPolicy(degrade_after=2, quarantine_after=3)
        a = NodeHealth(node=1, policy=policy, log=EventLog())
        for t in range(5):
            a.on_result(False, float(t))
        b = NodeHealth(node=1, policy=policy, log=EventLog())
        b.restore_state(json.loads(canon(a.snapshot_state())))
        for t in range(5, 12):
            assert a.on_result(t % 3 == 0, float(t)) == b.on_result(
                t % 3 == 0, float(t)
            )
            assert a.state is b.state


class TestSLOTracker:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        slo = SLOTracker(window=6)
        for t in range(25):
            slo.observe_round(
                float(t),
                {
                    n: {
                        "polled": True,
                        "delivered": bool(rng.random() < 0.8),
                        "healthy": bool(rng.random() < 0.9),
                        "sustainable": bool(rng.random() < 0.7),
                    }
                    for n in (1, 2, 3)
                },
            )
        twin = SLOTracker(window=6)
        assert_exact_round_trip(slo, twin)
        assert twin.report() == slo.report()


class TestMetricsRegistry:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        reg = MetricsRegistry()
        for _ in range(50):
            reg.counter("pab_test_total").inc(float(rng.integers(1, 4)))
            reg.gauge("pab_test_gauge").set(float(rng.random()))
            reg.histogram("pab_test_seconds").observe(float(rng.random()))
        twin = MetricsRegistry()
        assert_exact_round_trip(reg, twin)


class TestRetryRngStream:
    """The jitter stream resumes exactly where it left off."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backoff_sequence_continues(self, seed):
        policy = RetryPolicy(
            max_retries=2, base_backoff_s=0.1, jitter=0.5, seed=seed
        )
        mac = PollingMac(transact=lambda q: None, retry_policy=policy)
        for i in range(17):  # advance the stream an odd amount
            policy.backoff_s(i % 3)
        state = json.loads(canon(mac.snapshot_state()))
        expected = [policy.backoff_s(i % 3) for i in range(10)]
        mac.restore_state(state)
        assert [policy.backoff_s(i % 3) for i in range(10)] == expected

    def test_an_rng_without_a_stream_position_is_refused(self):
        """Saving ``None`` for it would let a resume diverge silently."""
        mac = PollingMac(
            transact=lambda q: None,
            retry_policy=RetryPolicy(rng=random.Random(0)),
        )
        with pytest.raises(TypeError, match="RetryPolicy.rng"):
            mac.snapshot_state()


class TestEnergyLedger:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_harness_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        harness = NodeEnergyHarness(5, poll_period_s=0.5, dt_s=0.05)
        for t in range(12):
            harness.on_poll_round(
                float(t), polled=bool(rng.random() < 0.8),
                success=bool(rng.random() < 0.7),
            )
        twin = NodeEnergyHarness(5, poll_period_s=0.5, dt_s=0.05)
        assert_exact_round_trip(harness, twin)
        # The SoC series and round records are history, not state:
        # replayed through JSON, they must come back exactly too.
        rounds, soc_samples = json.loads(canon(harness.ledger.history_since()))
        twin.ledger.round_history.extend(rounds)
        twin.ledger.replay_soc_samples(soc_samples)
        assert canon(twin.ledger.history_since()) == canon(
            harness.ledger.history_since()
        )
        assert canon(twin.summary()) == canon(harness.summary())

    def test_totals_ignore_bucket_order(self):
        """Regression: duty cycle / flow totals are fsum'd, so the
        sorted bucket order a restore rebuilds cannot shift rounding."""
        a = EnergyLedger(1)
        # Visit states in non-alphabetical order with awkward floats.
        for state, dt in [
            (PowerState.IDLE, 0.7), (PowerState.BACKSCATTER, 0.2),
            (PowerState.DECODING, 0.1), (PowerState.IDLE, 0.1 + 1e-16),
        ] * 30:
            a.state = state
            a.state_seconds[state] += dt
        b = EnergyLedger(1)
        b.restore_state(json.loads(canon(a.snapshot_state())))
        assert canon(a.duty_cycle()) == canon(b.duty_cycle())

    def test_capacitor_snapshot_requires_capacitor(self):
        harness = NodeEnergyHarness(2)
        state = harness.ledger.snapshot_state()
        bare = EnergyLedger(2)  # no capacitor attached
        with pytest.raises(ValueError, match="no capacitor"):
            bare.restore_state(state)


class TestInjectorChains:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_gilbert_elliott_round_trip(self, seed):
        def ok(query):
            return type("R", (), {"success": True})()

        a = GilbertElliottInjector(
            ok, p_good_to_bad=0.3, p_bad_to_good=0.3, bad_loss=0.9, seed=seed
        )
        for _ in range(21):
            a(object())
        b = GilbertElliottInjector(
            ok, p_good_to_bad=0.3, p_bad_to_good=0.3, bad_loss=0.9, seed=seed
        )
        assert_exact_round_trip(a, b)
        # Future loss pattern identical.
        for _ in range(30):
            assert a(object()).success == b(object()).success

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cls, kwargs", [
        (BrownoutInjector, {"prob": 0.3, "dark_for": 3}),
        (NoiseBurstInjector, {"burst_prob": 0.2, "duration": 3}),
    ])
    def test_window_injector_round_trip(self, seed, cls, kwargs):
        def ok(query):
            return type("R", (), {"success": True})()

        a = cls(ok, seed=seed, **kwargs)
        for _ in range(13 + seed % 7):
            a(object())
        b = cls(ok, seed=seed + 1, **kwargs)
        assert_exact_round_trip(a, b)
        for _ in range(30):
            assert a(object()).success == b(object()).success


class TestDetectors:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cls", [EwmaDetector, CusumDetector])
    def test_round_trip(self, seed, cls):
        rng = np.random.default_rng(seed)
        a, b = cls(warmup=4), cls(warmup=4)
        for _ in range(20):
            a.observe(float(rng.normal()))
        assert_exact_round_trip(a, b)
        for x in rng.normal(3.0, 1.0, size=20):
            assert a.observe(float(x)) == b.observe(float(x))


class TestWaveformSide:
    """The node, its firmware and sensors, and the link's noise stream."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_noise_stream(self, seed):
        a = AmbientNoiseModel(seed=seed)
        a.generate(100 + seed, 96_000.0)
        b = AmbientNoiseModel(seed=seed + 1)
        assert_exact_round_trip(a, b)
        assert a.generate(64, 96_000.0).tobytes() == (
            b.generate(64, 96_000.0).tobytes()
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adc_and_ph_sensor(self, seed):
        a = PhSensor(adc=SarADC(seed=seed))
        for _ in range(1 + seed % 5):
            a.read_ph(7.0)
        b = PhSensor(adc=SarADC(seed=seed + 1))
        assert_exact_round_trip(a.adc, SarADC(seed=seed + 2))
        assert_exact_round_trip(a, b)
        assert [a.read_ph(6.5) for _ in range(5)] == [
            b.read_ph(6.5) for _ in range(5)
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_firmware_config(self, seed):
        a = FirmwareConfig(address=NodeAddress(7))
        a.bitrate, a.resonance_mode = [100.0, 2_000.0][seed % 2], seed % 3
        assert_exact_round_trip(a, FirmwareConfig(address=NodeAddress(7)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_node_and_firmware(self, seed):
        rng = np.random.default_rng(seed)

        def node():
            n = PABNode(address=7, channel_frequencies_hz=(15e3, 14e3))
            n.force_power(True)
            return n

        a = node()
        for _ in range(8):
            command = [Command.READ_PH, Command.READ_TEMPERATURE, Command.PING][
                int(rng.integers(3))
            ]
            a.respond(Query(destination=7, command=command))
        a.respond(Query(
            destination=7, command=Command.SET_BITRATE,
            argument=bitrate_code(200.0),
        ))
        a.respond(Query(
            destination=7, command=Command.SET_RESONANCE_MODE, argument=1,
        ))
        b = PABNode(address=7, channel_frequencies_hz=(15e3, 14e3))
        assert_exact_round_trip(a.firmware, node().firmware)
        assert_exact_round_trip(a, b)
        assert b.is_powered and b.firmware.config.resonance_mode == 1
        query = Query(destination=7, command=Command.READ_PH)
        for _ in range(3):
            assert a.respond(query) == b.respond(query)

    def test_link_next_exchange_matches(self):
        def link():
            transducer = Transducer.from_cylinder_design()
            f = transducer.resonance_hz
            return BackscatterLink(
                POOL_A,
                Projector(transducer=transducer, drive_voltage_v=60.0, carrier_hz=f),
                Position(0.5, 1.5, 0.6),
                PABNode(address=7, channel_frequencies_hz=(f,), bitrate=2_000.0),
                Position(0.97, 1.6, 0.62),
                Position(1.0, 0.8, 0.6),
                noise=AmbientNoiseModel(flat_level_db=35.0, seed=5),
            )

        a, b = link(), link()
        query = Query(destination=7, command=Command.READ_PH)
        for _ in range(2):
            a.run_query(query)
        assert_exact_round_trip(a, b)
        ra, rb = a.run_query(query), b.run_query(query)
        assert ra.success
        assert (ra.success, ra.demod.packet.payload, ra.snr_db) == (
            rb.success, rb.demod.packet.payload, rb.snr_db
        )
