"""Seeded fuzz of snapshot -> restore -> snapshot across all state.

Every stateful component a checkpoint carries must restore *exactly*:
the snapshot taken from a restored twin is JSON-equal to the original
snapshot, and the twin's future behaviour (RNG draws, derived reports)
matches the original's.  Exactness matters — json round-trips preserve
int/float identity, so any coercion in a restore path shows up here.
"""

import json

import numpy as np
import pytest

from repro.faults import EventLog, GilbertElliottInjector
from repro.net import HealthPolicy, RetryPolicy
from repro.net.health import NodeHealth
from repro.net.mac import PollingMac
from repro.obs import MetricsRegistry, SLOTracker
from repro.obs.ledger import EnergyLedger, NodeEnergyHarness
from repro.node.power import PowerState

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
