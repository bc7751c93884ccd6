"""MAC hardening tests: exception containment, backoff, stats edge cases."""

import math

import pytest

from repro.faults import EventLog
from repro.net import Command, MacStats, PollingMac, Query, RetryPolicy


PING = Query(destination=1, command=Command.PING)


class FakeResult:
    def __init__(self, success):
        self.success = success


def always_fail(query):
    return FakeResult(False)


def always_succeed(query):
    return FakeResult(True)


class TestExceptionContainment:
    def test_exception_is_a_failed_attempt(self):
        def boom(query):
            raise RuntimeError("modem fell over")

        mac = PollingMac(transact=boom, max_retries=2)
        result = mac.poll(PING)
        assert result is None
        assert mac.stats.attempts == 3
        assert mac.stats.retries == 2
        assert mac.stats.exceptions == 3
        assert mac.stats.successes == 0
        assert isinstance(mac.last_exception, RuntimeError)

    def test_counters_stay_consistent_across_mixed_outcomes(self):
        outcomes = iter(["raise", "fail", "ok"])

        def flaky(query):
            outcome = next(outcomes)
            if outcome == "raise":
                raise OSError("transient")
            return FakeResult(outcome == "ok")

        mac = PollingMac(transact=flaky, max_retries=2)
        result = mac.poll(PING)
        assert result.success
        assert mac.stats.attempts == 3
        assert mac.stats.retries == 2
        assert mac.stats.exceptions == 1
        assert mac.stats.successes == 1
        # Airtime was charged for every attempt, including the raising one.
        assert mac.stats.airtime_s == pytest.approx(3 * 0.3)

    def test_exception_recovery_next_poll(self):
        calls = {"n": 0}

        def first_raises(query):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("one-off")
            return FakeResult(True)

        mac = PollingMac(transact=first_raises, max_retries=1)
        assert mac.poll(PING).success
        assert mac.poll(PING).success
        assert mac.last_exception is None  # cleared per poll


class TestResultShapeEdgeCases:
    def test_result_missing_success_attribute(self):
        mac = PollingMac(transact=lambda q: object(), max_retries=1)
        result = mac.poll(PING)
        assert result is not None
        assert mac.stats.successes == 0
        assert mac.stats.attempts == 2

    def test_result_missing_demod(self):
        mac = PollingMac(transact=always_succeed, max_retries=0)
        assert mac.poll(PING).success
        assert mac.stats.successes == 1
        assert mac.stats.payload_bits_delivered == 0

    def test_demod_packet_without_payload_attribute(self):
        class R:
            success = True

            class demod:
                packet = b"\x00\x01"  # raw bytes, not a Packet

        mac = PollingMac(transact=lambda q: R(), max_retries=0)
        mac.poll(PING)
        assert mac.stats.payload_bits_delivered == 0


class TestRetryBounds:
    def test_zero_retries(self):
        mac = PollingMac(transact=always_fail, max_retries=0)
        result = mac.poll(PING)
        assert not result.success
        assert mac.stats.attempts == 1
        assert mac.stats.retries == 0
        assert mac.stats.delivery_ratio == 0.0

    def test_all_attempts_fail(self):
        mac = PollingMac(transact=always_fail, max_retries=3)
        mac.poll(PING)
        assert mac.stats.attempts == 4
        assert mac.stats.retries == 3
        assert mac.stats.successes == 0
        assert mac.stats.delivery_ratio == 0.0

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            PollingMac(transact=always_fail, max_retries=-1)


class TestRetryPolicy:
    def test_backoff_sequence_no_jitter(self):
        policy = RetryPolicy(
            max_retries=3, base_backoff_s=0.1, multiplier=2.0, jitter=0.0
        )
        assert [policy.backoff_s(i) for i in range(3)] == pytest.approx(
            [0.1, 0.2, 0.4]
        )

    def test_backoff_ceiling(self):
        policy = RetryPolicy(
            base_backoff_s=1.0, multiplier=10.0, jitter=0.0, max_backoff_s=3.0
        )
        assert policy.backoff_s(5) == 3.0

    def test_jitter_is_seeded(self):
        a = [RetryPolicy(jitter=0.5, seed=42).backoff_s(i) for i in range(5)]
        b = [RetryPolicy(jitter=0.5, seed=42).backoff_s(i) for i in range(5)]
        assert a == b

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_backoff_s=1.0, multiplier=1.0, jitter=0.25, seed=0)
        for i in range(100):
            assert 0.75 <= policy.backoff_s(0) <= 1.25

    def test_mac_accounts_backoff_time(self):
        policy = RetryPolicy(
            max_retries=3, base_backoff_s=0.1, multiplier=2.0, jitter=0.0
        )
        mac = PollingMac(transact=always_fail, retry_policy=policy)
        mac.poll(PING)
        assert mac.stats.backoff_s == pytest.approx(0.1 + 0.2 + 0.4)
        assert mac.stats.retries == 3

    def test_policy_overrides_max_retries(self):
        policy = RetryPolicy(max_retries=1, base_backoff_s=0.0, jitter=0.0)
        mac = PollingMac(transact=always_fail, max_retries=5, retry_policy=policy)
        mac.poll(PING)
        assert mac.stats.attempts == 2

    def test_timeout_budget_stops_retrying(self):
        # Each attempt burns 0.3 s airtime; backoff is 0.5 s flat.  After
        # attempt 1 (0.3 s) + wait (0.5 s) + attempt 2 (0.3 s) the next
        # wait would blow the 1.2 s budget.
        policy = RetryPolicy(
            max_retries=10,
            base_backoff_s=0.5,
            multiplier=1.0,
            jitter=0.0,
            timeout_budget_s=1.2,
        )
        log = EventLog()
        mac = PollingMac(transact=always_fail, retry_policy=policy, log=log, node=4)
        mac.poll(PING)
        assert mac.stats.attempts == 2
        assert len(log.filter(node=4, kind="give_up")) == 1

    def test_sleep_callable_invoked(self):
        waits = []
        policy = RetryPolicy(max_retries=2, base_backoff_s=0.1, jitter=0.0)
        mac = PollingMac(transact=always_fail, retry_policy=policy, sleep=waits.append)
        mac.poll(PING)
        assert waits == pytest.approx([0.1, 0.2])

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_budget_s=0.0)

    def test_events_logged(self):
        policy = RetryPolicy(max_retries=1, base_backoff_s=0.1, jitter=0.0)
        log = EventLog()

        def boom(query):
            raise RuntimeError("x")

        mac = PollingMac(transact=boom, retry_policy=policy, log=log, node=2)
        mac.poll(PING)
        assert len(log.filter(node=2, kind="exception")) == 2
        assert len(log.filter(node=2, kind="retry")) == 1
        assert len(log.filter(node=2, kind="backoff")) == 1


class TestRetryPolicyForNode:
    def test_seeded_streams_are_per_node_deterministic(self):
        policy = RetryPolicy(base_backoff_s=0.1, jitter=0.5, seed=42)
        a1 = [policy.for_node(3).backoff_s(i) for i in range(4)]
        a2 = [policy.for_node(3).backoff_s(i) for i in range(4)]
        b = [policy.for_node(4).backoff_s(i) for i in range(4)]
        assert a1 == a2
        assert a1 != b

    def test_unseeded_policy_returned_unchanged(self):
        policy = RetryPolicy(base_backoff_s=0.1, jitter=0.5)
        assert policy.for_node(3) is policy


class TestMacStats:
    def test_merge_sums_every_counter(self):
        a = MacStats(
            attempts=10,
            successes=8,
            retries=2,
            payload_bits_delivered=640,
            airtime_s=3.0,
            backoff_s=0.5,
            exceptions=1,
        )
        b = MacStats(
            attempts=4,
            successes=1,
            retries=3,
            payload_bits_delivered=80,
            airtime_s=1.2,
            backoff_s=0.7,
            exceptions=2,
        )
        merged = a.merge(b)
        assert merged.attempts == 14
        assert merged.successes == 9
        assert merged.retries == 5
        assert merged.payload_bits_delivered == 720
        assert merged.airtime_s == pytest.approx(4.2)
        assert merged.backoff_s == pytest.approx(1.2)
        assert merged.exceptions == 3
        # Operands untouched.
        assert a.attempts == 10 and b.attempts == 4

    def test_merge_multiple(self):
        parts = [MacStats(attempts=i, successes=i) for i in (1, 2, 3)]
        merged = parts[0].merge(*parts[1:])
        assert merged.attempts == 6

    def test_merge_is_order_independent(self):
        a = MacStats(attempts=5, successes=4, retries=1,
                     payload_bits_delivered=64, airtime_s=1.5,
                     backoff_s=0.2, exceptions=0)
        b = MacStats(attempts=3, successes=1, retries=2,
                     payload_bits_delivered=16, airtime_s=0.9,
                     backoff_s=0.4, exceptions=1)
        c = MacStats(attempts=1, successes=1, retries=0,
                     payload_bits_delivered=8, airtime_s=0.3,
                     backoff_s=0.0, exceptions=0)
        assert a.merge(b, c) == c.merge(b, a)
        # Operands untouched.
        assert a.attempts == 5 and b.attempts == 3

    def test_merged_delivery_ratio(self):
        a = MacStats(attempts=5, successes=4, retries=1)  # 4 distinct
        b = MacStats(attempts=3, successes=1, retries=2)  # 1 distinct
        assert a.merge(b).delivery_ratio == pytest.approx(5 / 5)

    def test_delivery_ratio_all_retries(self):
        # Degenerate: attempts == retries (no distinct queries).
        assert MacStats(attempts=3, retries=3, successes=1).delivery_ratio == 0.0

    def test_delivery_ratio_empty(self):
        assert MacStats().delivery_ratio == 0.0

    def test_delivery_ratio_clamped(self):
        # Hand-built inconsistent counters must not report > 1.
        assert MacStats(attempts=2, retries=1, successes=5).delivery_ratio == 1.0

    def test_goodput_zero_airtime(self):
        assert MacStats(payload_bits_delivered=100).goodput_bps == 0.0
        assert not math.isnan(MacStats().goodput_bps)
