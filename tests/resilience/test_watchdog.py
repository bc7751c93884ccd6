"""Watchdog deadlines: stragglers are abandoned, not waited for."""

import threading
import time

import pytest

from repro.net import Command
from repro.resilience import (
    CampaignAbort,
    WatchdogPolicy,
    campaign_digest,
    install_worker_crash,
)
from repro.resilience.watchdog import PollWatchdog, WatchdogTimeout

from .conftest import FlakyNode, build_fleet

pytestmark = pytest.mark.resilience


class TestPolicy:
    def test_deadlines_must_be_positive(self):
        with pytest.raises(ValueError):
            WatchdogPolicy(transaction_deadline_s=0.0)
        with pytest.raises(ValueError):
            WatchdogPolicy(round_deadline_s=-1.0)

    def test_enabled_flag(self):
        assert not WatchdogPolicy().enabled
        assert WatchdogPolicy(transaction_deadline_s=1.0).enabled
        assert WatchdogPolicy(round_deadline_s=1.0).enabled


class TestEngineDeadlines:
    """:class:`PollWatchdog`, the engine that enforces the budgets."""

    def test_transaction_budget_abandons_the_straggler(self):
        engine = PollWatchdog(WatchdogPolicy(transaction_deadline_s=0.05))
        engine.start_round()
        assert engine.run("fast", lambda: "ok") == "ok"
        timeout = engine.run("slow", lambda: time.sleep(0.4) or "late")
        assert isinstance(timeout, WatchdogTimeout)
        assert timeout.key == "slow"
        assert timeout.budget == "transaction"
        assert timeout.deadline_s == 0.05

    def test_round_budget_covers_the_whole_round(self):
        engine = PollWatchdog(WatchdogPolicy(round_deadline_s=0.1))
        engine.start_round()
        ran = []
        a = engine.run("a", lambda: time.sleep(0.25) or "a-done")
        b = engine.run("b", lambda: ran.append("b") or "b-done")
        assert isinstance(a, WatchdogTimeout) and a.budget == "round"
        assert isinstance(b, WatchdogTimeout) and b.budget == "round"
        assert b.deadline_s == 0.1
        # The spent budget starved the second poll: it never started.
        assert ran == []

    def test_no_watchdog_waits_forever(self):
        engine = PollWatchdog(WatchdogPolicy())
        engine.start_round()
        assert engine.run("slow", lambda: time.sleep(0.15) or "done") == "done"

    def test_campaign_continues_after_timeouts(self):
        """The tainted worker is replaced; later polls still run."""
        engine = PollWatchdog(WatchdogPolicy(transaction_deadline_s=0.05))
        engine.start_round()
        first = engine.run("slow", lambda: time.sleep(0.3) or "late")
        assert isinstance(first, WatchdogTimeout)
        engine.start_round()
        assert engine.run("quick", lambda: "ok") == "ok"


class _HangingNode(FlakyNode):
    """Good node whose worker hangs (not fails) on scheduled rounds."""

    def __init__(self, address, seed, hang_rounds, clock, hang_s=0.3):
        super().__init__(address, seed, p_fail=0.0)
        self.hang_rounds = frozenset(hang_rounds)
        self.clock = clock
        self.hang_s = hang_s

    def __call__(self, query):
        if self.clock() in self.hang_rounds:
            time.sleep(self.hang_s)
        return super().__call__(query)


class _ThreadRecorder(FlakyNode):
    """Good node that records which thread ran each of its exchanges."""

    def __init__(self, address, seed, threads):
        super().__init__(address, seed, p_fail=0.0)
        self.threads = threads

    def __call__(self, query):
        self.threads.append(threading.current_thread())
        return super().__call__(query)


def _watchdog_faults(log):
    return [
        e for e in log.events
        if e.kind == "fault"
        and dict(e.detail).get("injector") == "watchdog_timeout"
    ]


class TestReaderIntegration:
    def test_watchdog_breach_is_a_fault_not_a_hang(self):
        reader, log, metrics = build_fleet(
            n=3, p_fail=0.0,
            watchdog=WatchdogPolicy(transaction_deadline_s=0.05),
        )
        slow = 0x21
        reader._macs[slow].transact = _HangingNode(
            slow, 11, hang_rounds=(2,), clock=lambda: reader._round
        )
        report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=5)
        breaches = [
            e for e in log.events
            if e.kind == "fault"
            and dict(e.detail).get("injector") == "watchdog_timeout"
        ]
        assert breaches and breaches[0].node == slow
        assert metrics.counter(
            "pab_watchdog_timeouts_total", node=slow
        ).value >= 1
        assert any(
            pm.fault == "watchdog_timeout" and pm.node == slow
            for pm in reader.postmortems
        )
        # The campaign completed all rounds and reported every node.
        assert report["rounds"] == 5
        # The breach fed the health machine and the shard books (even
        # though later clean rounds let the node recover).
        assert reader._shard_crashes[slow] >= 1
        assert report["shards"]["crashed_rounds"][slow] >= 1

    def test_transaction_budget_books_only_the_straggler(self):
        reader, log, _ = build_fleet(
            n=3, p_fail=0.0,
            watchdog=WatchdogPolicy(transaction_deadline_s=0.2),
        )
        slow = 0x20
        reader._macs[slow].transact = _HangingNode(
            slow, 11, hang_rounds=(1,), clock=lambda: reader._round, hang_s=1.0
        )
        reader.poll_round(Command.READ_TEMPERATURE)
        out = reader.poll_round(Command.READ_TEMPERATURE)
        (breach,) = _watchdog_faults(log)
        assert (breach.t, breach.node) == (1.0, slow)
        assert dict(breach.detail)["budget"] == "transaction"
        assert dict(breach.detail)["deadline_s"] == "0.2"
        # Everyone after the straggler was still polled that round.
        assert out[slow] is None
        assert out[0x21] is not None and out[0x22] is not None
        report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=4)
        assert report["rounds"] == 4

    def test_spent_round_budget_books_unpolled_nodes(self):
        calls = {}
        reader, log, _ = build_fleet(
            n=3, p_fail=0.0, watchdog=WatchdogPolicy(round_deadline_s=0.3),
        )
        first = 0x20
        reader._macs[first].transact = _HangingNode(
            first, 11, hang_rounds=(0,), clock=lambda: reader._round, hang_s=1.0
        )
        for addr in (0x21, 0x22):
            calls[addr] = []
            reader._macs[addr].transact = _ThreadRecorder(addr, 11, calls[addr])
        out = reader.poll_round(Command.READ_TEMPERATURE)
        assert out == {0x20: None, 0x21: None, 0x22: None}
        breaches = _watchdog_faults(log)
        assert [e.node for e in breaches] == [0x20, 0x21, 0x22]
        assert {dict(e.detail)["budget"] for e in breaches} == {"round"}
        assert {dict(e.detail)["deadline_s"] for e in breaches} == {"0.3"}
        # The nodes behind the straggler were booked without a poll.
        assert calls == {0x21: [], 0x22: []}
        # The next round has a fresh budget: everyone is polled again.
        reader.poll_round(Command.READ_TEMPERATURE)
        assert len(calls[0x21]) == 1 and len(calls[0x22]) == 1

    def test_campaign_abort_inside_a_watched_poll_escapes(self):
        reader, _, _ = build_fleet(
            n=3, p_fail=0.0,
            watchdog=WatchdogPolicy(transaction_deadline_s=5.0),
        )
        install_worker_crash(reader, 0x21, rounds=(2,), fatal=True)
        with pytest.raises(CampaignAbort):
            reader.run_campaign(Command.READ_TEMPERATURE, rounds=5)
        assert reader._round == 2

    @pytest.mark.parametrize("watchdog", [None, WatchdogPolicy()])
    def test_without_watchdog_polls_run_on_the_calling_thread(self, watchdog):
        threads = []
        reader, _, _ = build_fleet(n=2, p_fail=0.0, watchdog=watchdog)
        for addr in reader._macs:
            reader._macs[addr].transact = _ThreadRecorder(addr, 11, threads)
        reader.run_campaign(Command.READ_TEMPERATURE, rounds=3)
        assert len(threads) == 6
        assert set(threads) == {threading.current_thread()}

    def test_watched_polls_share_one_worker_thread(self):
        threads = []
        reader, _, _ = build_fleet(
            n=2, p_fail=0.0,
            watchdog=WatchdogPolicy(transaction_deadline_s=5.0),
        )
        for addr in reader._macs:
            reader._macs[addr].transact = _ThreadRecorder(addr, 11, threads)
        reader.run_campaign(Command.READ_TEMPERATURE, rounds=3)
        assert len(threads) == 6
        (worker,) = set(threads)
        assert worker is not threading.current_thread()

    def test_untripped_watchdog_leaves_the_digest_unchanged(self):
        def digest(**kwargs):
            reader, log, metrics = build_fleet(n=4, seed=5, **kwargs)
            report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=12)
            return campaign_digest(report, log, metrics)

        assert digest(
            watchdog=WatchdogPolicy(transaction_deadline_s=5.0,
                                    round_deadline_s=30.0)
        ) == digest()
