"""Worker supervision: restarts, containment, quarantine, drills."""

import pytest

from repro.net import Command
from repro.resilience import (
    CampaignAbort,
    SupervisorPolicy,
    WorkerCrash,
    campaign_digest,
    install_worker_crash,
    supervise,
)

from .conftest import build_fleet

pytestmark = pytest.mark.resilience


class TestSuperviseUnit:
    def test_clean_call_passes_through(self):
        result, outcome = supervise(lambda: 42, SupervisorPolicy())
        assert result == 42
        assert outcome.restarts == 0 and not outcome.crashed

    def test_restart_heals_a_transient_crash(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise WorkerCrash("boom")
            return "ok"

        result, outcome = supervise(flaky, SupervisorPolicy(max_restarts=2))
        assert result == "ok"
        assert outcome.restarts == 2 and not outcome.crashed
        assert outcome.error == "boom"

    def test_exhausted_budget_reports_crashed(self):
        def dead():
            raise WorkerCrash("stays down")

        result, outcome = supervise(dead, SupervisorPolicy(max_restarts=2))
        assert result is None
        assert outcome.crashed and outcome.restarts == 2
        assert outcome.error == "stays down"

    def test_backoff_is_exponential_and_capped(self):
        slept = []
        policy = SupervisorPolicy(
            max_restarts=4, restart_backoff_s=0.1, backoff_multiplier=2.0,
            max_backoff_s=0.3, sleep=slept.append,
        )

        def dead():
            raise WorkerCrash()

        _, outcome = supervise(dead, policy)
        assert slept == [0.1, 0.2, 0.3, 0.3]
        assert outcome.backoff_s == pytest.approx(sum(slept))

    def test_ordinary_exceptions_are_not_supervision_business(self):
        def broken():
            raise RuntimeError("logic bug")

        with pytest.raises(RuntimeError, match="logic bug"):
            supervise(broken, SupervisorPolicy())

    def test_campaign_abort_is_not_contained(self):
        def killed():
            raise CampaignAbort("SIGKILL")

        with pytest.raises(CampaignAbort):
            supervise(killed, SupervisorPolicy())


class TestContainedCrashCampaigns:
    def test_single_crash_heals_via_restart(self):
        reader, log, metrics = build_fleet()
        install_worker_crash(reader, 0x21, rounds=(3,), crashes=1)
        report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=8)
        kinds = [e.kind for e in log.events]
        assert "worker_restart" in kinds
        # Restart healed the worker: no worker_crash fault was booked.
        assert not [
            e for e in log.events
            if e.kind == "fault"
            and dict(e.detail).get("injector") == "worker_crash"
        ]
        assert metrics.counter(
            "pab_worker_restarts_total", node=0x21
        ).value >= 1
        assert "shards" not in report  # healed crashes leave no shard record

    def test_exhausted_restarts_surface_not_abort(self):
        reader, log, metrics = build_fleet()
        install_worker_crash(reader, 0x21, rounds=(3,), crashes=3)
        report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=8)
        faults = [
            e for e in log.events
            if e.kind == "fault"
            and dict(e.detail).get("injector") == "worker_crash"
        ]
        assert faults and faults[0].node == 0x21
        assert metrics.counter(
            "pab_worker_crashes_total", node=0x21
        ).value >= 1
        assert any(
            pm.fault == "worker_crash" and pm.node == 0x21
            for pm in reader.postmortems
        )
        assert report["shards"]["crashed_rounds"] == {0x21: 1}
        assert report["shards"]["quarantined"] == []

    def test_repeat_offender_shard_is_quarantined(self):
        reader, log, metrics = build_fleet()
        install_worker_crash(reader, 0x22, rounds=(2, 3, 4), crashes=3)
        report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=9)
        assert 0x22 in reader._quarantined_shards
        assert report["shards"]["quarantined"] == [0x22]
        assert report["shards"]["crashed_rounds"][0x22] == 3
        assert any(e.kind == "shard_quarantine" for e in log.events)
        assert metrics.counter(
            "pab_shard_quarantines_total", node=0x22
        ).value == 1

    def test_crash_streak_resets_on_recovery(self):
        reader, _, _ = build_fleet()
        # Two crashed rounds, a clean gap, two more: never 3 in a row.
        install_worker_crash(reader, 0x22, rounds=(2, 3, 5, 6), crashes=3)
        reader.run_campaign(Command.READ_TEMPERATURE, rounds=9)
        assert 0x22 not in reader._quarantined_shards
        assert reader._shard_crashes[0x22] == 4

    @pytest.mark.parametrize("parallel", [0, "batch"])
    def test_fatal_crash_aborts_in_every_mode(self, parallel):
        reader, _, _ = build_fleet(parallel=parallel)
        install_worker_crash(reader, 0x20, rounds=(2,), fatal=True)
        with pytest.raises(CampaignAbort, match="fatal worker crash"):
            reader.run_campaign(Command.READ_TEMPERATURE, rounds=6)


class TestCrossModeIdentity:
    def test_contained_crash_digest_matches_across_modes(self):
        digests = []
        for parallel in (0, "batch"):
            reader, log, metrics = build_fleet(parallel=parallel)
            install_worker_crash(reader, 0x21, rounds=(3,), crashes=3)
            report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=8)
            digests.append(campaign_digest(report, log, metrics))
        assert digests[0] == digests[1]


class TestInjectorTransparency:
    def test_checkpoints_see_through_the_injector(self):
        reader, _, _ = build_fleet()
        bare = reader._macs[0x20].snapshot_state()
        install_worker_crash(reader, 0x20, rounds=(99,))
        wrapped = reader._macs[0x20].snapshot_state()
        assert wrapped == bare

    def test_unknown_node_is_a_loud_error(self):
        reader, _, _ = build_fleet()
        with pytest.raises(KeyError, match="no node"):
            install_worker_crash(reader, 0x99, rounds=(1,))
