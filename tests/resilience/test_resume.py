"""Checkpoint/resume: byte-identical continuation, proven by digest.

The acceptance criterion: a campaign interrupted at *any* round and
resumed from its latest checkpoint yields a report, event log, and
digest byte-identical to the uninterrupted run.
"""

import json
import math
import struct

import pytest

from repro.cli import main
from repro.net import Command, ReaderController
from repro.obs.ledger import EnergyLedger
from repro.obs.stream import event_from_line, event_to_line
from repro.resilience import (
    HISTORY_NAME,
    CampaignAbort,
    CheckpointError,
    campaign_digest,
    checkpoint_path,
    install_worker_crash,
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)

from .conftest import FlakyNode, build_fleet

pytestmark = pytest.mark.resilience

ROUNDS = 12


def run_clean(seed=11, rounds=ROUNDS):
    reader, log, metrics = build_fleet(seed=seed)
    report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=rounds)
    return campaign_digest(report, log, metrics)


class TestResumeIdentity:
    def test_resume_from_every_checkpoint(self, tmp_path):
        """Interrupt anywhere; the continuation is byte-identical."""
        clean = run_clean()
        reader, log, metrics = build_fleet()
        reader.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS,
            checkpoint_every=1, checkpoint_dir=tmp_path,
        )
        written = sorted(tmp_path.glob("checkpoint-*.json"))
        assert len(written) == ROUNDS - 1  # none after the final round
        for path in written:
            twin, tlog, tmetrics = build_fleet()
            report = twin.run_campaign(
                Command.READ_TEMPERATURE, rounds=ROUNDS, resume_from=path
            )
            assert campaign_digest(report, tlog, tmetrics) == clean, path.name

    def test_resume_accepts_a_loaded_document(self, tmp_path):
        clean = run_clean()
        reader, _, _ = build_fleet()
        reader.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS,
            checkpoint_every=5, checkpoint_dir=tmp_path,
        )
        doc = read_checkpoint(checkpoint_path(tmp_path, 5))
        twin, tlog, tmetrics = build_fleet()
        report = twin.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS, resume_from=doc
        )
        assert campaign_digest(report, tlog, tmetrics) == clean

    def test_fatal_kill_then_resume(self, tmp_path):
        """The CampaignAbort drill: SIGKILL-equivalent, then continue."""
        clean = run_clean()
        reader, _, _ = build_fleet()
        install_worker_crash(reader, 0x21, rounds=(8,), fatal=True)
        with pytest.raises(CampaignAbort):
            reader.run_campaign(
                Command.READ_TEMPERATURE, rounds=ROUNDS,
                checkpoint_every=3, checkpoint_dir=tmp_path,
            )
        latest = latest_checkpoint(tmp_path)
        assert latest is not None and latest.name == "checkpoint-000006.json"
        twin, tlog, tmetrics = build_fleet()
        report = twin.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS, resume_from=latest
        )
        assert campaign_digest(report, tlog, tmetrics) == clean


class TestGuards:
    def test_checkpoint_every_needs_a_directory(self):
        reader, _, _ = build_fleet()
        with pytest.raises(ValueError, match="checkpoint_dir"):
            reader.run_campaign(
                Command.READ_TEMPERATURE, rounds=3, checkpoint_every=1
            )

    def test_negative_checkpoint_every_refused(self):
        reader, _, _ = build_fleet()
        with pytest.raises(ValueError):
            reader.run_campaign(
                Command.READ_TEMPERATURE, rounds=3, checkpoint_every=-1
            )

    def test_fleet_mismatch_refused(self, tmp_path):
        reader, _, _ = build_fleet(n=4)
        reader.run_campaign(
            Command.READ_TEMPERATURE, rounds=6,
            checkpoint_every=3, checkpoint_dir=tmp_path,
        )
        other, _, _ = build_fleet(n=3)
        with pytest.raises(ValueError, match="checkpoint covers nodes"):
            other.run_campaign(
                Command.READ_TEMPERATURE, rounds=6,
                resume_from=checkpoint_path(tmp_path, 3),
            )

    def test_tampered_checkpoint_refused(self, tmp_path):
        from repro.resilience import CheckpointError

        reader, _, _ = build_fleet()
        reader.run_campaign(
            Command.READ_TEMPERATURE, rounds=6,
            checkpoint_every=3, checkpoint_dir=tmp_path,
        )
        path = checkpoint_path(tmp_path, 3)
        doc = json.loads(path.read_text())
        doc["state"]["round"] = 0
        path.write_text(json.dumps(doc))
        twin, _, _ = build_fleet()
        with pytest.raises(CheckpointError, match="integrity"):
            twin.run_campaign(
                Command.READ_TEMPERATURE, rounds=6, resume_from=path
            )

    def test_stateful_snapshot_needs_restorable_transport(self, tmp_path):
        """A checkpoint with transport state cannot silently restore
        into a fleet whose transports dropped the protocol."""
        reader, _, _ = build_fleet()
        reader.run_campaign(
            Command.READ_TEMPERATURE, rounds=6,
            checkpoint_every=3, checkpoint_dir=tmp_path,
        )
        twin, _, _ = build_fleet()
        for mac in twin._macs.values():
            inner = mac.transact
            mac.transact = lambda q, _inner=inner: _inner(q)  # opaque wrapper
        with pytest.raises(ValueError, match="transport"):
            twin.run_campaign(
                Command.READ_TEMPERATURE, rounds=6,
                resume_from=checkpoint_path(tmp_path, 3),
            )


class TestSnapshotShape:
    def test_snapshot_is_checkpoint_serialisable(self, tmp_path):
        reader, _, _ = build_fleet()
        reader.run_campaign(Command.READ_TEMPERATURE, rounds=4)
        state = reader.snapshot_state()
        path = write_checkpoint(tmp_path / "ck.json", state, round=4)
        doc = read_checkpoint(path)
        assert doc["state"] == json.loads(json.dumps(state, sort_keys=True))

    def test_snapshot_restore_snapshot_is_exact(self):
        reader, _, _ = build_fleet()
        reader.run_campaign(Command.READ_TEMPERATURE, rounds=5)
        state = json.loads(json.dumps(reader.snapshot_state(), sort_keys=True))
        history = [
            event_from_line(event_to_line(row)) for row in reader.history_rows()
        ]
        twin, _, _ = build_fleet()
        twin.restore(state, history)
        assert json.dumps(twin.snapshot_state(), sort_keys=True) == json.dumps(
            reader.snapshot_state(), sort_keys=True
        )
        assert [event_to_line(r) for r in twin.history_rows()] == [
            event_to_line(r) for r in reader.history_rows()
        ]


class TestHistoryFile:
    """Checkpoints hold state; the history lives in one append-only file."""

    def test_resume_keeps_checkpointing_into_the_same_directory(self, tmp_path):
        clean = run_clean()
        reader, _, _ = build_fleet()
        reader.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS,
            checkpoint_every=3, checkpoint_dir=tmp_path,
        )
        history = tmp_path / HISTORY_NAME
        first = history.read_bytes()
        prefix = read_checkpoint(checkpoint_path(tmp_path, 3))["state"]["history"]

        twin, tlog, tmetrics = build_fleet()
        report = twin.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS,
            resume_from=checkpoint_path(tmp_path, 3),
            checkpoint_every=4, checkpoint_dir=tmp_path,
        )
        assert campaign_digest(report, tlog, tmetrics) == clean
        after = history.read_bytes()
        assert after[:prefix["bytes"]] == first[:prefix["bytes"]]
        # Truncated to checkpoint 3's prefix, then appended at 4 and 8:
        # every round once, and the numbering continues the prefix's.
        rows = [event_from_line(line) for line in after.decode().splitlines()]
        assert [r["seq"] for r in rows] == list(range(len(rows)))
        assert [r["t"] for r in rows if r["kind"] == "round"] == [
            float(t) for t in range(8)
        ]
        # The first run's later checkpoints point at rows that are gone.
        for r in (6, 9):
            with pytest.raises(CheckpointError):
                read_checkpoint(checkpoint_path(tmp_path, r))
        for r in (4, 8):
            third, log3, metrics3 = build_fleet()
            report = third.run_campaign(
                Command.READ_TEMPERATURE, rounds=ROUNDS,
                resume_from=checkpoint_path(tmp_path, r),
            )
            assert campaign_digest(report, log3, metrics3) == clean

    def test_resume_into_another_directory_writes_the_whole_history(
        self, tmp_path
    ):
        clean = run_clean()
        reader, _, _ = build_fleet()
        reader.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS,
            checkpoint_every=5, checkpoint_dir=tmp_path / "a",
        )
        twin, _, _ = build_fleet()
        twin.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS,
            resume_from=checkpoint_path(tmp_path / "a", 5),
            checkpoint_every=4, checkpoint_dir=tmp_path / "b",
        )
        third, tlog, tmetrics = build_fleet()
        report = third.run_campaign(
            Command.READ_TEMPERATURE, rounds=ROUNDS,
            resume_from=checkpoint_path(tmp_path / "b", 8),
        )
        assert campaign_digest(report, tlog, tmetrics) == clean

    def test_resume_past_the_campaign_is_refused(self, tmp_path):
        reader, _, _ = build_fleet()
        reader.run_campaign(
            Command.READ_TEMPERATURE, rounds=6,
            checkpoint_every=5, checkpoint_dir=tmp_path,
        )
        twin, _, _ = build_fleet()
        with pytest.raises(ValueError, match="past the campaign"):
            twin.run_campaign(
                Command.READ_TEMPERATURE, rounds=2,
                resume_from=checkpoint_path(tmp_path, 5),
            )
        assert twin._round == 0  # refused before restoring anything

    def test_chaos_state_stays_flat_while_history_grows(self, tmp_path, capsys):
        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "130", "--seed", "3",
            "--window", "20", "--checkpoint-every", "25",
            "--checkpoint-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        early = checkpoint_path(tmp_path, 25)    # the SLO window is full
        late = checkpoint_path(tmp_path, 125)    # 5x later
        size_early, size_late = early.stat().st_size, late.stat().st_size
        assert abs(size_late - size_early) <= 0.10 * size_early
        grown = [
            read_checkpoint(path)["state"]["history"]["bytes"]
            for path in (early, late)
        ]
        assert grown[1] > 3 * grown[0]
        assert (tmp_path / HISTORY_NAME).stat().st_size == grown[1]


class FakeCapacitor:
    """Just enough capacitor for a ledger to attach to; the test drives
    the observer with chosen samples."""

    energy_j = adjusted_j = 0.0
    voltage_v = 2.0
    observer = None

    def snapshot_state(self):
        return {}

    def restore_state(self, state):
        pass


def float_bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class TestSocSeriesReplay:
    def make(self):
        ledger = EnergyLedger(7, max_soc_samples=64).attach(FakeCapacitor())
        reader = ReaderController(
            {7: FlakyNode(7, seed=1, p_fail=0.0)}, ledgers={7: ledger}
        )
        return reader, ledger

    def test_decimating_series_replays_bit_exactly(self, tmp_path):
        reader, ledger = self.make()

        def feed(n, start):
            for i in range(start, start + n):
                v = [-0.0, math.nan, 2.0 + i * 1e-3][i % 3]
                ledger.capacitor.observer(0.01, v, 0, 0, 0, 0)

        feed(100, 0)
        reader.poll_round(Command.PING)
        first = reader.save_checkpoint(tmp_path)
        at_first = ledger.soc_series()
        feed(300, 100)
        reader.poll_round(Command.PING)
        second = reader.save_checkpoint(tmp_path)
        times, volts = ledger.soc_series()
        assert any(math.isnan(v) for v in volts)
        assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in volts)

        doc = read_checkpoint(second)
        samples = [r["data"] for r in doc["history"] if r["kind"] == "soc_samples"]
        assert len(samples) == 2
        assert samples[1]["keep"] > 1  # decimated between the two saves
        assert math.prod(s["keep"] for s in samples) == (
            dict(doc["state"]["ledgers"])[7]["_soc_stride"]
        )
        twin, twin_ledger = self.make()
        twin.restore(doc["state"], doc["history"])
        assert float_bits(twin_ledger.soc_t) == float_bits(times)
        assert float_bits(twin_ledger.soc_v) == float_bits(volts)
        assert twin_ledger.history_mark() == ledger.history_mark()
        # The first checkpoint's prefix replays the series as it was then.
        doc = read_checkpoint(first)
        early, early_ledger = self.make()
        early.restore(doc["state"], doc["history"])
        assert float_bits(early_ledger.soc_t) == float_bits(at_first[0])
        assert float_bits(early_ledger.soc_v) == float_bits(at_first[1])
