"""Checkpoint/resume: byte-identical continuation, proven by digest.

The acceptance criterion: a campaign interrupted at *any* round and
resumed from its latest checkpoint yields a report, event log, and
digest byte-identical to the uninterrupted run.
"""

import json

import pytest

from repro.net import Command
from repro.resilience import (
    CampaignAbort,
    campaign_digest,
    checkpoint_path,
    install_worker_crash,
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)

from .conftest import build_fleet

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
        state = reader.snapshot()
        path = write_checkpoint(tmp_path / "ck.json", state, round=4)
        doc = read_checkpoint(path)
        assert doc["state"] == json.loads(json.dumps(state, sort_keys=True))

    def test_snapshot_restore_snapshot_is_exact(self):
        reader, _, _ = build_fleet()
        reader.run_campaign(Command.READ_TEMPERATURE, rounds=5)
        state = json.loads(json.dumps(reader.snapshot(), sort_keys=True))
        twin, _, _ = build_fleet()
        twin.restore(state)
        assert json.dumps(twin.snapshot(), sort_keys=True) == json.dumps(
            reader.snapshot(), sort_keys=True
        )
