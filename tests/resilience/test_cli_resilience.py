"""CLI drills: kill-resume identity, baseline guards, flag validation."""

import json

import pytest

from repro.cli import _load_bench_baseline, _parse_kill_at, main
from repro.resilience import write_checkpoint

pytestmark = pytest.mark.resilience


class TestParseKillAt:
    def test_decimal(self):
        assert _parse_kill_at("17:3") == (17, 3)

    def test_hex_node(self):
        assert _parse_kill_at("2:0x11") == (2, 17)

    @pytest.mark.parametrize("spec", ["17", "a:b", "1:2:3", ""])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError, match="expected ROUND:NODE"):
            _parse_kill_at(spec)


class TestBenchBaselineGuards:
    """Satellite: --compare fails with one-line errors, not tracebacks."""

    def test_missing_file(self, tmp_path):
        record, problem = _load_bench_baseline(tmp_path / "nope.json", False)
        assert record is None
        assert "not found" in problem

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        record, problem = _load_bench_baseline(path, False)
        assert record is None
        assert "not valid JSON" in problem

    def test_no_records_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"something": []}))
        record, problem = _load_bench_baseline(path, False)
        assert record is None
        assert "no 'records' list" in problem

    def test_no_matching_smoke_flag(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps({"records": [{"schema": 1, "smoke": False}]})
        )
        record, problem = _load_bench_baseline(path, True)
        assert record is None
        assert "smoke=True" in problem

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps({"records": [{"schema": 99, "smoke": False}]})
        )
        record, problem = _load_bench_baseline(path, False)
        assert record is None
        assert "schema 99" in problem and "not supported" in problem

    def test_good_baseline_loads(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps({
                "records": [
                    {"schema": 1, "smoke": False, "sequential_s": 1.0},
                    {"schema": 1, "smoke": True, "sequential_s": 0.1},
                ]
            })
        )
        record, problem = _load_bench_baseline(path, False)
        assert problem is None
        assert record["sequential_s"] == 1.0


class TestCheckpointFlags:
    def test_checkpoint_every_requires_dir(self, capsys):
        assert main(
            ["fleet-report", "--nodes", "3", "--rounds", "4",
             "--checkpoint-every", "2"]
        ) == 2
        assert "--checkpoint-dir" in capsys.readouterr().out

    def test_resume_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope.json")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_resume_unknown_builder_fails_cleanly(self, tmp_path, capsys):
        path = write_checkpoint(
            tmp_path / "ck.json", {"round": 1}, round=1,
            campaign={"builder": "hand-rolled"},
        )
        assert main(["resume", str(path)]) == 1
        assert "chaos-fleet" in capsys.readouterr().out


    def test_resume_past_the_requested_rounds_fails_cleanly(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        assert main([
            "fleet-report", "--nodes", "3", "--rounds", "8", "--seed", "5",
            "--checkpoint-every", "5", "--checkpoint-dir", str(ckpt),
        ]) == 0
        capsys.readouterr()
        digest = tmp_path / "resumed.digest"
        rc = main([
            "resume", str(ckpt / "checkpoint-000005.json"), "--rounds", "2",
            "--digest-out", str(digest),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
        assert len(fails) == 1 and "round 5" in fails[0]
        assert "campaign digest" not in out
        assert not digest.exists()


class TestKillResumeDrill:
    """The acceptance drill, end to end through the CLI."""

    def test_kill_resume_digest_identity(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        killed = tmp_path / "killed.digest"
        resumed = tmp_path / "resumed.digest"
        clean = tmp_path / "clean.digest"

        rc = main([
            "fleet-report", "--nodes", "4", "--rounds", "10", "--seed", "3",
            "--checkpoint-every", "3", "--checkpoint-dir", str(ckpt),
            "--kill-at", "7:1", "--digest-out", str(killed),
        ])
        out = capsys.readouterr().out
        assert rc == 3
        assert "campaign aborted" in out
        assert "checkpoint-000006.json" in out
        assert not killed.exists()  # the killed run never got a digest

        rc = main([
            "resume", str(ckpt / "checkpoint-000006.json"),
            "--digest-out", str(resumed),
        ])
        assert rc == 0
        assert "resuming" in capsys.readouterr().out

        rc = main([
            "fleet-report", "--nodes", "4", "--rounds", "10", "--seed", "3",
            "--digest-out", str(clean),
        ])
        assert rc == 0
        capsys.readouterr()

        assert resumed.read_text() == clean.read_text()

    def test_contained_kill_does_not_abort(self, tmp_path, capsys):
        """bench-style containment at the fleet-report layer: resume
        rounds can also be overridden explicitly."""
        ckpt = tmp_path / "ckpt"
        main([
            "fleet-report", "--nodes", "3", "--rounds", "8", "--seed", "5",
            "--checkpoint-every", "4", "--checkpoint-dir", str(ckpt),
            "--kill-at", "6:1",
        ])
        capsys.readouterr()
        rc = main([
            "resume", str(ckpt / "checkpoint-000004.json"),
            "--rounds", "8",
        ])
        assert rc == 0
        assert "campaign digest" in capsys.readouterr().out
