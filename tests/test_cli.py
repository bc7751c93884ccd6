"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("demo", "fig3", "fig7", "fig8", "fig9", "fig11", "envs"):
            args = parser.parse_args([cmd])
            assert callable(args.func)

    def test_demo_options(self):
        args = build_parser().parse_args(
            ["demo", "--distance", "2.0", "--drive", "80", "--bitrate", "500"]
        )
        assert args.distance == 2.0
        assert args.drive == 80.0
        assert args.bitrate == 500.0


class TestCommands:
    def test_envs(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        assert "coastal ocean" in out
        assert "river" in out

    def test_fig11(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "idle" in out
        assert "124.0" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "recto-piezo" in out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--bits", "500"]) == 0
        assert "ber" in capsys.readouterr().out

    def test_demo_success_exit_code(self, capsys):
        assert main(["demo", "--distance", "1.0"]) == 0

    def test_demo_failure_exit_code(self, capsys):
        # Too weak to power up: non-zero exit status.
        assert main(["demo", "--drive", "1.0"]) == 1


class TestTraceCommand:
    def test_trace_to_file_covers_all_stages(self, tmp_path, capsys):
        from repro.core.link import BackscatterLink
        from repro.obs import speedscope_stage_totals

        out = tmp_path / "trace.jsonl"
        flame = tmp_path / "flame" / "trace"
        assert main(["trace", "--out", str(out), "--flame-out", str(flame)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        names = {r["name"] for r in records}
        for stage in BackscatterLink.STAGES:
            assert stage in names
        for r in records:
            assert r["duration_s"] > 0

        collapsed = flame.with_name("trace.collapsed.txt").read_text()
        stacks = [line.rsplit(" ", 1) for line in collapsed.splitlines()]
        assert stacks and all(int(weight) > 0 for _, weight in stacks)
        assert {stack.split(";")[0] for stack, _ in stacks} == {"link.transact"}
        doc = json.loads(flame.with_name("trace.speedscope.json").read_text())
        assert doc["profiles"][0]["unit"] == "seconds"
        durations: dict = {}
        for r in records:
            durations[r["name"]] = durations.get(r["name"], 0.0) + r["duration_s"]
        totals = speedscope_stage_totals(doc)
        assert set(totals) == set(durations)
        for name, total in totals.items():
            assert total == pytest.approx(durations[name], rel=1e-9, abs=1e-12)

    def test_trace_to_stdout_is_jsonl(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        spans = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert any(s["name"] == "link.transact" for s in spans)
        # The aggregate stage table follows the raw spans.
        assert "link.hydrophone_dsp" in out

    def test_trace_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        assert main(["trace", "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "# TYPE pab_link_transactions_total counter" in text
        assert "pab_link_transactions_total 1" in text


class TestOutputControl:
    def test_out_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fig11.csv"
        assert main(["fig11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,power_uw"
        assert len(lines) > 3

    def test_fig9_out_gets_per_pool_suffix(self, tmp_path, capsys):
        out = tmp_path / "fig9.csv"
        assert main(["fig9", "--out", str(out)]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert len(written) == 2
        assert all(name.startswith("fig9_pool") for name in written)

    def test_log_level_warning_silences_status_lines(self, capsys):
        # demo prints only status lines -> nothing at warning level...
        assert main(["--log-level", "warning", "demo"]) == 0
        assert capsys.readouterr().out == ""
        # ...but tables are artifacts and always print.
        assert main(["--log-level", "warning", "fig11"]) == 0
        assert "idle" in capsys.readouterr().out

    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "fig11"]) == 0
        assert "idle" in capsys.readouterr().out

    def test_out_creates_missing_parent_dirs(self, tmp_path, capsys):
        out = tmp_path / "results" / "nested" / "fig11.csv"
        assert main(["fig11", "--out", str(out)]) == 0
        assert out.exists()

    def test_trace_outputs_create_missing_parent_dirs(self, tmp_path, capsys):
        trace = tmp_path / "a" / "trace.jsonl"
        metrics = tmp_path / "b" / "metrics.prom"
        assert main(["trace", "--out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        assert trace.exists()
        assert metrics.exists()


class TestProbeCommand:
    def test_probe_success_lists_taps_and_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "deep" / "taps.npz"
        assert main(["probe", "--out", str(out)]) == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "reply decoded: True" in text
        assert "link.hydrophone_dsp/analysis_segment" in text
        assert "sync.detect_packet" in text

    def test_probe_failure_renders_postmortem(self, tmp_path, capsys):
        pm_out = tmp_path / "deep" / "pm.jsonl"
        assert main(["probe", "--noise-db", "130",
                     "--postmortem-out", str(pm_out)]) == 1
        text = capsys.readouterr().out
        assert "reply decoded: False" in text
        assert "crc_fail at link.hydrophone_dsp" in text
        assert pm_out.exists()
        record = json.loads(pm_out.read_text().splitlines()[0])
        assert record["failure"] == "crc_fail"

    def test_postmortem_renders_jsonl(self, tmp_path, capsys):
        pm_out = tmp_path / "pm.jsonl"
        assert main(["probe", "--noise-db", "130",
                     "--postmortem-out", str(pm_out)]) == 1
        capsys.readouterr()
        assert main(["postmortem", str(pm_out)]) == 0
        text = capsys.readouterr().out
        assert "crc_fail at link.hydrophone_dsp" in text
        assert "verdict:" in text

    def test_postmortem_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["postmortem", str(empty)]) == 1
        assert "no post-mortems" in capsys.readouterr().out


class TestCoverageCommand:
    def test_coverage_map_rendered(self, capsys):
        from repro.cli import main

        assert main(["coverage", "--tank", "a", "--drive", "100",
                     "--resolution", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "Power-up coverage" in out
        assert "#" in out


class TestEnergyCommand:
    def test_energy_books_close_and_exit_zero(self, capsys):
        assert main(["energy", "--rounds", "5"]) == 0
        out = capsys.readouterr().out
        assert "Energy ledger" in out
        assert "conservation_error_pct" in out
        assert "Duty cycle" in out

    def test_energy_out_writes_soc_series(self, tmp_path, capsys):
        path = tmp_path / "sub" / "soc.csv"
        assert main(["energy", "--rounds", "5", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "node,t_s,soc_v"
        assert len(lines) > 1

    def test_energy_weak_field_still_balances(self, capsys):
        # Below the power-up threshold the node never wakes; the books
        # must still close (exit 0) with a cold duty cycle of 1.
        assert main(["energy", "--rounds", "5", "--pressure", "100"]) == 0


class TestFleetReportCommand:
    def test_fleet_report_tables_and_exit_zero(self, capsys):
        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "8", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "Per-node energy balance" in out
        assert "SLO error budgets" in out
        assert "Duty cycle" in out

    def test_fleet_report_artifacts(self, tmp_path, capsys):
        csv = tmp_path / "tl.csv"
        jsonl = tmp_path / "tl.jsonl"
        prom = tmp_path / "m.prom"
        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "8", "--seed", "7",
            "--timeline-out", str(csv), "--timeline-jsonl", str(jsonl),
            "--metrics-out", str(prom),
        ]) == 0
        header = csv.read_text().splitlines()[0]
        assert header.startswith("round,node,polled,delivered")
        records = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert len(records) == 8 * 4
        prom_text = prom.read_text()
        assert "pab_node_energy_joules_total" in prom_text
        assert "pab_slo_error_budget_remaining" in prom_text

    def test_fleet_report_show_timeline(self, capsys):
        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "6", "--seed", "7",
            "--show-timeline", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "burn_delivery" in out

    def test_fleet_report_is_deterministic(self, tmp_path, capsys):
        def run(name):
            path = tmp_path / name
            main([
                "fleet-report", "--nodes", "4", "--rounds", "8",
                "--seed", "7", "--timeline-jsonl", str(path),
            ])
            return path.read_text()

        assert run("a.jsonl") == run("b.jsonl")

    def test_stub_results_share_one_demod_type(self):
        from repro.cli import _build_chaos_fleet
        from repro.faults import EventLog
        from repro.net import Command, Query

        # Nodes 4 and 8 are clean stubs behind no injector.
        transports, _ = _build_chaos_fleet(8, 7, EventLog())
        a = transports[4](Query(destination=4, command=Command.PING))
        b = transports[8](Query(destination=8, command=Command.READ_TEMPERATURE))
        assert a.demod.packet.address == 4 and b.demod.packet.address == 8
        assert type(a.demod) is type(b.demod)


class TestStreamingCli:
    """``--stream-out`` / ``--serve-port`` / ``repro tail`` end to end."""

    def test_stream_out_then_tail_replays_batch_timeline(self, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        batch = tmp_path / "batch.jsonl"
        replay = tmp_path / "replay.jsonl"
        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "8", "--seed", "7",
            "--stream-out", str(stream), "--timeline-jsonl", str(batch),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote telemetry stream" in out
        assert "p99 flush" in out

        assert main([
            "tail", str(stream), "--timeline-jsonl", str(replay),
        ]) == 0
        out = capsys.readouterr().out
        # One monitor line per round, then the summary.
        monitor = [l for l in out.splitlines() if l.startswith("round ")]
        assert len(monitor) == 8
        assert "delivered" in monitor[0] and "soc_min" in monitor[0]
        assert "stream: 8 rounds" in out
        assert "final burn" in out
        # The replayed timeline is byte-identical to the campaign's own.
        assert replay.read_bytes() == batch.read_bytes()

    def test_fresh_campaign_owns_its_stream_file(self, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        args = [
            "fleet-report", "--nodes", "3", "--rounds", "4", "--seed", "2",
            "--stream-out", str(stream),
        ]
        assert main(args) == 0
        first = stream.read_bytes()
        assert main(args) == 0  # second run truncates, not appends
        assert stream.read_bytes() == first
        capsys.readouterr()

    def test_tail_missing_file_fails(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "nope.jsonl")]) == 1
        assert "not found" in capsys.readouterr().out

    def test_tail_stream_without_rounds_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["tail", str(path)]) == 1
        assert "no round events" in capsys.readouterr().out

    def test_tail_follow_exits_after_idle_timeout(self, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        assert main([
            "fleet-report", "--nodes", "3", "--rounds", "4", "--seed", "2",
            "--stream-out", str(stream),
        ]) == 0
        capsys.readouterr()
        assert main([
            "tail", str(stream), "--follow",
            "--interval", "0.05", "--idle-timeout", "0.2",
        ]) == 0
        assert "stream: 4 rounds" in capsys.readouterr().out

    def test_serve_port_announces_endpoint(self, capsys):
        assert main([
            "fleet-report", "--nodes", "3", "--rounds", "4", "--seed", "2",
            "--serve-port", "0",
        ]) == 0
        assert "metrics snapshot endpoint: http://127.0.0.1:" in (
            capsys.readouterr().out
        )

    def test_kill_resume_spliced_stream_replays_clean_run(self, tmp_path, capsys):
        """ISSUE acceptance: a stream interrupted mid-campaign and
        appended to by ``resume`` replays to the clean run's timeline."""
        ckpt = tmp_path / "ckpt"
        stream = tmp_path / "stream.jsonl"
        clean = tmp_path / "clean.jsonl"
        replay = tmp_path / "replay.jsonl"

        rc = main([
            "fleet-report", "--nodes", "4", "--rounds", "10", "--seed", "3",
            "--checkpoint-every", "3", "--checkpoint-dir", str(ckpt),
            "--kill-at", "7:1", "--stream-out", str(stream),
        ])
        out = capsys.readouterr().out
        assert rc == 3
        # The flight recorder left the last moments next to the checkpoints.
        assert "flight recorder dumped to" in out
        assert (ckpt / "flight-recorder-000007.jsonl").exists()

        assert main([
            "resume", str(ckpt / "checkpoint-000006.json"),
            "--stream-out", str(stream),
        ]) == 0
        assert "appended telemetry stream" in capsys.readouterr().out

        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "10", "--seed", "3",
            "--timeline-jsonl", str(clean),
        ]) == 0
        capsys.readouterr()

        assert main([
            "tail", str(stream), "--timeline-jsonl", str(replay),
        ]) == 0
        assert "stream: 10 rounds" in capsys.readouterr().out
        assert replay.read_bytes() == clean.read_bytes()


class TestAnomalyCli:
    """``--inject-noise`` / ``--fail-on-anomaly`` / ``repro diff``."""

    def _campaign(self, path, *, inject=None, rounds=20):
        args = [
            "fleet-report", "--nodes", "4", "--rounds", str(rounds),
            "--seed", "7", "--stream-out", str(path),
        ]
        if inject:
            args += ["--inject-noise", inject]
        assert main(args) == 0

    def test_fleet_report_announces_anomalies(self, tmp_path, capsys):
        self._campaign(tmp_path / "s.jsonl")
        out = capsys.readouterr().out
        assert "anomalies:" in out
        assert "inspect with 'repro tail'" in out

    def test_inject_noise_announced_and_recorded(self, tmp_path, capsys):
        self._campaign(tmp_path / "f.jsonl", inject="3:12:6")
        out = capsys.readouterr().out
        assert "injecting extra noise burst: node 3, rounds 12..17" in out

    def test_inject_noise_bad_spec_exits_2(self, tmp_path, capsys):
        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "4",
            "--stream-out", str(tmp_path / "s.jsonl"),
            "--inject-noise", "nonsense",
        ]) == 2
        assert "--inject-noise" in capsys.readouterr().out

    def test_report_out_writes_canonical_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "8", "--seed", "7",
            "--report-out", str(report_path),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(report_path.read_text())
        assert "network" in doc
        assert doc["rounds"] == 8
        # Canonical rendering: sorted keys, trailing newline.
        assert report_path.read_text() == (
            json.dumps(doc, sort_keys=True, indent=2) + "\n"
        )

    def test_tail_renders_anomaly_lines_and_fails_on_anomaly(
        self, tmp_path, capsys
    ):
        stream = tmp_path / "s.jsonl"
        self._campaign(stream)
        capsys.readouterr()
        assert main(["tail", str(stream), "--fail-on-anomaly"]) == 4
        out = capsys.readouterr().out
        highlighted = [l for l in out.splitlines() if l.startswith("!!")]
        assert highlighted, "anomaly envelopes must render as !! lines"
        assert "anomalies warn=" in out

    def test_tail_without_anomalies_passes_fail_flag(self, tmp_path, capsys):
        stream = tmp_path / "tiny.jsonl"
        # Shorter than detector warmup: nothing can fire.
        self._campaign(stream, rounds=6)
        capsys.readouterr()
        assert main(["tail", str(stream), "--fail-on-anomaly"]) == 0

    def test_diff_identical_campaigns_exits_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._campaign(a)
        self._campaign(b)
        capsys.readouterr()
        assert main(["diff", str(a), str(b), "--gate"]) == 0
        assert "gate: clean" in capsys.readouterr().out

    def test_diff_gate_trips_on_injected_fault_and_attributes(
        self, tmp_path, capsys
    ):
        """ISSUE acceptance: the diff names the taxonomy class, its
        failing stage, and the injected node."""
        clean, faulted = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        out_path = tmp_path / "drift.json"
        self._campaign(clean)
        self._campaign(faulted, inject="3:12:6")
        capsys.readouterr()
        assert main([
            "diff", str(clean), str(faulted), "--gate", "--out", str(out_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "-- attribution (most suspect first) --" in out
        assert "noise_burst" in out
        assert "link.hydrophone_dsp" in out
        assert "node 3" in out
        assert "-- gate: DRIFTED --" in out
        report = json.loads(out_path.read_text())
        assert report["gate"]["drifted"] is True
        kinds = {e["kind"]: e for e in report["attribution"]}
        assert kinds["taxonomy"]["target"] == "noise_burst"
        assert kinds["node"]["target"] == "node 3"

    def test_diff_without_gate_reports_but_exits_zero(self, tmp_path, capsys):
        clean, faulted = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._campaign(clean)
        self._campaign(faulted, inject="3:12:6")
        capsys.readouterr()
        assert main(["diff", str(clean), str(faulted)]) == 0
        assert "DRIFTED" in capsys.readouterr().out

    def test_diff_output_is_byte_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._campaign(a)
        self._campaign(b, inject="3:12:6")
        first, second = tmp_path / "d1.json", tmp_path / "d2.json"
        main(["diff", str(a), str(b), "--out", str(first)])
        main(["diff", str(a), str(b), "--out", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_diff_missing_file_exits_2(self, tmp_path, capsys):
        stream = tmp_path / "a.jsonl"
        self._campaign(stream, rounds=4)
        capsys.readouterr()
        assert main(["diff", str(stream), str(tmp_path / "nope.jsonl")]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_diff_cross_kind_exits_2(self, tmp_path, capsys):
        stream = tmp_path / "a.jsonl"
        self._campaign(stream, rounds=4)
        bench = tmp_path / "BENCH.json"
        bench.write_text(json.dumps({
            "records": [{"rounds": 4, "stages": {"mac": {"fraction": 1.0}}}],
        }))
        capsys.readouterr()
        assert main(["diff", str(stream), str(bench)]) == 2
        assert "cannot diff" in capsys.readouterr().out

    def test_diff_threshold_flags_loosen_the_gate(self, tmp_path, capsys):
        clean, faulted = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._campaign(clean)
        self._campaign(faulted, inject="3:12:6")
        capsys.readouterr()
        assert main([
            "diff", str(clean), str(faulted), "--gate",
            "--delivery-threshold", "1.0", "--node-threshold", "1.0",
            "--stage-threshold", "1.0", "--taxonomy-threshold", "100000",
            "--soc-threshold", "10.0", "--burn-threshold", "1e9",
            "--anomaly-threshold", "100000",
        ]) == 0
        assert "gate: clean" in capsys.readouterr().out

    def test_resume_carries_injected_noise(self, tmp_path, capsys):
        """A killed faulted campaign resumes with the same injection, so
        the spliced stream still shows the fault's anomalies."""
        ckpt = tmp_path / "ckpt"
        stream = tmp_path / "stream.jsonl"
        rc = main([
            "fleet-report", "--nodes", "4", "--rounds", "20", "--seed", "7",
            "--inject-noise", "3:12:6",
            "--checkpoint-every", "5", "--checkpoint-dir", str(ckpt),
            "--kill-at", "14:1", "--stream-out", str(stream),
        ])
        assert rc == 3
        assert main([
            "resume", str(ckpt / "checkpoint-000010.json"),
            "--stream-out", str(stream),
        ]) == 0
        out = capsys.readouterr().out
        assert "injecting extra noise burst: node 3" in out

        clean = tmp_path / "clean.jsonl"
        assert main([
            "fleet-report", "--nodes", "4", "--rounds", "20", "--seed", "7",
            "--inject-noise", "3:12:6", "--stream-out", str(clean),
        ]) == 0
        capsys.readouterr()
        assert main(["diff", str(clean), str(stream), "--gate"]) == 0
        assert "gate: clean" in capsys.readouterr().out


class TestBenchInjectTargets:
    """``repro bench --inject`` slows entry points the exchange really calls."""

    def test_every_target_runs_in_one_uncached_exchange(self, monkeypatch):
        import importlib
        from collections import Counter

        from repro.cli import _INJECT_TARGETS, _build_bench_fleet
        from repro.net.messages import Command, Query
        from repro.perf import caching_disabled

        calls = Counter()
        for mod_name, cls_name, attr in set(_INJECT_TARGETS.values()):
            cls = getattr(importlib.import_module(mod_name), cls_name)
            call = getattr(cls, attr)

            def spy(*args, _key=(cls_name, attr), _call=call, **kwargs):
                calls[_key] += 1
                return _call(*args, **kwargs)

            if isinstance(vars(cls)[attr], staticmethod):
                spy = staticmethod(spy)
            monkeypatch.setattr(cls, attr, spy)
        (addr, transact), = _build_bench_fleet(1, 2019, 2_000.0).items()
        with caching_disabled():
            transact(Query(destination=addr, command=Command.READ_PH))
        for stage, (_mod, cls_name, attr) in _INJECT_TARGETS.items():
            assert calls[(cls_name, attr)] >= 1, stage

    def test_injection_restores_a_static_entry_point(self):
        from repro.acoustics.channel import AcousticChannel
        from repro.cli import _apply_injection

        original = vars(AcousticChannel)["propagate"]
        cls, attr, saved = _apply_injection("link.uplink_propagation:0")
        try:
            assert isinstance(vars(AcousticChannel)["propagate"], staticmethod)
        finally:
            setattr(cls, attr, saved)
        assert vars(AcousticChannel)["propagate"] is original
