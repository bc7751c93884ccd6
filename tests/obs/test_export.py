"""Tests for the exporters: JSONL traces, flamegraphs, Prometheus text, CSV,
adapters."""

import ast
import json
import pathlib

from repro.faults.events import EventLog
from repro.obs.export import (
    METRIC_HELP,
    _escape_help,
    collapsed_stacks,
    events_to_metrics,
    metrics_to_csv,
    metrics_to_prometheus,
    rows_to_csv,
    speedscope_document,
    speedscope_stage_totals,
    spans_to_jsonl,
    write_csv,
    write_flamegraphs,
    write_spans_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, VirtualClock, use_tracer


def synthetic_workload(tracer):
    """A deterministic nested-span workload (a fake transaction)."""
    with tracer.span("link.transact", destination=7):
        with tracer.span("link.pwm_synthesis", samples=1000):
            pass
        with tracer.span("link.node", phase="decode"):
            with tracer.span("node.decode_query", node=7):
                pass
        with tracer.span("link.hydrophone_dsp", snr_db=float("nan")):
            pass


class TestSpansJsonl:
    def test_one_json_object_per_span_with_duration(self):
        tracer = Tracer(clock=VirtualClock(tick=1.0))
        synthetic_workload(tracer)
        lines = spans_to_jsonl(tracer.spans).strip().splitlines()
        assert len(lines) == len(tracer.spans) == 5
        for line in lines:
            record = json.loads(line)
            assert {"name", "span_id", "parent_id", "start_s", "end_s",
                    "duration_s", "attrs"} <= set(record)
            assert record["duration_s"] > 0

    def test_non_finite_attrs_serialised_as_strings(self):
        tracer = Tracer(clock=VirtualClock(tick=1.0))
        synthetic_workload(tracer)
        dsp = [json.loads(l) for l in spans_to_jsonl(tracer.spans).splitlines()
               if '"link.hydrophone_dsp"' in l]
        assert dsp[0]["attrs"]["snr_db"] == "nan"

    def test_byte_deterministic_under_virtual_clock(self):
        def run():
            tracer = Tracer(clock=VirtualClock(tick=1.0))
            synthetic_workload(tracer)
            return spans_to_jsonl(tracer.spans).encode()

        assert run() == run()

    def test_empty_trace_is_empty_string(self):
        assert spans_to_jsonl([]) == ""

    def test_write_to_file(self, tmp_path):
        tracer = Tracer(clock=VirtualClock(tick=1.0))
        synthetic_workload(tracer)
        path = write_spans_jsonl(tmp_path / "trace.jsonl", tracer.spans)
        assert path.read_text() == spans_to_jsonl(tracer.spans)


def _traced_campaign():
    """A deterministic two-round span forest under a unit-tick clock."""
    tracer = Tracer(clock=VirtualClock(tick=1.0))
    for _ in range(2):
        with tracer.span("round"):
            with tracer.span("link.node"):
                pass
            with tracer.span("link.dsp"):
                with tracer.span("fft"):
                    pass
    return tracer


class TestFlamegraphs:
    def test_collapsed_stacks_exact(self):
        tracer = Tracer(clock=VirtualClock(tick=1.0))
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        text = collapsed_stacks(tracer.spans)
        assert text == "root 3\nroot;a 1\nroot;b 2\nroot;b;c 1\n"

    def test_collapsed_scale_converts_units(self):
        tracer = Tracer(clock=VirtualClock(tick=0.5))
        with tracer.span("only"):
            pass
        assert collapsed_stacks(tracer.spans, scale=2.0) == "only 1\n"

    def test_speedscope_totals_equal_tracer_totals(self):
        tracer = _traced_campaign()
        doc = speedscope_document(tracer.spans)
        flame = speedscope_stage_totals(doc)
        for name, entry in tracer.stage_totals().items():
            assert flame[name] == entry["total_s"]

    def test_speedscope_document_shape(self):
        tracer = _traced_campaign()
        doc = speedscope_document(tracer.spans, name="t", unit="none")
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        (profile,) = doc["profiles"]
        assert profile["type"] == "evented"
        assert profile["startValue"] <= profile["endValue"]
        # Well-nested: every open has a close, depth never goes negative.
        depth = 0
        for event in profile["events"]:
            depth += 1 if event["type"] == "O" else -1
            assert depth >= 0
        assert depth == 0
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert len(names) == len(set(names))  # frames deduplicated

    def test_exports_byte_identical_across_runs(self, tmp_path):
        first = write_flamegraphs(tmp_path / "a" / "flame",
                                  _traced_campaign().spans)
        second = write_flamegraphs(tmp_path / "b" / "flame",
                                   _traced_campaign().spans)
        for kind in ("collapsed", "speedscope"):
            assert first[kind].read_bytes() == second[kind].read_bytes()
        # And the JSON parses back to a speedscope doc.
        doc = json.loads(first["speedscope"].read_text())
        assert doc["exporter"] == "repro.obs.export"

    def test_empty_spans_export_cleanly(self, tmp_path):
        assert collapsed_stacks([]) == ""
        doc = speedscope_document([])
        assert doc["profiles"][0]["events"] == []
        paths = write_flamegraphs(tmp_path / "flame", [])
        assert paths["collapsed"].read_text() == ""

    def test_bench_campaign_flamegraphs_byte_identical(self, tmp_path):
        """A seeded 2-node x 3-round campaign's flamegraphs repeat byte
        for byte, and the speedscope totals are the tracer's own."""
        from repro.cli import _bench_campaign
        from repro.perf import clear_all_caches

        files = []
        for run in ("a", "b"):
            clear_all_caches()
            tracer = Tracer(clock=VirtualClock(tick=1.0))
            with use_tracer(tracer):
                _bench_campaign(2, 3, 2019, 2_000.0, parallel=0)
            assert any(s.name == "link.hydrophone_dsp" for s in tracer.spans)
            files.append(write_flamegraphs(tmp_path / run / "flame",
                                           tracer.spans))
            doc = json.loads(files[-1]["speedscope"].read_text())
            flame = speedscope_stage_totals(doc)
            assert flame == {
                name: entry["total_s"]
                for name, entry in tracer.stage_totals().items()
            }
        for kind in ("collapsed", "speedscope"):
            assert files[0][kind].read_bytes() == files[1][kind].read_bytes()


class TestPrometheus:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("pab_polls_total", node=1).inc(3)
        reg.gauge("pab_node_health_code", node=1).set(2)
        reg.histogram("pab_lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = metrics_to_prometheus(reg)
        assert "# TYPE pab_polls_total counter" in text
        assert 'pab_polls_total{node="1"} 3' in text
        assert "# TYPE pab_node_health_code gauge" in text
        assert 'pab_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'pab_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "pab_lat_seconds_sum 0.05" in text
        assert "pab_lat_seconds_count 1" in text

    def test_type_line_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("polls", node=1).inc()
        reg.counter("polls", node=2).inc()
        text = metrics_to_prometheus(reg)
        assert text.count("# TYPE polls counter") == 1

    def test_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc()
            reg.counter("a", x=2).inc()
            reg.counter("a", x=1).inc()
            return metrics_to_prometheus(reg)

        assert build() == build()

    def test_empty_registry(self):
        assert metrics_to_prometheus(MetricsRegistry()) == ""

    def test_label_values_escaped(self):
        # Prometheus exposition: backslash, double-quote, and newline
        # in label values must be escaped or the scrape breaks.
        reg = MetricsRegistry()
        reg.counter("polls", reason='say "hi"').inc()
        reg.counter("polls", reason="line1\nline2").inc(2)
        reg.counter("polls", reason="back\\slash").inc(3)
        text = metrics_to_prometheus(reg)
        assert 'reason="say \\"hi\\""' in text
        assert 'reason="line1\\nline2"' in text
        assert 'reason="back\\\\slash"' in text
        # No raw newline may survive inside any exposition line.
        for line in text.splitlines():
            assert line.count('"') % 2 == 0


class TestHelpLines:
    def test_help_precedes_type_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("pab_mac_attempts_total", node=1).inc()
        reg.counter("pab_mac_attempts_total", node=2).inc()
        text = metrics_to_prometheus(reg)
        assert text.count("# HELP pab_mac_attempts_total ") == 1
        assert text.index("# HELP pab_mac_attempts_total") < text.index(
            "# TYPE pab_mac_attempts_total"
        )

    def test_known_family_gets_documented_help(self):
        reg = MetricsRegistry()
        reg.counter("pab_mac_attempts_total", node=1).inc()
        line = next(
            l for l in metrics_to_prometheus(reg).splitlines()
            if l.startswith("# HELP")
        )
        # Curated text from METRIC_HELP, not the generic fallback.
        assert line != "# HELP pab_mac_attempts_total pab_mac_attempts_total (counter)."
        assert len(line.split(None, 3)[3]) > 10

    def test_unknown_family_gets_fallback_help(self):
        reg = MetricsRegistry()
        reg.gauge("custom_thing").set(1.0)
        text = metrics_to_prometheus(reg)
        assert "# HELP custom_thing custom_thing (gauge)." in text

    def test_help_text_escaping(self):
        # Prometheus HELP lines escape only backslash and newline
        # (unlike label values, quotes stay raw).
        assert _escape_help("say \\ and\nstop") == "say \\\\ and\\nstop"
        assert _escape_help('quote " stays') == 'quote " stays'

    def test_every_help_line_is_single_line(self):
        reg = MetricsRegistry()
        for name in sorted(METRIC_HELP):
            reg.counter(name).inc()
        text = metrics_to_prometheus(reg)
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        assert len(help_lines) == len(METRIC_HELP)
        for line in help_lines:
            assert "\n" not in line


#: Call names that register a metric family.  ``counter``/``gauge``/
#: ``histogram`` are the registry API; ``_count`` (MAC) and
#: ``_push_counter`` (energy ledger) are producer-side wrappers that
#: pass a literal family name through.
_REGISTRATION_CALLS = {"counter", "gauge", "histogram", "_count", "_push_counter"}


def _registered_families() -> set:
    """Every ``pab_*`` family registered anywhere under ``src/repro``.

    Walks the AST of every module and collects string-literal positional
    arguments of registration calls.  Scanning positional args (not just
    the first) catches wrappers like ``_push_counter(registry, name, v)``;
    walking the AST (not the text) skips docstring examples.
    """
    src_root = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    names = set()
    for path in sorted(src_root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            call_name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            if call_name not in _REGISTRATION_CALLS:
                continue
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("pab_")
                ):
                    names.add(arg.value)
    return names


class TestHelpCoverage:
    def test_every_registered_family_has_curated_help(self):
        registered = _registered_families()
        assert registered, "AST scan found no registration sites"
        missing = registered - set(METRIC_HELP)
        assert not missing, (
            f"pab_* families registered without a METRIC_HELP entry: "
            f"{sorted(missing)}"
        )

    def test_no_stale_help_entries(self):
        # Every curated entry must correspond to a family some module
        # actually registers — stale entries hide renames (the scrape
        # would fall back to generated help for the new name).
        stale = set(METRIC_HELP) - _registered_families()
        assert not stale, f"METRIC_HELP entries with no registration site: {sorted(stale)}"


class TestCsv:
    def test_rows_to_csv_formats_like_experiment_table(self):
        text = rows_to_csv(("a", "b"), [(1.0, float("nan")), (1e-6, "x")])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1.000,nan"
        assert lines[2] == "1.000e-06,x"

    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "out.csv", ("col",), [(1,), (2,)])
        assert path.read_text() == "col\n1\n2\n"

    def test_metrics_to_csv(self):
        reg = MetricsRegistry()
        reg.counter("polls", node=1).inc(2)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = metrics_to_csv(reg)
        assert "name,labels,type,value,count" in text
        assert "polls,node=1,counter,2.000," in text
        assert "lat,,histogram,0.500,1" in text


class TestEventLogAdapter:
    def test_batch_replay(self):
        log = EventLog()
        log.record(0, 1, "fault", injector="noise_burst")
        log.record(1, 1, "retry")
        log.record(2, 1, "fault", injector="brownout")
        reg = events_to_metrics(log)
        assert reg.value("pab_events_total", kind="fault") == 2.0
        assert reg.value("pab_events_total", kind="retry") == 1.0

    def test_live_binding_counts_as_recorded(self):
        reg = MetricsRegistry()
        log = EventLog(metrics=reg)
        log.record(0, 1, "fault")
        log.record(1, 1, "fault")
        assert reg.value("pab_events_total", kind="fault") == 2.0

    def test_replay_into_existing_registry(self):
        log = EventLog()
        log.record(0, 1, "probe")
        reg = MetricsRegistry()
        out = events_to_metrics(log, reg)
        assert out is reg
        assert reg.value("pab_events_total", kind="probe") == 1.0
