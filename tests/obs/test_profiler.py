"""Campaign profiler: attribution, flamegraph exports, determinism.

The contracts under test:

* the global profiler ships disabled and every hook is inert then;
* cache/stage/memory attributions reduce to the documented report
  shapes;
* flamegraph exports (collapsed-stack text + speedscope JSON) are pure
  functions of the spans — byte-identical across runs under a
  :class:`VirtualClock`, and the speedscope document's per-frame totals
  equal the tracer's own ``stage_totals`` (the 1% acceptance criterion
  holds exactly by construction);
* the reader marks rounds after each round's polls and publishes
  ``profile`` stream events that :class:`StreamAggregator` reduces back (``hot_stage``,
  ``round_line``).
"""

import json
import tracemalloc

from repro.obs import MetricsRegistry
from repro.obs.profiler import (
    CampaignProfiler,
    collapsed_stacks,
    get_profiler,
    profile_stage_costs,
    set_profiler,
    speedscope_document,
    speedscope_stage_totals,
    use_profiler,
    write_flamegraphs,
)
from repro.obs.stream import MemorySink, StreamAggregator, TelemetryBus, use_bus
from repro.obs.trace import Tracer, VirtualClock, use_tracer
from repro.perf import LRUCache
from repro.perf.cache import CacheStats

#: One hit and one miss on cache "c": saves one miss cost if any was timed.
C_STATS = {"c": CacheStats(name="c", hits=1, misses=1, evictions=0,
                           entries=1, maxsize=2)}


class TestGlobalProfiler:
    def test_disabled_by_default(self):
        assert not get_profiler().enabled

    def test_use_profiler_restores_previous(self):
        original = get_profiler()
        replacement = CampaignProfiler()
        with use_profiler(replacement):
            assert get_profiler() is replacement
        assert get_profiler() is original

    def test_set_profiler_returns_previous(self):
        original = get_profiler()
        replacement = CampaignProfiler()
        assert set_profiler(replacement) is original
        assert set_profiler(original) is replacement

    def test_disabled_hooks_are_inert(self):
        profiler = CampaignProfiler(enabled=False)
        profiler.record_cache_miss("c", 0.5)
        assert profiler.on_round(0.0) == {}
        assert profiler.cache_report(C_STATS)["c"]["saved_s"] == 0.0
        assert profiler.stage_totals() == {}
        assert profiler.round_snapshots == []


class TestCacheAttribution:
    def test_lru_miss_costs_feed_saved_estimate(self):
        cache = LRUCache("t_prof_cache", maxsize=4)
        profiler = CampaignProfiler()
        with use_profiler(profiler):
            cache.get_or_compute("k", lambda: 1)   # miss (timed)
            cache.get_or_compute("k", lambda: 1)   # hit
            cache.get_or_compute("k", lambda: 1)   # hit
        report = profiler.cache_report({"t_prof_cache": cache.stats()})
        entry = report["t_prof_cache"]
        assert entry["hits"] == 2 and entry["misses"] == 1
        assert entry["miss_cost_s"] > 0.0
        assert entry["saved_s"] == 2 * entry["miss_cost_s"]

    def test_unobserved_cache_reports_zero_not_a_guess(self):
        cache = LRUCache("t_prof_cold", maxsize=4)
        cache.get_or_compute("k", lambda: 1)  # profiler disabled: untimed
        cache.get_or_compute("k", lambda: 1)
        report = CampaignProfiler().cache_report(
            {"t_prof_cold": cache.stats()}
        )
        assert report["t_prof_cold"]["miss_cost_s"] == 0.0
        assert report["t_prof_cold"]["saved_s"] == 0.0


class TestOnRound:
    def _traced(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass

    def test_folds_only_new_spans_each_round(self):
        tracer = Tracer(clock=VirtualClock(tick=1.0))
        profiler = CampaignProfiler()
        self._traced(tracer)
        first = profiler.on_round(0.0, tracer=tracer)
        assert first["stages"]["outer"]["count"] == 1
        self._traced(tracer)
        self._traced(tracer)
        second = profiler.on_round(1.0, tracer=tracer)
        assert second["stages"]["inner"]["count"] == 2
        totals = profiler.stage_totals()
        assert totals["outer"]["count"] == 3
        assert totals["inner"]["total_s"] == 3.0  # one tick each
        assert [s["round"] for s in profiler.round_snapshots] == [0, 1]

    def test_memory_marks_and_close(self):
        assert not tracemalloc.is_tracing()
        profiler = CampaignProfiler(memory=True)
        with use_profiler(profiler):
            snap = profiler.on_round(0.0, tracer=Tracer(enabled=False))
            assert snap["mem_peak_b"] >= snap["mem_current_b"] >= 0
            assert tracemalloc.is_tracing()
            profiler.on_round(1.0, tracer=Tracer(enabled=False))
            report = profiler.memory_report()
            assert report["rounds"] == 2
            assert report["peak_b"] >= 0
        # use_profiler closed it: tracemalloc stopped (it started it).
        assert not tracemalloc.is_tracing()

    def test_reset_clears_everything(self):
        profiler = CampaignProfiler()
        profiler.record_cache_miss("c", 0.1)
        tracer = Tracer(clock=VirtualClock(tick=1.0))
        self._traced(tracer)
        profiler.on_round(0.0, tracer=tracer)
        assert profiler.cache_report(C_STATS)["c"]["saved_s"] == 0.1
        profiler.reset()
        assert profiler.round_snapshots == []
        assert profiler.stage_totals() == {}
        assert profiler.cache_report(C_STATS)["c"]["saved_s"] == 0.0


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
        assert doc["exporter"] == "repro.obs.profiler"

    def test_empty_spans_export_cleanly(self, tmp_path):
        assert collapsed_stacks([]) == ""
        doc = speedscope_document([])
        assert doc["profiles"][0]["events"] == []
        paths = write_flamegraphs(tmp_path / "flame", [])
        assert paths["collapsed"].read_text() == ""


class TestProfileStageCosts:
    def test_dual_pass_joins_by_stage(self):
        def run(tracer):
            with tracer.span("work"):
                sum(i * i for i in range(2_000))
            with tracer.span("other"):
                pass

        costs = profile_stage_costs(run, repeats=2)
        assert set(costs) == {"work", "other"}
        work = costs["work"]
        assert work["count"] == 1.0
        assert work["wall_s"] > 0.0
        assert work["cpu_s"] >= 0.0
        total = sum(e["fraction"] for e in costs.values())
        assert abs(total - 1.0) < 1e-9

    def test_stages_filter_restricts_denominator(self):
        def run(tracer):
            with tracer.span("parent"):
                with tracer.span("leaf"):
                    sum(i for i in range(1_000))

        costs = profile_stage_costs(run, repeats=1, stages=["leaf"])
        assert set(costs) == {"leaf"}
        assert costs["leaf"]["fraction"] == 1.0


class TestToMetrics:
    def test_gauges_exported(self):
        profiler = CampaignProfiler()
        tracer = Tracer(clock=VirtualClock(tick=1.0))
        with tracer.span("link.node"):
            pass
        profiler.on_round(0.0, tracer=tracer)
        cache = LRUCache("t_prof_metrics", maxsize=2)
        with use_profiler(profiler):
            cache.get_or_compute("k", lambda: 1)
            cache.get_or_compute("k", lambda: 1)
        registry = MetricsRegistry()
        profiler.to_metrics(
            registry, cache_stats={"t_prof_metrics": cache.stats()}
        )
        assert registry.value(
            "pab_profile_stage_seconds", stage="link.node"
        ) == 1.0
        assert registry.value(
            "pab_profile_cache_saved_seconds", cache="t_prof_metrics"
        ) > 0.0


# ---------------------------------------------------------------------------
# Reader integration: round marks -> profile stream events
# ---------------------------------------------------------------------------


class _StubResult:
    success = False
    demod = None


def _span_stub(address):
    """A transport that records one link-stage span per transaction."""
    from repro.obs.trace import get_tracer

    def transact(query):
        with get_tracer().span("link.node", node=address):
            pass
        return _StubResult()

    return transact


def _profiled_campaign(rounds=3, nodes=2):
    from repro.net.messages import Command
    from repro.net.reader import ReaderController

    sink = MemorySink()
    bus = TelemetryBus(sinks=[sink])
    tracer = Tracer(clock=VirtualClock(tick=1.0))
    profiler = CampaignProfiler()
    transports = {a: _span_stub(a) for a in range(1, nodes + 1)}
    with use_bus(bus), use_tracer(tracer), use_profiler(profiler):
        reader = ReaderController(transports, max_retries=0)
        reader.run_campaign(Command.PING, rounds)
    bus.close()
    return profiler, sink


class TestReaderIntegration:
    def test_rounds_marked_and_published(self):
        profiler, sink = _profiled_campaign(rounds=3, nodes=2)
        assert len(profiler.round_snapshots) == 3
        profile_events = [e for e in sink.events if e["kind"] == "profile"]
        assert len(profile_events) == 3
        assert all(e["source"] == "profiler" for e in profile_events)
        # Round 0 folded exactly this round's spans: 2 nodes -> count 2.
        # (Later rounds add health-policy probe traffic on failures.)
        assert profile_events[0]["data"]["stages"]["link.node"]["count"] == 2
        for event in profile_events:
            assert event["data"]["stages"]["link.node"]["count"] >= 2

    def test_aggregator_reduces_hot_stage_and_round_line(self):
        _, sink = _profiled_campaign(rounds=2, nodes=2)
        agg = StreamAggregator()
        for event in sink.events:
            agg.feed(event)
        assert len(agg.profiles) == 2
        stage, fraction = agg.hot_stage(0)
        assert stage == "link.node"
        assert 0.0 < fraction <= 1.0
        line = agg.round_line(0)
        assert "hot node" in line

    def test_refeeding_profiles_is_idempotent(self):
        _, sink = _profiled_campaign(rounds=2, nodes=1)
        agg = StreamAggregator()
        for event in sink.events + sink.events:
            agg.feed(event)
        assert len(agg.profiles) == 2

    def test_disabled_profiler_publishes_no_profile_events(self):
        from repro.net.messages import Command
        from repro.net.reader import ReaderController

        sink = MemorySink()
        bus = TelemetryBus(sinks=[sink])
        with use_bus(bus):
            reader = ReaderController({1: _span_stub(1)}, max_retries=0)
            reader.run_campaign(Command.PING, 2)
        bus.close()
        assert [e for e in sink.events if e["kind"] == "profile"] == []
