"""Outside-in layer trace for the campaign benchmark.

:class:`LayerTrace` wraps the public entry points of each layer of the
reproduction (reader, MAC, link, memo, projector, channel, node, noise,
demodulation, batch engine, telemetry, checkpoints) with span-recording
timers.  It never edits the program: wrappers replace class attributes
and module globals in the traced process only, and :meth:`restore` puts
the originals back.  Spans are recorded only while
``ReaderController.run_campaign`` runs, which is the root span; every
wrapped callable maps to exactly one layer metric, so the layers'
self-times plus the root's own self-time (``bench.unattributed_s``)
add up to the campaign's wall time.

Module-level functions are wrapped in the namespace of the module that
imported them (``repro.core.link.hilbert`` is node work, while
``repro.perf.batch.fftconvolve`` is batch-kernel work).  A callable a
later version of the program no longer has is skipped, so its layer
simply reads zero.

This module imports nothing from the program at import time:
``bench/run.py`` reads :data:`PER_LAYER` without loading numpy.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

MEMO_LEGS = (
    "budget", "downlink", "downlink_decode", "carrier", "uplink",
    "rerad_response",
)
PROCESS_CACHES = (
    "channel_irs", "channel_paths", "demodulators", "fir_kernels",
    "fm0_chips", "pwm_templates", "sync_templates",
)
OUTCOMES = ("no_power_up", "no_decode", "no_reply", "crc_fail", "success")

#: Self-time metrics: every span is named after exactly one of these,
#: and together with ``bench.unattributed_s`` they partition the
#: campaign's wall time.
SELF_TIME = (
    "net.reader.self_s", "net.reader.report_s", "net.mac.self_s",
    "net.health.self_s", "core.link.self_s",
    *(f"core.link.memo.{leg}.compute_s" for leg in MEMO_LEGS),
    "core.projector.self_s", "acoustics.channel.downlink_s",
    "acoustics.channel.uplink_s", "node.power_up_s", "node.decode_s",
    "node.respond_s", "node.backscatter_s", "acoustics.noise.self_s",
    "core.hydrophone.demodulate_s", "dsp.demod.baseband_s",
    "perf.batch.plan_s", "perf.batch.kernels_s", "obs.stream.publish_s",
    "obs.stream.flush_s", "obs.ledger.self_s", "obs.slo.self_s",
    "obs.analytics.self_s", "faults.events.record_s",
    "resilience.checkpoint.save_s",
)
ROOT_SPAN = "bench.unattributed_s"


def _metric_specs():
    """``(name, unit, better)`` for every per-layer metric, report order."""
    s, n, r = "s", "count", "ratio"
    specs = [
        ("net.reader.self_s", s, "lower"),
        ("net.reader.rounds", n, "higher"),
        ("net.reader.round_p50_ms", "ms", "lower"),
        ("net.reader.round_p75_ms", "ms", "lower"),
        ("net.reader.report_s", s, "lower"),
        ("net.mac.self_s", s, "lower"),
        ("net.mac.polls", n, "higher"),
        ("net.mac.attempts", n, "higher"),
        ("net.mac.retries", n, "lower"),
        ("net.health.self_s", s, "lower"),
        ("core.link.self_s", s, "lower"),
        ("core.link.exchanges", n, "higher"),
    ]
    specs += [
        (f"core.link.outcome.{o}", n, "higher" if o == "success" else "lower")
        for o in OUTCOMES
    ]
    for leg in MEMO_LEGS:
        specs += [
            (f"core.link.memo.{leg}.hits", n, "higher"),
            (f"core.link.memo.{leg}.misses", n, "lower"),
            (f"core.link.memo.{leg}.compute_s", s, "lower"),
        ]
    specs += [(f"perf.cache.{c}.hit_ratio", r, "higher") for c in PROCESS_CACHES]
    specs += [
        ("core.projector.self_s", s, "lower"),
        ("core.projector.calls", n, "lower"),
        ("acoustics.channel.downlink_s", s, "lower"),
        ("acoustics.channel.uplink_s", s, "lower"),
        ("acoustics.channel.calls", n, "lower"),
        ("node.power_up_s", s, "lower"),
        ("node.decode_s", s, "lower"),
        ("node.respond_s", s, "lower"),
        ("node.backscatter_s", s, "lower"),
        ("acoustics.noise.self_s", s, "lower"),
        ("acoustics.noise.samples", n, "lower"),
        ("core.hydrophone.demodulate_s", s, "lower"),
        ("core.hydrophone.demods", n, "lower"),
        ("dsp.demod.baseband_s", s, "lower"),
        ("perf.batch.prepass_s", s, "lower"),
        ("perf.batch.plan_s", s, "lower"),
        ("perf.batch.kernels_s", s, "lower"),
        ("perf.batch.windows", n, "lower"),
        ("perf.batch.planned", n, "higher"),
        ("perf.batch.retries_planned", n, "higher"),
        ("perf.batch.demods_precomputed", n, "higher"),
        ("perf.batch.demods_carried", n, "higher"),
        ("perf.batch.tails_inline", n, "lower"),
        ("perf.batch.hint_hit_ratio", r, "higher"),
        ("perf.batch.plan_use_ratio", r, "higher"),
        ("obs.stream.publish_s", s, "lower"),
        ("obs.stream.flush_s", s, "lower"),
        ("obs.stream.events", n, "higher"),
        ("obs.stream.bytes", "bytes", "lower"),
        ("obs.ledger.self_s", s, "lower"),
        ("obs.slo.self_s", s, "lower"),
        ("obs.analytics.self_s", s, "lower"),
        ("obs.trace.spans", n, "higher"),
        ("faults.events.record_s", s, "lower"),
        ("faults.events.count", n, "higher"),
        ("resilience.checkpoint.save_s", s, "lower"),
        ("resilience.checkpoint.count", n, "higher"),
        ("resilience.checkpoint.bytes", "bytes", "lower"),
        ("resilience.checkpoint.max_bytes", "bytes", "lower"),
        ("bench.campaign_s", s, "lower"),
        (ROOT_SPAN, s, "lower"),
        ("bench.trace_overhead", r, "lower"),
    ]
    return specs


#: ``(name, unit, better)`` of every per-layer metric.
PER_LAYER = tuple(_metric_specs())


class _Proxy:
    """A module stand-in that overrides a few attributes.

    Used for ``repro.perf.batch.scipy``: the batch engine calls
    ``scipy.fft.rfft`` through the module object, so the wrapper has to
    sit on an attribute of an attribute.
    """

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class LayerTrace:
    """Span recorder installed around the program's public callables.

    Call :meth:`install` before the fleet is built (transports are
    bound methods captured at construction), :meth:`bind_links` once
    the links exist, run the campaign, then :meth:`metrics` and
    :meth:`restore`.
    """

    def __init__(self) -> None:
        #: Spans in the order they opened:
        #: ``[name, start_s, end_s, parent span or None]``.
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.active = False
        self.counts: dict = defaultdict(int)
        self.engine = None
        self.tracers: list = []
        self._downlink_channels: set = set()
        self._before: dict = {}
        self._after_caches: dict = {}

    # -- wrapping -------------------------------------------------------------------

    def _wrapper(self, original, name, *, label=None, after=None):
        spans, stack, clock, trace = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not trace.active:
                return original(*args, **kwargs)
            span_name = name if label is None else label(args)
            if span_name is None:
                return original(*args, **kwargs)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, **hooks) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, **hooks))

    def _count(self, key):
        counts = self.counts

        def after(_args, _result):
            counts[key] += 1

        return after

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        import scipy

        import repro.core.link as link_mod
        from repro.acoustics import AcousticChannel, AmbientNoiseModel
        from repro.core import BackscatterLink, Hydrophone, Projector
        from repro.dsp import BackscatterDemodulator
        from repro.faults import EventLog
        from repro.net import NodeHealth, PollingMac, ReaderController
        from repro.node import PABNode
        from repro.obs import (
            AnomalyMonitor, NodeEnergyHarness, SLOTracker, TelemetryBus,
        )
        from repro.perf import LRUCache

        self._patch_root(ReaderController)
        patch, count = self._patch, self._count
        patch(ReaderController, "poll_round", "net.reader.self_s")
        patch(ReaderController, "report", "net.reader.report_s")
        patch(ReaderController, "save_checkpoint", "resilience.checkpoint.save_s",
              after=count("resilience.checkpoint.count"))
        patch(PollingMac, "poll", "net.mac.self_s", after=count("net.mac.polls"))
        patch(NodeHealth, "on_result", "net.health.self_s")
        patch(BackscatterLink, "run_query", "core.link.self_s",
              after=self._classify_exchange)
        patch(LRUCache, "get_or_compute", None, label=self._memo_label)
        patch(Projector, "query_waveform", "core.projector.self_s",
              after=count("core.projector.calls"))
        patch(Projector, "query_then_carrier", "core.projector.self_s",
              after=count("core.projector.calls"))
        patch(AcousticChannel, "apply", None, label=self._channel_label,
              after=count("acoustics.channel.calls"))
        patch(PABNode, "try_power_up", "node.power_up_s")
        patch(PABNode, "receive_query", "node.decode_s")
        patch(PABNode, "respond", "node.respond_s")
        patch(PABNode, "uplink_chips", "node.respond_s")
        patch(PABNode, "reflection_trajectory", "node.backscatter_s")
        for fn in ("envelope_detect", "butter_bandpass"):
            patch(link_mod, fn, "node.decode_s")
        for fn in ("hilbert", "apply_reradiation_filter"):
            patch(link_mod, fn, "node.backscatter_s")
        patch(AmbientNoiseModel, "generate", "acoustics.noise.self_s",
              after=self._count_samples)
        patch(Hydrophone, "record", "core.hydrophone.demodulate_s")
        patch(Hydrophone, "demodulate", "core.hydrophone.demodulate_s",
              after=count("core.hydrophone.demods"))
        patch(BackscatterDemodulator, "demodulate_from_baseband",
              "dsp.demod.baseband_s")
        patch(TelemetryBus, "publish", "obs.stream.publish_s",
              after=self._count_event)
        patch(TelemetryBus, "flush", "obs.stream.flush_s")
        patch(NodeEnergyHarness, "on_poll_round", "obs.ledger.self_s")
        patch(SLOTracker, "observe_round", "obs.slo.self_s")
        patch(AnomalyMonitor, "observe_campaign_round", "obs.analytics.self_s")
        patch(EventLog, "record", "faults.events.record_s",
              after=count("faults.events.count"))
        self._install_batch(scipy)

    def _install_batch(self, scipy) -> None:
        try:
            import repro.perf.batch as batch_mod
        except ImportError:
            return
        engine_cls = getattr(batch_mod, "BatchedLinkEngine", None)
        if engine_cls is not None:
            self._patch(engine_cls, "prewarm_round", "perf.batch.plan_s",
                        after=self._capture_engine)
        for fn in (
            "fftconvolve", "hilbert", "butter_bandpass", "butter_lowpass",
            "envelope_detect", "batched_preamble_correlation", "correct_cfo",
            "estimate_cfo", "downconvert",
        ):
            self._patch(batch_mod, fn, "perf.batch.kernels_s")
        if vars(batch_mod).get("scipy") is scipy:
            fft = _Proxy(
                scipy.fft,
                rfft=self._wrapper(scipy.fft.rfft, "perf.batch.kernels_s"),
                irfft=self._wrapper(scipy.fft.irfft, "perf.batch.kernels_s"),
            )
            self._saved.append((batch_mod, "scipy", scipy))
            batch_mod.scipy = _Proxy(scipy, fft=fft)

    def _patch_root(self, reader_cls) -> None:
        """``run_campaign`` is the root span and switches recording on."""
        original = vars(reader_cls)["run_campaign"]
        trace = self

        @functools.wraps(original)
        def run_campaign(reader, *args, **kwargs):
            if trace.active:
                return original(reader, *args, **kwargs)
            trace._begin()
            span = [ROOT_SPAN, 0.0, 0.0, None]
            trace.spans.append(span)
            trace._stack.append(span)
            trace.active = True
            span[1] = time.perf_counter()
            try:
                return original(reader, *args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                trace.active = False
                trace._stack.pop()
                trace._end()

        self._saved.append((reader_cls, "run_campaign", original))
        reader_cls.run_campaign = run_campaign

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- labels and counting hooks ---------------------------------------------------

    def bind_links(self, links) -> None:
        """Tell the channel wrapper which channels carry the downlink."""
        self._downlink_channels = {id(link.ch_projector_node) for link in links}

    def _memo_label(self, args):
        cache, key = args[0], args[1]
        if cache.name != "link_legs" or not isinstance(key, tuple):
            return None
        leg = key[0] if key else None
        if leg not in MEMO_LEGS:
            return None
        hit = key in cache
        self.counts[f"core.link.memo.{leg}.{'hits' if hit else 'misses'}"] += 1
        return f"core.link.memo.{leg}.compute_s"

    def _channel_label(self, args):
        if id(args[0]) in self._downlink_channels:
            return "acoustics.channel.downlink_s"
        return "acoustics.channel.uplink_s"

    def _classify_exchange(self, _args, result) -> None:
        self.counts["core.link.exchanges"] += 1
        if not getattr(result, "powered_up", False):
            outcome = "no_power_up"
        elif not result.query_decoded:
            outcome = "no_decode"
        elif result.response is None:
            outcome = "no_reply"
        elif result.success:
            outcome = "success"
        else:
            outcome = "crc_fail"
        self.counts[f"core.link.outcome.{outcome}"] += 1

    def _count_samples(self, args, _result) -> None:
        self.counts["acoustics.noise.samples"] += int(args[1])

    def _count_event(self, _args, result) -> None:
        if result is not None:
            self.counts["obs.stream.events"] += 1

    def _capture_engine(self, args, _result) -> None:
        self.engine = args[0]

    # -- campaign bracket -----------------------------------------------------------

    def begin_setup(self) -> None:
        """Snapshot the process caches before the fleet is built."""
        from repro.perf import cache_stats

        self._before["caches"] = cache_stats()

    def _begin(self) -> None:
        self._before["spans"] = sum(len(t.spans) for t in self.tracers)

    def _end(self) -> None:
        from repro.perf import cache_stats

        self.counts["obs.trace.spans"] = (
            sum(len(t.spans) for t in self.tracers) - self._before["spans"]
        )
        self._after_caches = cache_stats()

    # -- results --------------------------------------------------------------------

    def self_times(self) -> dict:
        """``{span name: summed self-time}`` over every recorded span."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[id(parent)] += end - start
        out = defaultdict(float)
        for span in self.spans:
            out[span[0]] += (span[2] - span[1]) - child[id(span)]
        return out

    def metrics(self, extra: dict | None = None) -> dict:
        """Every per-layer metric except ``bench.trace_overhead``.

        Raises ``RuntimeError`` when the layer self-times plus the
        unattributed root self-time do not add up to the campaign time.
        """
        roots = [s for s in self.spans if s[0] == ROOT_SPAN]
        if len(roots) != 1:
            raise RuntimeError(f"expected one traced campaign, saw {len(roots)}")
        root = roots[0]
        campaign_s = root[2] - root[1]
        selfs = self.self_times()
        unknown = set(selfs) - set(SELF_TIME) - {ROOT_SPAN}
        if unknown:
            raise RuntimeError(f"spans outside the layer partition: {sorted(unknown)}")
        total = sum(selfs.values())
        if abs(total - campaign_s) > 1e-6 * max(1.0, campaign_s):
            raise RuntimeError(
                f"layer self-times sum to {total!r} s, campaign took {campaign_s!r} s"
            )
        out = {name: selfs.get(name, 0.0) for name in SELF_TIME}
        out[ROOT_SPAN] = selfs.get(ROOT_SPAN, 0.0)
        out["bench.campaign_s"] = campaign_s
        for name, _unit, _better in PER_LAYER:
            if name not in out and name in self.counts:
                out[name] = self.counts[name]
        rounds_ms = sorted(
            (s[2] - s[1]) * 1e3 for s in self.spans if s[0] == "net.reader.self_s"
        )
        out["net.reader.rounds"] = len(rounds_ms)
        if len(rounds_ms) >= 2:
            q = statistics.quantiles(rounds_ms, n=4, method="inclusive")
            out["net.reader.round_p50_ms"], out["net.reader.round_p75_ms"] = q[1], q[2]
        elif rounds_ms:
            out["net.reader.round_p50_ms"] = out["net.reader.round_p75_ms"] = rounds_ms[0]
        out["perf.batch.prepass_s"] = sum(
            s[2] - s[1] for s in self.spans if s[0] == "perf.batch.plan_s"
        )
        self._batch_metrics(out)
        self._cache_metrics(out)
        out.update(extra or {})
        return {
            name: out.get(name, 0)
            for name, _unit, _better in PER_LAYER
            if name != "bench.trace_overhead"
        }

    def _batch_metrics(self, out: dict) -> None:
        stats = getattr(self.engine, "stats", None)
        for field in (
            "windows", "planned", "retries_planned", "demods_precomputed",
            "demods_carried", "tails_inline",
        ):
            out[f"perf.batch.{field}"] = int(getattr(stats, field, 0))
        reached = (
            self.counts["core.link.outcome.crc_fail"]
            + self.counts["core.link.outcome.success"]
        )
        inline = self.counts["core.hydrophone.demods"]
        out["perf.batch.hint_hit_ratio"] = 1.0 - inline / reached if reached else 0.0
        precomputed = out["perf.batch.demods_precomputed"]
        out["perf.batch.plan_use_ratio"] = (
            (reached - inline) / precomputed if precomputed else 0.0
        )

    def _cache_metrics(self, out: dict) -> None:
        before = self._before.get("caches", {})
        after = self._after_caches
        for name in PROCESS_CACHES:
            now, then = after.get(name), before.get(name)
            hits = (now.hits if now else 0) - (then.hits if then else 0)
            misses = (now.misses if now else 0) - (then.misses if then else 0)
            lookups = hits + misses
            out[f"perf.cache.{name}.hit_ratio"] = hits / lookups if lookups else 0.0

    def write_spans(self, path, workload: str) -> None:
        """Append the recorded spans to ``path`` as JSONL records."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "a") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "kind": "span", "workload": workload, "id": i,
                    "name": name, "start": start, "end": end,
                    "parent": None if parent is None else ids[id(parent)],
                }) + "\n")
