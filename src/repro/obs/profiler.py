"""Deterministic campaign profiler: stage/cache/memory attribution + flamegraphs.

PRs 2-7 built tracing, metrics, probes, ledgers, SLOs, and a streaming
bus; this module is the last observability pillar — *profiling*: where
does a campaign's wall-clock actually go?  It attributes time along
three axes:

* **Stages / spans** — every span the :class:`~repro.obs.trace.Tracer`
  records (including the five ``BackscatterLink.transact`` stages)
  aggregates into per-stage totals and exports as flamegraphs:
  collapsed-stack text (Brendan Gregg's format, one
  ``root;child;leaf weight`` line per unique stack) and a
  speedscope-compatible evented JSON profile.
* **Caches** — :class:`~repro.perf.cache.LRUCache` times each miss's
  ``compute()`` when a profiler is enabled; hits x mean miss cost is
  the per-cache time-saved estimate.
* **Memory** — optional per-round ``tracemalloc`` snapshots (current
  and high-water bytes), marked from the reader's round tail so
  sequential and batched campaigns snapshot at identical points.

Like the tracer, probes, and bus, the profiler is **disabled by
default** and free when disabled: instrumentation sites pay one
attribute check (asserted inside the <5% disabled-overhead gate in
``benchmarks/test_perf_baseline.py``).  Process-global accessors follow
the house pattern: :func:`get_profiler` / :func:`set_profiler` /
:func:`use_profiler`.

Determinism: flamegraph exports are pure functions of the recorded
spans.  Under a :class:`~repro.obs.trace.VirtualClock` (tick > 0) every
span timestamp is a deterministic integer, so the collapsed-stack text
and the speedscope JSON are byte-identical across runs with the same
seed — asserted by ``tests/obs/test_profiler.py`` and the CI profile
determinism step.  Cache attributions are wall-clock *measurements*
and carry run-to-run jitter by nature; the reader publishes them once
per round so their stream *structure* stays deterministic.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import threading
from time import perf_counter


class CampaignProfiler:
    """Accumulates stage, cache, and memory attributions.

    Parameters
    ----------
    enabled:
        When False every ``record_*`` hook returns immediately; the
        instrumentation sites in :mod:`repro.perf` and
        :mod:`repro.net.reader` check this flag and pay nothing else.
    memory:
        Track per-round memory high-water via ``tracemalloc``.
        Tracing allocations costs real time (it hooks every allocation),
        so it is opt-in even within an enabled profiler.
    """

    def __init__(self, *, enabled: bool = True, memory: bool = False) -> None:
        self.enabled = bool(enabled)
        self.memory = bool(memory)
        self._lock = threading.Lock()
        #: Cache miss costs: name -> [count, total_s].
        self._miss_costs: dict = {}
        #: Per-round snapshots from :meth:`on_round`.
        self.round_snapshots: list = []
        #: Cumulative per-stage tracer deltas: name -> {"count","total_s"}.
        self._stages: dict = {}
        self._span_cursor = 0
        self._tracemalloc_started = False

    # -- cache attribution (called from LRUCache on misses) --------------------------

    def record_cache_miss(self, name: str, seconds: float) -> None:
        """One timed cache-miss ``compute()``."""
        if not self.enabled:
            return
        with self._lock:
            entry = self._miss_costs.setdefault(str(name), [0, 0.0])
            entry[0] += 1
            entry[1] += float(seconds)

    def cache_report(self, stats: dict) -> dict:
        """Per-cache time-saved estimates from ``{name: CacheStats}``.

        ``saved_s`` = hits x mean measured miss cost; caches whose miss
        cost was never observed while this profiler was enabled report
        a cost (and saving) of 0 rather than guessing.
        """
        with self._lock:
            costs = {k: (v[1] / v[0] if v[0] else 0.0)
                     for k, v in self._miss_costs.items()}
        out = {}
        for name in sorted(stats):
            s = stats[name]
            cost = costs.get(name, 0.0)
            out[name] = {
                "hits": s.hits,
                "misses": s.misses,
                "miss_cost_s": cost,
                "saved_s": s.hits * cost,
            }
        return out

    # -- stage attribution + per-round snapshots --------------------------------------

    def on_round(self, t: float, *, tracer=None) -> dict:
        """Merge-side round mark: fold in new spans, snapshot memory.

        Called from ``ReaderController._finish_round`` after the
        round's polls, so sequential and batched campaigns mark
        identical points.  Returns the round's JSON-ready snapshot
        (also appended to :attr:`round_snapshots`); the reader publishes
        it as a ``profile``-kind stream event when a bus is live.
        """
        if not self.enabled:
            return {}
        if tracer is None:
            from repro.obs.trace import get_tracer

            tracer = get_tracer()
        snap: dict = {"round": int(t)}
        if tracer.enabled and len(tracer.spans) > self._span_cursor:
            delta: dict = {}
            for span in tracer.spans[self._span_cursor:]:
                entry = delta.setdefault(
                    span.name, {"count": 0, "total_s": 0.0}
                )
                entry["count"] += 1
                entry["total_s"] += span.duration_s
            self._span_cursor = len(tracer.spans)
            with self._lock:
                for name, entry in delta.items():
                    total = self._stages.setdefault(
                        name, {"count": 0, "total_s": 0.0}
                    )
                    total["count"] += entry["count"]
                    total["total_s"] += entry["total_s"]
            snap["stages"] = {name: dict(delta[name]) for name in sorted(delta)}
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracemalloc_started = True
            current, peak = tracemalloc.get_traced_memory()
            snap["mem_current_b"] = int(current)
            snap["mem_peak_b"] = int(peak)
            tracemalloc.reset_peak()
        self.round_snapshots.append(snap)
        return snap

    def stage_totals(self) -> dict:
        """Cumulative ``{name: {"count", "total_s"}}`` over all rounds."""
        with self._lock:
            return {
                name: dict(entry)
                for name, entry in sorted(self._stages.items())
            }

    def memory_report(self) -> dict:
        """``{"rounds", "peak_b", "final_b"}`` over the marked rounds."""
        marks = [s for s in self.round_snapshots if "mem_peak_b" in s]
        if not marks:
            return {"rounds": 0, "peak_b": 0, "final_b": 0}
        return {
            "rounds": len(marks),
            "peak_b": max(s["mem_peak_b"] for s in marks),
            "final_b": marks[-1]["mem_current_b"],
        }

    # -- export -----------------------------------------------------------------------

    def to_metrics(self, registry, *, cache_stats: dict | None = None) -> None:
        """Export the accumulated attributions as ``pab_profile_*`` gauges."""
        for name, entry in self.stage_totals().items():
            registry.gauge("pab_profile_stage_seconds", stage=name).set(
                entry["total_s"]
            )
        if cache_stats:
            for name, entry in self.cache_report(cache_stats).items():
                registry.gauge(
                    "pab_profile_cache_saved_seconds", cache=name
                ).set(entry["saved_s"])
        mem = self.memory_report()
        if mem["rounds"]:
            registry.gauge("pab_profile_mem_peak_bytes").set(mem["peak_b"])

    # -- lifecycle --------------------------------------------------------------------

    def reset(self) -> None:
        """Drop all accumulated samples and snapshots."""
        with self._lock:
            self._miss_costs.clear()
            self._stages.clear()
        self.round_snapshots.clear()
        self._span_cursor = 0

    def close(self) -> None:
        """Stop tracemalloc if this profiler started it (idempotent)."""
        if self._tracemalloc_started:
            import tracemalloc

            if tracemalloc.is_tracing():
                tracemalloc.stop()
            self._tracemalloc_started = False


# ---------------------------------------------------------------------------
# Process-global profiler (disabled by default, like tracer/probes/bus)
# ---------------------------------------------------------------------------

_GLOBAL_PROFILER = CampaignProfiler(enabled=False)


def get_profiler() -> CampaignProfiler:
    """The process-global profiler (a disabled one until installed)."""
    return _GLOBAL_PROFILER


def set_profiler(profiler: CampaignProfiler) -> CampaignProfiler:
    """Install ``profiler`` globally; returns the previous one."""
    global _GLOBAL_PROFILER
    previous = _GLOBAL_PROFILER
    _GLOBAL_PROFILER = profiler
    return previous


@contextlib.contextmanager
def use_profiler(profiler: CampaignProfiler):
    """Temporarily install ``profiler``; closes it (tracemalloc) on exit."""
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)
        profiler.close()


# ---------------------------------------------------------------------------
# Flamegraph exports (pure functions over recorded spans)
# ---------------------------------------------------------------------------

def _span_forest(spans):
    """``(roots, children)`` from finished spans, deterministic order.

    Children sort by start time (unique under a ticking clock; span_id
    breaks wall-clock ties), so traversal order is reproducible.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict = {s.span_id: [] for s in spans}
    roots = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children[span.parent_id].append(span)
        else:
            roots.append(span)
    key = lambda s: (s.start_s, s.span_id)  # noqa: E731 - tiny sort key
    roots.sort(key=key)
    for kids in children.values():
        kids.sort(key=key)
    return roots, children


def _self_seconds(span, children) -> float:
    child_s = sum(c.duration_s for c in children[span.span_id])
    return max(span.duration_s - child_s, 0.0)


def collapsed_stacks(spans, *, scale: float = 1.0) -> str:
    """Collapsed-stack flamegraph text (``stack;frames weight`` lines).

    Each span contributes its *self* time (duration minus children) to
    its full stack path; identical paths aggregate.  Weights are
    integers — ``scale`` converts span time units to counts (use 1.0
    with a unit-tick :class:`~repro.obs.trace.VirtualClock`, ``1e6``
    for wall-clock seconds -> microseconds).  Lines sort
    lexicographically, so output is deterministic for deterministic
    spans.  Render with any ``flamegraph.pl``-compatible tool or paste
    into speedscope.
    """
    roots, children = _span_forest(spans)
    weights: dict = {}

    def visit(span, path):
        path = path + (span.name,)
        weight = int(round(_self_seconds(span, children) * scale))
        if weight > 0:
            key = ";".join(path)
            weights[key] = weights.get(key, 0) + weight
        for child in children[span.span_id]:
            visit(child, path)

    for root in roots:
        visit(root, ())
    lines = [f"{path} {weights[path]}" for path in sorted(weights)]
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(spans, *, name: str = "pab-campaign",
                        unit: str = "none") -> dict:
    """A speedscope-compatible evented profile from finished spans.

    Open/close events come from a deterministic tree traversal (never a
    raw timestamp sort), so the event stream is well-nested even when a
    wall clock hands sibling spans identical timestamps.  With a
    virtual clock the document is byte-stable across runs; its
    per-frame totals equal :meth:`Tracer.stage_totals` by construction
    (asserted in ``tests/obs/test_profiler.py``).

    ``unit`` should be ``"none"`` for virtual-clock ticks and
    ``"seconds"`` for wall-clock spans.
    """
    roots, children = _span_forest(spans)
    frame_index: dict = {}
    frames: list = []
    events: list = []

    def frame_of(span_name: str) -> int:
        if span_name not in frame_index:
            frame_index[span_name] = len(frames)
            frames.append({"name": span_name})
        return frame_index[span_name]

    def visit(span, lo: float, hi: float):
        # Clamp into the parent's interval: defensive against clock
        # skew; a no-op for well-nested virtual-clock spans.
        start = min(max(span.start_s, lo), hi)
        end = min(max(span.end_s, start), hi)
        idx = frame_of(span.name)
        events.append({"type": "O", "frame": idx, "at": start})
        for child in children[span.span_id]:
            visit(child, start, end)
        events.append({"type": "C", "frame": idx, "at": end})

    start_value = min((s.start_s for s in spans), default=0.0)
    end_value = max((s.end_s for s in spans), default=0.0)
    for root in roots:
        visit(root, start_value, end_value)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro.obs.profiler",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "evented",
            "name": name,
            "unit": unit,
            "startValue": start_value,
            "endValue": end_value,
            "events": events,
        }],
    }


def speedscope_stage_totals(doc: dict) -> dict:
    """``{frame name: total}`` from a speedscope evented document.

    Re-derives per-stage totals from the exported events (not from the
    spans that built them) so tests can assert that the flamegraph
    agrees with the tracer's own :meth:`stage_totals`.
    """
    frames = doc["shared"]["frames"]
    totals: dict = {}
    open_at: dict = {}
    for event in doc["profiles"][0]["events"]:
        name = frames[event["frame"]]["name"]
        if event["type"] == "O":
            open_at.setdefault(name, []).append(event["at"])
        else:
            start = open_at[name].pop()
            totals[name] = totals.get(name, 0.0) + (event["at"] - start)
    return totals


def write_flamegraphs(base, spans, *, scale: float = 1.0,
                      name: str = "pab-campaign",
                      unit: str = "none") -> dict:
    """Write ``BASE.collapsed.txt`` + ``BASE.speedscope.json``.

    Returns ``{"collapsed": path, "speedscope": path}``.  Both files
    are byte-deterministic for deterministic spans (sorted keys,
    compact separators, trailing newline).
    """
    base = pathlib.Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    collapsed = base.with_name(base.name + ".collapsed.txt")
    collapsed.write_text(collapsed_stacks(spans, scale=scale))
    speedscope = base.with_name(base.name + ".speedscope.json")
    doc = speedscope_document(spans, name=name, unit=unit)
    speedscope.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    )
    return {"collapsed": collapsed, "speedscope": speedscope}


# ---------------------------------------------------------------------------
# Measured stage attribution (wall + CPU dual pass)
# ---------------------------------------------------------------------------

def profile_stage_costs(run, *, repeats: int = 5, stages=None) -> dict:
    """Per-stage wall *and* CPU seconds for a repeatable workload.

    ``run(tracer)`` must execute the workload under the given tracer
    (installing it however the workload requires) and must be
    deterministic in structure — it is invoked twice on fresh tracers,
    once with a wall clock (``perf_counter``) and once with a CPU clock
    (``time.thread_time``), and the two passes' stages are joined by
    name.  Returns ``{stage: {"count", "wall_s", "cpu_s",
    "cpu_wall_ratio", "fraction"}}`` where ``fraction`` is of the
    selected stages' summed wall time.

    ``stages`` restricts the report (and the fraction denominator) to
    the named spans — pass ``BackscatterLink.STAGES`` to avoid double
    counting parents against their children; omitted, every recorded
    span name is reported.

    A stage whose CPU/wall ratio is near 1.0 burns CPU the whole time
    (python or numpy compute); far below 1.0 it sleeps or waits.
    """
    from time import thread_time

    from repro.obs.trace import Tracer

    wall_tracer = Tracer(clock=perf_counter)
    for _ in range(repeats):
        run(wall_tracer)
    cpu_tracer = Tracer(clock=thread_time)
    for _ in range(repeats):
        run(cpu_tracer)
    wall = wall_tracer.stage_totals()
    cpu = cpu_tracer.stage_totals()
    names = list(stages) if stages is not None else list(wall)
    total_wall = sum(
        wall.get(n, {}).get("total_s", 0.0) for n in names
    ) or 1.0
    out = {}
    for stage in names:
        entry = wall.get(stage, {"count": 0, "total_s": 0.0})
        wall_s = entry["total_s"] / repeats
        cpu_s = cpu.get(stage, {}).get("total_s", 0.0) / repeats
        out[stage] = {
            "count": entry["count"] / repeats,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "cpu_wall_ratio": (cpu_s / wall_s) if wall_s else 0.0,
            "fraction": entry["total_s"] / total_wall,
        }
    return out
