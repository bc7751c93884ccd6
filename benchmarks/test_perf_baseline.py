"""Perf baseline: per-stage timings of the PAB stack, seeding BENCH_obs.json.

This is the measurement substrate's own benchmark — the first entry in
the repo's performance trajectory.  It records:

1. **Canonical link transaction** — wall-clock of one full
   ``BackscatterLink.transact()`` with tracing disabled (the production
   hot path) and with tracing enabled, plus the per-stage breakdown
   from the enabled trace.
2. **No-op overhead** — the measured cost of a disabled-tracer span
   check *plus* a disabled-probe ``wants()`` check *plus* a
   disabled-ledger firmware hook *plus* a disabled-telemetry-bus
   publish *plus* a disabled anomaly-analytics round gate, scaled by
   the per-transaction instrumentation-site counts, asserted to be <5%
   of a transaction (the overhead policy in ``docs/OBSERVABILITY.md``;
   in practice it is orders of magnitude below the bound).
3. **A 10-node polling round** through the full
   :class:`~repro.net.reader.ReaderController` stack with metrics and
   event-log binding live.

Results append to ``BENCH_obs.json`` at the repo root so future perf
PRs can show their before/after honestly, and a CSV lands in
``benchmarks/results/`` alongside the figure reproductions.  Before
appending, the run is compared against the last committed record with
the same smoke mode: any stage slower by >25% draws a *warning* (not a
failure — CI machines are noisy), and every run appends a row per
stage to ``benchmarks/results/perf_trend.csv`` so the trajectory is
greppable.

Smoke mode (``OBS_SMOKE=1``, used by CI) cuts repetitions and swaps the
waveform links in the polling round for fast deterministic stubs.
"""

from __future__ import annotations

import csv
import json
import os
import pathlib
import statistics
import warnings
from time import perf_counter

from conftest import RESULTS_DIR, run_once

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_obs.json"
TREND_PATH = RESULTS_DIR / "perf_trend.csv"
SMOKE = os.environ.get("OBS_SMOKE") == "1"

#: Per-stage slowdown vs the committed baseline that draws a warning.
REGRESSION_WARN_FRACTION = 0.25


def _canonical_link(tracer=None, metrics=None):
    from repro.acoustics import POOL_A, Position
    from repro.core import BackscatterLink, Projector
    from repro.node.node import PABNode
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    projector = Projector(
        transducer=transducer, drive_voltage_v=50.0, carrier_hz=f
    )
    node = PABNode(address=7, channel_frequencies_hz=(f,), bitrate=1_000.0)
    return BackscatterLink(
        POOL_A, projector, Position(0.5, 1.5, 0.6),
        node, Position(1.5, 1.5, 0.6), Position(1.0, 0.8, 0.6),
        tracer=tracer, metrics=metrics,
    )


def _time_transactions(reps: int, tracer=None, metrics=None) -> list:
    from repro.net.messages import Command, Query

    times = []
    for _ in range(reps):
        link = _canonical_link(tracer=tracer, metrics=metrics)
        query = Query(destination=7, command=Command.PING)
        t0 = perf_counter()
        result = link.transact(query)
        times.append(perf_counter() - t0)
        assert result.success, "canonical transaction must decode"
    return times


def _noop_span_cost_s() -> float:
    """Per-call cost of a span on a disabled tracer (the hot-path tax)."""
    from repro.obs import Tracer

    tracer = Tracer(enabled=False)
    n = 20_000 if SMOKE else 200_000
    t0 = perf_counter()
    for _ in range(n):
        with tracer.span("noop", x=1):
            pass
    return (perf_counter() - t0) / n


def _polling_round(n_nodes: int):
    """One metered polling round; returns (seconds, reader, mode)."""
    from repro.net.messages import Command
    from repro.net.reader import ReaderController
    from repro.obs import MetricsRegistry

    if SMOKE:
        # Deterministic stub transports: the round still exercises the
        # MAC/health/metrics plumbing without waveform cost.
        class _StubResult:
            success = False
            demod = None

        def make_transact(addr):
            def transact(query):
                return _StubResult()
            return transact

        transports = {addr: make_transact(addr) for addr in range(1, n_nodes + 1)}
        mode = "stub"
    else:
        links = {
            addr: _canonical_link() for addr in range(1, n_nodes + 1)
        }
        for link in links.values():
            link.node.force_power(True)
        transports = {addr: link.transact for addr, link in links.items()}
        mode = "waveform"

    metrics = MetricsRegistry()
    reader = ReaderController(transports, max_retries=0, metrics=metrics)
    t0 = perf_counter()
    reader.poll_round(Command.PING)
    return perf_counter() - t0, reader, metrics, mode


def _noop_probe_cost_s() -> float:
    """Per-call cost of a disabled-probe ``wants()`` check."""
    from repro.obs import ProbeRegistry

    probes = ProbeRegistry(enabled=False)
    n = 20_000 if SMOKE else 200_000
    t0 = perf_counter()
    for _ in range(n):
        probes.wants("link.node")
    return (perf_counter() - t0) / n


#: Disabled-ledger check sites a transaction hits: firmware boot,
#: downlink-decode exit, query->RESPONDING, response_sent.
LEDGER_SITES_PER_TRANSACTION = 4

#: Disabled-bus sites a transaction hits: the event-log record check
#: and the tracer span-close check.  (The reader's per-round publish
#: block is guarded by one more ``bus.enabled`` check per round, which
#: this count dominates at >=1 transaction per round.)
BUS_SITES_PER_TRANSACTION = 2


def _noop_bus_cost_s() -> float:
    """Per-call cost of publishing to the disabled telemetry bus.

    The global bus ships disabled; ``publish()`` short-circuits on one
    attribute check.  Measuring the full call (not just the check) is
    the conservative bound on what producers pay per site.
    """
    from repro.obs import get_bus

    bus = get_bus()
    assert not bus.enabled, "perf baseline requires the default disabled bus"
    n = 20_000 if SMOKE else 200_000
    t0 = perf_counter()
    for _ in range(n):
        bus.publish("event", t=0.0, node=1, source="bench", data=None)
    return (perf_counter() - t0) / n


#: Anomaly-analytics check sites per transaction: the reader's
#: ``analytics is None``/``analytics.enabled`` gate runs once per round,
#: so one per transaction is the conservative (>=1 transaction/round)
#: bound.
ANALYTICS_SITES_PER_TRANSACTION = 1


def _noop_analytics_cost_s() -> float:
    """Per-call cost of the reader's disabled-analytics round gate.

    Campaigns without an :class:`~repro.obs.analytics.AnomalyMonitor`
    pay one ``is None`` check per round; campaigns with a disabled
    monitor pay one extra attribute check.  Measure the latter — the
    more expensive of the two short-circuits.
    """
    from repro.obs import AnomalyMonitor

    analytics = AnomalyMonitor(enabled=False)
    n = 20_000 if SMOKE else 200_000
    t0 = perf_counter()
    for _ in range(n):
        if analytics is not None and analytics.enabled:
            raise AssertionError("unreachable")
    return (perf_counter() - t0) / n


def _noop_ledger_cost_s() -> float:
    """Per-call cost of the no-ledger firmware hook (an ``is None``)."""
    from repro.net.addresses import NodeAddress
    from repro.node.firmware import FirmwareConfig, NodeFirmware

    firmware = NodeFirmware(FirmwareConfig(address=NodeAddress(1)))
    n = 20_000 if SMOKE else 200_000
    t0 = perf_counter()
    for _ in range(n):
        firmware._sync_ledger()
    return (perf_counter() - t0) / n


def _load_history() -> list:
    if not BENCH_PATH.exists():
        return []
    try:
        history = json.loads(BENCH_PATH.read_text())
    except (ValueError, OSError):
        return []
    return history if isinstance(history, list) else [history]


def _append_bench(record: dict) -> None:
    history = _load_history()
    history.append(record)
    BENCH_PATH.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def _baseline_record(history: list, smoke: bool):
    """The most recent committed record with the same smoke mode."""
    for record in reversed(history):
        if record.get("benchmark") == "obs_perf_baseline" and (
            bool(record.get("smoke")) == smoke
        ):
            return record
    return None


def _warn_regressions(baseline, per_stage: dict) -> list:
    """Warn (never fail) on >25% per-stage slowdowns vs the baseline.

    Timing on shared CI machines is noisy, so a regression here is a
    prompt to look at the trend history, not a red build.
    """
    flagged = []
    if baseline is None:
        return flagged
    base_stages = baseline.get("per_stage_s", {})
    for name, entry in per_stage.items():
        base = base_stages.get(name, {}).get("total_s")
        if not base or base <= 0:
            continue
        slowdown = entry["total_s"] / base - 1.0
        if slowdown > REGRESSION_WARN_FRACTION:
            flagged.append((name, slowdown))
            warnings.warn(
                f"perf regression: stage {name} is {slowdown:.0%} slower "
                f"than the committed baseline ({entry['total_s']:.4g}s vs "
                f"{base:.4g}s); see {TREND_PATH.name}",
                stacklevel=2,
            )
    return flagged


def _append_trend(run_index: int, smoke: bool, per_stage: dict,
                  mean_off: float, mean_on: float) -> None:
    """One row per stage into the cumulative trend CSV."""
    RESULTS_DIR.mkdir(exist_ok=True)
    new_file = not TREND_PATH.exists()
    with TREND_PATH.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(
                ("run", "smoke", "stage", "count", "total_s",
                 "transact_disabled_s", "transact_enabled_s")
            )
        for name in sorted(per_stage):
            entry = per_stage[name]
            writer.writerow(
                (run_index, int(smoke), name, entry["count"],
                 f"{entry['total_s']:.6g}", f"{mean_off:.6g}",
                 f"{mean_on:.6g}")
            )


def test_perf_baseline(benchmark, report):
    from repro.core.experiment import ExperimentTable
    from repro.core.link import BackscatterLink
    from repro.obs import (
        MetricsRegistry, ProbeRegistry, Tracer, use_probes, use_tracer,
    )

    reps = 1 if SMOKE else 3

    # The committed history, read *before* this run appends to it: the
    # regression check compares against what the repo shipped with.
    baseline = _baseline_record(_load_history(), SMOKE)

    # 1. Hot path: tracing disabled (the global tracer defaults to a
    # disabled one, so this is what every pre-existing caller pays).
    times_off = run_once(benchmark, _time_transactions, reps)
    mean_off = statistics.mean(times_off)

    # 2. Traced + metered + probed run for the per-stage breakdown
    # (probes on to count the taps a fully instrumented exchange captures).
    tracer = Tracer()
    metrics = MetricsRegistry()
    probes = ProbeRegistry()
    with use_tracer(tracer), use_probes(probes):
        times_on = _time_transactions(reps, tracer=tracer, metrics=metrics)
    mean_on = statistics.mean(times_on)
    stages = tracer.stage_totals()
    for stage in BackscatterLink.STAGES:
        assert stage in stages, f"trace missing stage {stage}"
    taps_per_transaction = len(probes.taps) / reps
    assert taps_per_transaction >= len(BackscatterLink.STAGES), (
        "a probed transaction must tap every link stage"
    )

    # 3. Disabled-mode overhead: instrumentation sites * no-op cost,
    # relative to the transaction itself.  Spans and probe captures both
    # count — the <5% acceptance bound covers the whole observability
    # surface when it is switched off.  Generous by orders of magnitude;
    # assert it anyway so a future regression (e.g. work on the disabled
    # path) fails loudly.
    spans_per_transaction = len(tracer.spans) / reps
    noop_cost = _noop_span_cost_s()
    noop_probe_cost = _noop_probe_cost_s()
    noop_ledger_cost = _noop_ledger_cost_s()
    noop_bus_cost = _noop_bus_cost_s()
    noop_analytics_cost = _noop_analytics_cost_s()
    disabled_overhead = (
        spans_per_transaction * noop_cost
        + taps_per_transaction * noop_probe_cost
        + LEDGER_SITES_PER_TRANSACTION * noop_ledger_cost
        + BUS_SITES_PER_TRANSACTION * noop_bus_cost
        + ANALYTICS_SITES_PER_TRANSACTION * noop_analytics_cost
    ) / mean_off
    assert disabled_overhead < 0.05, (
        f"disabled observability costs {disabled_overhead:.2%} of a transaction"
    )

    # 4. The 10-node polling round through the reader stack.
    round_s, reader, round_metrics, round_mode = _polling_round(10)
    assert round_metrics.value("pab_reader_rounds_total") == 1.0

    per_stage = {
        name: {
            "count": entry["count"] / reps,
            "total_s": entry["total_s"] / reps,
        }
        for name, entry in stages.items()
    }

    # Regression check against the committed baseline (warn, don't fail)
    # and the cumulative per-stage trend history.
    regressions = _warn_regressions(baseline, per_stage)
    run_index = len(_load_history())
    _append_trend(run_index, SMOKE, per_stage, mean_off, mean_on)

    _append_bench({
        "benchmark": "obs_perf_baseline",
        "smoke": SMOKE,
        "reps": reps,
        "transact_disabled_s": mean_off,
        "transact_enabled_s": mean_on,
        "tracing_overhead_fraction": (mean_on - mean_off) / mean_off,
        "noop_span_cost_s": noop_cost,
        "noop_probe_cost_s": noop_probe_cost,
        "noop_ledger_cost_s": noop_ledger_cost,
        "noop_bus_cost_s": noop_bus_cost,
        "noop_analytics_cost_s": noop_analytics_cost,
        "ledger_sites_per_transaction": LEDGER_SITES_PER_TRANSACTION,
        "bus_sites_per_transaction": BUS_SITES_PER_TRANSACTION,
        "analytics_sites_per_transaction": ANALYTICS_SITES_PER_TRANSACTION,
        "spans_per_transaction": spans_per_transaction,
        "taps_per_transaction": taps_per_transaction,
        "disabled_overhead_fraction": disabled_overhead,
        "regressions_vs_baseline": [
            {"stage": name, "slowdown_fraction": slowdown}
            for name, slowdown in regressions
        ],
        "per_stage_s": per_stage,
        "polling_round": {
            "nodes": 10,
            "mode": round_mode,
            "seconds": round_s,
            "attempts": round_metrics.value("pab_mac_attempts_total"),
        },
    })

    table = ExperimentTable(
        title="Perf baseline: per-stage timings (one transaction)",
        columns=("stage", "count", "total_s", "fraction"),
    )
    for name, entry in per_stage.items():
        table.add_row(
            name, entry["count"], entry["total_s"], entry["total_s"] / mean_on
        )
    table.add_row("transact_disabled", 1, mean_off, mean_off / mean_on)
    table.add_row(f"polling_round_10x_{round_mode}", 1, round_s, float("nan"))
    report(table, "perf_baseline.csv")
