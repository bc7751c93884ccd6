"""Command-line interface: ``python -m repro <command>``.

Lets a user drive the reproduction without writing code:

* ``demo``     — run the quickstart link exchange and print the outcome.
* ``trace``    — run one traced exchange and emit the JSONL span trace;
  ``--flame-out`` also writes its collapsed-stack and speedscope
  flamegraphs.
* ``probe``    — run one probed exchange; dump taps (``.npz``) and any
  decode post-mortem (JSONL).
* ``postmortem`` — render decode post-mortems from a JSONL dump.
* ``energy``   — run one node's ledgered energy simulation; print the
  joule books and duty cycle, dump the SoC time series with ``--out``.
* ``fleet-report`` — run a seeded multi-node chaos campaign with energy
  ledgers + SLO tracking; print energy balances, duty cycles, and the
  SLO burn-rate table; dump the campaign timeline as CSV/JSONL.
  ``--checkpoint-every``/``--checkpoint-dir`` write periodic campaign
  checkpoints; ``--kill-at ROUND:NODE`` arms a fatal worker kill
  (exit code 3, the crash-drill half of the kill-resume proof).
* ``resume`` — restore a ``fleet-report`` checkpoint and run the
  campaign to completion; the report/digest is byte-identical to an
  uninterrupted run.  ``--stream-out`` appends the resumed rounds to
  the interrupted run's telemetry stream.
* ``tail`` — render a ``--stream-out`` telemetry stream: one line per
  round (delivery, SoC, SLO burn, health churn), live with
  ``--follow``; rebuilds the exact campaign timeline from the stream.
* ``bench``    — uncached vs cached vs batch campaign benchmark with
  the perf-regression gate (``--compare``).
* ``fig3``     — print the recto-piezo tuning curves.
* ``fig7``     — print the BER-SNR table.
* ``fig8``     — print the SNR-vs-bitrate table (waveform level; slower).
* ``fig9``     — print the power-up-range tables for both pools.
* ``fig11``    — print the node power budget.
* ``envs``     — list deployment-environment presets with derived numbers.
* ``coverage`` — ASCII power-up coverage map of a tank.

Output discipline: diagnostic/status lines go through a
``logging``-backed writer (:func:`_emit`) controlled by the global
``-v``/``--log-level`` flags; tables and machine-readable artifacts
(CSV via ``--out``, the JSONL trace) always go to stdout or their file
regardless of log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import pathlib
import sys

import numpy as np

#: Logger behind every human-facing status line the CLI prints.
_LOG = logging.getLogger("repro.cli")

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def _emit(message: str = "") -> None:
    """A user-facing status line, routed through logging (INFO)."""
    _LOG.info("%s", message)


def _debug(message: str) -> None:
    _LOG.debug("%s", message)


def _table(text: str) -> None:
    """A table / primary artifact: always to stdout, whatever the level."""
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _configure_logging(args) -> None:
    """Wire the ``repro`` logger to stdout at the requested level.

    ``-v`` lowers the threshold to DEBUG; ``--log-level`` sets it
    explicitly (``-v`` wins when both are given).  Handlers are
    replaced, not appended, so repeated ``main()`` calls (tests) don't
    multiply output.
    """
    level = _LEVELS[args.log_level]
    if args.verbose:
        level = logging.DEBUG
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False


def _ensure_parent(path) -> pathlib.Path:
    """Create an output path's missing parent directories.

    ``repro fig7 --out results/new_dir/fig7.csv`` should make the
    directory, not die on ``FileNotFoundError``.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_table(args, table, *, suffix: str | None = None) -> None:
    """Print a table; mirror it as CSV when ``--out`` was given.

    ``suffix`` disambiguates commands that emit several tables (fig9's
    two pools): it is inserted before the extension.
    """
    _table(table.to_text())
    out = getattr(args, "out", None)
    if not out:
        return
    from repro.obs.export import write_csv

    path = pathlib.Path(out)
    if suffix:
        path = path.with_name(f"{path.stem}_{suffix}{path.suffix or '.csv'}")
    write_csv(_ensure_parent(path), table.columns, table.rows)
    _emit(f"wrote {path}")


def _demo_link(distance: float, drive: float, bitrate: float,
               tracer=None, metrics=None, noise_db: float | None = None):
    """The canonical single-node Pool-A link the demo/trace commands run.

    ``noise_db`` overrides the ambient-noise floor (flat spectrum,
    seeded) — the ``probe`` command uses it to demonstrate decode
    failures on demand.
    """
    from repro.acoustics import POOL_A, Position
    from repro.acoustics.noise import AmbientNoiseModel
    from repro.core import BackscatterLink, Projector
    from repro.node.node import PABNode
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    projector = Projector(
        transducer=transducer, drive_voltage_v=drive, carrier_hz=f
    )
    node = PABNode(address=7, channel_frequencies_hz=(f,), bitrate=bitrate)
    noise = None
    if noise_db is not None:
        noise = AmbientNoiseModel(spectrum="flat", flat_level_db=noise_db, seed=0)
    return BackscatterLink(
        POOL_A, projector, Position(0.5, 1.5, 0.6),
        node, Position(0.5 + distance, 1.5, 0.6), Position(1.0, 0.8, 0.6),
        tracer=tracer, metrics=metrics, noise=noise,
    )


def _cmd_demo(args) -> int:
    from repro.net.messages import Command, Query

    link = _demo_link(args.distance, args.drive, args.bitrate)
    result = link.run_query(Query(destination=7, command=Command.PING))
    _emit(f"powered up:    {result.powered_up}")
    _emit(f"query decoded: {result.query_decoded}")
    _emit(f"reply decoded: {result.success}")
    if result.success:
        _emit(f"SNR: {result.snr_db:.1f} dB   BER: {result.ber:.4f}")
    return 0 if result.success else 1


def _cmd_trace(args) -> int:
    """One traced link exchange; JSONL spans to stdout or ``--out``.

    ``--flame-out BASE`` also writes the exchange's spans as
    ``BASE.collapsed.txt`` (self time in whole microseconds) and
    ``BASE.speedscope.json`` (wall-clock seconds).
    """
    from repro.net.messages import Command, Query
    from repro.obs import (
        MetricsRegistry, Tracer, metrics_to_prometheus, spans_to_jsonl,
        stage_table, use_tracer, write_flamegraphs, write_spans_jsonl,
    )

    tracer = Tracer()
    metrics = MetricsRegistry()
    link = _demo_link(
        args.distance, args.drive, args.bitrate, tracer=tracer, metrics=metrics
    )
    # Install globally too so node-firmware and MAC spans nest under
    # the link's stages.
    with use_tracer(tracer):
        result = link.transact(Query(destination=7, command=Command.PING))
    if args.out:
        path = write_spans_jsonl(_ensure_parent(args.out), tracer.spans)
        _emit(f"wrote {len(tracer.spans)} spans to {path}")
    else:
        _table(spans_to_jsonl(tracer.spans))
    if args.flame_out:
        paths = write_flamegraphs(
            _ensure_parent(args.flame_out), tracer.spans, scale=1e6,
            name="pab trace", unit="seconds",
        )
        _emit(f"wrote {paths['collapsed']} and {paths['speedscope']}")
    _emit("")
    _emit(f"reply decoded: {result.success}")
    _table(stage_table(tracer).to_text())
    if args.metrics_out:
        _ensure_parent(args.metrics_out).write_text(metrics_to_prometheus(metrics))
        _emit(f"wrote metrics exposition to {args.metrics_out}")
    return 0 if result.success else 1


def _cmd_probe(args) -> int:
    """One probed exchange: signal taps to ``.npz``, autopsy to JSONL."""
    from repro.net.messages import Command, Query
    from repro.obs import ProbeRegistry, use_probes, write_postmortems_jsonl

    probes = ProbeRegistry(max_samples=args.max_samples)
    link = _demo_link(
        args.distance, args.drive, args.bitrate, noise_db=args.noise_db
    )
    with use_probes(probes):
        result = link.transact(Query(destination=7, command=Command.PING))
    _emit(f"reply decoded: {result.success}")
    _emit(f"captured {len(probes.taps)} taps:")
    for tap in probes.taps:
        _emit(
            f"  {tap.stage}/{tap.name}: {tap.samples} samples "
            f"(decimation {tap.decimation})"
        )
    if args.out:
        path = probes.to_npz(args.out)
        _emit(f"wrote taps to {path}")
    if result.postmortem is not None:
        _table(result.postmortem.render())
    if args.postmortem_out:
        path = write_postmortems_jsonl(args.postmortem_out, probes.postmortems)
        _emit(f"wrote {len(probes.postmortems)} post-mortem(s) to {path}")
    return 0 if result.success else 1


def _cmd_postmortem(args) -> int:
    """Render decode post-mortems from a JSONL dump."""
    from repro.obs import load_postmortems_jsonl

    postmortems = load_postmortems_jsonl(args.path)
    if not postmortems:
        _emit(f"no post-mortems in {args.path}")
        return 1
    for i, pm in enumerate(postmortems):
        if i:
            _table("")
        _table(pm.render())
    return 0


def _cmd_energy(args) -> int:
    """One node's energy life under polling, with the ledger attached."""
    from repro.circuits import EnergyHarvester
    from repro.core.experiment import ExperimentTable
    from repro.obs import NodeEnergyHarness
    from repro.obs.export import write_csv
    from repro.obs.timeline import soc_rows
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    harvester = EnergyHarvester(transducer, design_frequency_hz=f)
    v_oc, r_out = harvester.charging_source(args.pressure, f)
    _emit(
        f"charging source at {args.pressure:g} Pa: "
        f"{v_oc:.2f} V open-circuit, {r_out:.0f} ohm"
    )
    harness = NodeEnergyHarness(
        args.node,
        v_oc_v=v_oc,
        r_out_ohm=r_out,
        poll_period_s=args.poll_period,
        bitrate=args.bitrate,
        initial_voltage_v=args.start_voltage,
    )
    for r in range(args.rounds):
        harness.on_poll_round(float(r), polled=True, success=True)
    summary = harness.summary()
    error_pct = 100.0 * abs(summary["error_fraction"])
    table = ExperimentTable(
        title=f"Energy ledger: node {args.node}, {args.rounds} rounds",
        columns=("quantity", "value"),
    )
    table.add_row("harvested_j", summary["harvested_j"])
    table.add_row("consumed_j", summary["consumed_j"])
    table.add_row("leaked_j", summary["leaked_j"])
    table.add_row("clamped_j", summary["clamped_j"])
    table.add_row("stored_delta_j", summary["stored_delta_j"])
    table.add_row("conservation_error_pct", error_pct)
    table.add_row("soc_v", summary["soc_v"])
    table.add_row("min_voltage_v", summary["min_voltage_v"])
    table.add_row("brownout_margin_v", summary["brownout_margin_v"])
    table.add_row("brownouts", summary["brownouts"])
    _table(table.to_text())
    duty = ExperimentTable(
        title="Duty cycle by power state",
        columns=("state", "fraction"),
    )
    for state, fraction in summary["duty_cycle"].items():
        duty.add_row(state, fraction)
    _table(duty.to_text())
    if args.out:
        path = write_csv(
            _ensure_parent(args.out),
            ("node", "t_s", "soc_v"),
            soc_rows({args.node: harness}),
        )
        _emit(f"wrote SoC time series to {path}")
    return 0 if error_pct < 1.0 else 1


class _StubDemod:
    """The demodulation half of a stub transport's result."""

    def __init__(self, packet):
        self.packet = packet
        self.success = True


class _StubResult:
    """A stub transport's link result: the reply's packet, delivered."""

    def __init__(self, packet):
        self.success = True
        self.demod = _StubDemod(packet)


def _build_chaos_fleet(n_nodes: int, seed: int, log, inject_noise=None):
    """Seeded stub transports + injectors + energy harnesses for
    ``fleet-report``: a deterministic miniature of a deployed fleet
    (clean nodes, a noisy patch, brownouts, a flaky transport, and one
    energy-starved node).

    ``inject_noise`` is an optional ``(node, start, duration)`` extra
    fault schedule: that node's transport gets an additional seeded
    noise burst on top of its role injector — the knob the drift gate
    and the docs' worked example use to produce a divergent campaign
    with a known stage/taxonomy signature.
    """
    from repro.faults import (
        BrownoutInjector,
        NoiseBurstInjector,
        TransportExceptionInjector,
    )
    from repro.net import Command, Response
    from repro.obs import NodeEnergyHarness

    def stub(address):
        def transact(query):
            if query.command is Command.READ_TEMPERATURE:
                raw = int((18.0 + address) * 100.0 + 10_000)
                data = bytes([(raw >> 8) & 0xFF, raw & 0xFF])
                response = Response(
                    source=address, command=query.command, data=data
                )
            else:
                response = Response(source=address, command=query.command)
            return _StubResult(response.to_packet())

        return transact

    transports = {}
    harnesses = {}
    for addr in range(1, n_nodes + 1):
        inner = stub(addr)
        role = addr % 4
        if role == 1:
            inner = NoiseBurstInjector(
                inner, start=3 + addr, duration=5, node=addr, log=log,
                seed=seed + addr,
            )
        elif role == 2:
            inner = BrownoutInjector(
                inner, at=2 + addr % 3, dark_for=16, node=addr, log=log,
                seed=seed + addr,
            )
        elif role == 3:
            inner = TransportExceptionInjector(
                inner, at=(4, 9 + addr), node=addr, log=log, seed=seed + addr
            )
        if inject_noise is not None and addr == int(inject_noise[0]):
            inner = NoiseBurstInjector(
                inner, start=int(inject_noise[1]),
                duration=int(inject_noise[2]), node=addr, log=log,
                seed=seed + 7000 + addr,
            )
        transports[addr] = inner
        # Harvest diversity: most nodes comfortable, the last one
        # energy-starved (equilibrium below the LDO dropout) so the
        # energy objective actually burns budget.
        v_oc = 1.9 if addr == n_nodes else 3.4 + 0.15 * (addr % 5)
        harnesses[addr] = NodeEnergyHarness(
            addr, v_oc_v=v_oc, r_out_ohm=4.0e3, initial_voltage_v=3.0
        )
    return transports, harnesses


def _parse_kill_at(spec: str) -> tuple[int, int]:
    """``ROUND:NODE`` -> ``(round, node)``; the node accepts ``0x`` hex."""
    round_s, sep, node_s = spec.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(round_s), int(node_s, 0)
    except ValueError:
        raise ValueError(
            f"bad --kill-at spec {spec!r}; expected ROUND:NODE"
        ) from None


def _parse_inject_noise(spec: str) -> tuple[int, int, int]:
    """``NODE:START:DURATION`` -> ``(node, start_round, duration)``."""
    try:
        node_s, start_s, duration_s = spec.split(":")
        return int(node_s, 0), int(start_s), int(duration_s)
    except ValueError:
        raise ValueError(
            f"bad --inject-noise spec {spec!r}; expected NODE:START:DURATION"
        ) from None


def _make_chaos_reader(nodes: int, seed: int, window: int, inject_noise=None):
    """The seeded campaign stack ``fleet-report`` runs.

    Factored out so ``repro resume`` can rebuild the exact same fleet
    from a checkpoint's campaign metadata before restoring state.
    Returns ``(reader, log, metrics, harnesses)``; the fleet is *not*
    configured here (the configure polls' effects live inside a
    checkpoint, so resume must not replay them).

    The reader carries an :class:`~repro.obs.analytics.AnomalyMonitor`
    (as ``reader.analytics``): every chaos campaign watches its own
    per-round series and streams ``anomaly`` envelopes.  Detector
    state checkpoints with the rest of the campaign, so resumed runs
    flag the identical anomaly sequence.
    """
    from repro.faults import EventLog
    from repro.net import HealthPolicy, ReaderController, RetryPolicy
    from repro.obs import (
        AnomalyMonitor, MetricsRegistry, SLOTracker, set_build_info,
    )

    log = EventLog()
    transports, harnesses = _build_chaos_fleet(
        nodes, seed, log, inject_noise=inject_noise
    )
    slo = SLOTracker(window=window)
    metrics = MetricsRegistry()
    # Registered here (not per-command) so every command that builds
    # this fleet -- fleet-report, resume -- carries the identical
    # pab_build_info sample and campaign digests stay byte-identical.
    set_build_info(metrics)
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.1, jitter=0.25, seed=seed
        ),
        health_policy=HealthPolicy(
            degrade_after=2, quarantine_after=4, recover_after=2,
            probe_backoff_rounds=2,
        ),
        log=log,
        metrics=metrics,
        ledgers=harnesses,
        slo=slo,
        analytics=AnomalyMonitor(),
    )
    return reader, log, metrics, harnesses


def _cmd_fleet_report(args) -> int:
    """Chaos campaign with ledgers + SLO tracking; fleet health report.

    With ``--stream-out`` the campaign publishes its telemetry
    incrementally to a JSONL stream (plus an in-memory flight
    recorder, dumped next to the checkpoints on a fatal abort); the
    stream replays through ``repro tail`` to the exact end-of-run
    timeline and SLO numbers.  ``--serve-port`` additionally serves
    live Prometheus snapshots of the campaign metrics over HTTP.
    """
    bus = None
    prev_bus = None
    if args.stream_out:
        from repro.obs.recorder import FlightRecorder
        from repro.obs.stream import (
            JsonlStreamSink, TelemetryBus, get_bus, set_bus,
        )

        stream_path = _ensure_parent(args.stream_out)
        # A fresh campaign owns its stream file; only `repro resume`
        # appends to an existing one.
        stream_path.unlink(missing_ok=True)
        bus = TelemetryBus(
            sinks=[JsonlStreamSink(stream_path), FlightRecorder()]
        )
        prev_bus = get_bus()
        set_bus(bus)
    try:
        return _run_fleet_report(args, bus)
    finally:
        if bus is not None:
            from repro.obs.stream import set_bus

            set_bus(prev_bus)
            bus.close()
            stats = bus.flush_stats()
            _emit(
                f"wrote telemetry stream to {args.stream_out} "
                f"({bus.seq} events, p99 flush {stats['p99_s'] * 1e3:.2f} ms)"
            )


def _run_fleet_report(args, bus) -> int:
    from repro.core.experiment import ExperimentTable
    from repro.net import Command
    from repro.obs import metrics_to_prometheus
    from repro.obs.timeline import (
        build_timeline, render_timeline, write_timeline_csv,
        write_timeline_jsonl,
    )
    from repro.resilience import (
        CampaignAbort, campaign_digest, install_worker_crash,
        latest_checkpoint,
    )

    if args.checkpoint_every and not args.checkpoint_dir:
        _emit("--checkpoint-every requires --checkpoint-dir")
        return 2
    inject_noise = None
    if args.inject_noise:
        try:
            inject_noise = _parse_inject_noise(args.inject_noise)
        except ValueError as exc:
            _emit(str(exc))
            return 2
        _emit(
            f"injecting extra noise burst: node {inject_noise[0]}, "
            f"rounds {inject_noise[1]}..{inject_noise[1] + inject_noise[2] - 1}"
        )
    reader, log, metrics, harnesses = _make_chaos_reader(
        args.nodes, args.seed, args.window, inject_noise=inject_noise
    )
    for addr in sorted(reader.nodes):
        reader.set_bitrate(addr, 2_000.0)
    if args.kill_at:
        try:
            kill_round, kill_node = _parse_kill_at(args.kill_at)
        except ValueError as exc:
            _emit(str(exc))
            return 2
        install_worker_crash(
            reader, kill_node, rounds=(kill_round,), fatal=True
        )
        _emit(f"armed fatal worker kill at round {kill_round}, node {kill_node}")
    _emit(
        f"{args.nodes} nodes configured; running {args.rounds} chaos rounds "
        f"(seed {args.seed})"
    )
    campaign_meta = {
        "builder": "chaos-fleet",
        "params": {
            "nodes": args.nodes, "seed": args.seed, "window": args.window,
        },
        "command": "READ_TEMPERATURE",
        "rounds": args.rounds,
    }
    if inject_noise is not None:
        # Only present when used: fault-free campaign metadata (and
        # the checkpoints carrying it) stays byte-identical to
        # pre-inject-noise builds.
        campaign_meta["params"]["inject_noise"] = list(inject_noise)
    if bus is not None:
        from repro import __version__

        bus.publish(
            "stream_start", source="cli",
            data={"campaign": campaign_meta, "version": __version__},
        )
        bus.flush()
    server = None
    if args.serve_port is not None:
        from repro.obs.stream import MetricsSnapshotServer

        server = MetricsSnapshotServer(metrics, port=args.serve_port)
        port = server.start()
        _emit(f"metrics snapshot endpoint: http://127.0.0.1:{port}/metrics")
    try:
        report = reader.run_campaign(
            Command.READ_TEMPERATURE,
            rounds=args.rounds,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            campaign=campaign_meta,
        )
    except CampaignAbort as exc:
        _emit(f"campaign aborted: {exc}")
        if reader.last_recorder_dump is not None:
            _emit(f"flight recorder dumped to {reader.last_recorder_dump}")
        if args.checkpoint_dir:
            latest = latest_checkpoint(args.checkpoint_dir)
            if latest is not None:
                _emit(f"latest checkpoint: {latest}")
            else:
                _emit("no checkpoint was written before the crash")
        return 3
    finally:
        if server is not None:
            server.stop()

    balance = ExperimentTable(
        title="Per-node energy balance",
        columns=("node", "harvested_j", "consumed_j", "leaked_j",
                 "clamped_j", "error_pct", "soc_v", "margin_v", "brownouts"),
    )
    worst_error = 0.0
    for addr, summary in report["energy"].items():
        error_pct = 100.0 * abs(summary["error_fraction"])
        worst_error = max(worst_error, error_pct)
        balance.add_row(
            addr, summary["harvested_j"], summary["consumed_j"],
            summary["leaked_j"], summary["clamped_j"], error_pct,
            summary["soc_v"], summary["brownout_margin_v"],
            summary["brownouts"],
        )
    _table(balance.to_text())

    duty = ExperimentTable(
        title="Duty cycle by power state",
        columns=("node", "cold", "idle", "decoding", "backscatter", "sensing"),
    )
    for addr, summary in report["energy"].items():
        cycle = summary["duty_cycle"]
        duty.add_row(
            addr, cycle.get("cold", 0.0), cycle.get("idle", 0.0),
            cycle.get("decoding", 0.0), cycle.get("backscatter", 0.0),
            cycle.get("sensing", 0.0),
        )
    _table(duty.to_text())

    slo_table = ExperimentTable(
        title="SLO error budgets and burn rates",
        columns=("scope", "objective", "target", "compliance",
                 "budget_remaining", "burn_rate"),
    )
    slo_report = report["slo"]
    for objective, entry in slo_report["fleet"].items():
        slo_table.add_row(
            "fleet", objective, entry["target"], entry["compliance"],
            entry["budget_remaining"], entry["burn_rate"],
        )
    for node_entry in slo_report["nodes"]:
        for objective in sorted(k for k in node_entry if k != "node"):
            entry = node_entry[objective]
            slo_table.add_row(
                str(node_entry["node"]), objective, entry["target"],
                entry["compliance"], entry["budget_remaining"],
                entry["burn_rate"],
            )
    _table(slo_table.to_text())

    rows = build_timeline(reader.round_log, log=log, ledgers=harnesses)
    if args.show_timeline:
        _table(render_timeline(rows, max_rows=args.show_timeline))
    if args.timeline_out:
        path = write_timeline_csv(_ensure_parent(args.timeline_out), rows)
        _emit(f"wrote timeline CSV to {path}")
    if args.timeline_jsonl:
        path = write_timeline_jsonl(_ensure_parent(args.timeline_jsonl), rows)
        _emit(f"wrote timeline JSONL to {path}")
    if args.metrics_out:
        _ensure_parent(args.metrics_out).write_text(
            metrics_to_prometheus(metrics)
        )
        _emit(f"wrote metrics exposition to {args.metrics_out}")
    if args.report_out:
        # Canonical rendering (sorted keys) so two identical campaigns
        # produce byte-identical report files for `repro diff`.
        _ensure_parent(args.report_out).write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
        _emit(f"wrote fleet report JSON to {args.report_out}")
    if args.digest_out:
        digest = campaign_digest(report, log, metrics)
        _ensure_parent(args.digest_out).write_text(digest + "\n")
        _emit(f"wrote campaign digest to {args.digest_out}")
    anomalies = reader.analytics.summary() if reader.analytics else {}
    if anomalies.get("total"):
        _emit(
            f"anomalies: {anomalies['total']} "
            f"(warn {anomalies.get('warn', 0)}, "
            f"critical {anomalies.get('critical', 0)}) — "
            "inspect with 'repro tail'"
        )
    _emit(
        f"campaign: {report['rounds']} rounds, "
        f"delivery {report['network']['delivery_ratio']:.2f}, "
        f"{report['events']} events, "
        f"worst conservation error {worst_error:.3g}%"
    )
    return 0 if worst_error < 1.0 else 1


def _cmd_resume(args) -> int:
    """Resume an interrupted ``fleet-report`` campaign from a checkpoint.

    Rebuilds the fleet from the checkpoint's campaign metadata (same
    builder, same seed), restores the snapshot — the configure polls
    are *not* replayed; their effects are part of the state — and runs
    the remaining rounds.  The resulting report and digest are
    byte-identical to an uninterrupted run.
    """
    bus = None
    prev_bus = None
    if args.stream_out:
        from repro.obs.recorder import FlightRecorder
        from repro.obs.stream import (
            JsonlStreamSink, TelemetryBus, get_bus, set_bus,
        )

        stream_path = _ensure_parent(args.stream_out)
        # Append to the interrupted campaign's stream, continuing its
        # sequence numbers: overlapping rounds (between the checkpoint
        # and the crash) replay byte-identically, so the aggregator's
        # last-write-wins reduction dedups them without special cases.
        bus = TelemetryBus(
            sinks=[JsonlStreamSink(stream_path), FlightRecorder()]
        )
        last = JsonlStreamSink.last_seq(stream_path)
        if last is not None:
            bus.seq = last + 1
        prev_bus = get_bus()
        set_bus(bus)
    try:
        return _run_resume(args, bus)
    finally:
        if bus is not None:
            from repro.obs.stream import set_bus

            set_bus(prev_bus)
            bus.close()
            _emit(
                f"appended telemetry stream to {args.stream_out} "
                f"(next seq {bus.seq})"
            )


def _run_resume(args, bus) -> int:
    from repro.net import Command
    from repro.resilience import (
        CheckpointError, campaign_digest, read_checkpoint,
    )

    try:
        doc = read_checkpoint(args.checkpoint)
    except CheckpointError as exc:
        _emit(f"FAIL: {exc}")
        return 1
    campaign = doc.get("campaign") or {}
    if campaign.get("builder") != "chaos-fleet":
        _emit(
            "FAIL: checkpoint carries no chaos-fleet campaign metadata; "
            "only fleet-report checkpoints can be resumed"
        )
        return 1
    params = campaign["params"]
    rounds = args.rounds if args.rounds is not None else int(campaign["rounds"])
    inject = params.get("inject_noise")
    reader, log, metrics, _harnesses = _make_chaos_reader(
        int(params["nodes"]), int(params["seed"]), int(params["window"]),
        inject_noise=tuple(inject) if inject else None,
    )
    try:
        command = Command[campaign.get("command", "READ_TEMPERATURE")]
    except KeyError:
        _emit(f"FAIL: checkpoint names unknown command {campaign.get('command')!r}")
        return 1
    _emit(
        f"resuming {params['nodes']}-node campaign (seed {params['seed']}) "
        f"from round {doc['round']} to round {rounds}"
    )
    if bus is not None:
        from repro import __version__

        bus.publish(
            "stream_start", source="cli",
            data={
                "campaign": campaign, "version": __version__,
                "resumed_from_round": int(doc["round"]),
            },
        )
        bus.flush()
    try:
        report = reader.run_campaign(command, rounds=rounds, resume_from=doc)
    except ValueError as exc:
        _emit(f"FAIL: {exc}")
        return 1
    digest = campaign_digest(report, log, metrics)
    _emit(f"campaign digest: {digest}")
    if args.digest_out:
        _ensure_parent(args.digest_out).write_text(digest + "\n")
        _emit(f"wrote campaign digest to {args.digest_out}")
    _emit(
        f"campaign: {report['rounds']} rounds, "
        f"delivery {report['network']['delivery_ratio']:.2f}, "
        f"{report['events']} events"
    )
    return 0


def _cmd_tail(args) -> int:
    """Render a telemetry stream: live monitor and offline replay.

    Feeds the stream through :class:`~repro.obs.stream.StreamAggregator`
    and prints one line per completed round (delivery, minimum SoC, SLO
    burn, health-state churn).  ``anomaly`` envelopes render as
    highlighted ``!!`` one-liners under their round; with
    ``--fail-on-anomaly`` the command exits 4 if any were seen — the
    scripted-soak contract.  ``--follow`` keeps polling the file for
    new events until none arrive for ``--idle-timeout`` seconds — the
    live view of a campaign running in another process.  The summary
    (and ``--timeline-out``/``--timeline-jsonl``) is rebuilt purely
    from the stream, byte-identical to the producing campaign's batch
    outputs; re-fed lines (a resumed campaign's overlap) reduce
    idempotently.
    """
    import time

    from repro.obs.stream import SCHEMA_VERSION, StreamAggregator
    from repro.obs.timeline import write_timeline_csv, write_timeline_jsonl

    path = pathlib.Path(args.path)
    if not path.exists() and not args.follow:
        _emit(f"FAIL: stream file {path} not found")
        return 1
    agg = StreamAggregator()
    shown: set = set()
    shown_anomalies: set = set()

    def show_anomalies(rnd) -> None:
        for event in agg.anomalies_for_round(rnd):
            data = event.get("data", {})
            key = (
                rnd, data.get("series"), data.get("node"),
                data.get("detector"),
            )
            if key not in shown_anomalies:
                shown_anomalies.add(key)
                _table(agg.anomaly_line(event))

    def drain() -> int:
        if not path.exists():
            return 0
        try:
            fed = agg.feed_file(path)
        except ValueError as exc:
            raise SystemExit(f"unreadable stream {path}: {exc}") from None
        for rnd in sorted(int(rec["t"]) for rec in agg.round_log):
            if rnd not in shown:
                shown.add(rnd)
                _table(agg.round_line(rnd))
            show_anomalies(rnd)
        return fed

    last_total = drain()
    if args.follow:
        idle_since = time.monotonic()
        while time.monotonic() - idle_since < args.idle_timeout:
            time.sleep(args.interval)
            total = drain()
            if total != last_total:
                last_total = total
                idle_since = time.monotonic()
    if not shown:
        _emit(f"no round events in {path} (schema <= {SCHEMA_VERSION})")
        return 1
    totals = agg.delivery_totals()
    summary = (
        f"stream: {agg.rounds_observed()} rounds, "
        f"delivered {totals['delivered']}/{totals['polled']}"
    )
    burn = agg.final_burn()
    if burn:
        summary += ", final burn " + " ".join(
            f"{obj}={value:.3g}" for obj, value in sorted(burn.items())
        )
    anomaly_counts = agg.anomaly_counts()
    if anomaly_counts:
        summary += ", anomalies " + " ".join(
            f"{severity}={count}"
            for severity, count in sorted(anomaly_counts.items())
        )
    _table(summary)
    if agg.unknown_kinds:
        _emit(
            "skipped unknown envelope kinds: " + " ".join(
                f"{kind}={count}"
                for kind, count in sorted(agg.unknown_kinds.items())
            )
        )
    if args.timeline_out or args.timeline_jsonl:
        rows = agg.timeline_rows()
        if args.timeline_out:
            out = write_timeline_csv(_ensure_parent(args.timeline_out), rows)
            _emit(f"wrote replayed timeline CSV to {out}")
        if args.timeline_jsonl:
            out = write_timeline_jsonl(
                _ensure_parent(args.timeline_jsonl), rows
            )
            _emit(f"wrote replayed timeline JSONL to {out}")
    if args.fail_on_anomaly and anomaly_counts:
        _emit(
            f"FAIL: {sum(anomaly_counts.values())} anomaly envelope(s) "
            "in stream (--fail-on-anomaly)"
        )
        return 4
    return 0


def _cmd_diff(args) -> int:
    """Diff two campaign artifacts and attribute any drift.

    Artifacts may be telemetry streams (``--stream-out`` JSONL),
    fleet-report JSON documents (``--report-out``), or
    ``BENCH_perf.json`` record files — both sides must be the same
    kind; stage fractions come only from the bench records' stage
    tables.  Prints the drift tables and attribution; ``--out``
    additionally writes the machine-readable drift report (canonical
    JSON, byte-identical for identical inputs).  Exit codes: 0 clean
    (or informational run), 1 thresholded drift with ``--gate``, 2
    unreadable/mismatched artifacts.
    """
    from repro.obs.diff import DiffThresholds, diff_campaigns, drift_to_json, render_drift

    thresholds = DiffThresholds(
        delivery_ratio=args.delivery_threshold,
        node_delivery_ratio=args.node_threshold,
        stage_fraction=args.stage_threshold,
        taxonomy_count=args.taxonomy_threshold,
        soc_v=args.soc_threshold,
        burn_rate=args.burn_threshold,
        anomaly_count=args.anomaly_threshold,
    )
    try:
        report = diff_campaigns(args.a, args.b, thresholds=thresholds)
    except (OSError, ValueError) as exc:
        _emit(f"FAIL: {exc}")
        return 2
    _table(render_drift(report))
    if args.out:
        _ensure_parent(args.out).write_text(drift_to_json(report))
        _emit(f"wrote drift report JSON to {args.out}")
    if args.gate and report["gate"]["drifted"]:
        _emit(
            f"FAIL: drift gate tripped "
            f"({len(report['gate']['failures'])} threshold violation(s))"
        )
        return 1
    return 0


#: Stage name -> (module, class, method) patched by ``bench --inject``.
#: Both propagation stages run through the channel's spectrum entry
#: point: ``AcousticChannel.propagate`` inverts it, and the carrier leg
#: builds its analytic incident from it directly.
_INJECT_TARGETS = {
    "link.pwm_synthesis": ("repro.core.projector", "Projector", "query_waveform"),
    "link.downlink_propagation": (
        "repro.acoustics.channel", "AcousticChannel", "spectra",
    ),
    "link.node": ("repro.circuits.schmitt", "SchmittTrigger", "process"),
    "link.uplink_propagation": (
        "repro.acoustics.channel", "AcousticChannel", "spectra",
    ),
    "link.hydrophone_dsp": ("repro.dsp.demod", "BackscatterDemodulator", "demodulate"),
}


def _apply_injection(spec: str):
    """Patch a stage entry point with an artificial delay.

    ``spec`` is ``stage:seconds`` with ``stage`` one of
    :data:`_INJECT_TARGETS`.  Returns ``(cls, attr, original)`` so the
    caller can restore the method (tests invoke ``main()`` in-process).
    """
    import importlib
    import time as _time

    stage, _, rest = spec.partition(":")
    if stage not in _INJECT_TARGETS or not rest:
        raise ValueError(
            f"bad --inject spec {spec!r}; expected STAGE:SECONDS with "
            f"STAGE in {sorted(_INJECT_TARGETS)}"
        )
    seconds = float(rest)
    mod_name, cls_name, attr = _INJECT_TARGETS[stage]
    cls = getattr(importlib.import_module(mod_name), cls_name)
    original = vars(cls)[attr]
    call = getattr(cls, attr)

    def slowed(*a, **kw):
        _time.sleep(seconds)
        return call(*a, **kw)

    if isinstance(original, staticmethod):
        slowed = staticmethod(slowed)
    setattr(cls, attr, slowed)
    return cls, attr, original


def _build_bench_fleet(nodes: int, seed: int, bitrate: float):
    """``{addr: link.run_query}`` over real waveform links.

    Every node gets its own geometry (distinct channel impulse
    responses, so the geometry cache is exercised honestly) and its own
    seeded noise model, so a rebuilt fleet with the same seed replays
    the exact same noise regardless of execution mode.
    """
    from repro.acoustics import POOL_A, Position
    from repro.acoustics.noise import AmbientNoiseModel
    from repro.core import BackscatterLink, Projector
    from repro.node.node import PABNode
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    transports = {}
    for i in range(nodes):
        addr = 0x10 + i
        projector = Projector(
            transducer=transducer, drive_voltage_v=60.0, carrier_hz=f
        )
        node = PABNode(address=addr, channel_frequencies_hz=(f,), bitrate=bitrate)
        # Nodes fill a rank of 70 along x (0.8 m .. 3.56 m, inside the
        # 4.0 m tank), then wrap to parallel ranks offset in y and, past
        # five ranks, in z.  Fleets of <= 70 nodes keep the exact
        # positions (and therefore digests) of the historical single-row
        # layout.
        rank, col = divmod(i, 70)
        link = BackscatterLink(
            POOL_A, projector, Position(0.5, 1.5, 0.6),
            node,
            Position(
                0.8 + 0.04 * col,
                1.5 + 0.25 * (rank % 5),
                0.6 + 0.05 * (rank // 5),
            ),
            Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat", flat_level_db=35.0, seed=1000 * seed + addr
            ),
        )
        transports[addr] = link.run_query
    return transports


def _bench_campaign(nodes: int, rounds: int, seed: int, bitrate: float,
                    parallel: int | str,
                    kill_at: tuple[int, int] | None = None,
                    transports=None, reader_sink: list | None = None):
    """One timed campaign on a fresh fleet; returns ``(seconds, digest, report)``.

    The digest (:func:`repro.resilience.campaign_digest`) covers the
    campaign report, the event log, and the metrics exposition, so two
    modes agree only if they are byte-identical in every observable
    output.  ``kill_at=(round, node)`` arms a contained (non-fatal)
    worker crash: the supervisor restarts the worker, and the digest
    check then proves the containment telemetry is identical across
    execution modes.

    ``transports`` supplies a pre-built fleet instead of a fresh one, so
    a caller keeps the links (and their weakly registered per-link
    leg-memo caches) alive across ``cache_stats()`` snapshots, as the
    synthesis-cache census test does.  ``reader_sink`` (a list)
    receives the reader so callers can read engine attribution after
    the run.

    The bench pins a steady-state health policy (thresholds that no
    run of this length can reach) so the timed workload is a fixed mix
    of poll exchanges at the configured bitrate.  Under the default
    adaptive policy roughly half of a large fleet walks down the
    bitrate ladder over a long campaign, so the measured mix — and
    therefore the regression gate's baseline — would drift with noise
    seeds and campaign length instead of with the code under test.
    Adaptive-policy behaviour (downgrades, quarantine, probing) is
    exercised and digest-checked by the chaos suite and
    ``tests/perf/test_batch.py`` instead.
    """
    import time

    from repro.faults import EventLog
    from repro.net import Command, ReaderController, RetryPolicy
    from repro.net.health import HealthPolicy
    from repro.obs import MetricsRegistry
    from repro.resilience import campaign_digest, install_worker_crash

    log = EventLog()
    metrics = MetricsRegistry()
    if transports is None:
        transports = _build_bench_fleet(nodes, seed, bitrate)
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=seed
        ),
        health_policy=HealthPolicy(
            degrade_after=10**6, quarantine_after=10**6 + 1
        ),
        log=log,
        metrics=metrics,
        parallel=parallel,
    )
    if kill_at is not None:
        kill_round, kill_node = kill_at
        install_worker_crash(reader, kill_node, rounds=(kill_round,), crashes=1)
    if reader_sink is not None:
        reader_sink.append(reader)
    start = time.perf_counter()
    report = reader.run_campaign(Command.READ_PH, rounds=rounds)
    elapsed = time.perf_counter() - start
    return elapsed, campaign_digest(report, log, metrics), report


def _bench_stage_breakdown(seed: int, bitrate: float, repeats: int = 5) -> dict:
    """Per-stage wall-clock fractions from traced, uncached exchanges.

    One untraced warmup exchange first (FFT plans, import tails), then
    ``repeats`` traced ones aggregated — single-exchange fractions
    wobble by tens of percent on loaded runners.
    """
    from repro.core.link import BackscatterLink
    from repro.net.messages import Command, Query
    from repro.obs import Tracer, use_tracer
    from repro.perf import caching_disabled

    tracer = Tracer()
    transports = _build_bench_fleet(1, seed, bitrate)
    (addr, transact), = transports.items()
    query = Query(destination=addr, command=Command.READ_PH)
    with caching_disabled():
        transact(query)
        with use_tracer(tracer):
            for _ in range(repeats):
                transact(query)
    totals = tracer.stage_totals()
    stage_s = {
        name: totals.get(name, {}).get("total_s", 0.0)
        for name in BackscatterLink.STAGES
    }
    whole = sum(stage_s.values()) or 1.0
    return {
        name: {"total_s": t, "fraction": t / whole}
        for name, t in stage_s.items()
    }


def _bench_gate(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Regression verdicts for ``current`` vs ``baseline`` (empty = pass).

    A stage regresses when its wall-clock *fraction* grows by more than
    ``threshold`` relative plus a 5-point absolute floor (small stages
    jitter); the batched engine's end-to-end speedup regresses when it
    drops more than ``threshold`` below the baseline's.  Records from
    before the batched engine carry no ``speedup_batch`` and gate the
    stage fractions only.
    """
    failures = []
    for name, base in baseline.get("stages", {}).items():
        cur = current["stages"].get(name)
        if cur is None:
            continue
        limit = base["fraction"] * (1.0 + threshold) + 0.05
        if cur["fraction"] > limit:
            failures.append(
                f"stage {name}: fraction {cur['fraction']:.3f} > "
                f"allowed {limit:.3f} (baseline {base['fraction']:.3f})"
            )
    # Smoke campaigns are six mostly-cold transactions; their end-to-end
    # speedup hovers near 1x and swings with runner load, so only the
    # stage fractions gate smoke runs.
    base_speedup = baseline.get("speedup_batch")
    if base_speedup and not baseline.get("smoke"):
        cur_speedup = current["speedup_batch"]
        floor = base_speedup * (1.0 - threshold)
        if cur_speedup < floor:
            failures.append(
                f"batch: speedup {cur_speedup:.2f}x < "
                f"allowed {floor:.2f}x (baseline {base_speedup:.2f}x)"
            )
    return failures


def _load_bench_baseline(path, smoke: bool):
    """The latest gate-matching record in a ``BENCH_perf.json`` baseline.

    Returns ``(record, None)`` on success or ``(None, reason)`` — one
    clear line instead of a traceback for every way the baseline file
    can be missing or wrong.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return None, f"baseline {path} not found"
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return None, f"baseline {path} is not valid JSON"
    if not isinstance(data, dict) or not isinstance(data.get("records"), list):
        return None, f"baseline {path} has no 'records' list"
    matching = [
        r for r in data["records"]
        if isinstance(r, dict) and r.get("smoke") == smoke
    ]
    if not matching:
        return None, f"no baseline record with smoke={smoke} in {path}"
    record = matching[-1]
    if record.get("schema") != 1:
        return None, (
            f"baseline record schema {record.get('schema')!r} in {path} "
            "is not supported (expected 1)"
        )
    return record, None


def _cmd_bench(args) -> int:
    """Uncached vs cached vs batch campaign benchmark + perf gate."""
    from repro.core.experiment import ExperimentTable
    from repro.perf import cache_stats, caching_disabled, clear_all_caches

    nodes = args.nodes if args.nodes is not None else (2 if args.smoke else 10)
    rounds = args.rounds if args.rounds is not None else (3 if args.smoke else 20)
    kill_at = None
    if args.kill_at:
        try:
            kill_at = _parse_kill_at(args.kill_at)
        except ValueError as exc:
            _emit(str(exc))
            return 2
        _emit(
            f"armed contained worker crash at round {kill_at[0]}, "
            f"node {kill_at[1]} (all modes)"
        )
    restore = None
    if args.inject:
        try:
            restore = _apply_injection(args.inject)
        except ValueError as exc:
            _emit(str(exc))
            return 2
        _emit(f"injected slowdown: {args.inject}")
    try:
        _emit(f"bench: {nodes} nodes x {rounds} rounds, seed {args.seed}")
        clear_all_caches()
        with caching_disabled():
            seq_s, seq_digest, _ = _bench_campaign(
                nodes, rounds, args.seed, args.bitrate, parallel=0,
                kill_at=kill_at,
            )
        _emit(f"sequential (no caches): {seq_s:.2f} s")
        clear_all_caches()
        cached_s, cached_digest, report = _bench_campaign(
            nodes, rounds, args.seed, args.bitrate, parallel=0,
            kill_at=kill_at,
        )
        _emit(f"cached:                 {cached_s:.2f} s")
        clear_all_caches()
        batch_sink: list = []
        batch_s, batch_digest, _ = _bench_campaign(
            nodes, rounds, args.seed, args.bitrate, parallel="batch",
            kill_at=kill_at, reader_sink=batch_sink,
        )
        _emit(f"cached + batch:         {batch_s:.2f} s")
        engine = getattr(batch_sink[0], "_batch_engine", None)
        batch_stats = engine.stats.as_dict() if engine is not None else {}
        identical = seq_digest == cached_digest == batch_digest
        stats = cache_stats()
        stages = _bench_stage_breakdown(args.seed, args.bitrate)
    finally:
        if restore is not None:
            cls, attr, original = restore
            setattr(cls, attr, original)

    record = {
        "schema": 1,
        "smoke": bool(args.smoke),
        "nodes": nodes,
        "rounds": rounds,
        "seed": args.seed,
        "bitrate": args.bitrate,
        "sequential_s": round(seq_s, 4),
        "cached_s": round(cached_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup_cached": round(seq_s / cached_s, 3),
        "speedup_batch": round(seq_s / batch_s, 3),
        "batch": batch_stats,
        "identical": identical,
        "digest": seq_digest,
        "delivery_ratio": round(report["network"]["delivery_ratio"], 4),
        "stages": {
            name: {
                "total_s": round(entry["total_s"], 5),
                "fraction": round(entry["fraction"], 4),
            }
            for name, entry in stages.items()
        },
        "caches": {
            name: {"hits": s.hits, "misses": s.misses}
            for name, s in sorted(stats.items())
        },
    }

    table = ExperimentTable(
        title="Benchmark summary",
        columns=("mode", "wall_s", "speedup"),
    )
    table.add_row("sequential", record["sequential_s"], 1.0)
    table.add_row("cached", record["cached_s"], record["speedup_cached"])
    table.add_row("cached+batch", record["batch_s"], record["speedup_batch"])
    _table(table.to_text())
    breakdown = ExperimentTable(
        title="Per-stage breakdown (one uncached traced exchange)",
        columns=("stage", "total_s", "fraction"),
    )
    for name, entry in record["stages"].items():
        breakdown.add_row(name, entry["total_s"], entry["fraction"])
    _table(breakdown.to_text())

    if not identical:
        _emit("FAIL: execution modes disagree — reports are not byte-identical")
        return 1

    status = 0
    if args.compare:
        baseline, problem = _load_bench_baseline(args.compare, record["smoke"])
        if problem is not None:
            _emit(f"FAIL: {problem}")
            return 1
        failures = _bench_gate(record, baseline, args.fail_threshold)
        for failure in failures:
            _emit(f"REGRESSION: {failure}")
        if failures:
            status = 1
        else:
            gated = (
                f"batch {record['speedup_batch']:.2f}x"
                if baseline.get("speedup_batch") and not baseline.get("smoke")
                else "stage fractions only"
            )
            _emit(
                f"perf gate passed vs baseline ({gated}, "
                f"threshold {args.fail_threshold:.0%})"
            )

    if args.out:
        path = _ensure_parent(args.out)
        history = {"records": []}
        if path.exists():
            try:
                history = json.loads(path.read_text())
            except ValueError:
                _emit(f"FAIL: existing {path} is not valid JSON; not appending")
                return 1
            if not isinstance(history, dict):
                _emit(f"FAIL: existing {path} is not a records object; not appending")
                return 1
        history.setdefault("records", []).append(record)
        path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
        _emit(f"appended record to {path}")
    if args.trend_out:
        path = _ensure_parent(args.trend_out)
        header = (
            "smoke,nodes,rounds,seed,sequential_s,cached_s,"
            "batch_s,speedup_cached,speedup_batch,"
            + ",".join(f"frac_{n.split('.')[-1]}" for n in record["stages"])
        )
        row = ",".join(
            str(v) for v in (
                int(record["smoke"]), nodes, rounds, args.seed,
                record["sequential_s"], record["cached_s"],
                record["batch_s"], record["speedup_cached"],
                record["speedup_batch"],
            )
        ) + "," + ",".join(
            str(e["fraction"]) for e in record["stages"].values()
        )
        if path.exists():
            existing = path.read_text()
            first = existing.splitlines()[0] if existing.strip() else ""
            if first != header:
                _emit(
                    f"FAIL: trend file {path} has a mismatched header "
                    "(stale column layout?); not appending"
                )
                return 1
            path.write_text(existing.rstrip("\n") + "\n" + row + "\n")
        else:
            path.write_text(header + "\n" + row + "\n")
        _emit(f"appended trend row to {path}")
    return status


def _cmd_fig3(args) -> int:
    from repro.circuits import EnergyHarvester
    from repro.core.experiment import ExperimentTable
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    h15 = EnergyHarvester(transducer, design_frequency_hz=15_000.0)
    h18 = EnergyHarvester(transducer, design_frequency_hz=18_000.0)
    pressure = h15.calibrate_pressure_for_peak(4.0)
    freqs = np.linspace(11_000.0, 21_000.0, 41)
    table = ExperimentTable(
        title="Fig. 3: recto-piezo rectified voltage",
        columns=("frequency_hz", "15k_match_v", "18k_match_v"),
    )
    for f, a, b in zip(
        freqs,
        h15.rectified_voltage_curve(freqs, pressure),
        h18.rectified_voltage_curve(freqs, pressure),
    ):
        table.add_row(float(f), float(a), float(b))
    _write_table(args, table)
    return 0


def _cmd_fig7(args) -> int:
    from repro.core.experiment import ber_snr_sweep

    table = ber_snr_sweep(
        np.arange(-2.0, 15.0, 1.0), bits_per_point=args.bits
    )
    _write_table(args, table)
    return 0


def _cmd_fig8(args) -> int:
    from repro.acoustics import POOL_A, Position
    from repro.core import BackscatterLink, Projector
    from repro.core.experiment import ExperimentTable
    from repro.net.messages import Command, Query
    from repro.node.node import PABNode
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    table = ExperimentTable(
        title="Fig. 8: SNR vs backscatter bitrate",
        columns=("bitrate_bps", "snr_db"),
    )
    for bitrate in (100.0, 400.0, 1_000.0, 2_000.0, 3_000.0, 5_000.0):
        _debug(f"fig8: measuring bitrate {bitrate:g} bps")
        projector = Projector(
            transducer=transducer, drive_voltage_v=50.0, carrier_hz=f
        )
        node = PABNode(address=7, channel_frequencies_hz=(f,), bitrate=bitrate)
        link = BackscatterLink(
            POOL_A, projector, Position(0.5, 1.5, 0.6),
            node, Position(1.3, 1.5, 0.6), Position(1.0, 0.9, 0.6),
        )
        snr = link.measure_uplink_snr(Query(destination=7, command=Command.PING))
        table.add_row(bitrate, float(snr))
    _write_table(args, table)
    return 0


def _cmd_fig9(args) -> int:
    from repro.acoustics import POOL_A, POOL_B, Position
    from repro.core import Projector
    from repro.core.experiment import powerup_range_sweep
    from repro.node.node import PABNode
    from repro.piezo import Transducer

    f = Transducer.from_cylinder_design().resonance_hz

    def projector_factory(voltage):
        return Projector(
            transducer=Transducer.from_cylinder_design(),
            drive_voltage_v=voltage,
            carrier_hz=f,
        )

    def node_factory():
        return PABNode(address=1, channel_frequencies_hz=(f,))

    def diagonal(tank, margin=0.2):
        span = math.hypot(tank.length - 2 * margin, tank.width - 2 * margin)
        ux = (tank.length - 2 * margin) / span
        uy = (tank.width - 2 * margin) / span

        def axis(dist):
            if dist > span:
                raise ValueError("outside")
            return (
                Position(margin, margin, tank.depth / 2),
                Position(margin + dist * ux, margin + dist * uy, tank.depth / 2),
            )

        return axis

    def corridor(tank, margin=0.2):
        def axis(dist):
            if margin + dist > tank.length - margin:
                raise ValueError("outside")
            return (
                Position(margin, tank.width / 2, tank.depth / 2),
                Position(margin + dist, tank.width / 2, tank.depth / 2),
            )

        return axis

    voltages = [25.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0]
    for tank, axis in ((POOL_A, diagonal(POOL_A)), (POOL_B, corridor(POOL_B))):
        table = powerup_range_sweep(
            tank, voltages,
            node_factory=node_factory,
            projector_factory=projector_factory,
            axis_positions=axis,
        )
        _write_table(args, table, suffix=tank.name.lower().replace(" ", "_"))
    return 0


def _cmd_fig11(args) -> int:
    from repro.core.experiment import ExperimentTable
    from repro.node import NodePowerModel

    model = NodePowerModel()
    sweep = model.fig11_sweep([100.0, 500.0, 1_000.0, 2_000.0, 3_000.0])
    table = ExperimentTable(
        title="Fig. 11: node power consumption",
        columns=("mode", "power_uw"),
    )
    for mode, value in sweep.items():
        label = mode if isinstance(mode, str) else f"{mode:.0f} bps"
        table.add_row(label, value * 1e6)
    _write_table(args, table)
    return 0


def _cmd_coverage(args) -> int:
    from repro.acoustics import POOL_A, POOL_B
    from repro.core import Projector
    from repro.core.deployment import powerup_coverage
    from repro.piezo import Transducer

    tank = POOL_B if args.tank.lower() == "b" else POOL_A
    transducer = Transducer.from_cylinder_design()
    projector = Projector(
        transducer=transducer,
        drive_voltage_v=args.drive,
        carrier_hz=transducer.resonance_hz,
    )
    coverage = powerup_coverage(tank, projector, resolution_m=args.resolution)
    _emit(
        f"Power-up coverage of {tank.name} at {args.drive:.0f} V "
        f"({coverage.coverage_fraction:.0%}):"
    )
    _table(
        "\n".join(
            "".join(
                "#" if coverage.values[i, j] > 0 else "."
                for j in range(len(coverage.x_coords))
            )
            for i in range(len(coverage.y_coords) - 1, -1, -1)
        )
    )
    return 0


def _cmd_envs(args) -> int:
    from repro.acoustics.environments import ENVIRONMENTS
    from repro.core.experiment import ExperimentTable

    table = ExperimentTable(
        title="Deployment environment presets",
        columns=("name", "sound_speed_mps", "absorption_db_per_km_15khz",
                 "noise_psd_db_15khz"),
    )
    for factory in ENVIRONMENTS.values():
        env = factory()
        table.add_row(
            env.name,
            env.sound_speed_mps,
            env.absorption_db_per_km(15_000.0),
            env.noise.psd_db(15_000.0),
        )
    _write_table(args, table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Piezo-Acoustic Backscatter reproduction toolkit",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level status output (overrides --log-level)",
    )
    parser.add_argument(
        "--log-level", choices=sorted(_LEVELS), default="info",
        help="status-line verbosity (tables/artifacts always print)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one link exchange")
    demo.add_argument("--distance", type=float, default=1.0)
    demo.add_argument("--drive", type=float, default=50.0)
    demo.add_argument("--bitrate", type=float, default=1_000.0)
    demo.set_defaults(func=_cmd_demo)

    trace = sub.add_parser(
        "trace", help="run one traced exchange, emit the JSONL span trace"
    )
    trace.add_argument("--distance", type=float, default=1.0)
    trace.add_argument("--drive", type=float, default=50.0)
    trace.add_argument("--bitrate", type=float, default=1_000.0)
    trace.add_argument(
        "--out", default=None, help="write the JSONL trace here (default: stdout)"
    )
    trace.add_argument(
        "--metrics-out", default=None,
        help="also write a Prometheus text exposition of the run's metrics",
    )
    trace.add_argument(
        "--flame-out", default=None, metavar="BASE",
        help="also write BASE.collapsed.txt + BASE.speedscope.json "
             "flamegraphs of the traced exchange",
    )
    trace.set_defaults(func=_cmd_trace)

    probe = sub.add_parser(
        "probe", help="run one probed exchange, dump signal taps"
    )
    probe.add_argument("--distance", type=float, default=1.0)
    probe.add_argument("--drive", type=float, default=50.0)
    probe.add_argument("--bitrate", type=float, default=1_000.0)
    probe.add_argument(
        "--noise-db", type=float, default=None,
        help="override the ambient noise floor [dB re 1 uPa^2/Hz] "
        "(high values force a decode failure)",
    )
    probe.add_argument(
        "--max-samples", type=int, default=4096,
        help="per-tap waveform length cap before decimation",
    )
    probe.add_argument(
        "--out", default=None, help="write the raw taps here as .npz"
    )
    probe.add_argument(
        "--postmortem-out", default=None,
        help="write decode post-mortems here as JSONL",
    )
    probe.set_defaults(func=_cmd_probe)

    postmortem = sub.add_parser(
        "postmortem", help="render decode post-mortems from a JSONL dump"
    )
    postmortem.add_argument("path", help="post-mortem JSONL file to render")
    postmortem.set_defaults(func=_cmd_postmortem)

    energy = sub.add_parser(
        "energy", help="one node's ledgered energy simulation"
    )
    energy.add_argument("--node", type=int, default=7)
    energy.add_argument(
        "--pressure", type=float, default=600.0,
        help="incident acoustic pressure at the node [Pa]",
    )
    energy.add_argument("--rounds", type=int, default=30)
    energy.add_argument("--poll-period", type=float, default=1.0)
    energy.add_argument("--bitrate", type=float, default=1_000.0)
    energy.add_argument(
        "--start-voltage", type=float, default=0.0,
        help="initial supercap voltage [V] (0 = true cold start)",
    )
    energy.add_argument(
        "--out", default=None,
        help="write the SoC time series here as CSV",
    )
    energy.set_defaults(func=_cmd_energy)

    fleet = sub.add_parser(
        "fleet-report",
        help="chaos campaign with energy ledgers + SLO tracking",
    )
    fleet.add_argument("--nodes", type=int, default=10)
    fleet.add_argument("--rounds", type=int, default=40)
    fleet.add_argument("--seed", type=int, default=2019)
    fleet.add_argument(
        "--window", type=int, default=20,
        help="rolling window (rounds) for SLO burn rates",
    )
    fleet.add_argument(
        "--show-timeline", type=int, default=0, metavar="N",
        help="also print the first N timeline rows",
    )
    fleet.add_argument(
        "--timeline-out", default=None,
        help="write the campaign timeline here as CSV",
    )
    fleet.add_argument(
        "--timeline-jsonl", default=None,
        help="write the campaign timeline here as JSONL",
    )
    fleet.add_argument(
        "--metrics-out", default=None,
        help="write a Prometheus text exposition of the campaign metrics",
    )
    fleet.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="K",
        help="write a campaign checkpoint after every K-th round",
    )
    fleet.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for checkpoint-NNNNNN.json files",
    )
    fleet.add_argument(
        "--kill-at", default=None, metavar="ROUND:NODE",
        help="crash the campaign (fatally) when NODE's worker runs in "
             "ROUND; exits 3, leaving checkpoints for 'repro resume'",
    )
    fleet.add_argument(
        "--inject-noise", default=None, metavar="NODE:START:DURATION",
        help="add an extra seeded noise burst on NODE for DURATION "
             "rounds starting at START (drift-gate self-test fault "
             "schedule)",
    )
    fleet.add_argument(
        "--report-out", default=None, metavar="FILE.json",
        help="write the fleet report as canonical JSON (diffable with "
             "'repro diff')",
    )
    fleet.add_argument(
        "--digest-out", default=None,
        help="write the campaign digest (report+events+metrics sha256) here",
    )
    fleet.add_argument(
        "--stream-out", default=None, metavar="FILE.jsonl",
        help="stream campaign telemetry incrementally to this JSONL "
             "file (replay/monitor it with 'repro tail')",
    )
    fleet.add_argument(
        "--serve-port", type=int, default=None, metavar="PORT",
        help="serve live Prometheus metric snapshots on this port "
             "during the campaign (0 = any free port)",
    )
    fleet.set_defaults(func=_cmd_fleet_report)

    resume = sub.add_parser(
        "resume",
        help="resume an interrupted fleet-report campaign from a checkpoint",
    )
    resume.add_argument("checkpoint", help="checkpoint-NNNNNN.json to restore")
    resume.add_argument(
        "--rounds", type=int, default=None,
        help="total campaign rounds (default: the checkpoint's campaign plan)",
    )
    resume.add_argument(
        "--digest-out", default=None,
        help="write the campaign digest here (for kill-resume drills)",
    )
    resume.add_argument(
        "--stream-out", default=None, metavar="FILE.jsonl",
        help="append the resumed rounds' telemetry to this JSONL "
             "stream (sequence numbers continue the interrupted run's)",
    )
    resume.set_defaults(func=_cmd_resume)

    tail = sub.add_parser(
        "tail",
        help="render a campaign telemetry stream (live with --follow)",
    )
    tail.add_argument("path", help="stream JSONL file (from --stream-out)")
    tail.add_argument(
        "--follow", action="store_true",
        help="keep polling the file for new events (live monitor)",
    )
    tail.add_argument(
        "--interval", type=float, default=0.5,
        help="seconds between polls with --follow",
    )
    tail.add_argument(
        "--idle-timeout", type=float, default=10.0,
        help="stop following after this many quiet seconds",
    )
    tail.add_argument(
        "--timeline-out", default=None,
        help="write the replayed campaign timeline here as CSV",
    )
    tail.add_argument(
        "--timeline-jsonl", default=None,
        help="write the replayed campaign timeline here as JSONL",
    )
    tail.add_argument(
        "--fail-on-anomaly", action="store_true",
        help="exit 4 if the stream carries any anomaly envelopes "
             "(for scripted soak gates)",
    )
    tail.set_defaults(func=_cmd_tail)

    diff = sub.add_parser(
        "diff",
        help="diff two campaign artifacts and attribute drift "
             "(stage/node/taxonomy/energy)",
    )
    diff.add_argument("a", help="baseline artifact (stream JSONL, "
                                "fleet report JSON, or BENCH file)")
    diff.add_argument("b", help="candidate artifact (same kind as A)")
    diff.add_argument(
        "--gate", action="store_true",
        help="exit 1 if any thresholded drift is detected",
    )
    diff.add_argument(
        "--out", default=None, metavar="FILE.json",
        help="write the machine-readable drift report here",
    )
    diff.add_argument("--delivery-threshold", type=float, default=0.02,
                      help="fleet delivery-ratio drift tolerance")
    diff.add_argument("--node-threshold", type=float, default=0.10,
                      help="per-node delivery-ratio drift tolerance")
    diff.add_argument("--stage-threshold", type=float, default=0.10,
                      help="bench stage-fraction drift tolerance")
    diff.add_argument("--taxonomy-threshold", type=int, default=5,
                      help="fault/post-mortem count drift tolerance")
    diff.add_argument("--soc-threshold", type=float, default=0.15,
                      help="per-node final-SoC drift tolerance (volts)")
    diff.add_argument("--burn-threshold", type=float, default=1.0,
                      help="SLO burn-rate drift tolerance")
    diff.add_argument("--anomaly-threshold", type=int, default=5,
                      help="anomaly-count drift tolerance")
    diff.set_defaults(func=_cmd_diff)

    bench = sub.add_parser(
        "bench",
        help="uncached vs cached vs batch campaign benchmark",
    )
    bench.add_argument("--nodes", type=int, default=None,
                       help="fleet size (default 10, or 2 with --smoke)")
    bench.add_argument("--rounds", type=int, default=None,
                       help="polling rounds (default 20, or 3 with --smoke)")
    bench.add_argument("--seed", type=int, default=2019)
    bench.add_argument("--bitrate", type=float, default=2_000.0)
    bench.add_argument("--smoke", action="store_true",
                       help="small fleet/campaign for CI smoke runs")
    bench.add_argument("--out", default=None,
                       help="append the run record to this BENCH_perf.json")
    bench.add_argument("--trend-out", default=None,
                       help="append a CSV row to this perf-trend file")
    bench.add_argument("--compare", default=None,
                       help="gate against the latest matching record in "
                            "this BENCH_perf.json")
    bench.add_argument("--fail-threshold", type=float, default=0.25,
                       help="relative regression tolerance for the gate")
    bench.add_argument("--inject", default=None, metavar="STAGE:SECONDS",
                       help="artificially slow one stage (gate self-test)")
    bench.add_argument("--kill-at", default=None, metavar="ROUND:NODE",
                       help="crash NODE's worker (contained, supervisor-"
                            "restarted) in ROUND in every mode; the digest "
                            "check then proves containment is deterministic")
    bench.set_defaults(func=_cmd_bench)

    fig3 = sub.add_parser("fig3", help="recto-piezo tuning curves")
    fig3.set_defaults(func=_cmd_fig3)

    fig7 = sub.add_parser("fig7", help="BER vs SNR table")
    fig7.add_argument("--bits", type=int, default=20_000)
    fig7.set_defaults(func=_cmd_fig7)

    fig8 = sub.add_parser("fig8", help="SNR vs bitrate table")
    fig8.set_defaults(func=_cmd_fig8)

    fig9 = sub.add_parser("fig9", help="power-up range tables")
    fig9.set_defaults(func=_cmd_fig9)

    fig11 = sub.add_parser("fig11", help="node power budget")
    fig11.set_defaults(func=_cmd_fig11)

    envs = sub.add_parser("envs", help="deployment environment presets")
    envs.set_defaults(func=_cmd_envs)

    coverage = sub.add_parser("coverage", help="power-up coverage map")
    coverage.add_argument("--tank", choices=["a", "b", "A", "B"], default="a")
    coverage.add_argument("--drive", type=float, default=150.0)
    coverage.add_argument("--resolution", type=float, default=0.5)
    coverage.set_defaults(func=_cmd_coverage)

    # Every table-emitting command mirrors to CSV with --out.
    for table_cmd in (fig3, fig7, fig8, fig9, fig11, envs):
        table_cmd.add_argument(
            "--out", default=None,
            help="also write the table as CSV to this path",
        )

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
