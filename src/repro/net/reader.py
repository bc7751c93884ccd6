"""The complete reader-side controller.

Ties the networking layers into the workflow a deployed reader actually
runs (the projector-side analogue of an RFID interrogator):

1. **configure** — push per-node settings over the air: uplink bitrate
   (``SET_BITRATE``) and recto-piezo channel (``SET_RESONANCE_MODE``),
   verifying each acknowledgement;
2. **poll** — run periodic sensing rounds through the retransmitting
   MAC, collecting decoded readings;
3. **manage** — track each node's health (HEALTHY -> DEGRADED ->
   QUARANTINED -> PROBING): repeated CRC failures downgrade the node's
   bitrate one rung (Fig. 8: slower backscatter buys SNR margin),
   unresponsive nodes are quarantined so they stop burning airtime and
   re-probed on an exponential backoff schedule;
4. **report** — aggregate per-node and network-wide delivery statistics
   plus availability/MTTR from the structured event log.

The controller is transport-agnostic: it drives any mapping of node
address to a ``transact(query) -> LinkResult``-shaped callable — the
waveform-level :class:`~repro.core.link.BackscatterLink` in simulations,
a fault injector stack from :mod:`repro.faults`, or a stub in tests.
Transport exceptions are contained by the MAC; a full polling campaign
never crashes because one exchange went wrong.

Campaigns are additionally crash-safe (:mod:`repro.resilience`):

* every poll runs under a **supervisor** that restarts a crashed worker
  with backoff and, past the restart budget, contains the crash as a
  fault event + health failure instead of aborting the round;
* shards whose workers keep crashing are **quarantined** (skipped, and
  reported) so one wedged transport cannot stall the fleet;
* with a :class:`~repro.resilience.watchdog.WatchdogPolicy`, a poll
  that outlives its wall-clock deadline is abandoned and booked as a
  ``watchdog_timeout`` fault instead of hanging the round;
* the campaign state is declared (:mod:`repro.state`), so
  ``snapshot_state`` / :meth:`ReaderController.restore` serialise it,
  :meth:`ReaderController.history_rows` its append-only history, and
  :meth:`ReaderController.run_campaign` can write periodic checkpoints
  and resume from one with byte-identical reports and digests.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from repro.faults.events import Event, EventLog
from repro.net.health import HealthPolicy, HealthState, NodeHealth
from repro.net.mac import MacStats, PollingMac, RetryPolicy
from repro.obs.metrics import Counter, Gauge
from repro.obs.postmortem import DecodePostmortem
from repro.obs.analytics import publish_anomalies
from repro.obs.stream import get_bus, make_event
from repro.obs.trace import get_tracer
from repro.resilience.checkpoint import (
    HistoryFile,
    checkpoint_path,
    read_checkpoint,
    recorder_path,
    write_checkpoint,
)
from repro.resilience.supervisor import CampaignAbort, SupervisorPolicy, supervise
from repro.resilience.watchdog import PollWatchdog, WatchdogPolicy, WatchdogTimeout
from repro.state import Stateful
from repro.net.messages import (
    BITRATE_TABLE,
    Command,
    Query,
    Response,
    SensorReading,
    bitrate_code,
    lower_bitrate,
)


@dataclass
class NodeRecord(Stateful):
    """What the reader knows about one node.

    Attributes
    ----------
    address:
        The node's address.
    bitrate:
        Last acknowledged uplink bitrate (None before configuration).
    resonance_mode:
        Last acknowledged recto-piezo mode (None before configuration).
    readings:
        Decoded :class:`~repro.net.messages.SensorReading` history.
    stats:
        Per-node MAC counters.
    health:
        The node's :class:`~repro.net.health.NodeHealth` state machine.
    pending_downgrade:
        A commanded bitrate downgrade that has not been acknowledged
        yet; retried before the node's next sensing poll.
    """

    __state__ = ("bitrate", "resonance_mode", "pending_downgrade", "health")

    address: int
    bitrate: float | None = None
    resonance_mode: int | None = None
    readings: list = field(default_factory=list)
    stats: MacStats = field(default_factory=MacStats)
    health: NodeHealth | None = None
    pending_downgrade: bool = False


class ReaderController(Stateful):
    """Orchestrates configuration, polling, and health of a node set.

    Parameters
    ----------
    transports:
        Mapping ``{address: transact}`` where ``transact(query)`` returns
        an object with ``success`` and ``demod.packet``.
    max_retries:
        Retransmissions per query (ignored when ``retry_policy`` is
        given).
    retry_policy:
        Optional :class:`~repro.net.mac.RetryPolicy` shared by every
        node's MAC: exponential backoff with seeded jitter and a
        per-query timeout budget.
    health_policy:
        Thresholds for the per-node health state machine.
    log:
        Structured :class:`~repro.faults.events.EventLog`; a fresh one
        is created when omitted.  The reader's polling-round counter is
        the log's virtual clock.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` shared by
        every node's MAC and bound to the event log (each recorded
        event also counts into ``pab_events_total``); the reader adds
        per-node health gauges and reading counters.
    ledgers:
        Optional ``{address: NodeEnergyHarness | EnergyLedger}``
        (:mod:`repro.obs.ledger`).  Harnesses are stepped once per
        polling round — the round's delivery outcome drives the node's
        DECODING/BACKSCATTER/IDLE segments — and their energy balances
        join :meth:`report` under ``"energy"``.
    slo:
        Optional :class:`~repro.obs.slo.SLOTracker` fed one observation
        per node per round (delivery, availability, and — when that
        node has an energy harness — sustainability); its report joins
        :meth:`report` under ``"slo"``.
    supervisor:
        :class:`~repro.resilience.supervisor.SupervisorPolicy` for the
        per-poll worker supervisor (defaults to the stock policy).  A
        :class:`~repro.resilience.supervisor.WorkerCrash` escaping a
        poll is retried up to ``max_restarts`` times with backoff; a
        worker that exhausts its restarts books a ``worker_crash``
        fault + post-mortem and fails the node's health machine, and
        ``quarantine_after`` consecutive crashed rounds quarantine the
        node's shard entirely (skipped, surfaced in
        :meth:`report` under ``"shards"``).  Campaigns never abort on a
        worker crash; only
        :class:`~repro.resilience.supervisor.CampaignAbort` (the
        SIGKILL-equivalent) propagates.
    watchdog:
        Optional :class:`~repro.resilience.watchdog.WatchdogPolicy`.
        When enabled, each supervised poll runs on one worker thread
        (:class:`~repro.resilience.watchdog.PollWatchdog`): a
        transaction (or round) that outlives its wall-clock budget is
        abandoned and booked as a ``watchdog_timeout`` fault + health
        failure instead of hanging the campaign.  Watchdog-tripped runs
        trade byte-reproducibility for liveness (wall-clock is not
        virtual time).  Without one, polls run on the calling thread.
    parallel:
        ``0`` (default) polls nodes one at a time on the leg memo.
        ``"batch"`` adds the batched PHY engine
        (:class:`~repro.perf.batch.BatchedLinkEngine`): a prepass that
        computes a window of upcoming exchanges as stacked matrix DSP
        before the same loop replays them, byte-identically.  Any other
        value raises ``ValueError``.  A seeded ``retry_policy`` is
        split into per-node jitter streams
        (:meth:`~repro.net.mac.RetryPolicy.for_node`), so backoff draws
        are a function of the node alone — never of polling order.
    bus:
        Optional :class:`~repro.obs.stream.TelemetryBus`; defaults to
        the process-global bus (disabled unless installed via
        ``set_bus``/``use_bus``).  When enabled, the reader binds it to
        the event log and publishes per-round ``soc``/``slo``/
        ``metrics``/``round`` events plus ``checkpoint`` markers and
        engine-level ``postmortem`` verdicts, flushing the bus's sinks
        once per round.  Round telemetry is published after the
        round's polls, from the shared sinks, so streams are
        byte-identical across both modes and resumed executions.

    When either ``ledgers`` or ``slo`` is given the reader also keeps
    ``round_log`` — the per-round outcome records the campaign
    timeline (:mod:`repro.obs.timeline`) is built from.  Neither costs
    anything when omitted.

    ``nodes`` leads ``__state__``, so a checkpoint of another fleet is
    refused before any state changes.
    """

    __state__ = (
        "nodes", "_macs", "_round", "_shard_crashes", "_crash_streak",
        "_quarantined_shards", "metrics", "ledgers", "slo", "analytics",
    )

    def __init__(
        self,
        transports: dict,
        *,
        max_retries: int = 2,
        retry_policy: RetryPolicy | None = None,
        health_policy: HealthPolicy | None = None,
        log: EventLog | None = None,
        metrics=None,
        ledgers: dict | None = None,
        slo=None,
        parallel: int | str = 0,
        supervisor: SupervisorPolicy | None = None,
        watchdog: WatchdogPolicy | None = None,
        bus=None,
        analytics=None,
    ) -> None:
        if not transports:
            raise ValueError("need at least one node transport")
        batch_mode = parallel == "batch"
        if not batch_mode and not (type(parallel) is int and parallel == 0):
            raise ValueError(
                f"parallel must be 0 (sequential) or 'batch', got {parallel!r}"
            )
        self.log = log if log is not None else EventLog()
        self.metrics = metrics
        #: Telemetry bus (:mod:`repro.obs.stream`).  Defaults to the
        #: process-global bus, which is disabled unless the CLI (or a
        #: test) installed an enabled one — the publish calls below all
        #: short-circuit in that case.  Round telemetry is published
        #: once per round from the shared sinks, so the stream is
        #: byte-identical across both modes and resumed executions.
        self.bus = bus if bus is not None else get_bus()
        if self.bus.enabled and getattr(self.log, "bus", None) is None:
            self.log.bus = self.bus
        self._stream_metrics_state: dict = {}   # not checkpointed: see _publish_metrics
        #: Optional :class:`repro.obs.analytics.AnomalyMonitor`.  Fed
        #: once per round (like the stream publish calls), so the
        #: anomaly sequence is identical across both modes and resumed
        #: executions.  Costs one ``is None`` check per round when
        #: absent.
        self.analytics = analytics
        self._checkpoint_dir = None
        #: The history file checkpoints point into, the pointer to the
        #: history it holds (or a restored checkpoint's), and the
        #: :meth:`_history_position` that history ends at.
        self._history_file = None
        self._history_pointer = None
        self._history_mark = None
        #: Path of the last flight-recorder dump (set on CampaignAbort
        #: or a watchdog kill when the bus carries a recorder sink).
        self.last_recorder_dump = None
        self.ledgers = (
            {int(addr): ledger for addr, ledger in ledgers.items()}
            if ledgers else {}
        )
        self.slo = slo
        self.round_log: list = []
        self._track_rounds = slo is not None or bool(self.ledgers)
        if metrics is not None and getattr(self.log, "metrics", None) is None:
            # Bind the fault/recovery event stream into the same
            # registry: one telemetry substrate, not two.
            self.log.metrics = metrics
        self.health_policy = (
            health_policy if health_policy is not None else HealthPolicy()
        )
        self._round = 0
        self._batch_engine = None
        self._campaign_rounds = None
        if batch_mode:
            from repro.perf.batch import BatchedLinkEngine

            self._batch_engine = BatchedLinkEngine(self)
        self.supervisor = (
            supervisor if supervisor is not None else SupervisorPolicy()
        )
        self.watchdog = watchdog
        self._poll_watchdog = (
            PollWatchdog(watchdog)
            if watchdog is not None and watchdog.enabled
            else None
        )
        #: Post-mortems of engine-level faults (worker crashes, watchdog
        #: timeouts) — kept here because those faults happen outside the
        #: probe-observed waveform pipeline.  Not part of :meth:`report`.
        self.postmortems: list = []
        self._shard_crashes: dict = {}      # addr -> crashed rounds (lifetime)
        self._crash_streak: dict = {}       # addr -> consecutive crashed rounds
        self._quarantined_shards: set = set()
        self._macs = {
            int(addr): PollingMac(
                transact=fn,
                max_retries=max_retries,
                retry_policy=(
                    retry_policy.for_node(int(addr))
                    if retry_policy is not None
                    else None
                ),
                log=self.log,
                node=int(addr),
                metrics=metrics,
            )
            for addr, fn in transports.items()
        }
        self.nodes = {
            addr: NodeRecord(
                address=addr,
                health=NodeHealth(
                    node=addr, policy=self.health_policy, log=self.log
                ),
            )
            for addr in self._macs
        }

    # -- configuration ----------------------------------------------------------------

    def set_bitrate(self, address: int, bitrate: float) -> bool:
        """Command a node to a bitrate from the table; True on ack."""
        record = self._record(address)
        code = bitrate_code(bitrate)
        result = self._macs[address].poll(
            Query(destination=address, command=Command.SET_BITRATE, argument=code)
        )
        record.stats = self._macs[address].stats
        if getattr(result, "success", False):
            record.bitrate = bitrate
            record.pending_downgrade = False
            return True
        return False

    def set_resonance_mode(self, address: int, mode: int) -> bool:
        """Command a node to a recto-piezo mode; True on ack."""
        record = self._record(address)
        result = self._macs[address].poll(
            Query(
                destination=address,
                command=Command.SET_RESONANCE_MODE,
                argument=mode,
            )
        )
        record.stats = self._macs[address].stats
        if getattr(result, "success", False):
            record.resonance_mode = mode
            return True
        return False

    # -- polling ----------------------------------------------------------------------

    def poll(self, address: int, command: Command):
        """One sensing query to one node; stores the decoded reading.

        The outcome feeds the node's health state machine: entering
        DEGRADED triggers a bitrate downgrade, a successful probe of a
        quarantined node brings it back to HEALTHY.  Malformed replies
        that somehow pass the CRC are contained as failures rather than
        propagating parse errors.
        """
        record = self._record(address)
        if record.pending_downgrade and record.health.state is HealthState.DEGRADED:
            self._downgrade_bitrate(address)
        mac = self._macs[address]
        result = mac.poll(Query(destination=address, command=command))
        record.stats = mac.stats
        success = getattr(result, "success", False)
        reading = None
        if success:
            try:
                response = Response.from_packet(result.demod.packet)
                reading = response.reading()
            except (AttributeError, TypeError, ValueError):
                success = False
            else:
                record.readings.append(reading)
        action = record.health.on_result(success, float(self._round))
        if action == "degrade":
            self._downgrade_bitrate(address)
        elif action == "recovered":
            record.pending_downgrade = False
            self.log.record(self._round, address, "recovery")
        if self.metrics is not None:
            if reading is not None and success:
                self.metrics.counter(
                    "pab_reader_readings_total", node=address
                ).inc()
            self.metrics.gauge("pab_node_health_code", node=address).set(
                record.health.state.code
            )
        return reading if success else None

    def poll_round(self, command: Command) -> dict:
        """Poll every node once; returns ``{address: reading | None}``.

        Quarantined nodes are skipped (their silence must not burn
        airtime) until their probe backoff elapses, at which point they
        get one PING; an acknowledged probe restores them to HEALTHY.

        With an enabled watchdog each supervised poll runs on the
        watchdog's worker thread; a poll past its budget is booked as a
        ``watchdog_timeout`` fault, and once the round budget is spent
        the remaining nodes are booked without being polled.
        """
        t = float(self._round)
        out = {}
        skipped_addrs = set()
        if self._batch_engine is not None:
            # Batched prepass: seed the leg memos and demod hints for
            # everything the coming window of rounds will compute, as
            # stacked matrix kernels.  The loop below then replays the
            # round byte-identically (it bails out internally whenever
            # the memo path itself is inactive).
            remaining = None
            if self._campaign_rounds is not None:
                remaining = max(1, int(self._campaign_rounds) - self._round)
            self._batch_engine.prewarm_round(command, remaining=remaining)
        watchdog = self._poll_watchdog
        if watchdog is not None:
            watchdog.start_round()
        with get_tracer().span(
            "reader.poll_round", round=self._round, nodes=len(self._macs)
        ) as span:
            skipped = 0
            for addr in sorted(self._macs):
                if addr in self._quarantined_shards:
                    out[addr] = None
                    skipped += 1
                    skipped_addrs.add(addr)
                    continue
                health = self.nodes[addr].health
                if health.state is HealthState.QUARANTINED:
                    if health.due_for_probe(t):
                        health.start_probe(t)
                        self.log.record(t, addr, "probe")
                        poll_command = Command.PING
                    else:
                        out[addr] = None
                        skipped += 1
                        skipped_addrs.add(addr)
                        continue
                else:
                    poll_command = command

                def supervised(a=addr, c=poll_command):
                    return supervise(lambda: self.poll(a, c), self.supervisor)

                polled = (
                    supervised() if watchdog is None
                    else watchdog.run(addr, supervised)
                )
                if isinstance(polled, WatchdogTimeout):
                    out[addr] = None
                    self._note_watchdog(addr, t, polled)
                    continue
                reading, outcome = polled
                out[addr] = reading
                self._note_supervision(addr, t, outcome)
            span.set(
                delivered=sum(1 for r in out.values() if r is not None),
                skipped_quarantined=skipped,
            )
        self._finish_round(t, out, skipped_addrs)
        return out

    def _observe_round(self, t: float, out: dict, skipped: set) -> dict:
        """Feed energy harnesses + SLO tracker and log the round."""
        outcomes = {}
        for addr in sorted(self._macs):
            health = self.nodes[addr].health.state
            info = {
                "polled": addr not in skipped,
                "delivered": out.get(addr) is not None,
                "up": health in (HealthState.HEALTHY, HealthState.DEGRADED),
                "health": health.value,
            }
            harness = self.ledgers.get(addr)
            if harness is not None and hasattr(harness, "on_poll_round"):
                energy = harness.on_poll_round(
                    t,
                    polled=info["polled"],
                    success=info["delivered"],
                    bitrate=self.nodes[addr].bitrate,
                )
                info["sustainable"] = energy["sustainable"]
                info["soc_v"] = energy["soc_v"]
            outcomes[addr] = info
        record = {"t": t, "outcomes": outcomes}
        if self.slo is not None:
            self.slo.observe_round(t, outcomes)
            record["burn"] = {
                objective: self.slo.burn_rate(objective)
                for objective in sorted(self.slo.targets)
            }
        self.round_log.append(record)
        return record

    def _finish_round(self, t: float, out: dict, skipped: set) -> None:
        """Tail of :meth:`poll_round`: round bookkeeping plus (when an
        enabled bus is attached) the round's stream events and sink
        flush."""
        record = None
        if self._track_rounds:
            record = self._observe_round(t, out, skipped)
        if self.metrics is not None:
            self.metrics.counter("pab_reader_rounds_total").inc()
        if self.bus.enabled:
            self._publish_round(t, out, skipped, record)
        if self.analytics is not None and self.analytics.enabled:
            if record is None:
                # Rounds without ledgers/SLO still feed delivery series.
                record = {
                    "t": t,
                    "outcomes": {
                        addr: {
                            "polled": addr not in skipped,
                            "delivered": out.get(addr) is not None,
                        }
                        for addr in sorted(self._macs)
                    },
                }
            detections = self.analytics.observe_campaign_round(
                t, record, registry=self.metrics
            )
            if detections:
                publish_anomalies(
                    detections, t=t, bus=self.bus, metrics=self.metrics
                )
        if self.bus.enabled:
            self.bus.flush()
        self._round += 1

    def _publish_round(self, t: float, out: dict, skipped: set, record) -> None:
        """Publish one round's telemetry events (sorted-address order).

        Per round: one ``soc`` event per energy harness that recorded
        this round, one ``slo`` sample, one ``metrics`` delta, and one
        ``round`` record carrying the timeline outcomes plus each
        node's cumulative MAC counters.  Everything is derived from the
        shared sinks after the round's polls.
        """
        rnd = int(t)
        for addr in sorted(self.ledgers):
            history = getattr(_ledger(self.ledgers[addr]), "round_history", None)
            if history and int(history[-1]["t"]) == rnd:
                self.bus.publish(
                    "soc", t=t, node=addr, source="ledger",
                    data=dict(history[-1]),
                )
        if self.slo is not None:
            self.bus.publish(
                "slo", t=t, source="slo", data=self.slo.stream_sample()
            )
        self._publish_metrics(t)
        if record is None:
            # Rounds without ledgers/SLO still stream delivery outcomes.
            record = {
                "t": t,
                "outcomes": {
                    addr: {
                        "polled": addr not in skipped,
                        "delivered": out.get(addr) is not None,
                    }
                    for addr in sorted(self._macs)
                },
            }
        data = dict(record)    # shallow: round_log record stays mac-free
        data["mac"] = {
            addr: self._macs[addr].stats.sample() for addr in sorted(self._macs)
        }
        self.bus.publish("round", t=t, source="reader", data=data)

    def _publish_metrics(self, t: float) -> None:
        """Publish counter/gauge values that changed since last round.

        Values are ABSOLUTE, not increments, so a replay is idempotent:
        a resumed campaign re-streaming an overlapping round overwrites
        the aggregator's view with identical numbers instead of double
        counting.  The change-tracking dict is deliberately not
        checkpoint state — after a resume every live metric is simply
        re-published once.  Histograms stay out of the stream (their
        per-observation data is unbounded); they remain available via
        the Prometheus exposition.
        """
        if self.metrics is None:
            return
        from repro.obs.export import _labels_text

        values = {}
        for metric in self.metrics:
            if not isinstance(metric, (Counter, Gauge)):
                continue
            key = f"{metric.name}{_labels_text(metric.labels)}"
            rendered = repr(metric.value)   # NaN-safe change detection
            if self._stream_metrics_state.get(key) != rendered:
                self._stream_metrics_state[key] = rendered
                values[key] = metric.value
        if values:
            self.bus.publish(
                "metrics", t=t, source="metrics", data={"values": values}
            )

    def _dump_recorder(self) -> None:
        """Dump the bus's flight recorder(s) next to the checkpoints.

        Called on :class:`CampaignAbort` and on watchdog kills; a no-op
        unless the campaign has a checkpoint directory and the bus
        carries at least one recorder sink.
        """
        if not self.bus.enabled or self._checkpoint_dir is None:
            return
        recorders = self.bus.recorders()
        if not recorders:
            return
        self.bus.flush()
        path = recorder_path(self._checkpoint_dir, self._round)
        recorders[0].dump_jsonl(path)
        self.last_recorder_dump = path

    def run_schedule(self, command: Command, rounds: int) -> dict:
        """Run several polling rounds; returns delivery counts per node."""
        if rounds < 1:
            raise ValueError("need at least one round")
        delivered = {addr: 0 for addr in self._macs}
        self._campaign_rounds = self._round + rounds
        try:
            for _ in range(rounds):
                for addr, reading in self.poll_round(command).items():
                    if reading is not None:
                        delivered[addr] += 1
        finally:
            self._campaign_rounds = None
        return delivered

    def run_campaign(
        self,
        command: Command,
        rounds: int,
        *,
        checkpoint_every: int = 0,
        checkpoint_dir=None,
        campaign: dict | None = None,
        resume_from=None,
    ) -> dict:
        """A full resilient campaign: ``rounds`` rounds, then a report.

        Unlike raw :meth:`run_schedule` this is the deployment loop:
        transport exceptions are contained, dead nodes are quarantined
        and re-probed, and the return value is the full
        :meth:`report` including availability and MTTR per node.

        With ``checkpoint_every=K`` (and a ``checkpoint_dir``) a
        checkpoint is written after every K-th round
        (:meth:`save_checkpoint`; ``campaign`` metadata rides along in
        the file).  ``resume_from`` restores a checkpoint file (or a
        document :func:`~repro.resilience.checkpoint.read_checkpoint`
        returned) before running the remaining rounds; a resumed
        campaign's report, event log, and digest are byte-identical to
        an uninterrupted run.  A checkpoint past ``rounds`` raises
        ``ValueError``.
        """
        if rounds < 1:
            raise ValueError("need at least one round")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires a checkpoint_dir")
        if checkpoint_dir is not None:
            self._checkpoint_dir = checkpoint_dir
        if resume_from is not None:
            doc = (
                resume_from
                if isinstance(resume_from, dict)
                else read_checkpoint(resume_from)
            )
            if int(doc["state"]["_round"]) > rounds:
                raise ValueError(
                    f"checkpoint is at round {doc['state']['_round']}, past "
                    f"the campaign's {rounds} rounds"
                )
            self.restore(doc["state"], doc.get("history", ()))
        self._campaign_rounds = rounds
        try:
            while self._round < rounds:
                self.poll_round(command)
                if (
                    checkpoint_every
                    and self._round < rounds
                    and self._round % checkpoint_every == 0
                ):
                    self.save_checkpoint(checkpoint_dir, campaign=campaign)
        except CampaignAbort:
            # Crash-equivalent exit: preserve the last events for the
            # post-crash investigation before the process dies.
            if self.bus.enabled:
                self.bus.flush()
            self._dump_recorder()
            raise
        finally:
            self._campaign_rounds = None
        return self.report()

    # -- checkpointing -----------------------------------------------------------------

    def save_checkpoint(self, directory, *, campaign: dict | None = None):
        """Checkpoint to ``directory``; returns the checkpoint file's path.

        First the :meth:`history_rows` produced since the previous save
        are appended to ``history.jsonl`` there
        (:class:`~repro.resilience.checkpoint.HistoryFile`), then
        ``checkpoint-NNNNNN.json`` is written: the declared state plus a
        ``history`` pointer to the file's prefix as of this save.  The
        first save after a :meth:`restore` truncates the file to the
        restored checkpoint's prefix (or, in another directory, writes
        the whole history to a new file).
        """
        directory = pathlib.Path(directory)
        history = self._history_file
        if history is None or history.directory != directory:
            history = HistoryFile(directory, self._history_pointer)
            if history.pointer() != self._history_pointer:
                self._history_mark = None   # a new file: write it all
            self._history_file = history
        mark = self._history_position()
        self._history_pointer = history.append(
            self._history_rows(self._history_mark, seq=history.lines)
        )
        self._history_mark = mark
        state = self.snapshot_state()
        state["history"] = self._history_pointer
        path = checkpoint_path(directory, self._round)
        write_checkpoint(path, state, round=self._round, campaign=campaign)
        if self.bus.enabled:
            self.bus.publish(
                "checkpoint", t=float(self._round), source="reader",
                data={"path": path.name, "round": self._round},
            )
            self.bus.flush()
        return path

    def history_rows(self) -> list:
        """The campaign's whole history as schema-1 stream envelopes.

        The rows a checkpoint's history file holds, numbered from 0:
        ``event`` (the event log), ``round`` (the round log, addresses
        stringified), ``readings`` (per node), and per ledger ``soc``
        (round records) and ``soc_samples`` (the SoC series).
        :meth:`restore` rebuilds the history from them.
        """
        return self._history_rows(None, seq=0)

    def _history_position(self) -> dict:
        """Where the history ends now (see :meth:`_history_rows`)."""
        return {
            "events": len(self.log.events),
            "rounds": len(self.round_log),
            "readings": {a: len(r.readings) for a, r in self.nodes.items()},
            "ledgers": {
                a: _ledger(h).history_mark() for a, h in self.ledgers.items()
            },
        }

    def _history_rows(self, since, *, seq: int) -> list:
        """History envelopes added after position ``since`` (``None``:
        the start), numbered from ``seq``."""
        since = since or {"events": 0, "rounds": 0, "readings": {}, "ledgers": {}}
        t = float(self._round)
        rows = []

        def add(kind, when, node, source, data):
            rows.append(make_event(
                seq + len(rows), kind, t=when, node=node, source=source,
                data=data,
            ))

        for event in self.log.events[since["events"]:]:
            add("event", event.t, event.node, "log", event.to_dict())
        for rec in self.round_log[since["rounds"]:]:
            add("round", rec["t"], -1, "reader", {
                **rec,
                "outcomes": {str(a): info for a, info in rec["outcomes"].items()},
            })
        for addr in sorted(self.nodes):
            new = self.nodes[addr].readings[since["readings"].get(addr, 0):]
            if new:
                add("readings", t, addr, "reader", {
                    "readings": [[r.kind, list(r.values)] for r in new],
                })
        for addr in sorted(self.ledgers):
            rounds, soc_samples = _ledger(self.ledgers[addr]).history_since(
                since["ledgers"].get(addr)
            )
            for info in rounds:
                add("soc", info["t"], addr, "ledger", dict(info))
            if soc_samples is not None:
                add("soc_samples", t, addr, "ledger", soc_samples)
        return rows

    def restore(self, state: dict, history=()) -> None:
        """Restore a checkpoint's state into a reader built with the
        same fleet, then rebuild the event log, round log, readings and
        ledger histories from ``history``: the campaign's
        :meth:`history_rows` up to it (its verified history prefix)."""
        self.restore_state(state)
        for addr, record in self.nodes.items():
            record.stats = self._macs[addr].stats
        if self._batch_engine is not None:
            # The hinted-rounds countdown and the batch hints described
            # a timeline this restore just replaced; replan.
            self._batch_engine.reset_window()
        self._replay_history(history)
        self._history_file = None
        self._history_pointer = state.get("history")
        self._history_mark = self._history_position()

    def _replay_history(self, rows) -> None:
        """Rebuild the history lists from :meth:`history_rows` envelopes
        (ledger histories start empty after their state restore)."""
        events, round_log = [], []
        for record in self.nodes.values():
            record.readings = []
        ledgers = {a: _ledger(h) for a, h in self.ledgers.items()}
        for row in rows:
            kind, node, data = row["kind"], row["node"], row["data"]
            if kind == "event":
                events.append(Event.from_dict(data))
            elif kind == "round":
                round_log.append({
                    **data,
                    "outcomes": {
                        int(a): info for a, info in data["outcomes"].items()
                    },
                })
            elif kind == "readings":
                self.nodes[node].readings.extend(
                    SensorReading(k, tuple(values))
                    for k, values in data["readings"]
                )
            elif kind == "soc":
                ledgers[node].round_history.append(dict(data))
            elif kind == "soc_samples":
                ledgers[node].replay_soc_samples(data)
            else:
                raise ValueError(f"unknown history row kind {kind!r}")
        # Assign events directly: record() would renumber and double-
        # count pab_events_total (the counters arrive via the metrics
        # snapshot).
        self.log.events = events
        self.round_log = round_log

    # -- crash containment -------------------------------------------------------------

    def _note_supervision(self, addr: int, t: float, outcome) -> None:
        """Book a poll's supervision outcome into the shared telemetry."""
        if outcome is None:
            return
        if outcome.restarts > 0 and not outcome.crashed:
            self.log.record(
                t, addr, "worker_restart",
                restarts=outcome.restarts,
                backoff_s=round(outcome.backoff_s, 6),
                error=outcome.error,
            )
            if self.metrics is not None:
                self.metrics.counter(
                    "pab_worker_restarts_total", node=addr
                ).inc(outcome.restarts)
        if not outcome.crashed:
            self._crash_streak[addr] = 0
            return
        self.log.record(
            t, addr, "fault",
            injector="worker_crash",
            error=outcome.error,
            restarts=outcome.restarts,
        )
        if self.metrics is not None:
            self.metrics.counter("pab_worker_crashes_total", node=addr).inc()
        pm = DecodePostmortem.from_fault(
            "worker_crash",
            node=addr,
            detail={"error": outcome.error, "restarts": outcome.restarts},
            txn=self._round,
        )
        self.postmortems.append(pm)
        if self.bus.enabled:
            self.bus.publish(
                "postmortem", t=t, node=addr, source="reader", data=pm.to_dict()
            )
        self._fail_node(addr, t)
        self._bump_crash_streak(addr, t)

    def _note_watchdog(self, addr: int, t: float, timeout: WatchdogTimeout) -> None:
        """Book an abandoned straggler as a fault + health failure."""
        self.log.record(
            t, addr, "fault",
            injector="watchdog_timeout",
            budget=timeout.budget,
            deadline_s=timeout.deadline_s,
        )
        if self.metrics is not None:
            self.metrics.counter("pab_watchdog_timeouts_total", node=addr).inc()
        pm = DecodePostmortem.from_fault(
            "watchdog_timeout",
            node=addr,
            detail={"budget": timeout.budget, "deadline_s": timeout.deadline_s},
            txn=self._round,
        )
        self.postmortems.append(pm)
        if self.bus.enabled:
            self.bus.publish(
                "postmortem", t=t, node=addr, source="reader", data=pm.to_dict()
            )
        self._fail_node(addr, t)
        self._bump_crash_streak(addr, t)
        # A watchdog kill already trades byte-reproducibility for
        # liveness, so dumping the recorder here (wall-clock event
        # order) costs nothing extra.
        self._dump_recorder()

    def _fail_node(self, addr: int, t: float) -> None:
        """Feed one engine-level failure to the node's health machine.

        A commanded downgrade is deferred (``pending_downgrade``): the
        node's worker just died or hung, so the SET_BITRATE goes out at
        the node's next successful poll attempt instead.
        """
        record = self.nodes[addr]
        action = record.health.on_result(False, t)
        if action == "degrade":
            record.pending_downgrade = True
        if self.metrics is not None:
            self.metrics.gauge("pab_node_health_code", node=addr).set(
                record.health.state.code
            )

    def _bump_crash_streak(self, addr: int, t: float) -> None:
        """Count a crashed round; quarantine the shard past the policy."""
        self._shard_crashes[addr] = self._shard_crashes.get(addr, 0) + 1
        streak = self._crash_streak.get(addr, 0) + 1
        self._crash_streak[addr] = streak
        if (
            streak >= self.supervisor.quarantine_after
            and addr not in self._quarantined_shards
        ):
            self._quarantined_shards.add(addr)
            self.log.record(t, addr, "shard_quarantine", crashes=streak)
            if self.metrics is not None:
                self.metrics.counter(
                    "pab_shard_quarantines_total", node=addr
                ).inc()

    # -- health actions ----------------------------------------------------------------

    def _downgrade_bitrate(self, address: int) -> bool:
        """Step the node one rung down the rate ladder via SET_BITRATE.

        The command goes through the MAC but bypasses health accounting
        (a failed downgrade must not recursively degrade the node);
        unacknowledged downgrades are retried before the node's next
        sensing poll.
        """
        record = self.nodes[address]
        current = record.bitrate
        target = lower_bitrate(current) if current is not None else BITRATE_TABLE[0]
        if target is None:
            record.pending_downgrade = False
            self.log.record(
                self._round, address, "bitrate", action="at_floor", bitrate=current
            )
            return False
        mac = self._macs[address]
        result = mac.poll(
            Query(
                destination=address,
                command=Command.SET_BITRATE,
                argument=bitrate_code(target),
            )
        )
        record.stats = mac.stats
        acked = getattr(result, "success", False)
        self.log.record(
            self._round,
            address,
            "bitrate",
            action="downgrade",
            to=f"{target:g}",
            acked=acked,
        )
        if acked:
            record.bitrate = target
            record.pending_downgrade = False
        else:
            record.pending_downgrade = True
        return acked

    # -- reporting -----------------------------------------------------------------------

    def summary(self) -> list[dict]:
        """Per-node status: configuration, deliveries, MAC counters."""
        out = []
        for addr in sorted(self.nodes):
            record = self.nodes[addr]
            out.append(
                {
                    "address": addr,
                    "bitrate": record.bitrate,
                    "resonance_mode": record.resonance_mode,
                    "readings": len(record.readings),
                    "attempts": record.stats.attempts,
                    "delivery_ratio": record.stats.delivery_ratio,
                    "health": record.health.state.value,
                }
            )
        return out

    def report(self) -> dict:
        """Network-wide report: merged MAC counters + per-node health.

        The network totals use :meth:`~repro.net.mac.MacStats.merge`;
        availability and MTTR come from the structured event log, in
        units of polling rounds.
        """
        end_t = float(self._round)
        per_node = {}
        for addr in sorted(self.nodes):
            record = self.nodes[addr]
            stats = self._macs[addr].stats
            per_node[addr] = {
                "health": record.health.state.value,
                "bitrate": record.bitrate,
                "readings": len(record.readings),
                "attempts": stats.attempts,
                "successes": stats.successes,
                "retries": stats.retries,
                "exceptions": stats.exceptions,
                "delivery_ratio": stats.delivery_ratio,
                "availability": self.log.availability(addr, end_t=end_t),
                "mttr_rounds": self.log.mttr(addr),
            }
        merged = MacStats().merge(*(self._macs[a].stats for a in sorted(self._macs)))
        report = {
            "rounds": self._round,
            "network": {
                "attempts": merged.attempts,
                "successes": merged.successes,
                "retries": merged.retries,
                "exceptions": merged.exceptions,
                "delivery_ratio": merged.delivery_ratio,
                "goodput_bps": merged.goodput_bps,
                "airtime_s": merged.airtime_s,
                "backoff_s": merged.backoff_s,
            },
            "nodes": per_node,
            "events": len(self.log),
        }
        if self._shard_crashes or self._quarantined_shards:
            # Only present when the engine actually lost workers, so
            # crash-free campaign reports (and their digests) are
            # unchanged.
            report["shards"] = {
                "crashed_rounds": {
                    addr: self._shard_crashes.get(addr, 0)
                    for addr in sorted(
                        set(self._shard_crashes) | self._quarantined_shards
                    )
                },
                "quarantined": sorted(self._quarantined_shards),
            }
        if self.ledgers:
            report["energy"] = {
                addr: harness.summary()
                for addr, harness in sorted(self.ledgers.items())
            }
            if self.metrics is not None:
                for harness in self.ledgers.values():
                    harness.to_metrics(self.metrics)
        if self.slo is not None:
            report["slo"] = self.slo.report()
            if self.metrics is not None:
                self.slo.to_metrics(self.metrics)
        return report

    def _record(self, address: int) -> NodeRecord:
        if address not in self.nodes:
            raise KeyError(f"unknown node address {address}")
        return self.nodes[address]


def _ledger(harness):
    """The :class:`~repro.obs.ledger.EnergyLedger` of a ``ledgers`` entry
    (a :class:`~repro.obs.ledger.NodeEnergyHarness` or a bare ledger)."""
    return getattr(harness, "ledger", harness)
