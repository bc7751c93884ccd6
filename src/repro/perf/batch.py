"""Batched PHY engine: one matrix pass per channel stage for a fleet window.

The committed 10-node profile pins ``link.node`` at ~0.50 of an uncached
transaction with CPU/wall ~0.99 — pure GIL-bound compute, which
threads cannot overlap.  This module takes the other road ROADMAP open
item 1 calls for: instead of running N exchanges concurrently, it runs
the fleet's waveform work as stacked (N, samples) ndarray passes, then
lets the ordinary sequential rounds *replay* those results through the
leg memo, byte-for-byte.

Architecture — a predictive prepass, not a parallel executor
------------------------------------------------------------

:class:`BatchedLinkEngine.prewarm_round` runs before the reader's
sequential loop.  Once every ``window`` rounds it plans the coming
*window* of rounds in one shot:

* **Plan** (phase A): for each pollable address whose link takes the
  leg memo, dry-run the deterministic half of every exchange the node
  will run this window — power-up, query decode, command execution,
  reply framing — against the link's own node, snapshotting the node +
  noise RNG state first and restoring it after.  The dry run discovers
  exactly which leg-memo keys each live exchange will need (query
  decode, carrier leg, uplink tail) and which are missing; it runs with
  tracing off, so a traced campaign shows it as one ``batch.prewarm``
  span rather than as phantom node activity.  Planning a whole window is what
  defeats group fragmentation: a fleet's per-node analysis segments all
  have different lengths (different propagation delays), but the same
  node's segments across rounds are identical, so every batched stage
  below sees groups of ``window`` rows or more.
* **Batch** (phase B): compute every missing leg as grouped matrix
  kernels — stacked downlink envelopes through one band-pass/low-pass
  ``sosfiltfilt`` per group, one ``fftconvolve`` over an (N, samples)
  matrix per channel stage, one batched rfft/irfft for the re-radiation
  filters — and seed the per-link leg memos with the results (an
  envelope only feeds the query decode its dry run resumes with; the
  memo keeps the decode).  Every
  batched primitive is bit-identical to its per-row form (asserted in
  ``tests/perf/test_batch.py``), so a seeded memo entry is
  indistinguishable from one the sequential path would have computed.
* **Demodulate** (phase B2): with the quiet mixtures known, draw each
  link's ambient noise from its own seeded stream — one segment per
  planned exchange, in round order, restoring the RNG afterwards so the
  live rounds still observe the exact same stream positions — run the
  fleet-wide demod front-end as batched downconvert + filter passes
  plus fleet-wide FM0 preamble correlations, finish each row's
  data-dependent decode tail, and stash the result as a *hint* keyed
  ``(uplink key, noise RNG token)`` on the link.
* **Over-provision for retries**: a retransmission rebuilds the node's
  reply and draws the next noise segment, so it consumes the *next*
  planned exchange's hint — reading stream and noise stream shift in
  lockstep — and the shortfall surfaces as uncovered exchanges at the
  window's end.  The planner therefore dry-runs a few surplus
  exchanges per node past the window, resized each replan from the
  hints the node actually left unconsumed, so a retrying fleet's tail
  stays covered by precomputed work.

The live sequential rounds then simply hit the seeded memos, and
``BackscatterLink._run_stages_cached`` consumes a hint only when the
exchange is about to draw the very noise samples the prepass drew.  Any
divergence — an injected fault, a MAC retry, a mid-round
reconfiguration, a checkpoint restore — misses the token and falls back
to inline computation, so digest identity is structural rather than
proven case-by-case: the engine can only ever *pre-compute* what the
sequential path was going to compute anyway, and a wrong prediction
costs speed, never bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft
from scipy.signal import fftconvolve, hilbert

from repro.core.link import BackscatterLink, CarrierLeg, UplinkLeg
from repro.dsp.filters import butter_bandpass, butter_lowpass, envelope_detect
from repro.dsp.sync import batched_preamble_correlation, correct_cfo, estimate_cfo
from repro.dsp.waveforms import downconvert
from repro.net.health import HealthState
from repro.net.messages import Command, Query
from repro.obs.trace import Tracer, get_tracer, use_tracer


def resolve_link(transact, *, max_depth: int = 16) -> BackscatterLink | None:
    """The :class:`BackscatterLink` behind a transport callable, if any.

    Mirrors the duck typing of :mod:`repro.resilience.snapshot`: bound
    methods resolve through ``__self__``, fault-injector chains through
    their ``inner`` link.  ``None`` for test doubles and other
    transports with no waveform link behind them — the prepass then
    leaves that node entirely to the sequential path.
    """
    obj = transact
    for _ in range(max_depth):
        target = getattr(obj, "__self__", obj)
        if isinstance(target, BackscatterLink):
            return target
        obj = getattr(target, "inner", None)
        if obj is None:
            return None
    return None


@dataclass
class _NodePlan:
    """What the dry run learned about one upcoming exchange."""

    addr: int
    link: BackscatterLink
    query: Query
    round_offset: int                   # rounds ahead of the live round
    chips: np.ndarray | None = None
    bitrate: float | None = None
    mode: int | None = None
    uplink_format: object = None
    uplink_key: tuple | None = None
    carrier_key: tuple | None = None
    carrier_missing: bool = False
    uplink_missing: bool = False
    # Phase B scratch:
    leg: CarrierLeg | None = None
    uplink: UplinkLeg | None = None


@dataclass
class _DemodRow:
    """One noise draw + recording headed for the batched demodulator.

    ``token``/``after`` bracket the noise stream position the row
    mirrors; ``demod`` is filled in by :meth:`_demod_rows` (``None``
    until then, and left ``None`` when the front-end refuses the row).
    """

    plan: _NodePlan
    dem: object
    seg: np.ndarray
    token: object
    after: dict
    demod: object = None


@dataclass
class _NodeWindow:
    """One node's dry-run through the window's rounds.

    ``queries[k]`` is the query the node is predicted to receive in
    round ``k`` of the window, or ``None`` when the live round will skip
    the node entirely (quarantine backoff).  ``snapshot`` is held while
    the dry run is paused waiting for its batched downlink envelope;
    ``env_key`` names the query decode that envelope is for, and
    ``env`` holds the envelope until the resumed dry run decodes it.
    """

    addr: int
    link: BackscatterLink
    queries: list
    snapshot: dict | None = None
    next_round: int = 0
    env_key: tuple | None = None
    env_band: tuple | None = None
    env_query: Query | None = None
    env: np.ndarray | None = None
    plans: list = field(default_factory=list)


@dataclass
class BatchStats:
    """Counters for ``repro profile`` / bench attribution."""

    windows: int = 0
    rounds: int = 0
    planned: int = 0
    env_batched: int = 0
    carriers_batched: int = 0
    tails_batched: int = 0
    tails_inline: int = 0
    demods_precomputed: int = 0
    demods_carried: int = 0
    retries_planned: int = 0
    groups: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "windows": self.windows,
            "rounds": self.rounds,
            "planned": self.planned,
            "env_batched": self.env_batched,
            "carriers_batched": self.carriers_batched,
            "tails_batched": self.tails_batched,
            "tails_inline": self.tails_inline,
            "demods_precomputed": self.demods_precomputed,
            "demods_carried": self.demods_carried,
            "retries_planned": self.retries_planned,
            "groups": dict(self.groups),
        }


def _restore_keeping_hints(link, snapshot: dict) -> None:
    """Rewind a dry-run mutation without dropping the link's hints.

    ``BackscatterLink.restore_state`` clears pending batch hints —
    right for checkpoint restores, which replace the timeline — but
    the dry run rewinds to the very state the hints were computed
    against, so here they stay (unconsumed ones roll over to the next
    window's plans).
    """
    hints = link._batch_hints
    link._batch_hints = {}  # restore_state clears its dict in place
    link.restore_state(snapshot)
    link._batch_hints = hints


def _grouped(items, key):
    """``{key(item): [items...]}`` preserving first-seen group order."""
    out: dict = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return out


class BatchedLinkEngine:
    """Fleet-wide batched prepass for a :class:`ReaderController` campaign.

    Construct with the owning reader; call :meth:`prewarm_round` at the
    top of each sequential round.  Every ``window`` rounds the engine
    replans; in between it returns immediately (the hints for those
    rounds are already stashed).  The engine holds no campaign state
    beyond the replan countdown — hints and memos live on the links —
    so checkpoints and resumes need only :meth:`reset_window`.
    """

    #: Rounds planned per prepass.  Larger windows amortise the plan and
    #: build bigger matrix groups but waste more precompute when the
    #: campaign diverges (faults, retries, reconfigurations) mid-window.
    window: int = 8

    #: First-window surplus exchanges per node (see ``_retry_surplus``).
    initial_surplus: int = 2
    #: Upper bound on the per-node adaptive surplus.
    max_surplus: int = 12

    def __init__(self, reader) -> None:
        self.reader = reader
        self.stats = BatchStats()
        self._links: dict | None = None
        self._hinted_rounds = 0
        self._window_rounds = 0
        # Per-address retry over-provisioning: how many exchanges past
        # the window to plan, and how many rows the last window planned
        # (to tell "consumed everything" from "never planned").
        self._surplus: dict[int, int] = {}
        self._last_rows: dict[int, int] = {}

    # -- discovery -----------------------------------------------------------------

    def links(self) -> dict:
        """``{address: BackscatterLink}`` for resolvable transports."""
        if self._links is None:
            self._links = {}
            for addr, mac in self.reader._macs.items():
                link = resolve_link(mac.transact)
                if link is not None:
                    self._links[int(addr)] = link
        return self._links

    def reset_window(self) -> None:
        """Force a replan on the next round (after a checkpoint restore)."""
        self._hinted_rounds = 0

    def _adapt_surplus(self, links: dict) -> None:
        '''Resize each node's retry over-provisioning from last window.

        Zero leftover hints means every planned exchange (surplus
        included) was consumed — the node likely ran short and fell
        back inline, so the surplus grows.  More than one leftover
        means the window over-planned; the surplus shrinks by the
        excess.  Exactly one leftover is treated as on-target (the
        common steady state: surplus matched the retries plus the
        usual end-of-window remainder).  A wrong size is never a
        correctness matter — too small falls back inline, too large
        wastes prepass compute on hints that age out at the replan.
        '''
        for addr, planned in self._last_rows.items():
            link = links.get(addr)
            if link is None or planned <= 0:
                continue
            left = len(link._batch_hints)
            surplus = self._surplus.get(addr, self.initial_surplus)
            if left == 0:
                surplus = min(surplus + 2, self.max_surplus)
            elif left > 1:
                surplus = max(surplus - (left - 1), 0)
            self._surplus[addr] = surplus
        self._last_rows = {}

    # -- the prepass ---------------------------------------------------------------

    def prewarm_round(self, command: Command, remaining: int | None = None) -> int:
        """Precompute the coming window's legs and demods.

        Returns the number of exchanges planned (0 on the in-window
        rounds that were already hinted).  Safe to call unconditionally:
        only links whose own exchanges take the leg memo
        (``BackscatterLink._memo_active``) are planned, because nothing
        else has byte-identical results to seed.  ``remaining`` caps the
        window at the campaign rounds actually left.

        A replan runs inside one ``batch.prewarm`` span of the global
        tracer, with tracing off underneath: the dry run replays node
        firmware that a trace must not show as extra exchanges.
        """
        if self._hinted_rounds > 0:
            self._hinted_rounds -= 1
            return 0
        with get_tracer().span("batch.prewarm") as span, use_tracer(
            Tracer(enabled=False)
        ):
            planned = self._prewarm_window(command, remaining)
            span.set(planned=planned)
        return planned

    def _prewarm_window(self, command: Command, remaining: int | None) -> int:
        """Plan, batch and demodulate one window; returns the plans made."""
        links = self.links()
        self._adapt_surplus(links)
        window = self.window
        if remaining is not None:
            window = max(1, min(window, int(remaining)))
        self._window_rounds = window
        windows = self._plan_windows(command, links, window)
        self._hinted_rounds = window - 1
        if not windows:
            return 0
        self.stats.windows += 1
        self.stats.rounds += window
        pending = [w for w in windows if w.snapshot is not None]
        if pending:
            try:
                self._batch_downlink_envelopes(pending)
            finally:
                for w in pending:
                    if w.env is not None:
                        self._advance_window(w)
                    if w.snapshot is not None:
                        # Envelope never materialised (or the dry run
                        # paused twice): abandon this node's remaining
                        # rounds rather than leave it frozen mid-window.
                        _restore_keeping_hints(w.link, w.snapshot)
                        w.snapshot = None
        plans = [p for w in windows for p in w.plans]
        self.stats.planned += len(plans)
        if not plans:
            return 0
        self._batch_carrier_legs([p for p in plans if p.carrier_missing])
        self._batch_uplink_tails(plans)
        self._batch_demodulations(plans)
        return len(plans)

    # -- phase A: planning ----------------------------------------------------------

    def _plan_windows(self, command: Command, links: dict, window: int) -> list:
        """Dry-run every node's window of exchanges.

        Membership and per-round commands are predicted from the
        reader's *current* health state: quarantined nodes get a PING in
        the rounds where their probe backoff will have elapsed, healthy
        nodes get the campaign command every round.  Nodes the prepass
        cannot predict or serve — shard-quarantined, pending bitrate
        downgrades (which splice an extra SET_BITRATE exchange in front
        of the sensing poll), links whose exchanges skip the leg memo
        (probed or ledgered), unresolvable transports — are skipped; the
        sequential path computes them inline exactly as before.  A
        prediction the campaign later contradicts (a node fails
        mid-window, a probe succeeds) only wastes the stale hints.
        """
        reader = self.reader
        t = float(reader._round)
        windows: list[_NodeWindow] = []
        for addr in sorted(reader._macs):
            if addr in reader._quarantined_shards:
                continue
            record = reader.nodes[addr]
            health = record.health
            if (
                record.pending_downgrade
                and health.state is HealthState.DEGRADED
            ):
                continue
            link = links.get(addr)
            if link is None or not link._memo_active():
                continue
            if health.state is HealthState.QUARANTINED:
                queries = [
                    Query(destination=addr, command=Command.PING)
                    if health.due_for_probe(t + k)
                    else None
                    for k in range(window)
                ]
            else:
                # Over-provision for retries: a retransmission rebuilds
                # the node's reply and draws the next noise segment, so
                # it consumes the *next* planned exchange's hint — the
                # whole window shifts left and the shortfall surfaces
                # as uncovered exchanges at the end.  Planning a few
                # exchanges past the window keeps a retrying node's
                # tail covered; the surplus is resized per node from
                # the leftovers the last window did not consume.
                surplus = self._surplus.get(addr, self.initial_surplus)
                queries = [
                    Query(destination=addr, command=command)
                ] * (window + surplus)
            if not any(q is not None for q in queries):
                continue
            w = _NodeWindow(addr=addr, link=link, queries=queries)
            self._advance_window(w)
            if w.plans or w.snapshot is not None:
                windows.append(w)
        return windows

    def _advance_window(self, w: _NodeWindow) -> None:
        """Dry-run ``w`` forward; restore the node unless paused.

        Pauses (keeping the snapshot held) when a round needs a downlink
        envelope that is not memoized yet — the caller batch-computes it
        and calls again.  Any other exit restores the held snapshot,
        even on an unexpected error: a half-mutated node would corrupt
        the live rounds, whereas a lost prediction only costs speed.
        """
        link = w.link
        if w.snapshot is None:
            w.snapshot = link.snapshot_state()
        paused = False
        try:
            paused = self._dry_run_rounds(w)
        finally:
            if not paused and w.snapshot is not None:
                _restore_keeping_hints(link, w.snapshot)
                w.snapshot = None

    def _dry_run_rounds(self, w: _NodeWindow) -> bool:
        """Run ``w``'s remaining rounds; True when paused for an envelope.

        Replicates, in order, every node-state mutation the live
        exchange makes before its uplink — ``try_power_up``, query
        decode, ``respond`` (which advances the sensor ADC RNGs), and
        ``response_sent`` — so round *k*'s predicted chips come from
        exactly the node state the live round *k* will see.
        """
        link = w.link
        memo = link._leg_memo
        node = link.node
        fs = link.sample_rate
        while w.next_round < len(w.queries):
            k = w.next_round
            query = w.queries[k]
            if query is None:
                w.next_round += 1
                continue
            mode = node.firmware.config.resonance_mode
            bitrate = node.bitrate
            budget = memo.get_or_compute(("budget", mode, bitrate), link.budget)
            powered = node.try_power_up(
                budget.incident_pressure_pa, link.projector.carrier_hz
            )
            if not powered:
                w.next_round += 1
                continue
            decode_key = ("downlink_decode", query, mode)
            if decode_key in memo:
                decoded = memo.get_or_compute(decode_key, lambda: None)
            elif w.env is not None and w.env_key == decode_key:
                # Resumed with the batched envelope: decode it, as the
                # live exchange would, and seed the memo with the result.
                decoded = node.receive_query(w.env, fs)
                memo.put(decode_key, decoded)
                w.env = None
            elif w.env_key is not None:
                # Second distinct envelope in one window — the single
                # envelope batch has already run.  Abandon the remaining
                # rounds (they run inline).
                return False
            else:
                lo, hi = link._node_band()
                w.env_key = decode_key
                w.env_band = (max(lo, 1.0), min(hi, fs / 2.0 - 1.0))
                w.env_query = query
                return True
            if decoded is None:
                w.next_round += 1
                continue
            response = node.respond(decoded)
            if response is None:
                w.next_round += 1
                continue
            chips = node.uplink_chips(response)
            node.firmware.response_sent()
            bitrate = node.bitrate
            mode = node.firmware.config.resonance_mode
            plan = _NodePlan(
                addr=w.addr, link=link, query=query, round_offset=k,
                chips=chips, bitrate=bitrate, mode=mode,
                uplink_format=node.firmware.config.uplink_format,
            )
            plan.uplink_key = (
                "uplink", query, chips.tobytes(), bitrate, mode
            )
            plan.carrier_key = ("carrier", query, len(chips), bitrate, mode)
            plan.uplink_missing = plan.uplink_key not in memo and not any(
                p.uplink_key == plan.uplink_key for p in w.plans
            )
            plan.carrier_missing = (
                plan.uplink_missing
                and plan.carrier_key not in memo
                and not any(
                    p.carrier_key == plan.carrier_key for p in w.plans
                )
            )
            w.plans.append(plan)
            w.next_round += 1
        return False

    # -- phase B: batched legs ------------------------------------------------------

    def _batch_downlink_envelopes(self, pending: list) -> None:
        """Stacked envelope detection for every paused query decode.

        Per group of equal-shape rows this is one (N, samples) channel
        convolution, one band-pass, one rectify + low-pass — each
        bit-identical to the sequential per-row computation (the
        convolution is the very ``fftconvolve`` the channel applies,
        handed the stacked matrix with ``axes=-1``).  Each envelope goes
        to its window, whose resumed dry run decodes it.
        """
        rows = []
        for w in pending:
            link = w.link
            qw = link.projector.query_waveform(w.env_query, link.sample_rate)
            ir = link.ch_projector_node._impulse
            rows.append((w, qw, ir))
        groups = _grouped(
            rows,
            lambda r: (
                len(r[1]), len(r[2]), r[0].env_band,
                r[0].link.projector.carrier_hz, r[0].link.sample_rate,
            ),
        )
        self.stats.groups["downlink_env"] = (
            self.stats.groups.get("downlink_env", 0) + len(groups)
        )
        for (n, m, (lo, hi), f, fs), group in groups.items():
            tx = np.stack([qw for _w, qw, _ir in group])
            irs = np.stack([ir for _w, _qw, ir in group])
            gains = np.array(
                [w.link.beam_gain_node for w, _qw, _ir in group]
            )
            incident = gains[:, None] * fftconvolve(tx, irs, axes=-1)
            selective = butter_bandpass(incident, lo, hi, fs, order=2)
            envs = envelope_detect(selective, f, fs)
            for (w, _qw, _ir), env in zip(group, envs):
                w.env = env
                self.stats.env_batched += 1

    def _batch_carrier_legs(self, plans: list) -> None:
        """Batched transmit-side legs: incident and direct channel stages.

        The projector waveform and the analytic (Hilbert) transform stay
        per-row — the hilbert transform gains nothing from stacking on
        one core — but both propagation convolutions run as one
        (N, samples) ``fftconvolve`` per equal-shape group, exactly as
        :meth:`BackscatterLink._carrier_leg` computes them row by row.
        """
        if not plans:
            return
        rows = []
        for plan in plans:
            link = plan.link
            fs = link.sample_rate
            chip_rate = 2.0 * plan.bitrate
            uplink_s = len(plan.chips) / chip_rate + link.UPLINK_MARGIN_S
            tx, uplink_start = link.projector.query_then_carrier(
                plan.query, uplink_s, fs
            )
            rows.append((plan, tx, uplink_start))
        groups = _grouped(
            rows,
            lambda r: (
                len(r[1]),
                len(r[0].link.ch_projector_node._impulse),
                len(r[0].link.ch_projector_hydrophone._impulse),
            ),
        )
        self.stats.groups["carrier"] = (
            self.stats.groups.get("carrier", 0) + len(groups)
        )
        for group in groups.values():
            tx_stack = np.stack([tx for _plan, tx, _s in group])
            ir_pn = np.stack(
                [p.link.ch_projector_node._impulse for p, _tx, _s in group]
            )
            ir_ph = np.stack(
                [
                    p.link.ch_projector_hydrophone._impulse
                    for p, _tx, _s in group
                ]
            )
            g_node = np.array(
                [p.link.beam_gain_node for p, _tx, _s in group]
            )
            g_hyd = np.array(
                [p.link.beam_gain_hydrophone for p, _tx, _s in group]
            )
            incidents = g_node[:, None] * fftconvolve(tx_stack, ir_pn, axes=-1)
            directs = g_hyd[:, None] * fftconvolve(tx_stack, ir_ph, axes=-1)
            for (plan, _tx, uplink_start), incident, direct in zip(
                group, incidents, directs
            ):
                link = plan.link
                link._leg_memo.put(
                    plan.carrier_key,
                    link._slim_carrier(
                        hilbert(np.asarray(incident, dtype=float)), direct,
                        uplink_start, len(plan.chips), plan.bitrate, plan.mode,
                    ),
                )
                self.stats.carriers_batched += 1

    def _batch_uplink_tails(self, plans: list) -> None:
        """Chip-dependent tails: batched re-radiation + uplink channel.

        The re-radiation filter is the tail's dominant cost — its
        length is typically a *prime* sample count, so pocketfft runs a
        Bluestein transform an order of magnitude slower than a
        composite length — and the batching sweet spot: one stacked
        rfft, a per-row response multiply, one stacked irfft per
        equal-length group.  Rows of a drifting (Doppler) link fall
        back to the link's own per-row tail, and every plan ends
        holding its quiet mixture for the demod prepass.
        """
        tails, seen_inline = [], []
        for plan in plans:
            link = plan.link
            memo = link._leg_memo
            plan.leg = memo.get_or_compute(
                plan.carrier_key,
                lambda plan=plan: plan.link._carrier_leg(
                    plan.query, len(plan.chips), plan.bitrate, plan.mode
                ),
            )
            if not plan.uplink_missing:
                # Already memoized, or queued behind an identical plan
                # earlier in the window: resolved after the batch below.
                seen_inline.append(plan)
            elif link.node_velocity_mps:
                plan.uplink = memo.get_or_compute(
                    plan.uplink_key,
                    lambda plan=plan: plan.link._uplink_leg(
                        plan.leg, plan.chips, plan.bitrate
                    ),
                )
                self.stats.tails_inline += 1
            else:
                tails.append(plan)
        if tails:
            groups = _grouped(
                tails,
                lambda p: (
                    len(p.leg.idle), len(p.link.ch_node_hydrophone._impulse)
                ),
            )
            self.stats.groups["uplink_tail"] = (
                self.stats.groups.get("uplink_tail", 0) + len(groups)
            )
            for (n, _m), group in groups.items():
                reflected = np.stack(
                    [
                        p.link._reflected(
                            p.leg.idle, p.leg.window, p.leg.reply_start,
                            p.chips, p.bitrate,
                        )
                        for p in group
                    ]
                )
                responses = np.stack(
                    [p.link._reradiation_response(n) for p in group]
                )
                spectra = scipy.fft.rfft(reflected, axis=-1)
                filtered = scipy.fft.irfft(spectra * responses, n=n, axis=-1)
                ir_nh = np.stack(
                    [p.link.ch_node_hydrophone._impulse for p in group]
                )
                uplinks = fftconvolve(filtered, ir_nh, axes=-1)
                for plan, uplink in zip(group, uplinks):
                    plan.uplink = plan.link._quiet_tail(plan.leg, uplink)
                    plan.link._leg_memo.put(plan.uplink_key, plan.uplink)
                    self.stats.tails_batched += 1
        for plan in seen_inline:
            plan.uplink = plan.link._leg_memo.get_or_compute(
                plan.uplink_key,
                lambda plan=plan: plan.link._uplink_leg(
                    plan.leg, plan.chips, plan.bitrate
                ),
            )

    # -- phase B2: batched demodulation ----------------------------------------------

    def _batch_demodulations(self, plans: list) -> None:
        """Precompute each exchange's decode against its known noise.

        Each link's ambient noise is drawn from its own seeded stream,
        one segment per planned exchange *in round order* (the stream is
        snapshotted before the first draw and restored after the last,
        so the live rounds see an untouched stream that will replay the
        very same positions).  The rows then run through
        :meth:`_demod_rows` — the batched demod front-end plus the
        per-row decode tail.  Surplus rows (round offsets past the live
        window) cover the retransmissions the MAC is predicted to
        issue; per-node leftovers recorded here feed the surplus
        controller at the next replan.
        """
        rows: list[_DemodRow] = []
        by_link = _grouped(plans, lambda p: id(p.link))
        for link_plans in by_link.values():
            link = link_plans[0].link
            before_all = link.noise.snapshot_state()
            # The previous window's unconsumed hints are not stale:
            # a leftover at stream position p is exactly the decode
            # this window's plan at position p would recompute (same
            # key, same token — else it simply won't match).  Swap in
            # a fresh dict and copy carried entries across, so valid
            # work rolls over and everything else ages out here.
            carried = link._batch_hints
            link._batch_hints = {}
            mine: list[_DemodRow] = []
            planned = 0
            try:
                for plan in link_plans:
                    if plan.uplink is None:
                        # No mixture means no live noise draw to mirror;
                        # later rounds' stream positions are unknowable.
                        break
                    token = link._noise_token()
                    planned += 1
                    hint = carried.get((plan.uplink_key, token))
                    if hint is not None:
                        link._batch_hints[(plan.uplink_key, token)] = hint
                        link.noise.restore_state(hint[0])
                        self.stats.demods_carried += 1
                        continue
                    seg = link._record_tail(plan.uplink)
                    after = link.noise.snapshot_state()
                    dem = link.hydrophone.demodulator(
                        link.projector.carrier_hz,
                        plan.bitrate,
                        packet_format=plan.uplink_format,
                        detection_threshold=link.DETECTION_THRESHOLD,
                    )
                    mine.append(_DemodRow(plan, dem, seg, token, after))
            finally:
                link.noise.restore_state(before_all)
            if planned:
                self._last_rows[link_plans[0].addr] = planned
                self.stats.retries_planned += sum(
                    1
                    for plan in link_plans[:planned]
                    if plan.round_offset >= self._window_rounds
                )
            rows.extend(mine)
        self._demod_rows(rows)

    def _demod_rows(self, rows: list) -> None:
        """Demodulate a batch of rows and stash the results as hints.

        The demod front-end runs as one batched downconvert + low-pass
        per group — window planning guarantees each node contributes
        one equal-length row per round, so groups are ``window`` rows
        or more — the preamble search as one fleet-wide FM0 matrix
        correlation, and the data-dependent decode tail per row.
        Results are stashed as hints keyed ``(uplink key, noise
        token)``; the live exchange consumes a hint only when both
        match, and then advances its RNG to exactly where drawing the
        noise would have left it.
        """
        groups = _grouped(
            rows,
            lambda r: (
                len(r.seg), r.dem.carrier_hz, r.dem.bitrate,
                r.dem.sample_rate, r.dem.packet_format,
                r.dem.detection_threshold,
            ),
        )
        self.stats.groups["demod"] = (
            self.stats.groups.get("demod", 0) + len(groups)
        )
        for group in groups.values():
            dem = group[0].dem
            fs = dem.sample_rate
            segs = np.stack([row.seg for row in group])
            cutoff = min(
                max(2.5 * dem.chip_rate, 200.0), fs / 2.5
            )
            raw = butter_lowpass(
                downconvert(segs, dem.carrier_hz, fs), cutoff, fs
            )
            basebands = []
            modulations = []
            for row in raw:
                try:
                    cfo = estimate_cfo(row, fs)
                except ValueError:
                    # Sequential would raise here too — but only if the
                    # live exchange actually reaches the demod (a fault
                    # injector may fabricate first).  Leave the row to
                    # the live path rather than pre-raising.
                    basebands.append(None)
                    modulations.append(None)
                    continue
                baseband = correct_cfo(row, cfo, fs)
                basebands.append((baseband, cfo))
                modulations.append(dem.extract_modulation(baseband))
            good = [m for m in modulations if m is not None]
            corrs = iter(())
            if good:
                try:
                    corrs = iter(
                        batched_preamble_correlation(
                            np.stack(good),
                            dem.packet_format.preamble,
                            dem.chip_rate,
                            fs,
                        )
                    )
                except ValueError:
                    # Rows shorter than the preamble template: the
                    # per-row tail reports that exactly as sequential.
                    corrs = iter([None] * len(good))
            for row, bb, mod in zip(group, basebands, modulations):
                if bb is None:
                    continue
                baseband, cfo = bb
                demod = row.dem.demodulate_from_baseband(
                    baseband,
                    cfo,
                    max_candidates=5,
                    corr=next(corrs),
                    modulation=mod,
                )
                row.demod = demod
                row.plan.link._batch_hints[
                    (row.plan.uplink_key, row.token)
                ] = (row.after, demod)
                self.stats.demods_precomputed += 1

