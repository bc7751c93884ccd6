"""Batched PHY engine: one stacked stage call per group of a fleet window.

The sequential loop runs a fleet's exchanges one at a time.  This module
runs their waveform work ahead of the live rounds instead: it predicts a
window of exchanges, runs each link stage once per group of equal-shape
rows as an (N, samples) stack, then lets the ordinary sequential rounds
*replay* those results through the leg memo, byte-for-byte.

Architecture — a predictive prepass, not a parallel executor
------------------------------------------------------------

:class:`BatchedLinkEngine.prewarm_round` runs before the reader's
sequential loop.  Once every ``window`` rounds it plans the coming
*window* of rounds in one shot:

* **Plan** (phase A): for each pollable address whose link the dry run
  may plan (:func:`plannable`), dry-run the deterministic half of every
  exchange the node will run this window — the link's own pre-uplink
  steps (``BackscatterLink._reply``: power-up, query decode, command
  execution, reply framing) — against the link's own node,
  snapshotting the node state first and restoring it after (the dry
  run draws no noise).  The dry run discovers
  exactly which leg-memo keys each live exchange will need (query
  decode, carrier leg, uplink tail) and which are missing; it runs with
  tracing off, so a traced campaign shows it as one ``batch.prewarm``
  span rather than as phantom node activity.  Planning a whole window is what
  defeats group fragmentation: a fleet's per-node analysis segments all
  have different lengths (different propagation delays), but the same
  node's segments across rounds are identical, so every batched stage
  below sees groups of ``window`` rows or more.
* **Batch** (phase B): compute every missing leg with the link's own
  stacked stages (:mod:`repro.core.link`) — downlink envelopes
  (``_incident``, then ``_envelope``), carrier legs (``_carrier_legs``)
  and uplink tails (``_uplink_legs``, drifting nodes included) — one
  call per group of rows that share the shapes a stack needs, and seed
  the per-link leg memos with the results (an envelope only feeds the
  query decode its dry run resumes with; the memo keeps the decode).
  A live exchange makes the same calls with one row, so a seeded memo
  entry is the one the sequential path would have computed, by
  construction.
* **Demodulate** (phase B2): with the quiet mixtures known, draw each
  link's ambient noise from its own seeded stream — one segment per
  planned exchange, in round order, restoring the RNG afterwards so the
  live rounds still observe the exact same stream positions — decode
  each group of equal-length segments in one
  ``BackscatterDemodulator.demodulate_rows`` call (stacked front end
  and preamble correlation, per-row decode tail), and stash each
  result as a *hint* keyed ``(uplink key, noise RNG token)`` on the
  link.
* **Over-provision for retries**: a retransmission rebuilds the node's
  reply and draws the next noise segment, so it consumes the *next*
  planned exchange's hint — reading stream and noise stream shift in
  lockstep — and the shortfall surfaces as uncovered exchanges at the
  window's end.  The planner therefore dry-runs a few surplus
  exchanges per node past the window, resized each replan from the
  hints the node actually left unconsumed, so a retrying fleet's tail
  stays covered by precomputed work.

The live sequential rounds then simply hit the seeded memos, and
``BackscatterLink.run_query`` consumes a hint only when the exchange,
unprobed, is about to draw the very noise samples the prepass drew.  Any
divergence — an injected fault, a MAC retry, a mid-round
reconfiguration, a checkpoint restore — misses the token and falls back
to inline computation, so digest identity is structural rather than
proven case-by-case: the engine can only ever *pre-compute* what the
sequential path was going to compute anyway, and a wrong prediction
costs speed, never bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.link import BackscatterLink, CarrierLeg, NodeReply, UplinkLeg
from repro.core.link import _carrier_legs, _envelope, _incident, _uplink_legs
from repro.net.health import HealthState
from repro.net.messages import Command, Query
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.perf.cache import cache_enabled
from repro.perf.kernels import stack_rows

#: The tracer the dry run runs under: it replays node firmware that a
#: trace must not show as extra exchanges.
_UNTRACED = Tracer(enabled=False)


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


def plannable(link: BackscatterLink) -> bool:
    """Whether the dry run may plan ``link``'s exchanges.

    Caching must be on (the plan seeds the leg memo), no probes may be
    enabled (a probed exchange computes the legs its probes want and
    consumes no hint), and the node may carry no firmware energy
    ledger: the dry run's ``try_power_up`` builds a ``PowerUpSimulator``
    that re-attaches the ledger and appends an SoC sample, which
    restoring the node does not undo.
    """
    return (
        cache_enabled()
        and not link._probes().enabled
        and link.node.firmware.ledger is None
    )


class _Pause(Exception):
    """Stops a dry run at a query decode the leg memo does not hold."""


@dataclass
class _NodePlan:
    """What the dry run learned about one upcoming exchange."""

    addr: int
    link: BackscatterLink
    reply: NodeReply
    round_offset: int                   # rounds ahead of the live round
    uplink_format: object = None
    carrier_missing: bool = False
    uplink_missing: bool = False
    # Phase B scratch:
    leg: CarrierLeg | None = None
    uplink: UplinkLeg | None = None


@dataclass
class _DemodRow:
    """One noise draw + recording headed for the batched demodulator.

    ``token``/``after`` bracket the noise stream position it mirrors.
    """

    plan: _NodePlan
    dem: object
    seg: np.ndarray
    token: object
    after: dict


@dataclass
class _NodeWindow:
    """One node's dry-run through the window's rounds.

    ``queries[k]`` is the query the node is predicted to receive in
    round ``k`` of the window, or ``None`` when the live round will skip
    the node entirely (quarantine backoff).  ``snapshot`` holds the
    node's state while the dry run is paused waiting for its batched
    downlink envelope; ``env_key`` names the query decode that envelope
    is for, and ``env`` holds the envelope until the resumed dry run
    decodes it.
    """

    addr: int
    link: BackscatterLink
    queries: list
    snapshot: dict | None = None
    next_round: int = 0
    env_key: tuple | None = None
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
    demods_precomputed: int = 0
    demods_carried: int = 0
    retries_planned: int = 0
    groups: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


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

    #: First-window surplus exchanges per node (see ``_adapt_surplus``).
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
        only :func:`plannable` links are planned.  ``remaining`` caps the
        window at the campaign rounds actually left.

        A replan runs inside one ``batch.prewarm`` span of the global
        tracer, with tracing off underneath: the dry run replays node
        firmware that a trace must not show as extra exchanges.
        """
        if self._hinted_rounds > 0:
            self._hinted_rounds -= 1
            return 0
        with get_tracer().span("batch.prewarm") as span, use_tracer(_UNTRACED):
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
                        self._dry_run_rounds(w)
                    if w.snapshot is not None:
                        # Envelope never materialised (or the dry run
                        # paused twice): abandon this node's remaining
                        # rounds rather than leave it frozen mid-window.
                        w.link.node.restore_state(w.snapshot)
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
        of the sensing poll), links that are not :func:`plannable`,
        unresolvable transports — are skipped; the
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
            if record.pending_downgrade and health.state is HealthState.DEGRADED:
                continue
            link = links.get(addr)
            if link is None or not plannable(link):
                continue
            if health.state is HealthState.QUARANTINED:
                queries = [
                    Query(destination=addr, command=Command.PING)
                    if health.due_for_probe(t + k)
                    else None
                    for k in range(window)
                ]
            else:
                # Over-provision for retries (see the module docstring);
                # _adapt_surplus resizes the surplus per node.
                surplus = self._surplus.get(addr, self.initial_surplus)
                queries = [
                    Query(destination=addr, command=command)
                ] * (window + surplus)
            if not any(q is not None for q in queries):
                continue
            w = _NodeWindow(addr=addr, link=link, queries=queries)
            self._dry_run_rounds(w)
            if w.plans or w.snapshot is not None:
                windows.append(w)
        return windows

    def _dry_run_rounds(self, w: _NodeWindow) -> None:
        """Dry-run ``w``'s remaining rounds; restore the node unless paused.

        Each round runs the link's own pre-uplink steps
        (``BackscatterLink._reply``), then ``response_sent``, so round
        *k*'s predicted chips come from exactly the node state the live
        round *k* will see (``respond`` advances the sensor ADC RNGs).
        Its decode step reads the memo, decodes the window's batched
        envelope, or pauses the run, keeping the node's snapshot held
        until the caller has batch-computed the envelope and calls
        again.  Any other exit restores the snapshot, even on an
        unexpected error: a half-mutated node would corrupt the live
        rounds, whereas a lost prediction only costs speed.
        """
        link = w.link
        memo = link._leg_memo
        if w.snapshot is None:
            w.snapshot = link.node.snapshot_state()

        def decode(query, key):
            if key in memo:
                return memo.get_or_compute(key, lambda: None)
            if w.env is not None and w.env_key == key:
                # Resumed with the batched envelope: decode it, as the
                # live exchange would, and seed the memo with the result.
                decoded = link.node.receive_query(w.env, link.sample_rate)
                memo.put(key, decoded)
                w.env = None
                return decoded
            # Wait for the window's envelope batch.  A second pause comes
            # after the batch has run: the caller then restores the node,
            # and the remaining rounds run inline.
            w.env_key, w.env_query = key, query
            raise _Pause

        paused = False
        try:
            while w.next_round < len(w.queries):
                query = w.queries[w.next_round]
                if query is not None:
                    try:
                        reply = link._reply(
                            query, decode, _UNTRACED, link._probes()
                        )
                    except _Pause:
                        paused = True
                        return
                    if reply.response is not None:
                        link.node.firmware.response_sent()
                        w.plans.append(self._plan(w, reply))
                w.next_round += 1
        finally:
            if not paused:
                link.node.restore_state(w.snapshot)
                w.snapshot = None

    def _plan(self, w: _NodeWindow, reply: NodeReply) -> _NodePlan:
        """Plan round ``w.next_round``'s uplink; flag the legs to batch."""
        memo = w.link._leg_memo
        uplink_missing = reply.uplink_key not in memo and not any(
            p.reply.uplink_key == reply.uplink_key for p in w.plans
        )
        return _NodePlan(
            addr=w.addr, link=w.link, reply=reply, round_offset=w.next_round,
            uplink_format=w.link.node.firmware.config.uplink_format,
            uplink_missing=uplink_missing,
            carrier_missing=(
                uplink_missing
                and reply.carrier_key not in memo
                and not any(
                    p.reply.carrier_key == reply.carrier_key for p in w.plans
                )
            ),
        )

    # -- phase B: batched legs ------------------------------------------------------

    def _groups(self, stage: str, items, key) -> list:
        """``items`` grouped by ``key`` (first-seen order), counted under ``stage``."""
        groups = _grouped(items, key)
        self.stats.groups[stage] = self.stats.groups.get(stage, 0) + len(groups)
        return list(groups.values())

    def _batch_downlink_envelopes(self, pending: list) -> None:
        """Stacked envelopes (``_incident``, ``_envelope``) for the paused decodes.

        A paused node still holds the state its decode waits in, so its
        receive band is the one the live decode filters with.  Each
        envelope goes to its window, whose resumed dry run decodes it.
        """
        rows = [
            (w, w.link.projector.query_waveform(w.env_query, w.link.sample_rate))
            for w in pending
        ]
        for group in self._groups(
            "downlink_env", rows,
            lambda r: (
                len(r[1]), len(r[0].link.ch_projector_node._impulse),
                r[0].link._node_band(), r[0].link.projector.carrier_hz,
                r[0].link.sample_rate,
            ),
        ):
            links = [w.link for w, _qw in group]
            tx = stack_rows([qw for _w, qw in group])
            for (w, _qw), env in zip(group, _envelope(links, _incident(links, tx))):
                w.env = env
            self.stats.env_batched += len(group)

    def _batch_carrier_legs(self, plans: list) -> None:
        """Stacked carrier legs (``_carrier_legs``) for the plans missing one."""
        rows = [
            (p, *p.link._carrier_tx(p.reply.query, len(p.reply.chips), p.reply.bitrate))
            for p in plans
        ]
        for group in self._groups(
            "carrier", rows,
            lambda r: (
                len(r[1]), len(r[0].link.ch_projector_node._impulse),
                len(r[0].link.ch_projector_hydrophone._impulse),
            ),
        ):
            legs = _carrier_legs(
                [p.link for p, _tx, _start in group],
                stack_rows([tx for _p, tx, _start in group]),
                [
                    (start, len(p.reply.chips), p.reply.bitrate, p.reply.mode)
                    for p, _tx, start in group
                ],
            )
            for (plan, _tx, _start), leg in zip(group, legs):
                plan.link._leg_memo.put(plan.reply.carrier_key, leg)
            self.stats.carriers_batched += len(group)

    def _batch_uplink_tails(self, plans: list) -> None:
        """Stacked uplink tails (``_uplink_legs``) for the plans missing one.

        A drifting node's rows join the stack like any other: the stage
        dilates them per row.  Every plan ends holding its quiet mixture
        for the demod prepass.
        """
        missing, rest = [], []
        for plan in plans:
            link, reply = plan.link, plan.reply
            plan.leg = link._leg_memo.get_or_compute(
                reply.carrier_key,
                lambda: link._carrier_leg(
                    reply.query, len(reply.chips), reply.bitrate, reply.mode
                ),
            )
            # Already memoized, or queued behind an identical plan
            # earlier in the window: resolved after the batch below.
            (missing if plan.uplink_missing else rest).append(plan)
        for group in self._groups(
            "uplink_tail", missing,
            lambda p: (len(p.leg.idle), len(p.link.ch_node_hydrophone._impulse)),
        ):
            legs = _uplink_legs(
                [p.link for p in group], [p.leg for p in group],
                [p.reply.chips for p in group], [p.reply.bitrate for p in group],
            )
            for plan, leg in zip(group, legs):
                plan.uplink = leg
                plan.link._leg_memo.put(plan.reply.uplink_key, leg)
            self.stats.tails_batched += len(group)
        for plan in rest:
            plan.uplink = plan.link._leg_memo.get_or_compute(
                plan.reply.uplink_key,
                lambda: plan.link._uplink_leg(
                    plan.leg, plan.reply.chips, plan.reply.bitrate
                ),
            )

    # -- phase B2: batched demodulation ----------------------------------------------

    def _batch_demodulations(self, plans: list) -> None:
        """Precompute each exchange's decode against its known noise.

        Each link's ambient noise is drawn from its own seeded stream,
        one segment per planned exchange *in round order* (the stream is
        snapshotted before the first draw and restored after the last,
        so the live rounds see an untouched stream that will replay the
        very same positions); :meth:`_demod_rows` decodes the segments.
        Per-node row counts recorded here feed :meth:`_adapt_surplus` at
        the next replan.
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
                    hint_key = (plan.reply.uplink_key, token)
                    hint = carried.get(hint_key)
                    if hint is not None:
                        link._batch_hints[hint_key] = hint
                        link.noise.restore_state(hint[0])
                        self.stats.demods_carried += 1
                        continue
                    seg = link._record_tail(plan.uplink)
                    after = link.noise.snapshot_state()
                    dem = link.hydrophone.demodulator(
                        link.projector.carrier_hz,
                        plan.reply.bitrate,
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
        """One ``demodulate_rows`` call per group; stash the decodes as hints.

        Window planning gives each node one equal-length row per round,
        so a group (one segment length and demodulator) holds ``window``
        rows or more.  Hints are keyed ``(uplink key, noise token)``.
        """
        for group in self._groups("demod", rows, lambda r: (len(r.seg), r.dem)):
            demods = group[0].dem.demodulate_rows(
                stack_rows([row.seg for row in group])
            )
            for row, demod in zip(group, demods):
                if isinstance(demod, ValueError):
                    # The live exchange raises this itself, if it reaches
                    # the demodulator (a fault injector may fabricate
                    # first), so no hint pre-empts it.
                    continue
                row.plan.link._batch_hints[
                    (row.plan.reply.uplink_key, row.token)
                ] = (row.after, demod)
                self.stats.demods_precomputed += 1
