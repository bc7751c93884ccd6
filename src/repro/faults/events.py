"""Structured event log for fault-injection and recovery accounting.

The resilient reader stack emits one :class:`Event` per noteworthy
occurrence — an injected fault, a retry, a health-state transition, a
bitrate downgrade, a recovery — into an :class:`EventLog`.  Tests assert
against the log (same seed => byte-identical ``to_lines()``), and
deployments read availability and MTTR per node from it.

Time is whatever clock the emitter uses.  The reader stack uses its
polling-round counter (a deterministic virtual clock); waveform-level
harnesses may use accumulated airtime seconds.  The log itself never
consults a wall clock, so it is reproducible by construction.
"""

from __future__ import annotations

import enum
import json
import pathlib
from dataclasses import dataclass, field


class EventKind(str, enum.Enum):
    """Event categories the stack emits."""

    FAULT = "fault"            # an injector fired
    ATTEMPT = "attempt"        # one MAC transmission
    RETRY = "retry"            # a retransmission was scheduled
    BACKOFF = "backoff"        # the MAC waited before retrying
    EXCEPTION = "exception"    # transact raised; contained by the MAC
    STATE = "state"            # health state transition
    BITRATE = "bitrate"        # bitrate change commanded
    PROBE = "probe"            # quarantined node probed
    RECOVERY = "recovery"      # node returned to HEALTHY
    GIVE_UP = "give_up"        # retry/timeout budget exhausted
    WORKER_RESTART = "worker_restart"      # supervisor restarted a crashed worker
    SHARD_QUARANTINE = "shard_quarantine"  # engine quarantined a crashing shard

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Event:
    """One log entry.

    Attributes
    ----------
    seq:
        Monotonic sequence number (assigned by the log).
    t:
        Virtual time of the event (rounds or seconds — emitter's choice).
    node:
        Node address the event concerns (``-1`` for reader-wide events).
    kind:
        The :class:`EventKind`.
    detail:
        Free-form ``key=value`` payload, rendered sorted by key so the
        serialisation is deterministic.
    """

    seq: int
    t: float
    node: int
    kind: EventKind
    detail: tuple = ()

    def to_line(self) -> str:
        """Deterministic one-line rendering."""
        parts = [f"{self.seq:06d}", f"t={self.t:.6g}", f"node={self.node}", str(self.kind)]
        parts.extend(f"{k}={v}" for k, v in self.detail)
        return " ".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready rendering (the JSONL trace-file row shape)."""
        return {
            "seq": self.seq,
            "t": self.t,
            "node": self.node,
            "kind": str(self.kind),
            "detail": {k: v for k, v in self.detail},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        """Inverse of :meth:`to_dict` (round-trips exactly)."""
        return cls(
            seq=int(data["seq"]),
            t=float(data["t"]),
            node=int(data["node"]),
            kind=EventKind(data["kind"]),
            detail=tuple(sorted(
                (str(k), str(v)) for k, v in data.get("detail", {}).items()
            )),
        )


@dataclass
class EventLog:
    """Append-only recorder with per-node reliability metrics.

    ``metrics`` optionally binds a
    :class:`~repro.obs.metrics.MetricsRegistry` (duck-typed: anything
    with ``counter(name, **labels)``): every recorded event also
    increments ``pab_events_total{kind=...}``, making the log an
    emitter into the observability substrate rather than a parallel
    telemetry universe.  Batch replay of an unbound log is
    :func:`repro.obs.export.events_to_metrics`.

    ``bus`` optionally binds a
    :class:`~repro.obs.stream.TelemetryBus` (duck-typed: anything with
    ``publish(kind, ...)`` and an ``enabled`` flag): every recorded
    event is also published as a ``kind="event"`` stream event, in
    recording order.
    """

    events: list = field(default_factory=list)
    metrics: object = None
    bus: object = None

    def record(self, t: float, node: int, kind: EventKind | str, **detail) -> Event:
        """Append one event; detail keys are sorted for determinism."""
        event = Event(
            seq=len(self.events),
            t=float(t),
            node=int(node),
            kind=EventKind(kind),
            detail=tuple(sorted((str(k), str(v)) for k, v in detail.items())),
        )
        self.events.append(event)
        if self.metrics is not None:
            self.metrics.counter("pab_events_total", kind=str(event.kind)).inc()
        if self.bus is not None and self.bus.enabled:
            self.bus.publish(
                "event", t=event.t, node=event.node, source="log",
                data=event.to_dict(),
            )
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def merge(self, *others: "EventLog") -> "EventLog":
        """A new log combining this one with ``others``, deterministically.

        Events are ordered by ``(t, node, seq)`` and renumbered, so the
        result is independent of which operand recorded an event first —
        two logs with equal timestamps merge identically regardless of
        operand order.  Operands are
        left untouched and no metrics fire (the events were already
        counted when first recorded).
        """
        combined = sorted(
            (e for log in (self, *others) for e in log.events),
            key=lambda e: (e.t, e.node, e.seq),
        )
        merged = EventLog()
        merged.events = [
            Event(
                seq=i, t=e.t, node=e.node, kind=e.kind, detail=e.detail
            )
            for i, e in enumerate(combined)
        ]
        return merged

    def filter(self, *, node: int | None = None, kind: EventKind | str | None = None) -> list:
        """Events matching a node and/or kind."""
        want_kind = EventKind(kind) if kind is not None else None
        return [
            e
            for e in self.events
            if (node is None or e.node == node)
            and (want_kind is None or e.kind is want_kind)
        ]

    def to_lines(self) -> list[str]:
        """Deterministic serialisation; identical seeds => identical lines."""
        return [e.to_line() for e in self.events]

    def dump(self) -> str:
        """The whole log as one newline-joined string."""
        return "\n".join(self.to_lines())

    def to_jsonl(self) -> str:
        """One JSON object per event — the same file format as the obs
        trace dumps (:func:`repro.obs.export.spans_to_jsonl`), so fault
        events and spans can interleave in one tooling pipeline.
        Deterministic: sorted keys, compact separators."""
        return "\n".join(
            json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
            for e in self.events
        ) + ("\n" if self.events else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        """Rebuild a log from :meth:`to_jsonl` output (exact round-trip)."""
        log = cls()
        for line in text.splitlines():
            line = line.strip()
            if line:
                log.events.append(Event.from_dict(json.loads(line)))
        return log

    def flush_jsonl(self, path) -> int:
        """Append events not yet in ``path``; returns the count appended.

        The streaming counterpart of :meth:`to_jsonl`: instead of
        rewriting the whole log each time, only the tail past the
        file's current line count is appended — so a long (or resumed)
        campaign can flush after every checkpoint at O(new events)
        write cost.  The file's line count is the source of truth,
        which makes the flush idempotent across process boundaries: a
        resumed campaign whose restored log already matches the file
        appends nothing until new events arrive.  Line ``i`` of the
        file is always event ``seq=i``, so interleaved flush/resume
        cycles still round-trip exactly through :meth:`from_jsonl`.
        """
        out = pathlib.Path(path)
        existing = 0
        if out.exists():
            with out.open() as fh:
                existing = sum(1 for line in fh if line.strip())
        if existing > len(self.events):
            raise ValueError(
                f"{out} holds {existing} events but the log only has "
                f"{len(self.events)}; refusing to append a divergent tail"
            )
        new = self.events[existing:]
        if new:
            out.parent.mkdir(parents=True, exist_ok=True)
            with out.open("a") as fh:
                fh.write("\n".join(
                    json.dumps(e.to_dict(), sort_keys=True,
                               separators=(",", ":"))
                    for e in new
                ) + "\n")
        return len(new)

    # -- reliability metrics --------------------------------------------------------------

    def state_intervals(self, node: int, *, end_t: float | None = None) -> list:
        """``(state, start_t, end_t)`` intervals from STATE events.

        The first STATE event opens the record; the last interval is
        closed at ``end_t`` (default: the last event's time).
        """
        transitions = self.filter(node=node, kind=EventKind.STATE)
        if not transitions:
            return []
        if end_t is None:
            end_t = self.events[-1].t if self.events else transitions[-1].t
        intervals = []
        for i, e in enumerate(transitions):
            state = dict(e.detail).get("to", "?")
            stop = transitions[i + 1].t if i + 1 < len(transitions) else end_t
            intervals.append((state, e.t, max(stop, e.t)))
        return intervals

    #: Health states that count as serving traffic.
    UP_STATES = ("HEALTHY", "DEGRADED")

    def availability(self, node: int, *, end_t: float | None = None) -> float:
        """Fraction of observed time the node was serving traffic.

        Serving means HEALTHY or DEGRADED; QUARANTINED and PROBING time
        counts as downtime.  Returns 1.0 when the node never left
        HEALTHY (no transitions were logged).

        A campaign that ends mid-outage must not look perfect: when the
        observation window has zero total duration (e.g. the default
        ``end_t`` coincides with the final transition), availability is
        decided by the node's final state — 0.0 if it ended down.
        Still-open outage windows are charged as downtime up to
        ``end_t``, because :meth:`state_intervals` closes the last
        interval there.
        """
        intervals = self.state_intervals(node, end_t=end_t)
        if not intervals:
            return 1.0
        total = sum(stop - start for _, start, stop in intervals)
        if total <= 0:
            # Zero-duration window: report the instantaneous state.
            return 1.0 if intervals[-1][0] in self.UP_STATES else 0.0
        up = sum(
            stop - start
            for state, start, stop in intervals
            if state in self.UP_STATES
        )
        return up / total

    def open_outage(self, node: int, *, end_t: float | None = None) -> float | None:
        """Duration of an outage still open at ``end_t``, else ``None``.

        :meth:`mttr` only averages *completed* failure/repair cycles; a
        campaign that ends mid-outage would silently drop that outage.
        This exposes it so reports can flag the un-repaired tail.
        """
        transitions = self.filter(node=node, kind=EventKind.STATE)
        if not transitions:
            return None
        left_at = None
        for e in transitions:
            detail = dict(e.detail)
            if detail.get("to") in self.UP_STATES:
                left_at = None
            elif left_at is None:
                left_at = e.t
        if left_at is None:
            return None
        if end_t is None:
            end_t = self.events[-1].t if self.events else transitions[-1].t
        return max(end_t - left_at, 0.0)

    def mttr(self, node: int) -> float:
        """Mean time from leaving HEALTHY to next returning HEALTHY.

        ``nan`` when the node never completed a failure/repair cycle.
        """
        transitions = self.filter(node=node, kind=EventKind.STATE)
        repairs = []
        left_at = None
        for e in transitions:
            detail = dict(e.detail)
            if detail.get("from") == "HEALTHY" and left_at is None:
                left_at = e.t
            elif detail.get("to") == "HEALTHY" and left_at is not None:
                repairs.append(e.t - left_at)
                left_at = None
        return sum(repairs) / len(repairs) if repairs else float("nan")

    def node_report(self, node: int, *, end_t: float | None = None) -> dict:
        """Availability, MTTR, and event counts for one node."""
        return {
            "node": node,
            "availability": self.availability(node, end_t=end_t),
            "mttr": self.mttr(node),
            "open_outage": self.open_outage(node, end_t=end_t),
            "faults": len(self.filter(node=node, kind=EventKind.FAULT)),
            "retries": len(self.filter(node=node, kind=EventKind.RETRY)),
            "exceptions": len(self.filter(node=node, kind=EventKind.EXCEPTION)),
            "transitions": len(self.filter(node=node, kind=EventKind.STATE)),
        }
