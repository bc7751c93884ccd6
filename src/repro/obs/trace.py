"""Span-based tracer for the PAB simulation stack.

Zero-dependency tracing shaped like the usual span model: a
:class:`Tracer` hands out nestable :class:`Span` context managers that
record wall-clock duration (``time.perf_counter``) plus arbitrary
attributes::

    tracer = Tracer()
    with tracer.span("channel.propagate", samples=n):
        ...

Three properties matter for this codebase:

* **Disabled is free.**  A disabled tracer returns one shared no-op
  span object from :meth:`Tracer.span`; the waveform hot path pays a
  single attribute check per instrumentation point.  Instrumented code
  never needs its own ``if tracing:`` guards.
* **Deterministic option.**  A :class:`VirtualClock` replaces
  ``perf_counter`` with a manually-advanced counter (the same
  convention as the fault :class:`~repro.faults.events.EventLog`'s
  round counter), so traces are byte-identical across runs under a
  fixed seed — what the determinism tests assert.
* **Exception safe.**  A span that exits via an exception is still
  closed, popped from the nesting stack, and tagged with the exception
  type; the trace stays well-formed.

A process-global tracer (disabled by default) lets deeply nested layers
— e.g. the node firmware inside :class:`~repro.core.link.BackscatterLink`
— participate without threading a tracer argument through every call:
:func:`get_tracer` / :func:`set_tracer` / :func:`use_tracer`.
"""

from __future__ import annotations

import contextlib
from time import perf_counter


class VirtualClock:
    """Deterministic clock: manual :meth:`advance` plus optional auto-tick.

    Parameters
    ----------
    start:
        Initial reading.
    tick:
        Amount the clock auto-advances *after* each read.  With a
        non-zero tick every span gets a reproducible non-zero duration
        (each read moves time forward by a fixed step), which is what
        the byte-determinism tests rely on.
    """

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        self.t = float(start)
        self.tick = float(tick)

    def __call__(self) -> float:
        now = self.t
        self.t += self.tick
        return now

    def advance(self, dt: float) -> None:
        """Move the clock forward by ``dt`` (must be non-negative)."""
        if dt < 0:
            raise ValueError("clock cannot run backwards")
        self.t += dt


class Span:
    """One timed, attributed region of execution.

    Created by :meth:`Tracer.span`; use as a context manager.  After
    exit, :attr:`end_s` is set and the span appears on
    :attr:`Tracer.spans` in completion order.
    """

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "start_s", "end_s", "attrs"
    )

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s: float | None = None
        self.end_s: float | None = None
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Seconds between enter and exit (``nan`` while still open)."""
        if self.start_s is None or self.end_s is None:
            return float("nan")
        return self.end_s - self.start_s

    def set(self, **attrs) -> "Span":
        """Attach attributes to an open (or closed) span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._exit(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_s:.6g}s" if self.finished else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NullSpan:
    """Shared do-nothing span returned by disabled tracers."""

    __slots__ = ()
    finished = False
    duration_s = float("nan")
    name = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton handed out when tracing is off (or in `span()`'s fast path).
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; nesting tracked via an explicit stack.

    Parameters
    ----------
    clock:
        ``() -> float`` time source; ``time.perf_counter`` by default,
        a :class:`VirtualClock` for deterministic traces.
    enabled:
        When False, :meth:`span` returns the shared :data:`NULL_SPAN`
        and nothing is recorded.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` (or
        anything with a matching ``histogram``); each finished span's
        duration is observed into ``pab_span_seconds{name=...}``, so
        tracing and metrics stay one substrate, not two.
    """

    def __init__(self, *, clock=None, enabled: bool = True, metrics=None,
                 bus=None) -> None:
        self.clock = clock if clock is not None else perf_counter
        self.enabled = bool(enabled)
        self.metrics = metrics
        #: Optional :class:`~repro.obs.stream.TelemetryBus`: each
        #: finished span is also published as a ``kind="span"`` stream
        #: event.  (The reader polls one node at a time, so span
        #: publication order is deterministic.)
        self.bus = bus
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # -- recording ------------------------------------------------------------------

    def span(self, name: str, **attrs) -> Span | _NullSpan:
        """A new span context manager (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(
            self,
            name,
            self._next_id,
            self._stack[-1].span_id if self._stack else None,
            attrs,
        )
        self._next_id += 1
        return span

    def _enter(self, span: Span) -> None:
        # Late-bind the parent: the span may have been created before
        # sibling spans opened/closed.
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)
        span.start_s = self.clock()

    def _exit(self, span: Span) -> None:
        span.end_s = self.clock()
        # Pop through anything left open below us (defensive: a caller
        # that forgot to close an inner span must not corrupt nesting).
        while self._stack:
            popped = self._stack.pop()
            if popped is span:
                break
        self.spans.append(span)
        if self.metrics is not None:
            self.metrics.histogram(
                "pab_span_seconds", name=span.name
            ).observe(span.duration_s)
        if self.bus is not None and self.bus.enabled:
            from repro.obs.export import span_to_dict

            self.bus.publish(
                "span", t=span.end_s, source="tracer",
                data=span_to_dict(span),
            )

    def reset(self) -> None:
        """Drop all recorded spans and nesting state."""
        self.spans.clear()
        self._stack.clear()
        self._next_id = 1

    # -- aggregation ----------------------------------------------------------------

    def stage_totals(self) -> dict:
        """``{name: {"count": n, "total_s": t, "mean_s": t/n}}``.

        Spans sharing a name (a stage traversed more than once per
        transaction) aggregate; iteration order is first-seen, which is
        deterministic for a deterministic workload.
        """
        out: dict = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration_s
        for entry in out.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return out


# ---------------------------------------------------------------------------
# Process-global tracer (disabled by default)
# ---------------------------------------------------------------------------

_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (a disabled one until installed)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


@contextlib.contextmanager
def use_tracer(tracer: Tracer):
    """Temporarily install ``tracer`` as the global tracer."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
