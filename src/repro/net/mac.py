"""Polling MAC with CRC-triggered retransmission and fault containment.

The paper's protocol is reader-driven, like RFID (Sec. 3.3.2): the
projector queries nodes; the hydrophone checks each reply's CRC and
"request[s] retransmissions of corrupted packets" (Sec. 5.1b).  The
:class:`PollingMac` implements that loop over any transaction function —
the waveform-level :class:`~repro.core.link.BackscatterLink`, the
multi-node :class:`~repro.core.network.PABNetwork`, or a fast abstract
link in tests — and accounts throughput the way the paper reports it.

A deployed reader cannot afford to crash because one exchange went
wrong: a ``transact`` exception is contained as a failed attempt (the
counters stay consistent), and retransmissions follow a configurable
:class:`RetryPolicy` — exponential backoff with seeded jitter and a
per-query time budget — instead of hammering a node that is browned
out or drowned in a noise burst.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from repro.net.messages import Query
from repro.obs.trace import get_tracer
from repro.state import Stateful


@dataclass
class MacStats:
    """Counters the MAC keeps.

    Attributes
    ----------
    attempts:
        Queries transmitted (including retries).
    successes:
        CRC-clean replies.
    retries:
        Attempts beyond the first per query.
    payload_bits_delivered:
        Application payload bits in successful replies.
    airtime_s:
        Total channel time consumed.
    backoff_s:
        Total time spent waiting between retransmissions.
    exceptions:
        Transport exceptions contained as failed attempts.
    """

    attempts: int = 0
    successes: int = 0
    retries: int = 0
    payload_bits_delivered: int = 0
    airtime_s: float = 0.0
    backoff_s: float = 0.0
    exceptions: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Successes over distinct queries attempted.

        Guarded for the degenerate corners: no distinct queries (all
        attempts were retries, or nothing was attempted) reports 0.0,
        and the ratio is clamped to [0, 1] so merged or hand-built
        counters can never report an impossible ratio.
        """
        distinct = self.attempts - self.retries
        if distinct <= 0:
            return 0.0
        return min(max(self.successes / distinct, 0.0), 1.0)

    @property
    def goodput_bps(self) -> float:
        """Delivered payload bits per second of airtime."""
        return (
            self.payload_bits_delivered / self.airtime_s if self.airtime_s > 0 else 0.0
        )

    def sample(self) -> dict:
        """JSON-ready point-in-time snapshot of the counters.

        The per-node ``"mac"`` payload inside each ``kind="round"``
        stream event (:mod:`repro.obs.stream`): cumulative counts plus
        the derived delivery ratio, so a live consumer can render
        per-node delivery without replaying the whole campaign.
        """
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "retries": self.retries,
            "exceptions": self.exceptions,
            "delivery_ratio": self.delivery_ratio,
        }

    def merge(self, *others: "MacStats") -> "MacStats":
        """A new :class:`MacStats` summing this one with ``others``.

        Used by :meth:`repro.net.reader.ReaderController.report` to
        aggregate per-node counters into a network-wide view; the
        operands are left untouched.  Float fields sum with
        :func:`math.fsum` (exactly rounded), so the result is
        independent of operand order.
        """
        operands = (self, *others)
        return MacStats(
            attempts=sum(s.attempts for s in operands),
            successes=sum(s.successes for s in operands),
            retries=sum(s.retries for s in operands),
            payload_bits_delivered=sum(
                s.payload_bits_delivered for s in operands
            ),
            airtime_s=math.fsum(s.airtime_s for s in operands),
            backoff_s=math.fsum(s.backoff_s for s in operands),
            exceptions=sum(s.exceptions for s in operands),
        )


@dataclass
class RetryPolicy(Stateful):
    """Retransmission policy: bounded retries, backoff, time budget.

    Parameters
    ----------
    max_retries:
        Retransmissions after a failed attempt.
    base_backoff_s:
        Wait before the first retransmission.
    multiplier:
        Exponential growth factor per further retransmission.
    jitter:
        Fractional uniform jitter, e.g. 0.25 draws the wait from
        ``[0.75, 1.25] * nominal``; decorrelates colliding readers.
    max_backoff_s:
        Backoff ceiling.
    timeout_budget_s:
        Total airtime + backoff allowed per query; once exceeded the
        MAC gives up instead of starting another retransmission.
    seed, rng:
        Jitter reproducibility; ``rng`` wins when both are given.  A
        checkpoint carries only a numpy ``Generator``'s stream position
        and refuses any other RNG (``TypeError``).
    """

    __state__ = ("rng",)

    max_retries: int = 2
    base_backoff_s: float = 0.1
    multiplier: float = 2.0
    jitter: float = 0.25
    max_backoff_s: float = 5.0
    timeout_budget_s: float = math.inf
    seed: int | None = None
    rng: object = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_budget_s <= 0:
            raise ValueError("timeout budget must be positive")
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)

    def backoff_s(self, retry_index: int) -> float:
        """Wait before retransmission ``retry_index`` (0 = first retry)."""
        if retry_index < 0:
            raise ValueError("retry_index must be non-negative")
        nominal = min(
            self.base_backoff_s * self.multiplier**retry_index, self.max_backoff_s
        )
        if nominal <= 0:
            return 0.0
        if self.jitter > 0:
            nominal *= 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        return float(nominal)

    def for_node(self, node: int) -> "RetryPolicy":
        """A copy with an independent RNG stream derived for one node.

        A policy shared across nodes draws jitter from one RNG, so the
        values each node sees depend on global draw *order* — which
        changes whenever a node is skipped, quarantined, or retried.
        Seeding a per-node stream from ``(seed, node)`` makes every
        node's jitter sequence a function of the node alone.  Without a
        seed there is nothing to derive from, so the shared policy is
        returned unchanged.
        """
        if self.seed is None:
            return self
        return dataclasses.replace(
            self, rng=np.random.default_rng((self.seed, int(node)))
        )


@dataclass
class PollingMac(Stateful):
    """Reader-driven polling with bounded, backed-off retransmissions.

    Parameters
    ----------
    transact:
        Callable ``(query) -> result`` where the result exposes
        ``success`` (bool) and optionally ``response`` and ``demod``.
        Exceptions it raises are contained as failed attempts.
    airtime_estimator:
        Callable ``(query, result) -> seconds`` used for throughput
        bookkeeping (``result`` is ``None`` when the attempt raised); a
        constant per-exchange estimate by default.
    max_retries:
        Retransmissions after a failed attempt; ignored when a full
        ``retry_policy`` is supplied.
    retry_policy:
        Optional :class:`RetryPolicy` adding exponential backoff with
        jitter and a per-query timeout budget.
    sleep:
        Optional callable invoked with each backoff wait (e.g.
        ``time.sleep`` on hardware).  Simulations leave it unset; the
        wait is still accounted in :attr:`MacStats.backoff_s`.
    log:
        Optional :class:`~repro.faults.events.EventLog`; retries,
        backoffs, contained exceptions, and give-ups are recorded with
        the MAC's attempt counter as the virtual clock.
    node:
        Address used in event-log entries.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; attempt /
        retry / success / exception counters and a backoff-seconds
        histogram are recorded alongside :attr:`stats` (the registry
        view is mergeable across readers the same way
        :meth:`MacStats.merge` is).

    A checkpoint carries the counters, the jitter stream and the
    transport's state (``None`` for a stateless transport).
    """

    __state__ = ("stats", "retry_policy", "transact")

    transact: object
    airtime_estimator: object = None
    max_retries: int = 2
    stats: MacStats = field(default_factory=MacStats)
    retry_policy: RetryPolicy | None = None
    sleep: object = None
    log: object = None
    node: int = -1
    metrics: object = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.airtime_estimator is None:
            self.airtime_estimator = lambda query, result: 0.3
        self.last_exception: BaseException | None = None

    def _record(self, kind: str, **detail) -> None:
        if self.log is not None:
            self.log.record(self.stats.attempts, self.node, kind, **detail)

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def poll(self, query: Query):
        """One query with retransmission; returns the last result.

        Never raises on transport failure: an exception from
        ``transact`` becomes a failed attempt (``None`` result if every
        attempt raised), with all counters consistently updated.  The
        last exception is kept on :attr:`last_exception` for diagnosis.
        """
        policy = self.retry_policy
        max_retries = policy.max_retries if policy is not None else self.max_retries
        budget = policy.timeout_budget_s if policy is not None else math.inf
        spent_s = 0.0
        result = None
        self.last_exception = None
        self._count("pab_mac_polls_total")
        with get_tracer().span("mac.poll", node=self.node) as span:
            for attempt in range(max_retries + 1):
                if attempt > 0:
                    wait = policy.backoff_s(attempt - 1) if policy is not None else 0.0
                    if spent_s + wait >= budget:
                        self._record("give_up", reason="timeout_budget", spent_s=round(spent_s + wait, 6))
                        self._count("pab_mac_give_ups_total")
                        break
                    self.stats.retries += 1
                    self._record("retry", attempt=attempt)
                    self._count("pab_mac_retries_total")
                    if wait > 0:
                        spent_s += wait
                        self.stats.backoff_s += wait
                        self._record("backoff", wait_s=round(wait, 6))
                        if self.metrics is not None:
                            self.metrics.histogram(
                                "pab_mac_backoff_seconds"
                            ).observe(wait)
                        if self.sleep is not None:
                            self.sleep(wait)
                try:
                    result = self.transact(query)
                except Exception as exc:
                    result = None
                    self.last_exception = exc
                    self.stats.attempts += 1
                    self.stats.exceptions += 1
                    airtime = float(self.airtime_estimator(query, None))
                    self.stats.airtime_s += airtime
                    spent_s += airtime
                    self._record("exception", error=type(exc).__name__)
                    self._count("pab_mac_attempts_total")
                    self._count("pab_mac_exceptions_total")
                    continue
                self.stats.attempts += 1
                airtime = float(self.airtime_estimator(query, result))
                self.stats.airtime_s += airtime
                spent_s += airtime
                self._count("pab_mac_attempts_total")
                if getattr(result, "success", False):
                    self.stats.successes += 1
                    self._count("pab_mac_successes_total")
                    payload = getattr(
                        getattr(result, "demod", None), "packet", None
                    )
                    if payload is not None and hasattr(payload, "payload"):
                        self.stats.payload_bits_delivered += 8 * len(payload.payload)
                    break
            span.set(
                attempts=attempt + 1,
                success=bool(getattr(result, "success", False)),
            )
        return result

    def run_schedule(self, queries) -> list:
        """Poll a sequence of queries round-robin; returns all results."""
        return [self.poll(q) for q in queries]
