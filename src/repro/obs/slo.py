"""Fleet SLO tracking: objectives, error budgets, burn rates.

The reliability layer (PR 1) measures what happened — delivery ratios,
availability, MTTR.  This module adds the judgement call deployments
actually operate on: *are we inside our service-level objectives, and
how fast are we spending the error budget?*  Three objectives map onto
the battery-free regime:

``delivery``
    Fraction of polls that returned a decoded reading (consumes
    :class:`~repro.net.mac.MacStats`-shaped attempt/success counts).
``availability``
    Fraction of observed time a node was serving traffic (consumes
    :meth:`~repro.faults.events.EventLog.availability` and the reader's
    per-round health states).
``energy``
    Fraction of polling rounds that were energy-sustainable — harvest
    covered consumption without a brownout (consumes
    :class:`~repro.obs.ledger.EnergyLedger` round records).

The arithmetic is the standard SRE error-budget model over a virtual
clock of polling rounds: with target ``T``, a window of ``n`` units of
which ``bad`` missed the objective has

* error budget allowed = ``(1 - T) * n``
* budget remaining = ``1 - bad / allowed``  (can go negative)
* burn rate = ``(bad / n) / (1 - T)``  (1.0 = spending exactly at
  budget; >1 = on track to exhaust it early)

Everything is plain counting — no wall clock, no threads — so reports
are byte-deterministic for a seeded campaign.
"""

from __future__ import annotations

import collections

from repro.state import Stateful

#: The standard objective names (free-form names are also accepted).
OBJECTIVES = ("delivery", "availability", "energy")

#: Default targets per objective — deliberately modest: an acoustically
#: harsh, battery-free network is engineered for graceful degradation,
#: not five nines.
DEFAULT_TARGETS = {"delivery": 0.90, "availability": 0.95, "energy": 0.90}


class SLOTracker(Stateful):
    """Rolling per-node and fleet-wide SLO accounting.

    Parameters
    ----------
    targets:
        ``{objective: target fraction in (0, 1)}``; merged over
        :data:`DEFAULT_TARGETS`.
    window:
        Rolling-window length in rounds for burn-rate estimates (the
        cumulative books are unbounded).
    """

    __state__ = (
        "targets", "window", "_counts", "_recent", "rounds_observed", "last_t",
    )
    _counts: dict[tuple[str, int], list]
    _recent: dict[tuple[str, int], collections.deque[tuple]]

    def __init__(self, targets: dict | None = None, *, window: int = 20) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.targets = dict(DEFAULT_TARGETS)
        if targets:
            for name, target in targets.items():
                if not 0.0 < float(target) < 1.0:
                    raise ValueError(
                        f"target for {name!r} must be in (0, 1), got {target}"
                    )
                self.targets[str(name)] = float(target)
        self.window = int(window)
        #: ``{(objective, node): [good, bad]}`` cumulative counts.
        self._counts: dict = {}
        #: ``{(objective, node): deque[(t, good, bad)]}`` rolling window.
        self._recent: dict = {}
        self.rounds_observed = 0
        self.last_t = float("nan")

    def _target(self, objective: str) -> float:
        try:
            return self.targets[objective]
        except KeyError:
            raise KeyError(f"no target configured for objective {objective!r}")

    # -- recording --------------------------------------------------------------------

    def record(
        self, objective: str, node: int, *, good: float = 0.0, bad: float = 0.0,
        t: float | None = None,
    ) -> None:
        """Count ``good``/``bad`` units toward one node's objective."""
        if good < 0 or bad < 0:
            raise ValueError("good/bad counts must be non-negative")
        self._target(objective)  # validate early
        key = (str(objective), int(node))
        counts = self._counts.setdefault(key, [0.0, 0.0])
        counts[0] += good
        counts[1] += bad
        recent = self._recent.setdefault(
            key, collections.deque(maxlen=self.window)
        )
        recent.append((self.rounds_observed if t is None else t, good, bad))
        if t is not None:
            self.last_t = t

    def observe_round(self, t: float, outcomes: dict) -> None:
        """Record one polling round.

        ``outcomes`` maps node address to a dict with any of:

        * ``polled`` / ``delivered`` — a delivery unit (skipped nodes,
          e.g. quarantined ones waiting out their probe backoff, do not
          consume delivery budget; their unavailability is charged by
          the availability objective instead);
        * ``up`` — whether the node was serving this round;
        * ``sustainable`` — whether the round's energy balance closed
          (present when an energy harness ran; omit otherwise).
        """
        for node, info in sorted(outcomes.items()):
            if info.get("polled", True):
                delivered = bool(info.get("delivered", False))
                self.record(
                    "delivery", node,
                    good=1.0 if delivered else 0.0,
                    bad=0.0 if delivered else 1.0,
                    t=t,
                )
            if "up" in info:
                up = bool(info["up"])
                self.record(
                    "availability", node,
                    good=1.0 if up else 0.0,
                    bad=0.0 if up else 1.0,
                    t=t,
                )
            if "sustainable" in info:
                ok = bool(info["sustainable"])
                self.record(
                    "energy", node,
                    good=1.0 if ok else 0.0,
                    bad=0.0 if ok else 1.0,
                    t=t,
                )
        self.rounds_observed += 1
        self.last_t = t

    # -- queries ----------------------------------------------------------------------

    def nodes(self) -> list:
        """Sorted node addresses with any recorded data."""
        return sorted({node for _, node in self._counts})

    def counts(self, objective: str, node: int | None = None) -> tuple:
        """Cumulative ``(good, bad)`` for a node (or fleet-wide)."""
        self._target(objective)
        good = bad = 0.0
        for (obj, n), (g, b) in self._counts.items():
            if obj == objective and (node is None or n == node):
                good += g
                bad += b
        return good, bad

    def compliance(self, objective: str, node: int | None = None) -> float:
        """Achieved good fraction (``nan`` with no data)."""
        good, bad = self.counts(objective, node)
        total = good + bad
        return good / total if total > 0 else float("nan")

    def error_budget_remaining(
        self, objective: str, node: int | None = None
    ) -> float:
        """1.0 = untouched budget, 0.0 = exhausted, negative = violated.

        ``nan`` with no data.
        """
        target = self._target(objective)
        good, bad = self.counts(objective, node)
        total = good + bad
        if total <= 0:
            return float("nan")
        allowed = (1.0 - target) * total
        return 1.0 - bad / allowed

    def burn_rate(self, objective: str, node: int | None = None) -> float:
        """Rolling-window budget burn multiplier.

        1.0 means failures arrive exactly at the budgeted rate; 2.0
        means the budget is being spent twice as fast as allowed.
        ``nan`` with no windowed data.
        """
        target = self._target(objective)
        good = bad = 0.0
        for (obj, n), recent in self._recent.items():
            if obj == objective and (node is None or n == node):
                for _, g, b in recent:
                    good += g
                    bad += b
        total = good + bad
        if total <= 0:
            return float("nan")
        return (bad / total) / (1.0 - target)

    def stream_sample(self) -> dict:
        """Fleet-level per-objective numbers for one stream event.

        The ``kind="slo"`` payload the reader publishes after each
        round: ``{objective: {target, burn_rate, budget_remaining,
        compliance}}``, sorted by objective for determinism.  Cheap by
        design (no per-node breakdown) — the full :meth:`report` still
        exists for batch consumers.
        """
        return {
            objective: {
                "target": self.targets[objective],
                "burn_rate": self.burn_rate(objective),
                "budget_remaining": self.error_budget_remaining(objective),
                "compliance": self.compliance(objective),
            }
            for objective in sorted(self.targets)
        }

    # -- checkpointing ----------------------------------------------------------------

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state` (replaces current books);
        each rolling window gets its bound back."""
        super().restore_state(state)
        self._recent = {
            key: collections.deque(recent, maxlen=self.window)
            for key, recent in self._recent.items()
        }

    # -- bulk ingestion ---------------------------------------------------------------

    def ingest_mac_stats(self, node: int, stats) -> None:
        """Fold a :class:`~repro.net.mac.MacStats` into ``delivery``.

        For post-hoc analysis of a campaign that was not tracked
        round-by-round; uses attempts/successes as the good/bad units.
        """
        attempts = float(getattr(stats, "attempts", 0))
        successes = float(getattr(stats, "successes", 0))
        if attempts > 0:
            self.record(
                "delivery", node,
                good=successes, bad=max(attempts - successes, 0.0),
            )

    def ingest_event_log(self, log, nodes, *, end_t: float | None = None) -> None:
        """Fold an :class:`~repro.faults.events.EventLog` into
        ``availability`` — one unit per observed round, split by each
        node's availability fraction."""
        for node in nodes:
            intervals = log.state_intervals(node, end_t=end_t)
            if not intervals:
                continue
            total = sum(stop - start for _, start, stop in intervals)
            if total <= 0:
                continue
            avail = log.availability(node, end_t=end_t)
            self.record(
                "availability", node,
                good=avail * total, bad=(1.0 - avail) * total,
            )

    def ingest_ledger(self, ledger) -> None:
        """Fold an :class:`~repro.obs.ledger.EnergyLedger`'s round
        history into ``energy``."""
        for info in ledger.round_history:
            ok = bool(info.get("sustainable", False))
            self.record(
                "energy", ledger.node,
                good=1.0 if ok else 0.0, bad=0.0 if ok else 1.0,
                t=info.get("t"),
            )

    # -- reporting --------------------------------------------------------------------

    def node_report(self, node: int) -> dict:
        """Per-objective compliance/budget/burn for one node."""
        out = {"node": int(node)}
        for objective in sorted(self.targets):
            good, bad = self.counts(objective, node)
            if good + bad <= 0:
                continue
            out[objective] = {
                "target": self.targets[objective],
                "compliance": self.compliance(objective, node),
                "budget_remaining": self.error_budget_remaining(objective, node),
                "burn_rate": self.burn_rate(objective, node),
                "good": good,
                "bad": bad,
            }
        return out

    def report(self) -> dict:
        """Fleet-wide + per-node SLO report (deterministic ordering)."""
        fleet = {}
        for objective in sorted(self.targets):
            good, bad = self.counts(objective)
            if good + bad <= 0:
                continue
            fleet[objective] = {
                "target": self.targets[objective],
                "compliance": self.compliance(objective),
                "budget_remaining": self.error_budget_remaining(objective),
                "burn_rate": self.burn_rate(objective),
                "good": good,
                "bad": bad,
            }
        return {
            "rounds": self.rounds_observed,
            "window": self.window,
            "fleet": fleet,
            "nodes": [self.node_report(n) for n in self.nodes()],
        }

    def to_metrics(self, registry) -> None:
        """Export SLO gauges into a metrics registry.

        * ``pab_slo_error_budget_remaining{objective=,node=}`` (node
          label ``fleet`` for the aggregate)
        * ``pab_slo_burn_rate{objective=,node=}``
        * ``pab_slo_compliance{objective=,node=}``
        """
        scopes = [("fleet", None)] + [(str(n), n) for n in self.nodes()]
        for objective in sorted(self.targets):
            for label, node in scopes:
                good, bad = self.counts(objective, node)
                if good + bad <= 0:
                    continue
                registry.gauge(
                    "pab_slo_error_budget_remaining",
                    objective=objective, node=label,
                ).set(self.error_budget_remaining(objective, node))
                burn = self.burn_rate(objective, node)
                if burn == burn:  # not NaN
                    registry.gauge(
                        "pab_slo_burn_rate", objective=objective, node=label
                    ).set(burn)
                registry.gauge(
                    "pab_slo_compliance", objective=objective, node=label
                ).set(self.compliance(objective, node))
