"""Per-node health state machine for the resilient reader.

A battery-free node in an open medium is *usually* unreachable — it
browns out when harvested power dips, drowns in noise bursts, drifts out
of the beam.  The reader must treat node silence as a first-class state
rather than an error, so each node carries a small state machine:

::

    HEALTHY --k consecutive failures--> DEGRADED
        (reader downgrades the node's bitrate one rung: Fig. 8 says a
         slower backscatter rate buys SNR margin)
    DEGRADED --more failures--> QUARANTINED
        (the node stops being polled: silence must not burn airtime)
    QUARANTINED --backoff elapsed--> PROBING
        (one cheap PING; the backoff doubles on each failed probe)
    PROBING --ack--> HEALTHY     PROBING --silence--> QUARANTINED
    DEGRADED --successes--> HEALTHY

All timing is in the reader's polling-round counter — a deterministic
virtual clock — so chaos tests reproduce byte-identical event logs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.state import Stateful


class HealthState(str, enum.Enum):
    """Reader-side view of one node's reachability."""

    HEALTHY = "HEALTHY"
    DEGRADED = "DEGRADED"
    QUARANTINED = "QUARANTINED"
    PROBING = "PROBING"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def code(self) -> int:
        """Stable numeric code for metrics gauges (0 = HEALTHY ...).

        Exported so dashboards reading the Prometheus exposition can
        alert on ``pab_node_health_code > 0`` without string matching.
        """
        return HEALTH_STATE_CODES[self]


#: Numeric gauge encoding of each health state (severity-ordered).
HEALTH_STATE_CODES = {
    HealthState.HEALTHY: 0,
    HealthState.DEGRADED: 1,
    HealthState.PROBING: 2,
    HealthState.QUARANTINED: 3,
}


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds and backoff schedule for the state machine.

    Parameters
    ----------
    degrade_after:
        Consecutive failed polls before HEALTHY -> DEGRADED.
    quarantine_after:
        Consecutive failed polls (counted from the first failure)
        before DEGRADED -> QUARANTINED.
    recover_after:
        Consecutive successful polls before DEGRADED -> HEALTHY.
    probe_backoff_rounds:
        Rounds to wait before the first probe of a quarantined node.
    backoff_multiplier:
        Probe backoff growth per failed probe.
    max_probe_backoff_rounds:
        Probe backoff ceiling.
    """

    degrade_after: int = 2
    quarantine_after: int = 4
    recover_after: int = 2
    probe_backoff_rounds: int = 2
    backoff_multiplier: float = 2.0
    max_probe_backoff_rounds: int = 16

    def __post_init__(self) -> None:
        if self.degrade_after < 1 or self.recover_after < 1:
            raise ValueError("thresholds must be >= 1")
        if self.quarantine_after <= self.degrade_after:
            raise ValueError("quarantine_after must exceed degrade_after")
        if self.probe_backoff_rounds < 1:
            raise ValueError("probe_backoff_rounds must be >= 1")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.max_probe_backoff_rounds < self.probe_backoff_rounds:
            raise ValueError("max backoff must be >= initial backoff")


@dataclass
class NodeHealth(Stateful):
    """One node's health tracker.

    Feed poll outcomes through :meth:`on_result`; it returns the action
    the reader should take (``"degrade"`` — downgrade the bitrate,
    ``"recovered"`` — the node is back, or ``None``).  Quarantine
    scheduling is exposed through :meth:`due_for_probe` /
    :meth:`start_probe`.  A checkpoint restore fires no events.
    """

    __state__ = (
        "state", "consecutive_failures", "consecutive_successes",
        "next_probe_t", "_probe_backoff",
    )

    node: int
    policy: HealthPolicy = field(default_factory=HealthPolicy)
    log: object = None
    state: HealthState = HealthState.HEALTHY
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    next_probe_t: float = 0.0
    _probe_backoff: float = field(init=False)

    def __post_init__(self) -> None:
        self._probe_backoff = float(self.policy.probe_backoff_rounds)

    # -- transitions ----------------------------------------------------------------------

    def _transition(self, to: HealthState, t: float, **detail) -> None:
        if to is self.state:
            return
        if self.log is not None:
            self.log.record(
                t, self.node, "state", to=to.value, **{"from": self.state.value}, **detail
            )
        self.state = to

    def due_for_probe(self, t: float) -> bool:
        """Whether a quarantined node should be probed at time ``t``."""
        return self.state is HealthState.QUARANTINED and t >= self.next_probe_t

    def start_probe(self, t: float) -> None:
        """QUARANTINED -> PROBING (the reader is about to send a PING)."""
        if self.state is not HealthState.QUARANTINED:
            raise ValueError("can only probe a quarantined node")
        self._transition(HealthState.PROBING, t)

    def on_result(self, success: bool, t: float) -> str | None:
        """Feed one poll outcome; returns the reader's action, if any."""
        if success:
            self.consecutive_failures = 0
            self.consecutive_successes += 1
        else:
            self.consecutive_successes = 0
            self.consecutive_failures += 1

        if self.state is HealthState.PROBING:
            if success:
                self._recover(t)
                return "recovered"
            self._quarantine(t, grow=True)
            return None

        if self.state is HealthState.HEALTHY:
            if not success and self.consecutive_failures >= self.policy.degrade_after:
                self._transition(
                    HealthState.DEGRADED, t, failures=self.consecutive_failures
                )
                return "degrade"
            return None

        if self.state is HealthState.DEGRADED:
            if success and self.consecutive_successes >= self.policy.recover_after:
                self._recover(t)
                return "recovered"
            if not success and self.consecutive_failures >= self.policy.quarantine_after:
                self._quarantine(t, grow=False)
                return "quarantine"
            return None

        # QUARANTINED nodes are not normally polled; a forced poll's
        # outcome is treated like a probe.
        if success:
            self._recover(t)
            return "recovered"
        self._quarantine(t, grow=True)
        return None

    def _quarantine(self, t: float, *, grow: bool) -> None:
        if grow and self.state in (HealthState.PROBING, HealthState.QUARANTINED):
            self._probe_backoff = min(
                self._probe_backoff * self.policy.backoff_multiplier,
                float(self.policy.max_probe_backoff_rounds),
            )
        self.next_probe_t = t + self._probe_backoff
        self._transition(
            HealthState.QUARANTINED, t, next_probe_t=f"{self.next_probe_t:g}"
        )

    def _recover(self, t: float) -> None:
        self._probe_backoff = float(self.policy.probe_backoff_rounds)
        self.consecutive_failures = 0
        self._transition(HealthState.HEALTHY, t)
