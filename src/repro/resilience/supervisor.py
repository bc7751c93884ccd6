"""Worker supervision: restart-with-backoff, crash containment, drills.

The fault layer (:mod:`repro.faults`) hurts the *nodes* — noise bursts,
brownouts, garbled replies — and the MAC's retry loop contains all of
it because those faults surface as ordinary results or ``Exception``
subclasses.  This module hurts the *engine*: a worker crash is modelled
as :class:`WorkerCrash`, a ``BaseException`` that deliberately escapes
the MAC's ``except Exception`` containment, exactly like a segfaulted
worker process escapes in-process error handling.

The supervisor (:func:`supervise` driven by :class:`SupervisorPolicy`)
restarts a crashed worker with exponential backoff; workers that
exhaust their restarts surface as ``worker_crash`` fault events, decode
post-mortems, and health-machine failures — never as an aborted
campaign.  Nodes whose workers crash round after round are quarantined
at the engine level (their shard is skipped) so a permanently broken
worker cannot burn restart budget forever.

:class:`WorkerCrashInjector` is the drill apparatus: it raises
:class:`WorkerCrash` (contained) or :class:`CampaignAbort` (the
SIGKILL-equivalent that *does* kill the run, for checkpoint/resume
drills) at scheduled rounds or transaction indices.  ``repro bench
--kill-at ROUND:NODE`` and ``repro fleet-report --kill-at`` wire it up
from the CLI.

Determinism: restarts re-enter the same poll against the same shared
sinks, so a contained crash produces byte-identical campaign digests in
sequential and batched modes — asserted by
``tests/resilience/test_supervisor.py`` and ``tests/perf/test_batch.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injectors import FaultInjector, InjectedResult
from repro.state import decode, encode


class WorkerCrash(BaseException):
    """A worker died mid-transaction (process-crash equivalent).

    Subclasses ``BaseException`` so the MAC's ``except Exception``
    retry containment cannot swallow it — only the supervisor handles
    worker death.
    """


class CampaignAbort(BaseException):
    """SIGKILL-equivalent: the whole campaign process dies.

    Nothing in the reader stack catches this; it unwinds out of
    ``run_campaign`` so drills can prove that resuming from the latest
    checkpoint reproduces the uninterrupted run byte for byte.
    """


@dataclass(frozen=True)
class SupervisorPolicy:
    """Restart and quarantine policy for crashed workers.

    Parameters
    ----------
    max_restarts:
        Restarts allowed per poll before the worker is declared
        crashed for the round.
    restart_backoff_s, backoff_multiplier, max_backoff_s:
        Exponential backoff between restarts.  Backoff is *accounted*
        (recorded on the ``worker_restart`` event) but not slept unless
        ``sleep`` is provided — campaigns are virtual-clock
        deterministic and must not stall the suite.
    quarantine_after:
        Consecutive crashed rounds after which the node's shard is
        quarantined (skipped entirely).  ``0`` disables.
    sleep:
        Optional ``sleep(seconds)`` callable for deployments that want
        real backoff delays.
    """

    max_restarts: int = 2
    restart_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 1.0
    quarantine_after: int = 3
    sleep: object = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.restart_backoff_s < 0:
            raise ValueError("restart_backoff_s must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.max_backoff_s < 0:
            raise ValueError("max_backoff_s must be >= 0")
        if self.quarantine_after < 0:
            raise ValueError("quarantine_after must be >= 0")


@dataclass
class SupervisionOutcome:
    """What supervision observed for one poll."""

    restarts: int = 0
    backoff_s: float = 0.0
    crashed: bool = False
    error: str = ""


def supervise(fn, policy: SupervisorPolicy):
    """Run ``fn`` under crash supervision.

    Returns ``(result, outcome)``.  :class:`WorkerCrash` triggers a
    restart (re-invoking ``fn``) up to ``policy.max_restarts`` times;
    when the budget is spent the outcome reports ``crashed=True`` and
    the result is ``None``.  Any other exception propagates untouched —
    supervision is for worker death, not for ordinary errors.
    """
    outcome = SupervisionOutcome()
    backoff = policy.restart_backoff_s
    while True:
        try:
            return fn(), outcome
        except WorkerCrash as exc:
            outcome.error = str(exc) or type(exc).__name__
            if outcome.restarts >= policy.max_restarts:
                outcome.crashed = True
                return None, outcome
            outcome.restarts += 1
            if backoff > 0:
                outcome.backoff_s += backoff
                if policy.sleep is not None:
                    policy.sleep(backoff)
                backoff = min(
                    backoff * policy.backoff_multiplier, policy.max_backoff_s
                )


class WorkerCrashInjector(FaultInjector):
    """Crash the worker serving a node at scheduled points.

    Triggers either by transaction index (``at``, like the other
    injectors) or by campaign round (``at_rounds`` plus a ``clock``
    callable that reports the current round).  Each triggered round
    crashes ``crashes`` consecutive transactions — ``crashes=1`` lets a
    single supervisor restart heal the worker; a value past the
    restart budget proves crashed-worker containment.

    ``fatal=True`` raises :class:`CampaignAbort` instead: the
    SIGKILL-equivalent used by the CLI kill-resume drill.

    The injector is *snapshot-transparent*: it is drill apparatus, not
    campaign state, so checkpoints capture the wrapped transport as if
    the injector were not there.  A resumed campaign therefore does not
    need (or get) the kill schedule re-armed.
    """

    name = "worker_crash"
    failing_stage = "engine"

    def __init__(
        self,
        inner,
        *,
        at=(),
        at_rounds=(),
        crashes: int = 1,
        fatal: bool = False,
        clock=None,
        **kwargs,
    ) -> None:
        super().__init__(inner, **kwargs)
        self.at = frozenset(int(i) for i in at)
        self.at_rounds = frozenset(int(r) for r in at_rounds)
        if self.at_rounds and clock is None:
            raise ValueError("at_rounds scheduling needs a clock callable")
        if crashes < 1:
            raise ValueError("crashes must be >= 1")
        self.crashes = int(crashes)
        self.fatal = bool(fatal)
        self.clock = clock
        self._armed_round: int | None = None
        self._fired_in_round = 0

    def _intercept(self, query, index: int):
        crash = index in self.at
        if not crash and self.at_rounds:
            t = int(self.clock())
            if t in self.at_rounds:
                if self._armed_round != t:
                    self._armed_round = t
                    self._fired_in_round = 0
                if self._fired_in_round < self.crashes:
                    self._fired_in_round += 1
                    crash = True
        if not crash:
            return None
        self._fire(index)
        self._record_postmortem(InjectedResult(fault=self.name))
        if self.fatal:
            raise CampaignAbort(f"fatal worker crash at transaction {index}")
        raise WorkerCrash(f"worker crash injected at transaction {index}")

    # Snapshot transparency: checkpoints see straight through to the
    # wrapped transport (see class docstring).
    def snapshot_state(self):
        return encode(self.inner)

    def restore_state(self, state) -> None:
        decode(state, self.inner, where="WorkerCrashInjector.inner")


def install_worker_crash(
    reader,
    node: int,
    *,
    rounds=(),
    at=(),
    crashes: int = 1,
    fatal: bool = False,
):
    """Wrap ``reader``'s transport for ``node`` with a crash injector.

    The injector's round clock is the reader's own round counter, so
    ``rounds=(8,)`` crashes the node's worker during polling round 8 in
    every execution mode.  The injector books no events itself (the
    reader's supervision bookkeeping owns ``worker_restart`` /
    ``worker_crash`` telemetry), which keeps sequential and batched
    digests identical under contained crashes.
    """
    addr = int(node)
    if addr not in reader._macs:
        raise KeyError(f"reader has no node {node}")
    mac = reader._macs[addr]
    injector = WorkerCrashInjector(
        mac.transact,
        node=addr,
        at=at,
        at_rounds=rounds,
        crashes=crashes,
        fatal=fatal,
        clock=lambda: reader._round,
    )
    mac.transact = injector
    return injector


__all__ = [
    "CampaignAbort",
    "SupervisionOutcome",
    "SupervisorPolicy",
    "WorkerCrash",
    "WorkerCrashInjector",
    "install_worker_crash",
    "supervise",
]
