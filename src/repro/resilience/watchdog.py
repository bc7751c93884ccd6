"""Wall-clock watchdog budgets for the reader's polls.

A hung transport (stuck modem, wedged serial line, a transaction
blocked in I/O) must not hang an hours-long campaign.  A
:class:`WatchdogPolicy` gives the reader two budgets:

* a **per-transaction** deadline — the longest a single node's poll may
  run before the reader gives up on it this round, and
* a **per-round** deadline — the longest the whole round may take; once
  it is spent, every node not yet polled is booked as timed out
  without being polled.

A synchronous call cannot be preempted from its own thread, so with an
enabled policy the reader hands each supervised poll to
:class:`PollWatchdog`, which runs it on one lazily created worker
thread and waits at most ``min(transaction budget, remaining round
budget)``.  A breached budget does not raise: the poll is abandoned,
the worker is replaced for the next poll, and :meth:`PollWatchdog.run`
returns a :class:`WatchdogTimeout` sentinel.  The reader converts the
sentinel into a ``watchdog_timeout`` fault event, a decode post-mortem,
and a failure fed to the node's health machine — the campaign keeps
going.  Without a policy (or with a disabled one) no thread is created
and every poll runs on the calling thread.

Because breaches are triggered by *wall-clock* time, a campaign that
suffers one is not byte-reproducible: the abandoned thread cannot be
killed, and when it finally returns it still writes to its node's MAC
counters, health state, and the shared event log.  Determinism
guarantees apply to crash containment
(:mod:`repro.resilience.supervisor`) and checkpoint/resume
(:mod:`repro.resilience.checkpoint`), not to timeout placement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class WatchdogPolicy:
    """Wall-clock budgets enforced around the reader's polls.

    Parameters
    ----------
    transaction_deadline_s:
        Budget for one node's poll (``None`` disables).
    round_deadline_s:
        Budget for the whole polling round (``None`` disables).  The
        round clock starts just before the round's first poll; once
        it runs out every remaining poll times out without running.
    """

    transaction_deadline_s: float | None = None
    round_deadline_s: float | None = None

    def __post_init__(self) -> None:
        for label, value in (
            ("transaction_deadline_s", self.transaction_deadline_s),
            ("round_deadline_s", self.round_deadline_s),
        ):
            if value is not None and not value > 0:
                raise ValueError(f"{label} must be positive or None")

    @property
    def enabled(self) -> bool:
        return (
            self.transaction_deadline_s is not None
            or self.round_deadline_s is not None
        )


@dataclass(frozen=True)
class WatchdogTimeout:
    """Result sentinel for a poll abandoned past its deadline.

    ``budget`` names which budget ran out (``"transaction"`` or
    ``"round"``); ``deadline_s`` is the wall-clock allowance that was
    exceeded.
    """

    key: object
    budget: str
    deadline_s: float


class PollWatchdog:
    """Enforce a :class:`WatchdogPolicy` on one worker thread.

    The reader calls :meth:`start_round` before a round's first poll
    and :meth:`run` once per poll.
    """

    def __init__(self, policy: WatchdogPolicy) -> None:
        self.policy = policy
        self._worker = None
        self._round_ends = None

    def start_round(self) -> None:
        """Start the round budget's clock."""
        deadline = self.policy.round_deadline_s
        self._round_ends = (
            time.monotonic() + deadline if deadline is not None else None
        )

    def run(self, key, fn):
        """``fn()`` run on the worker thread, or a :class:`WatchdogTimeout`.

        Exceptions raised by ``fn`` (``BaseException`` included)
        propagate to the caller.  Once the round budget is spent ``fn``
        is not started at all.
        """
        from concurrent.futures import ThreadPoolExecutor, wait

        budget = "transaction"
        deadline = timeout = self.policy.transaction_deadline_s
        if self._round_ends is not None:
            remaining = self._round_ends - time.monotonic()
            if timeout is None or remaining < timeout:
                budget = "round"
                deadline = self.policy.round_deadline_s
                timeout = remaining
        if budget == "round" and timeout <= 0:
            return WatchdogTimeout(key=key, budget=budget, deadline_s=deadline)
        if self._worker is None:
            self._worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="watchdog"
            )
        future = self._worker.submit(fn)
        if not wait((future,), timeout=timeout).done:
            # The stuck thread cannot be killed: leave it to finish on
            # its own and give the next poll a fresh worker.
            self._worker.shutdown(wait=False)
            self._worker = None
            return WatchdogTimeout(key=key, budget=budget, deadline_s=deadline)
        return future.result()
