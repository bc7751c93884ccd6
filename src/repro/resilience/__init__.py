"""Crash-safe campaigns: checkpoints, watchdogs, supervised workers.

The paper's reader drives fleets of battery-free nodes over hours-long
deployments; this package makes those campaigns survive the reader
side's own failures, not just the nodes':

* :mod:`repro.resilience.checkpoint` — versioned, integrity-checked
  state files every K rounds, each pointing into one append-only
  history file; ``ReaderController.run_campaign(resume_from=...)``
  continues a campaign byte-identically (proved by the ``repro bench``
  digest machinery).
* :mod:`repro.resilience.watchdog` — per-transaction and per-round
  wall-clock budgets enforced around the reader's polls; stragglers
  are abandoned, booked as ``watchdog_timeout`` faults, and fed to the
  node's health machine instead of hanging the run.
* :mod:`repro.resilience.supervisor` — restart-with-backoff on worker
  crash, shard quarantine for repeat offenders, and the
  :class:`~repro.resilience.supervisor.WorkerCrashInjector` drill
  (``repro bench --kill-at`` / ``repro fleet-report --kill-at``).

What a checkpoint carries is declared on the stateful classes and
encoded by :mod:`repro.state`, a leaf module this package imports.

See ``docs/RELIABILITY.md`` for budgets, restart policy, and a worked
kill-and-resume example.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    HISTORY_NAME,
    CheckpointError,
    HistoryFile,
    campaign_digest,
    checkpoint_path,
    latest_checkpoint,
    read_checkpoint,
    state_integrity,
    write_checkpoint,
)
from repro.resilience.supervisor import (
    CampaignAbort,
    SupervisionOutcome,
    SupervisorPolicy,
    WorkerCrash,
    WorkerCrashInjector,
    install_worker_crash,
    supervise,
)
from repro.resilience.watchdog import WatchdogPolicy, WatchdogTimeout

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA",
    "CampaignAbort",
    "CheckpointError",
    "HISTORY_NAME",
    "HistoryFile",
    "SupervisionOutcome",
    "SupervisorPolicy",
    "WatchdogPolicy",
    "WatchdogTimeout",
    "WorkerCrash",
    "WorkerCrashInjector",
    "campaign_digest",
    "checkpoint_path",
    "install_worker_crash",
    "latest_checkpoint",
    "read_checkpoint",
    "state_integrity",
    "supervise",
    "write_checkpoint",
]
