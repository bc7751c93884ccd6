"""Flight recorder: a bounded ring buffer over the telemetry stream.

The streaming counterpart of the probe registry's failure artifacts: a
:class:`FlightRecorder` sink keeps the last ``capacity`` bus events in
memory (and only that many — the ring is a ``deque(maxlen=...)``, so a
week-long campaign costs the same as a ten-round one) and dumps them
as stream-format JSONL when something dies:

* ``ReaderController.run_campaign`` dumps the ring next to its
  checkpoints (``flight-recorder-NNNNNN.jsonl``, see
  :func:`repro.resilience.checkpoint.recorder_path`) when a
  :class:`~repro.resilience.supervisor.CampaignAbort` escapes or a
  watchdog abandons a straggler;
* the pytest failure hook (``tests/conftest.py``) dumps any recorder
  attached to the process-global bus into ``PAB_ARTIFACT_DIR``, beside
  the probe ``.npz`` and post-mortem dumps.

Because events arrive at publish time (not flush time), the ring is
current up to the very last event published before the crash.
Determinism: the ring sees the same event sequence in every execution
mode, so same-seed sequential and batched campaigns dump byte-identical
recordings.
"""

from __future__ import annotations

import collections
import pathlib
import re

from repro.obs.stream import event_to_line

#: Default ring capacity (events).  256 rounds out to a few fleet
#: rounds of full telemetry — enough context to autopsy a crash
#: without dragging a whole campaign into every artifact.
DEFAULT_CAPACITY = 256

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


class FlightRecorder:
    """Keep the last ``capacity`` stream events; dump them on demand."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._ring: collections.deque = collections.deque(maxlen=self.capacity)
        #: Total events ever emitted into the recorder (survives wraps).
        self.events_seen = 0

    # -- sink protocol ----------------------------------------------------------------

    def emit(self, event: dict) -> None:
        self._ring.append(event)
        self.events_seen += 1

    def flush(self) -> None:  # pragma: no cover - nothing buffered
        pass

    # -- inspection -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self) -> list:
        """The ring's events, oldest first (a copy)."""
        return list(self._ring)

    def to_jsonl(self) -> str:
        """The ring as stream-format JSONL text."""
        lines = [event_to_line(e) for e in self._ring]
        return "\n".join(lines) + ("\n" if lines else "")

    def dump_jsonl(self, path) -> pathlib.Path:
        """Write :meth:`to_jsonl` to ``path`` (parents created)."""
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_jsonl())
        return out


def dump_flight_recorders(directory, name: str) -> list:
    """Dump every recorder on the process-global bus into ``directory``.

    The pytest-failure counterpart of
    :func:`repro.obs.probe.dump_failure_artifacts`: ``name`` (usually
    the test node id) is sanitised into the filename.  Returns the
    paths written (empty when no recorder is attached or none has
    events).
    """
    from repro.obs.stream import get_bus

    written = []
    safe = _SAFE_NAME.sub("_", name).strip("_") or "recorder"
    directory = pathlib.Path(directory)
    for i, recorder in enumerate(get_bus().recorders()):
        if not len(recorder):
            continue
        suffix = f"-{i}" if i else ""
        written.append(
            recorder.dump_jsonl(
                directory / f"{safe}-flight-recorder{suffix}.jsonl"
            )
        )
    return written
