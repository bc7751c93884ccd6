"""Versioned, integrity-checked campaign checkpoints and their history.

A checkpoint holds campaign *state*: what the next round reads.  The
campaign's *history* — what only grows — lives in one append-only
``history.jsonl`` beside the checkpoints, which each checkpoint points
into.  A checkpoint is one JSON document::

    {
      "kind": "pab-campaign-checkpoint",
      "schema": 3,
      "round": 15,
      "campaign": {... how to rebuild the fleet (CLI metadata) ...},
      "state": {... ReaderController.snapshot_state() ...,
                "history": {"file": "history.jsonl", "lines": 812,
                            "bytes": 401233, "sha256": "..."}},
      "integrity": "<sha256 of the canonical state JSON>"
    }

``state`` is everything ``run_campaign`` needs to continue as if the
interruption never happened: per-node RNG/retry streams, health state
machines, MAC statistics, the metrics registry, energy ledger books,
SoC decimation stride and phase, SLO trackers, and analytics, as the
state codec (:mod:`repro.state`) encodes the reader's declared state:
that is schema 3.  Its ``history`` pointer names the prefix of the history file that holds
the campaign's history up to this checkpoint: the event log, the round
log, per-node readings, and each energy ledger's round records and SoC
series.  The pointer sits inside ``state``, so the integrity hash
covers it.  ``campaign`` is opaque to this module — the CLI stores
enough there for ``repro resume`` to rebuild an identical fleet before
restoring ``state`` into it.

The history file is a schema-1 telemetry stream
(:mod:`repro.obs.stream`): one envelope per line, written with
:func:`~repro.obs.stream.event_to_line`, in the ``event``, ``round``,
``soc``, ``readings`` and ``soc_samples`` kinds.  Each save appends only
the rows produced since the previous save (:class:`HistoryFile`; a
running sha256 spares it re-reading the file), so a save costs the
state plus the new rows, not the campaign so far.  A reader verifies
the prefix and ignores anything past it, such as the rows of later
checkpoints or a line cut short by a crash mid-append.  A resumed
campaign that keeps checkpointing into the same directory first
truncates the file to its checkpoint's prefix, so checkpoints written
after that one by the interrupted run are refused from then on; a
fresh campaign starts a new file.

Every failure mode on the read path (missing file, truncated or
corrupted JSON, wrong kind, unsupported schema, integrity mismatch,
missing sections, a missing, short or altered history prefix) raises
:class:`CheckpointError` with a one-line message — a resume must
either be exact or refuse loudly.

:func:`campaign_digest` is the identity proof reused from ``repro
bench``: sha256 over the canonical report JSON, the event-log dump,
and the Prometheus exposition.  An interrupted-and-resumed campaign
must produce the same digest as an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re

from repro.obs.stream import event_from_line, event_to_line

CHECKPOINT_KIND = "pab-campaign-checkpoint"
CHECKPOINT_SCHEMA = 3

#: Name of the append-only history file beside the checkpoints.
HISTORY_NAME = "history.jsonl"

_CHECKPOINT_NAME = re.compile(r"^checkpoint-(\d{6})\.json$")


class CheckpointError(RuntimeError):
    """A checkpoint file could not be written, parsed, or validated."""


def _canonical_state_json(state: dict) -> str:
    # Canonical form for hashing.  The state codec turns every mapping
    # with non-string keys into a sorted pair list, so sort order
    # survives the JSON round trip (json would render int keys as
    # strings but *sort* them as ints, breaking write/read hash
    # agreement).
    return json.dumps(state, sort_keys=True)


def state_integrity(state: dict) -> str:
    """sha256 over the canonical state JSON."""
    return hashlib.sha256(_canonical_state_json(state).encode()).hexdigest()


def write_checkpoint(path, state: dict, *, round: int, campaign: dict | None = None) -> pathlib.Path:
    """Write a checkpoint document to ``path`` (parents created).

    The file holds exactly ``json.dumps(doc, sort_keys=True) + "\\n"``,
    but the state — nearly all of its bytes — is encoded only once: the
    integrity hash is taken over those bytes, and they are streamed
    after the header.  The document is written to a sibling ``.tmp``
    file and renamed into place, so a crash mid-write never leaves a
    truncated file under a checkpoint name.
    """
    if not isinstance(state, dict):
        raise CheckpointError("checkpoint state must be a dict")
    body = _canonical_state_json(state).encode()
    header = {
        "kind": CHECKPOINT_KIND,
        "schema": CHECKPOINT_SCHEMA,
        "round": int(round),
        "campaign": dict(campaign or {}),
        "integrity": hashlib.sha256(body).hexdigest(),
    }
    # "state" sorts after every header key, so the sorted document is
    # the sorted header with the state spliced in before its final "}".
    head = json.dumps(header, sort_keys=True)[:-1].encode()
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(head)
            f.write(b', "state": ')
            f.write(body)
            f.write(b"}\n")
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)
    return out


def read_checkpoint(path) -> dict:
    """Load and validate a checkpoint document and its history prefix.

    The returned document also carries, under ``"history"``, the
    envelopes of the history prefix its state's pointer names
    (``[]`` when the state holds no pointer).  Raises
    :class:`CheckpointError` with a one-line message on any problem; a
    document that comes back *was* validated end to end.
    """
    p = pathlib.Path(path)
    if not p.exists():
        raise CheckpointError(f"checkpoint {p} not found")
    try:
        doc = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {p} is not valid JSON (truncated or corrupted?): {exc}"
        ) from None
    if not isinstance(doc, dict) or doc.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(f"checkpoint {p} is not a campaign checkpoint")
    if doc.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {p} has schema {doc.get('schema')!r}, "
            f"expected {CHECKPOINT_SCHEMA}"
        )
    for section in ("round", "state"):
        if section not in doc:
            raise CheckpointError(f"checkpoint {p} is missing '{section}'")
    if not isinstance(doc["state"], dict):
        raise CheckpointError(f"checkpoint {p} has a malformed 'state' section")
    expected = doc.get("integrity")
    actual = state_integrity(doc["state"])
    if expected != actual:
        raise CheckpointError(
            f"checkpoint {p} failed its integrity check (corrupted?)"
        )
    pointer = doc["state"].get("history")
    doc["history"] = [] if pointer is None else _read_history(p, pointer)
    return doc


def _read_history(p: pathlib.Path, pointer) -> list:
    """The verified history rows a checkpoint's pointer names."""
    try:
        path = p.parent / pointer["file"]
        lines, size = int(pointer["lines"]), int(pointer["bytes"])
        digest = pointer["sha256"]
    except (TypeError, KeyError, ValueError):
        raise CheckpointError(
            f"checkpoint {p} has a malformed history pointer"
        ) from None
    try:
        with open(path, "rb") as f:
            prefix = f.read(size)
    except FileNotFoundError:
        raise CheckpointError(
            f"checkpoint {p}: history file {path} not found"
        ) from None
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint {p}: history file {path} cannot be read: {exc.strerror}"
        ) from None
    if len(prefix) < size:
        raise CheckpointError(
            f"checkpoint {p}: history file {path} is shorter than the "
            f"{size}-byte prefix it points to"
        )
    if hashlib.sha256(prefix).hexdigest() != digest:
        raise CheckpointError(
            f"checkpoint {p}: history file {path} failed its integrity "
            "check (corrupted, or rewritten by a later campaign?)"
        )
    try:
        rows = prefix.decode().split("\n")
        if rows.pop() != "" or len(rows) != lines:
            raise ValueError(f"it does not hold {lines} whole lines")
        return [event_from_line(row) for row in rows]
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {p}: history prefix in {path} is malformed: {exc}"
        ) from None


class HistoryFile:
    """Writer of the append-only ``history.jsonl`` in ``directory``.

    ``prefix`` is the pointer of the history a restored campaign
    already has.  When the file in ``directory`` holds that prefix it
    is truncated to it and appends continue after it; otherwise (a
    fresh campaign, or another directory) the file starts empty.
    """

    def __init__(self, directory, prefix: dict | None = None) -> None:
        self.directory = pathlib.Path(directory)
        self.path = self.directory / HISTORY_NAME
        self._sha = hashlib.sha256()
        self.lines = 0
        self.bytes = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        if prefix is None or not self._truncate_to(prefix):
            self.path.write_bytes(b"")

    def _truncate_to(self, prefix: dict) -> bool:
        """Keep the file's first ``prefix`` bytes if they are that prefix."""
        size = int(prefix["bytes"])
        try:
            with open(self.path, "r+b") as f:
                head = f.read(size)
                if len(head) < size or (
                    hashlib.sha256(head).hexdigest() != prefix["sha256"]
                ):
                    return False
                f.truncate(size)
        except FileNotFoundError:
            return False
        self._sha.update(head)
        self.lines, self.bytes = int(prefix["lines"]), size
        return True

    def pointer(self) -> dict:
        """The pointer a checkpoint stores for the file as written so far."""
        return {
            "file": HISTORY_NAME,
            "lines": self.lines,
            "bytes": self.bytes,
            "sha256": self._sha.hexdigest(),
        }

    def append(self, rows: list) -> dict:
        """Write stream envelopes after the prefix; returns :meth:`pointer`.

        The rows go at the prefix's end, not the file's: a failed
        earlier append cannot leave bytes between two prefixes.
        """
        blob = "".join(event_to_line(row) + "\n" for row in rows).encode()
        with open(self.path, "r+b") as f:
            f.seek(self.bytes)
            f.write(blob)
            f.truncate()
        self._sha.update(blob)
        self.lines += len(rows)
        self.bytes += len(blob)
        return self.pointer()


def checkpoint_path(directory, round: int) -> pathlib.Path:
    """Canonical file name for the checkpoint taken after ``round``."""
    return pathlib.Path(directory) / f"checkpoint-{int(round):06d}.json"


def recorder_path(directory, round: int) -> pathlib.Path:
    """Canonical name for a flight-recorder dump taken during ``round``.

    Lives next to the checkpoints so an aborted campaign's last-events
    recording (:class:`repro.obs.recorder.FlightRecorder`) is found in
    the same place as the state needed to resume it.
    """
    return pathlib.Path(directory) / f"flight-recorder-{int(round):06d}.jsonl"


def latest_checkpoint(directory) -> pathlib.Path | None:
    """The highest-round checkpoint file in ``directory``, or ``None``."""
    d = pathlib.Path(directory)
    if not d.is_dir():
        return None
    best: tuple[int, pathlib.Path] | None = None
    for entry in d.iterdir():
        m = _CHECKPOINT_NAME.match(entry.name)
        if m is None:
            continue
        r = int(m.group(1))
        if best is None or r > best[0]:
            best = (r, entry)
    return None if best is None else best[1]


def campaign_digest(report: dict, log=None, metrics=None) -> str:
    """The campaign identity digest shared with ``repro bench``.

    sha256 over the canonical report JSON, plus (when provided) the
    event-log dump and the Prometheus exposition — byte-identical
    inputs produce byte-identical digests, which is the proof used for
    sequential/batch equivalence and for checkpoint resume.
    """
    blob = json.dumps(report, sort_keys=True, default=str)
    if log is not None:
        blob += "\n" + log.dump()
    if metrics is not None:
        from repro.obs.export import metrics_to_prometheus

        blob += "\n" + metrics_to_prometheus(metrics)
    return hashlib.sha256(blob.encode()).hexdigest()
