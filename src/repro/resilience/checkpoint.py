"""Versioned, integrity-checked campaign checkpoint files.

A checkpoint is one JSON document::

    {
      "kind": "pab-campaign-checkpoint",
      "schema": 1,
      "round": 15,
      "campaign": {... how to rebuild the fleet (CLI metadata) ...},
      "state": {... ReaderController.snapshot() ...},
      "integrity": "<sha256 of the canonical state JSON>"
    }

``state`` is everything ``run_campaign`` needs to continue as if the
interruption never happened: per-node RNG/retry streams, health state
machines, MAC statistics, the full event log, the metrics registry,
energy ledgers, SLO trackers, and the round log.  ``campaign`` is
opaque to this module — the CLI stores enough there for ``repro
resume`` to rebuild an identical fleet before restoring ``state`` into
it.

Every failure mode on the read path (missing file, truncated or
corrupted JSON, wrong kind, unsupported schema, integrity mismatch,
missing sections) raises :class:`CheckpointError` with a one-line
message — a resume must either be exact or refuse loudly.

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

CHECKPOINT_KIND = "pab-campaign-checkpoint"
CHECKPOINT_SCHEMA = 1

_CHECKPOINT_NAME = re.compile(r"^checkpoint-(\d{6})\.json$")


class CheckpointError(RuntimeError):
    """A checkpoint file could not be written, parsed, or validated."""


def _canonical_state_json(state: dict) -> str:
    # Canonical form for hashing.  Addresses and other mapping keys are
    # stringified by the snapshot layer, so sort order survives the JSON
    # round trip (json would render int keys as strings but *sort* them
    # as ints, breaking write/read hash agreement).
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
    """Load and validate a checkpoint document.

    Raises :class:`CheckpointError` with a one-line message on any
    problem; a document that comes back *was* validated end to end.
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
    return doc


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
