"""Checkpoint files: round-trip, naming, byte format, atomic writes, and
every rejection path."""

import builtins
import errno
import json

import pytest

from repro.obs.stream import event_to_line, make_event
from repro.resilience import checkpoint as checkpoint_module
from repro.resilience import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    HISTORY_NAME,
    CheckpointError,
    HistoryFile,
    checkpoint_path,
    latest_checkpoint,
    read_checkpoint,
    state_integrity,
    write_checkpoint,
)

pytestmark = pytest.mark.resilience

STATE = {
    "round": 3,
    "nodes": {"32": {"bitrate": 2_000.0, "readings": [["temperature", [18.5]]]}},
    "special": [float("inf"), float("-inf")],
}


class TestRoundTrip:
    def test_document_round_trips(self, tmp_path):
        path = write_checkpoint(
            tmp_path / "ck.json", STATE, round=3,
            campaign={"builder": "chaos-fleet"},
        )
        doc = read_checkpoint(path)
        assert doc["kind"] == CHECKPOINT_KIND
        assert doc["schema"] == CHECKPOINT_SCHEMA
        assert doc["round"] == 3
        assert doc["campaign"] == {"builder": "chaos-fleet"}
        assert doc["state"] == STATE
        assert doc["integrity"] == state_integrity(STATE)

    def test_parents_created(self, tmp_path):
        path = write_checkpoint(
            tmp_path / "a" / "b" / "ck.json", STATE, round=1
        )
        assert path.exists()

    def test_non_dict_state_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="must be a dict"):
            write_checkpoint(tmp_path / "ck.json", [1, 2], round=0)

    def test_checkpoint_path_naming(self, tmp_path):
        assert checkpoint_path(tmp_path, 15).name == "checkpoint-000015.json"

    def test_latest_checkpoint_picks_highest_round(self, tmp_path):
        for r in (5, 15, 10):
            write_checkpoint(checkpoint_path(tmp_path, r), STATE, round=r)
        (tmp_path / "not-a-checkpoint.json").write_text("{}")
        assert latest_checkpoint(tmp_path).name == "checkpoint-000015.json"

    def test_latest_checkpoint_empty_or_missing_dir(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "nope") is None


NASTY_STATE = {
    "special": [float("inf"), float("-inf"), float("nan")],
    "nodes": {
        "9": {"soc_v": [2.5, float("nan")], "mac": {"z": 1, "a": [None, True]}},
        "10": {"nested": {"deeper": {"b": -0.0, "a": 1e-300}}},
    },
    "round": 7,
}


class TestByteFormat:
    """The file bytes are the sorted document, however written."""

    @pytest.mark.parametrize(
        "state, campaign",
        [
            (STATE, None),
            (NASTY_STATE, {"builder": "chaos-fleet", "site": "Étang, 水槽 ☃"}),
            ({}, {}),
        ],
        ids=["plain", "inf-nan-nested-non-ascii", "empty"],
    )
    def test_file_is_the_sorted_document(self, tmp_path, state, campaign):
        path = write_checkpoint(
            tmp_path / "ck.json", state, round=7, campaign=campaign
        )
        doc = {
            "kind": CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA,
            "round": 7,
            "campaign": dict(campaign or {}),
            "state": state,
            "integrity": state_integrity(state),
        }
        assert path.read_bytes() == (json.dumps(doc, sort_keys=True) + "\n").encode()

    def test_state_is_the_last_top_level_key(self, tmp_path):
        """The writer splices the state in after the sorted header, which
        is only the sorted document while no header key sorts after
        "state"."""
        path = write_checkpoint(
            tmp_path / "ck.json", STATE, round=3, campaign={"builder": "x"}
        )
        keys = list(json.loads(path.read_text()))
        assert keys == sorted(keys)
        assert keys[-1] == "state"


class _FullDisk:
    """A writable file that takes the first write, then fails."""

    def __init__(self, f):
        self._f = f
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        if self._writes:
            raise OSError(errno.ENOSPC, "No space left on device")
        self._writes += 1
        return self._f.write(data)


class TestAtomicWrite:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        write_checkpoint(checkpoint_path(tmp_path, 5), STATE, round=5)
        monkeypatch.setattr(
            checkpoint_module, "open",
            lambda path, mode: _FullDisk(builtins.open(path, mode)),
            raising=False,
        )
        with pytest.raises(OSError, match="No space"):
            write_checkpoint(checkpoint_path(tmp_path, 10), STATE, round=10)
        latest = latest_checkpoint(tmp_path)
        assert latest.name == "checkpoint-000005.json"
        assert read_checkpoint(latest)["round"] == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-000005.json"
        ]

    def test_leftover_tmp_is_never_latest(self, tmp_path):
        """A writer killed mid-write leaves only a ``.tmp`` sibling."""
        write_checkpoint(checkpoint_path(tmp_path, 5), STATE, round=5)
        (tmp_path / "checkpoint-000010.json.tmp").write_text('{"kind": "pab-')
        assert latest_checkpoint(tmp_path).name == "checkpoint-000005.json"
        path = write_checkpoint(checkpoint_path(tmp_path, 10), STATE, round=10)
        assert read_checkpoint(path)["round"] == 10
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-000005.json", "checkpoint-000010.json",
        ]


class TestRejection:
    """Every read-path failure is a one-line CheckpointError."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            read_checkpoint(tmp_path / "nope.json")

    def test_truncated_file(self, tmp_path):
        path = write_checkpoint(tmp_path / "ck.json", STATE, round=3)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_checkpoint(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"kind": "something-else", "schema": 1}))
        with pytest.raises(CheckpointError, match="not a campaign checkpoint"):
            read_checkpoint(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="not a campaign checkpoint"):
            read_checkpoint(path)

    def test_unsupported_schema(self, tmp_path):
        path = write_checkpoint(tmp_path / "ck.json", STATE, round=3)
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="schema 99"):
            read_checkpoint(path)

    def test_missing_section(self, tmp_path):
        path = write_checkpoint(tmp_path / "ck.json", STATE, round=3)
        doc = json.loads(path.read_text())
        del doc["round"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="missing 'round'"):
            read_checkpoint(path)

    def test_malformed_state(self, tmp_path):
        path = write_checkpoint(tmp_path / "ck.json", STATE, round=3)
        doc = json.loads(path.read_text())
        doc["state"] = "oops"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="malformed 'state'"):
            read_checkpoint(path)

    def test_corrupted_state_fails_integrity(self, tmp_path):
        path = write_checkpoint(tmp_path / "ck.json", STATE, round=3)
        doc = json.loads(path.read_text())
        doc["state"]["round"] = 999  # bit-flip equivalent
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="integrity"):
            read_checkpoint(path)

    def test_missing_integrity_fails(self, tmp_path):
        path = write_checkpoint(tmp_path / "ck.json", STATE, round=3)
        doc = json.loads(path.read_text())
        del doc["integrity"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="integrity"):
            read_checkpoint(path)


def history_rows(start, n):
    """``n`` history envelopes numbered from ``start``."""
    return [
        make_event(
            seq, "round", t=float(seq), source="reader",
            data={"t": float(seq), "outcomes": {"32": {"delivered": True}}},
        )
        for seq in range(start, start + n)
    ]


def checkpoint_with_history(directory, rounds=(3,), per_save=4):
    """Checkpoints at ``rounds``, each pointing into one history file;
    returns ``(paths, rows)``."""
    history = HistoryFile(directory)
    paths, rows = [], []
    for r in rounds:
        new = history_rows(len(rows), per_save)
        rows += new
        state = dict(STATE, round=r, history=history.append(new))
        paths.append(write_checkpoint(checkpoint_path(directory, r), state, round=r))
    return paths, rows


def one_line_error(path) -> str:
    with pytest.raises(CheckpointError) as info:
        read_checkpoint(path)
    message = str(info.value)
    assert len(message.splitlines()) == 1
    return message


class TestHistoryPrefix:
    """A checkpoint's history pointer: verified on read, ignored past."""

    def test_rows_round_trip_and_later_rows_are_ignored(self, tmp_path):
        (first, second), rows = checkpoint_with_history(tmp_path, (3, 6))
        assert read_checkpoint(first)["history"] == rows[:4]
        assert read_checkpoint(second)["history"] == rows
        pointer = read_checkpoint(second)["state"]["history"]
        assert pointer["file"] == HISTORY_NAME
        assert pointer["lines"] == 8
        assert pointer["bytes"] == (tmp_path / HISTORY_NAME).stat().st_size

    def test_history_lines_are_canonical_stream_lines(self, tmp_path):
        _, rows = checkpoint_with_history(tmp_path, (3, 6))
        text = (tmp_path / HISTORY_NAME).read_text()
        assert text == "".join(event_to_line(row) + "\n" for row in rows)

    def test_partial_last_line_past_prefix_is_ignored(self, tmp_path):
        """A crash mid-append leaves a cut line after the last prefix."""
        (path,), rows = checkpoint_with_history(tmp_path)
        with open(tmp_path / HISTORY_NAME, "ab") as f:
            f.write(b'{"data":{"t":4.0,"outc')
        assert read_checkpoint(path)["history"] == rows

    def test_schema_1_file_refused(self, tmp_path):
        """Older checkpoints are not resumable: schema 1 embeds its
        history, schema 2 spells the state in its hand-written layout."""
        for schema, state in [
            (1, {"round": 3, "events": [], "round_log": []}),
            (2, {"round": 3, "nodes": {}, "macs": {}, "shards": {}}),
        ]:
            doc = {
                "kind": CHECKPOINT_KIND, "schema": schema, "round": 3,
                "campaign": {}, "state": state,
                "integrity": state_integrity(state),
            }
            path = tmp_path / f"schema-{schema}" / "checkpoint-000003.json"
            path.parent.mkdir()
            path.write_text(json.dumps(doc, sort_keys=True) + "\n")
            assert f"schema {schema}" in one_line_error(path)

    def test_missing_history_file(self, tmp_path):
        (path,), _ = checkpoint_with_history(tmp_path)
        (tmp_path / HISTORY_NAME).unlink()
        assert "not found" in one_line_error(path)

    def test_history_shorter_than_prefix(self, tmp_path):
        (path,), _ = checkpoint_with_history(tmp_path)
        history = tmp_path / HISTORY_NAME
        history.write_bytes(history.read_bytes()[:-10])
        assert "shorter" in one_line_error(path)

    def test_byte_changed_inside_prefix(self, tmp_path):
        (path,), _ = checkpoint_with_history(tmp_path)
        history = tmp_path / HISTORY_NAME
        data = bytearray(history.read_bytes())
        at = data.index(b"true")
        data[at:at + 4] = b"null"
        history.write_bytes(bytes(data))
        assert "integrity" in one_line_error(path)

    def test_malformed_pointer(self, tmp_path):
        state = dict(STATE, history={"file": HISTORY_NAME})
        path = write_checkpoint(tmp_path / "ck.json", state, round=3)
        assert "history pointer" in one_line_error(path)


class TestHistoryFile:
    def test_reopening_on_a_held_prefix_truncates_to_it(self, tmp_path):
        (first, _), rows = checkpoint_with_history(tmp_path, (3, 6))
        prefix = read_checkpoint(first)["state"]["history"]
        history = HistoryFile(tmp_path, prefix)
        assert history.pointer() == prefix
        assert (tmp_path / HISTORY_NAME).stat().st_size == prefix["bytes"]
        history.append(rows[4:])
        assert history.pointer()["lines"] == 8

    def test_other_prefix_starts_a_new_file(self, tmp_path):
        (first,), _ = checkpoint_with_history(tmp_path / "a")
        prefix = read_checkpoint(first)["state"]["history"]
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / HISTORY_NAME).write_text("unrelated\n")
        for directory in (tmp_path / "b", tmp_path / "c"):
            history = HistoryFile(directory, prefix)
            assert history.pointer()["lines"] == 0
            assert (directory / HISTORY_NAME).read_bytes() == b""

    def test_append_overwrites_bytes_past_the_prefix(self, tmp_path):
        """A failed earlier append cannot wedge junk between prefixes."""
        history = HistoryFile(tmp_path)
        history.append(history_rows(0, 2))
        with open(history.path, "ab") as f:
            f.write(b"junk from a failed append")
        history.append(history_rows(2, 2))
        state = dict(STATE, history=history.pointer())
        path = write_checkpoint(tmp_path / "ck.json", state, round=3)
        assert read_checkpoint(path)["history"] == history_rows(0, 4)
