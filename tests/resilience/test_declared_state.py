"""Mutation walk: every attribute a campaign changes is declared state.

Checkpoint completeness is found mechanically instead of listed by
hand.  Seeded campaigns run under a walk that fingerprints every
attribute of every object reachable from the reader, once when the
reader is built and again after each round.  Each attribute whose
fingerprint changed must be declared checkpoint state (a ``__state__``
name, :mod:`repro.state`), belong to a dataclass that a declared
attribute encodes whole, or appear in :data:`NOT_STATE` with the reason
a resume does not need it.  Anything else is state a checkpoint would
silently drop.
"""

import collections
import dataclasses
import enum
import functools
import hashlib
import types

import numpy as np
import pytest

from repro import cli
from repro.faults import BrownoutInjector, EventLog
from repro.net import Command, HealthPolicy, ReaderController, RetryPolicy
from repro.net.health import NodeHealth
from repro.obs import MetricsRegistry
from repro.sensing.adc import SarADC
from repro.state import Stateful

pytestmark = pytest.mark.resilience

_CACHE_BATCH = (
    "cache: the batch planner's window, sizing and work counts; a wrong "
    "prediction costs speed, never bytes, and reset_window replans"
)
_DERIVED_BOOKS = (
    "derived: the current bucket's books, written back by _store_books "
    "before a snapshot and reloaded by _load_books after a restore"
)
_STREAM = (
    "history: the telemetry stream; a resumed bus continues its "
    "sequence from the stream file"
)
_LEG_MEMO = "cache: the leg memo; an entry is a pure function of its key"

#: Mutated attributes that are not checkpoint state, with the reason a
#: resume does not need them.  The walk neither fingerprints nor
#: follows them.
NOT_STATE = {
    # History only grows: a checkpoint points into the history file,
    # and a restore replays the history from it.
    "EventLog.events": "history: replayed from the history file's event rows",
    "ReaderController.round_log": "history: replayed from the round rows",
    "NodeRecord.readings": "history: replayed from the readings rows",
    "EnergyLedger.round_history": "history: replayed from the soc rows",
    "EnergyLedger.soc_t": "history: replayed from the soc_samples rows",
    "EnergyLedger.soc_v": "history: replayed from the soc_samples rows",
    "AnomalyMonitor.anomalies": (
        "history: the envelopes are on the stream, and prior_total "
        "counts them"
    ),
    "PollingMac.last_exception": (
        "history: the last contained exception, kept for diagnosis; "
        "every poll clears it first"
    ),
    "ReaderController._history_file": (
        "history: the history file's writer, reopened at the restored "
        "prefix by the first save after a restore"
    ),
    "ReaderController._history_pointer": (
        "history: stored beside the state as the checkpoint's history "
        "pointer, and read back by restore"
    ),
    "ReaderController.bus": _STREAM,
    "EventLog.bus": _STREAM,
    "BatchedLinkEngine.stats": _CACHE_BATCH,
    # Derived from the declared state, or from the call that runs.
    "ReaderController._history_mark": (
        "derived: where the history ends; restore recomputes it after "
        "the replay"
    ),
    "ReaderController._campaign_rounds": (
        "derived: run_campaign's rounds, set while it runs"
    ),
    "ReaderController._checkpoint_dir": "derived: run_campaign's checkpoint_dir",
    "NodeRecord.stats": (
        "derived: the node's PollingMac.stats, aliased here by every poll "
        "and every restore"
    ),
    "EnergyLedger._books_state": _DERIVED_BOOKS,
    "EnergyLedger._seconds": _DERIVED_BOOKS,
    "EnergyLedger._harvested": _DERIVED_BOOKS,
    "EnergyLedger._consumed": _DERIVED_BOOKS,
    "EnergyLedger._leaked": _DERIVED_BOOKS,
    "EnergyLedger._clamped": _DERIVED_BOOKS,
    # Caches: pure functions of state and construction, or rebuilt on use.
    "LRUCache._data": _LEG_MEMO,
    "LRUCache.hits": _LEG_MEMO,
    "LRUCache.misses": _LEG_MEMO,
    "BackscatterLink._batch_hints": (
        "cache: demodulations precomputed for the noise stream's next "
        "positions; reset_window drops them on restore"
    ),
    "BatchedLinkEngine._links": _CACHE_BATCH,
    "BatchedLinkEngine._hinted_rounds": _CACHE_BATCH,
    "BatchedLinkEngine._window_rounds": _CACHE_BATCH,
    "BatchedLinkEngine._surplus": _CACHE_BATCH,
    "BatchedLinkEngine._last_rows": _CACHE_BATCH,
    "ReaderController._stream_metrics_state": (
        "cache: the metric values last streamed; a resumed campaign "
        "re-publishes each live metric once"
    ),
    "MS5837Driver._prom": (
        "cache: the PROM coefficients; after a resume they are read again "
        "before the first conversion"
    ),
    "MS5837._was_reset": "cache: set again by the reset sent with that read",
}

_LEAVES = (str, bytes, int, float, complex, bool, type(None), enum.Enum)
_MISSING = object()


def _not_state(obj, name: str) -> bool:
    return any(
        f"{cls.__name__}.{name}" in NOT_STATE for cls in type(obj).__mro__
    )


def _attributes(obj):
    """``(name, value)`` of ``obj``'s walked attributes."""
    for name, value in vars(obj).items():
        if not _not_state(obj, name):
            yield name, value


def _walkable(value) -> bool:
    return hasattr(value, "__dict__") and not isinstance(
        value, (type, types.ModuleType, types.FunctionType, types.MethodType,
                functools.partial)
    )


def _objects_in(value):
    """The walkable objects a value holds, through containers, bound
    methods, closures and partials."""
    if isinstance(value, _LEAVES) or isinstance(
        value, (np.ndarray, np.generic, np.random.Generator)
    ):
        return
    if isinstance(value, dict):
        for item in (*value.keys(), *value.values()):
            yield from _objects_in(item)
    elif isinstance(value, (list, tuple, set, frozenset, collections.deque)):
        for item in value:
            yield from _objects_in(item)
    elif isinstance(value, types.MethodType):
        yield from _objects_in(value.__self__)
    elif isinstance(value, types.FunctionType):
        for cell in value.__closure__ or ():
            try:
                yield from _objects_in(cell.cell_contents)
            except ValueError:   # an empty cell
                pass
    elif isinstance(value, functools.partial):
        yield from _objects_in((value.func, value.args, value.keywords))
    elif _walkable(value):
        yield value


class MutationWalk:
    """Attribute fingerprints of everything reachable from ``root``.

    Each object's fingerprints are kept from the first sample that
    reaches it; later samples add every attribute whose fingerprint
    differs to :attr:`mutated`.  Objects stay referenced, so their ids
    are not reused while the walk lives.
    """

    def __init__(self, root) -> None:
        self.root = root
        self.first: dict = {}
        self.mutated = collections.defaultdict(set)
        self.reached: set = set()
        self._kept: dict = {}

    def sample(self) -> None:
        self.reached = set()
        for obj in self._reachable():
            fingerprints = {
                name: self._fingerprint(value)
                for name, value in _attributes(obj)
            }
            key = id(obj)
            self.reached.add(key)
            if key not in self.first:
                self.first[key] = (obj, fingerprints)
                continue
            before = self.first[key][1]
            for name in before.keys() | fingerprints.keys():
                if before.get(name, _MISSING) != fingerprints.get(name, _MISSING):
                    self.mutated[key].add(name)

    def _reachable(self) -> list:
        out, seen, queue = [], {id(self.root)}, [self.root]
        while queue:
            obj = queue.pop()
            out.append(obj)
            for _, value in _attributes(obj):
                for child in _objects_in(value):
                    if id(child) not in seen:
                        seen.add(id(child))
                        queue.append(child)
        return out

    def _fingerprint(self, value):
        if isinstance(value, enum.Enum):
            return ("enum", type(value).__name__, repr(value.value))
        if isinstance(value, _LEAVES):
            return (type(value).__name__, repr(value))
        if isinstance(value, np.ndarray):
            data = np.ascontiguousarray(value).tobytes()
            return ("array", value.shape, value.dtype.str,
                    hashlib.sha1(data).hexdigest())
        if isinstance(value, np.random.Generator):
            return ("rng", repr(value.bit_generator.state))
        if isinstance(value, np.generic):
            return ("numpy", repr(value))
        if isinstance(value, dict):
            return ("dict", tuple(
                (self._fingerprint(k), self._fingerprint(v))
                for k, v in value.items()
            ))
        if isinstance(value, (list, tuple, collections.deque)):
            return (type(value).__name__, tuple(map(self._fingerprint, value)))
        if isinstance(value, (set, frozenset)):
            return (type(value).__name__,
                    frozenset(map(self._fingerprint, value)))
        if isinstance(value, types.MethodType):
            self._kept[id(value.__self__)] = value.__self__
            return ("method", value.__func__.__qualname__, id(value.__self__))
        self._kept[id(value)] = value
        return ("object", type(value).__name__, id(value))

    def undeclared(self) -> list:
        """``Class.attribute`` names mutated outside the declared state."""
        covered = _encoded_whole(self.root)
        out = set()
        for key in self.reached:
            obj = self.first[key][0]
            declared = getattr(type(obj), "__state__", ())
            for name in self.mutated.get(key, ()):
                if name not in declared and key not in covered:
                    out.add(f"{type(obj).__name__}.{name}")
        return sorted(out)


def _encoded_whole(root) -> set:
    """ids of the objects declared state encodes field by field: the
    dataclasses that declared attributes hold, and duck-typed objects
    with a snapshot protocol of their own."""
    covered, seen = set(), set()

    def visit(value):
        for obj in _objects_in(value):
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, Stateful):
                for name in obj.__state__:
                    visit(getattr(obj, name))
            elif hasattr(obj, "snapshot_state"):
                covered.add(id(obj))
            elif dataclasses.is_dataclass(obj):
                covered.add(id(obj))
                for field in dataclasses.fields(obj):
                    visit(getattr(obj, field.name))

    visit(root)
    return covered


def walk_campaigns(run) -> list:
    """Run ``run()``, walking every reader it builds; returns the walks.

    A walk starts when its reader is built, samples after every round,
    and samples once more when a campaign returns (or raises).
    """
    walks = {}
    init = ReaderController.__init__
    finish = ReaderController._finish_round
    campaign = ReaderController.run_campaign

    def built(reader, *args, **kwargs):
        init(reader, *args, **kwargs)
        walks[id(reader)] = MutationWalk(reader)
        walks[id(reader)].sample()

    def finish_round(reader, *args, **kwargs):
        finish(reader, *args, **kwargs)
        walks[id(reader)].sample()

    def run_campaign(reader, *args, **kwargs):
        try:
            return campaign(reader, *args, **kwargs)
        finally:
            walks[id(reader)].sample()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReaderController, "__init__", built)
        mp.setattr(ReaderController, "_finish_round", finish_round)
        mp.setattr(ReaderController, "run_campaign", run_campaign)
        run()
    return list(walks.values())


def chaos_fleet(tmp_path):
    """The ``fleet-report`` chaos fleet, streaming and checkpointing."""
    assert cli.main([
        "fleet-report", "--nodes", "8", "--rounds", "30", "--seed", "7",
        "--checkpoint-every", "5", "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--stream-out", str(tmp_path / "stream.jsonl"),
    ]) == 0


def bench_fleet(tmp_path, parallel):
    """Three bench positions polling every sensor, checkpointing."""
    reader = ReaderController(
        cli._build_bench_fleet(3, 2019, 2_000.0),
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.05, jitter=0.25, seed=2019
        ),
        health_policy=HealthPolicy(degrade_after=2, quarantine_after=3),
        log=EventLog(),
        metrics=MetricsRegistry(),
        parallel=parallel,
    )
    rounds = 0
    for command in (
        Command.READ_PH, Command.READ_PRESSURE_TEMP, Command.READ_TEMPERATURE
    ):
        rounds += 2
        reader.run_campaign(
            command, rounds=rounds, checkpoint_every=3,
            checkpoint_dir=tmp_path / f"bench-{parallel}",
        )


@pytest.fixture(scope="module")
def walks(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("walks")
    return {
        "chaos": walk_campaigns(lambda: chaos_fleet(tmp)),
        "bench": walk_campaigns(lambda: bench_fleet(tmp, 0))
        + walk_campaigns(lambda: bench_fleet(tmp, "batch")),
    }


@pytest.mark.parametrize("campaign", ["chaos", "bench"])
def test_every_mutated_attribute_is_declared(walks, campaign):
    assert walks[campaign]
    for walk in walks[campaign]:
        assert walk.undeclared() == []


@pytest.mark.parametrize("cls, name, campaign", [
    (BrownoutInjector, "_dark_until", "chaos"),
    (NodeHealth, "consecutive_failures", "chaos"),
    (SarADC, "_rng", "bench"),
])
def test_a_dropped_declaration_is_reported(walks, monkeypatch, cls, name,
                                           campaign):
    assert name in cls.__state__
    monkeypatch.setattr(
        cls, "__state__", tuple(n for n in cls.__state__ if n != name)
    )
    found = set()
    for walk in walks[campaign]:
        found.update(walk.undeclared())
    assert found == {f"{cls.__name__}.{name}"}
