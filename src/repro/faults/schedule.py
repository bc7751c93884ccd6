"""Scripted, deterministic fault scenarios.

:class:`FaultSchedule` is a small builder for chaos scripts: "at
transaction 3 a noise burst starts for 4 exchanges, at 5 the node browns
out for 10, at 7 the transport raises".  :class:`ScheduledFaultInjector`
executes the script against any ``transact`` callable with zero
randomness — the same schedule always produces the same fault sequence,
which is what the acceptance tests assert against.

Stochastic campaigns compose the seeded injectors from
:mod:`repro.faults.injectors` instead; a schedule is for scripting the
exact adversarial timeline a test needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.injectors import (
    FaultInjector,
    InjectedResult,
    TransportError,
    _GarbledDemod,
)

#: Recognised scripted actions.
ACTIONS = ("drop", "garble", "brownout", "noise", "exception")


@dataclass
class FaultSchedule:
    """An ordered script of fault actions keyed by transaction index."""

    _actions: dict = field(default_factory=dict)

    def _add(self, at: int, action: str, **params) -> "FaultSchedule":
        if at < 0:
            raise ValueError("transaction index must be non-negative")
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r}")
        self._actions.setdefault(int(at), []).append((action, params))
        return self

    def drop(self, at: int) -> "FaultSchedule":
        """No reply for this one transaction."""
        return self._add(at, "drop")

    def garble(self, at: int, data: bytes = b"\xde\xad\xbe\xef") -> "FaultSchedule":
        """Reply arrives with trashed bits (CRC failure) at ``at``."""
        return self._add(at, "garble", data=bytes(data))

    def brownout(self, at: int, dark_for: int = 5) -> "FaultSchedule":
        """Node goes unpowered for ``dark_for`` transactions from ``at``."""
        if dark_for < 1:
            raise ValueError("dark_for must be >= 1")
        return self._add(at, "brownout", dark_for=int(dark_for))

    def noise_burst(self, at: int, duration: int = 3, snr_db: float = -10.0) -> "FaultSchedule":
        """SNR collapse for ``duration`` transactions from ``at``."""
        if duration < 1:
            raise ValueError("duration must be >= 1")
        return self._add(at, "noise", duration=int(duration), snr_db=float(snr_db))

    def exception(self, at: int, message: str = "scheduled transport failure") -> "FaultSchedule":
        """The transport raises :class:`TransportError` at ``at``."""
        return self._add(at, "exception", message=str(message))

    def actions_at(self, index: int) -> list:
        """The scripted actions for one transaction index."""
        return list(self._actions.get(index, ()))

    @property
    def horizon(self) -> int:
        """One past the last scripted index (0 when empty)."""
        return max(self._actions, default=-1) + 1

    def __len__(self) -> int:
        return sum(len(v) for v in self._actions.values())


class ScheduledFaultInjector(FaultInjector):
    """Executes a :class:`FaultSchedule` against a transact callable.

    Window actions (brownout, noise burst) persist for their scripted
    duration; point actions (drop, garble, exception) fire on their
    exact transaction.  When several apply at once the most severe wins:
    exception > brownout > noise > garble > drop.
    """

    name = "scheduled"
    __state__ = FaultInjector.__state__ + (
        "_dark_until", "_noise_until", "_noise_snr_db",
    )

    def __init__(self, inner, schedule: FaultSchedule, **kwargs) -> None:
        super().__init__(inner, **kwargs)
        self.schedule = schedule
        self._dark_until = -1
        self._noise_until = -1
        self._noise_snr_db = float("nan")

    def _intercept(self, query, index: int):
        point = {action: params for action, params in self.schedule.actions_at(index)}
        if "brownout" in point:
            self._dark_until = max(self._dark_until, index + point["brownout"]["dark_for"])
        if "noise" in point:
            self._noise_until = max(self._noise_until, index + point["noise"]["duration"])
            self._noise_snr_db = point["noise"]["snr_db"]

        if "exception" in point:
            self._fire(index, action="exception")
            raise TransportError(point["exception"]["message"])
        if index < self._dark_until:
            if "brownout" in point:
                self._fire(index, action="brownout", dark_for=point["brownout"]["dark_for"])
            return InjectedResult(fault="brownout", powered_up=False)
        if index < self._noise_until:
            if "noise" in point:
                self._fire(index, action="noise", snr_db=self._noise_snr_db)
            return InjectedResult(
                fault="noise_burst",
                powered_up=True,
                query_decoded=True,
                snr_db=self._noise_snr_db,
            )
        if "garble" in point:
            self._fire(index, action="garble")
            self.inner(query)  # the exchange still burns airtime
            result = InjectedResult(fault="garbled", powered_up=True, query_decoded=True)
            result.demod = _GarbledDemod(point["garble"]["data"])
            return result
        if "drop" in point:
            self._fire(index, action="drop")
            return InjectedResult(fault="drop", powered_up=True, query_decoded=False)
        return None
