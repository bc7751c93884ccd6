"""Composable, seeded fault injectors for ``transact`` callables.

Each injector wraps any ``transact(query) -> LinkResult``-shaped callable
(the waveform-level :class:`~repro.core.link.BackscatterLink`, a stub, or
another injector — they stack) and injects one paper-motivated
impairment:

* :class:`NoiseBurstInjector` — transient ambient-noise burst: SNR
  collapses and the CRC fails for a window of transactions (the bursty
  snapping-shrimp/facility noise of Sec. 6.1).
* :class:`BrownoutInjector` — the supercapacitor dips below the 2.5 V
  power-up threshold mid-exchange and the node goes dark for a recovery
  interval; :meth:`BrownoutInjector.from_energy_model` derives that
  interval from the Fig. 9 energy engine
  (:class:`~repro.node.energy.PowerUpSimulator`).
* :class:`GilbertElliottInjector` — the classic two-state good/bad
  burst-loss channel for intermittent dropouts.
* :class:`GarbledReplyInjector` — stuck/garbled replies: the reply
  arrives but its bits are trash, so the CRC rejects it.
* :class:`TransportExceptionInjector` — the transport itself raises
  (modem hiccup, serial timeout); the resilient MAC must contain it.

Determinism: every stochastic injector takes ``seed`` (or a ready
``rng``); identical seeds reproduce identical fault sequences, which is
what makes the chaos tests assertable.  A checkpoint carries a whole
chain's state, down to its innermost link (:mod:`repro.state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.state import Stateful


class TransportError(RuntimeError):
    """Raised by a failing transport (and by the exception injector)."""


class _GarbledDemod:
    """Demod-shaped object carrying a garbled packet with a failed CRC."""

    def __init__(self, packet) -> None:
        self.packet = packet
        self.success = False
        self.bits = np.array([], dtype=int)


@dataclass
class InjectedResult:
    """A LinkResult-shaped failure fabricated by an injector.

    Only the attributes the MAC/reader stack reads are provided;
    ``success`` is always ``False``.
    """

    fault: str
    powered_up: bool = True
    query_decoded: bool = False
    response = None
    demod: object = None
    ber: float = float("nan")
    snr_db: float = float("nan")
    #: Filled in by the injector when signal probes are enabled.
    postmortem: object = None

    @property
    def success(self) -> bool:
        return False


class FaultInjector(Stateful):
    """Base class: counts transactions, logs fired faults, passes through.

    Parameters
    ----------
    inner:
        The wrapped ``transact(query) -> result`` callable.
    node:
        Address used in event-log entries.
    log:
        Optional :class:`~repro.faults.events.EventLog`.
    seed, rng:
        Reproducibility controls; ``rng`` wins when both are given.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; each
        fired fault increments ``pab_faults_injected_total{injector=}``.
    """

    name = "fault"

    __state__ = ("transactions", "faults_fired", "rng", "inner")

    #: Pipeline stage this fault class knocks out (mirrored on the
    #: post-mortems via :data:`FAULT_FAILING_STAGES`).
    failing_stage = "unknown"

    def __init__(self, inner, *, node: int = -1, log=None, seed: int | None = None, rng=None, metrics=None) -> None:
        if not callable(inner):
            raise TypeError("inner transact must be callable")
        self.inner = inner
        self.node = int(node)
        self.log = log
        self.metrics = metrics
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.transactions = 0
        self.faults_fired = 0

    def __call__(self, query):
        index = self.transactions
        self.transactions += 1
        injected = self._intercept(query, index)
        if injected is not None:
            self.faults_fired += 1
            self._record_postmortem(injected)
            return injected
        return self.inner(query)

    def _intercept(self, query, index: int):
        """Return a fabricated result to inject a fault, or None to pass."""
        return None

    def _record_postmortem(self, result) -> None:
        """Autopsy a fabricated failure when signal probes are enabled.

        Injected results never ran the waveform pipeline, so the
        post-mortem classifies by fault class (the injector *knows* why
        the exchange failed) rather than by reading taps.
        """
        from repro.obs.probe import get_probes

        probes = get_probes()
        if not probes.enabled:
            return
        from repro.obs.postmortem import DecodePostmortem

        pm = DecodePostmortem.from_fault(
            getattr(result, "fault", self.name), node=self.node
        )
        if hasattr(result, "postmortem"):
            result.postmortem = pm
        probes.record_postmortem(pm)

    def _fire(self, index: int, **detail) -> None:
        if self.log is not None:
            self.log.record(index, self.node, "fault", injector=self.name, **detail)
        if self.metrics is not None:
            self.metrics.counter(
                "pab_faults_injected_total", injector=self.name
            ).inc()

    # -- checkpointing --------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """The declared state, tagged with the injector's name."""
        return {"injector": self.name, **super().snapshot_state()}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state` (validates the chain shape)."""
        if state.get("injector") != self.name:
            raise ValueError(
                f"snapshot was taken from injector {state.get('injector')!r}, "
                f"this transport is {self.name!r}"
            )
        super().restore_state(state)


class NoiseBurstInjector(FaultInjector):
    """SNR collapse for a window of transactions.

    Deterministic mode: the burst covers transactions
    ``[start, start + duration)``.  Stochastic mode (``start=None``): a
    burst begins with probability ``burst_prob`` per transaction and
    lasts ``duration`` transactions; draws come from the seeded RNG.

    During a burst the reply is received but undecodable: the result
    reports a collapsed ``snr_db`` and a failed CRC.
    """

    name = "noise_burst"
    failing_stage = "link.hydrophone_dsp"
    __state__ = FaultInjector.__state__ + ("_burst_until",)

    def __init__(
        self,
        inner,
        *,
        duration: int = 3,
        start: int | None = None,
        burst_prob: float = 0.0,
        collapsed_snr_db: float = -10.0,
        **kwargs,
    ) -> None:
        super().__init__(inner, **kwargs)
        if duration < 1:
            raise ValueError("duration must be >= 1")
        if start is None and not 0.0 <= burst_prob <= 1.0:
            raise ValueError("burst_prob must be a probability")
        self.duration = int(duration)
        self.start = None if start is None else int(start)
        self.burst_prob = float(burst_prob)
        self.collapsed_snr_db = float(collapsed_snr_db)
        self._burst_until = -1

    def _intercept(self, query, index: int):
        if self.start is not None:
            in_burst = self.start <= index < self.start + self.duration
        else:
            if index >= self._burst_until and self.rng.random() < self.burst_prob:
                self._burst_until = index + self.duration
            in_burst = index < self._burst_until
        if not in_burst:
            return None
        self._fire(index, snr_db=self.collapsed_snr_db)
        return InjectedResult(
            fault=self.name,
            powered_up=True,
            query_decoded=True,
            snr_db=self.collapsed_snr_db,
        )


class BrownoutInjector(FaultInjector):
    """Node goes dark for a recovery interval after a supply dip.

    The trigger is transaction ``at`` (deterministic) or probability
    ``prob`` per transaction (stochastic).  Once triggered, the node is
    unpowered (``powered_up=False`` results) for ``dark_for``
    transactions — the time the supercapacitor needs to recharge from
    the LDO dropout voltage back past the 2.5 V threshold.
    """

    name = "brownout"
    failing_stage = "link.node"
    __state__ = FaultInjector.__state__ + ("_dark_until",)

    def __init__(
        self,
        inner,
        *,
        dark_for: int = 5,
        at: int | None = None,
        prob: float = 0.0,
        **kwargs,
    ) -> None:
        super().__init__(inner, **kwargs)
        if dark_for < 1:
            raise ValueError("dark_for must be >= 1")
        if at is None and not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be a probability")
        self.dark_for = int(dark_for)
        self.at = None if at is None else int(at)
        self.prob = float(prob)
        self._dark_until = -1

    @classmethod
    def from_energy_model(
        cls,
        inner,
        simulator,
        incident_pressure_pa: float,
        frequency_hz: float,
        *,
        poll_period_s: float,
        **kwargs,
    ) -> "BrownoutInjector":
        """Size the dark interval from the Fig. 9 energy engine.

        The recovery time is how long :class:`~repro.node.energy.
        PowerUpSimulator` takes to recharge the supercapacitor from the
        LDO's minimum input back to the power-up threshold at this
        illumination; it is converted to whole polling periods.  An
        unreachable threshold (too little harvested power) maps to a
        very long dark interval rather than an error.
        """
        if poll_period_s <= 0:
            raise ValueError("poll_period_s must be positive")
        recovery_s = simulator.brownout_recovery_time(
            incident_pressure_pa, frequency_hz
        )
        if recovery_s is None or math.isinf(recovery_s):
            dark_for = 10_000
        else:
            dark_for = max(1, int(math.ceil(recovery_s / poll_period_s)))
        return cls(inner, dark_for=dark_for, **kwargs)

    def _intercept(self, query, index: int):
        dark = index < self._dark_until
        if not dark:
            if self.at is not None:
                trigger = index == self.at
            else:
                trigger = self.prob > 0.0 and self.rng.random() < self.prob
            if trigger:
                self._dark_until = index + self.dark_for
                dark = True
                self._fire(index, dark_for=self.dark_for)
        if not dark:
            return None
        return InjectedResult(fault=self.name, powered_up=False)


class GilbertElliottInjector(FaultInjector):
    """Two-state Markov (good/bad) burst-loss channel.

    In the good state replies are dropped with probability
    ``good_loss``; in the bad state with ``bad_loss``.  State
    transitions happen per transaction with ``p_good_to_bad`` and
    ``p_bad_to_good``.  A dropped reply looks like a node that never
    responded (no demod, powered but undecoded).
    """

    name = "gilbert_elliott"
    failing_stage = "link.uplink_propagation"
    __state__ = FaultInjector.__state__ + ("bad",)

    def __init__(
        self,
        inner,
        *,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.3,
        good_loss: float = 0.0,
        bad_loss: float = 0.9,
        start_bad: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(inner, **kwargs)
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        self.p_good_to_bad = float(p_good_to_bad)
        self.p_bad_to_good = float(p_bad_to_good)
        self.good_loss = float(good_loss)
        self.bad_loss = float(bad_loss)
        self.bad = bool(start_bad)

    def _intercept(self, query, index: int):
        # Advance the channel state, then draw the loss.
        if self.bad:
            if self.rng.random() < self.p_bad_to_good:
                self.bad = False
        else:
            if self.rng.random() < self.p_good_to_bad:
                self.bad = True
        loss_p = self.bad_loss if self.bad else self.good_loss
        if self.rng.random() >= loss_p:
            return None
        self._fire(index, state="bad" if self.bad else "good")
        return InjectedResult(fault=self.name, powered_up=True, query_decoded=False)


class GarbledReplyInjector(FaultInjector):
    """Stuck or garbled replies: bits arrive, the CRC rejects them.

    With probability ``prob`` (or deterministically at indices in
    ``at``), the inner transport still runs but its reply is replaced by
    a CRC-failed demod carrying garbage bytes — the reader must treat it
    exactly like any corrupted packet (retry), never parse it.
    """

    name = "garbled"
    failing_stage = "link.hydrophone_dsp"

    def __init__(self, inner, *, prob: float = 0.0, at=(), length: int = 6, **kwargs) -> None:
        super().__init__(inner, **kwargs)
        if not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be a probability")
        if length < 1:
            raise ValueError("length must be >= 1")
        self.prob = float(prob)
        self.at = frozenset(int(i) for i in at)
        self.length = int(length)

    def _intercept(self, query, index: int):
        garble = index in self.at or (self.prob > 0.0 and self.rng.random() < self.prob)
        if not garble:
            return None
        # Burn the airtime: the inner exchange still happens.
        self.inner(query)
        garbage = bytes(int(b) for b in self.rng.integers(0, 256, self.length))
        self._fire(index, bytes=garbage.hex())
        result = InjectedResult(fault=self.name, powered_up=True, query_decoded=True)
        result.demod = _GarbledDemod(garbage)
        return result


class TransportExceptionInjector(FaultInjector):
    """The transport raises instead of returning a result.

    Models reader-side failures (modem hiccup, serial timeout) that the
    paper's deployed stack must survive.  Raises :class:`TransportError`
    at indices in ``at`` or with probability ``prob``.
    """

    name = "transport_exception"
    failing_stage = "transport"

    def __init__(self, inner, *, prob: float = 0.0, at=(), **kwargs) -> None:
        super().__init__(inner, **kwargs)
        if not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be a probability")
        self.prob = float(prob)
        self.at = frozenset(int(i) for i in at)

    def _intercept(self, query, index: int):
        if index in self.at or (self.prob > 0.0 and self.rng.random() < self.prob):
            self._fire(index)
            # Raising means __call__ never sees a result to autopsy, so
            # the post-mortem is filed here (registry only — there is no
            # result object to attach it to).
            self._record_postmortem(InjectedResult(fault=self.name))
            raise TransportError(f"injected transport failure at transaction {index}")
        return None


#: Failing stage per fault class, consumed by
#: :meth:`repro.obs.postmortem.DecodePostmortem.from_fault` so chaos
#: drills and post-mortems agree on where each fault bites.
FAULT_FAILING_STAGES = {
    cls.name: cls.failing_stage
    for cls in (
        NoiseBurstInjector,
        BrownoutInjector,
        GilbertElliottInjector,
        GarbledReplyInjector,
        TransportExceptionInjector,
    )
}

# Engine-level faults booked by the resilience layer
# (:mod:`repro.resilience`): a worker crash or a watchdog-abandoned
# straggler never reaches the waveform pipeline, so both fail at the
# engine itself.
FAULT_FAILING_STAGES["worker_crash"] = "engine"
FAULT_FAILING_STAGES["watchdog_timeout"] = "engine"
