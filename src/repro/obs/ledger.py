"""Per-node energy ledger: joule accounting for battery-free operation.

The paper's headline claim is battery-free operation — nodes live or die
by the balance between harvested acoustic power and the 124 uW idle /
~500 uW backscatter budget (Sec. 6.4, Figs. 9/11) — yet spans, metrics,
and probes only watch the *communication* path.  The ledger closes the
energy side: it integrates harvested vs. consumed joules bucketed by
:class:`~repro.node.power.PowerState`, tracks supercapacitor
state-of-charge, clamp/leakage losses, duty-cycle fractions, and the
brownout margin (minimum voltage headroom above
``POWER_UP_THRESHOLD_V``), and checks conservation: ``harvested ==
stored + consumed + losses`` to within float precision, because the
:class:`~repro.circuits.storage.Supercapacitor` evaluates flows at each
step's midpoint voltage.

Two feeding modes:

* **Waveform/ODE mode** — :meth:`EnergyLedger.attach` registers the
  ledger as a capacitor's per-step ``observer``; every
  :meth:`~repro.circuits.storage.Supercapacitor.step` streams its flows
  in, bucketed under the ledger's current :class:`PowerState` (firmware
  transitions move the bucket via :meth:`EnergyLedger.set_state`).
* **Round mode** — :class:`NodeEnergyHarness` advances one node's
  supercapacitor through a polling round (DECODING + BACKSCATTER +
  IDLE segments, or COLD while browned out), driven by
  :meth:`~repro.net.reader.ReaderController.poll_round`.  Each segment
  is one :meth:`~repro.circuits.storage.Supercapacitor.charge_steps`
  call per stretch between power transitions; the observer still
  books every step, so the books are those of a per-step loop.

Disabled is free: nothing here runs unless a ledger is constructed and
attached — the hot-path cost of *not* using one is a single ``is None``
check at each hook site (capacitor step, firmware transition).

Checkpoints split a ledger in two.  Its declared state
(:mod:`repro.state`) is what the next step reads (books, capacitor,
SoC stride and phase).  The SoC series and ``round_history`` are
*history*: they only grow, so a checkpoint appends what is new since
the previous save (:meth:`EnergyLedger.history_since`) to the
campaign's history file and a restore replays it
(:meth:`EnergyLedger.replay_soc_samples`).
"""

from __future__ import annotations

import base64
import math

import numpy as np

from repro.constants import POWER_UP_THRESHOLD_V
from repro.node.power import NodePowerModel, PowerState
from repro.state import Stateful

#: Flow directions the ledger buckets joules under (with a PowerState).
DIRECTIONS = ("harvested", "consumed", "leaked", "clamped")

#: Seed of a flow slot whose bucket does not exist yet.  ``-0.0 + x`` is
#: ``x`` for every nonzero ``x``, and a sum of nonzero floats is never
#: ``-0.0``, so a slot still holding ``-0.0`` was never booked: its
#: bucket is created on the first nonzero flow, as with per-step dict
#: booking.
_UNBOOKED = -0.0


def _pack_floats(values: list) -> str:
    """Base64 of little-endian float64s: exact, NaN and ``-0.0`` included,
    and far cheaper to write and parse than JSON float reprs."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _unpack_floats(text: str) -> list:
    """Inverse of :func:`_pack_floats`."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").tolist()


class EnergyLedger(Stateful):
    """Joule books and SoC telemetry for one battery-free node.

    Parameters
    ----------
    node:
        Node address stamped on metrics and summaries.
    power_model:
        Used by :meth:`advance` to integrate state consumption when no
        capacitor streams flows; defaults to the paper-calibrated model.
    threshold_v:
        Power-up threshold the brownout margin is measured against.
    max_soc_samples:
        SoC series length cap; when exceeded, every other sample is
        dropped and the stride doubles (same bounded-memory contract as
        :class:`~repro.obs.probe.ProbeRegistry` decimation).
    """

    __state__ = (
        "t", "state", "_state_seconds", "_flows", "_baseline_energy_j",
        "_baseline_adjusted_j", "_soc_stride", "_soc_phase", "min_voltage_v",
        "min_powered_voltage_v", "brownouts", "last_voltage_v", "_pushed",
        "capacitor",
    )
    state: PowerState
    _state_seconds: dict[PowerState, float]
    _flows: dict[tuple[str, PowerState], float]
    _pushed: dict[tuple[str, tuple[tuple, ...]], float]

    def __init__(
        self,
        node: int = -1,
        *,
        power_model: NodePowerModel | None = None,
        threshold_v: float = POWER_UP_THRESHOLD_V,
        max_soc_samples: int = 4096,
    ) -> None:
        if max_soc_samples < 2:
            raise ValueError("max_soc_samples must be >= 2")
        self.node = int(node)
        self.power_model = power_model if power_model is not None else NodePowerModel()
        self.threshold_v = float(threshold_v)
        self.max_soc_samples = int(max_soc_samples)
        self.t = 0.0
        self.state = PowerState.COLD
        self._state_seconds: dict = {s: 0.0 for s in PowerState}
        self._flows: dict = {}
        self._load_books()
        self.capacitor = None
        self._baseline_energy_j = 0.0
        self._baseline_adjusted_j = 0.0
        self.soc_t: list = []
        self.soc_v: list = []
        self._soc_stride = 1
        self._soc_phase = 0
        self.min_voltage_v = math.inf
        #: Minimum observed voltage while out of COLD (inf until powered).
        self.min_powered_voltage_v = math.inf
        self.brownouts = 0
        self.last_voltage_v = float("nan")
        #: Per-polling-round snapshots appended by :class:`NodeEnergyHarness`
        #: (consumed by the campaign timeline).
        self.round_history: list = []
        #: Deltas already pushed into a metrics registry, keyed by
        #: ``(name, labels)`` — lets :meth:`to_metrics` be called
        #: repeatedly without double-counting counters.
        self._pushed: dict = {}

    # -- feeding ----------------------------------------------------------------------

    def attach(self, capacitor) -> "EnergyLedger":
        """Stream ``capacitor``'s per-step flows into this ledger.

        Returns ``self`` so construction chains:
        ``ledger = EnergyLedger(7).attach(cap)``.
        """
        self.capacitor = capacitor
        capacitor.observer = self._on_cap_step
        self._baseline_energy_j = capacitor.energy_j
        self._baseline_adjusted_j = capacitor.adjusted_j
        self._on_cap_step(0.0, capacitor.voltage_v, 0.0, 0.0, 0.0, 0.0)
        return self

    def _on_cap_step(self, dt_s, v, e_in, e_load, e_leak, e_clamp) -> None:
        """Capacitor observer: one integration step's flows and SoC sample.

        Runs once per ODE step, so the current bucket's books are plain
        attributes (see :meth:`_load_books`) rather than enum-keyed dict
        entries.  A zero-length step with no flows books nothing and
        only records the SoC sample.
        """
        self.t += dt_s
        self._seconds += dt_s
        if e_in:
            self._harvested += e_in
        if e_load:
            self._consumed += e_load
        if e_leak:
            self._leaked += e_leak
        if e_clamp:
            self._clamped += e_clamp
        self.last_voltage_v = v
        if v < self.min_voltage_v:
            self.min_voltage_v = v
        if v < self.min_powered_voltage_v and self.state is not PowerState.COLD:
            self.min_powered_voltage_v = v
        phase = self._soc_phase + 1
        if phase < self._soc_stride:
            self._soc_phase = phase
            return
        self._soc_phase = 0
        self.soc_t.append(self.t)
        self.soc_v.append(v)
        if len(self.soc_v) > self.max_soc_samples:
            self.soc_t = self.soc_t[::2]
            self.soc_v = self.soc_v[::2]
            self._soc_stride *= 2

    def _load_books(self) -> None:
        """Seed the current bucket's slots from the dicts.

        The slots continue the dict entries' running sums (same values,
        same addition order), so writing them back with
        :meth:`_store_books` leaves the books bit-identical to booking
        each step into the dicts.
        """
        state = self.state
        flows = self._flows
        self._books_state = state
        self._seconds = self._state_seconds[state]
        self._harvested = flows.get(("harvested", state), _UNBOOKED)
        self._consumed = flows.get(("consumed", state), _UNBOOKED)
        self._leaked = flows.get(("leaked", state), _UNBOOKED)
        self._clamped = flows.get(("clamped", state), _UNBOOKED)

    def _booked_slots(self) -> list:
        """``(direction, joules)`` of the current bucket's booked slots."""
        slots = (self._harvested, self._consumed, self._leaked, self._clamped)
        return [
            (direction, joules) for direction, joules in zip(DIRECTIONS, slots)
            if joules or math.copysign(1.0, joules) > 0.0  # not _UNBOOKED
        ]

    def _store_books(self) -> None:
        """Write the slots back; every read of the books calls this first."""
        state = self._books_state
        self._state_seconds[state] = self._seconds
        for direction, joules in self._booked_slots():
            self._flows[(direction, state)] = joules

    @property
    def state_seconds(self) -> dict:
        """``{PowerState: seconds}`` observed in each state (read-only:
        the current state's entry is overwritten from its slot)."""
        self._store_books()
        return self._state_seconds

    @property
    def flows(self) -> dict:
        """``{(direction, PowerState): joules}`` flow buckets (read-only,
        like :attr:`state_seconds`)."""
        self._store_books()
        return self._flows

    def set_state(self, state: PowerState) -> None:
        """Move the flow/duty bucket; counts powered -> COLD brownouts."""
        state = PowerState(state)
        if state is self.state:
            return
        if state is PowerState.COLD and self.state is not PowerState.COLD:
            self.brownouts += 1
        self._store_books()
        self.state = state
        self._load_books()

    def advance(
        self,
        state: PowerState,
        dt_s: float,
        *,
        bitrate: float = 0.0,
        harvested_w: float = 0.0,
    ) -> None:
        """Round-mode accounting without a capacitor.

        Integrates the power model's draw for ``state`` over ``dt_s``
        (plus an optional constant harvest) — for abstract campaign
        nodes that have no ODE-level storage model.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        self.set_state(state)
        self.t += dt_s
        self._seconds += dt_s
        consumed = self.power_model.power_w(self.state, bitrate=bitrate) * dt_s
        if consumed:
            self._consumed += consumed
        if harvested_w:
            self._harvested += harvested_w * dt_s
        if self.last_voltage_v == self.last_voltage_v:  # not NaN
            self._on_cap_step(0.0, self.last_voltage_v, 0.0, 0.0, 0.0, 0.0)

    def record_round(self, **info) -> dict:
        """Append one polling-round snapshot (timeline raw material)."""
        self.round_history.append(info)
        return info

    # -- books ------------------------------------------------------------------------

    def total(self, direction: str, state: PowerState | None = None) -> float:
        """Total joules for a direction (optionally one state's bucket)."""
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if state is not None:
            self._store_books()
            return self._flows.get((direction, PowerState(state)), 0.0)
        return self._direction_totals()[DIRECTIONS.index(direction)]

    def _direction_totals(self) -> tuple:
        """Joules per direction over every bucket, in ``DIRECTIONS`` order.

        One pass over the buckets, with the current bucket read from its
        slots instead of written back first.  ``fsum`` is exactly
        rounded, so each total is independent of bucket order (live
        insertion order vs the sorted order a checkpoint restore
        rebuilds the dict in).
        """
        current = self._books_state
        joules = {direction: [] for direction in DIRECTIONS}
        for (direction, state), value in self._flows.items():
            if state is not current:
                joules[direction].append(value)
        for direction, value in self._booked_slots():
            joules[direction].append(value)
        return tuple(map(math.fsum, joules.values()))

    @property
    def harvested_j(self) -> float:
        return self.total("harvested")

    @property
    def consumed_j(self) -> float:
        return self.total("consumed")

    @property
    def leaked_j(self) -> float:
        return self.total("leaked")

    @property
    def clamped_j(self) -> float:
        return self.total("clamped")

    @property
    def brownout_margin_v(self) -> float:
        """Minimum powered-voltage headroom above the threshold.

        Negative means the node dipped below the power-up threshold
        while nominally operating; ``nan`` when it never powered.
        """
        if math.isinf(self.min_powered_voltage_v):
            return float("nan")
        return self.min_powered_voltage_v - self.threshold_v

    def balance(self) -> dict:
        """Conservation check: harvested vs stored + consumed + losses.

        ``error_fraction`` normalises by total harvested (plus any
        by-fiat adjustment magnitude) so "< 1%" is meaningful for both
        strongly and weakly illuminated nodes.
        """
        if self.capacitor is not None:
            stored_delta = self.capacitor.energy_j - self._baseline_energy_j
            adjusted = self.capacitor.adjusted_j - self._baseline_adjusted_j
        else:
            stored_delta = 0.0
            adjusted = 0.0
        harvested, consumed, leaked, clamped = self._direction_totals()
        error = harvested + adjusted - stored_delta - consumed - leaked - clamped
        scale = max(harvested + abs(adjusted), 1e-12)
        return {
            "harvested_j": harvested,
            "consumed_j": consumed,
            "leaked_j": leaked,
            "clamped_j": clamped,
            "adjusted_j": adjusted,
            "stored_delta_j": stored_delta,
            "error_j": error,
            "error_fraction": error / scale,
        }

    def duty_cycle(self) -> dict:
        """``{state value: fraction of observed time}`` (empty if t==0)."""
        state_seconds = self.state_seconds
        total = math.fsum(state_seconds.values())
        if total <= 0:
            return {}
        return {
            state.value: seconds / total
            for state, seconds in state_seconds.items()
        }

    def summary(self) -> dict:
        """One node's energy report: balance + duty cycle + SoC stats."""
        out = {"node": self.node, "t_s": self.t}
        out.update(self.balance())
        out["duty_cycle"] = self.duty_cycle()
        out["soc_v"] = self.last_voltage_v
        out["min_voltage_v"] = (
            self.min_voltage_v if not math.isinf(self.min_voltage_v) else float("nan")
        )
        out["brownout_margin_v"] = self.brownout_margin_v
        out["brownouts"] = self.brownouts
        return out

    def soc_series(self) -> tuple:
        """``(times_s, volts)`` — the (decimated) SoC trajectory."""
        return list(self.soc_t), list(self.soc_v)

    # -- checkpointing ----------------------------------------------------------------

    def history_mark(self) -> tuple:
        """``(round records, SoC samples, SoC stride)``: where a later
        :meth:`history_since` picks up."""
        return len(self.round_history), len(self.soc_v), self._soc_stride

    def history_since(self, mark: tuple | None = None) -> tuple:
        """The history added after ``mark`` (``None``: all of it).

        Returns ``(round_records, soc_samples)``.  ``soc_samples`` is
        ``None`` when the SoC series is unchanged, else a dict: ``keep``,
        the factor the series was decimated by since ``mark``, and
        ``soc_t``/``soc_v``, the samples after the decimated old ones,
        packed as base64 little-endian float64.  Each decimation keeps
        every other sample, so the ``n`` samples at ``mark`` are now
        the first ``ceil(n / keep)``, and replaying is
        ``L = L[::keep] + tail`` (:meth:`replay_soc_samples`).
        """
        rounds, samples, stride = mark if mark is not None else (0, 0, 1)
        keep = self._soc_stride // stride
        start = -(-samples // keep)
        soc_samples = None
        if keep > 1 or start < len(self.soc_v):
            soc_samples = {
                "keep": keep,
                "soc_t": _pack_floats(self.soc_t[start:]),
                "soc_v": _pack_floats(self.soc_v[start:]),
            }
        return self.round_history[rounds:], soc_samples

    def replay_soc_samples(self, soc_samples: dict) -> None:
        """Apply one :meth:`history_since` SoC payload to the series."""
        keep = int(soc_samples["keep"])
        self.soc_t = self.soc_t[::keep] + _unpack_floats(soc_samples["soc_t"])
        self.soc_v = self.soc_v[::keep] + _unpack_floats(soc_samples["soc_v"])

    def snapshot_state(self) -> dict:
        """The declared state, the current bucket's slots written back.

        History (the SoC series and ``round_history``) is not state: see
        :meth:`history_since`.  ``inf``/``nan`` sentinels survive because
        Python's ``json`` writes and reads the ``Infinity``/``NaN``
        extension tokens.
        """
        self._store_books()
        return super().snapshot_state()

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state`, into the *already attached*
        capacitor.  The history starts empty: replay it afterwards
        (``round_history`` records, then :meth:`replay_soc_samples`)."""
        super().restore_state(state)
        self._load_books()
        self.soc_t, self.soc_v, self.round_history = [], [], []

    # -- export -----------------------------------------------------------------------

    def publish_probe(self, name: str = "soc") -> object:
        """Capture the SoC trajectory as a ``node.energy`` probe tap.

        Goes through the process-global
        :class:`~repro.obs.probe.ProbeRegistry` (no-op when disabled);
        returns the tap or ``None``.
        """
        from repro.obs.probe import get_probes

        probes = get_probes()
        if not probes.wants("node.energy"):
            return None
        times, volts = self.soc_series()
        rate = None
        if len(times) >= 2 and times[-1] > times[0]:
            rate = (len(times) - 1) / (times[-1] - times[0])
        return probes.capture(
            "node.energy",
            name,
            waveform=volts,
            sample_rate=rate,
            node=self.node,
            soc_v=self.last_voltage_v,
            min_voltage_v=self.min_voltage_v,
            brownout_margin_v=self.brownout_margin_v,
            brownouts=self.brownouts,
        )

    def _push_counter(self, registry, name: str, value: float, **labels) -> None:
        """Counter-set semantics: inc by the delta since the last push."""
        key = (name, tuple(sorted(labels.items())))
        delta = value - self._pushed.get(key, 0.0)
        if delta > 0:
            registry.counter(name, **labels).inc(delta)
            self._pushed[key] = value

    def to_metrics(self, registry) -> None:
        """Export gauges/counters into a metrics registry.

        * ``pab_node_soc_volts{node=}`` — current supercap voltage.
        * ``pab_node_energy_margin_volts{node=}`` — brownout margin.
        * ``pab_node_brownouts_total{node=}`` — powered -> COLD drops.
        * ``pab_node_energy_joules_total{node=,direction=,state=}`` —
          the flow buckets (idempotent across repeated calls).

        Counters merge across readers; gauges are point-in-time.
        """
        registry.gauge("pab_node_soc_volts", node=self.node).set(
            self.last_voltage_v if self.last_voltage_v == self.last_voltage_v else 0.0
        )
        margin = self.brownout_margin_v
        if margin == margin:  # not NaN
            registry.gauge(
                "pab_node_energy_margin_volts", node=self.node
            ).set(margin)
        self._push_counter(
            registry, "pab_node_brownouts_total", float(self.brownouts),
            node=self.node,
        )
        for (direction, state), joules in sorted(
            self.flows.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            self._push_counter(
                registry, "pab_node_energy_joules_total", joules,
                node=self.node, direction=direction, state=state.value,
            )


class NodeEnergyHarness(Stateful):
    """Round-based energy simulation of one fleet node.

    Bridges the reader's per-round virtual clock to the capacitor's ODE:
    each :meth:`on_poll_round` advances the node's supercapacitor
    through one polling period — DECODING and BACKSCATTER segments when
    the node was polled while powered, IDLE otherwise, COLD while
    browned out — and feeds the attached :class:`EnergyLedger`.

    Power-state hysteresis mirrors the hardware: the node powers up
    when the cap crosses ``threshold_v`` (2.5 V) and browns out when it
    dips below ``brownout_v`` (the LDO's minimum input).

    Parameters
    ----------
    ledger:
        The ledger to feed; created (with ``node``'s address) if omitted.
    capacitor:
        Storage element; defaults to the standard 1000 uF part started
        at ``initial_voltage_v``.
    v_oc_v, r_out_ohm:
        Thevenin charging source (a harvester's
        :meth:`~repro.circuits.harvester.EnergyHarvester.charging_source`
        output, or hand-picked numbers for abstract campaign nodes).
    poll_period_s, decode_s, backscatter_s:
        Round duration and the active-segment lengths within it.
    bitrate:
        Backscatter bitrate for the power model's switching term.
    dt_s:
        ODE sub-step.
    """

    __state__ = ("powered", "bitrate", "ledger")

    def __init__(
        self,
        node: int,
        *,
        ledger: EnergyLedger | None = None,
        capacitor=None,
        v_oc_v: float = 4.0,
        r_out_ohm: float = 4.0e3,
        power_model: NodePowerModel | None = None,
        poll_period_s: float = 1.0,
        decode_s: float = 0.1,
        backscatter_s: float = 0.2,
        bitrate: float = 1_000.0,
        threshold_v: float = POWER_UP_THRESHOLD_V,
        brownout_v: float = 2.1,
        initial_voltage_v: float = 3.0,
        dt_s: float = 0.02,
    ) -> None:
        if poll_period_s <= 0 or dt_s <= 0:
            raise ValueError("poll_period_s and dt_s must be positive")
        if decode_s < 0 or backscatter_s < 0:
            raise ValueError("decode_s and backscatter_s must be non-negative")
        if r_out_ohm <= 0:
            raise ValueError("r_out_ohm must be positive")
        if decode_s + backscatter_s > poll_period_s:
            raise ValueError("active segments cannot exceed the poll period")
        if brownout_v > threshold_v:
            raise ValueError("brownout_v must not exceed threshold_v")
        from repro.circuits.storage import Supercapacitor

        self.node = int(node)
        self.power_model = power_model if power_model is not None else NodePowerModel()
        self.ledger = (
            ledger if ledger is not None
            else EnergyLedger(
                node, power_model=self.power_model, threshold_v=threshold_v
            )
        )
        self.capacitor = (
            capacitor if capacitor is not None
            else Supercapacitor(initial_voltage_v=initial_voltage_v)
        )
        self.ledger.attach(self.capacitor)
        self.v_oc_v = float(v_oc_v)
        self.r_out_ohm = float(r_out_ohm)
        self.poll_period_s = float(poll_period_s)
        self.decode_s = float(decode_s)
        self.backscatter_s = float(backscatter_s)
        self.bitrate = float(bitrate)
        self.threshold_v = float(threshold_v)
        self.brownout_v = float(brownout_v)
        self.dt_s = float(dt_s)
        self.powered = self.capacitor.voltage_v >= self.threshold_v
        self.ledger.set_state(
            PowerState.IDLE if self.powered else PowerState.COLD
        )

    def _run_segment(self, state: PowerState, seconds: float) -> None:
        """Integrate one segment, one capacitor call per power stretch.

        Each :meth:`~repro.circuits.storage.Supercapacitor.charge_steps`
        call runs until the segment ends or the voltage crosses the
        current transition (below ``brownout_v`` while powered, at or
        above ``threshold_v`` while not); the transition then moves the
        ledger's bucket and the load exactly as a per-step check would.
        """
        if seconds <= 0:
            return
        ledger = self.ledger
        ledger.set_state(state)
        i_load = (
            self.power_model.current_a(state, bitrate=self.bitrate)
            if self.powered else 0.0
        )
        steps = max(int(round(seconds / self.dt_s)), 1)
        dt = seconds / steps
        cap = self.capacitor
        v_oc, r_out = self.v_oc_v, self.r_out_ohm
        brownout_v, threshold_v = self.brownout_v, self.threshold_v
        while steps:
            if self.powered:
                steps -= cap.charge_steps(
                    steps, dt, v_oc, r_out, i_load, stop_below_v=brownout_v
                )
                if cap.voltage_v < brownout_v:
                    self.powered = False
                    ledger.set_state(PowerState.COLD)
                    i_load = 0.0
            else:
                steps -= cap.charge_steps(
                    steps, dt, v_oc, r_out, i_load, stop_at_or_above_v=threshold_v
                )
                if cap.voltage_v >= threshold_v:
                    self.powered = True
                    if ledger.state is PowerState.COLD:
                        ledger.set_state(PowerState.IDLE)
                    i_load = self.power_model.current_a(
                        state, bitrate=self.bitrate
                    ) if ledger.state is state else 0.0

    def on_poll_round(
        self, t: float, *, polled: bool, success: bool, bitrate: float | None = None
    ) -> dict:
        """Advance one polling period; returns the round's energy info.

        The returned dict feeds the SLO tracker's energy-sustainability
        objective: ``sustainable`` is whether the round's harvest
        covered its consumption (losses included) without browning out.
        """
        if bitrate is not None and bitrate > 0:
            self.bitrate = float(bitrate)
        totals = self.ledger._direction_totals
        h0, c0, l0, k0 = totals()
        was_powered = self.powered
        idle_s = self.poll_period_s
        if polled and self.powered:
            self._run_segment(PowerState.DECODING, self.decode_s)
            self._run_segment(PowerState.BACKSCATTER, self.backscatter_s)
            idle_s -= self.decode_s + self.backscatter_s
        self._run_segment(
            PowerState.IDLE if self.powered else PowerState.COLD, idle_s
        )
        h1, c1, l1, k1 = totals()
        harvested = h1 - h0
        consumed = c1 + l1 + k1 - c0 - l0 - k0
        info = {
            "t": float(t),
            "node": self.node,
            "polled": bool(polled),
            "success": bool(success),
            "powered": self.powered,
            "soc_v": self.capacitor.voltage_v,
            "harvested_j": harvested,
            "consumed_j": consumed,
            "sustainable": harvested >= consumed and (
                self.powered or not was_powered
            ),
        }
        self.ledger.record_round(**info)
        return info

    def summary(self) -> dict:
        """The attached ledger's summary."""
        return self.ledger.summary()

    def to_metrics(self, registry) -> None:
        """Delegate to the attached ledger."""
        self.ledger.to_metrics(registry)
