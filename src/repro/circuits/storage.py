"""Supercapacitor energy storage (paper Fig. 5d: 1000 uF).

The rectified DC charge is stored in a supercapacitor that powers the LDO
and MCU.  The model is the standard first-order ODE

    C * dV/dt = I_in - I_load - V / R_leak

integrated explicitly at the energy engine's time step.  Charging from
the rectifier's Thevenin source is written once, in
:meth:`Supercapacitor.charge_steps`: it runs many steps in one call,
checks its arguments once, keeps the state in locals, and stops after
the first step that crosses a caller's voltage bound (a power
transition).  The result is bit-equal to one step per call, and
:meth:`Supercapacitor.charge_from_source` is its one-step case.
:meth:`Supercapacitor.step` is the constant-current step.

Every step also keeps joule-level books: input, load, leakage, and the
energy discarded when charging clamps at ``max_voltage_v`` (previously a
silent loss).  Flows are evaluated at the step's midpoint voltage, which
makes the discrete accounting exact — ``harvested == stored + consumed
+ leaked + clamped`` holds to float precision, the invariant the
:class:`~repro.obs.ledger.EnergyLedger` conservation check relies on.
An optional ``observer`` callable receives each step's flows, in a
multi-step call too, which is how a ledger taps the capacitor without
the capacitor knowing about the observability layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.constants import SUPERCAP_FARADS
from repro.state import Stateful


@dataclass
class Supercapacitor(Stateful):
    """A leaky storage capacitor with charge/discharge bookkeeping.

    Parameters
    ----------
    capacitance_f:
        Capacitance [F].
    leakage_resistance_ohm:
        Self-discharge leakage path [ohm].
    max_voltage_v:
        Rated voltage; charging clamps here.
    initial_voltage_v:
        Starting voltage [V].
    """

    __state__ = (
        "voltage_v", "harvested_j", "consumed_j", "leaked_j", "clamped_j",
        "adjusted_j",
    )

    capacitance_f: float = SUPERCAP_FARADS
    leakage_resistance_ohm: float = 2e6
    max_voltage_v: float = 5.5
    initial_voltage_v: float = 0.0
    voltage_v: float = field(init=False)
    #: Cumulative joule books (see :meth:`energy_balance`).
    harvested_j: float = field(init=False, default=0.0)
    consumed_j: float = field(init=False, default=0.0)
    leaked_j: float = field(init=False, default=0.0)
    clamped_j: float = field(init=False, default=0.0)
    #: Energy added/removed by fiat via :meth:`reset` (can be negative).
    adjusted_j: float = field(init=False, default=0.0)
    #: Optional per-step flow hook: called as
    #: ``observer(dt_s, voltage_v, e_in_j, e_load_j, e_leak_j, e_clamp_j)``
    #: after every step, with the capacitor's attributes already at that
    #: step's result.  ``None`` (the default) costs one ``is None``
    #: check — the disabled-ledger hot path.
    observer: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0:
            raise ValueError("capacitance must be positive")
        if self.leakage_resistance_ohm <= 0:
            raise ValueError("leakage resistance must be positive")
        if self.max_voltage_v <= 0:
            raise ValueError("max voltage must be positive")
        if not 0.0 <= self.initial_voltage_v <= self.max_voltage_v:
            raise ValueError("initial voltage out of range")
        self.voltage_v = self.initial_voltage_v

    @property
    def energy_j(self) -> float:
        """Stored energy, C*V^2/2 [J]."""
        return 0.5 * self.capacitance_f * self.voltage_v**2

    def reset(self, voltage_v: float = 0.0) -> None:
        """Return to a known voltage.

        The instantaneous energy jump is booked under ``adjusted_j`` so
        the conservation check still balances across resets (a cold
        start zeroes the cap; a brownout drill restarts it at the LDO
        dropout voltage — neither is a physical flow).
        """
        if not 0.0 <= voltage_v <= self.max_voltage_v:
            raise ValueError("voltage out of range")
        before = self.energy_j
        self.voltage_v = voltage_v
        self.adjusted_j += self.energy_j - before

    def energy_balance(self) -> dict:
        """The joule books plus their conservation error.

        ``error_j`` is ``harvested + adjusted - (stored - initial) -
        consumed - leaked - clamped``; with midpoint-voltage flow
        accounting it stays at float-precision zero.
        """
        stored_delta = self.energy_j - 0.5 * self.capacitance_f * self.initial_voltage_v**2
        error = (
            self.harvested_j + self.adjusted_j
            - stored_delta - self.consumed_j - self.leaked_j - self.clamped_j
        )
        return {
            "harvested_j": self.harvested_j,
            "consumed_j": self.consumed_j,
            "leaked_j": self.leaked_j,
            "clamped_j": self.clamped_j,
            "adjusted_j": self.adjusted_j,
            "stored_delta_j": stored_delta,
            "error_j": error,
        }

    def step(self, dt_s: float, i_in_a: float = 0.0, i_load_a: float = 0.0) -> float:
        """Advance the ODE by ``dt_s`` and return the new voltage [V].

        ``i_in_a`` is the charging current from the rectifier; ``i_load_a``
        the draw of the regulator/MCU chain.  The voltage never goes
        negative and never exceeds the rating; the clamp's discarded
        energy is booked in ``clamped_j`` instead of vanishing.
        """
        if dt_s <= 0:
            raise ValueError("time step must be positive")
        if i_in_a < 0 or i_load_a < 0:
            raise ValueError("currents must be non-negative")
        v0 = self.voltage_v
        i_leak = v0 / self.leakage_resistance_ohm
        dv = (i_in_a - i_load_a - i_leak) * dt_s / self.capacitance_f
        v1 = min(max(v0 + dv, 0.0), self.max_voltage_v)
        self.voltage_v = v1
        # Midpoint-voltage flows: exact for the unclamped explicit-Euler
        # step, so any residual is the clamp's doing.
        v_mid = 0.5 * (v0 + v1)
        e_in = i_in_a * v_mid * dt_s
        e_load = i_load_a * v_mid * dt_s
        e_leak = i_leak * v_mid * dt_s
        e_stored = 0.5 * self.capacitance_f * (v1 * v1 - v0 * v0)
        residual = e_in - e_load - e_leak - e_stored
        e_clamp = 0.0
        if residual > 0.0:
            # Overcharge clamp at max_voltage_v discarded this much.
            e_clamp = residual
        elif residual < 0.0:
            # Floor clamp at 0 V: the load demanded more than the cap
            # held — only the available energy was actually consumed.
            e_load += residual
        self.harvested_j += e_in
        self.consumed_j += e_load
        self.leaked_j += e_leak
        self.clamped_j += e_clamp
        if self.observer is not None:
            self.observer(dt_s, v1, e_in, e_load, e_leak, e_clamp)
        return v1

    def charge_from_source(
        self,
        dt_s: float,
        source_voltage_v: float,
        source_resistance_ohm: float,
        i_load_a: float = 0.0,
    ) -> float:
        """Advance one step charging from a Thevenin source (the rectifier).

        Current in = max(0, (V_src - V_cap) / R_src): the rectifier diodes
        block reverse flow when the capacitor sits above the rectifier's
        open-circuit voltage.  One step of :meth:`charge_steps`; returns
        the new voltage [V].
        """
        self.charge_steps(1, dt_s, source_voltage_v, source_resistance_ohm, i_load_a)
        return self.voltage_v

    def charge_steps(
        self,
        steps: int,
        dt_s: float,
        source_voltage_v: float,
        source_resistance_ohm: float,
        i_load_a: float = 0.0,
        *,
        stop_below_v: float = -math.inf,
        stop_at_or_above_v: float = math.inf,
    ) -> int:
        """Run up to ``steps`` Thevenin-source steps; return how many ran.

        Each step draws ``max(0, (V_src - V_cap) / R_src)`` from the
        source and is then :meth:`step` at that current, with the same
        float operations in the same order: ``n`` steps here leave the
        voltage and the joule books bit-equal to ``n`` :meth:`step`
        calls.  The arguments are checked once, the loop keeps its
        state in locals, and the ``observer`` is still called after
        every step.  The run stops after the first step whose voltage
        is below ``stop_below_v`` or at/above ``stop_at_or_above_v``
        (the caller's power transition).
        """
        if source_resistance_ohm <= 0:
            raise ValueError("source resistance must be positive")
        if dt_s <= 0:
            raise ValueError("time step must be positive")
        if i_load_a < 0:
            raise ValueError("currents must be non-negative")
        r_leak = self.leakage_resistance_ohm
        c = self.capacitance_f
        half_c = 0.5 * c
        v_max = self.max_voltage_v
        observer = self.observer
        v0 = self.voltage_v
        v0_sq = v0 * v0
        harvested, consumed = self.harvested_j, self.consumed_j
        leaked, clamped = self.leaked_j, self.clamped_j
        n = 0
        for n in range(1, steps + 1):
            # step's float operations in step's order; the comparisons
            # spell out max(0.0, i_in) and min(max(v1, 0.0), v_max), and
            # v0_sq is the previous step's v1 * v1, the product step redoes.
            i_in = (source_voltage_v - v0) / source_resistance_ohm
            if not i_in > 0.0:
                i_in = 0.0
            i_leak = v0 / r_leak
            v1 = v0 + (i_in - i_load_a - i_leak) * dt_s / c
            if v1 < 0.0:
                v1 = 0.0
            if v1 > v_max:
                v1 = v_max
            v_mid = 0.5 * (v0 + v1)
            e_in = i_in * v_mid * dt_s
            e_load = i_load_a * v_mid * dt_s
            e_leak = i_leak * v_mid * dt_s
            v1_sq = v1 * v1
            e_stored = half_c * (v1_sq - v0_sq)
            residual = e_in - e_load - e_leak - e_stored
            e_clamp = 0.0
            if residual > 0.0:
                e_clamp = residual
            elif residual < 0.0:
                e_load += residual
            harvested += e_in
            consumed += e_load
            leaked += e_leak
            clamped += e_clamp
            v0, v0_sq = v1, v1_sq
            if observer is not None:
                # The observer sees the capacitor as step leaves it.
                self.voltage_v = v1
                self.harvested_j, self.consumed_j = harvested, consumed
                self.leaked_j, self.clamped_j = leaked, clamped
                observer(dt_s, v1, e_in, e_load, e_leak, e_clamp)
            if v1 < stop_below_v or v1 >= stop_at_or_above_v:
                break
        self.voltage_v = v0
        self.harvested_j, self.consumed_j = harvested, consumed
        self.leaked_j, self.clamped_j = leaked, clamped
        return n

    def time_to_reach(
        self,
        target_v: float,
        source_voltage_v: float,
        source_resistance_ohm: float,
        *,
        dt_s: float = 1e-3,
        timeout_s: float = 600.0,
        record: list | None = None,
    ) -> float | None:
        """Simulated time to charge to ``target_v``, or ``None`` if unreachable.

        Leaves the capacitor at its final state.  When ``record`` is a
        list, the per-step voltage trajectory is appended to it (the
        energy engine publishes this as a supercap-SoC probe tap).
        """
        if target_v <= self.voltage_v:
            return 0.0
        t = 0.0
        while t < timeout_s:
            prev = self.voltage_v
            self.charge_from_source(dt_s, source_voltage_v, source_resistance_ohm)
            t += dt_s
            if record is not None:
                record.append(self.voltage_v)
            if self.voltage_v >= target_v:
                return t
            if self.voltage_v <= prev + 1e-15:
                return None  # reached equilibrium below target
        return None
