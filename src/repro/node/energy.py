"""Cold-start and power-up simulation (the Fig. 9 energy engine).

A battery-free node wakes in the COLD state with an empty supercapacitor.
The pull-down transistor is open, so all rectified energy charges the cap
(Sec. 4.2.1).  Once the cap crosses the power-up threshold (2.5 V in
Fig. 3 — enough headroom for the LDO), the regulator starts, the MCU
boots, and the node can hold IDLE as long as harvested power covers the
load.

:class:`PowerUpSimulator` runs this envelope-domain ODE for a given
incident pressure and reports whether/when the node powers up and whether
operation is sustainable — the primitive behind the paper's
maximum-power-up-distance experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.harvester import EnergyHarvester
from repro.circuits.regulator import LowDropoutRegulator
from repro.circuits.storage import Supercapacitor
from repro.constants import POWER_UP_THRESHOLD_V
from repro.node.power import NodePowerModel, PowerState


@dataclass(frozen=True)
class PowerUpResult:
    """Outcome of a cold-start simulation.

    Attributes
    ----------
    powered_up:
        Whether the threshold was reached.
    time_to_power_up_s:
        Charging time [s] (``inf`` if never reached).
    equilibrium_voltage_v:
        Asymptotic capacitor voltage with no load.
    sustainable_idle:
        Whether harvested power can hold the node in IDLE indefinitely.
    """

    powered_up: bool
    time_to_power_up_s: float
    equilibrium_voltage_v: float
    sustainable_idle: bool


class PowerUpSimulator:
    """Envelope-domain energy simulation of one node.

    Parameters
    ----------
    harvester:
        The node's harvesting chain (transducer + match + rectifier).
    capacitor:
        Storage element; a fresh default 1000 uF part if omitted.
    regulator, power_model:
        Load-side models.
    threshold_v:
        Power-up threshold (paper: 2.5 V).
    ledger:
        Optional :class:`~repro.obs.ledger.EnergyLedger`; attached to
        the capacitor so every charging step streams its joule flows
        into the books, and power-up/brownout drills move its
        :class:`PowerState` bucket.
    """

    def __init__(
        self,
        harvester: EnergyHarvester,
        *,
        capacitor: Supercapacitor | None = None,
        regulator: LowDropoutRegulator | None = None,
        power_model: NodePowerModel | None = None,
        threshold_v: float = POWER_UP_THRESHOLD_V,
        ledger=None,
    ) -> None:
        if threshold_v <= 0:
            raise ValueError("threshold must be positive")
        self.harvester = harvester
        self.capacitor = capacitor if capacitor is not None else Supercapacitor()
        self.regulator = regulator if regulator is not None else LowDropoutRegulator()
        self.power_model = power_model if power_model is not None else NodePowerModel()
        self.threshold_v = threshold_v
        self.ledger = ledger
        if ledger is not None:
            ledger.attach(self.capacitor)

    def _ledger_state(self, state: PowerState) -> None:
        if self.ledger is not None:
            self.ledger.set_state(state)

    def can_power_up(self, incident_pressure_pa: float, frequency_hz: float) -> bool:
        """Whether cold-start charging can ever cross the threshold.

        With the pull-down open the only losses are capacitor leakage, so
        the equilibrium voltage is (almost) the rectifier's open-circuit
        voltage; the node powers up iff that clears the threshold.
        """
        v_oc, r_out = self.harvester.charging_source(
            incident_pressure_pa, frequency_hz
        )
        leak = self.capacitor.leakage_resistance_ohm
        v_eq = v_oc * leak / (leak + r_out)
        return v_eq >= self.threshold_v

    def cold_start(
        self,
        incident_pressure_pa: float,
        frequency_hz: float,
        *,
        dt_s: float = 2e-3,
        timeout_s: float = 120.0,
        start_voltage_v: float = 0.0,
    ) -> PowerUpResult:
        """Simulate charging from ``start_voltage_v``; report the outcome.

        The default is the true cold start (empty cap); a non-zero
        ``start_voltage_v`` models a warm restart — e.g. a node that
        browned out with residual charge.  When the process-global
        :class:`~repro.obs.probe.ProbeRegistry` wants the
        ``node.energy`` stage, the charging trajectory is captured as a
        supercap-SoC waveform tap.
        """
        from repro.obs.probe import get_probes

        v_oc, r_out = self.harvester.charging_source(
            incident_pressure_pa, frequency_hz
        )
        leak = self.capacitor.leakage_resistance_ohm
        v_eq = v_oc * leak / (leak + r_out)
        self.capacitor.reset(voltage_v=start_voltage_v)
        self._ledger_state(PowerState.COLD)
        probes = get_probes()
        record = [start_voltage_v] if probes.wants("node.energy") else None
        t = self.capacitor.time_to_reach(
            self.threshold_v, v_oc, r_out, dt_s=dt_s, timeout_s=timeout_s,
            record=record,
        )
        powered = t is not None
        if powered:
            self._ledger_state(PowerState.IDLE)
        if record is not None:
            probes.capture(
                "node.energy",
                "cold_start",
                waveform=record,
                sample_rate=1.0 / dt_s,
                threshold_v=self.threshold_v,
                start_voltage_v=start_voltage_v,
                powered_up=powered,
                pressure_pa=incident_pressure_pa,
            )
        return PowerUpResult(
            powered_up=powered,
            time_to_power_up_s=t if powered else float("inf"),
            equilibrium_voltage_v=v_eq,
            sustainable_idle=self.sustainable(
                incident_pressure_pa, frequency_hz, PowerState.IDLE
            ),
        )

    def sustainable(
        self,
        incident_pressure_pa: float,
        frequency_hz: float,
        state: PowerState,
        *,
        bitrate: float = 0.0,
    ) -> bool:
        """Whether harvested DC power covers a state's consumption."""
        op = self.harvester.operating_point(incident_pressure_pa, frequency_hz)
        supply_v = max(self.threshold_v, self.regulator.minimum_input_v)
        draw = self.power_model.power_w(state, bitrate=bitrate, supply_v=supply_v)
        return op.dc_power_w >= draw

    def brownout_recovery_time(
        self,
        incident_pressure_pa: float,
        frequency_hz: float,
        *,
        from_v: float | None = None,
        dt_s: float = 2e-3,
        timeout_s: float = 120.0,
    ) -> float | None:
        """Recharge time after a brownout, or ``None`` if unrecoverable.

        When the load momentarily exceeds harvest the capacitor dips
        below the LDO's minimum input and the node goes dark; with the
        pull-down open again all rectified energy recharges the cap.
        This is the time from ``from_v`` (default: the LDO dropout
        voltage, where the brownout tripped) back up to the power-up
        threshold — the recovery interval a fault injector
        (:meth:`repro.faults.injectors.BrownoutInjector.from_energy_model`)
        should keep the node dark for.
        """
        start_v = (
            from_v if from_v is not None else self.regulator.minimum_input_v
        )
        if start_v < 0:
            raise ValueError("from_v must be non-negative")
        if start_v >= self.threshold_v:
            return 0.0
        v_oc, r_out = self.harvester.charging_source(
            incident_pressure_pa, frequency_hz
        )
        self.capacitor.reset(voltage_v=start_v)
        self._ledger_state(PowerState.COLD)
        t = self.capacitor.time_to_reach(
            self.threshold_v, v_oc, r_out, dt_s=dt_s, timeout_s=timeout_s
        )
        if t is not None:
            self._ledger_state(PowerState.IDLE)
        return t

    def run_duty_cycle(
        self,
        incident_pressure_pa: float,
        frequency_hz: float,
        *,
        backscatter_s: float,
        bitrate: float,
        dt_s: float = 2e-3,
    ) -> bool:
        """Charge from empty, then attempt one backscatter burst.

        Returns ``True`` if the capacitor stays above the LDO's minimum
        input for the whole burst — i.e. the node completed its reply
        without browning out.
        """
        result = self.cold_start(incident_pressure_pa, frequency_hz, dt_s=dt_s)
        if not result.powered_up:
            return False
        v_oc, r_out = self.harvester.charging_source(
            incident_pressure_pa, frequency_hz
        )
        i_load = self.power_model.current_a(
            PowerState.BACKSCATTER, bitrate=bitrate
        )
        self._ledger_state(PowerState.BACKSCATTER)
        v_min = self.regulator.minimum_input_v
        self.capacitor.charge_steps(
            max(int(backscatter_s / dt_s), 1), dt_s, v_oc, r_out, i_load,
            stop_below_v=v_min,
        )
        if self.capacitor.voltage_v < v_min:
            self._ledger_state(PowerState.COLD)
            return False
        self._ledger_state(PowerState.IDLE)
        return True
