"""Long-horizon monitoring sessions: energy and communication coupled.

The paper's vision is long-term ocean monitoring (Sec. 1): a projector
periodically polls battery-free sensors for readings.  Over such a
session the node's supercapacitor is a dynamic reservoir — it drains
while the node decodes and backscatters, and recharges while the
carrier illuminates it between polls.  Whether a polling schedule is
*sustainable* depends on that balance, not just on the instantaneous
power-up check.

:class:`MonitoringSession` simulates this timeline in the envelope
domain (the same engine as the Fig. 9 experiments), using the waveform
engine's airtime model for each exchange:

* cold start from an empty capacitor,
* per-poll: decode energy + backscatter energy drawn from the cap,
* between polls: recharge from the carrier (or none, if the projector
  duty-cycles off),
* brownout and recovery when a poll overdraws the reservoir.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.harvester import EnergyHarvester
from repro.circuits.regulator import LowDropoutRegulator
from repro.circuits.storage import Supercapacitor
from repro.constants import POWER_UP_THRESHOLD_V
from repro.dsp.packets import PacketFormat
from repro.dsp.pwm import PWMCode
from repro.node.power import NodePowerModel, PowerState


@dataclass(frozen=True)
class PollOutcome:
    """One poll in the session timeline.

    Attributes
    ----------
    time_s:
        Session time at the start of the poll.
    delivered:
        Whether the node completed the reply without browning out.
    cap_voltage_before_v, cap_voltage_after_v:
        Supercapacitor state around the poll.
    """

    time_s: float
    delivered: bool
    cap_voltage_before_v: float
    cap_voltage_after_v: float


@dataclass
class SessionReport:
    """Outcome of a monitoring session.

    Attributes
    ----------
    polls:
        Per-poll outcomes.
    cold_start_s:
        Time to first power-up (inf if never).
    brownouts:
        Number of polls that collapsed the rail.
    energy_trace:
        (time_s, cap_voltage_v) samples.
    """

    polls: list = field(default_factory=list)
    cold_start_s: float = float("inf")
    brownouts: int = 0
    energy_trace: list = field(default_factory=list)

    @property
    def delivery_ratio(self) -> float:
        if not self.polls:
            return 0.0
        return sum(p.delivered for p in self.polls) / len(self.polls)

    @property
    def readings_delivered(self) -> int:
        return sum(p.delivered for p in self.polls)


class MonitoringSession:
    """Simulate a periodic polling schedule against the energy budget.

    Parameters
    ----------
    harvester:
        The node's harvesting chain.
    incident_pressure_pa:
        Carrier pressure at the node while the projector is on.
    poll_interval_s:
        Time between poll starts.
    bitrate:
        Uplink bitrate [bit/s].
    payload_bytes:
        Sensor payload per reply.
    carrier_duty:
        Fraction of the inter-poll gap the projector keeps the carrier
        on for recharging (1.0 = always on; 0 = off between polls).
    """

    #: Envelope-domain integration step [s].
    DT_S = 2e-3

    def __init__(
        self,
        harvester: EnergyHarvester,
        incident_pressure_pa: float,
        *,
        poll_interval_s: float = 10.0,
        bitrate: float = 1_000.0,
        payload_bytes: int = 4,
        carrier_duty: float = 1.0,
        capacitor: Supercapacitor | None = None,
        power_model: NodePowerModel | None = None,
    ) -> None:
        if incident_pressure_pa < 0:
            raise ValueError("pressure must be non-negative")
        if poll_interval_s <= 0:
            raise ValueError("poll interval must be positive")
        if not 0.0 <= carrier_duty <= 1.0:
            raise ValueError("carrier duty must be in [0, 1]")
        if bitrate <= 0 or payload_bytes < 0:
            raise ValueError("bitrate/payload invalid")
        self.harvester = harvester
        self.pressure = incident_pressure_pa
        self.poll_interval_s = poll_interval_s
        self.bitrate = bitrate
        self.payload_bytes = payload_bytes
        self.carrier_duty = carrier_duty
        self.capacitor = capacitor if capacitor is not None else Supercapacitor()
        self.power_model = power_model if power_model is not None else NodePowerModel()
        self.regulator = LowDropoutRegulator()
        self._frequency = harvester.design_frequency_hz

    # -- airtime model --------------------------------------------------------------

    def poll_durations(self) -> tuple[float, float]:
        """(decode_s, backscatter_s) airtime of one poll."""
        code = PWMCode()
        query_bits = 9 + 16 + 16 + 16
        mean_symbol = (code.symbol_duration(0) + code.symbol_duration(1)) / 2.0
        decode_s = query_bits * mean_symbol
        reply_bits = PacketFormat().overhead_bits() + 8 * self.payload_bytes
        backscatter_s = reply_bits / self.bitrate
        return decode_s, backscatter_s

    # -- the session -----------------------------------------------------------------

    def run(self, duration_s: float) -> SessionReport:
        """Simulate ``duration_s`` of the schedule."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        report = SessionReport()
        v_oc, r_out = self.harvester.charging_source(self.pressure, self._frequency)
        decode_s, backscatter_s = self.poll_durations()
        dt = self.DT_S
        time_s = 0.0
        powered = False
        next_poll = 0.0
        trace_stride = max(int(0.25 / dt), 1)
        step = 0

        while time_s < duration_s:
            if not powered:
                # Cold start: everything to the cap.
                self.capacitor.charge_from_source(dt, v_oc, r_out)
                if self.capacitor.voltage_v >= POWER_UP_THRESHOLD_V:
                    powered = True
                    if report.cold_start_s == float("inf"):
                        report.cold_start_s = time_s
            elif time_s >= next_poll:
                outcome = self._run_poll(
                    time_s, v_oc, r_out, decode_s, backscatter_s
                )
                report.polls.append(outcome)
                if not outcome.delivered:
                    report.brownouts += 1
                    powered = self.capacitor.voltage_v >= POWER_UP_THRESHOLD_V
                time_s += decode_s + backscatter_s
                next_poll = time_s + self.poll_interval_s
                continue
            else:
                # Idle between polls: harvest (per duty) against idle draw.
                i_idle = self.power_model.current_a(PowerState.IDLE)
                if self.carrier_duty >= 1.0 or (
                    (time_s - next_poll + self.poll_interval_s)
                    % self.poll_interval_s
                    < self.carrier_duty * self.poll_interval_s
                ):
                    self.capacitor.charge_from_source(
                        dt, v_oc, r_out, i_load_a=i_idle
                    )
                else:
                    self.capacitor.step(dt, i_load_a=i_idle)
                if self.capacitor.voltage_v < self.regulator.minimum_input_v:
                    powered = False
            if step % trace_stride == 0:
                report.energy_trace.append((time_s, self.capacitor.voltage_v))
            step += 1
            time_s += dt
        return report

    def _run_poll(
        self, time_s, v_oc, r_out, decode_s, backscatter_s
    ) -> PollOutcome:
        v_before = self.capacitor.voltage_v
        dt = self.DT_S
        v_min = self.regulator.minimum_input_v
        ok = True
        for phase, duration in (
            (PowerState.DECODING, decode_s),
            (PowerState.SENSING, 0.02),
            (PowerState.BACKSCATTER, backscatter_s),
        ):
            i_load = self.power_model.current_a(phase, bitrate=self.bitrate)
            self.capacitor.charge_steps(
                max(int(duration / dt), 1), dt, v_oc, r_out, i_load,
                stop_below_v=v_min,
            )
            if self.capacitor.voltage_v < v_min:
                ok = False
                break
        return PollOutcome(
            time_s=time_s,
            delivered=ok,
            cap_voltage_before_v=v_before,
            cap_voltage_after_v=self.capacitor.voltage_v,
        )
