"""Battery-assisted backscatter node (the paper's stated future work).

Sec. 1: "In principle, one could achieve higher throughputs and ranges by
adapting battery-assisted backscatter implementations from RF designs,
which would enable deep-sea deployments and exploration, while still
inheriting PAB's benefits of ultra-low power backscatter communication."

The battery-assisted variant differs from the battery-free node in two
ways, mirroring RF battery-assisted-passive (BAP) tags:

1. **No power-up constraint** — the battery keeps the MCU and decoder
   alive regardless of the incident field, so the node responds wherever
   the *communication* link closes, not where the *harvesting* link does.
2. **Reflection amplification** — an active reflection stage (the acoustic
   analogue of a tunnel-diode/negative-resistance reflection amplifier)
   multiplies the backscattered pressure by a gain > 1, extending the
   uplink range at milliwatt-level cost that is still far below
   generating a carrier.

It composes the same firmware, sensing, and recto-piezo bank as
:class:`~repro.node.node.PABNode` and is a drop-in replacement in
:class:`~repro.core.link.BackscatterLink`.
"""

from __future__ import annotations

import numpy as np

from repro.node.node import Environment, PABNode
from repro.node.power import PowerState
from repro.piezo.transducer import Transducer


class BatteryAssistedNode(PABNode):
    """A PAB node with a battery and an active reflection amplifier.

    Parameters
    ----------
    address, channel_frequencies_hz, transducer, environment, bitrate:
        As for :class:`PABNode`.
    reflection_gain:
        Linear pressure gain of the active reflection stage (>= 1).
    battery_capacity_j:
        Usable battery energy [J]; drawn down by operation.  The energy
        left is checkpoint state.
    """

    __state__ = PABNode.__state__ + ("battery_energy_j",)

    def __init__(
        self,
        address,
        channel_frequencies_hz=(15_000.0,),
        *,
        transducer: Transducer | None = None,
        environment: Environment | None = None,
        bitrate: float = 1_000.0,
        reflection_gain: float = 4.0,
        battery_capacity_j: float = 100.0,
    ) -> None:
        if reflection_gain < 1.0:
            raise ValueError("reflection gain must be >= 1")
        if battery_capacity_j <= 0:
            raise ValueError("battery capacity must be positive")
        super().__init__(
            address,
            channel_frequencies_hz,
            transducer=transducer,
            environment=environment,
            bitrate=bitrate,
        )
        self.reflection_gain = reflection_gain
        self.battery_capacity_j = battery_capacity_j
        self.battery_energy_j = battery_capacity_j
        # The battery keeps the node alive from the start.
        self.force_power(True)

    # -- energy: the battery replaces harvesting --------------------------------------

    def try_power_up(self, incident_pressure_pa: float, frequency_hz: float) -> bool:
        """Battery-assisted nodes are alive while the battery lasts."""
        alive = self.battery_energy_j > 0.0
        self.force_power(alive)
        return alive

    def drain(self, duration_s: float, state: PowerState, *, bitrate: float = 0.0) -> float:
        """Account battery energy for operating in ``state`` [J remaining].

        The reflection amplifier adds a milliwatt-class draw during
        backscatter — orders of magnitude below an active modem, as the
        paper's argument requires.
        """
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        power = self.power_model.power_w(state, bitrate=bitrate)
        if state is PowerState.BACKSCATTER:
            power += self.amplifier_power_w
        self.battery_energy_j = max(self.battery_energy_j - power * duration_s, 0.0)
        if self.battery_energy_j == 0.0:
            self.force_power(False)
        return self.battery_energy_j

    @property
    def amplifier_power_w(self) -> float:
        """Draw of the reflection amplifier (scales with its gain)."""
        return 1e-3 * (self.reflection_gain**2 - 1.0)

    def expected_lifetime_s(self, duty_cycle: float = 0.01, bitrate: float = 1_000.0) -> float:
        """Battery life under a backscatter duty cycle [s]."""
        if not 0.0 <= duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in [0, 1]")
        p_idle = self.power_model.power_w(PowerState.IDLE)
        p_tx = (
            self.power_model.power_w(PowerState.BACKSCATTER, bitrate=bitrate)
            + self.amplifier_power_w
        )
        mean_power = (1.0 - duty_cycle) * p_idle + duty_cycle * p_tx
        return self.battery_energy_j / mean_power

    # -- amplified reflection -----------------------------------------------------------

    def reflection_trajectory(self, chips, carrier_hz: float):
        """Per-chip reflection gains with the active amplification applied.

        Only the *modulated* part is amplified (the amplifier sits behind
        the switch); the absorptive state is unchanged so the harvesting
        path of hybrid designs would still work.
        """
        gamma_a, gamma_r, trajectory = super().reflection_trajectory(
            chips, carrier_hz
        )
        gamma_r_amp = gamma_a + self.reflection_gain * (gamma_r - gamma_a)
        chips = np.asarray(chips)
        trajectory = np.where(chips.astype(bool), gamma_r_amp, gamma_a)
        return gamma_a, gamma_r_amp, trajectory
