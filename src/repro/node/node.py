"""PABNode: the complete battery-free sensor node.

Composes the transducer, recto-piezo bank, energy storage, firmware, and
sensing peripherals into the device of paper Fig. 4/5.  The node exposes
exactly two physical interfaces to the outside world, matching reality:

* the incident acoustic pressure at its transducer (input), and
* its reflection coefficient trajectory over time (output).

Everything else — harvesting, decoding, sensing, FM0 modulation — happens
inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rectopiezo import RectoPiezoBank
from repro.net.addresses import NodeAddress
from repro.net.messages import Query, Response
from repro.node.energy import PowerUpSimulator
from repro.obs.trace import get_tracer
from repro.node.firmware import FirmwareConfig, FirmwareState, NodeFirmware
from repro.node.power import NodePowerModel
from repro.piezo.transducer import Transducer
from repro.sensing.i2c import I2CBus
from repro.sensing.ph import PhSensor
from repro.sensing.pressure import MS5837, MS5837Driver, WaterColumn
from repro.sensing.temperature import ThermistorChannel
from repro.state import Stateful


@dataclass
class Environment:
    """Ground truth the node's sensors observe.

    Attributes
    ----------
    water:
        Depth / temperature / surface pressure at the node.
    true_ph:
        Solution pH at the node.
    """

    water: WaterColumn = field(default_factory=WaterColumn)
    true_ph: float = 7.0


class PABNode(Stateful):
    """A battery-free piezo-acoustic backscatter sensor node.

    Parameters
    ----------
    address:
        Node address (int or :class:`NodeAddress`).
    channel_frequencies_hz:
        Recto-piezo bank frequencies; the first is the boot default.
    transducer:
        Custom transducer; the paper's cylinder design by default.
    environment:
        World state for the sensors.
    bitrate:
        Initial uplink bitrate [bit/s].
    ledger:
        Optional :class:`~repro.obs.ledger.EnergyLedger` shared by the
        firmware (power-state bucketing) and any
        :meth:`power_up_simulator` this node hands out (capacitor joule
        flows).
    """

    __state__ = ("_powered", "firmware")

    def __init__(
        self,
        address,
        channel_frequencies_hz=(15_000.0,),
        *,
        transducer: Transducer | None = None,
        environment: Environment | None = None,
        bitrate: float = 1_000.0,
        ledger=None,
    ) -> None:
        self.address = (
            address if isinstance(address, NodeAddress) else NodeAddress(int(address))
        )
        self.transducer = (
            transducer if transducer is not None else Transducer.from_cylinder_design()
        )
        self.bank = RectoPiezoBank(self.transducer, channel_frequencies_hz)
        self.environment = environment if environment is not None else Environment()

        # Peripherals wired exactly like the paper's platform.
        self.i2c = I2CBus()
        self.i2c.attach(MS5837(self.environment.water))
        pressure_driver = MS5837Driver(self.i2c)
        self.ledger = ledger
        self.firmware = NodeFirmware(
            FirmwareConfig(address=self.address, bitrate=bitrate),
            ph_sensor=PhSensor(),
            pressure_driver=pressure_driver,
            thermistor=ThermistorChannel(),
            environment=self.environment,
            n_resonance_modes=len(self.bank),
            ledger=ledger,
        )
        self.power_model = NodePowerModel()
        self._powered = False

    # -- energy ---------------------------------------------------------------------

    @property
    def is_powered(self) -> bool:
        return self._powered

    @property
    def active_mode(self):
        """The currently selected recto-piezo mode."""
        return self.bank.mode(self.firmware.config.resonance_mode)

    def power_up_simulator(self, mode_index: int | None = None) -> PowerUpSimulator:
        """An energy engine bound to one of this node's modes."""
        mode = self.bank.mode(
            self.firmware.config.resonance_mode if mode_index is None else mode_index
        )
        return PowerUpSimulator(
            mode.harvester, power_model=self.power_model, ledger=self.ledger
        )

    def try_power_up(self, incident_pressure_pa: float, frequency_hz: float) -> bool:
        """Attempt cold start from an incident tone; boots firmware on success."""
        sim = self.power_up_simulator()
        if sim.can_power_up(incident_pressure_pa, frequency_hz):
            self._powered = True
            self.firmware.boot()
        else:
            self._powered = False
            self.firmware.brown_out()
        return self._powered

    def force_power(self, powered: bool = True) -> None:
        """Directly set the power state (bench-supply equivalent,
        Sec. 6.4's measurement setup)."""
        self._powered = powered
        if powered:
            self.firmware.boot()
        else:
            self.firmware.brown_out()

    # -- communication ----------------------------------------------------------------

    def receive_query(self, envelope, sample_rate: float) -> Query | None:
        """Node-side downlink decode (envelope detector + PWM).

        Traced as ``node.decode_query`` under the process-global tracer
        (a child of the link's ``link.node`` stage when both run).
        """
        if not self._powered:
            return None
        with get_tracer().span(
            "node.decode_query", node=int(self.address), samples=len(envelope)
        ):
            return self.firmware.decode_downlink_envelope(envelope, sample_rate)

    def respond(self, query: Query) -> Response | None:
        """Execute a query and return the response (or None)."""
        if not self._powered:
            return None
        with get_tracer().span(
            "node.respond",
            node=int(self.address),
            command=getattr(query.command, "name", str(query.command)),
        ):
            return self.firmware.handle_query(query)

    def uplink_chips(self, response: Response) -> np.ndarray:
        """FM0 switch-state chips for a response frame."""
        with get_tracer().span("node.encode_uplink", node=int(self.address)):
            return self.firmware.build_uplink_chips(response)

    def reflection_trajectory(
        self, chips, carrier_hz: float
    ) -> tuple[complex, complex, np.ndarray]:
        """Per-chip complex reflection gains at a carrier.

        Returns ``(gamma_absorb, gamma_reflect, gamma_per_chip)`` where
        the trajectory holds the complex reflected-pressure gain of each
        chip interval.  The link simulation upconverts this to samples.
        """
        gamma_a, gamma_r = self.bank.reflection_states(
            self.firmware.config.resonance_mode, carrier_hz
        )
        chips = np.asarray(chips)
        trajectory = np.where(chips.astype(bool), gamma_r, gamma_a)
        return gamma_a, gamma_r, trajectory

    @property
    def bitrate(self) -> float:
        return self.firmware.config.bitrate

    @property
    def channel_frequency_hz(self) -> float:
        """The active mode's channel frequency."""
        return self.active_mode.frequency_hz

    def receive_band(self, sample_rate: float) -> tuple[float, float]:
        """The receive band around the channel, inside (0, Nyquist) [Hz].

        The band the resonant element passes to the PWM detector: at
        least 1 kHz on each side of the active channel.
        """
        f0 = self.channel_frequency_hz
        half = max(self.transducer.bandwidth_hz, 1_000.0)
        return max(f0 - half, 1.0), min(f0 + half, sample_rate / 2.0 - 1.0)

    def __repr__(self) -> str:
        state = self.firmware.state.value
        return (
            f"PABNode({self.address}, channel={self.channel_frequency_hz:.0f} Hz, "
            f"bitrate={self.bitrate:.0f} bps, state={state})"
        )
