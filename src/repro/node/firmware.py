"""MCU firmware state machine (paper Sec. 4.2.2).

Upon powering up, the MCU waits in low-power mode for downlink edges,
measures PWM pulse widths to decode the query, checks the address, runs
the requested command (sampling a sensor if needed), and answers by
toggling the backscatter switch with the FM0-encoded response frame.

The firmware is deliberately written as a small synchronous state
machine over decoded edge streams — the same structure as the real
interrupt-driven C code, minus the interrupts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.schmitt import SchmittTrigger
from repro.dsp.fm0 import fm0_encode
from repro.dsp.packets import (
    DOWNLINK_PREAMBLE,
    FramingError,
    Packet,
    PacketFormat,
)
from repro.dsp.pwm import PWMCode, pwm_decode_edges
from repro.net.addresses import NodeAddress
from repro.net.messages import BITRATE_TABLE, Command, Query, Response
from repro.node.power import PowerState
from repro.perf.cache import get_cache
from repro.state import Stateful

#: Downlink frames use the paper's 9-bit preamble.
DOWNLINK_FORMAT = PacketFormat(preamble=DOWNLINK_PREAMBLE)


class FirmwareState(enum.Enum):
    """Firmware lifecycle states."""

    OFF = "off"
    IDLE = "idle"
    RESPONDING = "responding"


@dataclass
class FirmwareConfig(Stateful):
    """Mutable firmware settings.

    Attributes
    ----------
    address:
        This node's address.
    bitrate:
        Current uplink bitrate [bit/s].
    resonance_mode:
        Index into the node's recto-piezo bank (Sec. 3.3.2 extension:
        "incorporating multiple matching circuits onboard ... enabling the
        micro-controller to select the recto-piezo").
    pwm_code:
        Downlink timing parameters.
    uplink_format:
        Frame layout for uplink packets.  Concurrent nodes are given
        distinct preambles so the receiver's channel estimator can tell
        their training regions apart (the RFID analogue of distinct
        RN16s).
    """

    __state__ = ("bitrate", "resonance_mode")

    address: NodeAddress
    bitrate: float = 1_000.0
    resonance_mode: int = 0
    pwm_code: PWMCode = field(default_factory=PWMCode)
    uplink_format: PacketFormat = field(default_factory=PacketFormat)


class NodeFirmware(Stateful):
    """The node's control program.

    Parameters
    ----------
    config:
        Initial settings.
    ph_sensor, pressure_driver, thermistor:
        Attached peripherals (any may be ``None`` — the command then
        fails silently, like firmware without that sensor compiled in).
    environment:
        Ground-truth world state the sensors observe; must expose
        ``true_ph`` and ``water.temperature_c`` when the corresponding
        sensor is attached.
    n_resonance_modes:
        Size of the recto-piezo bank.
    ledger:
        Optional :class:`~repro.obs.ledger.EnergyLedger`; lifecycle
        transitions move its :class:`PowerState` bucket so consumed
        joules land under the state that spent them.  ``None`` (the
        default) keeps the firmware observability-free; a checkpoint
        restore does not re-sync it.
    """

    __state__ = (
        "state", "queries_handled", "queries_ignored", "config", "ph_sensor",
    )
    state: FirmwareState

    def __init__(
        self,
        config: FirmwareConfig,
        *,
        ph_sensor=None,
        pressure_driver=None,
        thermistor=None,
        environment=None,
        n_resonance_modes: int = 1,
        ledger=None,
    ) -> None:
        if n_resonance_modes < 1:
            raise ValueError("need at least one resonance mode")
        if config.resonance_mode >= n_resonance_modes:
            raise ValueError("initial resonance mode out of range")
        self.config = config
        self.ph_sensor = ph_sensor
        self.pressure_driver = pressure_driver
        self.thermistor = thermistor
        self.environment = environment
        self.n_resonance_modes = n_resonance_modes
        self.state = FirmwareState.OFF
        self.queries_handled = 0
        self.queries_ignored = 0
        self.ledger = ledger

    def _sync_ledger(self) -> None:
        if self.ledger is not None:
            self.ledger.set_state(self.power_state)

    # -- lifecycle ---------------------------------------------------------------

    def boot(self) -> None:
        """Called when the supercap crosses the power-up threshold."""
        self.state = FirmwareState.IDLE
        self._sync_ledger()

    def brown_out(self) -> None:
        """Called when the supply collapses."""
        self.state = FirmwareState.OFF
        self._sync_ledger()

    @property
    def power_state(self) -> PowerState:
        """Map firmware state to the power model's states."""
        if self.state is FirmwareState.OFF:
            return PowerState.COLD
        if self.state is FirmwareState.RESPONDING:
            return PowerState.BACKSCATTER
        return PowerState.IDLE

    # -- downlink ------------------------------------------------------------------

    def decode_downlink_envelope(
        self,
        envelope,
        sample_rate: float,
        *,
        schmitt: SchmittTrigger | None = None,
    ) -> Query | None:
        """Full node-side downlink decode: envelope -> edges -> PWM -> query.

        Returns ``None`` when no valid query frame is present.
        """
        if self.state is FirmwareState.OFF:
            return None
        if self.ledger is not None:
            # The MCU spends this stretch timing PWM edges.
            self.ledger.set_state(PowerState.DECODING)
        try:
            return self._decode_downlink_envelope(envelope, sample_rate, schmitt)
        finally:
            self._sync_ledger()

    def _decode_downlink_envelope(
        self, envelope, sample_rate: float, schmitt: SchmittTrigger | None
    ) -> Query | None:
        env = np.asarray(envelope, dtype=float)
        # Shorter than one PWM symbol cannot contain a frame (and would
        # underflow the smoothing filter's padding).
        if len(env) < int(self.config.pwm_code.short_s * sample_rate):
            return None
        # Smooth residual carrier/multipath wiggle well below the symbol
        # timescale before slicing.
        cutoff = min(
            2.0 / self.config.pwm_code.short_s, sample_rate / 2.5
        )
        from repro.dsp.filters import butter_lowpass

        env = butter_lowpass(env, cutoff, sample_rate)
        if schmitt is None:
            # Threshold off the sustained on-level (90th percentile), not
            # the absolute peak: multipath transients overshoot the
            # steady level and would push a peak-based threshold too high.
            level = float(np.percentile(env, 90.0))
            if level <= 0:
                return None
            schmitt = SchmittTrigger(
                high_threshold_v=0.5 * level, low_threshold_v=0.3 * level
            )
        times, pols = schmitt.edges(env, sample_rate)
        bits = pwm_decode_edges(times, pols, self.config.pwm_code)
        return self.parse_query_bits(bits)

    def parse_query_bits(self, bits) -> Query | None:
        """Locate the downlink preamble in a bit stream and parse the query."""
        bits = np.asarray(bits, dtype=np.int8)
        pre = DOWNLINK_FORMAT.preamble_bits
        n = len(pre)
        for start in range(0, len(bits) - DOWNLINK_FORMAT.overhead_bits() + 1):
            if not np.array_equal(bits[start : start + n], pre):
                continue
            try:
                packet = Packet.from_bits(bits[start:], DOWNLINK_FORMAT)
                return Query.from_packet(packet)
            except (FramingError, ValueError):
                continue
        return None

    # -- command dispatch --------------------------------------------------------------

    def handle_query(self, query: Query) -> Response | None:
        """Execute a query if it addresses this node; build the response."""
        if self.state is FirmwareState.OFF:
            return None
        if not self.config.address.accepts(query.destination):
            self.queries_ignored += 1
            return None
        handler = {
            Command.PING: self._cmd_ping,
            Command.READ_PH: self._cmd_read_ph,
            Command.READ_PRESSURE_TEMP: self._cmd_read_pressure_temp,
            Command.READ_TEMPERATURE: self._cmd_read_temperature,
            Command.SET_BITRATE: self._cmd_set_bitrate,
            Command.SET_RESONANCE_MODE: self._cmd_set_resonance_mode,
        }[query.command]
        response = handler(query)
        if response is not None:
            self.queries_handled += 1
            self.state = FirmwareState.RESPONDING
            self._sync_ledger()
        return response

    def response_sent(self) -> None:
        """Called after the backscatter burst completes."""
        if self.state is FirmwareState.RESPONDING:
            self.state = FirmwareState.IDLE
            self._sync_ledger()

    def _cmd_ping(self, query: Query) -> Response:
        return Response(source=int(self.config.address), command=Command.PING)

    def _cmd_read_ph(self, query: Query) -> Response | None:
        if self.ph_sensor is None or self.environment is None:
            return None
        value = self.ph_sensor.read_ph(
            self.environment.true_ph, self.environment.water.temperature_c
        )
        return Response(
            source=int(self.config.address),
            command=Command.READ_PH,
            data=self.ph_sensor.encode_reading(value),
        )

    def _cmd_read_pressure_temp(self, query: Query) -> Response | None:
        if self.pressure_driver is None:
            return None
        try:
            pressure, temperature = self.pressure_driver.read()
        except IOError:
            # Peripheral fault (NACK, bus error): real firmware times out
            # and stays silent rather than replying with garbage.
            return None
        return Response(
            source=int(self.config.address),
            command=Command.READ_PRESSURE_TEMP,
            data=self.pressure_driver.encode_reading(pressure, temperature),
        )

    def _cmd_read_temperature(self, query: Query) -> Response | None:
        if self.thermistor is None or self.environment is None:
            return None
        value = self.thermistor.read(self.environment.water.temperature_c)
        raw = int(round((value + 100.0) * 100.0))
        return Response(
            source=int(self.config.address),
            command=Command.READ_TEMPERATURE,
            data=bytes([(raw >> 8) & 0xFF, raw & 0xFF]),
        )

    def _cmd_set_bitrate(self, query: Query) -> Response | None:
        if query.argument >= len(BITRATE_TABLE):
            return None
        self.config.bitrate = BITRATE_TABLE[query.argument]
        return Response(
            source=int(self.config.address),
            command=Command.SET_BITRATE,
            data=bytes([query.argument]),
        )

    def _cmd_set_resonance_mode(self, query: Query) -> Response | None:
        if query.argument >= self.n_resonance_modes:
            return None
        self.config.resonance_mode = query.argument
        return Response(
            source=int(self.config.address),
            command=Command.SET_RESONANCE_MODE,
            data=bytes([query.argument]),
        )

    # -- uplink --------------------------------------------------------------------

    def build_uplink_chips(self, response: Response) -> np.ndarray:
        """FM0 chip sequence (0/1 switch states) for a response frame.

        A sensor that keeps reporting the same reading re-encodes the
        same frame; the chip expansion is memoized by the serialised
        bits (format included, since framing determines the bits).
        """
        bits = response.to_packet().to_bits(self.config.uplink_format)
        return get_cache("fm0_chips", maxsize=1024).get_or_compute(
            bits.tobytes(), lambda: fm0_encode(bits)
        )
