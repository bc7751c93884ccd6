"""The acoustic projector (downlink transmitter).

The paper's transmitter is one of the in-house transducers driven by a
power amplifier from a PC audio jack (Sec. 5.1a).  Here a
:class:`Projector` converts a drive voltage and a query into the source
pressure waveform at 1 m, PWM-modulated onto the carrier; the
:class:`MultiToneDownlink` superimposes several projectors' outputs for
the concurrent-access experiments ("We create an audio file for the
projector which transmits a downlink signal at both frequencies",
Sec. 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import math

from repro.dsp.pwm import PWMCode, pwm_encode
from repro.dsp.waveforms import amplitude_modulated_carrier, tone
from repro.net.messages import Query
from repro.node.firmware import DOWNLINK_FORMAT
from repro.piezo.directivity import DirectivityPattern
from repro.piezo.transducer import Transducer


@dataclass
class Projector:
    """A projector on one carrier.

    Parameters
    ----------
    transducer:
        The projecting transducer (the paper used the same in-house
        cylinders as the nodes).
    drive_voltage_v:
        Peak drive voltage from the power amplifier.
    carrier_hz:
        Downlink carrier frequency.
    pwm_code:
        Downlink timing parameters.
    directivity:
        Horizontal beam pattern (omnidirectional by default, like the
        paper's radially vibrating cylinder).
    heading_rad:
        Boresight azimuth when the pattern is directional.
    """

    transducer: Transducer
    drive_voltage_v: float
    carrier_hz: float
    pwm_code: PWMCode = None
    directivity: DirectivityPattern = None
    heading_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.drive_voltage_v < 0:
            raise ValueError("drive voltage must be non-negative")
        if self.carrier_hz <= 0:
            raise ValueError("carrier must be positive")
        if self.pwm_code is None:
            self.pwm_code = PWMCode()
        if self.directivity is None:
            self.directivity = DirectivityPattern(kind="omni")

    @property
    def source_pressure_pa(self) -> float:
        """Carrier-on pressure amplitude at 1 m [Pa]."""
        return float(
            self.transducer.transmit_pressure(self.drive_voltage_v, self.carrier_hz)
        )

    def source_level_db(self) -> float:
        """Source level [dB re 1 uPa @ 1 m]."""
        return self.transducer.source_level_db(self.drive_voltage_v, self.carrier_hz)

    def gain_towards(self, azimuth_rad: float) -> float:
        """Amplitude gain of the beam pattern towards an azimuth."""
        off_axis = (azimuth_rad - self.heading_rad + math.pi) % (
            2.0 * math.pi
        ) - math.pi
        return float(self.directivity.gain(abs(off_axis)))

    def query_waveform(self, query: Query, sample_rate: float) -> np.ndarray:
        """Source pressure waveform of a PWM downlink query [Pa @ 1 m].

        The PWM envelope times the carrier, computed on every call.  The
        carrier is a slice of one shared array per carrier and rate (the
        ``unit_carriers`` cache behind
        :func:`repro.dsp.waveforms.amplitude_modulated_carrier`), so
        nothing is kept per query.  The drive level scales the fresh
        product in place.
        """
        bits = query.to_packet().to_bits(DOWNLINK_FORMAT)
        envelope = pwm_encode(bits, self.pwm_code, sample_rate)
        waveform = amplitude_modulated_carrier(envelope, self.carrier_hz, sample_rate)
        waveform *= self.source_pressure_pa
        return waveform

    def carrier_waveform(self, duration_s: float, sample_rate: float) -> np.ndarray:
        """Continuous-wave source pressure (the uplink illumination) [Pa @ 1 m]."""
        return tone(
            self.carrier_hz,
            duration_s,
            sample_rate,
            amplitude=self.source_pressure_pa,
        )

    def query_then_carrier(
        self, query: Query, uplink_duration_s: float, sample_rate: float
    ) -> tuple[np.ndarray, int]:
        """Full downlink: query frame followed by CW for the backscatter reply.

        Returns ``(waveform, uplink_start_sample)`` — the node starts
        backscattering once the query ends and the carrier resumes.
        """
        if uplink_duration_s < 0:
            raise ValueError("uplink duration must be non-negative")
        frame = self.query_waveform(query, sample_rate)
        carrier = self.carrier_waveform(uplink_duration_s, sample_rate)
        return np.concatenate([frame, carrier]), len(frame)


class MultiToneDownlink:
    """Several projectors summed into one downlink waveform.

    Used by the FDMA experiments: one physical projector plays an audio
    file containing all channel carriers, which is equivalent to summing
    independent projectors (the transducer is linear at these levels).
    """

    def __init__(self, projectors) -> None:
        self.projectors = list(projectors)
        if not self.projectors:
            raise ValueError("need at least one projector")
        carriers = [p.carrier_hz for p in self.projectors]
        if len(set(carriers)) != len(carriers):
            raise ValueError("projector carriers must be distinct")

    def queries_then_carrier(
        self, queries, uplink_duration_s: float, sample_rate: float
    ) -> tuple[np.ndarray, int]:
        """Each projector sends its query, then all hold CW together.

        Queries are padded to the longest frame so the uplink carriers
        start simultaneously on every channel.
        Returns ``(waveform, uplink_start_sample)``.
        """
        if len(queries) != len(self.projectors):
            raise ValueError("need one query per projector")
        frames = [
            p.query_waveform(q, sample_rate)
            for p, q in zip(self.projectors, queries)
        ]
        longest = max(len(f) for f in frames)
        total_uplink = int(round(uplink_duration_s * sample_rate))
        combined = np.zeros(longest + total_uplink)
        for projector, frame in zip(self.projectors, frames):
            padded_start = longest - len(frame)
            combined[padded_start : padded_start + len(frame)] += frame
            carrier = projector.carrier_waveform(uplink_duration_s, sample_rate)
            combined[longest : longest + len(carrier)] += carrier
        return combined, longest
