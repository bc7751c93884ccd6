"""pH sensing chain: glass electrode + analog front end + ADC conversion.

The paper measures acidity with a mini pH probe through an LMP91200-style
configurable AFE into the MCU's ADC (Sec. 5.1c) and verifies a correct
reading of pH 7 (Sec. 6.5).

A glass pH electrode is Nernstian: its EMF is proportional to the
distance from neutral pH,

    E = E_offset + S(T) * (7 - pH),    S(T) = ln(10) * R * T / F

with the ideal slope ~59.16 mV/pH at 25 C.  The AFE level-shifts this
bipolar millivolt signal into the ADC's unipolar range.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.state import Stateful

#: Gas constant [J/(mol K)], Faraday constant [C/mol].
_R = 8.314462618
_F = 96485.33212
_LN10 = 2.302585092994046


def nernst_slope_v(temperature_c: float) -> float:
    """Ideal electrode slope [V per pH unit] at a temperature."""
    if temperature_c < -30.0 or temperature_c > 120.0:
        raise ValueError("temperature outside electrode operating range")
    t_kelvin = temperature_c + 273.15
    return _LN10 * _R * t_kelvin / _F


@dataclass(frozen=True)
class PhProbe:
    """A glass pH electrode.

    Parameters
    ----------
    offset_v:
        Electrode offset at pH 7 (ideally zero; real probes drift).
    slope_efficiency:
        Fraction of the ideal Nernst slope the aged electrode delivers.
    """

    offset_v: float = 0.0
    slope_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not 0.5 <= self.slope_efficiency <= 1.05:
            raise ValueError("slope efficiency implausible (expect 0.5-1.05)")

    def emf(self, ph: float, temperature_c: float = 25.0) -> float:
        """Electrode EMF [V] for a solution pH."""
        if not 0.0 <= ph <= 14.0:
            raise ValueError("pH must be within 0-14")
        slope = nernst_slope_v(temperature_c) * self.slope_efficiency
        return self.offset_v + slope * (7.0 - ph)


@dataclass(frozen=True)
class PhAnalogFrontEnd:
    """LMP91200-style signal conditioning.

    Maps the bipolar electrode EMF into the ADC range:
    ``V_out = mid_rail_v + gain * emf``.
    """

    mid_rail_v: float = 0.9
    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.mid_rail_v <= 0 or self.gain <= 0:
            raise ValueError("mid rail and gain must be positive")

    def condition(self, emf_v: float) -> float:
        """AFE output voltage [V]."""
        return self.mid_rail_v + self.gain * emf_v

    def invert(self, v_out: float) -> float:
        """Recover the electrode EMF from an AFE output voltage."""
        return (v_out - self.mid_rail_v) / self.gain


class PhSensor(Stateful):
    """The complete firmware-visible pH sensing chain.

    Combines probe, AFE, and ADC; :meth:`read_ph` is what the node's
    firmware calls to fill a packet payload.
    """

    __state__ = ("adc",)

    def __init__(self, probe=None, afe=None, adc=None) -> None:
        from repro.sensing.adc import SarADC

        self.probe = probe if probe is not None else PhProbe()
        self.afe = afe if afe is not None else PhAnalogFrontEnd()
        self.adc = adc if adc is not None else SarADC(seed=0)

    def read_ph(self, true_ph: float, temperature_c: float = 25.0) -> float:
        """Measure the pH of a solution (through the full analog chain)."""
        emf = self.probe.emf(true_ph, temperature_c)
        v_adc = self.afe.condition(emf)
        v_read = self.adc.sample_average(v_adc)
        emf_read = self.afe.invert(v_read)
        slope = nernst_slope_v(temperature_c) * self.probe.slope_efficiency
        return 7.0 - (emf_read - self.probe.offset_v) / slope

    def encode_reading(self, ph_value: float) -> bytes:
        """Pack a pH reading into two payload bytes (centi-pH units)."""
        if not 0.0 <= ph_value <= 14.0:
            raise ValueError("pH out of range")
        centi = int(round(ph_value * 100.0))
        return bytes([(centi >> 8) & 0xFF, centi & 0xFF])

    @staticmethod
    def decode_reading(payload: bytes) -> float:
        """Inverse of :meth:`encode_reading`."""
        if len(payload) < 2:
            raise ValueError("payload too short")
        return ((payload[0] << 8) | payload[1]) / 100.0
