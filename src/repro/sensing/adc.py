"""Successive-approximation ADC model (the MSP430's 10-bit ADC10).

The MCU "samples analog sensors" through its ADC pin (Sec. 4.2.2).  The
model captures the behaviours that matter to sensor conversion code:
quantisation against a reference, clipping, and optional input noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.state import Stateful


@dataclass
class SarADC(Stateful):
    """An n-bit SAR ADC.

    Parameters
    ----------
    resolution_bits:
        Converter resolution (MSP430G2553: 10 bits).
    reference_v:
        Full-scale reference voltage.
    noise_lsb_rms:
        RMS input-referred noise in LSB.
    seed:
        RNG seed for the noise source.
    """

    __state__ = ("_rng",)

    resolution_bits: int = 10
    reference_v: float = 1.8
    noise_lsb_rms: float = 0.5
    seed: int | None = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 4 <= self.resolution_bits <= 24:
            raise ValueError("resolution must be between 4 and 24 bits")
        if self.reference_v <= 0:
            raise ValueError("reference must be positive")
        if self.noise_lsb_rms < 0:
            raise ValueError("noise must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    @property
    def max_code(self) -> int:
        return (1 << self.resolution_bits) - 1

    @property
    def lsb_v(self) -> float:
        """Voltage of one code step."""
        return self.reference_v / (1 << self.resolution_bits)

    def sample(self, voltage_v: float) -> int:
        """Convert one voltage to an output code (clipped to range)."""
        noisy = voltage_v + self._rng.normal(0.0, self.noise_lsb_rms) * self.lsb_v
        code = int(round(noisy / self.lsb_v))
        return min(max(code, 0), self.max_code)

    def to_voltage(self, code: int) -> float:
        """Nominal input voltage for a code (mid-tread)."""
        if not 0 <= code <= self.max_code:
            raise ValueError("code out of range")
        return code * self.lsb_v

    def sample_average(self, voltage_v: float, n: int = 8) -> float:
        """Oversample-and-average reading in volts (what firmware does)."""
        if n < 1:
            raise ValueError("need at least one sample")
        codes = [self.sample(voltage_v) for _ in range(n)]
        return float(np.mean(codes)) * self.lsb_v
