"""Ambient underwater noise: Wenz-style spectra and a time-domain generator.

The classic decomposition (Wenz 1962, as summarised by Coates 1990 and
widely used in underwater-network simulators) models the ambient noise
power spectral density as the sum of four sources — turbulence, distant
shipping, wind-driven surface agitation, and thermal noise:

    10 log N_t(f)  = 17 - 30 log f
    10 log N_s(f)  = 40 + 20 (s - 0.5) + 26 log f - 60 log(f + 0.03)
    10 log N_w(f)  = 50 + 7.5 sqrt(w) + 20 log f - 40 log(f + 0.4)
    10 log N_th(f) = -15 + 20 log f

with ``f`` in kHz, shipping activity ``s`` in [0, 1], wind speed ``w`` in
m/s, and PSD levels in dB re 1 uPa^2/Hz.

For indoor test tanks (the paper's pools) the open-ocean sources are not
physically present; instead there is broadband facility noise.  The
:class:`AmbientNoiseModel` therefore also supports a flat "tank" spectrum
whose level can be calibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.state import Stateful


def turbulence_noise_db(frequency_hz: float) -> float:
    """Turbulence component of the Wenz curves [dB re uPa^2/Hz]."""
    f_khz = _f_khz(frequency_hz)
    return 17.0 - 30.0 * math.log10(f_khz)


def shipping_noise_db(frequency_hz: float, shipping_activity: float = 0.5) -> float:
    """Distant-shipping component [dB re uPa^2/Hz]; activity in [0, 1]."""
    if not 0.0 <= shipping_activity <= 1.0:
        raise ValueError("shipping_activity must be in [0, 1]")
    f_khz = _f_khz(frequency_hz)
    return (
        40.0
        + 20.0 * (shipping_activity - 0.5)
        + 26.0 * math.log10(f_khz)
        - 60.0 * math.log10(f_khz + 0.03)
    )


def wind_noise_db(frequency_hz: float, wind_speed_mps: float = 0.0) -> float:
    """Wind/surface-agitation component [dB re uPa^2/Hz]."""
    if wind_speed_mps < 0:
        raise ValueError("wind speed must be non-negative")
    f_khz = _f_khz(frequency_hz)
    return (
        50.0
        + 7.5 * math.sqrt(wind_speed_mps)
        + 20.0 * math.log10(f_khz)
        - 40.0 * math.log10(f_khz + 0.4)
    )


def thermal_noise_db(frequency_hz: float) -> float:
    """Thermal (molecular agitation) component [dB re uPa^2/Hz]."""
    f_khz = _f_khz(frequency_hz)
    return -15.0 + 20.0 * math.log10(f_khz)


def wenz_noise_psd_db(
    frequency_hz: float,
    *,
    shipping_activity: float = 0.5,
    wind_speed_mps: float = 0.0,
) -> float:
    """Total Wenz ambient noise PSD [dB re 1 uPa^2/Hz] at one frequency."""
    components_db = [
        turbulence_noise_db(frequency_hz),
        shipping_noise_db(frequency_hz, shipping_activity),
        wind_noise_db(frequency_hz, wind_speed_mps),
        thermal_noise_db(frequency_hz),
    ]
    total_linear = sum(10.0 ** (c / 10.0) for c in components_db)
    return 10.0 * math.log10(total_linear)


def _f_khz(frequency_hz: float) -> float:
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return frequency_hz / 1000.0


@dataclass
class AmbientNoiseModel(Stateful):
    """Generates ambient noise pressure waveforms.

    Parameters
    ----------
    spectrum:
        ``"wenz"`` for the open-water composite spectrum or ``"flat"`` for
        a white facility-noise floor (appropriate for indoor tanks).
    flat_level_db:
        PSD level [dB re 1 uPa^2/Hz] used when ``spectrum == "flat"``.
    shipping_activity, wind_speed_mps:
        Wenz parameters, ignored for the flat spectrum.
    seed:
        Optional RNG seed for reproducible noise.
    """

    __state__ = ("_rng",)

    spectrum: str = "flat"
    flat_level_db: float = 60.0
    shipping_activity: float = 0.5
    wind_speed_mps: float = 0.0
    seed: int | None = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.spectrum not in ("wenz", "flat"):
            raise ValueError(f"unknown spectrum {self.spectrum!r}")
        self._rng = np.random.default_rng(self.seed)

    def psd_db(self, frequency_hz: float) -> float:
        """Noise PSD [dB re 1 uPa^2/Hz] at ``frequency_hz``."""
        if self.spectrum == "flat":
            if frequency_hz <= 0:
                raise ValueError("frequency must be positive")
            return self.flat_level_db
        return wenz_noise_psd_db(
            frequency_hz,
            shipping_activity=self.shipping_activity,
            wind_speed_mps=self.wind_speed_mps,
        )

    def band_pressure_rms(self, f_low_hz: float, f_high_hz: float) -> float:
        """RMS noise pressure [Pa] integrated over a frequency band."""
        if not 0 < f_low_hz < f_high_hz:
            raise ValueError("need 0 < f_low < f_high")
        freqs = np.linspace(f_low_hz, f_high_hz, 256)
        psd_upa2 = np.array([10.0 ** (self.psd_db(float(f)) / 10.0) for f in freqs])
        power_upa2 = float(np.trapezoid(psd_upa2, freqs))
        return math.sqrt(power_upa2) * 1e-6  # uPa -> Pa

    def generate(
        self,
        n_samples: int,
        sample_rate: float,
        *,
        band: tuple[float, float] | None = None,
    ) -> np.ndarray:
        """Generate a noise pressure waveform [Pa].

        For the flat spectrum this is white Gaussian noise whose total power
        equals the PSD integrated over the Nyquist band (or over ``band`` if
        given, in which case the waveform is still white but scaled to the
        in-band power — adequate because the receiver always band-filters).
        For the Wenz spectrum the waveform is spectrally shaped via an FFT
        colouring filter.

        Each call advances the model's seeded stream by ``n_samples``
        draws, so callers draw only the samples they go on to use: a
        link draws for the tail its demodulator reads
        (``BackscatterLink._record_tail``), not for the whole mixture.
        """
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        if n_samples == 0:
            return np.zeros(0)
        nyquist = sample_rate / 2.0
        f_low, f_high = band if band is not None else (1.0, nyquist)
        if self.spectrum == "flat":
            psd_pa2 = 10.0 ** (self.flat_level_db / 10.0) * 1e-12  # Pa^2/Hz
            sigma = math.sqrt(psd_pa2 * nyquist)
            return self._rng.normal(0.0, sigma, n_samples)
        # Shape white noise by the sqrt of the Wenz PSD.
        white = self._rng.normal(0.0, 1.0, n_samples)
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate)
        gains = np.zeros_like(freqs)
        valid = (freqs >= max(f_low, 1.0)) & (freqs <= f_high)
        psd_pa2 = np.array(
            [10.0 ** (self.psd_db(float(f)) / 10.0) * 1e-12 for f in freqs[valid]]
        )
        gains[valid] = np.sqrt(psd_pa2 * sample_rate)
        shaped = np.fft.irfft(spectrum * gains, n=n_samples)
        return shaped
