"""Carrier generation, mixing, and chip-to-waveform conversion."""

from __future__ import annotations

import numpy as np

from repro.constants import TWO_PI
from repro.perf.cache import get_cache


def tone(
    frequency_hz: float,
    duration_s: float,
    sample_rate: float,
    *,
    amplitude: float = 1.0,
    phase_rad: float = 0.0,
) -> np.ndarray:
    """A real sinusoid ``amplitude * sin(2*pi*f*t + phase)``."""
    if frequency_hz <= 0 or sample_rate <= 0:
        raise ValueError("frequency and sample rate must be positive")
    if duration_s < 0:
        raise ValueError("duration must be non-negative")
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    return amplitude * np.sin(TWO_PI * frequency_hz * t + phase_rad)


def amplitude_modulated_carrier(
    envelope,
    frequency_hz: float,
    sample_rate: float,
    *,
    phase_rad: float = 0.0,
) -> np.ndarray:
    """Multiply an envelope by a carrier (the projector's PWM downlink)."""
    env = np.asarray(envelope, dtype=float)
    if env.ndim != 1:
        raise ValueError("envelope must be one-dimensional")
    if frequency_hz <= 0 or sample_rate <= 0:
        raise ValueError("frequency and sample rate must be positive")
    t = np.arange(len(env)) / sample_rate
    return env * np.sin(TWO_PI * frequency_hz * t + phase_rad)


def upconvert_chips(
    chip_values,
    chip_rate: float,
    sample_rate: float,
) -> np.ndarray:
    """Expand a chip sequence into a sample-level staircase waveform.

    Each chip is held for ``sample_rate / chip_rate`` samples (fractional
    chip lengths are accumulated so long sequences keep exact timing).
    This is the time-domain reflection-coefficient trajectory the
    backscatter switch imposes.
    """
    chips = np.asarray(chip_values, dtype=float)
    if chips.ndim != 1:
        raise ValueError("chips must be one-dimensional")
    if chip_rate <= 0 or sample_rate <= 0:
        raise ValueError("rates must be positive")
    if chip_rate > sample_rate:
        raise ValueError("chip rate cannot exceed the sample rate")
    if len(chips) == 0:
        return np.zeros(0)
    # Exact boundaries: chip k spans [k*fs/cr, (k+1)*fs/cr).
    edges = np.round(np.arange(len(chips) + 1) * sample_rate / chip_rate).astype(int)
    out = np.empty(edges[-1])
    for k, v in enumerate(chips):
        out[edges[k] : edges[k + 1]] = v
    return out


def downconvert(
    waveform,
    carrier_hz: float,
    sample_rate: float,
) -> np.ndarray:
    """Mix a real passband waveform down to complex baseband.

    Returns ``x[n] * exp(-j*2*pi*f*n/fs) * 2`` — the factor of two makes
    the magnitude of the result equal the envelope of the passband tone.
    The caller is expected to low-pass filter the product (see
    :func:`repro.dsp.filters.butter_lowpass`).

    Accepts a 1-D waveform or an (N, samples) stack mixed along the last
    axis; the complex oscillator is computed once and broadcast across
    rows, so batched mixing is bit-identical to row-at-a-time mixing.
    The oscillator is a pure function of (length, carrier, rate), so it
    comes read-only from the ``oscillators`` cache: a receiver mixes
    every recording of one link at the same length.
    """
    x = np.asarray(waveform, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("waveform must be 1-D or an (N, samples) stack")
    if carrier_hz <= 0 or sample_rate <= 0:
        raise ValueError("carrier and sample rate must be positive")
    n_samples = x.shape[-1]
    oscillator = get_cache("oscillators").get_or_compute(
        (n_samples, float(carrier_hz), float(sample_rate)),
        lambda: np.exp(
            -1j * TWO_PI * carrier_hz * np.arange(n_samples) / sample_rate
        ),
    )
    return 2.0 * x * oscillator
