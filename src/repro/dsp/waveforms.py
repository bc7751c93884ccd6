"""Carrier generation, mixing, and chip-to-waveform conversion."""

from __future__ import annotations

import numpy as np

from repro.constants import TWO_PI
from repro.perf.cache import get_cache


def _unit_carrier(
    frequency_hz: float,
    sample_rate: float,
    n_samples: int,
    phase_rad: float = 0.0,
) -> np.ndarray:
    """``sin(2*pi*f*t + phase)`` at ``t = arange(n_samples) / fs``, read-only.

    A pure function of (carrier, rate, phase) cut to a length, so it is
    the first ``n_samples`` of one array per (carrier, rate, phase) in
    the ``unit_carriers`` cache: ``arange / fs``, the product, the sum
    and ``sin`` are elementwise, so the slice equals the array computed
    at ``n_samples`` bit for bit (:meth:`repro.perf.cache.LRUCache.get_prefix`).
    """
    return get_cache("unit_carriers", maxsize=8).get_prefix(
        (float(frequency_hz), float(sample_rate), float(phase_rad)),
        n_samples,
        lambda n: np.sin(
            TWO_PI * frequency_hz * (np.arange(n) / sample_rate) + phase_rad
        ),
    )


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
    return amplitude * _unit_carrier(frequency_hz, sample_rate, n, phase_rad)


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
    return env * _unit_carrier(frequency_hz, sample_rate, len(env), phase_rad)


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
    The oscillator is a pure function of (carrier, rate) cut to the
    recording's length, so it is the first ``len`` samples of one
    read-only array per (carrier, rate) in the ``oscillators`` cache
    (see :func:`_unit_carrier`): a receiver mixes every recording at its
    channel's carrier, whatever the recording's length.
    """
    x = np.asarray(waveform, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("waveform must be 1-D or an (N, samples) stack")
    if carrier_hz <= 0 or sample_rate <= 0:
        raise ValueError("carrier and sample rate must be positive")
    oscillator = get_cache("oscillators", maxsize=8).get_prefix(
        (float(carrier_hz), float(sample_rate)),
        x.shape[-1],
        lambda n: np.exp(-1j * TWO_PI * carrier_hz * np.arange(n) / sample_rate),
    )
    return 2.0 * x * oscillator
