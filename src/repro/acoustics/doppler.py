"""Doppler effects for mobile nodes (paper Sec. 8: "Operation Environment").

The paper's discussion notes that rivers, lakes, and oceans "are also
likely to introduce new challenges, such as mobility and multipath".
This module provides the standard narrowband and wideband Doppler models
so links can be simulated with moving nodes:

* :func:`doppler_shift_hz` — carrier shift for a radial velocity,
* :func:`doppler_factor` — the time-compression factor ``1 + v/c``,
* :func:`apply_doppler` — wideband resampling of a waveform (acoustic
  Doppler is *not* a pure frequency shift at these fractional
  bandwidths; the whole waveform dilates),
* :func:`apply_doppler_at` — the same dilation of one segment of a
  longer waveform, kept in that waveform's sample frame.

Sign convention: positive ``radial_velocity_mps`` means the endpoints
are closing (approaching), which raises the received frequency.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NOMINAL_SOUND_SPEED


def doppler_factor(
    radial_velocity_mps: float,
    sound_speed: float = NOMINAL_SOUND_SPEED,
) -> float:
    """Time-compression factor ``a = 1 + v/c`` of the received waveform."""
    if sound_speed <= 0:
        raise ValueError("sound speed must be positive")
    if abs(radial_velocity_mps) >= sound_speed:
        raise ValueError("velocity must be below the sound speed")
    return 1.0 + radial_velocity_mps / sound_speed


def doppler_shift_hz(
    frequency_hz: float,
    radial_velocity_mps: float,
    sound_speed: float = NOMINAL_SOUND_SPEED,
) -> float:
    """Carrier frequency shift [Hz] for a radial velocity."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return frequency_hz * (doppler_factor(radial_velocity_mps, sound_speed) - 1.0)


def apply_doppler(
    waveform,
    radial_velocity_mps: float,
    sample_rate: float,
    sound_speed: float = NOMINAL_SOUND_SPEED,
) -> np.ndarray:
    """Wideband Doppler: resample the waveform by the compression factor.

    Underwater platforms move at non-negligible fractions of the sound
    speed (1 m/s is ~67 ppm at 1.5 km/s — already several Hz at 15 kHz),
    and acoustic links are wideband relative to RF, so the correct model
    is a time-axis dilation, implemented here by linear-interpolated
    resampling.  Output length is ``len(input) / a`` (closing targets
    compress the waveform).
    """
    x = np.asarray(waveform, dtype=float)
    if x.ndim != 1:
        raise ValueError("waveform must be one-dimensional")
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    a = doppler_factor(radial_velocity_mps, sound_speed)
    if len(x) < 2 or a == 1.0:
        return x.copy()
    n_out = max(int(np.floor(len(x) / a)), 1)
    # Received sample k corresponds to transmitted time k * a / fs.
    positions = np.arange(n_out) * a
    return np.interp(positions, np.arange(len(x)), x)


def apply_doppler_at(
    segment,
    offset: int,
    length: int,
    radial_velocity_mps: float,
    sound_speed: float = NOMINAL_SOUND_SPEED,
) -> np.ndarray:
    """Wideband Doppler of a segment of a longer waveform, in its sample frame.

    ``segment`` holds samples ``offset`` to ``offset + len(segment)`` of
    a ``length``-sample waveform that is zero elsewhere.  Returns the
    same samples of :func:`apply_doppler` of the whole waveform, zero-
    padded or cut to ``length``.  Dilation is linear, so a stage that
    changes a short window of a long waveform can dilate the change
    alone; with ``offset`` 0 and the whole waveform as ``segment`` it is
    the whole dilation.
    """
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1:
        raise ValueError("segment must be one-dimensional")
    a = doppler_factor(radial_velocity_mps, sound_speed)
    if a == 1.0:
        return x.copy()
    # Received sample k corresponds to transmitted sample k * a; the
    # waveform is zero on either side of the segment.
    received = offset + np.arange(len(x))
    out = np.interp(
        received * a - offset,
        np.arange(-1, len(x) + 1),
        np.concatenate(([0.0], x, [0.0])),
    )
    out[received >= min(length, int(np.floor(length / a)))] = 0.0
    return out


def max_tolerable_velocity_mps(
    bitrate: float,
    packet_bits: int,
    sample_rate: float,
    sound_speed: float = NOMINAL_SOUND_SPEED,
    *,
    max_chip_slip: float = 0.5,
) -> float:
    """Largest radial speed before Doppler slips chip timing by
    ``max_chip_slip`` chips over one packet.

    A design aid for the mobility discussion: without Doppler tracking,
    the chip clock drifts by ``v/c`` per second, so long packets at high
    bitrates bound the tolerable platform speed.
    """
    if bitrate <= 0 or packet_bits <= 0:
        raise ValueError("bitrate and packet size must be positive")
    packet_s = packet_bits / bitrate
    chip_s = 1.0 / (2.0 * bitrate)
    # slip = (v / c) * packet_s; require slip <= max_chip_slip * chip_s.
    return max_chip_slip * chip_s / packet_s * sound_speed
