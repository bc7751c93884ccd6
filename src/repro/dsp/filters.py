"""Filtering and envelope detection.

The paper's receiver "employs a Butterworth filter on each of the receive
channels to isolate the signal of interest and reduce interference from
concurrent transmissions" (Sec. 5.1b); the node's downlink decoder is a
bare envelope detector (Sec. 4.2.1).
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from repro.perf.cache import get_cache
from repro.perf.kernels import smart_convolve


def _butter_sos(
    order: int, cutoff, sample_rate: float, btype: str
) -> np.ndarray:
    """Cached Butterworth SOS design.

    ``signal.butter`` re-solves the analog prototype and bilinear
    transform on every call (~7 ms for order 4); the receiver designs
    the same handful of filters for every transaction, so the SOS
    matrices are memoized by their full design key.  The cached matrix
    is frozen read-only, and scipy's ``sosfilt`` kernel requires a
    writable buffer, so callers get a fresh copy (a few dozen floats).
    """
    key = (order, cutoff, sample_rate, btype)
    return get_cache("fir_kernels").get_or_compute(
        key,
        lambda: signal.butter(
            order, list(cutoff) if btype == "band" else cutoff,
            btype=btype, fs=sample_rate, output="sos",
        ),
    ).copy()


def _sosfiltfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sosfiltfilt`` along the last axis; a complex input in one call.

    The real and imaginary parts of a complex input are filtered as two
    rows of one stack: rows are independent, so each part is
    bit-identical to its own call, and the filter's initial conditions
    are set up once instead of twice.
    """
    if np.iscomplexobj(x):
        parts = signal.sosfiltfilt(sos, np.stack([x.real, x.imag]), axis=-1)
        return parts[0] + 1j * parts[1]
    return signal.sosfiltfilt(sos, x, axis=-1)


def butter_lowpass(
    waveform,
    cutoff_hz: float,
    sample_rate: float,
    *,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter (works on complex data).

    Accepts a 1-D waveform or an (N, samples) stack filtered along the
    last axis; ``sosfiltfilt`` along ``axis=-1`` is bit-identical to the
    per-row 1-D call, so the batched engine shares this code path.
    """
    x = np.asarray(waveform)
    if x.ndim not in (1, 2):
        raise ValueError("waveform must be 1-D or an (N, samples) stack")
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError("cutoff must be in (0, Nyquist)")
    if order < 1:
        raise ValueError("order must be >= 1")
    sos = _butter_sos(order, float(cutoff_hz), float(sample_rate), "low")
    return _sosfiltfilt(sos, x)


def butter_bandpass(
    waveform,
    low_hz: float,
    high_hz: float,
    sample_rate: float,
    *,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth band-pass filter (1-D or (N, samples))."""
    x = np.asarray(waveform)
    if x.ndim not in (1, 2):
        raise ValueError("waveform must be 1-D or an (N, samples) stack")
    if not 0 < low_hz < high_hz < sample_rate / 2:
        raise ValueError("need 0 < low < high < Nyquist")
    if order < 1:
        raise ValueError("order must be >= 1")
    sos = _butter_sos(
        order, (float(low_hz), float(high_hz)), float(sample_rate), "band"
    )
    return _sosfiltfilt(sos, x)


def envelope_detect(
    waveform,
    carrier_hz: float,
    sample_rate: float,
    *,
    cutoff_hz: float | None = None,
) -> np.ndarray:
    """Diode-style envelope detection of an amplitude-modulated carrier.

    Rectify (absolute value) then low-pass at ``cutoff_hz`` (default: a
    tenth of the carrier), scaled so a unit-amplitude steady tone yields
    an envelope of ~1.  This is the node-side PWM detector.
    """
    x = np.asarray(waveform, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("waveform must be 1-D or an (N, samples) stack")
    if carrier_hz <= 0:
        raise ValueError("carrier must be positive")
    if cutoff_hz is None:
        cutoff_hz = carrier_hz / 10.0
    rectified = np.abs(x)
    smoothed = butter_lowpass(rectified, cutoff_hz, sample_rate)
    # A full-wave-rectified unit sine averages 2/pi.
    return smoothed * (np.pi / 2.0)


def decimate_to_rate(
    waveform,
    sample_rate: float,
    target_rate: float,
) -> tuple[np.ndarray, float]:
    """Integer-factor decimation to approximately ``target_rate``.

    Returns ``(decimated, actual_rate)``.  Anti-alias filtering is
    applied for real signals; complex signals are filtered per part.
    """
    x = np.asarray(waveform)
    if x.ndim != 1:
        raise ValueError("waveform must be one-dimensional")
    if target_rate <= 0 or sample_rate <= 0:
        raise ValueError("rates must be positive")
    factor = max(int(sample_rate // target_rate), 1)
    if factor == 1:
        return x.copy(), sample_rate
    if np.iscomplexobj(x):
        real = signal.decimate(x.real, factor, zero_phase=True)
        imag = signal.decimate(x.imag, factor, zero_phase=True)
        return real + 1j * imag, sample_rate / factor
    return signal.decimate(x, factor, zero_phase=True), sample_rate / factor


def matched_filter_chip(
    baseband,
    samples_per_chip: int,
) -> np.ndarray:
    """Integrate-and-dump matched filter for rectangular chips.

    Convolves with a length-``samples_per_chip`` boxcar normalised to unit
    gain; the output at chip centres is the per-chip mean amplitude.
    """
    x = np.asarray(baseband)
    if x.ndim != 1:
        raise ValueError("baseband must be one-dimensional")
    if samples_per_chip < 1:
        raise ValueError("samples_per_chip must be >= 1")
    kernel = np.ones(samples_per_chip) / samples_per_chip
    return smart_convolve(x, kernel, mode="same")
