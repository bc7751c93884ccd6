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


def _butter_design(
    order: int, cutoff, sample_rate: float, btype: str
) -> tuple[np.ndarray, np.ndarray]:
    """Cached Butterworth design: ``(sos, zi)`` for :func:`_sosfiltfilt`.

    ``signal.butter`` re-solves the analog prototype and bilinear
    transform on every call (~7 ms for order 4), and ``sosfilt_zi``
    solves one linear system per section; the receiver designs the same
    handful of filters for every transaction, so both are memoized by
    the full design key and frozen read-only.  scipy's ``sosfilt``
    kernel rejects a read-only SOS buffer, so callers get a fresh copy
    of the SOS (a few dozen floats) and the shared ``zi``, which is only
    ever scaled into a new array.
    """
    key = (order, cutoff, sample_rate, btype)

    def design():
        sos = signal.butter(
            order, list(cutoff) if btype == "band" else cutoff,
            btype=btype, fs=sample_rate, output="sos",
        )
        return sos, signal.sosfilt_zi(sos)

    sos, zi = get_cache("fir_kernels").get_or_compute(key, design)
    return sos.copy(), zi


def _sosfiltfilt(sos: np.ndarray, zi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero-phase ``sosfilt`` forward and back along the last axis.

    ``scipy.signal.sosfiltfilt(sos, x, axis=-1)`` bit for bit, for a 1-D
    input or an (N, samples) stack, without re-deriving the design's
    initial conditions: ``zi`` is its ``sosfilt_zi(sos)``, cached with
    the design (:func:`_butter_design`).  The steps are scipy's own:
    an odd extension of ``3 * ntaps`` samples at both ends (scipy's
    ``ValueError`` for an input no longer than that), a ``sosfilt``
    pass started from ``zi`` scaled by the first sample, a second pass
    over the reversed output started from ``zi`` scaled by its last
    sample, then the reversal and the cut.  The real and imaginary
    parts of a complex input are filtered as rows of one stack: rows
    are independent, so each part is bit-identical to its own call.
    """
    if np.iscomplexobj(x):
        parts = _sosfiltfilt(sos, zi, np.stack([x.real, x.imag]))
        return parts[0] + 1j * parts[1]
    ntaps = 2 * len(sos) + 1 - min(
        int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum())
    )
    edge = 3 * ntaps
    if x.shape[-1] <= edge:
        raise ValueError(
            "The length of the input vector x must be greater than padlen, "
            f"which is {edge}."
        )
    ext = np.concatenate(
        (
            2 * x[..., :1] - x[..., edge:0:-1],
            x,
            2 * x[..., -1:] - x[..., -2 : -(edge + 2) : -1],
        ),
        axis=-1,
    )
    zi = zi.reshape(zi.shape[:1] + (1,) * (x.ndim - 1) + zi.shape[1:])
    y = signal.sosfilt(sos, ext, axis=-1, zi=zi * ext[..., :1])[0]
    y = signal.sosfilt(sos, y[..., ::-1], axis=-1, zi=zi * y[..., -1:])[0]
    return y[..., ::-1][..., edge:-edge]


def butter_lowpass(
    waveform,
    cutoff_hz: float,
    sample_rate: float,
    *,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter (works on complex data).

    Accepts a 1-D waveform or an (N, samples) stack filtered along the
    last axis; each row is bit-identical to its own 1-D call, so the
    batched engine shares this code path.
    """
    x = np.asarray(waveform)
    if x.ndim not in (1, 2):
        raise ValueError("waveform must be 1-D or an (N, samples) stack")
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError("cutoff must be in (0, Nyquist)")
    if order < 1:
        raise ValueError("order must be >= 1")
    sos, zi = _butter_design(order, float(cutoff_hz), float(sample_rate), "low")
    return _sosfiltfilt(sos, zi, x)


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
    sos, zi = _butter_design(
        order, (float(low_hz), float(high_hz)), float(sample_rate), "band"
    )
    return _sosfiltfilt(sos, zi, x)


def zero_phase_gain(
    freqs,
    cutoff,
    sample_rate: float,
    *,
    order: int = 4,
    btype: str = "low",
) -> np.ndarray:
    """``|H(f)|^2`` of a zero-phase Butterworth filter at ``freqs`` [Hz].

    The gain :func:`butter_lowpass` (``btype="low"``, ``cutoff`` in Hz)
    or :func:`butter_bandpass` (``btype="band"``, ``cutoff`` a
    ``(low, high)`` tuple) applies away from the signal's ends: the same
    cached design, evaluated on the unit circle, once forward and once
    back.
    """
    sos, _zi = _butter_design(order, cutoff, sample_rate, btype)
    z = np.exp((-2j * np.pi / sample_rate) * np.asarray(freqs, dtype=float))
    h = np.ones_like(z)
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + z * (b1 + z * b2)) / (a0 + z * (a1 + z * a2))
    return h.real**2 + h.imag**2


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
