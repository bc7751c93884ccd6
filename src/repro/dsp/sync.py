"""Synchronisation: packet detection, preamble correlation, CFO handling.

The paper's offline decoder "performs standard packet detection and
carrier frequency offset (CFO) correction using the preamble"
(Sec. 5.1b) — the projector and hydrophone hang off different sound
cards, so their oscillators disagree.  The same structure appears here:

* :func:`estimate_cfo` measures the residual rotation of the complex
  baseband (dominated by the projector's carrier leak-through),
* :func:`correct_cfo` derotates,
* :func:`preamble_correlation` / :func:`detect_packet` find the chip
  timing of a backscatter frame by correlating against the known
  preamble's FM0 chip template.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from repro.constants import TWO_PI
from repro.dsp.fm0 import fm0_expected_chips
from repro.dsp.waveforms import upconvert_chips
from repro.obs.probe import get_probes
from repro.perf.cache import get_cache
from repro.perf.kernels import (
    batched_convolve,
    batched_correlate,
    convolution_regime,
)


def publish_sync_tap(
    probes,
    corr,
    modulation,
    chip_rate: float,
    sample_rate: float,
    *,
    peak: float,
    threshold: float,
    **extra,
):
    """Publish a ``sync.detect_packet`` probe tap for one correlation.

    Shared by :func:`detect_packet` and the demodulator's candidate
    search so both report the same diagnostics: the correlation peak,
    its threshold margin, the peak's significance in sigma of the
    correlation magnitudes, and the chip-timing estimate of the
    underlying modulation (computed at full rate before decimation).
    """
    mags = np.abs(corr)
    sigma = float(np.std(mags)) if len(mags) else 0.0
    from repro.dsp.spectral import symbol_timing_estimate

    timing = symbol_timing_estimate(modulation, chip_rate, sample_rate)
    return probes.capture(
        "sync.detect_packet", "correlation",
        waveform=corr, sample_rate=sample_rate,
        peak=peak, threshold=threshold, margin=peak - threshold,
        peak_sigma=peak / sigma if sigma > 0 else float("inf"),
        found=peak >= threshold,
        timing_offset_chips=timing["timing_offset_chips"],
        timing_line_strength=timing["line_strength"],
        **extra,
    )


def estimate_cfo(
    baseband,
    sample_rate: float,
    *,
    lag_s: float = 1e-3,
    n_windows: int = 24,
) -> float:
    """Estimate carrier frequency offset [Hz] of a complex baseband signal.

    The baseband is ``A*exp(j*2*pi*df*t) + modulation``: averaging over
    windows much longer than a chip suppresses the (zero-mean backscatter)
    modulation and leaves the rotating carrier leak.  The offset is the
    phase advance between consecutive window means.  This estimator is
    unbiased by strong modulation, unlike a plain lag-autocorrelation on
    the raw signal, and is unambiguous for offsets below
    ``n_windows / (2 * duration)``.
    """
    x = np.asarray(baseband)
    if x.ndim != 1:
        raise ValueError("baseband must be one-dimensional")
    if sample_rate <= 0 or lag_s <= 0:
        raise ValueError("sample rate and lag must be positive")
    min_len = max(int(round(lag_s * sample_rate)), 1) + 1
    if len(x) < max(min_len, n_windows):
        raise ValueError("signal shorter than the correlation lag")
    window = max(len(x) // n_windows, 1)
    n_win = len(x) // window
    # Every window is full-length, so a reshape-mean computes the same
    # per-window means as slicing (same pairwise summation per row).
    means = np.ascontiguousarray(x[: n_win * window]).reshape(
        n_win, window
    ).mean(axis=1)
    if len(means) < 2:
        return 0.0
    # Phase advance between consecutive window means.
    rotations = means[1:] * np.conjugate(means[:-1])
    acc = np.sum(rotations)
    if abs(acc) < 1e-30:
        return 0.0
    return float(np.angle(acc)) / (TWO_PI * window / sample_rate)


def correct_cfo(baseband, cfo_hz: float, sample_rate: float) -> np.ndarray:
    """Derotate a complex baseband signal by ``cfo_hz``."""
    x = np.asarray(baseband)
    if x.ndim != 1:
        raise ValueError("baseband must be one-dimensional")
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    n = np.arange(len(x))
    return x * np.exp(-1j * TWO_PI * cfo_hz * n / sample_rate)


def preamble_template(
    preamble_bits,
    chip_rate: float,
    sample_rate: float,
    *,
    initial_level: int = 1,
) -> np.ndarray:
    """Sample-level bipolar FM0 template of a preamble.

    Memoized: every transaction correlates against the same handful of
    preambles, so the chip expansion + upconversion runs once per
    ``(preamble, rates)`` key.  The returned array is shared and marked
    read-only.
    """
    key = (
        tuple(int(b) for b in preamble_bits),
        float(chip_rate),
        float(sample_rate),
        int(initial_level),
    )

    def compute() -> np.ndarray:
        chips = fm0_expected_chips(preamble_bits, initial_level=initial_level)
        return upconvert_chips(chips, chip_rate, sample_rate)

    return get_cache("sync_templates").get_or_compute(key, compute)


def _normalised(template: np.ndarray) -> np.ndarray:
    """The template scaled to unit energy."""
    return template / np.sqrt(np.sum(template**2))


def _template_spectra(
    preamble_bits, chip_rate: float, sample_rate: float, n_fft: int
) -> tuple[np.ndarray, np.ndarray]:
    """rffts of the reversed unit-energy template and of the energy window.

    Both at ``n_fft`` points: the kernels :func:`scipy.signal.fftconvolve`
    would transform on every call, transformed once per
    ``(preamble, rates, n_fft)`` and kept read-only in ``sync_templates``.
    """
    key = (
        "spectra",
        tuple(int(b) for b in preamble_bits),
        float(chip_rate),
        float(sample_rate),
        int(n_fft),
    )

    def compute():
        template = preamble_template(preamble_bits, chip_rate, sample_rate)
        return (
            scipy.fft.rfft(_normalised(template)[::-1], n=n_fft),
            scipy.fft.rfft(np.ones(len(template)), n=n_fft),
        )

    return get_cache("sync_templates").get_or_compute(key, compute)


def preamble_correlation(
    modulation,
    preamble_bits,
    chip_rate: float,
    sample_rate: float,
) -> np.ndarray:
    """Normalised sliding correlation against the preamble template.

    ``modulation`` should be a real, roughly zero-mean waveform (the
    backscatter modulation after carrier removal).  Output values near
    +-1 mark template-aligned positions.  The one-row call of
    :func:`batched_preamble_correlation`.
    """
    x = np.asarray(modulation, dtype=float)
    if x.ndim != 1:
        raise ValueError("modulation must be one-dimensional")
    return batched_preamble_correlation(
        x[None], preamble_bits, chip_rate, sample_rate
    )[0]


def batched_preamble_correlation(
    modulations,
    preamble_bits,
    chip_rate: float,
    sample_rate: float,
) -> np.ndarray:
    """:func:`preamble_correlation` over an (N, samples) stack of rows.

    Each row is correlated against the unit-energy preamble template
    and divided by the square root of its local energy under the
    template (the sum of ``x**2`` over the window), so the metric is
    scale-free.  Both products run in the regime
    :func:`repro.perf.kernels.convolution_regime` picks for the row
    length and template length.  In the FFT regime — the receiver's
    ~9k-sample segments — the stack and its square take one
    rfft/irfft pair each against the two kernel spectra cached per
    transform length (:func:`_template_spectra`), at scipy's
    ``next_fast_len(n + m - 1)``, and keep the 'valid' samples
    ``m - 1 .. n - 1``: :func:`scipy.signal.fftconvolve`'s arithmetic
    without re-transforming the fixed kernels.  The direct and
    overlap-add regimes call :func:`repro.perf.kernels.batched_correlate`
    and :func:`~repro.perf.kernels.batched_convolve`.  Every regime
    treats each row with the plan a lone row would get, so row *i* is
    bit-identical to ``preamble_correlation(modulations[i], ...)``.
    """
    X = np.asarray(modulations, dtype=float)
    if X.ndim == 1:
        return preamble_correlation(X, preamble_bits, chip_rate, sample_rate)
    if X.ndim != 2:
        raise ValueError("modulations must be 1-D or an (N, samples) stack")
    template = preamble_template(preamble_bits, chip_rate, sample_rate)
    n, m = X.shape[-1], len(template)
    if m == 0 or n < m:
        raise ValueError("waveform shorter than the preamble")
    if convolution_regime(n, m) == "fft":
        n_fft = scipy.fft.next_fast_len(n + m - 1, real=True)
        reversed_template, window = _template_spectra(
            preamble_bits, chip_rate, sample_rate, n_fft
        )
        corr = scipy.fft.irfft(
            scipy.fft.rfft(X, n=n_fft, axis=-1) * reversed_template,
            n=n_fft, axis=-1,
        )[:, m - 1 : n]
        energy = scipy.fft.irfft(
            scipy.fft.rfft(X**2, n=n_fft, axis=-1) * window, n=n_fft, axis=-1
        )[:, m - 1 : n]
    else:
        corr = batched_correlate(X, _normalised(template), mode="valid")
        energy = batched_convolve(X**2, np.ones(m), mode="valid")
    return corr / np.sqrt(np.maximum(energy, 1e-30))


@dataclass(frozen=True)
class PacketDetection:
    """Result of packet detection.

    Attributes
    ----------
    start_index:
        Sample index of the first preamble chip.
    metric:
        Normalised correlation value at the peak (|metric| <= 1).
    inverted:
        Whether the modulation polarity is flipped relative to the
        template (reflective state mapping to the lower level).
    """

    start_index: int
    metric: float
    inverted: bool


def detect_packet(
    modulation,
    preamble_bits,
    chip_rate: float,
    sample_rate: float,
    *,
    threshold: float = 0.5,
) -> PacketDetection | None:
    """Find a frame start by preamble correlation.

    Returns ``None`` when no correlation magnitude clears ``threshold``.
    Polarity ambiguity (the decoder cannot know a priori whether
    "reflective" is the larger or smaller amplitude) is resolved by
    taking the absolute peak and reporting ``inverted``.

    In reverberant channels the template also correlates with late
    echoes; the detector therefore picks the *earliest* peak within 90%
    of the global maximum, which is the direct arrival.
    """
    corr = preamble_correlation(modulation, preamble_bits, chip_rate, sample_rate)
    mags = np.abs(corr)
    global_peak = float(mags.max()) if len(mags) else 0.0
    probes = get_probes()
    if probes.wants("sync.detect_packet"):
        publish_sync_tap(
            probes, corr, modulation, chip_rate, sample_rate,
            peak=global_peak, threshold=float(threshold),
        )
    if global_peak < threshold:
        return None
    candidates = np.nonzero(mags >= 0.9 * global_peak)[0]
    peak = int(candidates[0])
    value = float(corr[peak])
    return PacketDetection(
        start_index=peak, metric=abs(value), inverted=value < 0
    )
