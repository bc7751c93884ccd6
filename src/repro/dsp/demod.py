"""The hydrophone-side backscatter demodulator.

Implements the paper's offline decode chain (Sec. 5.1b) end to end:

1. downconvert the passband recording at the channel's carrier,
2. Butterworth low-pass to isolate the channel,
3. CFO estimation and correction from the residual carrier,
4. carrier removal and projection of the backscatter modulation onto its
   complex signal direction,
5. packet detection by preamble correlation,
6. integrate-and-dump chip matched filtering,
7. maximum-likelihood (Viterbi) FM0 sequence decoding,
8. CRC verification and packet parsing,
9. SNR measurement from the channel estimate and decision residuals
   (exactly the estimator described in Sec. 6.1a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.fm0 import (
    CHIPS_PER_BIT,
    fm0_encode,
    fm0_expected_chips,
    fm0_ml_decode,
)
from repro.dsp.filters import butter_lowpass
from repro.dsp.packets import DEFAULT_FORMAT, FramingError, Packet, PacketFormat
from repro.dsp.sync import (
    PacketDetection,
    batched_preamble_correlation,
    correct_cfo,
    estimate_cfo,
)
from repro.dsp.waveforms import downconvert
from repro.perf.cache import get_cache


def _identity(taps: int) -> np.ndarray:
    """Read-only ``np.eye(taps)`` shared across equaliser calls."""
    eye = _EYE.get(taps)
    if eye is None:
        eye = np.eye(taps)
        eye.setflags(write=False)
        _EYE[taps] = eye
    return eye


_EYE: dict[int, np.ndarray] = {}


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
from repro.obs.probe import get_probes
from repro.perf.kernels import smart_convolve, stack_rows


@dataclass
class DemodResult:
    """Everything the demodulator extracted from one recording.

    Attributes
    ----------
    packet:
        The decoded packet, or ``None`` if none was recovered.
    bits:
        Raw decoded bit stream (including preamble) when a frame was
        detected.
    chip_amplitudes:
        Matched-filter output per chip (modulation units).
    snr_db:
        Post-processing SNR estimate [dB]; ``nan`` when unavailable.
    cfo_hz:
        Estimated carrier frequency offset [Hz].
    detection:
        Preamble detection details, or ``None``.
    error:
        Human-readable failure reason when ``packet`` is ``None``.
    """

    packet: Packet | None
    bits: np.ndarray
    chip_amplitudes: np.ndarray
    snr_db: float
    cfo_hz: float
    detection: PacketDetection | None
    error: str | None = None

    @property
    def success(self) -> bool:
        return self.packet is not None


class BackscatterDemodulator:
    """Decodes FM0 backscatter frames from a passband pressure recording.

    Parameters
    ----------
    carrier_hz:
        Channel carrier frequency.
    bitrate:
        Uplink bit rate [bit/s]; chips run at twice this.
    sample_rate:
        Recording sample rate [Hz].
    packet_format:
        Frame layout (preamble, header sizes).
    detection_threshold:
        Normalised preamble-correlation threshold.
    """

    def __init__(
        self,
        carrier_hz: float,
        bitrate: float,
        sample_rate: float,
        *,
        packet_format: PacketFormat = DEFAULT_FORMAT,
        detection_threshold: float = 0.5,
    ) -> None:
        if carrier_hz <= 0 or bitrate <= 0 or sample_rate <= 0:
            raise ValueError("carrier, bitrate, and sample rate must be positive")
        if 2.0 * bitrate * 4 > sample_rate:
            raise ValueError("sample rate too low for this bitrate")
        self.carrier_hz = carrier_hz
        self.bitrate = bitrate
        self.sample_rate = sample_rate
        self.packet_format = packet_format
        self.detection_threshold = detection_threshold

    @property
    def chip_rate(self) -> float:
        """FM0 chip rate, 2x the bit rate."""
        return CHIPS_PER_BIT * self.bitrate

    # -- stages -------------------------------------------------------------------

    def _channel_baseband(self, waveforms) -> np.ndarray:
        """Downconvert + channel low-pass, of one recording or row-wise of a stack."""
        cutoff = min(max(2.5 * self.chip_rate, 200.0), self.sample_rate / 2.5)
        return butter_lowpass(
            downconvert(waveforms, self.carrier_hz, self.sample_rate),
            cutoff,
            self.sample_rate,
        )

    def _derotated(self, baseband) -> tuple[np.ndarray, float]:
        """CFO estimate and correction of one channel-filtered baseband."""
        cfo = estimate_cfo(baseband, self.sample_rate)
        return correct_cfo(baseband, cfo, self.sample_rate), cfo

    def to_baseband(self, waveform) -> tuple[np.ndarray, float]:
        """Downconvert + channel filter + CFO correction."""
        return self._derotated(self._channel_baseband(waveform))

    def extract_modulation(self, baseband, *, track_phase: bool = True) -> np.ndarray:
        """Remove the carrier component and project onto the modulation axis.

        The backscatter signal is ``A + m(t) * B`` with a large constant
        ``A`` (direct projector arrival) and complex backscatter channel
        ``B``.  Subtracting the mean leaves ``~m(t) * B``; the angle of
        ``mean(x^2)`` is twice the angle of ``B``, giving the projection
        axis without training.

        With ``track_phase`` (default) the axis is re-estimated over
        sliding blocks of ~16 chips and interpolated, so a slowly
        rotating backscatter channel — a drifting node Doppler-shifts its
        reflection relative to the static direct carrier — still projects
        onto the right axis throughout the frame.
        """
        x = np.asarray(baseband) - np.mean(baseband)
        if len(x) == 0:
            return np.real(x)
        block = int(round(16 * self.sample_rate / self.chip_rate))
        n_blocks = len(x) // block if block > 0 else 0
        if not track_phase or n_blocks < 3:
            second_moment = np.mean(x**2)
            if abs(second_moment) < 1e-30:
                return np.real(x)
            theta = 0.5 * np.angle(second_moment)
            return np.real(x * np.exp(-1j * theta))
        # Blockwise second moments; unwrap the (double-angle) phase so the
        # axis varies smoothly, then interpolate per sample.  Smoothing
        # over neighbouring blocks keeps the estimate stable when a block
        # happens to carry little modulation energy.
        # All blocks are full-length, so the blockwise means reduce to a
        # reshape-mean (identical pairwise summation per row).
        moments = (
            np.ascontiguousarray(x[: n_blocks * block] ** 2)
            .reshape(n_blocks, block)
            .mean(axis=1)
        )
        if np.all(np.abs(moments) < 1e-30):
            return np.real(x)
        # Distinguish a genuinely rotating axis (Doppler) from noisy
        # block estimates on a static channel: if the block moments add
        # coherently, the axis is constant and the global estimate has
        # lower variance.
        coherence = abs(np.mean(moments)) / (np.mean(np.abs(moments)) + 1e-30)
        if coherence > 0.6:
            second_moment = np.mean(x**2)
            theta = 0.5 * np.angle(second_moment)
            return np.real(x * np.exp(-1j * theta))
        # Rotating axis: constant relative Doppler means the double-angle
        # phase advances linearly, so fit a weighted line rather than
        # following each noisy block estimate.
        kernel = np.ones(3) / 3.0
        smoothed = smart_convolve(moments, kernel, mode="same")
        angles = np.unwrap(np.angle(smoothed))
        centres = (np.arange(n_blocks) + 0.5) * block
        weights = np.abs(smoothed) + 1e-30
        slope, intercept = np.polyfit(centres, angles, 1, w=weights)
        theta = 0.5 * (intercept + slope * np.arange(len(x)))
        return np.real(x * np.exp(-1j * theta))

    def chip_matched_filter(self, modulation, start_index: int) -> np.ndarray:
        """Integrate-and-dump chip amplitudes from ``start_index``."""
        x = np.asarray(modulation, dtype=float)
        spc = self.sample_rate / self.chip_rate
        n_chips = int((len(x) - start_index) / spc)
        if n_chips <= 0:
            return np.zeros(0)
        spc_int = int(round(spc))
        if spc == spc_int:
            # Integral samples-per-chip (the common case): every chip
            # spans exactly spc samples, so a reshape-mean yields the
            # same per-chip means as slicing, without the Python loop.
            block = np.ascontiguousarray(
                x[start_index : start_index + n_chips * spc_int]
            )
            return block.reshape(n_chips, spc_int).mean(axis=1)
        amplitudes = np.empty(n_chips)
        for k in range(n_chips):
            a = start_index + int(round(k * spc))
            b = start_index + int(round((k + 1) * spc))
            amplitudes[k] = float(np.mean(x[a:b])) if b > a else 0.0
        return amplitudes

    # -- equalisation -----------------------------------------------------------------

    @staticmethod
    def equalize_chips(
        chip_amplitudes,
        training_chips,
        *,
        taps: int = 7,
        ridge: float = 1e-2,
    ) -> np.ndarray:
        """Preamble-trained linear (LS) equaliser over chip amplitudes.

        Enclosed tanks are strongly frequency selective (tens of dB of
        fading across a few kHz), which smears chips into each other.  A
        short FIR equaliser trained on the known preamble chips —
        received vs expected — undoes most of the inter-chip
        interference.  Ridge regularisation keeps the fit stable with the
        short training window.
        """
        r = np.asarray(chip_amplitudes, dtype=float)
        t = np.asarray(training_chips, dtype=float)
        if taps < 1 or taps % 2 == 0:
            raise ValueError("taps must be odd and positive")
        if len(t) < taps:
            return r.copy()
        half = taps // 2
        padded = np.concatenate([np.zeros(half), r, np.zeros(half)])
        n_train = min(len(t), len(r))
        # Row k is padded[k:k+taps]; a sliding-window view builds every
        # row at once (materialised contiguously for the BLAS products).
        all_rows = np.ascontiguousarray(
            np.lib.stride_tricks.sliding_window_view(padded, taps)
        )
        rows = all_rows[:n_train]
        gram = rows.T @ rows + ridge * _identity(taps) * float(
            np.mean(rows**2) + 1e-30
        ) * n_train
        weights = np.linalg.solve(gram, rows.T @ t[:n_train])
        return all_rows @ weights

    # -- the full chain -------------------------------------------------------------

    def demodulate(self, waveform, *, max_candidates: int = 5) -> DemodResult:
        """Run the complete decode chain on a passband recording.

        Reverberant channels smear the preamble, so the correlation peak
        of the true frame start is not always the global maximum.  The
        decoder therefore tries up to ``max_candidates`` correlation
        peaks (earliest first among the strong ones) and returns the
        first CRC-clean decode; failing that, the best-effort result of
        the strongest candidate.
        """
        result = self.demodulate_rows(
            np.asarray(waveform, dtype=float)[None],
            max_candidates=max_candidates,
        )[0]
        if isinstance(result, ValueError):
            raise result
        return result

    def demodulate_rows(self, waveforms, *, max_candidates: int = 5) -> list:
        """:meth:`demodulate` over an (N, samples) stack of recordings.

        Downconversion, the channel low-pass and the preamble correlation
        run once over the stack; the CFO estimate and correction, the
        modulation axis and the decode tail run per row.  Entry i is
        ``demodulate(waveforms[i])`` bit for bit, or the ``ValueError``
        that call raises when row i is too short for the CFO estimate.
        """
        results: list = []
        decodable = []  # (index, baseband, cfo, modulation)
        for row in self._channel_baseband(waveforms):
            try:
                baseband, cfo = self._derotated(row)
            except ValueError as exc:
                results.append(exc)
                continue
            decodable.append(
                (len(results), baseband, cfo, self.extract_modulation(baseband))
            )
            results.append(None)
        corrs = [None] * len(decodable)
        if decodable:
            try:
                corrs = batched_preamble_correlation(
                    stack_rows([modulation for *_, modulation in decodable]),
                    self.packet_format.preamble,
                    self.chip_rate,
                    self.sample_rate,
                )
            except ValueError:
                # Rows shorter than the preamble: each row's tail
                # reports the failed detection.
                pass
        for (i, baseband, cfo, modulation), corr in zip(decodable, corrs):
            results[i] = self.demodulate_from_baseband(
                baseband, cfo, max_candidates=max_candidates,
                corr=corr, modulation=modulation,
            )
        return results

    def demodulate_from_baseband(
        self,
        baseband,
        cfo: float,
        *,
        max_candidates: int = 5,
        corr=None,
        modulation=None,
    ) -> DemodResult:
        """Decode from an already CFO-corrected complex baseband.

        The per-row tail of :meth:`demodulate_rows`, which passes each
        row's preamble correlation from its stacked sync pass as
        ``corr`` and the row's modulation envelope as ``modulation``;
        either is computed here when omitted.
        """
        empty = np.zeros(0)
        if modulation is None:
            modulation = self.extract_modulation(baseband)
        try:
            candidates = self._detection_candidates(
                modulation, max_candidates, corr=corr
            )
        except ValueError as exc:
            return DemodResult(
                None, empty, empty, float("nan"), cfo, None, f"detection failed: {exc}"
            )
        if not candidates:
            return DemodResult(
                None, empty, empty, float("nan"), cfo, None, "no preamble found"
            )
        best: DemodResult | None = None
        for detection in candidates:
            result = self._decode_from(modulation, detection, cfo)
            if result.success:
                return result
            if best is None:
                best = result
        return best

    def _detection_candidates(
        self, modulation, max_candidates: int, *, corr=None
    ) -> list[PacketDetection]:
        """Strong preamble-correlation peaks, most promising first."""
        from repro.dsp.sync import preamble_correlation

        if corr is None:
            corr = preamble_correlation(
                modulation,
                self.packet_format.preamble,
                self.chip_rate,
                self.sample_rate,
            )
        mags = np.abs(corr)
        probes = get_probes()
        if probes.wants("sync.detect_packet"):
            from repro.dsp.sync import publish_sync_tap

            publish_sync_tap(
                probes, corr, modulation, self.chip_rate, self.sample_rate,
                peak=float(mags.max()) if len(mags) else 0.0,
                threshold=float(self.detection_threshold),
            )
        if not len(mags) or mags.max() < self.detection_threshold:
            return []
        spc = int(round(self.sample_rate / self.chip_rate))
        order = np.argsort(mags)[::-1]
        picked: list[int] = []
        for idx in order:
            if mags[idx] < self.detection_threshold:
                break
            if all(abs(idx - p) > spc for p in picked):
                picked.append(int(idx))
            if len(picked) >= max_candidates:
                break
        # Earliest strong peak is usually the direct arrival.
        picked.sort()
        return [
            PacketDetection(
                start_index=i, metric=float(mags[i]), inverted=corr[i] < 0
            )
            for i in picked
        ]

    def _decode_from(
        self, modulation, detection: PacketDetection, cfo: float
    ) -> DemodResult:
        """Decode a frame assuming it starts at one detection candidate."""
        empty = np.zeros(0)
        chips = self.chip_matched_filter(modulation, detection.start_index)
        if detection.inverted:
            chips = -chips
        # Trim to an even chip count for FM0.
        if len(chips) % 2:
            chips = chips[:-1]
        overhead_chips = self.packet_format.overhead_bits() * CHIPS_PER_BIT
        if len(chips) < overhead_chips:
            return DemodResult(
                None, empty, chips, float("nan"), cfo, detection, "frame truncated"
            )
        # Undo inter-chip interference with the preamble-trained equaliser.
        # The preamble is fixed per packet format, so its expected chips
        # are memoised (read-only) alongside the sync templates.
        preamble = self.packet_format.preamble
        preamble_chips = get_cache("sync_templates").get_or_compute(
            ("preamble_chips", tuple(int(b) for b in preamble)),
            lambda: _readonly(fm0_expected_chips(preamble)),
        )
        raw_chips = chips.copy()
        chips = self.equalize_chips(chips - np.mean(chips), preamble_chips)
        # Two-pass decode: the frame length is only known after the header,
        # and chips past the frame end are garbage that would bias the
        # Viterbi terminal state.  Decode preamble+header first, read the
        # length field, then decode exactly the frame's chips.
        n_pre = len(self.packet_format.preamble)
        header_chips = chips[: (n_pre + 16) * CHIPS_PER_BIT]
        header_bits = fm0_ml_decode(header_chips - np.mean(header_chips))
        length_bits = header_bits[n_pre + 8 : n_pre + 16]
        payload_len = int(np.packbits(length_bits.astype(np.uint8))[0])
        total_chips = (
            self.packet_format.overhead_bits() + 8 * payload_len
        ) * CHIPS_PER_BIT
        if len(chips) < total_chips:
            return DemodResult(
                None, empty, chips, float("nan"), cfo, detection, "frame truncated"
            )
        chips = chips[:total_chips]
        bits = fm0_ml_decode(chips - np.mean(chips))
        # Detection already located the preamble by correlation; trust it
        # rather than the bit-by-bit re-decode (the CRC still guards the
        # payload).
        bits[:n_pre] = self.packet_format.preamble_bits
        snr = self._estimate_snr(chips - np.mean(chips), bits)
        try:
            packet = Packet.from_bits(bits, self.packet_format)
            return DemodResult(packet, bits, chips, snr, cfo, detection, None)
        except FramingError:
            pass
        # Decision-directed second pass: re-train the equaliser on the
        # whole tentatively decoded frame (not just the preamble) and
        # decode again.  Standard practice on frequency-selective
        # underwater channels; the CRC still arbitrates.
        tentative = fm0_expected_chips(bits)
        chips2 = self.equalize_chips(
            raw_chips[:total_chips] - np.mean(raw_chips[:total_chips]),
            tentative,
            taps=11,
        )
        bits2 = fm0_ml_decode(chips2 - np.mean(chips2))
        bits2[:n_pre] = self.packet_format.preamble_bits
        snr2 = self._estimate_snr(chips2 - np.mean(chips2), bits2)
        try:
            packet = Packet.from_bits(bits2, self.packet_format)
            return DemodResult(packet, bits2, chips2, snr2, cfo, detection, None)
        except FramingError as exc:
            if snr2 > snr:
                bits, chips, snr = bits2, chips2, snr2
            return DemodResult(
                None, bits, chips, snr, cfo, detection, f"framing: {exc}"
            )

    # -- measurements ----------------------------------------------------------------

    def _estimate_snr(self, chip_amplitudes, bits) -> float:
        """Paper Sec. 6.1a SNR estimator.

        Signal power is the squared channel estimate; noise power the mean
        squared difference between the received chips and the re-encoded
        chips scaled by the channel estimate.
        """
        expected = fm0_encode(bits).astype(float) * 2.0 - 1.0
        n = min(len(expected), len(chip_amplitudes))
        if n == 0:
            return float("nan")
        rx = np.asarray(chip_amplitudes[:n], dtype=float)
        tx = expected[:n]
        denom = float(np.dot(tx, tx))
        if denom == 0:
            return float("nan")
        h = float(np.dot(rx, tx)) / denom
        noise = float(np.mean((rx - h * tx) ** 2))
        if noise <= 0:
            return float("inf")
        return 10.0 * float(np.log10(h**2 / noise))
