"""Tests for synchronisation and the full demodulator."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dsp import (
    BackscatterDemodulator,
    Packet,
    correct_cfo,
    detect_packet,
    estimate_cfo,
    fm0_encode,
    tone,
)
from repro.dsp.sync import preamble_template
from repro.dsp.waveforms import upconvert_chips

FS = 96_000.0
CARRIER = 15_000.0
BITRATE = 1_000.0


def synth_backscatter(
    packet: Packet,
    *,
    carrier_amp=1.0,
    mod_amp=0.1,
    mod_phase=0.7,
    noise=0.0,
    cfo=0.0,
    pad_s=0.01,
    seed=0,
    bitrate=BITRATE,
):
    """Synthetic hydrophone recording: carrier + backscatter + noise."""
    chips = fm0_encode(packet.to_bits()).astype(float)
    m = upconvert_chips(chips, 2 * bitrate, FS)
    pad = np.zeros(int(pad_s * FS))
    m = np.concatenate([pad, m, pad])
    t = np.arange(len(m)) / FS
    f = CARRIER + cfo
    y = carrier_amp * np.sin(2 * np.pi * f * t)
    y += mod_amp * m * np.sin(2 * np.pi * f * t + mod_phase)
    if noise > 0:
        y += np.random.default_rng(seed).normal(0, noise, len(y))
    return y


class TestCFO:
    def test_estimate_pure_offset(self):
        bb = np.exp(2j * np.pi * 3.0 * np.arange(int(FS)) / FS)
        assert estimate_cfo(bb, FS) == pytest.approx(3.0, abs=0.01)

    def test_correct_removes_rotation(self):
        bb = np.exp(2j * np.pi * 3.0 * np.arange(int(FS)) / FS)
        fixed = correct_cfo(bb, 3.0, FS)
        assert np.std(np.angle(fixed)) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_cfo(np.ones(5), FS, lag_s=1.0)
        with pytest.raises(ValueError):
            estimate_cfo(np.ones(100), 0.0)


class TestDetection:
    def test_finds_preamble_position(self):
        preamble = (1, 1, 1, 0, 1, 0, 0, 1, 0)
        template = preamble_template(preamble, 2 * BITRATE, FS)
        offset = 1234
        x = np.concatenate(
            [np.zeros(offset), template, np.zeros(500)]
        ) + np.random.default_rng(1).normal(0, 0.05, offset + len(template) + 500)
        det = detect_packet(x, preamble, 2 * BITRATE, FS)
        assert det is not None
        assert det.start_index == pytest.approx(offset, abs=3)
        assert not det.inverted

    def test_detects_inverted_polarity(self):
        preamble = (1, 1, 1, 0, 1, 0, 0, 1, 0)
        template = preamble_template(preamble, 2 * BITRATE, FS)
        x = np.concatenate([np.zeros(700), -template, np.zeros(300)])
        det = detect_packet(x, preamble, 2 * BITRATE, FS)
        assert det is not None and det.inverted

    def test_none_on_noise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1.0, 5000)
        det = detect_packet(x, (1, 1, 1, 0, 1, 0, 0, 1, 0), 2 * BITRATE, FS,
                            threshold=0.9)
        assert det is None

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            detect_packet(np.zeros(10), (1, 0, 1, 1, 0), 2 * BITRATE, FS)


class TestDemodulator:
    def test_clean_roundtrip(self):
        p = Packet(address=7, payload=b"sensor data 123")
        y = synth_backscatter(p, noise=0.01)
        res = BackscatterDemodulator(CARRIER, BITRATE, FS).demodulate(y)
        assert res.success
        assert res.packet == p

    def test_cfo_estimated_and_tolerated(self):
        p = Packet(address=1, payload=b"abcdef")
        y = synth_backscatter(p, cfo=0.8, noise=0.01)
        res = BackscatterDemodulator(CARRIER, BITRATE, FS).demodulate(y)
        assert res.success
        assert res.cfo_hz == pytest.approx(0.8, abs=0.05)

    def test_snr_decreases_with_noise(self):
        p = Packet(address=1, payload=b"abcdef")
        quiet = BackscatterDemodulator(CARRIER, BITRATE, FS).demodulate(
            synth_backscatter(p, noise=0.005)
        )
        loud = BackscatterDemodulator(CARRIER, BITRATE, FS).demodulate(
            synth_backscatter(p, noise=0.05)
        )
        assert quiet.success
        assert quiet.snr_db > loud.snr_db

    def test_fails_gracefully_on_pure_noise(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 1.0, int(0.2 * FS))
        dem = BackscatterDemodulator(CARRIER, BITRATE, FS, detection_threshold=0.9)
        res = dem.demodulate(y)
        assert not res.success
        assert res.error is not None

    def test_crc_guards_against_heavy_noise(self):
        """Under crushing noise the demodulator must either fail cleanly
        or produce a correct packet — never a silently corrupted one."""
        p = Packet(address=3, payload=b"important")
        for seed in range(5):
            y = synth_backscatter(p, noise=1.0, seed=seed)
            res = BackscatterDemodulator(CARRIER, BITRATE, FS).demodulate(y)
            if res.success:
                assert res.packet == p

    def test_different_bitrates(self):
        for bitrate in (200.0, 500.0, 2_000.0):
            p = Packet(address=2, payload=b"xy")
            y = synth_backscatter(p, bitrate=bitrate, noise=0.01)
            res = BackscatterDemodulator(CARRIER, bitrate, FS).demodulate(y)
            assert res.success, f"failed at {bitrate} bps"

    def test_inverted_modulation_decodes(self):
        p = Packet(address=9, payload=b"flip")
        y = synth_backscatter(p, mod_amp=-0.1)
        res = BackscatterDemodulator(CARRIER, BITRATE, FS).demodulate(y)
        assert res.success
        assert res.packet == p

    def test_validation(self):
        with pytest.raises(ValueError):
            BackscatterDemodulator(0.0, BITRATE, FS)
        with pytest.raises(ValueError):
            BackscatterDemodulator(CARRIER, 50_000.0, FS)


def _reference_correlation(row, bits, chip_rate, sample_rate):
    """The preamble correlation as the length-dispatched kernels compute it."""
    from repro.perf.kernels import smart_convolve, smart_correlate

    template = preamble_template(bits, chip_rate, sample_rate)
    t_norm = template / np.sqrt(np.sum(template**2))
    corr = smart_correlate(row, t_norm, mode="valid")
    energy = smart_convolve(row**2, np.ones(len(template)), mode="valid")
    return corr / np.sqrt(np.maximum(energy, 1e-30))


class TestPreambleCorrelationIdentity:
    """Both correlation entry points equal the kernel formula bit for bit,
    in every convolution regime, on a cold and on a cached spectrum."""

    @staticmethod
    def _length(regime, m, frac):
        """A row length in ``regime`` for a template of ``m`` samples."""
        from repro.perf.kernels import (
            _DIRECT_MAC_LIMIT,
            _OVERLAP_ADD_MIN_LEN,
        )

        lo, hi = {
            "direct": (m, _DIRECT_MAC_LIMIT // m),
            "fft": (max(m, _DIRECT_MAC_LIMIT // m + 1), 20_000),
            "overlap-add": (_OVERLAP_ADD_MIN_LEN, _OVERLAP_ADD_MIN_LEN + 2_000),
        }[regime]
        return lo + int(frac * (hi - lo)) if lo <= hi else None

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 5),
        bits=st.lists(st.integers(0, 1), min_size=4, max_size=12),
        spc=st.integers(2, 12),
        regime=st.sampled_from(["direct", "fft", "overlap-add"]),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_kernel_formula(
        self, seed, rows, bits, spc, regime, frac
    ):
        from repro.dsp.sync import (
            batched_preamble_correlation,
            preamble_correlation,
        )
        from repro.perf.cache import get_cache
        from repro.perf.kernels import convolution_regime

        chip_rate, fs = 1_000.0, 1_000.0 * spc
        m = len(preamble_template(bits, chip_rate, fs))
        n = self._length(regime, m, frac)
        assume(n is not None)
        assert convolution_regime(n, m) == regime
        X = np.random.default_rng(seed).normal(size=(rows, n))
        expected = [_reference_correlation(x, bits, chip_rate, fs) for x in X]
        cache = get_cache("sync_templates")
        for second in (False, True):
            hits = cache.hits
            got = batched_preamble_correlation(X, bits, chip_rate, fs)
            if second:  # the template, and in the FFT regime its spectra
                assert cache.hits - hits == (2 if regime == "fft" else 1)
            for x, row, want in zip(X, got, expected):
                assert row.tobytes() == want.tobytes()
                one = preamble_correlation(x, bits, chip_rate, fs)
                assert one.tobytes() == want.tobytes()


def _argsort_scan(mags, threshold, spc, max_candidates):
    """Candidate peaks by a descending scan of every magnitude."""
    picked = []
    for idx in np.argsort(mags)[::-1]:
        if mags[idx] < threshold:
            break
        if all(abs(idx - p) > spc for p in picked):
            picked.append(int(idx))
        if len(picked) >= max_candidates:
            break
    return sorted(picked)


class TestDetectionCandidates:
    """Repeated argmax with blanking picks the descending scan's peaks."""

    @staticmethod
    def _demodulator(threshold):
        return BackscatterDemodulator(
            CARRIER, 2_000.0, FS, detection_threshold=threshold
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 3_000),
        smooth=st.integers(1, 60),
        max_candidates=st.integers(1, 6),
        threshold=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_magnitudes_match_the_descending_scan(
        self, seed, length, smooth, max_candidates, threshold
    ):
        rng = np.random.default_rng(seed)
        # Smoothed noise has peaks a few chips wide, so blanking matters.
        raw = rng.normal(size=length + smooth - 1)
        corr = np.convolve(raw, np.ones(smooth), mode="valid")
        corr = corr / np.max(np.abs(corr))
        mags = np.abs(corr)
        assume(len(np.unique(mags)) == length)
        dem = self._demodulator(threshold)
        spc = int(round(dem.sample_rate / dem.chip_rate))
        got = dem._detection_candidates(None, max_candidates, corr=corr)
        want = _argsort_scan(mags, threshold, spc, max_candidates)
        assert [d.start_index for d in got] == want
        for d in got:
            assert d.metric == float(mags[d.start_index])
            assert d.inverted == bool(corr[d.start_index] < 0)

    def test_equal_magnitudes_take_the_earliest_index(self):
        dem = self._demodulator(0.5)
        spc = int(round(dem.sample_rate / dem.chip_rate))
        corr = np.zeros(1_000)
        corr[[300, 700]] = 0.9
        corr[300 + spc] = -0.9  # blanked by the pick at 300
        assert [d.start_index for d in dem._detection_candidates(
            None, 1, corr=corr)] == [300]
        assert [d.start_index for d in dem._detection_candidates(
            None, 5, corr=corr)] == [300, 700]
        corr[300 + spc + 1] = 0.9  # just outside the blanked chip
        assert [d.start_index for d in dem._detection_candidates(
            None, 5, corr=corr)] == [300, 300 + spc + 1, 700]
