"""Tests for waveform utilities and filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import (
    amplitude_modulated_carrier,
    butter_bandpass,
    butter_lowpass,
    decimate_to_rate,
    downconvert,
    envelope_detect,
    tone,
)
from repro.dsp.filters import matched_filter_chip
from repro.dsp.waveforms import upconvert_chips

FS = 96_000.0


class TestTone:
    def test_length(self):
        assert len(tone(1_000.0, 0.5, FS)) == int(0.5 * FS)

    def test_amplitude(self):
        x = tone(1_000.0, 0.1, FS, amplitude=3.0)
        assert np.max(np.abs(x)) == pytest.approx(3.0, rel=1e-3)

    def test_frequency(self):
        x = tone(5_000.0, 0.5, FS)
        spec = np.abs(np.fft.rfft(x))
        f = np.fft.rfftfreq(len(x), 1 / FS)
        assert f[np.argmax(spec)] == pytest.approx(5_000.0, abs=5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            tone(0.0, 1.0, FS)
        with pytest.raises(ValueError):
            tone(1_000.0, -1.0, FS)


class TestUpconvertChips:
    def test_exact_total_length(self):
        out = upconvert_chips(np.ones(7), 3_000.0, FS)
        assert len(out) == round(7 * FS / 3_000.0)

    def test_values_held(self):
        out = upconvert_chips([1.0, -1.0], 1_000.0, FS)
        assert np.all(out[:96] == 1.0)
        assert np.all(out[96:] == -1.0)

    def test_fractional_chip_lengths_accumulate(self):
        # 96000 / 7000 = 13.71... samples per chip; totals must stay exact.
        out = upconvert_chips(np.arange(70), 7_000.0, FS)
        assert len(out) == round(70 * FS / 7_000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            upconvert_chips(np.ones(3), 0.0, FS)
        with pytest.raises(ValueError):
            upconvert_chips(np.ones(3), 2 * FS, FS)

    def test_empty(self):
        assert len(upconvert_chips([], 1_000.0, FS)) == 0


class TestDownconvert:
    def test_recovers_envelope(self):
        f = 15_000.0
        env = np.concatenate([np.ones(4800), 0.5 * np.ones(4800)])
        x = amplitude_modulated_carrier(env, f, FS)
        bb = butter_lowpass(downconvert(x, f, FS), 2_000.0, FS)
        mid1 = np.abs(bb[1000:3000]).mean()
        mid2 = np.abs(bb[6000:8000]).mean()
        assert mid1 == pytest.approx(1.0, rel=0.02)
        assert mid2 == pytest.approx(0.5, rel=0.02)

    def test_offset_appears_as_rotation(self):
        f = 15_000.0
        x = tone(f + 5.0, 0.2, FS)
        bb = butter_lowpass(downconvert(x, f, FS), 1_000.0, FS)
        phases = np.unwrap(np.angle(bb[2000:-2000]))
        slope = np.polyfit(np.arange(len(phases)) / FS, phases, 1)[0]
        assert slope / (2 * np.pi) == pytest.approx(5.0, abs=0.2)


class TestFilters:
    def test_lowpass_kills_high_frequency(self):
        x = tone(1_000.0, 0.2, FS) + tone(20_000.0, 0.2, FS)
        y = butter_lowpass(x, 5_000.0, FS)
        spec = np.abs(np.fft.rfft(y))
        f = np.fft.rfftfreq(len(y), 1 / FS)
        low = spec[np.argmin(np.abs(f - 1_000.0))]
        high = spec[np.argmin(np.abs(f - 20_000.0))]
        assert low / high > 100.0

    def test_bandpass_selects_channel(self):
        x = tone(15_000.0, 0.2, FS) + tone(18_000.0, 0.2, FS)
        y = butter_bandpass(x, 14_000.0, 16_000.0, FS)
        spec = np.abs(np.fft.rfft(y))
        f = np.fft.rfftfreq(len(y), 1 / FS)
        in_band = spec[np.argmin(np.abs(f - 15_000.0))]
        out_band = spec[np.argmin(np.abs(f - 18_000.0))]
        assert in_band / out_band > 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            butter_lowpass(np.ones(100), 0.0, FS)
        with pytest.raises(ValueError):
            butter_lowpass(np.ones(100), FS, FS)
        with pytest.raises(ValueError):
            butter_bandpass(np.ones(100), 5_000.0, 1_000.0, FS)

    def test_complex_input(self):
        x = np.exp(2j * np.pi * 1_000.0 * np.arange(9600) / FS)
        y = butter_lowpass(x, 3_000.0, FS)
        assert np.iscomplexobj(y)
        assert np.abs(y[4800]) == pytest.approx(1.0, rel=0.05)


class TestEnvelopeDetect:
    def test_constant_tone(self):
        x = tone(15_000.0, 0.1, FS, amplitude=2.0)
        env = envelope_detect(x, 15_000.0, FS)
        mid = env[len(env) // 4 : -len(env) // 4]
        assert np.mean(mid) == pytest.approx(2.0, rel=0.05)

    def test_tracks_amplitude_steps(self):
        env_in = np.concatenate([np.ones(9600), np.zeros(9600), np.ones(9600)])
        x = amplitude_modulated_carrier(env_in, 15_000.0, FS)
        env = envelope_detect(x, 15_000.0, FS)
        assert np.mean(env[2000:7000]) > 0.8
        assert np.mean(env[11000:17000]) < 0.2


class TestDecimate:
    def test_rate_and_length(self):
        x = tone(100.0, 1.0, FS)
        y, rate = decimate_to_rate(x, FS, 8_000.0)
        assert rate == pytest.approx(8_000.0)
        assert len(y) == pytest.approx(len(x) / 12, abs=2)

    def test_no_op_when_target_above_rate(self):
        x = np.ones(100)
        y, rate = decimate_to_rate(x, FS, 2 * FS)
        assert rate == FS
        np.testing.assert_array_equal(x, y)


class TestMatchedFilterChip:
    def test_recovers_chip_means(self):
        chips = np.array([1.0, -1.0, 1.0])
        x = upconvert_chips(chips, 1_000.0, FS)
        filtered = matched_filter_chip(x, 96)
        # Sample at chip centres.
        centres = (np.arange(3) * 96 + 48).astype(int)
        np.testing.assert_allclose(filtered[centres], chips, atol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            matched_filter_chip(np.ones(10), 0)


class TestFrontEndIdentity:
    """The receiver front end is bit-identical to its plain scipy form.

    A complex input is filtered as one stacked ``sosfiltfilt`` call, and
    ``downconvert`` takes its oscillator from a cache; both must equal
    two separate ``sosfiltfilt`` calls and the inline oscillator.
    """

    @staticmethod
    def _inputs(seed, rows, length, complex_):
        rng = np.random.default_rng(seed)
        shape = (length,) if rows == 0 else (rows, length)
        x = rng.normal(size=shape)
        if complex_:
            x = x + 1j * rng.normal(size=shape)
        return x

    @staticmethod
    def _reference(sos, x):
        from scipy import signal

        if np.iscomplexobj(x):
            return (
                signal.sosfiltfilt(sos, x.real, axis=-1)
                + 1j * signal.sosfiltfilt(sos, x.imag, axis=-1)
            )
        return signal.sosfiltfilt(sos, x, axis=-1)

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 3),
        length=st.integers(64, 2_000),
        complex_=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_filters_equal_separate_sosfiltfilt_calls(
        self, seed, rows, length, complex_
    ):
        from scipy import signal

        x = self._inputs(seed, rows, length, complex_)
        low = signal.butter(4, 4_000.0, btype="low", fs=FS, output="sos")
        band = signal.butter(
            2, [12_000.0, 18_000.0], btype="band", fs=FS, output="sos"
        )
        got = butter_lowpass(x, 4_000.0, FS)
        assert got.tobytes() == self._reference(low, x).tobytes()
        got = butter_bandpass(x, 12_000.0, 18_000.0, FS, order=2)
        assert got.tobytes() == self._reference(band, x).tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 3),
        length=st.integers(1, 2_000),
        carrier=st.floats(1_000.0, 40_000.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_downconvert_equals_the_inline_oscillator(
        self, seed, rows, length, carrier
    ):
        from repro.constants import TWO_PI

        x = self._inputs(seed, rows, length, False)
        n = np.arange(length)
        inline = 2.0 * x * np.exp(-1j * TWO_PI * carrier * n / FS)
        for _ in range(2):  # a cache miss, then a hit
            assert downconvert(x, carrier, FS).tobytes() == inline.tobytes()

    @staticmethod
    def _designs():
        """``(filter call, sos)`` for the two Butterworth forms."""
        from scipy import signal

        return [
            (
                lambda x: butter_lowpass(x, 4_000.0, FS),
                signal.butter(4, 4_000.0, btype="low", fs=FS, output="sos"),
            ),
            (
                lambda x: butter_bandpass(x, 12_000.0, 18_000.0, FS, order=2),
                signal.butter(
                    2, [12_000.0, 18_000.0], btype="band", fs=FS, output="sos"
                ),
            ),
        ]

    @pytest.mark.parametrize("rows", [0, 3])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_inputs_no_longer_than_padlen_raise_scipys_error(self, rows, complex_):
        """Both designs pad by 15 samples: lengths 0-15 raise scipy's own
        ``ValueError``, longer inputs filter as scipy does."""
        for call, sos in self._designs():
            short = 0
            for length in range(40):
                x = self._inputs(length, rows, length, complex_)
                try:
                    expected = self._reference(sos, x)
                except ValueError as exc:
                    with pytest.raises(ValueError) as raised:
                        call(x)
                    assert str(raised.value) == str(exc)
                    short += 1
                else:
                    assert call(x).tobytes() == expected.tobytes()
            assert short == 16

    def test_a_second_call_hits_the_cached_design(self):
        from repro.perf.cache import get_cache

        cache = get_cache("fir_kernels")
        cache.clear()
        x = self._inputs(3, 2, 1_500, True)
        for call, sos in self._designs():
            first = call(x)
            hits = cache.hits
            second = call(x)
            assert cache.hits == hits + 1
            assert second.tobytes() == first.tobytes()
            assert first.tobytes() == self._reference(sos, x).tobytes()
