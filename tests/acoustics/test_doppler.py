"""Tests for the Doppler/mobility model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.acoustics import apply_doppler, doppler_factor, doppler_shift_hz
from repro.acoustics.doppler import apply_doppler_at, max_tolerable_velocity_mps
from repro.dsp import tone

FS = 96_000.0


class TestFactorAndShift:
    def test_static_is_unity(self):
        assert doppler_factor(0.0) == 1.0
        assert doppler_shift_hz(15_000.0, 0.0) == 0.0

    def test_closing_raises_frequency(self):
        assert doppler_shift_hz(15_000.0, 2.0) > 0.0

    def test_opening_lowers_frequency(self):
        assert doppler_shift_hz(15_000.0, -2.0) < 0.0

    def test_magnitude(self):
        # 1.5 m/s at 1500 m/s = 1000 ppm -> 15 Hz at 15 kHz.
        shift = doppler_shift_hz(15_000.0, 1.5, sound_speed=1_500.0)
        assert shift == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            doppler_factor(2_000.0)
        with pytest.raises(ValueError):
            doppler_shift_hz(-1.0, 1.0)
        with pytest.raises(ValueError):
            doppler_factor(1.0, sound_speed=0.0)

    @given(v=st.floats(-50.0, 50.0))
    def test_factor_near_unity_for_platform_speeds(self, v):
        assert doppler_factor(v) == pytest.approx(1.0, abs=0.05)


class TestApplyDoppler:
    def test_static_identity(self):
        x = tone(15_000.0, 0.05, FS)
        np.testing.assert_array_equal(apply_doppler(x, 0.0, FS), x)

    def test_shifts_tone_frequency(self):
        x = tone(15_000.0, 0.5, FS)
        y = apply_doppler(x, 3.0, FS)
        spec = np.abs(np.fft.rfft(y))
        freqs = np.fft.rfftfreq(len(y), 1.0 / FS)
        peak = freqs[np.argmax(spec)]
        expected = 15_000.0 + doppler_shift_hz(15_000.0, 3.0)
        assert peak == pytest.approx(expected, abs=5.0)

    def test_closing_shortens_waveform(self):
        x = tone(15_000.0, 0.5, FS)
        y = apply_doppler(x, 10.0, FS)
        assert len(y) < len(x)

    def test_opening_lengthens_playback(self):
        x = tone(15_000.0, 0.5, FS)
        y = apply_doppler(x, -10.0, FS)
        assert len(y) > len(x)

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_doppler(np.ones((2, 2)), 1.0, FS)
        with pytest.raises(ValueError):
            apply_doppler(np.ones(10), 1.0, 0.0)


class TestApplyDopplerAt:
    """A segment dilated in its waveform's frame is that waveform's dilation."""

    @staticmethod
    def _whole(x, v, length):
        moved = apply_doppler(x, v, FS)[:length]
        return np.pad(moved, (0, length - len(moved)))

    @pytest.mark.parametrize("v", [0.4, -0.4])
    def test_whole_waveform_is_apply_doppler_bit_for_bit(self, v):
        x = np.random.default_rng(1).normal(size=5_000)
        got = apply_doppler_at(x, 0, len(x), v)
        assert got.tobytes() == self._whole(x, v, len(x)).tobytes()

    @pytest.mark.parametrize("v", [3.0, -3.0])
    def test_segment_matches_the_whole_waveform(self, v):
        rng = np.random.default_rng(2)
        offset, n = 3_000, 4_000
        whole = np.zeros(10_000)
        whole[offset + 500 : offset + n - 500] = rng.normal(size=n - 1_000)
        got = apply_doppler_at(whole[offset : offset + n], offset, len(whole), v)
        want = self._whole(whole, v, len(whole))[offset : offset + n]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_cut_at_the_dilated_length(self):
        # Closing at 3 m/s, a 10,000-sample waveform dilates to 9,980.
        got = apply_doppler_at(np.ones(1_000), 9_000, 10_000, 3.0)
        assert np.all(got[:100] == 1.0) and np.all(got[980:] == 0.0)


class TestTolerableVelocity:
    def test_longer_packets_are_more_sensitive(self):
        short = max_tolerable_velocity_mps(1_000.0, 50, FS)
        long = max_tolerable_velocity_mps(1_000.0, 500, FS)
        assert long < short

    def test_magnitude_at_paper_rates(self):
        # A 150-bit packet at 1 kbps: chip 0.5 ms, packet 150 ms ->
        # v_max = 0.5 * 0.5e-3 / 0.15 * 1481 ~ 2.5 m/s.
        v = max_tolerable_velocity_mps(1_000.0, 150, FS)
        assert 1.0 < v < 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            max_tolerable_velocity_mps(0.0, 100, FS)
