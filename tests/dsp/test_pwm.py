"""Tests for the PWM downlink line code."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import PWMCode, pwm_encode
from repro.dsp.pwm import pwm_decode_edges, pwm_decode_envelope

CODE = PWMCode(short_s=1e-3, long_s=2e-3, gap_s=1e-3)
FS = 96_000.0


class TestPWMCode:
    def test_one_twice_as_long_as_zero(self):
        """Paper Sec. 5.1a: the '1' bit is twice as long as the '0' bit."""
        assert CODE.long_s == pytest.approx(2 * CODE.short_s)

    def test_symbol_durations(self):
        assert CODE.symbol_duration(0) == pytest.approx(2e-3)
        assert CODE.symbol_duration(1) == pytest.approx(3e-3)

    def test_frame_duration(self):
        assert CODE.frame_duration([0, 1]) == pytest.approx(5e-3)

    def test_mean_bit_rate(self):
        assert CODE.mean_bit_rate == pytest.approx(1.0 / 2.5e-3)

    def test_harvest_duty_cycle_above_half(self):
        """PWM keeps the carrier on most of the time, which is why the
        paper chose it for harvesting."""
        assert CODE.harvest_duty_cycle > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PWMCode(short_s=2e-3, long_s=1e-3)
        with pytest.raises(ValueError):
            PWMCode(gap_s=0.0)


class TestEncode:
    def test_envelope_binary(self):
        env = pwm_encode([1, 0, 1], CODE, FS)
        assert set(np.unique(env)) <= {0.0, 1.0}

    def test_length_matches_duration(self):
        bits = [1, 0, 0, 1]
        env = pwm_encode(bits, CODE, FS)
        assert len(env) == pytest.approx(CODE.frame_duration(bits) * FS, abs=4)

    def test_empty(self):
        assert len(pwm_encode([], CODE, FS)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            pwm_encode([2], CODE, FS)
        with pytest.raises(ValueError):
            pwm_encode([1], CODE, 0.0)

    @given(
        bits=st.lists(st.integers(0, 1), max_size=200),
        dtype=st.sampled_from([np.int8, np.int64, bool, float]),
        code=st.sampled_from([CODE, PWMCode(), PWMCode(1e-5, 3e-5, 2e-6)]),
        sample_rate=st.sampled_from([FS, 44_100.0, 192_000.0, 7_777.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_symbol_loop(self, bits, dtype, code, sample_rate):
        """Byte-equal to the per-symbol concatenation it replaced,
        including on/gap runs that round below one sample."""
        data = np.array(bits, dtype=dtype)
        chunks = []
        for bit in data:
            on = code.long_s if bit else code.short_s
            chunks.append(np.ones(max(int(round(on * sample_rate)), 1)))
            chunks.append(np.zeros(max(int(round(code.gap_s * sample_rate)), 1)))
        want = np.concatenate(chunks) if chunks else np.zeros(0)
        got = pwm_encode(data, code, sample_rate)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert len(got) == code.frame_samples(data, sample_rate)


class TestDecode:
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=32))
    @settings(max_examples=25)
    def test_envelope_roundtrip(self, bits):
        env = pwm_encode(bits, CODE, FS)
        decoded = pwm_decode_envelope(env, CODE, FS)
        np.testing.assert_array_equal(decoded, bits)

    def test_edge_decode(self):
        # Bit pattern 1, 0: on 2 ms, off 1 ms, on 1 ms, off 1 ms.
        times = np.array([0.0, 2e-3, 3e-3, 4e-3])
        pols = np.array([1, -1, 1, -1])
        np.testing.assert_array_equal(pwm_decode_edges(times, pols, CODE), [1, 0])

    def test_glitch_rejected(self):
        # A 50 us glitch pulse between real symbols is ignored.
        times = np.array([0.0, 2e-3, 2.5e-3, 2.55e-3, 3e-3, 4e-3])
        pols = np.array([1, -1, 1, -1, 1, -1])
        np.testing.assert_array_equal(pwm_decode_edges(times, pols, CODE), [1, 0])

    def test_unpaired_edges_skipped(self):
        # A falling edge with no preceding rising edge decodes nothing.
        times = np.array([1e-3])
        pols = np.array([-1])
        assert len(pwm_decode_edges(times, pols, CODE)) == 0

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            pwm_decode_edges(np.zeros(3), np.zeros(2), CODE)

    def test_noisy_envelope(self):
        rng = np.random.default_rng(3)
        bits = [1, 0, 1, 1, 0]
        env = pwm_encode(bits, CODE, FS)
        noisy = env + rng.normal(0, 0.05, len(env))
        decoded = pwm_decode_envelope(noisy, CODE, FS)
        np.testing.assert_array_equal(decoded, bits)
