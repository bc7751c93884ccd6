"""Tests for the waveform-level acoustic channel."""

import numpy as np
import pytest

from repro.acoustics import (
    POOL_A,
    AcousticChannel,
    AmbientNoiseModel,
    Position,
)

FS = 96_000.0
SRC = Position(0.5, 1.5, 0.6)
RX = Position(3.0, 1.5, 0.6)


def make_channel(**kw):
    defaults = dict(sample_rate=FS, frequency_hz=15_000.0)
    defaults.update(kw)
    return AcousticChannel(POOL_A, SRC, RX, **defaults)


class TestChannelBasics:
    def test_distance(self):
        assert make_channel().distance == pytest.approx(2.5)

    def test_direct_path_delay(self):
        ch = make_channel()
        assert ch.direct_path.delay_s == pytest.approx(2.5 / ch.sound_speed)

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            make_channel(sample_rate=0.0)

    def test_paths_copy_isolated(self):
        ch = make_channel()
        paths = ch.paths
        paths.clear()
        assert ch.paths  # internal list untouched


class TestNarrowbandGainsOverHeldPaths:
    """The narrowband gains sum over the paths the channel holds."""

    def test_bit_equal_to_the_model_recomputation(self):
        ch = make_channel()
        for f in (None, 10_000.0, 15_000.0, 22_500.0):
            freq = ch.frequency_hz if f is None else f
            assert ch.gain_at(f) == ch._model.channel_gain_at(SRC, RX, freq)
        assert ch.incoherent_gain() == ch._model.rms_gain(SRC, RX)

    def test_no_path_enumeration_after_construction(self, monkeypatch):
        from repro.acoustics.multipath import ImageSourceModel

        ch = make_channel()
        calls = []
        enumerate_paths = ImageSourceModel.paths

        def counted(model, *args):
            calls.append(args)
            return enumerate_paths(model, *args)

        monkeypatch.setattr(ImageSourceModel, "paths", counted)
        ch.gain_at()
        ch.magnitude_gain(12_000.0)
        ch.incoherent_gain()
        ch.transmission_loss_db()
        assert calls == []


class TestImpulseResponseFromHeldPaths:
    """The impulse response comes from the held paths, bit for bit."""

    def test_one_path_enumeration_per_new_geometry(self, monkeypatch):
        from repro.acoustics.multipath import ImageSourceModel
        from repro.perf import clear_all_caches

        clear_all_caches()
        calls = []
        enumerate_paths = ImageSourceModel.paths

        def counted(model, *args):
            calls.append(args)
            return enumerate_paths(model, *args)

        monkeypatch.setattr(ImageSourceModel, "paths", counted)
        receivers = (RX, Position(2.0, 1.2, 0.5))
        channels = [make_channel() for _ in range(2)]
        channels += [
            AcousticChannel(POOL_A, SRC, receivers[1], sample_rate=FS,
                            frequency_hz=15_000.0)
            for _ in range(2)
        ]
        assert calls == [(SRC, RX), (SRC, receivers[1])]
        monkeypatch.undo()
        for ch, rx in zip(channels[::2], receivers):
            model_ir = ch._model.impulse_response(SRC, rx, FS)
            assert ch._impulse.tobytes() == model_ir.tobytes()


class TestSpectra:
    """``propagate`` inverts ``spectra``: ``fftconvolve`` bit for bit."""

    @pytest.mark.parametrize("samples", [2, 999, 8_191, 88_466])
    def test_propagate_equals_fftconvolve(self, samples):
        from scipy.signal import fftconvolve

        channels = [make_channel(), make_channel(frequency_hz=12_000.0)]
        x = np.random.default_rng(samples).standard_normal((2, samples))
        y = AcousticChannel.propagate(channels, x)
        for channel, row, out in zip(channels, x, y):
            want = fftconvolve(row, channel._impulse)
            assert out.tobytes() == want.tobytes()
            assert out.tobytes() == channel.apply(row, include_noise=False).waveform.tobytes()

    def test_spectra_are_the_fast_length_product(self):
        import scipy.fft

        ch = make_channel()
        x = np.random.default_rng(1).standard_normal(5_000)
        n = len(x) + len(ch._impulse) - 1
        fast = scipy.fft.next_fast_len(n, real=True)
        spectrum = AcousticChannel.spectra([ch], x[None])[0]
        assert len(spectrum) == fast // 2 + 1
        np.testing.assert_allclose(
            scipy.fft.irfft(spectrum, fast)[:n],
            np.convolve(x, ch._impulse),
            atol=1e-12 * np.max(np.abs(x)),
        )


class TestApply:
    def test_tone_amplitude_matches_narrowband_gain(self):
        ch = make_channel()
        f = 15_000.0
        n = int(FS * 0.05)
        t = np.arange(n) / FS
        tx = np.sin(2 * np.pi * f * t)
        out = ch.apply(tx, include_noise=False)
        # Steady-state amplitude of the received tone ~ |H(f)|.
        settle = len(out.waveform) // 3
        seg = out.waveform[settle : 2 * settle]
        measured = np.sqrt(2.0 * np.mean(seg**2))
        assert measured == pytest.approx(ch.magnitude_gain(f), rel=0.15)

    def test_output_longer_than_input(self):
        ch = make_channel()
        tx = np.ones(1000)
        out = ch.apply(tx, include_noise=False)
        assert len(out.waveform) > len(tx)

    def test_delay_visible_in_output(self):
        ch = make_channel()
        tx = np.zeros(500)
        tx[0] = 1.0
        out = ch.apply(tx, include_noise=False)
        first = np.flatnonzero(np.abs(out.waveform) > 1e-9)[0]
        assert first == pytest.approx(ch.direct_path.delay_s * FS, abs=2.0)

    def test_noise_added_when_model_present(self):
        noise = AmbientNoiseModel(spectrum="flat", flat_level_db=80.0, seed=1)
        ch = make_channel(noise=noise)
        silent = np.zeros(5000)
        out = ch.apply(silent)
        assert np.std(out.waveform) > 0.0

    def test_noiseless_when_disabled(self):
        noise = AmbientNoiseModel(spectrum="flat", flat_level_db=80.0, seed=1)
        ch = make_channel(noise=noise)
        out = ch.apply(np.zeros(5000), include_noise=False)
        assert np.all(out.waveform == 0.0)

    def test_rejects_2d_waveform(self):
        with pytest.raises(ValueError):
            make_channel().apply(np.ones((10, 2)))

    def test_linearity(self):
        ch = make_channel()
        x = np.random.default_rng(0).normal(size=2000)
        y1 = ch.apply(x, include_noise=False).waveform
        y2 = ch.apply(2.0 * x, include_noise=False).waveform
        np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-10, atol=1e-12)


class TestSummaries:
    def test_transmission_loss_positive_at_distance(self):
        ch = make_channel()
        assert ch.transmission_loss_db() > 0.0

    def test_gain_falls_with_distance_on_average(self):
        near = AcousticChannel(
            POOL_A, SRC, Position(1.5, 1.5, 0.6), sample_rate=FS
        )
        freqs = np.linspace(14_000, 16_000, 11)
        g_near = np.mean([near.magnitude_gain(f) for f in freqs])
        far = make_channel()
        g_far = np.mean([far.magnitude_gain(f) for f in freqs])
        assert g_near > g_far
