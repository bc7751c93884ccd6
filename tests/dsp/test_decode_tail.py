"""The decode tail's primitives equal the loops they replaced, bit for bit.

``fm0_encode`` is vectorized and ``crc16_ccitt`` is table-driven.  Each
is compared against a test-local copy of the loop it replaced, alone
and over every demodulation of a seeded campaign.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dsp import BackscatterDemodulator, crc16_ccitt, fm0_encode


def _loop_fm0_encode(bits, initial_level=1):
    data = np.asarray(bits).astype(np.int8)
    chips = np.empty(2 * len(data), dtype=np.int8)
    level = initial_level
    for i, bit in enumerate(data):
        level ^= 1
        chips[2 * i] = level
        if bit == 0:
            level ^= 1
        chips[2 * i + 1] = level
    return chips


def _bitwise_crc16(data, init=0xFFFF):
    crc = init
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class TestFm0Encode:
    @given(
        bits=st.lists(st.integers(0, 1), max_size=300),
        initial_level=st.sampled_from([0, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_bit_loop(self, bits, initial_level):
        got = fm0_encode(np.array(bits, dtype=int), initial_level=initial_level)
        want = _loop_fm0_encode(bits, initial_level)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestCrc16Table:
    @given(
        data=st.binary(max_size=300),
        init=st.one_of(st.integers(0, 0xFFFF), st.integers(-(2**20), 2**20)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_bitwise_loop(self, data, init):
        assert crc16_ccitt(data, init=init) == _bitwise_crc16(data, init)
        assert crc16_ccitt(data) == _bitwise_crc16(data)


def _canonical(result):
    if isinstance(result, ValueError):
        return ("ValueError", str(result))
    return (
        result.packet,
        result.bits.dtype.str,
        result.bits.tobytes(),
        result.chip_amplitudes.tobytes(),
        repr(result.snr_db),
        repr(result.cfo_hz),
        result.detection,
        result.error,
    )


class TestSeededCampaignDecodes:
    def test_campaign_equals_the_loop_primitives(self, monkeypatch):
        """A seeded bench campaign run on the per-bit loops of both primitives.

        The nodes encode their replies with ``fm0_encode`` and the
        receiver re-encodes every decode for its SNR estimate and its
        decision-directed pass; every frame's CRC is computed and
        checked.  The first 13 nodes of the bench fleet include
        positions whose decodes fail with a truncated frame and with a
        CRC mismatch.
        """
        import repro.dsp.demod as demod_mod
        import repro.dsp.fm0 as fm0_mod
        import repro.dsp.packets as packets_mod
        import repro.node.firmware as firmware_mod
        from repro.cli import _bench_campaign
        from repro.perf import clear_all_caches

        def campaign():
            clear_all_caches()
            captured = []
            demodulate_rows = BackscatterDemodulator.demodulate_rows

            def recording(self, waveforms, **kwargs):
                results = demodulate_rows(self, waveforms, **kwargs)
                captured.extend(results)
                return results

            with monkeypatch.context() as patched:
                patched.setattr(
                    BackscatterDemodulator, "demodulate_rows", recording
                )
                _, digest, _ = _bench_campaign(13, 2, 2019, 2_000.0, parallel=0)
            return digest, captured

        digest, results = campaign()
        for module in (fm0_mod, demod_mod, firmware_mod):
            monkeypatch.setattr(module, "fm0_encode", _loop_fm0_encode)
        monkeypatch.setattr(packets_mod, "crc16_ccitt", _bitwise_crc16)
        want_digest, want = campaign()
        monkeypatch.undo()
        clear_all_caches()

        assert digest == want_digest
        assert [_canonical(r) for r in results] == [_canonical(r) for r in want]
        assert {(r.error, np.isfinite(r.snr_db)) for r in results} == {
            (None, True),
            ("frame truncated", False),
            ("framing: CRC mismatch", True),
        }
