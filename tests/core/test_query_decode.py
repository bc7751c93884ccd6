"""The node's query decode runs at the envelope's bandwidth.

A leg-memo miss of ``BackscatterLink._decode_query`` propagates the query
to the node as one spectrum (``_query_spectra``), keeps the bins around
the carrier and inverts them at a sixteenth of the length
(``_query_envelopes``), and hands the firmware that envelope at exactly
``sample_rate / ENVELOPE_DECIMATION``.  Nothing filters at the full rate.
"""

import numpy as np
import pytest
import scipy.fft
import scipy.signal

from repro.acoustics import POOL_A, Position
from repro.core import BackscatterLink, Projector
from repro.core.link import (
    ENVELOPE_DECIMATION,
    _UNPROBED,
    _envelope_len,
    _untraced,
)
from repro.net.messages import Command, Query
from repro.node.node import PABNode
from repro.perf.cache import get_cache
from repro.piezo import Transducer

FS = 96_000.0
QUERY = Query(destination=7, command=Command.READ_PH)
#: Queries whose waveforms differ in length (their PWM bits differ).
QUERIES = [
    Query(destination=7, command=Command.PING),
    QUERY,
    Query(destination=7, command=Command.SET_BITRATE, argument=3),
    Query(destination=0xFF, command=Command.SET_BITRATE, argument=9),
]


def _link() -> BackscatterLink:
    """A powered node 0.4 m from the projector in POOL_A."""
    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    link = BackscatterLink(
        POOL_A,
        Projector(transducer=transducer, drive_voltage_v=60.0, carrier_hz=f),
        Position(0.5, 1.5, 0.6),
        PABNode(address=7, channel_frequencies_hz=(f,)),
        Position(0.92, 1.6, 0.62),
        Position(1.0, 0.8, 0.6),
    )
    link.node.force_power(True)
    return link


def _decode(link, query):
    return link._decode_query(query, _untraced, _UNPROBED)


class TestTransformCensus:
    @staticmethod
    def _record(monkeypatch) -> tuple[list, list]:
        """Spy on every scipy transform and every ``sosfilt`` pass.

        Returns ``(transforms, filtered)``: ``(name, length)`` of each
        transform, and the last-axis length of each filter pass.
        """
        sizes, filtered = [], []
        for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn"):
            real = getattr(scipy.fft, name)

            def spy(x, n=None, *args, _name=name, _real=real, **kwargs):
                size = kwargs.get("s", n)
                size = np.shape(x)[-1] if size is None else np.ravel(size)[-1]
                sizes.append((_name, int(size)))
                return _real(x, n, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, spy)
        sosfilt = scipy.signal.sosfilt

        def filter_spy(sos, x, *args, **kwargs):
            filtered.append(np.shape(x)[-1])
            return sosfilt(sos, x, *args, **kwargs)

        monkeypatch.setattr(scipy.signal, "sosfilt", filter_spy)
        return sizes, filtered

    def test_two_forward_transforms_and_one_short_inverse(self, monkeypatch):
        link = _link()
        tx = link.projector.query_waveform(QUERY, FS)
        n = len(tx) + len(link.ch_projector_node._impulse) - 1
        fast = _envelope_len(n)
        short = fast // ENVELOPE_DECIMATION
        sizes, filtered = self._record(monkeypatch)
        assert _decode(link, QUERY) == QUERY
        # rfft(query) and rfft(h) for the propagation spectrum; one
        # complex inverse of the bins around the carrier.
        assert sorted(sizes) == [("ifft", short), ("rfftn", fast), ("rfftn", fast)]
        # Only the firmware's smoothing filters, forward and back, over
        # the low-rate envelope and its edge extensions.
        assert len(filtered) == 2
        assert max(filtered) < short + 100 < n // 10

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 80_000, 88_466, 123_457])
    def test_transform_length_is_a_smooth_multiple_of_the_decimation(self, n):
        fast = _envelope_len(n)
        assert fast % ENVELOPE_DECIMATION == 0
        assert n <= fast <= 1.1 * n + ENVELOPE_DECIMATION
        rest = fast
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        assert rest == 1


class TestFixedRate:
    def test_firmware_decodes_at_a_sixteenth_of_the_rate(self, monkeypatch):
        """Every query length reaches the firmware at one rate, so the
        firmware's smoothing filter is designed once, not per length."""
        link = _link()
        seen = []
        firmware = link.node.firmware
        decode = firmware.decode_downlink_envelope

        def spy(envelope, sample_rate, **kwargs):
            seen.append((len(envelope), sample_rate))
            return decode(envelope, sample_rate, **kwargs)

        monkeypatch.setattr(firmware, "decode_downlink_envelope", spy)
        assert _decode(link, QUERIES[0]) == QUERIES[0]
        designs = get_cache("fir_kernels").misses
        lengths = []
        for query in QUERIES[1:]:
            assert _decode(link, query) == query
            lengths.append(len(link.projector.query_waveform(query, FS)))
        assert len(set(lengths)) == len(lengths)
        assert get_cache("fir_kernels").misses == designs
        m = len(link.ch_projector_node._impulse)
        assert seen[1:] == [
            (-(-(length + m - 1) // ENVELOPE_DECIMATION), FS / ENVELOPE_DECIMATION)
            for length in lengths
        ]
