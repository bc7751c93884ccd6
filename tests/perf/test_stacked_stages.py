"""Row-wise identity of the stacked link and demodulator stages.

The waveform stages of ``repro.core.link`` and
``BackscatterDemodulator.demodulate_rows`` take one row per link as an
(N, samples) stack.  A live exchange makes the one-row call and the
batched engine stacks a group of links, so row i of a stacked call must
be link i's own one-row call bit for bit: drifting nodes, rows too short
for the CFO estimate and groups shorter than the preamble included.
"""

import numpy as np
import pytest
import scipy.fft
from scipy.signal import fftconvolve

from repro.acoustics import POOL_A, Position
from repro.acoustics.noise import AmbientNoiseModel
from repro.core import BackscatterLink, Hydrophone, Projector
from repro.core.link import (
    ENVELOPE_DECIMATION,
    _carrier_legs,
    _query_envelopes,
    _query_spectra,
    _uplink_legs,
)
from repro.dsp.filters import butter_bandpass, envelope_detect
from repro.dsp.pwm import pwm_encode
from repro.faults import EventLog
from repro.net import Command, ReaderController, RetryPolicy
from repro.net.messages import Query
from repro.node.firmware import DOWNLINK_FORMAT
from repro.node.node import PABNode
from repro.obs import MetricsRegistry
from repro.piezo import Transducer
from repro.resilience import campaign_digest

FS = 96_000.0
BITRATE = 2_000.0
QUERY = Query(destination=7, command=Command.READ_PH)
N_CHIPS = 120


def _group():
    """Three links whose rows stack, one of them drifting at 0.4 m/s.

    The nodes sit where every channel's impulse response has the same
    length, and each projector drives at its own voltage, so the rows
    share their shapes but not their samples.
    """
    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    links = [
        BackscatterLink(
            POOL_A,
            Projector(transducer=transducer, drive_voltage_v=volts, carrier_hz=f),
            Position(0.5, 1.5, 0.6),
            PABNode(address=7, channel_frequencies_hz=(f,), bitrate=BITRATE),
            Position(0.92, y, 0.62),
            Position(1.0, 0.8, 0.6),
            node_velocity_mps=velocity,
        )
        for y, volts, velocity in ((1.60, 60.0, 0.0), (1.64, 50.0, 0.4), (1.68, 70.0, 0.0))
    ]
    for channel in ("ch_projector_node", "ch_node_hydrophone", "ch_projector_hydrophone"):
        assert len({len(getattr(link, channel)._impulse) for link in links}) == 1
    return links


def _same(a, b) -> bool:
    """Bit-for-bit equality of two arrays, shape and dtype included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_leg(a, b) -> bool:
    """Field-wise bit equality of two memo legs (``CarrierLeg``/``UplinkLeg``)."""
    return type(a) is type(b) and all(_same(x, y) for x, y in zip(a, b))


def _carrier_rows(links):
    txs, rows = [], []
    for link in links:
        tx, start = link._carrier_tx(QUERY, N_CHIPS, BITRATE)
        txs.append(tx)
        rows.append((start, N_CHIPS, BITRATE, 0))
    assert len({len(tx) for tx in txs}) == 1
    return np.stack(txs), rows


def _plateaus(link, n: int) -> np.ndarray:
    """The low-rate samples 1 ms or more inside a pulse, as it reaches the node.

    The transmitted PWM envelope, delayed by the direct path, eroded by
    1 ms on each side, and taken at every ``ENVELOPE_DECIMATION``-th
    sample.
    """
    on = pwm_encode(
        QUERY.to_packet().to_bits(DOWNLINK_FORMAT), link.projector.pwm_code, FS
    )
    delay = int(round(link.ch_projector_node.direct_path.delay_s * FS))
    arriving = np.zeros(n)
    arriving[delay : delay + len(on)] = on[: n - delay]
    guard = int(1e-3 * FS)
    inside = np.convolve(arriving, np.ones(2 * guard + 1), mode="same")
    return (inside > 2 * guard + 0.5)[::ENVELOPE_DECIMATION]


class TestLinkStages:
    def test_incident_and_envelope_rows(self):
        """The query's propagation spectrum and the node's low-rate envelope.

        Each row is its one-row call bit for bit.  The envelope is the
        full-rate detector chain's (an order-2 band-pass over the node's
        band, then ``envelope_detect``), decimated, to within 1% of its
        peak on the pulse plateaus; it departs from it only at the
        pulse edges, where the 400 Hz firmware smoothing dominates.
        """
        links = _group()
        tx = np.stack([link.projector.query_waveform(QUERY, FS) for link in links])
        n = tx.shape[-1] + len(links[0].ch_projector_node._impulse) - 1
        carrier = links[0].projector.carrier_hz
        band = links[0].node.receive_band(FS)
        spectra = _query_spectra(
            [link.ch_projector_node for link in links],
            [link.beam_gain_node for link in links], tx,
        )
        envelope = _query_envelopes(spectra, n, carrier, band, FS)
        assert not np.array_equal(envelope[0], envelope[2])
        assert envelope.shape == (3, -(-n // ENVELOPE_DECIMATION))
        for i, link in enumerate(links):
            one = _query_spectra(
                [link.ch_projector_node], [link.beam_gain_node], tx[i][None]
            )
            assert _same(spectra[i], one[0])
            assert _same(envelope[i], _query_envelopes(one, n, carrier, band, FS)[0])
            # The spectrum's inverse is the incident wave.
            reference = link.beam_gain_node * fftconvolve(
                tx[i], link.ch_projector_node._impulse
            )
            np.testing.assert_allclose(
                scipy.fft.irfft(one[0], 2 * (one.shape[-1] - 1))[:n], reference,
                rtol=0, atol=1e-9 * np.max(np.abs(reference)),
            )
            full = envelope_detect(
                butter_bandpass(reference, *band, FS, order=2), carrier, FS
            )[::ENVELOPE_DECIMATION]
            plateaus = _plateaus(link, n)
            assert plateaus.mean() > 0.25
            error = np.abs(envelope[i] - full)[plateaus]
            assert error.max() < 0.01 * full.max()

    def test_carrier_legs_rows(self):
        links = _group()
        tx, rows = _carrier_rows(links)
        legs = _carrier_legs(links, tx, rows)
        for i, link in enumerate(links):
            assert _same_leg(legs[i], _carrier_legs([link], tx[i][None], [rows[i]])[0])
            assert _same_leg(legs[i], link._carrier_leg(QUERY, N_CHIPS, BITRATE, 0))

    def test_uplink_legs_rows_with_a_drifting_node(self):
        links = _group()
        carriers = _carrier_legs(links, *_carrier_rows(links))
        rng = np.random.default_rng(4)
        chips = [rng.integers(0, 2, N_CHIPS) for _ in links]
        legs = _uplink_legs(links, carriers, chips, [BITRATE] * len(links))
        for i, link in enumerate(links):
            one = _uplink_legs([link], [carriers[i]], [chips[i]], [BITRATE])[0]
            assert _same_leg(legs[i], one)
            assert _same_leg(legs[i], link._uplink_leg(carriers[i], chips[i], BITRATE))
        # The drifting row really was dilated: the same link at rest differs.
        drifting = links[1]
        drifting.node_velocity_mps = 0.0
        at_rest = _uplink_legs([drifting], [carriers[1]], [chips[1]], [BITRATE])[0]
        assert not _same(at_rest.tail, legs[1].tail)


def _same_demod(a, b) -> bool:
    return (
        (a.packet, a.error, a.detection) == (b.packet, b.error, b.detection)
        and _same([a.snr_db, a.cfo_hz], [b.snr_db, b.cfo_hz])
        and _same(a.bits, b.bits)
        and _same(a.chip_amplitudes, b.chip_amplitudes)
    )


class TestDemodulateRows:
    @staticmethod
    def _demodulator():
        f = Transducer.from_cylinder_design().resonance_hz
        return Hydrophone(FS).demodulator(
            f, BITRATE, detection_threshold=BackscatterLink.DETECTION_THRESHOLD
        )

    def test_rows_match_one_row_calls(self):
        """The rows are the links' recorded replies, cut to a common length."""
        segments = []
        for link in _group():
            link.node.force_power(True)
            chips = link.node.uplink_chips(link.node.respond(QUERY))
            carrier = link._carrier_leg(QUERY, len(chips), BITRATE, 0)
            segments.append(link._record_tail(link._uplink_leg(carrier, chips, BITRATE)))
        n = min(map(len, segments))
        stack = np.stack([segment[:n] for segment in segments])
        dem = self._demodulator()
        results = dem.demodulate_rows(stack)
        assert any(result.success for result in results)
        for row, result in zip(stack, results):
            assert _same_demod(result, dem.demodulate(row))

    def test_rows_too_short_for_the_cfo_estimate(self):
        dem = self._demodulator()
        stack = np.random.default_rng(5).normal(size=(3, 64))
        for row, result in zip(stack, dem.demodulate_rows(stack)):
            assert isinstance(result, ValueError)
            with pytest.raises(ValueError) as raised:
                dem.demodulate(row)
            assert str(raised.value) == str(result)

    def test_a_non_finite_row_fails_alone(self):
        """A NaN row fails as a decode; its neighbours are their one-row calls."""
        segments = []
        for link in _group()[::2]:
            link.node.force_power(True)
            chips = link.node.uplink_chips(link.node.respond(QUERY))
            carrier = link._carrier_leg(QUERY, len(chips), BITRATE, 0)
            segments.append(link._record_tail(link._uplink_leg(carrier, chips, BITRATE)))
        n = min(map(len, segments))
        bad = segments[0][:n].copy()
        bad[n // 2] = np.nan
        stack = np.stack([segments[0][:n], bad, segments[1][:n]])
        dem = self._demodulator()
        first, middle, last = dem.demodulate_rows(stack)
        assert _same_demod(first, dem.demodulate(stack[0]))
        assert _same_demod(last, dem.demodulate(stack[2]))
        assert first.success and last.success
        assert middle.packet is None and "non-finite" in middle.error
        bad[n // 2] = np.inf
        result = dem.demodulate(bad)
        assert result.packet is None and "non-finite" in result.error

    def test_group_shorter_than_the_preamble(self):
        dem = self._demodulator()
        stack = np.random.default_rng(6).normal(size=(3, 200))
        for row, result in zip(stack, dem.demodulate_rows(stack)):
            assert result.error.startswith("detection failed: ")
            assert _same_demod(result, dem.demodulate(row))


def _drifting_fleet(seed=5):
    """Four waveform links; the nodes at 0x31 and 0x33 drift at 0.4 m/s."""
    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    transports = {}
    for i in range(4):
        addr = 0x30 + i
        link = BackscatterLink(
            POOL_A,
            Projector(transducer=transducer, drive_voltage_v=60.0, carrier_hz=f),
            Position(0.5, 1.5, 0.6),
            PABNode(address=addr, channel_frequencies_hz=(f,), bitrate=BITRATE),
            Position(0.9 + 0.07 * i, 1.6, 0.62),
            Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat", flat_level_db=35.0, seed=9_000 + 100 * seed + addr
            ),
            node_velocity_mps=0.4 if i % 2 else 0.0,
        )
        transports[addr] = link.run_query
    return transports


def _drifting_campaign(parallel, seed=5):
    log, metrics = EventLog(), MetricsRegistry()
    reader = ReaderController(
        _drifting_fleet(seed),
        retry_policy=RetryPolicy(max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=seed),
        log=log,
        metrics=metrics,
        parallel=parallel,
    )
    report = reader.run_campaign(Command.READ_PH, rounds=10)
    return reader, campaign_digest(report, log, metrics)


class TestDriftingNodesUnderBatch:
    def test_drifting_tails_join_the_stack(self, monkeypatch):
        import repro.perf.batch as batch_mod

        _, sequential = _drifting_campaign(0)
        stacked = []
        real = batch_mod._uplink_legs

        def spy(links, *args, **kwargs):
            stacked.extend(links)
            return real(links, *args, **kwargs)

        monkeypatch.setattr(batch_mod, "_uplink_legs", spy)
        reader, batched = _drifting_campaign("batch")
        assert batched == sequential
        stats = reader._batch_engine.stats.as_dict()
        assert "tails_inline" not in stats
        assert stats["tails_batched"] == len(stacked)
        assert sum(1 for link in stacked if link.node_velocity_mps) > 0
        assert sum(1 for link in stacked if not link.node_velocity_mps) > 0
