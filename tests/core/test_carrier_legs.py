"""The carrier leg computes only the samples it keeps.

``_carrier_legs`` builds the analytic incident at full length from the
downlink's propagation spectrum, and the direct arrival and the idle
reflection only over the window the analysed samples read.  These tests
hold it to a test-local copy of the whole-waveform computation it
replaced, hold row i of a stacked call to its one-row call bit for bit
when the rows' windows start apart, and count the transforms it runs.

Where the node's idle state absorbs at the carrier (``|gamma_a|`` ~
1e-16, every bench node's), each field agrees with the whole-waveform
leg to 1e-12 of its RMS.  A two-mode bank's second mode reflects
(``|gamma_a|`` ~ 0.16), and then the idle mixture differs by up to a
few 1e-8 of its RMS: the re-radiation filter falls linearly to zero at DC,
so its impulse response has a non-causal 1/k² tail, and transforms of
different lengths wrap that tail differently.  That case is bounded at
1e-6, and at the links here the windowed idle must be no farther than
the whole-waveform one from a filter padded by 200,000 zeros, whose
wrap is negligible.
"""

import numpy as np
import pytest
import scipy.fft
from scipy.signal import fftconvolve, hilbert

from repro.acoustics import POOL_A, Position
from repro.acoustics.channel import AcousticChannel
from repro.acoustics.doppler import apply_doppler_at
from repro.core import BackscatterLink, Projector
from repro.core.link import (
    REPLY_GUARD,
    CarrierLeg,
    _carrier_legs,
    _fast_len,
    apply_reradiation_filter,
)
from repro.net.messages import Command, Query
from repro.node.node import PABNode
from repro.piezo import Transducer

BITRATE = 2_000.0
QUERY = Query(destination=7, command=Command.READ_PH)
N_CHIPS = 138


def _link(*, hydrophone_y=0.8, drive=60.0, velocity=0.0, modes=1):
    """A bench-like link; the hydrophone's y moves the analysed window."""
    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    return BackscatterLink(
        POOL_A,
        Projector(transducer=transducer, drive_voltage_v=drive, carrier_hz=f),
        Position(0.5, 1.5, 0.6),
        PABNode(
            address=7,
            channel_frequencies_hz=tuple(f * (1.0 - 0.04 * m) for m in range(modes)),
            bitrate=BITRATE,
        ),
        Position(0.92, 1.6, 0.62),
        Position(1.0, hydrophone_y, 0.6),
        node_velocity_mps=velocity,
    )


def _row(link, mode=0):
    """``(tx, (uplink_start, n_chips, bitrate, mode))`` of the test query."""
    tx, start = link._carrier_tx(QUERY, N_CHIPS, BITRATE)
    return tx, (start, N_CHIPS, BITRATE, mode)


def reference_carrier_leg(link, tx, row, *, pad=0) -> CarrierLeg:
    """One row's carrier leg computed over the whole waveform.

    The stage as it was before it kept only the analysed window: the
    incident and the direct arrival propagated at full length, the
    Hilbert transform at the incident's fast length, the idle
    reflection re-radiated (:func:`apply_reradiation_filter`, with
    ``pad`` extra zeros), dilated and propagated at full length, and
    the leg cut from the results.
    """
    uplink_start, n_chips, bitrate, mode = row
    incident = link.beam_gain_node * fftconvolve(tx, link.ch_projector_node._impulse)
    direct = link.beam_gain_hydrophone * fftconvolve(
        tx, link.ch_projector_hydrophone._impulse
    )
    n = len(incident)
    analytic = hilbert(incident, N=_fast_len(n))[:n]
    f, fs = link.projector.carrier_hz, link.sample_rate
    gamma_a = link.node.bank.reflection_states(mode, f)[0]
    reflection = apply_reradiation_filter(
        np.pad(np.real(gamma_a * analytic), (0, pad)), link.node.transducer, f, fs
    )[:n]
    if link.node_velocity_mps:
        reflection = apply_doppler_at(reflection, 0, n, link.node_velocity_mps)
    uplink = fftconvolve(reflection, link.ch_node_hydrophone._impulse)
    reply_start, analysis_start = link._leg_offsets(uplink_start)
    end = min(reply_start + int(round(n_chips * fs / (2.0 * bitrate))), n)
    mixture = np.zeros(max(len(direct), len(uplink)))
    mixture[: len(direct)] += direct
    mixture[: len(uplink)] += uplink
    return CarrierLeg(
        idle=mixture[analysis_start:],
        direct_tail=direct[analysis_start:],
        window=analytic[reply_start : max(end, reply_start)],
        gamma_a=complex(gamma_a),
        reply_start=reply_start,
        reflection_len=n,
        total=len(mixture),
        analysis_start=analysis_start,
    )


def _error(got, want) -> float:
    """Largest deviation of ``got`` from ``want``, relative to ``want``'s RMS."""
    return float(np.max(np.abs(got - want)) / np.sqrt(np.mean(np.abs(want) ** 2)))


def _reflects(leg) -> bool:
    return abs(leg.gamma_a) > 1e-9


def assert_leg_matches(leg, reference):
    """Offsets and lengths equal; arrays within 1e-12 of their RMS.

    The idle mixture of a reflecting idle state is bounded at 1e-6
    (see the module docstring).
    """
    for name, got, want in zip(CarrierLeg._fields, leg, reference):
        if isinstance(want, np.ndarray):
            assert (got.shape, got.dtype) == (want.shape, want.dtype), name
            bound = 1e-6 if name == "idle" and _reflects(leg) else 1e-12
            assert _error(got, want) <= bound, name
        else:
            assert got == want, name


def _same_leg(a, b) -> bool:
    """Field-wise bit equality of two carrier legs."""
    return all(
        np.asarray(x).dtype == np.asarray(y).dtype
        and np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for x, y in zip(a, b)
    )


def _group():
    """Three stackable links whose analysed windows start apart.

    The hydrophones sit where all three channels keep their impulse
    responses' lengths but the direct path's delay differs (51, 54 and
    57 samples), so each row's direct and idle windows start at its own
    sample.  One node drifts towards the hydrophone, one away, and the
    last carries a two-mode bank and replies in its reflecting second
    mode.
    """
    links = [
        _link(hydrophone_y=0.9, drive=60.0),
        _link(hydrophone_y=0.84, drive=50.0, velocity=0.4),
        _link(hydrophone_y=0.78, drive=70.0, velocity=-0.4, modes=2),
    ]
    for channel in ("ch_projector_node", "ch_node_hydrophone", "ch_projector_hydrophone"):
        assert len({len(getattr(link, channel)._impulse) for link in links}) == 1
    txs, rows = zip(*(_row(link, mode) for link, mode in zip(links, (0, 0, 1))))
    starts = [link._leg_offsets(row[0])[1] for link, row in zip(links, rows)]
    assert len(set(starts)) == len(links)
    return links, np.stack(txs), list(rows)


class TestAgainstTheWholeWaveform:
    @pytest.mark.parametrize("velocity", [0.0, 0.4, -0.4])
    def test_one_row(self, velocity):
        link = _link(velocity=velocity)
        tx, row = _row(link)
        leg = link._carrier_leg(QUERY, N_CHIPS, BITRATE, 0)
        assert not _reflects(leg)
        assert_leg_matches(leg, reference_carrier_leg(link, tx, row))
        assert _same_leg(leg, _carrier_legs([link], tx[None], [row])[0])

    @pytest.mark.parametrize("velocity", [0.0, 0.4, -0.4])
    def test_reflecting_idle_state(self, velocity):
        link = _link(modes=2, velocity=velocity)
        tx, row = _row(link, mode=1)
        leg = link._carrier_leg(QUERY, N_CHIPS, BITRATE, 1)
        assert 0.1 < abs(leg.gamma_a) < 0.3
        reference = reference_carrier_leg(link, tx, row)
        assert_leg_matches(leg, reference)
        wrap_free = reference_carrier_leg(link, tx, row, pad=200_000).idle
        assert _error(leg.idle, wrap_free) <= _error(reference.idle, wrap_free)

    def test_stacked_rows_keep_their_own_windows(self):
        links, tx, rows = _group()
        legs = _carrier_legs(links, tx, rows)
        for link, tx_row, row, leg in zip(links, tx, rows, legs):
            assert_leg_matches(leg, reference_carrier_leg(link, tx_row, row))
            assert _same_leg(leg, _carrier_legs([link], tx_row[None], [row])[0])
        assert [_reflects(leg) for leg in legs] == [False, False, True]


class TestTransformCensus:
    """Only the analytic incident is transformed at the incident's fast length."""

    @staticmethod
    def _record(monkeypatch) -> list:
        sizes = []
        for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn"):
            real = getattr(scipy.fft, name)

            def spy(x, n=None, *args, _name=name, _real=real, **kwargs):
                size = kwargs.get("s", n)
                size = np.shape(x)[-1] if size is None else np.ravel(size)[-1]
                sizes.append((_name, int(size)))
                return _real(x, n, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, spy)
        return sizes

    @pytest.mark.parametrize("velocity", [0.0, -0.4])
    def test_three_long_transforms_and_eight_short(self, monkeypatch, velocity):
        link = _link(velocity=velocity)
        tx, row = _row(link)
        full = _fast_len(len(tx) + len(link.ch_projector_node._impulse) - 1)
        sizes = self._record(monkeypatch)
        leg = _carrier_legs([link], tx[None], [row])[0]
        # rfft(tx) and rfft(h) for the incident's spectrum; one inverse.
        assert sorted(s for s in sizes if s[1] >= full) == [
            ("ifft", full), ("rfftn", full), ("rfftn", full)
        ]
        # The direct arrival: one convolution; the idle reflection: the
        # re-radiation and one convolution.
        short = [size for _name, size in sizes if size < full]
        assert len(short) == 8
        m = len(link.ch_node_hydrophone._impulse)
        assert max(short) <= _fast_len(len(leg.idle) + 2 * m + 2 * REPLY_GUARD)
        assert max(short) < full // 4

    def test_propagations_run_through_the_injected_entry_point(self, monkeypatch):
        """``bench --inject`` slows ``AcousticChannel.spectra`` for both
        propagation stages; a carrier leg's incident, direct arrival and
        idle reflection all run through it."""
        from repro.cli import _INJECT_TARGETS

        for stage in ("link.downlink_propagation", "link.uplink_propagation"):
            assert _INJECT_TARGETS[stage][1:] == ("AcousticChannel", "spectra")
        calls = []
        spectra = AcousticChannel.spectra

        def counted(channels, waveforms):
            calls.append(np.shape(waveforms)[-1])
            return spectra(channels, waveforms)

        monkeypatch.setattr(AcousticChannel, "spectra", staticmethod(counted))
        link = _link()
        tx, row = _row(link)
        _carrier_legs([link], tx[None], [row])
        assert len(calls) == 3
        assert calls[0] == len(tx) and max(calls[1:]) < len(tx) // 4
