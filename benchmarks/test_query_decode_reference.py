"""The node's query decode against the full-rate detector chain, fleet-wide.

The node decodes its PWM query from an envelope computed at a sixteenth
of the sample rate, straight from the query's propagation spectrum
(``repro.core.link._query_envelopes``).  This benchmark keeps the plain
full-rate chain that decode replaced: the query convolved with the
channel's impulse response, an order-2 Butterworth band-pass over the
node's receive band, the diode detector (``envelope_detect``), and the
firmware's decode at the full rate.  At every one of the bench fleet's
100 positions (seed 2019) it sends 15 queries to the node's own address
and requires the production decode to equal the reference's, a query
or ``None``.

The downlink carries no noise, so a decode depends only on the geometry
and the query.  :func:`full_rate_envelope` and :func:`reference_decode`
are the node half of a whole-waveform reference exchange.
"""

import numpy as np
from scipy.signal import fftconvolve

from repro.core.link import _UNPROBED, _untraced
from repro.dsp.filters import butter_bandpass, envelope_detect
from repro.net.messages import Command, Query

from test_fleet_outcomes import _bench_links


def queries(address: int) -> list[Query]:
    """Every command the bench fleet sends, and every bitrate code."""
    return [
        Query(address, Command.PING),
        Query(address, Command.READ_PH),
        Query(address, Command.READ_PRESSURE_TEMP),
        Query(address, Command.READ_TEMPERATURE),
        Query(address, Command.SET_RESONANCE_MODE, 0),
    ] + [Query(address, Command.SET_BITRATE, code) for code in range(10)]


def full_rate_envelope(link, tx) -> np.ndarray:
    """The query envelope ``link``'s node detects in ``tx``, at the full rate."""
    fs = link.sample_rate
    incident = link.beam_gain_node * fftconvolve(tx, link.ch_projector_node._impulse)
    lo, hi = link.node.receive_band(fs)
    return envelope_detect(
        butter_bandpass(incident, lo, hi, fs, order=2), link.projector.carrier_hz, fs
    )


def reference_decode(link, query: Query) -> Query | None:
    """The firmware's decode of :func:`full_rate_envelope`, at the full rate."""
    fs = link.sample_rate
    envelope = full_rate_envelope(link, link.projector.query_waveform(query, fs))
    return link.node.firmware.decode_downlink_envelope(envelope, fs)


def test_query_decodes_equal_the_full_rate_chain():
    differ, decoded = [], 0
    for address, link in sorted(_bench_links().items()):
        link.node.force_power(True)
        for query in queries(address):
            want = reference_decode(link, query)
            got = link._decode_query(query, _untraced, _UNPROBED)
            decoded += want is not None
            if got != want:
                differ.append((f"0x{address:02x}", query, got, want))
    assert differ == []
    # Not vacuous: most positions decode every query.
    assert decoded > 1_400
