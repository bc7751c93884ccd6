"""Waveform-level simulation of one projector -> node -> hydrophone link.

This is the heart of the reproduction: a sample-accurate simulation of
the paper's physical loop.

1. The projector emits a PWM query followed by a continuous carrier.
2. The waveform propagates through the tank (multipath image-source
   channel) to the node.
3. The node harvests (power-up check), envelope-detects and decodes the
   query, executes the command, and backscatters its FM0 response by
   switching its reflection coefficient while the carrier illuminates it.
4. The reflected waveform propagates to the hydrophone, where it adds to
   the direct projector arrival and ambient noise.
5. The hydrophone's DSP chain decodes the response.

The reflection is applied to the *analytic* incident signal so that both
the magnitude and phase of the complex reflection coefficient act on the
carrier, multipath distortion included.

Every exchange, observed or not, runs one path: the node's side of
step 3 runs for real, and the pre-noise waveforms go through a per-link
leg memo that ``caching_disabled()`` turns into a pass-through.

The waveform stages of steps 2-4 (``_query_spectra``,
``_query_envelopes``, ``_direct``, ``_carrier_legs``, ``_uplink_legs``)
take one row per link as an (N, samples) stack.  A live exchange is the
one-row call, and the batched fleet engine (:mod:`repro.perf.batch`)
calls the same functions on groups of rows, so both modes share one
implementation.

The node's query decode needs only the envelope's bandwidth, which the
PWM symbols set, not the carrier.  So the query's propagation spectrum
(``_query_spectra``) is filtered by the node's band-pass and detector
low-pass as bin gains around the carrier, and one short inverse
transform gives the envelope at ``sample_rate / ENVELOPE_DECIMATION``
(``_query_envelopes``), where the firmware decodes it.

The uplink is a linear system, and a reply changes the node's
reflection only over its reply window.  So the carrier leg propagates
the node idling throughout once, and each reply re-radiates and
propagates only its change over the guarded window, added to that idle
mixture: the same sum as a whole-waveform computation up to rounding.
The hydrophone analyses only the mixture's last samples, so the carrier
leg computes only the analytic incident at full length, straight from
the downlink's propagation spectrum, and the direct arrival and the
idle reflection only over the window the analysed samples read.
Transforms run at fast FFT lengths (:func:`_fast_len`), zero-padded and
cut back.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.fft
from scipy.signal import hilbert

from repro.acoustics.channel import AcousticChannel
from repro.acoustics.doppler import apply_doppler_at
from repro.acoustics.geometry import Position, Tank
from repro.acoustics.noise import AmbientNoiseModel
from repro.dsp.demod import DemodResult
from repro.dsp.filters import envelope_detect, zero_phase_gain
from repro.dsp.metrics import bit_error_rate
from repro.dsp.spectral import band_snr_db
from repro.core.hydrophone import Hydrophone
from repro.core.projector import Projector
from repro.net.messages import Query, Response
from repro.node.node import PABNode
from repro.obs.probe import ProbeRegistry, get_probes, use_probes
from repro.obs.trace import NULL_SPAN, get_tracer
from repro.perf.cache import LRUCache, get_cache
from repro.perf.kernels import stack_rows
from repro.piezo.transducer import Transducer
from repro.state import Stateful


class CarrierLeg(NamedTuple):
    """The reply-independent half of an uplink leg, as the leg memo holds it.

    Keyed by query, reply length, bitrate and resonance mode, and cut to
    what the chip-dependent tail (:meth:`BackscatterLink._uplink_leg`)
    reads.  Outside the reply window the node idles in the absorptive
    state, so the tail adds the reply's change over that window
    (:meth:`BackscatterLink._reply_change`) to ``idle``.
    """

    #: The quiet hydrophone mixture from ``analysis_start`` on while the
    #: node idles throughout: the direct arrival plus the absorptive
    #: reflection, re-radiated, Doppler-dilated for a drifting node and
    #: propagated.
    idle: np.ndarray
    #: The direct projector arrival from ``analysis_start`` on.
    direct_tail: np.ndarray
    #: The analytic incident under the reply window only.
    window: np.ndarray
    #: The absorptive reflection coefficient of the key's mode.
    gamma_a: complex
    #: First sample of the reply window.
    reply_start: int
    #: Length of the incident wave, and so of the node's reflection.
    reflection_len: int
    #: Length of the whole quiet mixture.
    total: int
    #: First hydrophone sample the demodulator reads.
    analysis_start: int


class UplinkLeg(NamedTuple):
    """The quiet (pre-noise) hydrophone mixture, as the leg memo holds it."""

    #: ``mixture[analysis_start:]``: all the demodulator reads, and all
    #: the exchange draws noise for.
    tail: np.ndarray
    #: Length of the whole mixture.
    total: int
    #: First mixture sample the demodulator reads.
    analysis_start: int
    #: RMS of the direct and the backscattered arrival over the analysed
    #: samples [Pa], for the ``hydrophone_mixture`` probe tap.  Measured
    #: only on a leg built for a probe that wants that tap (such a leg
    #: is never memoized); ``nan`` otherwise.
    direct_rms_pa: float = float("nan")
    uplink_rms_pa: float = float("nan")


def _untraced(name: str, **attrs):
    """A stage opener that records nothing (legs built outside a trace)."""
    return NULL_SPAN


#: The probe registry of legs built outside an exchange: captures nothing.
_UNPROBED = ProbeRegistry(enabled=False)


def _rms(x) -> float:
    return float(np.sqrt(np.mean(x**2))) if len(x) else 0.0


#: Guard samples on each side of a windowed re-radiation: zeros around
#: the reply window's change (:meth:`BackscatterLink._reply_change`),
#: and the lead-in and trailing zeros of the carrier leg's idle window
#: (:meth:`BackscatterLink._carrier_from_spectrum`).  The re-radiation
#: filter rings for far fewer samples, so its circular wrap lands on
#: silence and a cut's transient dies out before the samples kept.
REPLY_GUARD = 1_024

#: The node decodes its query envelope at ``sample_rate /
#: ENVELOPE_DECIMATION`` (6 kHz at 96 kHz).  The PWM symbols' 5 and
#: 10 ms pulses and 8 ms gaps, and the firmware's 400 Hz smoothing, set
#: the bandwidth the envelope needs, not the carrier.
ENVELOPE_DECIMATION = 16


def _fast_len(n: int) -> int:
    """The length a length-``n`` transform runs at, zero-padded.

    Mixture lengths factor badly (88,466 = 2 * 7 * 71 * 89); the next
    5-smooth length is at most a few percent longer and transforms
    several times faster.
    """
    return scipy.fft.next_fast_len(n, real=True)


def reradiation_response(
    transducer: Transducer,
    n_samples: int,
    carrier_hz: float,
    sample_rate: float,
) -> np.ndarray:
    """The rfft-bin gain vector of the transducer's re-radiation filter.

    A pure function of (transducer, length, carrier, rate), split out of
    :func:`apply_reradiation_filter` so the stages that re-radiate
    (:func:`_carrier_legs`, :func:`_uplink_legs`) can take it from the
    ``rerad_responses`` cache once per transform length.  A resonator
    re-radiates no DC, so bin 0 is zero.
    """
    freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    response = np.zeros_like(freqs)
    positive = freqs > 0
    response[positive] = transducer.response(freqs[positive])
    at_carrier = float(transducer.response(carrier_hz))
    if at_carrier > 0:
        response = np.minimum(response / at_carrier, 1.0)
    return response


def apply_reradiation_filter(
    waveform,
    transducer: Transducer,
    carrier_hz: float,
    sample_rate: float,
    *,
    response: np.ndarray | None = None,
) -> np.ndarray:
    """Filter a backscattered waveform through the transducer's resonance.

    The re-radiated wave physically passes through the resonator, so
    modulation sidebands beyond the mechanical bandwidth are attenuated —
    the reason "the SNR significantly drops for bitrates higher than
    3 kbps ... the efficiency of the recto-piezo reduces as the frequency
    moves from its resonance" (Sec. 6.1b).  The response is normalised to
    unity at the carrier so the (already applied) reflection coefficient
    is not double-counted.

    The waveform is zero-padded to its fast length (:func:`_fast_len`)
    and the output cut back; ``response`` may carry a precomputed
    :func:`reradiation_response` for that padded length.  The exchange
    runs the same filter over row stacks (:func:`_reradiate`); this 1-D
    form is the tests' reference.
    """
    x = np.asarray(waveform, dtype=float)
    if len(x) == 0:
        return x.copy()
    n = _fast_len(len(x))
    if response is None:
        response = reradiation_response(transducer, n, carrier_hz, sample_rate)
    return scipy.fft.irfft(scipy.fft.rfft(x, n=n) * response, n=n)[: len(x)]


# -- stacked stages ---------------------------------------------------------------------
#
# Each stage takes one row per link, as an (N, samples) stack, and row i
# of its result is links[i]'s own one-row call, bit for bit: the stacked
# convolutions and transforms run each row with the plan a lone 1-D call
# would use, and everything data-dependent runs per row.  A live
# exchange is the one-row call; the batched engine (repro.perf.batch)
# makes one call per group of rows that share the shapes a stack needs.


def _reradiate(links, rows) -> np.ndarray:
    """Each row filtered through its node's resonance (:func:`apply_reradiation_filter`).

    One stacked rfft at the rows' fast length, each row's response from
    the shared ``rerad_responses`` cache, one stacked irfft, cut back to
    the rows' length.
    """
    n = rows.shape[-1]
    fast = _fast_len(n)
    responses = stack_rows([link._reradiation_response(fast) for link in links])
    return scipy.fft.irfft(
        scipy.fft.rfft(rows, n=fast, axis=-1) * responses, n=fast, axis=-1
    )[:, :n]


def _dilate(links, rows, starts, lengths) -> None:
    """Dilate each drifting node's row in place by its one-way Doppler.

    Row i holds samples ``starts[i]`` on of a reflection
    ``lengths[i]`` samples long (:func:`apply_doppler_at`).  The direct
    carrier is unaffected, and the downlink's shift is second-order for
    the envelope.
    """
    for link, row, start, length in zip(links, rows, starts, lengths):
        if link.node_velocity_mps:
            row[:] = apply_doppler_at(row, start, length, link.node_velocity_mps)


def _envelope_len(n: int) -> int:
    """The transform length of a length-``n`` query propagation.

    A 5-smooth multiple of :data:`ENVELOPE_DECIMATION`, so the node's
    envelope (:func:`_query_envelopes`) comes out at exactly
    ``sample_rate / ENVELOPE_DECIMATION`` whatever the query's length.
    """
    return ENVELOPE_DECIMATION * scipy.fft.next_fast_len(
        -(-n // ENVELOPE_DECIMATION), True
    )


def _query_spectra(channels, gains, tx) -> np.ndarray:
    """The propagation spectrum of each query row ``tx[i]`` at its node.

    :meth:`AcousticChannel.spectra` of row i through ``channels[i]``,
    times ``gains[i]``, with the rows zero-padded so that the transform
    runs at :func:`_envelope_len` of the propagation's length ``n``: the
    inverse real transform of a row, cut to ``n``, is the incident wave.
    """
    m = len(channels[0]._impulse)
    padded = np.zeros((len(tx), _envelope_len(tx.shape[-1] + m - 1) - m + 1))
    padded[:, : tx.shape[-1]] = tx
    spectra = AcousticChannel.spectra(channels, padded)
    spectra *= np.asarray(gains, dtype=float)[:, None]
    return spectra


def _query_envelopes(
    spectra, n: int, carrier_hz: float, band, sample_rate: float
) -> np.ndarray:
    """The query envelope each row's node detects, at the envelope's low rate.

    ``spectra`` are :func:`_query_spectra` rows of incident waves ``n``
    samples long.  The node's resonant element passes its receive
    ``band`` (an order-2 band-pass, :meth:`PABNode.receive_band`), and
    the PWM detector rectifies and low-passes that at a tenth of the
    carrier (:func:`envelope_detect`).  Both filters act as their
    zero-phase gains on the bins within half the low rate of the
    carrier, and one complex inverse transform of those bins, at
    ``1 / ENVELOPE_DECIMATION`` of the length, is the filtered incident's
    analytic signal at ``sample_rate / ENVELOPE_DECIMATION``: its
    magnitude is the envelope the detector holds, cut to
    ``ceil(n / ENVELOPE_DECIMATION)`` samples.  The detector's low-pass
    so acts before the magnitude rather than after the rectifier; the
    two agree on the pulse plateaus and part only at the pulse edges,
    where the firmware's 400 Hz smoothing dominates.  Every row shares
    one band, carrier and sample rate.
    """
    fast = 2 * (spectra.shape[-1] - 1)
    short = fast // ENVELOPE_DECIMATION
    lo = int(round(carrier_hz * fast / sample_rate)) - short // 2
    lo = min(max(lo, 0), spectra.shape[-1] - short)
    freqs = (lo + np.arange(short)) * (sample_rate / fast)
    # The one-sided analytic spectrum doubles each bin; the short
    # inverse divides by a transform 1 / ENVELOPE_DECIMATION as long.
    gain = (2.0 / ENVELOPE_DECIMATION) * zero_phase_gain(
        freqs, band, sample_rate, order=2, btype="band"
    ) * zero_phase_gain(np.abs(freqs - carrier_hz), carrier_hz / 10.0, sample_rate)
    rows = scipy.fft.ifft(spectra[:, lo : lo + short] * gain, axis=-1)
    return np.abs(rows[:, : -(-n // ENVELOPE_DECIMATION)])


def _direct(links, tx) -> np.ndarray:
    """Each row's projector waveform as it reaches the hydrophone [Pa]."""
    gains = np.array([link.beam_gain_hydrophone for link in links])[:, None]
    return gains * AcousticChannel.propagate(
        [link.ch_projector_hydrophone for link in links], tx
    )


def _analytic(spectrum, n: int) -> np.ndarray:
    """The analytic signal of a length-``n`` waveform, from its ``rfft`` ``spectrum``.

    ``spectrum`` is the waveform's ``rfft`` at ``n``'s fast length
    (:func:`_fast_len`).  It is made one-sided in place (the positive
    bins doubled; DC and, at an even length, Nyquist kept) and inverted
    by one complex transform at that length, cut to ``n``: the
    waveform's ``hilbert(x, N=fast)[:n]`` up to rounding, for a
    waveform that is zero past ``n``, as a linear convolution is.
    """
    fast = _fast_len(n)
    spectrum[1 : (fast + 1) // 2] *= 2.0
    return scipy.fft.ifft(spectrum, fast)[:n]


def _carrier_legs(
    links, tx, rows, stage=_untraced, probes=_UNPROBED
) -> list[CarrierLeg]:
    """The :class:`CarrierLeg` of each row's query-then-carrier ``tx``.

    ``rows[i]`` is ``(uplink_start, n_chips, bitrate, mode)`` for row i.
    The incident's propagation spectrum (:meth:`AcousticChannel.spectra`,
    times the beam gain) is computed stacked; each row's leg is then
    built from its spectrum row by
    :meth:`BackscatterLink._carrier_from_spectrum`, whose windows come
    from that row's own offsets and impulse responses, so row i is its
    one-row call bit for bit.  ``stage(name, **attrs)`` opens each
    stage's span; ``probes`` receives the ``incident_carrier`` tap.
    """
    with stage(
        "link.downlink_propagation", segment="carrier", samples=tx.shape[-1]
    ):
        spectra = AcousticChannel.spectra(
            [link.ch_projector_node for link in links], tx
        )
        spectra *= np.array([link.beam_gain_node for link in links])[:, None]
    return [
        link._carrier_from_spectrum(spectrum, row_tx, *row, stage, probes)
        for link, spectrum, row_tx, row in zip(links, spectra, tx, rows)
    ]


def _uplink_legs(
    links, carriers, chips, bitrates, stage=_untraced, probes=_UNPROBED
) -> list[UplinkLeg]:
    """The quiet :class:`UplinkLeg` of each row's carrier, modulated by its chips.

    Row i changes the idle reflection of ``carriers[i]`` over its reply
    window by ``chips[i]`` at ``bitrates[i]``
    (:meth:`BackscatterLink._reply_change`, :data:`REPLY_GUARD` zeros
    on each side), re-radiates that change through the transducer's
    resonance (:func:`_reradiate`), cut at the end of the reflection,
    dilates a drifting node's row at its offset (:func:`_dilate`),
    propagates the stack to the hydrophone and adds each row to its
    carrier's idle mixture (:meth:`BackscatterLink._quiet_tail`).  The
    system is linear, so this equals re-radiating and propagating the
    whole reflection up to rounding and the filter's circular wrap,
    which the guard leaves on silence.  The carriers share one window
    length.  ``probes`` receives the ``backscatter_reflected`` tap: the
    re-radiated change over the guarded window.
    """
    with stage("link.node", phase="backscatter", chips=sum(map(len, chips))):
        changes = _reradiate(links, stack_rows([
            link._reply_change(c, row_chips, bitrate)
            for link, c, row_chips, bitrate in zip(
                links, carriers, chips, bitrates
            )
        ]))
        starts = [c.reply_start - REPLY_GUARD for c in carriers]
        for row, start, c in zip(changes, starts, carriers):
            # The reflection ends with the incident wave: ringing past
            # it is cut, as the whole-waveform filter's output is.
            row[max(c.reflection_len - start, 0):] = 0.0
        _dilate(links, changes, starts, [c.reflection_len for c in carriers])
    if probes.wants("link.node"):
        for link, row, c, start, row_chips in zip(
            links, changes, carriers, starts, chips
        ):
            probes.capture(
                "link.node", "backscatter_reflected",
                waveform=row, sample_rate=link.sample_rate,
                reply_start=int(c.reply_start), window_start=int(start),
                chips=len(row_chips),
            )
    with stage("link.uplink_propagation", samples=changes.shape[-1]):
        uplinks = AcousticChannel.propagate(
            [link.ch_node_hydrophone for link in links], changes
        )
        legs = [
            BackscatterLink._quiet_tail(c, uplink, start)
            for c, uplink, start in zip(carriers, uplinks, starts)
        ]
    if probes.wants("link.uplink_propagation"):
        legs = [
            leg._replace(
                direct_rms_pa=_rms(c.direct_tail),
                uplink_rms_pa=_rms(_backscatter(leg, c)),
            )
            for leg, c in zip(legs, carriers)
        ]
    return legs


def _backscatter(leg: UplinkLeg, carrier: CarrierLeg) -> np.ndarray:
    """The backscattered arrival in ``leg``'s tail: the tail less the direct one."""
    reflected = np.array(leg.tail)
    reflected[: len(carrier.direct_tail)] -= carrier.direct_tail
    return reflected


@dataclass
class LinkBudget:
    """Narrowband link budget summary (fast, no waveforms).

    Attributes
    ----------
    source_pressure_pa:
        Projector pressure at 1 m.
    incident_pressure_pa:
        Pressure amplitude at the node.
    modulation_depth:
        |Gamma_r - Gamma_a| at the carrier.
    uplink_pressure_pa:
        Backscatter modulation amplitude at the hydrophone.
    noise_rms_pa:
        In-band ambient noise RMS at the hydrophone.
    predicted_snr_db:
        Rough post-matched-filter SNR prediction.
    """

    source_pressure_pa: float
    incident_pressure_pa: float
    modulation_depth: float
    uplink_pressure_pa: float
    noise_rms_pa: float
    predicted_snr_db: float

    @classmethod
    def empty(cls) -> "LinkBudget":
        """An all-zero budget for fabricated (fault-injected) results."""
        return cls(
            source_pressure_pa=0.0,
            incident_pressure_pa=0.0,
            modulation_depth=0.0,
            uplink_pressure_pa=0.0,
            noise_rms_pa=0.0,
            predicted_snr_db=float("-inf"),
        )


@dataclass
class LinkResult:
    """Everything one query/response exchange produced.

    Attributes
    ----------
    powered_up:
        Whether the node could power up from the downlink.
    query_decoded:
        Whether the node recovered the query.
    response:
        The node's response (ground truth), if any.
    demod:
        The hydrophone's decode result, if the exchange got that far.
    ber:
        Bit error rate of the uplink frame (vs the true transmitted
        bits); ``nan`` when no frame was detected.
    snr_db:
        Receiver SNR estimate.
    budget:
        The narrowband link budget for this geometry.
    """

    powered_up: bool
    query_decoded: bool
    response: Response | None
    demod: DemodResult | None
    ber: float
    snr_db: float
    budget: LinkBudget
    fault: str | None = None
    #: Autopsy of a failed exchange (assembled only when signal probes
    #: are enabled; see :mod:`repro.obs.postmortem`).
    postmortem: object | None = None

    @property
    def success(self) -> bool:
        """Whether the reader got a CRC-clean reply."""
        return self.demod is not None and self.demod.success

    @classmethod
    def faulted(cls, fault: str, *, powered_up: bool = False) -> "LinkResult":
        """A physically-shaped failure fabricated by a fault injector.

        Hook for :mod:`repro.faults`: injectors wrapping a
        :class:`BackscatterLink` can return results that look exactly
        like a real failed exchange (``success`` is ``False``, no
        demod) while carrying the injected-fault label for diagnosis.
        """
        return cls(
            powered_up=powered_up,
            query_decoded=False,
            response=None,
            demod=None,
            ber=float("nan"),
            snr_db=float("nan"),
            budget=LinkBudget.empty(),
            fault=fault,
        )


class NodeReply(NamedTuple):
    """The node's side of one exchange, up to the uplink waveform.

    What :meth:`BackscatterLink._reply` returns to the live exchange and
    to the batched engine's dry run alike.  Fields past the step the
    exchange stopped at stay ``None``.
    """

    query: Query
    budget: LinkBudget
    powered: bool
    decoded: Query | None = None
    response: Response | None = None
    chips: np.ndarray | None = None
    #: The bitrate and resonance mode the reply ships under.
    bitrate: float | None = None
    mode: int | None = None
    #: Leg-memo keys of the reply's carrier half and chip-dependent tail.
    carrier_key: tuple | None = None
    uplink_key: tuple | None = None


class BackscatterLink(Stateful):
    """A single PAB link inside a tank.

    Parameters
    ----------
    tank:
        Geometry/boundaries.
    projector, projector_position:
        The downlink source.
    node, node_position:
        The battery-free node.
    hydrophone_position:
        Receiver location; the :class:`Hydrophone` itself is created
        internally at the link's sample rate.
    noise:
        Ambient noise at the hydrophone (flat 60 dB tank floor default).
    sample_rate:
        Simulation rate [Hz].
    max_order:
        Image-source reflection order.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when omitted the
        process-global tracer is consulted per transaction (disabled by
        default, so the hot path pays only no-op span checks).  Spans
        cover the five stages of an exchange: ``link.pwm_synthesis``,
        ``link.downlink_propagation``, ``link.node``,
        ``link.uplink_propagation``, ``link.hydrophone_dsp``.  Tracing
        never changes which code runs: each stage span carries a
        ``source`` attribute saying whether its result was
        ``computed``, ``recalled`` from the leg memo, or ``batched``
        (served by a batch hint).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; records
        transaction/CRC counters and SNR/BER histograms.
    probes:
        Optional :class:`~repro.obs.probe.ProbeRegistry`; when omitted
        the process-global registry is consulted (disabled by default,
        so the hot path pays one enabled check per stage).  Enabled
        probes capture intermediate waveforms and stage diagnostics,
        and a failed exchange is autopsied into a
        :class:`~repro.obs.postmortem.DecodePostmortem` (filed in the
        registry, attached to the result and the active span).  Probes
        change only which memo legs are computed: a leg whose stages an
        enabled probe wants is computed instead of recalled.  A link's
        own registry is installed as the global one for each exchange,
        so it also receives the demodulator, sync and FM0 taps.

    Checkpoint state is the noise stream and the node; the rest follows
    from the construction parameters or is a cache.
    """

    __state__ = ("noise", "node")

    #: The five per-exchange stage span names, in pipeline order.
    STAGES = (
        "link.pwm_synthesis",
        "link.downlink_propagation",
        "link.node",
        "link.uplink_propagation",
        "link.hydrophone_dsp",
    )

    #: ``(span name, attrs)`` of the stages a recalled memo leg stands
    #: in for, in pipeline order: the query decode, the carrier half of
    #: the uplink, and the chip-dependent uplink tail.
    _QUERY_STAGES = (
        ("link.pwm_synthesis", {"segment": "query"}),
        ("link.downlink_propagation", {"segment": "query"}),
        ("link.node", {"phase": "decode_query"}),
    )
    _CARRIER_STAGES = (
        ("link.pwm_synthesis", {"segment": "query_then_carrier"}),
        ("link.downlink_propagation", {"segment": "carrier"}),
    )
    _TAIL_STAGES = (
        ("link.node", {"phase": "backscatter"}),
        ("link.uplink_propagation", {}),
    )

    #: Guard time appended after the expected reply [s].
    UPLINK_MARGIN_S = 0.05

    #: Preamble-correlation threshold for the uplink decoder.  Multipath
    #: and the reradiation filter round the chip edges, so the normalised
    #: correlation peaks below the clean-signal value; the CRC guards
    #: against false detections.
    DETECTION_THRESHOLD = 0.12

    def __init__(
        self,
        tank: Tank,
        projector: Projector,
        projector_position: Position,
        node: PABNode,
        node_position: Position,
        hydrophone_position: Position,
        *,
        noise: AmbientNoiseModel | None = None,
        sample_rate: float = 96_000.0,
        max_order: int = 2,
        node_velocity_mps: float = 0.0,
        tracer=None,
        metrics=None,
        probes=None,
    ) -> None:
        self.tank = tank
        self.projector = projector
        self.node = node
        self.sample_rate = sample_rate
        self.node_velocity_mps = node_velocity_mps
        self.tracer = tracer
        self.metrics = metrics
        self.probes = probes
        self.noise = (
            noise
            if noise is not None
            else AmbientNoiseModel(spectrum="flat", flat_level_db=60.0, seed=0)
        )
        f = projector.carrier_hz
        # Horizontal beam-pattern gains of the projector towards each
        # endpoint (unity for the default omni cylinder).
        import math as _math

        self.beam_gain_node = projector.gain_towards(
            _math.atan2(
                node_position.y - projector_position.y,
                node_position.x - projector_position.x,
            )
        )
        self.beam_gain_hydrophone = projector.gain_towards(
            _math.atan2(
                hydrophone_position.y - projector_position.y,
                hydrophone_position.x - projector_position.x,
            )
        )
        self.ch_projector_node = AcousticChannel(
            tank, projector_position, node_position,
            sample_rate=sample_rate, frequency_hz=f, max_order=max_order,
        )
        self.ch_node_hydrophone = AcousticChannel(
            tank, node_position, hydrophone_position,
            sample_rate=sample_rate, frequency_hz=f, max_order=max_order,
        )
        self.ch_projector_hydrophone = AcousticChannel(
            tank, projector_position, hydrophone_position,
            sample_rate=sample_rate, frequency_hz=f, max_order=max_order,
        )
        self.hydrophone = Hydrophone(sample_rate)
        # Per-link memo for the deterministic waveform legs of an
        # exchange (see _exchange).  A polling campaign repeats
        # the same few query/response shapes, so the expensive synthesis
        # and propagation convolutions hit after the first round.  The
        # size accommodates the split carrier/uplink entries plus the
        # handful of reply payloads a drifting sensor cycles through;
        # the legs hold only the samples later stages read
        # (CarrierLeg, UplinkLeg).
        self._leg_memo = LRUCache("link_legs", maxsize=16)
        # Demodulations precomputed by the batched fleet engine's
        # prepass, keyed (uplink leg key, noise stream position); see
        # repro.perf.batch.  Always empty outside batch mode.
        self._batch_hints: dict = {}

    def _noise_token(self):
        """A hashable token for the ambient-noise RNG's exact position.

        The batched prepass keys its precomputed demodulations by this
        token so a hint is consumed only when the live exchange is about
        to draw the very same noise samples the prepass drew (a retry,
        an injected fault, or a mid-round reconfiguration makes the
        streams diverge, and the hint is then simply ignored).
        """
        return repr(self.noise.snapshot_state())

    # -- diagnostics ----------------------------------------------------------------------

    def channel_report(self) -> dict:
        """Multipath statistics of each leg (delay spread, coherence, K).

        The quantities that explain receiver behaviour at this geometry:
        delay spread in chips predicts inter-chip interference, and the
        coherence bandwidth predicts how frequency-selective the channels
        are relative to the recto-piezo bandwidth.
        """
        from repro.acoustics.stats import channel_stats

        report = {}
        for name, channel in (
            ("projector_to_node", self.ch_projector_node),
            ("node_to_hydrophone", self.ch_node_hydrophone),
            ("projector_to_hydrophone", self.ch_projector_hydrophone),
        ):
            stats = channel_stats(self.tank, channel.source, channel.receiver)
            report[name] = {
                "rms_delay_spread_s": stats.rms_delay_spread_s,
                "delay_spread_chips": stats.delay_spread_chips(self.node.bitrate),
                "coherence_bandwidth_hz": stats.coherence_bandwidth_hz,
                "k_factor_db": stats.k_factor_db,
                "n_paths": stats.n_paths,
            }
        return report

    # -- narrowband budget -------------------------------------------------------------

    def budget(self) -> LinkBudget:
        """Analytic link budget at the carrier."""
        f = self.projector.carrier_hz
        p_src = self.projector.source_pressure_pa
        p_node = (
            p_src * self.beam_gain_node * self.ch_projector_node.magnitude_gain(f)
        )
        depth = self.node.bank.modulation_depth(
            self.node.firmware.config.resonance_mode, f
        )
        p_up = p_node * depth * self.ch_node_hydrophone.magnitude_gain(f)
        chip_rate = 2.0 * self.node.bitrate
        noise_rms = self.noise.band_pressure_rms(
            max(f - chip_rate, 10.0), f + chip_rate
        )
        # The modulation toggles by p_up around its mean: matched-filter
        # amplitude is p_up/2 per chip; noise power in the chip band.
        signal_power = (p_up / 2.0) ** 2 / 2.0
        noise_power = max(noise_rms**2, 1e-30)
        snr = 10.0 * np.log10(max(signal_power / noise_power, 1e-30))
        return LinkBudget(
            source_pressure_pa=p_src,
            incident_pressure_pa=p_node,
            modulation_depth=depth,
            uplink_pressure_pa=p_up,
            noise_rms_pa=noise_rms,
            predicted_snr_db=float(snr),
        )

    # -- waveform helpers ---------------------------------------------------------------

    def _reradiation_response(self, n_samples: int) -> np.ndarray:
        """The re-radiation gain vector for one transform length, shared.

        The vector reads nothing of the transducer but its BVD element
        values (:meth:`Transducer.response`), so links whose nodes carry
        equal transducers share one read-only vector per length, carrier
        and rate in the process-wide ``rerad_responses`` cache; with
        caching globally disabled it is recomputed per call.
        """
        transducer = self.node.transducer
        carrier_hz = self.projector.carrier_hz
        return get_cache("rerad_responses").get_or_compute(
            (transducer.bvd.params, n_samples, carrier_hz, self.sample_rate),
            lambda: reradiation_response(
                transducer, n_samples, carrier_hz, self.sample_rate
            ),
        )

    def _leg_offsets(self, uplink_start: int) -> tuple[int, int]:
        """``(reply_start, analysis_start)`` for a carrier from ``uplink_start``.

        The node waits half the margin after the query before replying.
        The hydrophone analyses from after the carrier's turn-on edge has
        settled there (the edge is a huge amplitude step that would
        dominate the modulation-axis estimate) but before the node's
        reply begins.
        """
        fs = self.sample_rate
        delay_pn = int(round(self.ch_projector_node.direct_path.delay_s * fs))
        delay_ph = int(
            round(self.ch_projector_hydrophone.direct_path.delay_s * fs)
        )
        return (
            uplink_start + delay_pn + int(self.UPLINK_MARGIN_S / 2 * fs),
            uplink_start + delay_ph + int(0.3 * self.UPLINK_MARGIN_S * fs),
        )

    def _reply_gamma(self, chips, bitrate: float, n_samples: int) -> np.ndarray:
        """Per-sample complex reflection gain over a reply window."""
        _gamma_a, _gamma_r, trajectory = self.node.reflection_trajectory(
            chips, self.projector.carrier_hz
        )
        spc = self.sample_rate / (2.0 * bitrate)
        gamma = np.zeros(n_samples, dtype=complex)
        for k, g in enumerate(trajectory):
            a = int(round(k * spc))
            if a >= n_samples:
                break
            gamma[a : int(round((k + 1) * spc))] = g
        return gamma

    def _reply_change(self, carrier: CarrierLeg, chips, bitrate: float) -> np.ndarray:
        """The reply's change to the node's idle reflection, over its guarded window.

        ``real((gamma_t - gamma_a) * window)``, with ``gamma_t`` the
        reflection trajectory of ``chips`` and ``gamma_a`` the idle
        state, between :data:`REPLY_GUARD` zeros on each side: sample
        ``j`` is reflection sample ``reply_start - REPLY_GUARD + j``.
        Outside the window the node idles, which the carrier's idle
        mixture already holds.
        """
        window = carrier.window
        gamma = self._reply_gamma(chips, bitrate, len(window))
        change = np.zeros(len(window) + 2 * REPLY_GUARD)
        change[REPLY_GUARD : REPLY_GUARD + len(window)] = np.real(
            (gamma - carrier.gamma_a) * window
        )
        return change

    def _carrier_tx(self, query: Query, n_chips: int, bitrate: float):
        """``(tx, uplink_start)``: the query, then a carrier for ``n_chips`` chips.

        The carrier runs the reply's length plus :attr:`UPLINK_MARGIN_S`.
        """
        uplink_s = n_chips / (2.0 * bitrate) + self.UPLINK_MARGIN_S
        return self.projector.query_then_carrier(query, uplink_s, self.sample_rate)

    def _carrier_from_spectrum(
        self,
        spectrum,
        tx,
        uplink_start: int,
        n_chips: int,
        bitrate: float,
        mode: int,
        stage=_untraced,
        probes=_UNPROBED,
    ) -> CarrierLeg:
        """The :class:`CarrierLeg` of ``tx``, from its incident's ``spectrum``.

        ``spectrum`` is the incident's propagation spectrum, beam gain
        included; it is overwritten.  The node idles in the absorptive
        state of ``mode`` throughout: its reflection of the analytic
        incident is re-radiated, dilated by a drifting node's Doppler
        and propagated to the hydrophone, where it mixes with the direct
        carrier.  The leg keeps that mixture from ``analysis_start`` on,
        so only the analytic incident (:func:`_analytic`) is computed at
        full length.  The direct arrival is propagated from ``m - 1``
        samples before ``analysis_start``, ``m`` the channel's
        impulse-response length.  The idle reflection is re-radiated
        from :data:`REPLY_GUARD` samples before that, with as many
        trailing zeros, then dilated at its offset and propagated.  So
        every kept sample is the whole-waveform sum up to rounding and
        the filter's ringing past the guard.  The reply window runs from
        ``reply_start`` to the end of the last chip, clipped by the end
        of the incident.  ``probes`` receives the ``incident_carrier``
        tap: the analytic incident's real part.
        """
        n = len(tx) + len(self.ch_projector_node._impulse) - 1
        m_ph = len(self.ch_projector_hydrophone._impulse)
        m_nh = len(self.ch_node_hydrophone._impulse)
        reply_start, analysis_start = self._leg_offsets(uplink_start)
        direct_from = max(analysis_start - (m_ph - 1), 0)
        idle_from = max(analysis_start - (m_nh - 1) - REPLY_GUARD, 0)
        with stage(
            "link.uplink_propagation", segment="direct",
            samples=len(tx) - direct_from,
        ):
            direct_tail = _direct([self], tx[None, direct_from:])[
                0, analysis_start - direct_from :
            ].copy()
        with stage("link.node", phase="backscatter", segment="carrier"):
            analytic = _analytic(spectrum, n)
            spc = self.sample_rate / (2.0 * bitrate)
            end = min(reply_start + int(round(n_chips * spc)), n)
            window = analytic[reply_start : max(end, reply_start)].copy()
            # The idle state of the key's mode, never read from the node:
            # the batched engine builds legs for predicted exchanges.
            gamma_a = self.node.bank.reflection_states(
                mode, self.projector.carrier_hz
            )[0]
            kept = n - idle_from
            # Trailing zeros, so the filter's circular wrap lands on
            # silence, not on the window's start.
            reflection = np.zeros((1, kept + REPLY_GUARD))
            reflection[0, :kept] = np.real(gamma_a * analytic[idle_from:])
            reflection = _reradiate([self], reflection)[:, :kept]
            _dilate([self], reflection, [idle_from], [n])
        if probes.wants("link.downlink_propagation"):
            fs = self.sample_rate
            incident = np.real(analytic)
            probes.capture(
                "link.downlink_propagation", "incident_carrier",
                waveform=incident, sample_rate=fs, segment="carrier",
                band_snr_db=band_snr_db(incident, fs, *self.node.receive_band(fs)),
            )
        with stage("link.uplink_propagation", segment="idle", samples=kept):
            reflected = AcousticChannel.propagate(
                [self.ch_node_hydrophone], reflection
            )[0, analysis_start - idle_from :]
        total = max(len(tx) + m_ph - 1, n + m_nh - 1)
        # Summed as the whole mixture would be: zeros, then the direct
        # carrier, then the reflection.
        idle = np.zeros(max(total - analysis_start, 0))
        idle[: len(direct_tail)] += direct_tail
        idle[: len(reflected)] += reflected
        return CarrierLeg(
            idle=idle,
            direct_tail=direct_tail,
            window=window,
            gamma_a=complex(gamma_a),
            reply_start=reply_start,
            reflection_len=n,
            total=total,
            analysis_start=analysis_start,
        )

    def _carrier_leg(
        self,
        query: Query,
        n_chips: int,
        bitrate: float,
        mode: int,
        stage=_untraced,
        probes=_UNPROBED,
    ) -> CarrierLeg:
        """The reply-payload-independent half of the uplink leg.

        Everything here depends only on the query, the reply *length*,
        the bitrate and the resonance mode — not on which chips the node
        actually sends: the transmit waveform, its propagation to the
        node (as the analytic signal the reflection modulates) and to the
        hydrophone (the direct carrier), and the timing offsets.
        Splitting this out of the uplink memo means a node whose sensor
        reading drifts between rounds only recomputes the cheap
        chip-dependent tail, not the analytic incident and the idle
        mixture.  The transmission is synthesised here and the rest is
        :func:`_carrier_legs`' one row.  ``stage(name, **attrs)`` opens
        each stage's span; ``probes`` receives the ``tx_waveform`` and
        ``incident_carrier`` taps.
        """
        fs = self.sample_rate
        with stage("link.pwm_synthesis", segment="query_then_carrier") as sp:
            tx, uplink_start = self._carrier_tx(query, n_chips, bitrate)
            sp.set(samples=len(tx))
        if probes.wants("link.pwm_synthesis"):
            probes.capture(
                "link.pwm_synthesis", "tx_waveform",
                waveform=tx, sample_rate=fs, segment="query_then_carrier",
                uplink_start=int(uplink_start),
            )
        return _carrier_legs(
            [self], tx[None], [(uplink_start, n_chips, bitrate, mode)],
            stage, probes,
        )[0]

    @staticmethod
    def _quiet_tail(carrier: CarrierLeg, uplink, start: int) -> UplinkLeg:
        """The pre-noise hydrophone mixture from the analysis start on.

        A copy of the carrier's idle mixture plus ``uplink``, the
        propagated change a reply makes, which begins at mixture sample
        ``start``; the part of it outside the analysed samples is cut.
        """
        tail = np.array(carrier.idle)
        at = start - carrier.analysis_start
        lo = max(-at, 0)
        hi = max(min(len(uplink), len(tail) - at), lo)
        tail[at + lo : at + hi] += uplink[lo:hi]
        return UplinkLeg(tail, carrier.total, carrier.analysis_start)

    def _uplink_leg(
        self,
        carrier: CarrierLeg,
        chips,
        bitrate: float,
        stage=_untraced,
        probes=_UNPROBED,
    ) -> UplinkLeg:
        """The chip-dependent tail of the uplink leg: :func:`_uplink_legs`' one row.

        Changes the memoized carrier's idle reflection by this reply's
        trajectory over the reply window, re-radiates and propagates the
        change, and adds it to the idle mixture.  ``probes`` receives
        the ``backscatter_reflected`` tap.
        """
        return _uplink_legs(
            [self], [carrier], [chips], [bitrate], stage, probes
        )[0]

    def _record_tail(self, leg: UplinkLeg, probes=_UNPROBED) -> np.ndarray:
        """Draw this exchange's noise and record the analysed tail.

        Noise is drawn for the tail the demodulator reads and nothing
        else, so the noise stream advances by ``len(leg.tail)`` samples.
        ``probes`` receives the ``hydrophone_mixture`` tap: the noisy
        mixture from ``analysis_start`` on.
        """
        fs = self.sample_rate
        mixture = leg.tail + self.noise.generate(len(leg.tail), fs)
        if probes.wants("link.uplink_propagation"):
            f = self.projector.carrier_hz
            chip_rate = 2.0 * self.node.bitrate
            probes.capture(
                "link.uplink_propagation", "hydrophone_mixture",
                waveform=mixture, sample_rate=fs,
                band_snr_db=band_snr_db(
                    mixture, fs,
                    max(f - chip_rate, 10.0), min(f + chip_rate, fs / 2.0 - 1.0),
                ),
                uplink_rms_pa=leg.uplink_rms_pa,
                direct_rms_pa=leg.direct_rms_pa,
                analysis_start=int(leg.analysis_start),
            )
        return self.hydrophone.record(mixture)

    # -- the exchange ----------------------------------------------------------------------

    def transact(self, query: Query) -> LinkResult:
        """Alias for :meth:`run_query`.

        This is the hook the MAC/reader stack and the fault injectors
        in :mod:`repro.faults` wrap: anything shaped
        ``transact(query) -> LinkResult`` is a valid transport.
        """
        return self.run_query(query)

    def _tracer(self):
        """The link's tracer, falling back to the process-global one."""
        return self.tracer if self.tracer is not None else get_tracer()

    def _probes(self):
        """The link's probe registry, falling back to the global one."""
        return self.probes if self.probes is not None else get_probes()

    def _observe(self, result: LinkResult) -> None:
        """Record the exchange outcome into the metrics registry."""
        mr = self.metrics
        if mr is None:
            return
        from repro.obs.metrics import BER_BUCKETS, SNR_DB_BUCKETS

        mr.counter("pab_link_transactions_total").inc()
        if result.powered_up:
            mr.counter("pab_link_powerups_total").inc()
        if result.query_decoded:
            mr.counter("pab_link_query_decodes_total").inc()
        if result.success:
            mr.counter("pab_link_successes_total").inc()
        elif result.demod is not None:
            mr.counter("pab_link_crc_failures_total").inc()
        if result.demod is not None:
            mr.histogram("pab_link_snr_db", buckets=SNR_DB_BUCKETS).observe(
                result.snr_db
            )
            mr.histogram("pab_link_ber", buckets=BER_BUCKETS).observe(result.ber)

    def run_query(self, query: Query) -> LinkResult:
        """Simulate one full query/response exchange.

        The exchange is traced as a ``link.transact`` root span with the
        five pipeline stages (:attr:`STAGES`) as children; a stage the
        exchange revisits (PWM synthesis runs once for the node-decode
        leg and once for the full transmission) simply emits another
        span with the same name, and per-stage reports aggregate by
        name.  Every stage span is tagged ``source`` (see
        :meth:`_stage`).

        When signal probes are enabled the stages additionally publish
        waveform taps, and a failed exchange is autopsied into a
        :class:`~repro.obs.postmortem.DecodePostmortem` attached to the
        returned result, the probe registry, and the root span.
        """
        tracer = self._tracer()
        probes = self._probes()
        if probes.enabled:
            txn = probes.begin_transaction()
        # A link's own registry also receives the taps the DSP layers
        # publish through the global one (demodulator, sync, FM0).
        own = (
            contextlib.nullcontext() if self.probes is None
            else use_probes(self.probes)
        )
        with own, tracer.span(
            "link.transact", destination=int(query.destination)
        ) as root:
            result = self._exchange(query, tracer, probes)
            if probes.enabled and not result.success:
                from repro.obs.postmortem import DecodePostmortem

                pm = DecodePostmortem.from_link(result, probes, txn=txn)
                result.postmortem = pm
                probes.record_postmortem(pm)
                root.set(
                    postmortem_verdict=pm.verdict,
                    failing_stage=pm.failing_stage,
                )
        self._observe(result)
        return result

    @staticmethod
    def _stage(tracer, name: str, source: str, **attrs):
        """Open stage span ``name``, tagged with where its result came from.

        ``source`` is ``"computed"`` (the stage's work ran inside the
        span), ``"recalled"`` (a leg-memo hit stood in for it) or
        ``"batched"`` (a batch hint served the demodulation).
        """
        return tracer.span(name, source=source, **attrs)

    def _recall(self, tracer, probes, key, compute, stages):
        """Leg-memo entry ``key``, computed stage by stage on a miss.

        ``compute(stage)`` builds the leg, opening each stage's span
        through ``stage(name, **attrs)``, tagged ``computed``.  On a hit
        ``stages`` — the ``(name, attrs)`` spans the leg stands in for —
        open empty, tagged ``recalled``, so a traced exchange shows every
        stage whichever way its legs were obtained.  When enabled probes
        want any of ``stages`` the leg is computed, outside the memo, so
        the probes see its waveforms.
        """
        stage = partial(self._stage, tracer, source="computed")
        if probes.enabled and any(probes.wants(name) for name, _ in stages):
            return compute(stage)
        hit = key in self._leg_memo
        leg = self._leg_memo.get_or_compute(key, lambda: compute(stage))
        if hit:
            for name, attrs in stages:
                with self._stage(tracer, name, "recalled", **attrs):
                    pass
        return leg

    def _decode_query(self, query: Query, stage, probes) -> Query | None:
        """The node's decode of the query waveform (a memoized leg).

        The PWM decode is pure DSP on the query envelope (the node is
        powered, and the PWM code is fixed at construction), so only the
        decoded query is kept.  A ledgered node's decode books no energy
        flow: nothing steps its capacitor while the link decodes.
        """
        fs = self.sample_rate
        with stage("link.pwm_synthesis", segment="query") as sp:
            query_wave = self.projector.query_waveform(query, fs)
            sp.set(samples=len(query_wave))
        if probes.wants("link.pwm_synthesis"):
            probes.capture(
                "link.pwm_synthesis", "query_waveform",
                waveform=query_wave, sample_rate=fs, segment="query",
            )
        with stage(
            "link.downlink_propagation", segment="query", samples=len(query_wave)
        ):
            spectra = _query_spectra(
                [self.ch_projector_node], [self.beam_gain_node], query_wave[None]
            )
        n = len(query_wave) + len(self.ch_projector_node._impulse) - 1
        band = self.node.receive_band(fs)
        if probes.wants("link.downlink_propagation"):
            incident = scipy.fft.irfft(spectra[0], 2 * (spectra.shape[-1] - 1))[:n]
            probes.capture(
                "link.downlink_propagation", "incident_query",
                waveform=incident, sample_rate=fs, segment="query",
                band_snr_db=band_snr_db(incident, fs, *band),
            )
        rate = fs / ENVELOPE_DECIMATION
        with stage("link.node", phase="decode_query") as sp:
            env = _query_envelopes(
                spectra, n, self.projector.carrier_hz, band, fs
            )[0]
            decoded = self.node.receive_query(env, rate)
            sp.set(decoded=decoded is not None)
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "query_envelope",
                waveform=env, sample_rate=rate, decoded=decoded is not None,
            )
        return decoded

    def _reply(self, query: Query, decode, tracer, probes) -> NodeReply:
        """The exchange up to the uplink waveform.

        Budget, power-up, the node's decode of the query, command
        execution and reply framing, moving the node's state exactly as
        the exchange does.  The live exchange and the batched engine's
        dry run both run these steps; they differ only in
        ``decode(query, key)``, which returns the node's decode of the
        query waveform (leg-memo entry ``key``).  ``response_sent`` is
        left to the caller.
        """
        node = self.node
        mode = node.firmware.config.resonance_mode
        budget_key = ("budget", mode, node.bitrate)
        source = "recalled" if budget_key in self._leg_memo else "computed"
        with self._stage(tracer, "link.node", source, phase="power_up") as sp:
            budget = self._leg_memo.get_or_compute(budget_key, self.budget)
            powered = node.try_power_up(
                budget.incident_pressure_pa, self.projector.carrier_hz
            )
            sp.set(powered_up=powered)
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "power_up",
                incident_pressure_pa=budget.incident_pressure_pa,
                powered=powered,
                predicted_snr_db=budget.predicted_snr_db,
            )
        if not powered:
            return NodeReply(query, budget, powered=False)
        decoded = decode(query, ("downlink_decode", query, mode))
        if decoded is None:
            return NodeReply(query, budget, powered=True)
        with self._stage(tracer, "link.node", "computed", phase="respond") as sp:
            response = node.respond(decoded)
            if response is None:
                return NodeReply(query, budget, powered=True, decoded=decoded)
            chips = node.uplink_chips(response)
            sp.set(chips=len(chips))
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "uplink_chips",
                waveform=np.asarray(chips, dtype=float), chips=len(chips),
            )
        # Re-read after respond(): SET_BITRATE / SET_RESONANCE_MODE take
        # effect mid-exchange and the reply already ships under the new
        # setting, so the uplink legs are keyed by the post-command values.
        bitrate = node.bitrate
        mode = node.firmware.config.resonance_mode
        return NodeReply(
            query, budget, True, decoded, response, chips, bitrate, mode,
            carrier_key=("carrier", query, len(chips), bitrate, mode),
            uplink_key=("uplink", query, chips.tobytes(), bitrate, mode),
        )

    def _exchange(self, query: Query, tracer, probes) -> LinkResult:
        """The exchange, with its deterministic legs through the leg memo.

        Every waveform between the projector and the hydrophone is a
        pure function of (query, reply chips, node config) except the
        ambient noise, which is added after the pre-noise mixture is
        obtained (:meth:`_recall`; with caching off the memo passes every
        computation through).  Node firmware runs for real where it
        mutates state — power-up, command handling, reply framing — and
        the noise stream advances exactly once per exchange, drawn under
        ``link.hydrophone_dsp`` with the demodulation it feeds, so a
        cached campaign is byte-identical to an uncached one.  A batch
        hint stands in for the noise draw and demodulation only while
        probes are off.
        """
        reply = self._reply(
            query,
            lambda q, key: self._recall(
                tracer, probes, key,
                lambda stage: self._decode_query(q, stage, probes),
                self._QUERY_STAGES,
            ),
            tracer, probes,
        )
        if reply.response is None:
            return LinkResult(
                powered_up=reply.powered,
                query_decoded=reply.decoded is not None,
                response=None, demod=None, ber=float("nan"),
                snr_db=float("nan"), budget=reply.budget,
            )
        chips, bitrate, mode = reply.chips, reply.bitrate, reply.mode

        def uplink_leg(stage) -> UplinkLeg:
            carrier = self._recall(
                tracer, probes, reply.carrier_key,
                lambda st: self._carrier_leg(
                    query, len(chips), bitrate, mode, st, probes
                ),
                self._CARRIER_STAGES,
            )
            return self._uplink_leg(carrier, chips, bitrate, stage, probes)

        leg = self._recall(
            tracer, probes, reply.uplink_key, uplink_leg,
            self._CARRIER_STAGES + self._TAIL_STAGES,
        )
        self.node.firmware.response_sent()

        uplink_format = self.node.firmware.config.uplink_format
        hint = self._batch_hints.pop(
            (reply.uplink_key, self._noise_token()), None
        ) if self._batch_hints and not probes.enabled else None
        with self._stage(
            tracer, "link.hydrophone_dsp",
            "computed" if hint is None else "batched", samples=leg.total,
        ) as sp:
            if hint is not None:
                # The batched prepass already ran this exact exchange
                # tail: same quiet mixture, same noise-stream position.
                # Reuse its demodulation verbatim and advance the noise
                # RNG to where drawing the samples would have left it —
                # byte-identical to the inline path, which the prepass
                # computed with the same primitives on the same inputs.
                noise_after, demod = hint
                self.noise.restore_state(noise_after)
            else:
                demod = self.hydrophone.demodulate(
                    self._record_tail(leg, probes),
                    self.projector.carrier_hz,
                    bitrate,
                    packet_format=uplink_format,
                    detection_threshold=self.DETECTION_THRESHOLD,
                )
            true_bits = reply.response.to_packet().to_bits(uplink_format)
            ber = (
                bit_error_rate(demod.bits, true_bits)
                if len(demod.bits)
                else float("nan")
            )
            sp.set(crc_ok=demod.success, snr_db=demod.snr_db)
        if probes.wants("link.hydrophone_dsp"):
            probes.capture(
                "link.hydrophone_dsp", "analysis_segment",
                analysis_start=int(leg.analysis_start),
                samples=leg.total - int(leg.analysis_start),
                crc_ok=demod.success, snr_db=demod.snr_db, ber=ber,
                predicted_snr_db=reply.budget.predicted_snr_db,
                error=demod.error or "",
            )
        return LinkResult(
            powered_up=True,
            query_decoded=True,
            response=reply.response,
            demod=demod,
            ber=ber,
            snr_db=demod.snr_db,
            budget=reply.budget,
        )

    def measure_uplink_snr(self, query: Query) -> float:
        """SNR of the uplink with ground-truth timing and bits (Fig. 8).

        Mirrors the paper's measurement methodology (Sec. 6.1a): the
        transmitted sequence is known to the experimenter, the channel is
        estimated against it, and the residual is the noise.  Using the
        true reply timing decouples the SNR metric from packet-detection
        failures at extreme bitrates.  The analysed segment is the one
        the exchange records (same legs, same noise draw).
        """
        fs = self.sample_rate
        self.node.force_power(True)
        response = self.node.respond(query)
        if response is None:
            raise ValueError("query produced no response")
        chips = self.node.uplink_chips(response)
        bitrate = self.node.bitrate
        carrier = self._carrier_leg(
            query, len(chips), bitrate, self.node.firmware.config.resonance_mode
        )
        leg = self._uplink_leg(carrier, chips, bitrate)
        self.node.firmware.response_sent()
        fmt = self.node.firmware.config.uplink_format
        dem = self.hydrophone.demodulator(
            self.projector.carrier_hz, bitrate, packet_format=fmt
        )
        baseband, _cfo = dem.to_baseband(self._record_tail(leg))
        modulation = dem.extract_modulation(baseband)
        delay_nh = int(round(self.ch_node_hydrophone.direct_path.delay_s * fs))
        true_start = carrier.reply_start + delay_nh - carrier.analysis_start
        amps = dem.chip_matched_filter(modulation, max(true_start, 0))
        from repro.dsp.fm0 import fm0_expected_chips
        from repro.dsp.metrics import snr_db as snr_db_fn

        true_bits = response.to_packet().to_bits(fmt)
        true_chips = fm0_expected_chips(true_bits)
        m = min(len(true_chips), len(amps))
        if m < 8:
            return float("nan")
        rx = amps[:m] - np.mean(amps[:m])
        rx = dem.equalize_chips(rx, true_chips[: min(2 * len(fmt.preamble), m)])
        return snr_db_fn(rx, true_chips[:m])

    # -- the Fig. 2 demonstration --------------------------------------------------------

    def switching_demo(
        self,
        *,
        silence_s: float = 0.5,
        carrier_only_s: float = 0.6,
        switching_s: float = 1.2,
        switch_rate_hz: float = 10.0,
    ) -> dict:
        """Reproduce the Fig. 2 experiment.

        Silence, then the projector turns on a continuous carrier, then
        the node toggles reflective/absorptive at ``switch_rate_hz``.
        Returns the demodulated (downconverted + low-passed) envelope and
        its timebase, plus the segment boundaries.
        """
        fs = self.sample_rate
        f = self.projector.carrier_hz
        n_sil = int(silence_s * fs)
        carrier = self.projector.carrier_waveform(
            carrier_only_s + switching_s, fs
        )
        tx = np.concatenate([np.zeros(n_sil), carrier])
        incident = self.beam_gain_node * AcousticChannel.propagate(
            [self.ch_projector_node], tx[None]
        )[0]
        # Build the switching chip train (one chip per half switching period).
        n_toggles = int(switching_s * switch_rate_hz * 2.0)
        chips = np.arange(n_toggles) % 2
        switch_chip_rate = 2.0 * switch_rate_hz
        spc = fs / switch_chip_rate
        start = n_sil + int(carrier_only_s * fs)
        gamma_a, _g, trajectory = self.node.reflection_trajectory(chips, f)
        gamma_t = np.full(len(incident), complex(gamma_a))
        for k, g in enumerate(trajectory):
            a = start + int(round(k * spc))
            b = start + int(round((k + 1) * spc))
            if a >= len(incident):
                break
            gamma_t[a : min(b, len(incident))] = g
        reflected = np.real(gamma_t * hilbert(incident))
        direct = _direct([self], tx[None])[0]
        uplink = self.ch_node_hydrophone.apply(reflected, include_noise=False).waveform
        n = max(len(direct), len(uplink))
        mixture = np.zeros(n)
        mixture[: len(direct)] += direct
        mixture[: len(uplink)] += uplink
        mixture += self.noise.generate(n, fs)
        envelope = envelope_detect(mixture, f, fs, cutoff_hz=8.0 * switch_rate_hz)
        return {
            "time_s": np.arange(len(envelope)) / fs,
            "envelope_pa": envelope,
            "carrier_on_s": silence_s,
            "backscatter_on_s": silence_s + carrier_only_s,
            "switch_rate_hz": switch_rate_hz,
        }
