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

The waveform stages of steps 2-4 (``_incident``, ``_direct``,
``_envelope``, ``_carrier_legs``, ``_uplink_legs``) take one row per
link as an (N, samples) stack.  A live exchange is the one-row call,
and the batched fleet engine (:mod:`repro.perf.batch`) calls the same
functions on groups of rows, so both modes share one implementation.
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
from repro.acoustics.doppler import apply_doppler
from repro.acoustics.geometry import Position, Tank
from repro.acoustics.noise import AmbientNoiseModel
from repro.dsp.demod import DemodResult
from repro.dsp.filters import butter_bandpass, envelope_detect
from repro.dsp.metrics import bit_error_rate
from repro.dsp.spectral import band_snr_db
from repro.core.hydrophone import Hydrophone
from repro.core.projector import Projector
from repro.net.messages import Query, Response
from repro.node.node import PABNode
from repro.obs.probe import ProbeRegistry, get_probes, use_probes
from repro.obs.trace import NULL_SPAN, get_tracer
from repro.perf.cache import LRUCache
from repro.perf.kernels import stack_rows
from repro.piezo.transducer import Transducer


class CarrierLeg(NamedTuple):
    """The reply-independent half of an uplink leg, as the leg memo holds it.

    Keyed by query, reply length, bitrate and resonance mode, and cut to
    what the chip-dependent tail (:meth:`BackscatterLink._uplink_leg`)
    reads.  The tail rebuilds the node's reflection by overwriting the
    reply window of ``idle``; outside that window the node idles in the
    absorptive state.
    """

    #: ``real(gamma_a * analytic)`` over the whole incident waveform,
    #: with ``gamma_a`` the absorptive reflection of the key's mode.
    idle: np.ndarray
    #: The analytic incident under the reply window only.
    window: np.ndarray
    #: First sample of the reply window.
    reply_start: int
    #: The direct projector arrival from ``analysis_start`` on.
    direct_tail: np.ndarray
    #: Length of the whole direct arrival.
    direct_len: int
    #: First hydrophone sample the demodulator reads.
    analysis_start: int


class UplinkLeg(NamedTuple):
    """The quiet (pre-noise) hydrophone mixture, as the leg memo holds it."""

    #: ``mixture[analysis_start:]``: all the demodulator reads.
    tail: np.ndarray
    #: Length of the whole mixture.  The exchange still draws this much
    #: noise, so the noise stream advances exactly as before.
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


def reradiation_response(
    transducer: Transducer,
    n_samples: int,
    carrier_hz: float,
    sample_rate: float,
) -> np.ndarray:
    """The rfft-bin gain vector of the transducer's re-radiation filter.

    A pure function of (transducer, length, carrier, rate), split out of
    :func:`apply_reradiation_filter` so the uplink stage
    (:func:`_uplink_legs`), which filters many same-length waveforms,
    can take it from the leg memo once per length.
    """
    freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    response = np.ones_like(freqs)
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

    ``response`` may carry a precomputed :func:`reradiation_response`
    for this exact length; passing it changes nothing numerically.

    The transform runs through :mod:`scipy.fft` (pypocketfft), which is
    bit-identical to ``np.fft`` but ~1.7x faster at the awkward
    (often prime) mixture lengths this filter sees.  The exchange runs
    the same filter over row stacks in :func:`_uplink_legs`; this 1-D
    form is its reference.
    """
    x = np.asarray(waveform, dtype=float)
    if len(x) == 0:
        return x.copy()
    spectrum = scipy.fft.rfft(x)
    if response is None:
        response = reradiation_response(
            transducer, len(x), carrier_hz, sample_rate
        )
    return scipy.fft.irfft(spectrum * response, n=len(x))


# -- stacked stages ---------------------------------------------------------------------
#
# Each stage takes one row per link, as an (N, samples) stack, and row i
# of its result is links[i]'s own one-row call, bit for bit: the stacked
# convolutions and transforms run each row with the plan a lone 1-D call
# would use, and everything data-dependent runs per row.  A live
# exchange is the one-row call; the batched engine (repro.perf.batch)
# makes one call per group of rows that share the shapes a stack needs.


def _incident(links, tx) -> np.ndarray:
    """Incident pressure at each row's node [Pa], from its projector's ``tx`` row."""
    gains = np.array([link.beam_gain_node for link in links])[:, None]
    return gains * AcousticChannel.propagate(
        [link.ch_projector_node for link in links], tx
    )


def _direct(links, tx) -> np.ndarray:
    """Each row's projector waveform as it reaches the hydrophone [Pa]."""
    gains = np.array([link.beam_gain_hydrophone for link in links])[:, None]
    return gains * AcousticChannel.propagate(
        [link.ch_projector_hydrophone for link in links], tx
    )


def _envelope(links, incident) -> np.ndarray:
    """The query envelope each row's node detects in its ``incident`` row.

    The node's resonant element passes its receive band
    (:meth:`BackscatterLink._node_band`), and the PWM detector rectifies
    and low-passes that.  Every row shares ``links[0]``'s band, carrier
    and sample rate.
    """
    link = links[0]
    fs = link.sample_rate
    lo, hi = link._node_band()
    return envelope_detect(
        butter_bandpass(incident, lo, hi, fs, order=2),
        link.projector.carrier_hz, fs,
    )


def _carrier_legs(
    links, tx, rows, stage=_untraced, probes=_UNPROBED
) -> list[CarrierLeg]:
    """The :class:`CarrierLeg` of each row's query-then-carrier ``tx``.

    ``rows[i]`` is ``(uplink_start, n_chips, bitrate, mode)`` for row i.
    Both channel convolutions run stacked; the analytic (Hilbert)
    transform, which gains nothing from stacking on one core, and the
    cut to a slim leg run per row.  ``stage(name, **attrs)`` opens each
    stage's span; ``probes`` receives the ``incident_carrier`` tap.
    """
    samples = tx.shape[-1]
    with stage("link.downlink_propagation", segment="carrier", samples=samples):
        incident = _incident(links, tx)
    if probes.wants("link.downlink_propagation"):
        for link, row in zip(links, incident):
            fs = link.sample_rate
            probes.capture(
                "link.downlink_propagation", "incident_carrier",
                waveform=row, sample_rate=fs, segment="carrier",
                band_snr_db=band_snr_db(row, fs, *link._node_band()),
            )
    with stage("link.uplink_propagation", segment="direct", samples=samples):
        direct = _direct(links, tx)
    with stage("link.node", phase="backscatter", segment="carrier"):
        return [
            link._slim_carrier(hilbert(inc), dir_, *row)
            for link, inc, dir_, row in zip(links, incident, direct, rows)
        ]


def _uplink_legs(
    links, carriers, chips, bitrates, stage=_untraced, probes=_UNPROBED
) -> list[UplinkLeg]:
    """The quiet :class:`UplinkLeg` of each row's carrier, modulated by its chips.

    Row i reflects ``carriers[i]`` with ``chips[i]`` at ``bitrates[i]``
    (:meth:`BackscatterLink._reflected`), re-radiates it through the
    transducer's resonance (as :func:`apply_reradiation_filter` does:
    one stacked rfft, each row's response, one stacked irfft), dilates
    a drifting node's row by its one-way Doppler (the direct carrier is
    unaffected; the downlink's shift is second-order for the envelope),
    propagates the stack to the hydrophone and mixes each row with its
    direct carrier (:meth:`BackscatterLink._quiet_tail`).  Every step is
    elementwise over the whole waveform, so the analysed tail of the
    quiet mixture is the whole mixture's tail bit for bit.  The
    carriers share one waveform length.  ``probes`` receives the
    ``backscatter_reflected`` tap.
    """
    with stage("link.node", phase="backscatter", chips=sum(map(len, chips))):
        reflected = stack_rows([
            link._reflected(c.idle, c.window, c.reply_start, row_chips, bitrate)
            for link, c, row_chips, bitrate in zip(
                links, carriers, chips, bitrates
            )
        ])
        n = reflected.shape[-1]
        responses = stack_rows([link._reradiation_response(n) for link in links])
        reflected = scipy.fft.irfft(
            scipy.fft.rfft(reflected, axis=-1) * responses, n=n, axis=-1
        )
        for link, row in zip(links, reflected):
            if link.node_velocity_mps:
                moved = apply_doppler(
                    row, link.node_velocity_mps, link.sample_rate
                )[:n]
                row[: len(moved)] = moved
                row[len(moved):] = 0.0
    if probes.wants("link.node"):
        for link, row, c, row_chips in zip(links, reflected, carriers, chips):
            probes.capture(
                "link.node", "backscatter_reflected",
                waveform=row, sample_rate=link.sample_rate,
                reply_start=int(c.reply_start), chips=len(row_chips),
            )
    with stage("link.uplink_propagation", samples=n):
        uplinks = AcousticChannel.propagate(
            [link.ch_node_hydrophone for link in links], reflected
        )
        legs = [
            BackscatterLink._quiet_tail(c, uplink)
            for c, uplink in zip(carriers, uplinks)
        ]
    if probes.wants("link.uplink_propagation"):
        legs = [
            leg._replace(
                direct_rms_pa=_rms(c.direct_tail),
                uplink_rms_pa=_rms(uplink[leg.analysis_start:]),
            )
            for leg, c, uplink in zip(legs, carriers, uplinks)
        ]
    return legs


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


class BackscatterLink:
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
    """

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

    # -- checkpointing ---------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-ready mutable state: the noise RNG stream and the node.

        Geometry, channels, and the leg memo are deterministic functions
        of construction parameters (the memo is a pure cache), so only
        the stochastic noise stream and the node's books need saving.
        """
        return {
            "noise": self.noise.snapshot_state(),
            "node": self.node.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state`.

        Pending batch hints are dropped: they were computed for the
        timeline being replaced.  (Their noise-token keys would refuse
        to match a diverged stream anyway — this just frees the memory.)
        """
        self.noise.restore_state(state["noise"])
        self.node.restore_state(state["node"])
        self._batch_hints.clear()

    def _noise_token(self):
        """A hashable token for the ambient-noise RNG's exact position.

        The batched prepass keys its precomputed demodulations by this
        token so a hint is consumed only when the live exchange is about
        to draw the very same noise samples the prepass drew (a retry,
        an injected fault, or a mid-round reconfiguration makes the
        streams diverge, and the hint is then simply ignored).
        """
        state = self.noise.snapshot_state()["rng"]

        def _hashable(value):
            if isinstance(value, dict):
                return tuple(
                    (k, _hashable(v)) for k, v in sorted(value.items())
                )
            return value

        return _hashable(state)

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

    def _node_band(self) -> tuple[float, float]:
        """The node's receive band around its channel, inside (0, Nyquist)."""
        f0 = self.node.channel_frequency_hz
        half = max(self.node.transducer.bandwidth_hz, 1_000.0)
        return max(f0 - half, 1.0), min(f0 + half, self.sample_rate / 2.0 - 1.0)

    def _reradiation_response(self, n_samples: int) -> np.ndarray:
        """Memoized re-radiation gain vector for one waveform length.

        The vector is a pure function of the (fixed) transducer, carrier,
        and rate, so the memo is keyed by length alone; with caching
        globally disabled it is recomputed per call, exactly as before.
        """
        return self._leg_memo.get_or_compute(
            ("rerad_response", n_samples),
            lambda: reradiation_response(
                self.node.transducer,
                n_samples,
                self.projector.carrier_hz,
                self.sample_rate,
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

    def _reflected(
        self, idle, window, reply_start: int, chips, bitrate: float
    ) -> np.ndarray:
        """The node's reflection of the analytic incident, before re-radiation.

        The reflection coefficient trajectory multiplies the analytic
        incident signal under the reply ``window``; everywhere else the
        node idles in the absorptive state, whose reflection ``idle``
        already holds.  Every sample is the same elementwise product a
        whole-waveform trajectory gives.
        """
        reflected = np.array(idle)
        gamma = self._reply_gamma(chips, bitrate, len(window))
        reflected[reply_start : reply_start + len(window)] = np.real(
            gamma * window
        )
        return reflected

    def _carrier_tx(self, query: Query, n_chips: int, bitrate: float):
        """``(tx, uplink_start)``: the query, then a carrier for ``n_chips`` chips.

        The carrier runs the reply's length plus :attr:`UPLINK_MARGIN_S`.
        """
        uplink_s = n_chips / (2.0 * bitrate) + self.UPLINK_MARGIN_S
        return self.projector.query_then_carrier(query, uplink_s, self.sample_rate)

    def _slim_carrier(
        self,
        analytic,
        direct,
        uplink_start: int,
        n_chips: int,
        bitrate: float,
        mode: int,
    ) -> CarrierLeg:
        """Cut a propagated carrier down to the :class:`CarrierLeg` it memoizes.

        The reply window runs from ``reply_start`` to the end of the last
        chip, clipped by the end of the waveform.  ``gamma_a`` is that of
        ``mode``, never read from the node: the batched engine builds
        legs for predicted exchanges.
        """
        reply_start, analysis_start = self._leg_offsets(uplink_start)
        spc = self.sample_rate / (2.0 * bitrate)
        end = min(reply_start + int(round(n_chips * spc)), len(analytic))
        gamma_a, _gamma_r = self.node.bank.reflection_states(
            mode, self.projector.carrier_hz
        )
        return CarrierLeg(
            idle=np.ascontiguousarray(np.real(gamma_a * analytic)),
            window=analytic[reply_start : max(end, reply_start)].copy(),
            reply_start=reply_start,
            direct_tail=direct[analysis_start:].copy(),
            direct_len=len(direct),
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
        chip-dependent tail, not the hilbert transform and two channel
        convolutions.  The transmission is synthesised here and the rest
        is :func:`_carrier_legs`' one row.  ``stage(name, **attrs)`` opens
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
    def _quiet_tail(carrier: CarrierLeg, uplink) -> UplinkLeg:
        """The pre-noise hydrophone mixture from the analysis start on.

        Summed as the whole mixture would be (zeros, then the direct
        carrier, then the propagated reflection) but only over the
        analysed samples — elementwise, so each is bit-identical.
        """
        start = carrier.analysis_start
        total = max(carrier.direct_len, len(uplink))
        tail = np.zeros(max(total - start, 0))
        tail[: len(carrier.direct_tail)] += carrier.direct_tail
        reflected = uplink[start:]
        tail[: len(reflected)] += reflected
        return UplinkLeg(tail, total, start)

    def _uplink_leg(
        self,
        carrier: CarrierLeg,
        chips,
        bitrate: float,
        stage=_untraced,
        probes=_UNPROBED,
    ) -> UplinkLeg:
        """The chip-dependent tail of the uplink leg: :func:`_uplink_legs`' one row.

        Modulates the memoized carrier with this reply's reflection
        trajectory, re-radiates it, propagates it to the hydrophone, and
        mixes it with the direct carrier.  ``probes`` receives the
        ``backscatter_reflected`` tap.
        """
        return _uplink_legs(
            [self], [carrier], [chips], [bitrate], stage, probes
        )[0]

    def _record_tail(self, leg: UplinkLeg, probes=_UNPROBED) -> np.ndarray:
        """Draw this exchange's noise and record the analysed tail.

        The noise stream advances by the whole mixture, as the exchange
        always has; only the tail the demodulator reads is summed and
        recorded.  ``record()`` is elementwise, so this equals slicing a
        recording of the whole mixture bit for bit.  ``probes`` receives
        the ``hydrophone_mixture`` tap: the noisy mixture from
        ``analysis_start`` on.
        """
        fs = self.sample_rate
        noise = self.noise.generate(leg.total, fs)
        mixture = leg.tail + noise[leg.analysis_start:]
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
            incident = _incident([self], query_wave[None])
        if probes.wants("link.downlink_propagation"):
            probes.capture(
                "link.downlink_propagation", "incident_query",
                waveform=incident[0], sample_rate=fs, segment="query",
                band_snr_db=band_snr_db(incident[0], fs, *self._node_band()),
            )
        with stage("link.node", phase="decode_query") as sp:
            env = _envelope([self], incident)[0]
            decoded = self.node.receive_query(env, fs)
            sp.set(decoded=decoded is not None)
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "query_envelope",
                waveform=env, sample_rate=fs, decoded=decoded is not None,
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
        incident = _incident([self], tx[None])[0]
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
