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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.fft
from scipy.signal import hilbert

from repro.acoustics.channel import AcousticChannel
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
from repro.obs.probe import get_probes
from repro.obs.trace import NULL_SPAN, get_tracer
from repro.perf.cache import LRUCache, cache_enabled
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


def _untraced(name: str, **attrs):
    """A stage opener that records nothing (legs built outside a trace)."""
    return NULL_SPAN


def reradiation_response(
    transducer: Transducer,
    n_samples: int,
    carrier_hz: float,
    sample_rate: float,
) -> np.ndarray:
    """The rfft-bin gain vector of the transducer's re-radiation filter.

    A pure function of (transducer, length, carrier, rate), split out of
    :func:`apply_reradiation_filter` so callers that filter many
    same-length waveforms — the leg memo and the batched fleet engine —
    can compute it once per length instead of once per waveform.
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
    (often prime) mixture lengths this filter sees.
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
        registry, attached to the result and the active span).
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
        # exchange (see _run_stages_cached).  A polling campaign repeats
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
        """The node's receive band around its channel."""
        f0 = self.node.channel_frequency_hz
        half = max(self.node.transducer.bandwidth_hz, 1_000.0)
        return f0 - half, f0 + half

    def _node_incident(self, tx_waveform) -> np.ndarray:
        """Incident pressure waveform at the node [Pa]."""
        return (
            self.beam_gain_node
            * self.ch_projector_node.apply(tx_waveform, include_noise=False).waveform
        )

    def _node_selective(self, incident) -> np.ndarray:
        """Incident waveform as the node's resonant element senses it."""
        lo, hi = self._node_band()
        hi = min(hi, self.sample_rate / 2.0 - 1.0)
        lo = max(lo, 1.0)
        return butter_bandpass(incident, lo, hi, self.sample_rate, order=2)

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

    def _direct_arrival(self, tx) -> np.ndarray:
        """The projector's own waveform as it reaches the hydrophone [Pa]."""
        return (
            self.beam_gain_hydrophone
            * self.ch_projector_hydrophone.apply(tx, include_noise=False).waveform
        )

    def _reply_window(
        self, n_samples: int, reply_start: int, n_chips: int, bitrate: float
    ) -> slice:
        """The samples a reply of ``n_chips`` modulates.

        From ``reply_start`` to the end of the last chip, clipped by the
        end of the waveform.
        """
        spc = self.sample_rate / (2.0 * bitrate)
        stop = min(reply_start + int(round(n_chips * spc)), n_samples)
        return slice(reply_start, max(stop, reply_start))

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

    def _idle_reflection(self, analytic, mode: int) -> np.ndarray:
        """``real(gamma_a * analytic)``, with ``gamma_a`` of ``mode``.

        The mode is passed, never read from the node: the batched engine
        builds legs for predicted exchanges.
        """
        gamma_a, _gamma_r = self.node.bank.reflection_states(
            mode, self.projector.carrier_hz
        )
        return np.ascontiguousarray(np.real(gamma_a * analytic))

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

    def _reradiate(self, reflected) -> np.ndarray:
        """The reflection as it leaves the node.

        Filtered through the transducer's resonance
        (:func:`apply_reradiation_filter`), then, for a drifting node,
        Doppler-dilated (the direct carrier is unaffected).  One-way
        Doppler is applied here; the downlink leg's shift is
        second-order for the envelope.
        """
        reflected = apply_reradiation_filter(
            reflected,
            self.node.transducer,
            self.projector.carrier_hz,
            self.sample_rate,
            response=self._reradiation_response(len(reflected)),
        )
        if self.node_velocity_mps:
            from repro.acoustics.doppler import apply_doppler

            moved = apply_doppler(
                reflected, self.node_velocity_mps, self.sample_rate
            )
            if len(moved) < len(reflected):
                moved = np.pad(moved, (0, len(reflected) - len(moved)))
            reflected = moved[: len(reflected)]
        return reflected

    def _backscatter_waveform(
        self, incident, chips, uplink_start_at_node: int
    ) -> np.ndarray:
        """Reflected pressure (at 1 m from the node) given incident waveform.

        The reflection coefficient trajectory multiplies the analytic
        incident signal; outside the reply the node idles in the
        absorptive state (see :meth:`_reflected`).
        """
        analytic = hilbert(np.asarray(incident, dtype=float))
        bitrate = self.node.bitrate
        reply = self._reply_window(
            len(analytic), uplink_start_at_node, len(chips), bitrate
        )
        idle = self._idle_reflection(
            analytic, self.node.firmware.config.resonance_mode
        )
        return self._reradiate(
            self._reflected(idle, analytic[reply], reply.start, chips, bitrate)
        )

    def _slim_carrier(
        self,
        analytic,
        direct,
        uplink_start: int,
        n_chips: int,
        bitrate: float,
        mode: int,
    ) -> CarrierLeg:
        """Cut a propagated carrier down to the :class:`CarrierLeg` it memoizes."""
        reply_start, analysis_start = self._leg_offsets(uplink_start)
        reply = self._reply_window(len(analytic), reply_start, n_chips, bitrate)
        return CarrierLeg(
            idle=self._idle_reflection(analytic, mode),
            window=analytic[reply].copy(),
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
        convolutions.  ``stage(name, **attrs)`` opens each stage's span.
        """
        fs = self.sample_rate
        uplink_s = n_chips / (2.0 * bitrate) + self.UPLINK_MARGIN_S
        with stage("link.pwm_synthesis", segment="query_then_carrier") as sp:
            tx, uplink_start = self.projector.query_then_carrier(
                query, uplink_s, fs
            )
            sp.set(samples=len(tx))
        with stage(
            "link.downlink_propagation", segment="carrier", samples=len(tx)
        ):
            incident = self._node_incident(tx)
        with stage("link.uplink_propagation", segment="direct", samples=len(tx)):
            direct = self._direct_arrival(tx)
        with stage("link.node", phase="backscatter", segment="carrier"):
            return self._slim_carrier(
                hilbert(np.asarray(incident, dtype=float)),
                direct, uplink_start, n_chips, bitrate, mode,
            )

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
        self, carrier: CarrierLeg, chips, bitrate: float, stage=_untraced
    ) -> UplinkLeg:
        """The chip-dependent tail of the uplink leg.

        Modulates the memoized carrier with this reply's reflection
        trajectory, re-radiates it, propagates it to the hydrophone, and
        mixes it with the direct carrier — the same operations on the
        same inputs as the uncached exchange, so the analysed tail of
        the quiet mixture is byte-identical.
        """
        with stage("link.node", phase="backscatter", chips=len(chips)):
            reflected = self._reradiate(
                self._reflected(
                    carrier.idle, carrier.window, carrier.reply_start,
                    chips, bitrate,
                )
            )
        with stage("link.uplink_propagation", samples=len(reflected)):
            uplink = self.ch_node_hydrophone.apply(
                reflected, include_noise=False
            ).waveform
            return self._quiet_tail(carrier, uplink)

    def _record_tail(self, leg: UplinkLeg) -> np.ndarray:
        """Draw this exchange's noise and record the analysed tail.

        The noise stream advances by the whole mixture, as the exchange
        always has; only the tail the demodulator reads is summed and
        recorded.  ``record()`` is elementwise, so this equals slicing a
        recording of the whole mixture bit for bit.
        """
        noise = self.noise.generate(leg.total, self.sample_rate)
        return self.hydrophone.record(leg.tail + noise[leg.analysis_start:])

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
        :meth:`_stage`), whether the exchange took the leg memo or not.

        When signal probes are enabled the stages additionally publish
        waveform taps, and a failed exchange is autopsied into a
        :class:`~repro.obs.postmortem.DecodePostmortem` attached to the
        returned result, the probe registry, and the root span.
        """
        tracer = self._tracer()
        probes = self._probes()
        if probes.enabled:
            txn = probes.begin_transaction()
        with tracer.span("link.transact", destination=int(query.destination)) as root:
            if self._memo_active():
                result = self._run_stages_cached(query, tracer)
            else:
                result = self._run_stages(query, tracer, probes)
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

    def _memo_active(self) -> bool:
        """Whether this link's exchanges may take the leg memo.

        Not when caching is off, when probes want the actual
        intermediate waveforms, or when an energy ledger wants the
        firmware's real decode dwell times.  Tracing does not gate it:
        the memoized path opens the same stage spans.  The memo never
        changes outputs — the gates protect observability, not
        correctness.  The batched engine plans only links for which
        this holds.
        """
        return (
            cache_enabled()
            and not self._probes().enabled
            and self.node.firmware.ledger is None
        )

    @staticmethod
    def _stage(tracer, name: str, source: str, **attrs):
        """Open stage span ``name``, tagged with where its result came from.

        ``source`` is ``"computed"`` (the stage's work ran inside the
        span), ``"recalled"`` (a leg-memo hit stood in for it) or
        ``"batched"`` (a batch hint served the demodulation).
        """
        return tracer.span(name, source=source, **attrs)

    def _recall(self, tracer, key, compute, stages):
        """Leg-memo entry ``key``, computed stage by stage on a miss.

        ``compute(stage)`` builds the leg, opening each stage's span
        through ``stage(name, **attrs)``, tagged ``computed``.  On a hit
        ``stages`` — the ``(name, attrs)`` spans the leg stands in for —
        open empty, tagged ``recalled``, so a traced exchange shows every
        stage whichever way its legs were obtained.
        """
        hit = key in self._leg_memo
        leg = self._leg_memo.get_or_compute(
            key,
            lambda: compute(partial(self._stage, tracer, source="computed")),
        )
        if hit:
            for name, attrs in stages:
                with self._stage(tracer, name, "recalled", **attrs):
                    pass
        return leg

    def _decode_query(self, query: Query, stage) -> Query | None:
        """The node's decode of the query waveform (a memoized leg).

        The PWM decode is pure DSP on the query envelope (the node is
        powered and unledgered on the memo path, and the PWM code is
        fixed at construction), so only the decoded query is kept.
        """
        fs = self.sample_rate
        with stage("link.pwm_synthesis", segment="query") as sp:
            query_wave = self.projector.query_waveform(query, fs)
            sp.set(samples=len(query_wave))
        with stage(
            "link.downlink_propagation", segment="query", samples=len(query_wave)
        ):
            incident = self._node_incident(query_wave)
        with stage("link.node", phase="decode_query") as sp:
            env = envelope_detect(
                self._node_selective(incident), self.projector.carrier_hz, fs
            )
            decoded = self.node.receive_query(env, fs)
            sp.set(decoded=decoded is not None)
        return decoded

    def _run_stages_cached(self, query: Query, tracer) -> LinkResult:
        """The exchange with memoized deterministic legs.

        Every waveform between the projector and the hydrophone is a
        pure function of (query, reply chips, node config) except the
        ambient noise, which is added after the memoized pre-noise
        mixture is retrieved.  Node firmware still executes for real
        where it mutates state — power-up, command handling, and reply
        framing — and the noise stream advances exactly once per
        exchange, as in the uncached path, so a cached campaign is
        byte-identical to an uncached one.

        The stage spans are those of :meth:`_run_stages`, tagged by
        :meth:`_stage`; the noise draw, per-exchange work, runs under
        ``link.hydrophone_dsp`` with the demodulation it feeds.
        """
        f = self.projector.carrier_hz
        node = self.node
        memo = self._leg_memo
        mode = node.firmware.config.resonance_mode
        bitrate = node.bitrate
        budget_key = ("budget", mode, bitrate)
        source = "recalled" if budget_key in memo else "computed"
        with self._stage(tracer, "link.node", source, phase="power_up") as sp:
            budget = memo.get_or_compute(budget_key, self.budget)
            powered = node.try_power_up(budget.incident_pressure_pa, f)
            sp.set(powered_up=powered)
        if not powered:
            return LinkResult(
                powered_up=False, query_decoded=False, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"), budget=budget,
            )

        decoded_query = self._recall(
            tracer, ("downlink_decode", query, mode),
            lambda stage: self._decode_query(query, stage),
            self._QUERY_STAGES,
        )
        if decoded_query is None:
            return LinkResult(
                powered_up=True, query_decoded=False, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"), budget=budget,
            )

        with self._stage(tracer, "link.node", "computed", phase="respond") as sp:
            response = node.respond(decoded_query)
            if response is None:
                return LinkResult(
                    powered_up=True, query_decoded=True, response=None,
                    demod=None, ber=float("nan"), snr_db=float("nan"),
                    budget=budget,
                )
            chips = node.uplink_chips(response)
            sp.set(chips=len(chips))
        # Re-read after respond(): SET_BITRATE / SET_RESONANCE_MODE take
        # effect mid-exchange, and the reply already ships under the new
        # setting (the uncached path reads both inside the uplink stage),
        # so the uplink leg must be keyed by the post-command values.
        bitrate = node.bitrate
        mode = node.firmware.config.resonance_mode

        def uplink_leg(stage) -> UplinkLeg:
            carrier = self._recall(
                tracer, ("carrier", query, len(chips), bitrate, mode),
                lambda st: self._carrier_leg(query, len(chips), bitrate, mode, st),
                self._CARRIER_STAGES,
            )
            return self._uplink_leg(carrier, chips, bitrate, stage)

        uplink_key = ("uplink", query, chips.tobytes(), bitrate, mode)
        leg = self._recall(
            tracer, uplink_key, uplink_leg,
            self._CARRIER_STAGES + self._TAIL_STAGES,
        )
        node.firmware.response_sent()

        uplink_format = node.firmware.config.uplink_format
        hint = self._batch_hints.pop(
            (uplink_key, self._noise_token()), None
        ) if self._batch_hints else None
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
                    self._record_tail(leg),
                    f,
                    bitrate,
                    packet_format=uplink_format,
                    detection_threshold=self.DETECTION_THRESHOLD,
                )
            true_bits = response.to_packet().to_bits(uplink_format)
            ber = (
                bit_error_rate(demod.bits, true_bits)
                if len(demod.bits)
                else float("nan")
            )
            sp.set(crc_ok=demod.success, snr_db=demod.snr_db)
        return LinkResult(
            powered_up=True,
            query_decoded=True,
            response=response,
            demod=demod,
            ber=ber,
            snr_db=demod.snr_db,
            budget=budget,
        )

    def _run_stages(self, query: Query, tracer, probes) -> LinkResult:
        """The exchange computed stage by stage, every intermediate real.

        Taken when :meth:`_memo_active` refuses the memo: caching is
        off, probes capture each stage's waveforms, or a ledgered node
        books real dwells.
        """
        fs = self.sample_rate
        f = self.projector.carrier_hz
        stage = partial(self._stage, tracer, source="computed")
        budget = self.budget()

        # 1. Power-up check from the downlink illumination.
        with stage("link.node", phase="power_up") as sp:
            powered = self.node.try_power_up(budget.incident_pressure_pa, f)
            sp.set(powered_up=powered)
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "power_up",
                incident_pressure_pa=budget.incident_pressure_pa,
                powered=powered,
                predicted_snr_db=budget.predicted_snr_db,
            )
        if not powered:
            return LinkResult(
                powered_up=False, query_decoded=False, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"), budget=budget,
            )

        # 2. Node-side query decode (waveform level).
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
            incident_query = self._node_incident(query_wave)
        if probes.wants("link.downlink_propagation"):
            lo, hi = self._node_band()
            probes.capture(
                "link.downlink_propagation", "incident_query",
                waveform=incident_query, sample_rate=fs, segment="query",
                band_snr_db=band_snr_db(incident_query, fs, lo, hi),
            )
        with stage("link.node", phase="decode_query") as sp:
            env = envelope_detect(
                self._node_selective(incident_query), f, fs
            )
            decoded_query = self.node.receive_query(env, fs)
            sp.set(decoded=decoded_query is not None)
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "query_envelope",
                waveform=env, sample_rate=fs,
                decoded=decoded_query is not None,
            )
        if decoded_query is None:
            return LinkResult(
                powered_up=True, query_decoded=False, response=None,
                demod=None, ber=float("nan"), snr_db=float("nan"), budget=budget,
            )

        # 3. Execute the command; build the reply.
        with stage("link.node", phase="respond") as sp:
            response = self.node.respond(decoded_query)
            if response is None:
                return LinkResult(
                    powered_up=True, query_decoded=True, response=None,
                    demod=None, ber=float("nan"), snr_db=float("nan"),
                    budget=budget,
                )
            chips = self.node.uplink_chips(response)
            sp.set(chips=len(chips))
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "uplink_chips",
                waveform=np.asarray(chips, dtype=float),
                chips=len(chips),
            )
        chip_rate = 2.0 * self.node.bitrate
        uplink_s = len(chips) / chip_rate + self.UPLINK_MARGIN_S

        # 4. Full transmission and physical propagation.
        with stage("link.pwm_synthesis", segment="query_then_carrier") as sp:
            tx, uplink_start = self.projector.query_then_carrier(
                query, uplink_s, fs
            )
            sp.set(samples=len(tx))
        if probes.wants("link.pwm_synthesis"):
            probes.capture(
                "link.pwm_synthesis", "tx_waveform",
                waveform=tx, sample_rate=fs, segment="query_then_carrier",
                uplink_start=int(uplink_start),
            )
        with stage(
            "link.downlink_propagation", segment="carrier", samples=len(tx)
        ):
            incident = self._node_incident(tx)
        if probes.wants("link.downlink_propagation"):
            lo, hi = self._node_band()
            probes.capture(
                "link.downlink_propagation", "incident_carrier",
                waveform=incident, sample_rate=fs, segment="carrier",
                band_snr_db=band_snr_db(incident, fs, lo, hi),
            )
        reply_start, analysis_start = self._leg_offsets(uplink_start)
        with stage("link.node", phase="backscatter", chips=len(chips)):
            reflected = self._backscatter_waveform(incident, chips, reply_start)
            self.node.firmware.response_sent()
        if probes.wants("link.node"):
            probes.capture(
                "link.node", "backscatter_reflected",
                waveform=reflected, sample_rate=fs,
                reply_start=int(reply_start), chips=len(chips),
            )

        # 5. Hydrophone mixture: direct + backscatter + noise.
        with stage("link.uplink_propagation", samples=len(tx)):
            direct = self._direct_arrival(tx)
            uplink = self.ch_node_hydrophone.apply(
                reflected, include_noise=False
            ).waveform
            n = max(len(direct), len(uplink))
            mixture = np.zeros(n)
            mixture[: len(direct)] += direct
            mixture[: len(uplink)] += uplink
            mixture += self.noise.generate(n, fs)
        if probes.wants("link.uplink_propagation"):
            chip_band = (
                max(f - chip_rate, 10.0),
                min(f + chip_rate, fs / 2.0 - 1.0),
            )
            probes.capture(
                "link.uplink_propagation", "hydrophone_mixture",
                waveform=mixture, sample_rate=fs,
                band_snr_db=band_snr_db(mixture, fs, *chip_band),
                uplink_rms_pa=float(np.sqrt(np.mean(uplink**2)))
                if len(uplink) else 0.0,
                direct_rms_pa=float(np.sqrt(np.mean(direct**2)))
                if len(direct) else 0.0,
            )

        # 6. Receiver decode: skip the query portion of the recording (the
        # PWM edges would confuse the modulation extractor), as the
        # paper's offline decoder does by segmenting on the FFT energy
        # (analysis_start, see _leg_offsets).
        with stage("link.hydrophone_dsp", samples=len(mixture)) as sp:
            recording = self.hydrophone.record(mixture)
            uplink_format = self.node.firmware.config.uplink_format
            demod = self.hydrophone.demodulate(
                recording[analysis_start:],
                f,
                self.node.bitrate,
                packet_format=uplink_format,
                detection_threshold=self.DETECTION_THRESHOLD,
            )

            true_bits = response.to_packet().to_bits(uplink_format)
            ber = (
                bit_error_rate(demod.bits, true_bits)
                if len(demod.bits)
                else float("nan")
            )
            sp.set(crc_ok=demod.success, snr_db=demod.snr_db)
        if probes.wants("link.hydrophone_dsp"):
            probes.capture(
                "link.hydrophone_dsp", "analysis_segment",
                analysis_start=int(analysis_start),
                samples=len(recording) - int(analysis_start),
                crc_ok=demod.success, snr_db=demod.snr_db, ber=ber,
                predicted_snr_db=budget.predicted_snr_db,
                error=demod.error or "",
            )
        return LinkResult(
            powered_up=True,
            query_decoded=True,
            response=response,
            demod=demod,
            ber=ber,
            snr_db=demod.snr_db,
            budget=budget,
        )

    def measure_uplink_snr(self, query: Query) -> float:
        """SNR of the uplink with ground-truth timing and bits (Fig. 8).

        Mirrors the paper's measurement methodology (Sec. 6.1a): the
        transmitted sequence is known to the experimenter, the channel is
        estimated against it, and the residual is the noise.  Using the
        true reply timing decouples the SNR metric from packet-detection
        failures at extreme bitrates.
        """
        fs = self.sample_rate
        f = self.projector.carrier_hz
        self.node.force_power(True)
        response = self.node.respond(query)
        if response is None:
            raise ValueError("query produced no response")
        chips = self.node.uplink_chips(response)
        chip_rate = 2.0 * self.node.bitrate
        uplink_s = len(chips) / chip_rate + self.UPLINK_MARGIN_S
        tx, uplink_start = self.projector.query_then_carrier(query, uplink_s, fs)
        incident = self._node_incident(tx)
        reply_start, analysis_start = self._leg_offsets(uplink_start)
        reflected = self._backscatter_waveform(incident, chips, reply_start)
        self.node.firmware.response_sent()
        direct = self.ch_projector_hydrophone.apply(tx, include_noise=False).waveform
        uplink = self.ch_node_hydrophone.apply(reflected, include_noise=False).waveform
        n = max(len(direct), len(uplink))
        mixture = np.zeros(n)
        mixture[: len(direct)] += direct
        mixture[: len(uplink)] += uplink
        mixture += self.noise.generate(n, fs)
        recording = self.hydrophone.record(mixture)
        fmt = self.node.firmware.config.uplink_format
        dem = self.hydrophone.demodulator(f, self.node.bitrate, packet_format=fmt)
        baseband, _cfo = dem.to_baseband(recording[analysis_start:])
        modulation = dem.extract_modulation(baseband)
        delay_nh = int(round(self.ch_node_hydrophone.direct_path.delay_s * fs))
        true_start = reply_start + delay_nh - analysis_start
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
        incident = self._node_incident(tx)
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
        direct = self._direct_arrival(tx)
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
