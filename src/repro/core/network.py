"""Multi-node PAB network with concurrent transmissions (Sec. 3.3, 6.3).

Simulates the paper's FDMA experiments: a multi-tone downlink powers
several recto-piezo nodes at once, all of them reply simultaneously, and
— because backscatter is frequency-agnostic — every node modulates every
carrier.  The hydrophone then separates the collisions with the 2x2
zero-forcing decoder of Sec. 3.3.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import hilbert

from repro.acoustics.channel import AcousticChannel
from repro.acoustics.geometry import Position, Tank
from repro.acoustics.noise import AmbientNoiseModel
from repro.core.hydrophone import Hydrophone
from repro.core.link import ENVELOPE_DECIMATION, _query_envelopes, _query_spectra
from repro.core.projector import MultiToneDownlink, Projector
from repro.dsp.demod import BackscatterDemodulator
from repro.dsp.filters import butter_bandpass
from repro.dsp.fm0 import fm0_expected_chips, fm0_ml_decode
from repro.dsp.metrics import sinr_db
from repro.dsp.mimo import (
    estimate_channel_matrix,
    mimo_equalize,
    zero_forcing_decode,
)
from repro.dsp.packets import FramingError, Packet
from repro.net.messages import Query, Response
from repro.node.node import PABNode


@dataclass
class NodeOutcome:
    """Per-node result of a concurrent round.

    Attributes
    ----------
    address:
        The node's address.
    response:
        Ground-truth response the node transmitted (None if it never
        powered up or decoded its query).
    packet:
        The packet the receiver recovered after collision decoding
        (None on failure).
    sinr_before_db, sinr_after_db:
        SINR of this node's stream before and after zero-forcing
        projection — the Fig. 10 quantities.
    """

    address: int
    response: Response | None
    packet: Packet | None
    sinr_before_db: float
    sinr_after_db: float

    @property
    def success(self) -> bool:
        return self.packet is not None


@dataclass
class ConcurrentResult:
    """Everything a concurrent round produced.

    Attributes
    ----------
    outcomes:
        Per-node outcomes, in node order.
    condition_number:
        cond(H) of the estimated collision channel.
    """

    outcomes: list
    condition_number: float

    @property
    def all_decoded(self) -> bool:
        return all(o.success for o in self.outcomes)


class PABNetwork:
    """A tank with one multi-tone projector, N nodes, and one hydrophone.

    Parameters
    ----------
    tank:
        Geometry.
    projector_transducer_factory:
        Callable returning a projector transducer (one per carrier).
    projector_position, hydrophone_position:
        Fixed infrastructure locations.
    drive_voltage_v:
        Per-carrier drive amplitude.
    sample_rate, max_order, noise:
        Simulation parameters.
    """

    UPLINK_MARGIN_S = 0.02

    def __init__(
        self,
        tank: Tank,
        projector_position: Position,
        hydrophone_position: Position,
        *,
        projector_transducer_factory,
        drive_voltage_v: float = 60.0,
        sample_rate: float = 96_000.0,
        max_order: int = 2,
        noise: AmbientNoiseModel | None = None,
    ) -> None:
        self.tank = tank
        self.projector_position = projector_position
        self.hydrophone_position = hydrophone_position
        self.transducer_factory = projector_transducer_factory
        self.drive_voltage_v = drive_voltage_v
        self.sample_rate = sample_rate
        self.max_order = max_order
        self.noise = (
            noise
            if noise is not None
            else AmbientNoiseModel(spectrum="flat", flat_level_db=60.0, seed=0)
        )
        self.hydrophone = Hydrophone(sample_rate)
        self._nodes: list[tuple[PABNode, Position]] = []

    def add_node(self, node: PABNode, position: Position) -> None:
        """Register a node at a position."""
        self.tank.validate_position(position, "node position")
        if any(n.address == node.address for n, _ in self._nodes):
            raise ValueError(f"duplicate node address {node.address}")
        self._nodes.append((node, position))

    @property
    def nodes(self) -> list[PABNode]:
        return [n for n, _ in self._nodes]

    # -- channels -------------------------------------------------------------------------

    def _channel(self, a: Position, b: Position, f: float) -> AcousticChannel:
        return AcousticChannel(
            self.tank, a, b,
            sample_rate=self.sample_rate, frequency_hz=f, max_order=self.max_order,
        )

    # -- the concurrent round ---------------------------------------------------------------

    def run_concurrent_round(self, queries: list[Query]) -> ConcurrentResult:
        """All nodes queried and replying simultaneously.

        ``queries`` must align with the registered nodes (one each) and
        all nodes must share a bitrate for chip-aligned collision
        decoding.
        """
        if len(queries) != len(self._nodes):
            raise ValueError("need exactly one query per node")
        if not self._nodes:
            raise ValueError("no nodes registered")
        bitrates = {n.bitrate for n, _ in self._nodes}
        if len(bitrates) != 1:
            raise ValueError("concurrent nodes must share a bitrate")
        bitrate = bitrates.pop()
        fs = self.sample_rate
        chip_rate = 2.0 * bitrate
        carriers = [n.channel_frequency_hz for n, _ in self._nodes]
        if len(set(carriers)) != len(carriers):
            raise ValueError("nodes must occupy distinct channels")

        projectors = [
            Projector(
                transducer=self.transducer_factory(),
                drive_voltage_v=self.drive_voltage_v,
                carrier_hz=f,
            )
            for f in carriers
        ]
        downlink = MultiToneDownlink(projectors)

        # Ground-truth node behaviour: decode own query, build reply.
        responses: list[Response | None] = []
        chip_seqs: list[np.ndarray | None] = []
        for (node, pos), query, projector in zip(self._nodes, queries, projectors):
            f = node.channel_frequency_hz
            ch = self._channel(self.projector_position, pos, f)
            p_node = projector.source_pressure_pa * ch.magnitude_gain(f)
            response = None
            if node.try_power_up(p_node, f):
                q_wave = projector.query_waveform(query, fs)
                envelope = _query_envelopes(
                    _query_spectra([ch], [1.0], q_wave[None]),
                    len(q_wave) + len(ch._impulse) - 1,
                    f, node.receive_band(fs), fs,
                )[0]
                rx_query = node.receive_query(
                    envelope, fs / ENVELOPE_DECIMATION
                )
                if rx_query is not None:
                    response = node.respond(rx_query)
            responses.append(response)
            chip_seqs.append(
                node.uplink_chips(response) if response is not None else None
            )

        active = [i for i, c in enumerate(chip_seqs) if c is not None]
        longest_chips = max((len(chip_seqs[i]) for i in active), default=0)
        uplink_s = longest_chips / chip_rate + self.UPLINK_MARGIN_S

        tx, uplink_start = downlink.queries_then_carrier(queries, uplink_s, fs)

        # Physical backscatter: every node modulates every carrier.
        mixture = None
        for i, (node, pos) in enumerate(self._nodes):
            if chip_seqs[i] is None:
                continue
            ch_in = self._channel(self.projector_position, pos, carriers[i])
            incident = ch_in.apply(tx, include_noise=False).waveform
            delay = int(round(ch_in.direct_path.delay_s * fs))
            reply_start = uplink_start + delay + int(self.UPLINK_MARGIN_S / 2 * fs)
            reflected = np.zeros(len(incident))
            for f_j in carriers:
                half = max(node.transducer.bandwidth_hz, 1_000.0) * 2.0
                component = butter_bandpass(
                    incident,
                    max(f_j - half, 1.0),
                    min(f_j + half, fs / 2 - 1.0),
                    fs,
                    order=2,
                )
                gamma_a, _gr, trajectory = self._trajectory_at(
                    node, chip_seqs[i], f_j
                )
                gamma_t = np.full(len(component), complex(gamma_a))
                spc = fs / chip_rate
                for k, g in enumerate(trajectory):
                    a = reply_start + int(round(k * spc))
                    b = reply_start + int(round((k + 1) * spc))
                    if a >= len(component):
                        break
                    gamma_t[a : min(b, len(component))] = g
                reflected += np.real(gamma_t * hilbert(component))
            ch_out = self._channel(pos, self.hydrophone_position, carriers[i])
            contribution = ch_out.apply(reflected, include_noise=False).waveform
            if mixture is None:
                mixture = np.zeros(
                    max(len(contribution), len(tx) + int(0.05 * fs))
                )
            if len(contribution) > len(mixture):
                mixture = np.pad(mixture, (0, len(contribution) - len(mixture)))
            mixture[: len(contribution)] += contribution
        ch_direct = self._channel(
            self.projector_position, self.hydrophone_position, carriers[0]
        )
        direct = ch_direct.apply(tx, include_noise=False).waveform
        if mixture is None:
            mixture = np.zeros(len(direct))
        if len(direct) > len(mixture):
            mixture = np.pad(mixture, (0, len(direct) - len(mixture)))
        mixture[: len(direct)] += direct
        mixture += self.noise.generate(len(mixture), fs)

        # Ground-truth chip timing at the hydrophone (the paper's analysis
        # also works with known transmissions; per-node path-delay
        # differences are well under a chip).
        reply_starts = []
        for i, (node, pos) in enumerate(self._nodes):
            if chip_seqs[i] is None:
                continue
            d_in = self._channel(self.projector_position, pos, carriers[i])
            d_out = self._channel(pos, self.hydrophone_position, carriers[i])
            delay = int(round((d_in.direct_path.delay_s + d_out.direct_path.delay_s) * fs))
            reply_starts.append(
                uplink_start + delay + int(self.UPLINK_MARGIN_S / 2 * fs)
            )
        chip_start = int(np.mean(reply_starts)) if reply_starts else uplink_start

        return self._decode_collisions(
            mixture, carriers, bitrate, uplink_start, responses, chip_start
        )

    def _trajectory_at(self, node: PABNode, chips, frequency_hz: float):
        """Reflection trajectory of a node evaluated at any carrier."""
        gamma_a, gamma_r = node.bank.reflection_states(
            node.firmware.config.resonance_mode, frequency_hz
        )
        chips = np.asarray(chips)
        return gamma_a, gamma_r, np.where(chips.astype(bool), gamma_r, gamma_a)

    # -- receiver side -------------------------------------------------------------------------

    @staticmethod
    def _complex_chips(baseband, start: int, samples_per_chip: float) -> np.ndarray:
        """Integrate-and-dump complex chip amplitudes from ``start``."""
        x = np.asarray(baseband)
        n_chips = int((len(x) - start) / samples_per_chip)
        if n_chips <= 0:
            return np.zeros(0, dtype=complex)
        out = np.empty(n_chips, dtype=complex)
        for k in range(n_chips):
            a = start + int(round(k * samples_per_chip))
            b = start + int(round((k + 1) * samples_per_chip))
            out[k] = np.mean(x[a:b]) if b > a else 0.0
        return out

    def _decode_collisions(
        self, mixture, carriers, bitrate, uplink_start, responses, chip_start
    ) -> ConcurrentResult:
        fs = self.sample_rate
        chip_rate = 2.0 * bitrate
        recording = self.hydrophone.record(mixture)
        analysis_start = uplink_start + int(0.3 * self.UPLINK_MARGIN_S * fs)
        analysis = recording[analysis_start:]
        start = max(chip_start - analysis_start, 0)
        outcomes: list[NodeOutcome] = []

        # Per-channel complex baseband and complex chip streams.  The two
        # nodes' modulations arrive with different carrier phases, so a
        # real-axis projection cannot represent both; the collision
        # decoder works on complex chips with a complex channel matrix.
        demods: list[BackscatterDemodulator] = []
        chip_streams = []
        for i, f in enumerate(carriers):
            node = self._nodes[i][0]
            dem = BackscatterDemodulator(
                f, bitrate, fs,
                packet_format=node.firmware.config.uplink_format,
                detection_threshold=0.35,
            )
            demods.append(dem)
            baseband, _cfo = dem.to_baseband(analysis)
            centred = np.asarray(baseband) - np.mean(baseband)
            amps = self._complex_chips(centred, start, fs / chip_rate)
            chip_streams.append(amps - np.mean(amps))
        n_chips = min(len(c) for c in chip_streams)
        y = np.vstack([c[:n_chips] for c in chip_streams])

        # Training: each node's known preamble chips.
        training = []
        for i, (node, _pos) in enumerate(self._nodes):
            pre = node.firmware.config.uplink_format.preamble
            training.append(fm0_expected_chips(pre))
        train_len = min(min(len(t) for t in training), n_chips)
        x_train = np.vstack([t[:train_len] for t in training])

        try:
            h = estimate_channel_matrix(y[:, :train_len], x_train)
            condition = float(np.linalg.cond(h))
        except (ValueError, np.linalg.LinAlgError):
            condition = float("inf")
        try:
            # The joint MIMO equaliser subsumes zero-forcing and also
            # removes inter-chip interference from tank reverberation.
            separated = mimo_equalize(y, x_train, taps=9)
        except (ValueError, np.linalg.LinAlgError):
            separated = y

        for i, (node, _pos) in enumerate(self._nodes):
            response = responses[i]
            packet = None
            sinr_before = float("nan")
            sinr_after = float("nan")
            if response is not None:
                fmt = node.firmware.config.uplink_format
                true_bits = response.to_packet().to_bits(fmt)
                true_chips = fm0_expected_chips(true_bits)
                ref_len = min(len(true_chips), n_chips)
                sinr_before = sinr_db(y[i, :ref_len], true_chips[:ref_len])
                sinr_after = sinr_db(separated[i, :ref_len], true_chips[:ref_len])
                stream = separated[i, : 2 * (ref_len // 2)]
                if np.iscomplexobj(stream):
                    # Rotate the stream onto the real axis before the
                    # (real-valued) FM0 Viterbi decoder.
                    second = np.mean(stream**2)
                    if abs(second) > 1e-30:
                        stream = np.real(
                            stream * np.exp(-0.5j * np.angle(second))
                        )
                    else:
                        stream = np.real(stream)
                bits = fm0_ml_decode(stream)
                try:
                    packet = Packet.from_bits(bits, fmt)
                except FramingError:
                    packet = None
            outcomes.append(
                NodeOutcome(
                    address=int(node.address),
                    response=response,
                    packet=packet,
                    sinr_before_db=sinr_before,
                    sinr_after_db=sinr_after,
                )
            )
        return ConcurrentResult(outcomes=outcomes, condition_number=condition)
