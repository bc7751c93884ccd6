"""Integration tests for the single-link waveform simulation."""

import numpy as np
import pytest

from repro.acoustics import POOL_A, Position
from repro.core import BackscatterLink, Projector
from repro.net.messages import Command, Query
from repro.node.node import Environment, PABNode
from repro.piezo import Transducer
from repro.sensing.pressure import ATMOSPHERE_MBAR, WaterColumn


def make_link(
    *,
    drive=50.0,
    node_distance=1.0,
    bitrate=1_000.0,
    environment=None,
    channel=None,
    modes=1,
    velocity=0.0,
):
    transducer = Transducer.from_cylinder_design()
    f = channel if channel is not None else transducer.resonance_hz
    projector = Projector(
        transducer=transducer, drive_voltage_v=drive, carrier_hz=f
    )
    node = PABNode(
        address=7,
        channel_frequencies_hz=tuple(f * (1.0 - 0.04 * m) for m in range(modes)),
        bitrate=bitrate,
        environment=environment,
    )
    return BackscatterLink(
        POOL_A,
        projector,
        Position(0.5, 1.5, 0.6),
        node,
        Position(0.5 + node_distance, 1.5, 0.6),
        Position(1.0, 0.8, 0.6),
        node_velocity_mps=velocity,
    )


PING = Query(destination=7, command=Command.PING)


class TestBudget:
    def test_budget_fields_sane(self):
        b = make_link().budget()
        assert b.source_pressure_pa > 0
        assert 0 < b.incident_pressure_pa
        assert 0 < b.modulation_depth <= 1.0
        assert b.uplink_pressure_pa < b.incident_pressure_pa
        assert b.predicted_snr_db > 0

    def test_budget_weakens_with_distance(self):
        near = make_link(node_distance=1.0).budget()
        far = make_link(node_distance=3.0).budget()
        assert far.incident_pressure_pa < near.incident_pressure_pa


class TestExchange:
    def test_full_ping_exchange(self):
        result = make_link().run_query(PING)
        assert result.powered_up
        assert result.query_decoded
        assert result.success
        assert result.ber == 0.0
        assert result.demod.packet.address == 7

    def test_weak_downlink_no_power_up(self):
        result = make_link(drive=2.0).run_query(PING)
        assert not result.powered_up
        assert result.demod is None

    def test_sensor_query_end_to_end(self):
        """The headline application: read pH over the acoustic link."""
        env = Environment(
            water=WaterColumn(depth_m=0.6, temperature_c=21.0), true_ph=7.8
        )
        link = make_link(environment=env)
        result = link.run_query(Query(destination=7, command=Command.READ_PH))
        assert result.success
        from repro.net.messages import Response

        response = Response.from_packet(result.demod.packet)
        assert response.reading().values[0] == pytest.approx(7.8, abs=0.15)

    def test_pressure_query_end_to_end(self):
        env = Environment(water=WaterColumn(depth_m=0.6, temperature_c=18.0))
        link = make_link(environment=env)
        result = link.run_query(
            Query(destination=7, command=Command.READ_PRESSURE_TEMP)
        )
        assert result.success
        from repro.net.messages import Response

        p, t = Response.from_packet(result.demod.packet).reading().values
        assert p == pytest.approx(ATMOSPHERE_MBAR + 98.1 * 0.6, rel=0.01)
        assert t == pytest.approx(18.0, abs=0.3)

    def test_wrong_address_no_reply(self):
        link = make_link()
        result = link.run_query(Query(destination=9, command=Command.PING))
        assert result.powered_up and result.query_decoded
        assert result.response is None

    def test_snr_decreases_with_distance(self):
        near = make_link(node_distance=1.0).measure_uplink_snr(PING)
        far = make_link(node_distance=3.0).measure_uplink_snr(PING)
        assert near > far

    def test_oracle_snr_decreases_with_bitrate(self):
        """The Fig. 8 trend, spot-checked at two rates."""
        slow = make_link(bitrate=200.0).measure_uplink_snr(PING)
        fast = make_link(bitrate=3_000.0).measure_uplink_snr(PING)
        assert slow > fast + 5.0


class TestSwitchingDemo:
    def test_fig2_structure(self):
        """Fig. 2: flat carrier after projector-on, then two-level
        alternation when the node starts switching."""
        link = make_link()
        link.node.force_power(True)
        demo = link.switching_demo(
            silence_s=0.2, carrier_only_s=0.3, switching_s=0.5
        )
        env = demo["envelope_pa"]
        fs = link.sample_rate
        t_carrier = int(demo["carrier_on_s"] * fs)
        t_switch = int(demo["backscatter_on_s"] * fs)
        silence = env[: t_carrier - int(0.02 * fs)]
        carrier = env[t_carrier + int(0.05 * fs) : t_switch - int(0.02 * fs)]
        switching = env[t_switch + int(0.05 * fs) :]
        # Silence is quiet; carrier-only is a steady level; switching
        # alternates between two levels (higher variance).
        assert np.std(silence) < 0.05 * np.mean(carrier)
        assert np.std(carrier) < 0.1 * np.mean(carrier)
        assert np.std(switching) > 2.0 * np.std(carrier)

    def test_switch_rate_visible(self):
        link = make_link()
        link.node.force_power(True)
        demo = link.switching_demo(
            silence_s=0.1, carrier_only_s=0.2, switching_s=1.0,
            switch_rate_hz=10.0,
        )
        fs = link.sample_rate
        start = int(demo["backscatter_on_s"] * fs) + int(0.1 * fs)
        seg = demo["envelope_pa"][start:]
        seg = seg - np.mean(seg)
        spec = np.abs(np.fft.rfft(seg * np.hanning(len(seg))))
        freqs = np.fft.rfftfreq(len(seg), 1.0 / fs)
        band = (freqs > 2.0) & (freqs < 40.0)
        peak = freqs[band][np.argmax(spec[band])]
        assert peak == pytest.approx(10.0, abs=1.5)


class TestChannelReport:
    def test_report_structure(self):
        link = make_link()
        report = link.channel_report()
        assert set(report) == {
            "projector_to_node",
            "node_to_hydrophone",
            "projector_to_hydrophone",
        }
        for leg in report.values():
            assert leg["n_paths"] > 1
            assert leg["rms_delay_spread_s"] > 0
            assert leg["delay_spread_chips"] > 0

    def test_spread_scales_with_bitrate(self):
        slow = make_link(bitrate=500.0).channel_report()
        fast = make_link(bitrate=2_000.0).channel_report()
        assert fast["node_to_hydrophone"]["delay_spread_chips"] > (
            slow["node_to_hydrophone"]["delay_spread_chips"]
        )


def reference_uplink(link, query, chips, bitrate, mode, *, reply_shift=0):
    """The quiet uplink mixture computed over the whole waveform.

    The reflection trajectory spans the whole incident signal
    (``gamma_t * analytic``), then re-radiation, the uplink channel and
    the mixture with the direct carrier, all at full length; the result
    is sliced at the analysis start.  Returns ``(tail, total,
    analysis_start, incident length, reply_start, mixture)``, with
    ``mixture`` the whole quiet mixture.
    """
    from scipy.signal import hilbert

    from repro.acoustics.doppler import apply_doppler
    from repro.core.link import apply_reradiation_filter

    fs = link.sample_rate
    f = link.projector.carrier_hz
    spc = fs / (2.0 * bitrate)
    uplink_s = len(chips) / (2.0 * bitrate) + link.UPLINK_MARGIN_S
    tx, uplink_start = link.projector.query_then_carrier(query, uplink_s, fs)
    incident = (
        link.beam_gain_node
        * link.ch_projector_node.apply(tx, include_noise=False).waveform
    )
    n = len(incident)
    delay_pn = int(round(link.ch_projector_node.direct_path.delay_s * fs))
    reply_start = (
        uplink_start + delay_pn + int(link.UPLINK_MARGIN_S / 2 * fs)
        + reply_shift
    )
    gamma_a, gamma_r = link.node.bank.reflection_states(mode, f)
    trajectory = np.where(np.asarray(chips).astype(bool), gamma_r, gamma_a)
    gamma_t = np.full(n, complex(gamma_a))
    for k, g in enumerate(trajectory):
        a = reply_start + int(round(k * spc))
        b = reply_start + int(round((k + 1) * spc))
        if a >= n:
            break
        gamma_t[a : min(b, n)] = g
    reflected = np.real(gamma_t * hilbert(incident))
    reflected = apply_reradiation_filter(reflected, link.node.transducer, f, fs)
    if link.node_velocity_mps:
        moved = apply_doppler(reflected, link.node_velocity_mps, fs)
        if len(moved) < len(reflected):
            moved = np.pad(moved, (0, len(reflected) - len(moved)))
        reflected = moved[: len(reflected)]
    direct = (
        link.beam_gain_hydrophone
        * link.ch_projector_hydrophone.apply(tx, include_noise=False).waveform
    )
    uplink = link.ch_node_hydrophone.apply(reflected, include_noise=False).waveform
    mixture = np.zeros(max(len(direct), len(uplink)))
    mixture[: len(direct)] += direct
    mixture[: len(uplink)] += uplink
    delay_ph = int(round(link.ch_projector_hydrophone.direct_path.delay_s * fs))
    start = uplink_start + delay_ph + int(0.3 * link.UPLINK_MARGIN_S * fs)
    return mixture[start:], len(mixture), start, n, reply_start, mixture


def _assert_leg_matches(leg, reference):
    tail, total, start = reference[:3]
    assert (leg.total, leg.analysis_start) == (total, start)
    assert leg.tail.tobytes() == tail.tobytes()


class TestSlimLegs:
    """The memo's slim legs rebuild the analysed mixture bit for bit."""

    def _slim(self, link, query, chips):
        bitrate = link.node.bitrate
        mode = link.node.firmware.config.resonance_mode
        carrier = link._carrier_leg(query, len(chips), bitrate, mode)
        return carrier, link._uplink_leg(carrier, chips, bitrate)

    def test_chip_patterns(self):
        link = make_link(bitrate=2_000.0)
        link.node.force_power(True)
        query = Query(destination=7, command=Command.READ_PH)
        reply = link.node.uplink_chips(link.node.respond(query))
        rng = np.random.default_rng(3)
        for chips in (
            reply,
            np.ones_like(reply),
            np.zeros_like(reply),
            np.arange(len(reply)) % 2,
            rng.integers(0, 2, len(reply)),
            reply[:40],
        ):
            _carrier, leg = self._slim(link, query, chips)
            _assert_leg_matches(
                leg,
                reference_uplink(
                    link, query, chips, link.node.bitrate,
                    link.node.firmware.config.resonance_mode,
                ),
            )

    def test_reply_window_clipped_by_waveform_end(self):
        link = make_link()
        link.node.force_power(True)
        chips = link.node.uplink_chips(link.node.respond(PING))
        ref = reference_uplink(link, PING, chips, link.node.bitrate, 0)
        n_incident, reply_start = ref[3], ref[4]
        reply_len = int(round(len(chips) * link.sample_rate / (2.0 * link.node.bitrate)))
        shift = n_incident - reply_start - reply_len // 2
        offsets = link._leg_offsets
        link._leg_offsets = lambda s: (offsets(s)[0] + shift, offsets(s)[1])
        carrier, leg = self._slim(link, PING, chips)
        assert 0 < len(carrier.window) < reply_len
        _assert_leg_matches(
            leg,
            reference_uplink(
                link, PING, chips, link.node.bitrate, 0, reply_shift=shift
            ),
        )

    def test_doppler_drifting_node(self):
        link = make_link(velocity=0.4)
        link.node.force_power(True)
        chips = link.node.uplink_chips(link.node.respond(PING))
        _carrier, leg = self._slim(link, PING, chips)
        _assert_leg_matches(
            leg, reference_uplink(link, PING, chips, link.node.bitrate, 0)
        )

    def test_resonance_mode_switch_between_exchanges(self):
        """Every uplink leg the memo holds matches the reference for
        the mode in its key, across a SET_RESONANCE_MODE exchange."""
        link = make_link(modes=2)
        checked = set()
        for query in (
            PING,
            Query(destination=7, command=Command.SET_RESONANCE_MODE, argument=1),
            PING,
            Query(destination=7, command=Command.SET_RESONANCE_MODE, argument=0),
            PING,
        ):
            result = link.run_query(query)
            assert result.response is not None
            chips = link.node.uplink_chips(result.response)
            bitrate = link.node.bitrate
            mode = link.node.firmware.config.resonance_mode
            key = ("uplink", query, chips.tobytes(), bitrate, mode)
            _assert_leg_matches(
                link._leg_memo._data[key],
                reference_uplink(link, query, chips, bitrate, mode),
            )
            checked.add(mode)
        assert checked == {0, 1}

    def test_memo_footprint(self):
        """After a short cached campaign the memo holds only what later
        stages read: analysed uplink tails, reply-window analytic
        samples, and no downlink envelope."""
        from repro.core.link import CarrierLeg, UplinkLeg

        link = make_link(bitrate=2_000.0)
        queries = [
            PING,
            Query(destination=7, command=Command.READ_PH),
            Query(destination=7, command=Command.READ_TEMPERATURE),
        ]
        for _ in range(3):
            for query in queries:
                assert link.run_query(query).success
        entries = dict(link._leg_memo._data)
        kinds = {key[0] for key in entries}
        assert {"uplink", "carrier", "downlink_decode"} <= kinds
        assert "downlink" not in kinds
        spc = link.sample_rate / (2.0 * link.node.bitrate)
        for key, value in entries.items():
            if key[0] == "uplink":
                assert isinstance(value, UplinkLeg)
                assert len(value.tail) == value.total - value.analysis_start
            elif key[0] == "carrier":
                assert isinstance(value, CarrierLeg)
                reply_len = int(round(key[2] * spc))
                assert len(value.window) <= reply_len
                assert value.idle.dtype == np.float64
                for part in value:
                    if isinstance(part, np.ndarray) and np.iscomplexobj(part):
                        assert len(part) <= reply_len


class TestRecordTail:
    """The recorded tail is the analysed part of a whole-mixture recording."""

    @pytest.mark.parametrize("velocity", [0.0, 0.4])
    def test_matches_whole_recording_and_noise_stream(self, velocity):
        from repro.acoustics.noise import AmbientNoiseModel

        link = make_link(bitrate=2_000.0, velocity=velocity)
        link.node.force_power(True)
        query = Query(destination=7, command=Command.READ_PH)
        chips = link.node.uplink_chips(link.node.respond(query))
        bitrate = link.node.bitrate
        carrier = link._carrier_leg(query, len(chips), bitrate, 0)
        leg = link._uplink_leg(carrier, chips, bitrate)
        ref = reference_uplink(link, query, chips, bitrate, 0)
        start, mixture = ref[2], ref[5]
        link.noise = AmbientNoiseModel(spectrum="flat", flat_level_db=60.0, seed=11)
        twin = AmbientNoiseModel(spectrum="flat", flat_level_db=60.0, seed=11)
        recorded = link._record_tail(leg)
        whole = link.hydrophone.record(
            mixture + twin.generate(len(mixture), link.sample_rate)
        )
        assert recorded.tobytes() == whole[start:].tobytes()
        assert link.noise.snapshot_state() == twin.snapshot_state()
