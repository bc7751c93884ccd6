"""Tests for projector directivity in the link."""

import math

import numpy as np
import pytest

from repro.acoustics import POOL_A, Position
from repro.core import BackscatterLink, Projector
from repro.net.messages import Command, Query
from repro.node.node import PABNode
from repro.piezo import DirectivityPattern, Transducer

PING = Query(destination=7, command=Command.PING)


def make_link(heading_rad, pattern=None):
    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    projector = Projector(
        transducer=transducer,
        drive_voltage_v=60.0,
        carrier_hz=f,
        directivity=pattern,
        heading_rad=heading_rad,
    )
    node = PABNode(address=7, channel_frequencies_hz=(f,))
    return BackscatterLink(
        POOL_A,
        projector,
        Position(0.5, 1.5, 0.6),
        node,
        Position(2.5, 1.5, 0.6),   # due +x of the projector
        Position(1.0, 0.8, 0.6),
    )


class TestBeamGain:
    def test_omni_default_unity(self):
        link = make_link(0.0)
        assert link.beam_gain_node == pytest.approx(1.0)
        assert link.beam_gain_hydrophone == pytest.approx(1.0)

    def test_aimed_disk_boosts_nothing_loses_off_axis(self):
        pattern = DirectivityPattern(kind="piston", characteristic_m=0.15)
        aimed = make_link(0.0, pattern)            # boresight at the node
        averted = make_link(math.pi / 2, pattern)  # aimed 90 deg away
        assert aimed.beam_gain_node == pytest.approx(1.0)
        assert averted.beam_gain_node < 0.5

    def test_gain_towards_wraps_angles(self):
        transducer = Transducer.from_cylinder_design()
        projector = Projector(
            transducer=transducer,
            drive_voltage_v=10.0,
            carrier_hz=transducer.resonance_hz,
            directivity=DirectivityPattern(kind="piston", characteristic_m=0.15),
            heading_rad=0.0,
        )
        assert projector.gain_towards(2 * math.pi) == pytest.approx(
            projector.gain_towards(0.0)
        )


class TestDirectionalExchange:
    def test_aimed_projector_closes_link(self):
        pattern = DirectivityPattern(kind="piston", characteristic_m=0.12)
        result = make_link(0.0, pattern).run_query(PING)
        assert result.powered_up
        assert result.success

    def test_averted_projector_cannot_power_node(self):
        """Aiming a narrow beam away starves the node — why the paper's
        omnidirectional cylinder suits broadcast power delivery."""
        pattern = DirectivityPattern(kind="piston", characteristic_m=0.25)
        result = make_link(math.pi / 2, pattern).run_query(PING)
        assert not result.powered_up

    def test_budget_reflects_beam_gain(self):
        pattern = DirectivityPattern(kind="piston", characteristic_m=0.2)
        aimed = make_link(0.0, pattern).budget()
        averted = make_link(math.pi / 2, pattern).budget()
        assert aimed.incident_pressure_pa > 2.0 * averted.incident_pressure_pa


class TestOracleSnr:
    def test_segment_is_the_exchange_recording(self, monkeypatch):
        """``measure_uplink_snr`` (Fig. 8) analyses the very segment the
        exchange records for the same query and noise seed, so the
        direct carrier carries the projector's beam gain towards the
        hydrophone."""
        from repro.acoustics.noise import AmbientNoiseModel
        from repro.core import Hydrophone
        from repro.dsp import BackscatterDemodulator

        pattern = DirectivityPattern(kind="piston", characteristic_m=0.12)
        oracle, exchange = make_link(0.0, pattern), make_link(0.0, pattern)
        for link in (oracle, exchange):
            link.noise = AmbientNoiseModel(
                spectrum="flat", flat_level_db=60.0, seed=4
            )
        assert oracle.beam_gain_hydrophone < 0.1
        segments = []

        def spy(original):
            def wrapper(self, waveform, *args, **kwargs):
                segments.append(np.array(waveform))
                return original(self, waveform, *args, **kwargs)

            return wrapper

        with monkeypatch.context() as m:
            m.setattr(
                BackscatterDemodulator, "to_baseband",
                spy(BackscatterDemodulator.to_baseband),
            )
            oracle.measure_uplink_snr(PING)
        with monkeypatch.context() as m:
            m.setattr(Hydrophone, "demodulate", spy(Hydrophone.demodulate))
            assert exchange.run_query(PING).success
        analysed, recorded = segments
        assert analysed.tobytes() == recorded.tobytes()
