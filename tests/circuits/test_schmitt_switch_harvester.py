"""Tests for Schmitt trigger, backscatter switch, and harvest chain."""

import numpy as np
import pytest

from repro.circuits import (
    BackscatterSwitch,
    EnergyHarvester,
    MultiStageRectifier,
    SchmittTrigger,
    SwitchState,
    design_l_match,
)
from repro.constants import PEAK_RECTIFIED_V, POWER_UP_THRESHOLD_V
from repro.perf import caching_disabled
from repro.piezo import Transducer
from repro.piezo.cylinder import design_cylinder_transducer


class TestSchmittTrigger:
    def make(self):
        return SchmittTrigger(high_threshold_v=0.6, low_threshold_v=0.4)

    def test_basic_slicing(self):
        st = self.make()
        wave = np.array([0.0, 0.7, 0.7, 0.0, 0.7])
        out = st.process(wave)
        np.testing.assert_array_equal(out, [0.0, 1.8, 1.8, 0.0, 1.8])

    def test_hysteresis_rejects_small_wiggle(self):
        st = self.make()
        # Rises above high once, then wiggles inside the band: holds high.
        wave = np.array([0.0, 0.7, 0.5, 0.45, 0.55, 0.41])
        out = st.process(wave)
        assert np.all(out[1:] == 1.8)

    def test_initial_state_held_without_crossings(self):
        st = self.make()
        wave = np.full(5, 0.5)
        assert np.all(st.process(wave, initial_state=True) == 1.8)
        assert np.all(st.process(wave, initial_state=False) == 0.0)

    def test_empty_waveform(self):
        assert len(self.make().process(np.array([]))) == 0

    def test_edges(self):
        st = self.make()
        fs = 1_000.0
        wave = np.concatenate([np.zeros(10), np.ones(10), np.zeros(10)])
        times, pol = st.edges(wave, fs)
        assert len(times) == 2
        assert pol[0] == 1 and pol[1] == -1
        assert times[0] == pytest.approx(10 / fs)
        assert times[1] == pytest.approx(20 / fs)

    def test_validation(self):
        with pytest.raises(ValueError):
            SchmittTrigger(high_threshold_v=0.4, low_threshold_v=0.6)
        with pytest.raises(ValueError):
            self.make().process(np.ones((2, 2)))
        with pytest.raises(ValueError):
            self.make().edges(np.ones(4), 0.0)


def make_harvester(f0=None, **kw):
    t = Transducer.from_cylinder_design()
    return EnergyHarvester(t, design_frequency_hz=f0, **kw), t


class TestBackscatterSwitch:
    def make_switch(self):
        harvester, t = make_harvester()
        return (
            BackscatterSwitch(
                matching_network=harvester.matching_network,
                rectifier_input_ohm=harvester.rectifier.input_resistance_ohm,
            ),
            t,
        )

    def test_reflect_state_is_short(self):
        switch, _t = self.make_switch()
        z = switch.load_impedance(SwitchState.REFLECT, 15_000.0)
        assert abs(z) == pytest.approx(switch.on_resistance_ohm)

    def test_absorb_state_is_match_at_design_frequency(self):
        switch, t = self.make_switch()
        f0 = t.resonance_hz
        z = switch.load_impedance(SwitchState.ABSORB, f0)
        assert abs(z - np.conjugate(t.impedance(f0))) / abs(z) < 0.01

    def test_chip_impedances(self):
        switch, t = self.make_switch()
        chips = np.array([0, 1, 1, 0])
        z = switch.chip_impedances(chips, t.resonance_hz)
        assert z[1] == z[2]
        assert z[0] != z[1]

    def test_validation(self):
        harvester, _t = make_harvester()
        with pytest.raises(ValueError):
            BackscatterSwitch(harvester.matching_network, rectifier_input_ohm=0.0)


class TestEnergyHarvester:
    def test_peak_at_design_frequency(self):
        harvester, t = make_harvester()
        f0 = t.resonance_hz
        freqs = np.linspace(f0 - 3_000.0, f0 + 3_000.0, 61)
        p = harvester.calibrate_pressure_for_peak(4.0)
        curve = harvester.rectified_voltage_curve(freqs, p)
        f_peak = freqs[np.argmax(curve)]
        assert abs(f_peak - f0) < 500.0

    def test_calibrated_pressure_hits_target(self):
        harvester, t = make_harvester()
        p = harvester.calibrate_pressure_for_peak(4.0)
        assert harvester.rectified_voltage(p, harvester.design_frequency_hz) == (
            pytest.approx(4.0, rel=0.01)
        )

    def test_recto_piezo_shifts_peak(self):
        """Designing the match at 18 kHz moves the harvesting peak there —
        the recto-piezo concept of Sec. 3.3.1."""
        t = Transducer.from_cylinder_design()
        f_lo = t.resonance_hz
        f_hi = 18_000.0
        h15 = EnergyHarvester(t, design_frequency_hz=f_lo)
        h18 = EnergyHarvester(t, design_frequency_hz=f_hi)
        p = h15.calibrate_pressure_for_peak(4.0)
        freqs = np.linspace(12_000.0, 21_000.0, 181)
        c15 = h15.rectified_voltage_curve(freqs, p)
        c18 = h18.rectified_voltage_curve(freqs, p)
        assert abs(freqs[np.argmax(c15)] - f_lo) < 500.0
        assert abs(freqs[np.argmax(c18)] - f_hi) < 1_000.0
        # Complementary responses: each channel dominates at its own
        # frequency (paper Fig. 3).
        i15 = np.argmin(np.abs(freqs - f_lo))
        i18 = np.argmin(np.abs(freqs - f_hi))
        assert c15[i15] > c18[i15]
        assert c18[i18] > c15[i18]

    def test_match_fraction_unity_at_design(self):
        harvester, t = make_harvester()
        op = harvester.operating_point(60.0, t.resonance_hz)
        assert op.match_fraction == pytest.approx(1.0, abs=0.01)

    def test_voltage_scales_with_pressure(self):
        harvester, t = make_harvester()
        f0 = t.resonance_hz
        low = harvester.rectified_voltage(300.0, f0)
        high = harvester.rectified_voltage(900.0, f0)
        assert high > low > 0.0

    def test_usable_band_exists_at_operating_pressure(self):
        harvester, t = make_harvester()
        p = harvester.calibrate_pressure_for_peak(PEAK_RECTIFIED_V)
        band = harvester.usable_band(p, POWER_UP_THRESHOLD_V)
        assert band is not None
        f_lo, f_hi = band
        assert f_lo < t.resonance_hz < f_hi
        # Paper Fig. 3: usable band around resonance is 1.5-3 kHz wide.
        assert 800.0 < f_hi - f_lo < 4_000.0

    def test_usable_band_none_at_low_pressure(self):
        harvester, _t = make_harvester()
        assert harvester.usable_band(0.01, POWER_UP_THRESHOLD_V) is None

    def test_dc_power_zero_below_diode_threshold(self):
        harvester, t = make_harvester()
        op = harvester.operating_point(0.05, t.resonance_hz)
        assert op.dc_power_w == 0.0

    def test_charging_source(self):
        harvester, t = make_harvester()
        v, r = harvester.charging_source(500.0, t.resonance_hz)
        assert v > 0 and r > 0

    def test_calibrate_rejects_bad_target(self):
        harvester, _t = make_harvester()
        with pytest.raises(ValueError):
            harvester.calibrate_pressure_for_peak(0.0)

    def test_explicit_matching_network(self):
        t = Transducer.from_cylinder_design()
        rect = MultiStageRectifier()
        net = design_l_match(
            t.impedance(t.resonance_hz), rect.input_resistance_ohm, t.resonance_hz
        )
        h = EnergyHarvester(t, rect, matching_network=net)
        assert h.matching_network is net

    def test_invalid_design_frequency(self):
        t = Transducer.from_cylinder_design()
        with pytest.raises(ValueError):
            EnergyHarvester(t, design_frequency_hz=-1.0)

    def test_negative_pressure_rejected(self):
        harvester, t = make_harvester()
        with pytest.raises(ValueError):
            harvester.operating_point(-1.0, t.resonance_hz)


class TestSharedMatchingNetwork:
    """Equal nodes share one designed network (the ``matching_networks`` cache)."""

    def test_equal_nodes_share_the_network(self):
        a = EnergyHarvester(Transducer.from_cylinder_design())
        b = EnergyHarvester(Transducer.from_cylinder_design())
        assert a.matching_network is b.matching_network

    def test_other_bvd_sensitivity_load_or_channel_designs_its_own(self):
        t = Transducer.from_cylinder_design()
        base = EnergyHarvester(t)
        others = [
            EnergyHarvester(
                Transducer.from_cylinder_design(
                    design_cylinder_transducer(in_water_q=8.0)
                )
            ),
            EnergyHarvester(Transducer(bvd=t.bvd, ocv_db=-170.0)),
            EnergyHarvester(t, MultiStageRectifier(input_resistance_ohm=3_000.0)),
            EnergyHarvester(t, design_frequency_hz=18_000.0),
        ]
        for harvester in others:
            assert harvester.matching_network is not base.matching_network
        for harvester in [base, *others]:
            with caching_disabled():
                fresh = harvester._select_network(harvester.design_frequency_hz)
            assert harvester.matching_network == fresh

    def test_caching_disabled_recomputes(self):
        t = Transducer.from_cylinder_design()
        with caching_disabled():
            a = EnergyHarvester(t)
            b = EnergyHarvester(t)
        assert a.matching_network is not b.matching_network
        assert a.matching_network == b.matching_network


class TestOperatingPointCache:
    """Each stimulus is solved once per harvester design (``operating_points``)."""

    def test_cached_equals_uncached(self):
        t = Transducer.from_cylinder_design()
        harvester = EnergyHarvester(t)
        for pressure in (0.0, 50.0, 293.2, 1_000.0):
            for f in (t.resonance_hz, 12_000.0):
                cached = harvester.operating_point(pressure, f)
                assert harvester.operating_point(pressure, f) is cached
                with caching_disabled():
                    fresh = harvester.operating_point(pressure, f)
                assert fresh == cached and fresh is not cached

    def test_other_parameters_miss_and_equal_designs_hit(self):
        from repro.perf import get_cache

        t = Transducer.from_cylinder_design()
        f = t.resonance_hz
        EnergyHarvester(t).operating_point(300.0, f)
        cache = get_cache("operating_points")
        others = [
            EnergyHarvester(
                Transducer.from_cylinder_design(
                    design_cylinder_transducer(in_water_q=8.0)
                )
            ),
            EnergyHarvester(Transducer(bvd=t.bvd, ocv_db=-170.0)),
            EnergyHarvester(t, MultiStageRectifier(efficiency=0.5)),
            EnergyHarvester(t, MultiStageRectifier(diode_drop_v=0.3)),
            EnergyHarvester(t, MultiStageRectifier(input_resistance_ohm=3_000.0)),
            EnergyHarvester(t, design_frequency_hz=18_000.0),
        ]
        for harvester in others:
            misses = cache.misses
            op = harvester.operating_point(300.0, f)
            assert cache.misses == misses + 1
            assert op == harvester._solve(300.0, f)
        for pressure, freq in ((300.5, f), (300.0, f + 1.0)):
            misses = cache.misses
            EnergyHarvester(t).operating_point(pressure, freq)
            assert cache.misses == misses + 1
        hits = cache.hits
        EnergyHarvester(Transducer.from_cylinder_design()).operating_point(300.0, f)
        assert cache.hits == hits + 1
