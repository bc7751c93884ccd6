"""Tests for rectifier, supercapacitor, and LDO models."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.circuits import (
    LowDropoutRegulator,
    MultiStageRectifier,
    Supercapacitor,
)


class TestRectifier:
    def test_below_threshold_no_output(self):
        r = MultiStageRectifier(stages=3, diode_drop_v=0.2)
        assert r.open_circuit_voltage(0.1) == 0.0

    def test_open_circuit_formula(self):
        r = MultiStageRectifier(stages=3, diode_drop_v=0.2)
        assert r.open_circuit_voltage(1.0) == pytest.approx(2 * 3 * 0.8)

    def test_passive_amplification(self):
        """More stages, more voltage — the paper's passive voltage boost."""
        v_in = 0.9
        one = MultiStageRectifier(stages=1).open_circuit_voltage(v_in)
        three = MultiStageRectifier(stages=3).open_circuit_voltage(v_in)
        assert three == pytest.approx(3.0 * one)

    def test_loaded_voltage_droops(self):
        r = MultiStageRectifier(output_resistance_ohm=5_000.0)
        voc = r.open_circuit_voltage(1.5)
        assert r.loaded_voltage(1.5, 100e-6) == pytest.approx(voc - 0.5)

    def test_loaded_voltage_floors_at_zero(self):
        r = MultiStageRectifier()
        assert r.loaded_voltage(0.3, 1.0) == 0.0

    def test_input_peak_for_output_roundtrip(self):
        r = MultiStageRectifier(stages=3, diode_drop_v=0.2)
        v_in = r.input_peak_for_output(4.0)
        assert r.open_circuit_voltage(v_in) == pytest.approx(4.0)

    def test_power_bookkeeping(self):
        r = MultiStageRectifier(input_resistance_ohm=2_000.0, efficiency=0.6)
        assert r.input_power(2.0) == pytest.approx(2.0**2 / 2 / 2_000.0)
        assert r.output_power_available(2.0) == pytest.approx(
            0.6 * r.input_power(2.0)
        )
        assert r.output_power_available(0.1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiStageRectifier(stages=0)
        with pytest.raises(ValueError):
            MultiStageRectifier(efficiency=0.0)
        with pytest.raises(ValueError):
            MultiStageRectifier(diode_drop_v=-0.1)
        with pytest.raises(ValueError):
            MultiStageRectifier().loaded_voltage(1.0, -1e-3)

    @given(v=st.floats(0.0, 10.0))
    def test_monotone_in_input(self, v):
        r = MultiStageRectifier()
        assert r.open_circuit_voltage(v + 0.1) >= r.open_circuit_voltage(v)


class TestSupercapacitor:
    def test_initial_state(self):
        cap = Supercapacitor()
        assert cap.voltage_v == 0.0
        assert cap.energy_j == 0.0

    def test_charges_toward_source(self):
        cap = Supercapacitor(capacitance_f=1000e-6)
        for _ in range(1000):
            cap.charge_from_source(1e-3, 4.0, 5_000.0)
        assert 0.0 < cap.voltage_v < 4.0

    def test_rc_charging_time_constant(self):
        """One RC of charging reaches ~63% of the source voltage."""
        c, r_src = 1000e-6, 5_000.0
        cap = Supercapacitor(capacitance_f=c, leakage_resistance_ohm=1e12)
        tau = r_src * c
        steps = 2_000
        dt = tau / steps
        for _ in range(steps):
            cap.charge_from_source(dt, 1.0, r_src)
        assert cap.voltage_v == pytest.approx(1.0 - 2.718281828**-1, rel=0.02)

    def test_leakage_discharges(self):
        cap = Supercapacitor(initial_voltage_v=3.0, leakage_resistance_ohm=1e4)
        for _ in range(100):
            cap.step(1e-2)
        assert cap.voltage_v < 3.0

    def test_never_negative(self):
        cap = Supercapacitor(initial_voltage_v=0.1)
        for _ in range(100):
            cap.step(1e-1, i_load_a=1.0)
        assert cap.voltage_v == 0.0

    def test_clamps_at_rating(self):
        cap = Supercapacitor(max_voltage_v=5.0)
        for _ in range(100):
            cap.step(1.0, i_in_a=1.0)
        assert cap.voltage_v == 5.0

    def test_time_to_reach(self):
        cap = Supercapacitor(capacitance_f=1000e-6, leakage_resistance_ohm=1e12)
        t = cap.time_to_reach(2.5, 4.0, 5_000.0, dt_s=1e-3)
        # Analytic: t = RC * ln(V_src / (V_src - V_target)).
        expected = 5_000.0 * 1000e-6 * 0.9808  # ln(4/1.5)
        assert t == pytest.approx(expected, rel=0.05)

    def test_time_to_reach_unreachable(self):
        cap = Supercapacitor()
        assert cap.time_to_reach(5.0, 2.0, 1_000.0, dt_s=1e-2, timeout_s=5.0) is None

    def test_time_to_reach_already_there(self):
        cap = Supercapacitor(initial_voltage_v=3.0)
        assert cap.time_to_reach(2.0, 4.0, 1_000.0) == 0.0

    def test_reset(self):
        cap = Supercapacitor(initial_voltage_v=2.0)
        cap.reset()
        assert cap.voltage_v == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Supercapacitor(capacitance_f=0.0)
        with pytest.raises(ValueError):
            Supercapacitor(initial_voltage_v=10.0, max_voltage_v=5.0)
        cap = Supercapacitor()
        with pytest.raises(ValueError):
            cap.step(-1.0)
        with pytest.raises(ValueError):
            cap.step(1.0, i_in_a=-1.0)
        with pytest.raises(ValueError):
            cap.charge_from_source(1.0, 1.0, 0.0)

    @given(
        v0=st.floats(0.0, 5.0),
        i_in=st.floats(0.0, 1.0),
        i_load=st.floats(0.0, 1.0),
    )
    def test_voltage_always_in_range(self, v0, i_in, i_load):
        cap = Supercapacitor(initial_voltage_v=min(v0, 5.5), max_voltage_v=5.5)
        for _ in range(10):
            cap.step(1e-2, i_in, i_load)
        assert 0.0 <= cap.voltage_v <= 5.5


class TestSupercapacitorBooks:
    """Joule bookkeeping: conservation holds to float precision."""

    def test_unclamped_books_are_exact(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        for _ in range(500):
            cap.charge_from_source(0.05, 4.0, 4_000.0, i_load_a=50e-6)
        balance = cap.energy_balance()
        assert balance["clamped_j"] == pytest.approx(0.0, abs=1e-12)
        assert abs(balance["error_j"]) < 1e-12 * max(balance["harvested_j"], 1.0)

    def test_clamp_loss_attributed_not_vanished(self):
        cap = Supercapacitor(initial_voltage_v=5.4, max_voltage_v=5.5)
        for _ in range(20):
            cap.step(1.0, i_in_a=0.1)
        assert cap.voltage_v == 5.5
        balance = cap.energy_balance()
        assert balance["clamped_j"] > 0
        assert abs(balance["error_j"]) < 1e-12

    def test_floor_clamp_caps_consumed_at_stored_energy(self):
        cap = Supercapacitor(initial_voltage_v=0.1)
        initial_energy = cap.energy_j
        cap.step(100.0, i_load_a=1.0)  # load far beyond stored charge
        assert cap.voltage_v == 0.0
        assert cap.consumed_j + cap.leaked_j <= initial_energy + 1e-12
        assert abs(cap.energy_balance()["error_j"]) < 1e-12

    def test_reset_books_the_jump_in_adjusted(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        cap.reset(voltage_v=3.0)
        expected = 0.5 * cap.capacitance_f * (3.0**2 - 1.0**2)
        assert cap.adjusted_j == pytest.approx(expected)
        assert abs(cap.energy_balance()["error_j"]) < 1e-15

    @given(
        v0=st.floats(0.0, 5.5),
        i_in=st.floats(0.0, 0.5),
        i_load=st.floats(0.0, 0.5),
        dt=st.floats(1e-3, 1.0),
    )
    def test_conservation_property(self, v0, i_in, i_load, dt):
        cap = Supercapacitor(initial_voltage_v=v0, max_voltage_v=5.5)
        for _ in range(20):
            cap.step(dt, i_in, i_load)
        balance = cap.energy_balance()
        scale = max(balance["harvested_j"], abs(balance["stored_delta_j"]), 1.0)
        assert abs(balance["error_j"]) < 1e-9 * scale

    def test_observer_receives_every_step_flow(self):
        seen = []
        cap = Supercapacitor(initial_voltage_v=1.0)
        cap.observer = lambda *flows: seen.append(flows)
        cap.step(0.1, i_in_a=1e-3, i_load_a=1e-4)
        cap.step(0.1)
        assert len(seen) == 2
        dt, v, e_in, e_load, e_leak, e_clamp = seen[0]
        assert dt == 0.1
        assert v == cap.voltage_v or v > 0  # the post-step voltage
        assert e_in > 0 and e_load > 0 and e_leak > 0 and e_clamp == 0.0
        assert seen[1][2] == 0.0  # no input on the second step

    def test_observer_default_is_none(self):
        assert Supercapacitor().observer is None

    def test_time_to_reach_records_trajectory(self):
        cap = Supercapacitor(capacitance_f=1000e-6, leakage_resistance_ohm=1e12)
        record = []
        t = cap.time_to_reach(2.5, 4.0, 5_000.0, dt_s=1e-3, record=record)
        assert t is not None
        assert len(record) == pytest.approx(t / 1e-3, abs=1.5)
        assert record[-1] >= 2.5
        assert record == sorted(record)  # monotone charging


def per_step_charge(cap, steps, dt, v_src, r_src, i_load, stop_below, stop_at_or_above):
    """The Thevenin step as one ``step`` call each, stopping at the first
    crossing: the loop :meth:`Supercapacitor.charge_steps` must match."""
    for n in range(1, steps + 1):
        i_in = max(0.0, (v_src - cap.voltage_v) / r_src)
        v = cap.step(dt, i_in_a=i_in, i_load_a=i_load)
        if v < stop_below or v >= stop_at_or_above:
            return n
    return steps


def books(cap):
    return [
        x.hex() for x in (
            cap.voltage_v, cap.harvested_j, cap.consumed_j,
            cap.leaked_j, cap.clamped_j,
        )
    ]


def recording(cap, seen):
    """Observer recording each step's arguments and the capacitor it sees."""

    def observer(*flows):
        seen.append([x.hex() for x in flows] + books(cap))

    cap.observer = observer


class TestChargeSteps:
    """One multi-step call equals the per-step loop bit for bit."""

    @given(
        v0=st.floats(0.0, 5.5),
        v_src=st.floats(0.0, 8.0),
        r_src=st.floats(1.0, 1e5),
        i_load=st.floats(0.0, 0.05),
        dt=st.floats(1e-4, 1.0),
        steps=st.integers(0, 60),
        stop_below=st.one_of(st.just(-math.inf), st.floats(0.0, 5.5)),
        stop_at_or_above=st.one_of(st.just(math.inf), st.floats(0.0, 5.5)),
    )
    # Clamped at max_voltage_v, then floored at 0 V.
    @example(v0=5.0, v_src=8.0, r_src=1.0, i_load=0.0, dt=0.5, steps=5,
             stop_below=-math.inf, stop_at_or_above=math.inf)
    @example(v0=0.5, v_src=0.0, r_src=1e3, i_load=0.05, dt=0.5, steps=5,
             stop_below=-math.inf, stop_at_or_above=math.inf)
    # Stops mid-run on each bound.
    @example(v0=3.0, v_src=1.0, r_src=4e3, i_load=5e-4, dt=0.02, steps=60,
             stop_below=2.98, stop_at_or_above=math.inf)
    @example(v0=2.0, v_src=4.0, r_src=4e3, i_load=0.0, dt=0.02, steps=60,
             stop_below=-math.inf, stop_at_or_above=2.02)
    def test_matches_per_step_reference(
        self, v0, v_src, r_src, i_load, dt, steps, stop_below, stop_at_or_above,
    ):
        one_call = Supercapacitor(initial_voltage_v=v0, max_voltage_v=5.5)
        reference = Supercapacitor(initial_voltage_v=v0, max_voltage_v=5.5)
        seen, seen_ref = [], []
        recording(one_call, seen)
        recording(reference, seen_ref)
        n = one_call.charge_steps(
            steps, dt, v_src, r_src, i_load,
            stop_below_v=stop_below, stop_at_or_above_v=stop_at_or_above,
        )
        n_ref = per_step_charge(
            reference, steps, dt, v_src, r_src, i_load, stop_below, stop_at_or_above
        )
        assert n == n_ref == len(seen)
        assert books(one_call) == books(reference)
        assert seen == seen_ref

    def test_without_observer_matches_per_step_reference(self):
        one_call = Supercapacitor(initial_voltage_v=5.4)
        reference = Supercapacitor(initial_voltage_v=5.4)
        assert one_call.charge_steps(400, 0.05, 8.0, 50.0, 2e-2) == 400
        per_step_charge(reference, 400, 0.05, 8.0, 50.0, 2e-2, -math.inf, math.inf)
        assert reference.voltage_v == 5.5 and reference.clamped_j > 1e-3
        assert books(one_call) == books(reference)

    def test_charge_from_source_is_one_step(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        reference = Supercapacitor(initial_voltage_v=1.0)
        v = cap.charge_from_source(0.05, 4.0, 4e3, i_load_a=5e-5)
        per_step_charge(reference, 1, 0.05, 4.0, 4e3, 5e-5, -math.inf, math.inf)
        assert v == cap.voltage_v
        assert books(cap) == books(reference)

    def test_zero_steps_run_nothing(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        cap.observer = lambda *flows: pytest.fail("observer called")
        assert cap.charge_steps(0, 0.05, 4.0, 4e3) == 0
        assert cap.voltage_v == 1.0 and cap.harvested_j == 0.0

    def test_validation(self):
        cap = Supercapacitor()
        with pytest.raises(ValueError, match="source resistance must be positive"):
            cap.charge_steps(3, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="time step must be positive"):
            cap.charge_steps(3, 0.0, 1.0, 1e3)
        with pytest.raises(ValueError, match="currents must be non-negative"):
            cap.charge_steps(3, 1.0, 1.0, 1e3, -1e-3)
        assert cap.voltage_v == 0.0


class TestLDO:
    def test_regulates_above_minimum(self):
        ldo = LowDropoutRegulator()
        assert ldo.output_voltage(3.0) == pytest.approx(1.8)
        assert ldo.is_regulating(3.0)

    def test_dropout_region(self):
        ldo = LowDropoutRegulator(output_v=1.8, dropout_v=0.12)
        v = ldo.output_voltage(1.85)
        assert v == pytest.approx(1.85 - 0.12)
        assert not ldo.is_regulating(1.85)

    def test_uvlo(self):
        ldo = LowDropoutRegulator(undervoltage_lockout_v=1.0)
        assert ldo.output_voltage(0.9) == 0.0
        assert ldo.input_current(1e-3, 0.9) == 0.0

    def test_input_current_includes_quiescent(self):
        ldo = LowDropoutRegulator(quiescent_a=25e-6)
        assert ldo.input_current(230e-6, 2.1) == pytest.approx(255e-6)

    def test_power_loss_positive(self):
        ldo = LowDropoutRegulator()
        assert ldo.power_loss(230e-6, 2.5) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LowDropoutRegulator(output_v=0.0)
        with pytest.raises(ValueError):
            LowDropoutRegulator().input_current(-1.0, 2.0)
