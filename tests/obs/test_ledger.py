"""Tests for the per-node energy ledger and round-mode harness."""

import json
import math

import pytest

from repro.circuits.storage import Supercapacitor
from repro.constants import POWER_UP_THRESHOLD_V
from repro.node.power import NodePowerModel, PowerState
from repro.obs import (
    DIRECTIONS,
    EnergyLedger,
    MetricsRegistry,
    NodeEnergyHarness,
    ProbeRegistry,
    metrics_to_prometheus,
    use_probes,
)


def charge_steps(cap, *, n=200, dt=0.05, v_oc=4.0, r_out=4e3, i_load=0.0):
    for _ in range(n):
        cap.charge_from_source(dt, v_oc, r_out, i_load_a=i_load)


class TestImportOrder:
    def test_net_first_import_does_not_cycle(self):
        """Regression: the ledger's repro.node dependency closes a cycle
        through net.messages -> dsp -> obs, so the obs package must load
        it lazily.  A fresh interpreter importing repro.net first used
        to raise ImportError."""
        import os
        import subprocess
        import sys

        code = (
            "import repro.net; import repro.obs; "
            "assert repro.obs.EnergyLedger.__name__ == 'EnergyLedger'"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestConservation:
    def test_balance_closes_to_float_precision(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        ledger = EnergyLedger(node=3).attach(cap)
        ledger.set_state(PowerState.IDLE)
        charge_steps(cap, i_load=50e-6)
        balance = ledger.balance()
        assert balance["harvested_j"] > 0
        assert balance["consumed_j"] > 0
        assert abs(balance["error_fraction"]) < 1e-9

    def test_clamp_loss_is_booked_not_silent(self):
        cap = Supercapacitor(initial_voltage_v=5.4, max_voltage_v=5.5)
        ledger = EnergyLedger().attach(cap)
        # Ferocious source: the cap hits the rating and the clamp bites.
        charge_steps(cap, n=50, dt=0.5, v_oc=20.0, r_out=100.0)
        assert cap.voltage_v == pytest.approx(5.5)
        assert ledger.clamped_j > 0
        assert abs(ledger.balance()["error_fraction"]) < 1e-9

    def test_floor_clamp_reduces_effective_load(self):
        cap = Supercapacitor(initial_voltage_v=0.05)
        ledger = EnergyLedger().attach(cap)
        # Load far beyond the stored charge: voltage floors at 0 V and
        # only the energy that existed is booked as consumed.
        cap.step(10.0, i_in_a=0.0, i_load_a=1.0)
        assert cap.voltage_v == 0.0
        assert ledger.consumed_j <= 0.5 * cap.capacitance_f * 0.05**2 + 1e-12
        assert abs(ledger.balance()["error_j"]) < 1e-12

    def test_reset_jump_lands_in_adjusted(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        ledger = EnergyLedger().attach(cap)
        charge_steps(cap, n=20)
        cap.reset(voltage_v=3.0)  # by-fiat jump, not a physical flow
        charge_steps(cap, n=20)
        balance = ledger.balance()
        assert balance["adjusted_j"] != 0.0
        assert abs(balance["error_fraction"]) < 1e-9

    def test_balance_keys(self):
        keys = set(EnergyLedger().balance())
        assert {
            "harvested_j", "consumed_j", "leaked_j", "clamped_j",
            "adjusted_j", "stored_delta_j", "error_j", "error_fraction",
        } <= keys


class TestBuckets:
    def test_flows_bucketed_by_state(self):
        cap = Supercapacitor(initial_voltage_v=2.0)
        ledger = EnergyLedger().attach(cap)
        ledger.set_state(PowerState.IDLE)
        charge_steps(cap, n=10, i_load=50e-6)
        ledger.set_state(PowerState.BACKSCATTER)
        charge_steps(cap, n=10, i_load=200e-6)
        assert ledger.total("consumed", PowerState.IDLE) > 0
        assert ledger.total("consumed", PowerState.BACKSCATTER) > 0
        assert ledger.consumed_j == pytest.approx(
            ledger.total("consumed", PowerState.IDLE)
            + ledger.total("consumed", PowerState.BACKSCATTER)
        )

    def test_bucket_created_only_by_a_flow(self):
        ledger = EnergyLedger()
        for state in (PowerState.IDLE, PowerState.DECODING, PowerState.COLD):
            ledger.set_state(state)  # visited, nothing booked
        assert ledger.flows == {}
        # A zero-length advance books a 0.0 harvest: the bucket exists.
        ledger.advance(PowerState.SENSING, 0.0, harvested_w=1e-3)
        assert ledger.flows == {("harvested", PowerState.SENSING): 0.0}
        assert math.copysign(1.0, ledger.total("harvested")) == 1.0

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger().total("wasted")

    def test_duty_cycle_fractions(self):
        cap = Supercapacitor(initial_voltage_v=3.0)
        ledger = EnergyLedger().attach(cap)
        ledger.set_state(PowerState.IDLE)
        charge_steps(cap, n=30, dt=0.1)
        ledger.set_state(PowerState.DECODING)
        charge_steps(cap, n=10, dt=0.1)
        duty = ledger.duty_cycle()
        assert duty["idle"] == pytest.approx(0.75)
        assert duty["decoding"] == pytest.approx(0.25)
        assert sum(duty.values()) == pytest.approx(1.0)

    def test_duty_cycle_empty_before_any_time(self):
        assert EnergyLedger().duty_cycle() == {}

    def test_advance_without_capacitor_uses_power_model(self):
        model = NodePowerModel()
        ledger = EnergyLedger(node=1, power_model=model)
        ledger.advance(PowerState.IDLE, 10.0)
        expected = model.power_w(PowerState.IDLE) * 10.0
        assert ledger.consumed_j == pytest.approx(expected)
        ledger.advance(PowerState.IDLE, 5.0, harvested_w=2e-4)
        assert ledger.harvested_j == pytest.approx(1e-3)

    def test_advance_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            EnergyLedger().advance(PowerState.IDLE, -1.0)


class TestBrownouts:
    def test_powered_to_cold_counts(self):
        ledger = EnergyLedger()
        ledger.set_state(PowerState.IDLE)
        ledger.set_state(PowerState.COLD)
        ledger.set_state(PowerState.IDLE)
        ledger.set_state(PowerState.COLD)
        assert ledger.brownouts == 2

    def test_cold_to_cold_does_not_count(self):
        ledger = EnergyLedger()
        ledger.set_state(PowerState.COLD)
        assert ledger.brownouts == 0

    def test_margin_nan_until_powered(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        ledger = EnergyLedger().attach(cap)
        charge_steps(cap, n=5)  # still COLD
        assert math.isnan(ledger.brownout_margin_v)

    def test_margin_measures_powered_headroom(self):
        cap = Supercapacitor(initial_voltage_v=3.0)
        ledger = EnergyLedger().attach(cap)
        ledger.set_state(PowerState.IDLE)
        charge_steps(cap, n=5, v_oc=0.0, i_load=1e-3)  # discharging
        assert ledger.brownout_margin_v == pytest.approx(
            cap.voltage_v - POWER_UP_THRESHOLD_V
        )


class TestSocSeries:
    def test_decimation_bounds_memory_and_doubles_stride(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        ledger = EnergyLedger(max_soc_samples=16).attach(cap)
        charge_steps(cap, n=500, dt=0.01)
        times, volts = ledger.soc_series()
        assert len(volts) <= 16
        assert ledger._soc_stride > 1
        assert times == sorted(times)

    def test_series_tracks_voltage(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        ledger = EnergyLedger().attach(cap)
        charge_steps(cap, n=50)
        _, volts = ledger.soc_series()
        assert volts[-1] == pytest.approx(cap.voltage_v)
        assert volts[-1] > volts[0]

    def test_tiny_cap_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger(max_soc_samples=1)

    def test_publish_probe_no_op_when_disabled(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        ledger = EnergyLedger().attach(cap)
        charge_steps(cap, n=5)
        assert ledger.publish_probe() is None

    def test_publish_probe_captures_waveform(self):
        cap = Supercapacitor(initial_voltage_v=1.0)
        ledger = EnergyLedger(node=5).attach(cap)
        charge_steps(cap, n=50)
        with use_probes(ProbeRegistry()) as probes:
            tap = ledger.publish_probe()
            assert tap is not None
            assert probes.latest("node.energy") is tap
        assert tap.diagnostics["node"] == 5
        assert list(tap.waveform) == ledger.soc_series()[1]


class TestMetricsExport:
    def make_ledger(self):
        cap = Supercapacitor(initial_voltage_v=2.0)
        ledger = EnergyLedger(node=4).attach(cap)
        ledger.set_state(PowerState.IDLE)
        charge_steps(cap, n=20, i_load=50e-6)
        return ledger

    def test_gauges_and_counters_published(self):
        ledger = self.make_ledger()
        registry = MetricsRegistry()
        ledger.to_metrics(registry)
        assert registry.value("pab_node_soc_volts", node=4) == pytest.approx(
            ledger.last_voltage_v
        )
        assert registry.value(
            "pab_node_energy_joules_total", node=4,
            direction="harvested", state="idle",
        ) == pytest.approx(ledger.harvested_j)

    def test_repeated_export_does_not_double_count(self):
        ledger = self.make_ledger()
        registry = MetricsRegistry()
        ledger.to_metrics(registry)
        first = registry.value(
            "pab_node_energy_joules_total", node=4,
            direction="consumed", state="idle",
        )
        ledger.to_metrics(registry)
        assert registry.value(
            "pab_node_energy_joules_total", node=4,
            direction="consumed", state="idle",
        ) == pytest.approx(first)

    def test_export_pushes_only_the_delta(self):
        cap = Supercapacitor(initial_voltage_v=2.0)
        ledger = EnergyLedger(node=4).attach(cap)
        ledger.set_state(PowerState.IDLE)
        registry = MetricsRegistry()
        charge_steps(cap, n=10)
        ledger.to_metrics(registry)
        charge_steps(cap, n=10)
        ledger.to_metrics(registry)
        assert registry.value(
            "pab_node_energy_joules_total", node=4,
            direction="harvested", state="idle",
        ) == pytest.approx(ledger.harvested_j)

    def test_prometheus_exposition_escapes_labels(self):
        ledger = self.make_ledger()
        registry = MetricsRegistry()
        ledger.to_metrics(registry)
        text = metrics_to_prometheus(registry)
        assert 'pab_node_energy_joules_total{' in text
        assert 'direction="harvested"' in text
        assert 'state="idle"' in text
        assert 'node="4"' in text
        # Directions are plain identifiers; nothing should need escaping.
        for direction in DIRECTIONS:
            assert "\\" not in direction


class TestNodeEnergyHarness:
    def test_powered_round_segments_and_books(self):
        harness = NodeEnergyHarness(2, v_oc_v=4.0)
        info = harness.on_poll_round(0.0, polled=True, success=True)
        assert info["node"] == 2
        assert info["powered"]
        ledger = harness.ledger
        assert ledger.state_seconds[PowerState.DECODING] == pytest.approx(0.1)
        assert ledger.state_seconds[PowerState.BACKSCATTER] == pytest.approx(0.2)
        assert ledger.state_seconds[PowerState.IDLE] == pytest.approx(0.7)
        assert abs(ledger.balance()["error_fraction"]) < 1e-9

    def test_unpolled_round_idles(self):
        harness = NodeEnergyHarness(2)
        harness.on_poll_round(0.0, polled=False, success=False)
        assert harness.ledger.state_seconds[PowerState.DECODING] == 0.0
        assert harness.ledger.state_seconds[PowerState.IDLE] == pytest.approx(1.0)

    def test_starved_node_browns_out_and_is_unsustainable(self):
        # Source below the cap voltage: diodes block, pure discharge.
        harness = NodeEnergyHarness(
            9, v_oc_v=1.5, initial_voltage_v=2.6, bitrate=2_000.0,
        )
        infos = [
            harness.on_poll_round(float(t), polled=True, success=True)
            for t in range(400)
        ]
        assert not infos[-1]["powered"]
        assert harness.ledger.brownouts >= 1
        assert harness.ledger.brownout_margin_v < 0.0
        # Every round after the brownout is energy-unsustainable.
        assert not infos[-1]["sustainable"]
        # Near-zero harvest makes the relative error meaningless; the
        # absolute books still close.
        assert abs(harness.ledger.balance()["error_j"]) < 1e-9

    def test_well_fed_node_is_sustainable(self):
        harness = NodeEnergyHarness(1, v_oc_v=4.5, r_out_ohm=2e3)
        # Let the cap settle toward equilibrium first.
        for t in range(30):
            info = harness.on_poll_round(float(t), polled=True, success=True)
        assert info["powered"]
        assert info["sustainable"]

    def test_round_history_feeds_timeline(self):
        harness = NodeEnergyHarness(3)
        harness.on_poll_round(0.0, polled=True, success=False)
        harness.on_poll_round(1.0, polled=True, success=True)
        assert len(harness.ledger.round_history) == 2
        assert harness.ledger.round_history[1]["t"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeEnergyHarness(1, decode_s=0.6, backscatter_s=0.6)
        with pytest.raises(ValueError):
            NodeEnergyHarness(1, brownout_v=3.0, threshold_v=2.5)
        with pytest.raises(ValueError):
            NodeEnergyHarness(1, poll_period_s=0.0)
        # Negative segments would run the ledger clock past the round.
        with pytest.raises(ValueError):
            NodeEnergyHarness(1, decode_s=-0.1, backscatter_s=0.2)
        with pytest.raises(ValueError):
            NodeEnergyHarness(1, decode_s=0.1, backscatter_s=-0.05)
        # A source without resistance fails here, not in the first round.
        with pytest.raises(ValueError):
            NodeEnergyHarness(1, r_out_ohm=0.0)
        with pytest.raises(ValueError):
            NodeEnergyHarness(1, r_out_ohm=-4e3)

    def test_summary_and_metrics_delegate(self):
        harness = NodeEnergyHarness(6)
        harness.on_poll_round(0.0, polled=True, success=True)
        assert harness.summary()["node"] == 6
        registry = MetricsRegistry()
        harness.to_metrics(registry)
        assert registry.value("pab_node_soc_volts", node=6) > 0


class DictBookedReference:
    """Reference books: every step straight into enum-keyed dicts.

    Tee'd onto the ledger's capacitor, it books each step under the
    ledger's current state the way the ledger did before it kept the
    current bucket in plain attributes, so the two must agree bit for
    bit.
    """

    def __init__(self, ledger):
        snap = ledger.snapshot_state()
        self.ledger = ledger
        self.t = snap["t"]
        self.state_seconds = {
            PowerState(s): v for s, v in snap["_state_seconds"]
        }
        self.flows = {(d, PowerState(s)): j for (d, s), j in snap["_flows"]}
        self.soc_t, self.soc_v = ledger.soc_series()
        self.soc_stride = snap["_soc_stride"]
        self.soc_phase = snap["_soc_phase"]
        self.min_voltage_v = snap["min_voltage_v"]
        self.min_powered_voltage_v = snap["min_powered_voltage_v"]
        self.last_voltage_v = snap["last_voltage_v"]
        inner = ledger.capacitor.observer

        def tee(*step):
            self.on_step(*step)
            inner(*step)

        ledger.capacitor.observer = tee

    def on_step(self, dt_s, v, e_in, e_load, e_leak, e_clamp):
        state = self.ledger.state
        self.t += dt_s
        self.state_seconds[state] += dt_s
        for direction, joules in zip(DIRECTIONS, (e_in, e_load, e_leak, e_clamp)):
            if joules:
                key = (direction, state)
                self.flows[key] = self.flows.get(key, 0.0) + joules
        self.last_voltage_v = v
        if v < self.min_voltage_v:
            self.min_voltage_v = v
        if state is not PowerState.COLD and v < self.min_powered_voltage_v:
            self.min_powered_voltage_v = v
        self.soc_phase += 1
        if self.soc_phase >= self.soc_stride:
            self.soc_phase = 0
            self.soc_t.append(self.t)
            self.soc_v.append(v)
            if len(self.soc_v) > self.ledger.max_soc_samples:
                self.soc_t = self.soc_t[::2]
                self.soc_v = self.soc_v[::2]
                self.soc_stride *= 2

    def total(self, direction):
        return math.fsum(
            v for (d, _), v in self.flows.items() if d == direction
        )

    def balance(self):
        ledger = self.ledger
        stored = ledger.capacitor.energy_j - ledger._baseline_energy_j
        adjusted = ledger.capacitor.adjusted_j - ledger._baseline_adjusted_j
        h, c, l, k = map(self.total, DIRECTIONS)
        error = h + adjusted - stored - c - l - k
        return {
            "harvested_j": h, "consumed_j": c, "leaked_j": l, "clamped_j": k,
            "adjusted_j": adjusted, "stored_delta_j": stored,
            "error_j": error,
            "error_fraction": error / max(h + abs(adjusted), 1e-12),
        }

    def expected_snapshot(self):
        """The ledger's snapshot with every booked field from these books
        (the SoC series is history, compared via ``soc_series``)."""
        snap = self.ledger.snapshot_state()
        snap.update(
            t=self.t,
            _state_seconds=sorted(
                [s.value, v] for s, v in self.state_seconds.items()
            ),
            _flows=sorted([[d, s.value], j] for (d, s), j in self.flows.items()),
            _soc_stride=self.soc_stride, _soc_phase=self.soc_phase,
            min_voltage_v=self.min_voltage_v,
            min_powered_voltage_v=self.min_powered_voltage_v,
            last_voltage_v=self.last_voltage_v,
        )
        return snap


def bits(obj) -> str:
    """Canonical JSON: float reprs round-trip, so equal text is equal bits."""
    return json.dumps(obj, sort_keys=True)


def replay_history(ledger, source):
    """Replay ``source``'s whole history into a just-restored ``ledger``,
    through JSON like a checkpoint's history file."""
    rounds, soc_samples = json.loads(bits(source.history_since()))
    ledger.round_history.extend(rounds)
    ledger.replay_soc_samples(soc_samples)


def starve_and_feed(harness, rounds, start=0):
    """Alternate a starving and a feeding source every 10 rounds, so the
    node browns out (IDLE -> COLD) and recovers (COLD -> IDLE) repeatedly."""
    for t in range(start, start + rounds):
        harness.v_oc_v = 2.8 if (t // 10) % 2 == 0 else 1.5
        harness.on_poll_round(float(t), polled=t % 3 != 0, success=True)


class TestSlotBookingExactness:
    """The ledger books the current state in plain attributes; every read
    must see exactly what per-step dict booking would have produced."""

    def make(self, **kwargs):
        harness = NodeEnergyHarness(
            9, v_oc_v=1.5, initial_voltage_v=2.3, bitrate=2_000.0, **kwargs
        )
        return harness, DictBookedReference(harness.ledger)

    def assert_books_equal(self, ledger, ref):
        assert bits(sorted(
            ((d, s.value), j) for (d, s), j in ledger.flows.items()
        )) == bits(sorted(((d, s.value), j) for (d, s), j in ref.flows.items()))
        assert bits({s.value: v for s, v in ledger.state_seconds.items()}) == bits(
            {s.value: v for s, v in ref.state_seconds.items()}
        )
        assert bits(ledger.soc_series()) == bits((ref.soc_t, ref.soc_v))
        assert bits(ledger.balance()) == bits(ref.balance())
        assert bits(ledger.snapshot_state()) == bits(ref.expected_snapshot())

    def test_brownout_and_recovery_books_bit_equal(self):
        harness, ref = self.make()
        for chunk in range(6):
            starve_and_feed(harness, 10, start=10 * chunk)
            # Reads between rounds write the slots back; they must not
            # perturb the books that follow.
            self.assert_books_equal(harness.ledger, ref)
            harness.summary()
            harness.to_metrics(MetricsRegistry())
        ledger = harness.ledger
        assert ledger.brownouts >= 2
        assert ledger.state_seconds[PowerState.COLD] > 0
        assert ledger.state_seconds[PowerState.IDLE] > 0
        self.assert_books_equal(ledger, ref)

    def test_decimated_soc_series_bit_equal(self):
        harness, ref = self.make(ledger=EnergyLedger(9, max_soc_samples=64))
        starve_and_feed(harness, 40)
        assert harness.ledger._soc_stride > 1
        self.assert_books_equal(harness.ledger, ref)

    def test_restore_replaces_live_books(self):
        """A restore into a ledger mid-campaign (other state, other
        totals) resets its slots; both then continue bit-identically."""
        source, _ = self.make()
        starve_and_feed(source, 25)
        twin, _ = self.make()
        starve_and_feed(twin, 15)  # browned out: other state and books
        assert twin.ledger.state is not source.ledger.state
        twin.restore_state(json.loads(bits(source.snapshot_state())))
        replay_history(twin.ledger, source.ledger)
        starve_and_feed(source, 20, start=25)
        starve_and_feed(twin, 20, start=25)
        assert bits(twin.snapshot_state()) == bits(source.snapshot_state())
        assert bits(twin.ledger.history_since()) == bits(
            source.ledger.history_since()
        )

    def test_waveform_mode_read_between_steps_sees_current_books(self):
        cap = Supercapacitor(initial_voltage_v=2.0)
        ledger = EnergyLedger().attach(cap)
        ledger.set_state(PowerState.IDLE)
        for _ in range(3):
            cap.charge_from_source(0.05, 4.0, 4e3, i_load_a=50e-6)
            # Every step is IDLE, so the ledger's bucket and the
            # capacitor's own books are the same sums in the same order.
            assert ledger.total("harvested") == cap.harvested_j
            assert ledger.total("consumed", PowerState.IDLE) == cap.consumed_j
            assert ledger.total("leaked") == cap.leaked_j
            assert ledger.state_seconds[PowerState.IDLE] == ledger.t


class PerStepHarness(NodeEnergyHarness):
    """Reference harness: each segment integrated one Thevenin step at a
    time through ``Supercapacitor.step``, checking the power transition
    after every step, and counting the transitions that land before a
    segment's last step."""

    mid_segment_transitions = 0

    def _run_segment(self, state, seconds):
        if seconds <= 0:
            return
        ledger = self.ledger
        ledger.set_state(state)
        i_load = (
            self.power_model.current_a(state, bitrate=self.bitrate)
            if self.powered else 0.0
        )
        steps = max(int(round(seconds / self.dt_s)), 1)
        dt = seconds / steps
        cap = self.capacitor
        for step in range(1, steps + 1):
            i_in = max(0.0, (self.v_oc_v - cap.voltage_v) / self.r_out_ohm)
            v = cap.step(dt, i_in_a=i_in, i_load_a=i_load)
            was_powered = self.powered
            if self.powered:
                if v < self.brownout_v:
                    self.powered = False
                    ledger.set_state(PowerState.COLD)
                    i_load = 0.0
            elif v >= self.threshold_v:
                self.powered = True
                if ledger.state is PowerState.COLD:
                    ledger.set_state(PowerState.IDLE)
                i_load = self.power_model.current_a(
                    state, bitrate=self.bitrate
                ) if ledger.state is state else 0.0
            if self.powered is not was_powered and step < steps:
                self.mid_segment_transitions += 1


class TestSegmentExactness:
    """One capacitor call per power stretch integrates every segment bit
    for bit like the per-step loop, across brownouts and recoveries."""

    @pytest.mark.parametrize("max_soc_samples", [4096, 64])
    def test_state_and_history_bit_equal(self, max_soc_samples):
        def make(cls):
            return cls(
                9, v_oc_v=1.5, initial_voltage_v=2.3, bitrate=2_000.0,
                ledger=EnergyLedger(9, max_soc_samples=max_soc_samples),
            )

        harness, reference = make(NodeEnergyHarness), make(PerStepHarness)
        for start in range(0, 60, 10):
            starve_and_feed(harness, 10, start=start)
            starve_and_feed(reference, 10, start=start)
            assert bits(harness.snapshot_state()) == bits(reference.snapshot_state())
        assert reference.ledger.brownouts >= 2
        assert reference.mid_segment_transitions >= 4
        if max_soc_samples == 64:
            assert reference.ledger._soc_stride > 1
        assert bits(harness.ledger.history_since()) == bits(
            reference.ledger.history_since()
        )

    def test_round_energy_is_the_difference_of_direction_totals(self):
        """Each round record's harvest and consumption are the per-direction
        fsum totals after the round minus those before it."""
        harness = NodeEnergyHarness(
            9, v_oc_v=1.5, initial_voltage_v=2.3, bitrate=2_000.0
        )
        ref = DictBookedReference(harness.ledger)
        for t in range(40):
            before = ref.balance()
            starve_and_feed(harness, 1, start=t)
            after = ref.balance()
            info = harness.ledger.round_history[-1]
            assert bits(info["harvested_j"]) == bits(
                after["harvested_j"] - before["harvested_j"]
            )
            assert bits(info["consumed_j"]) == bits(
                after["consumed_j"] + after["leaked_j"] + after["clamped_j"]
                - before["consumed_j"] - before["leaked_j"] - before["clamped_j"]
            )
