"""The waveform-synthesis caches hold one array per (carrier, rate).

``tone``, ``amplitude_modulated_carrier`` and ``downconvert`` slice one
read-only carrier or oscillator per carrier and rate from the
``unit_carriers`` and ``oscillators`` caches, and the projector keeps
no per-query waveform.  These tests pin every slice to a fresh
computation at its length, the projector's waveforms to the per-call
synthesis they replaced, and the cache census of a campaign: the
synthesis caches' footprint follows the configurations, not the fleet.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import TWO_PI
from repro.core import Projector
from repro.dsp.pwm import PWMCode, pwm_encode
from repro.dsp.waveforms import _unit_carrier, downconvert
from repro.net.messages import Command, Query
from repro.node.firmware import DOWNLINK_FORMAT
from repro.perf import cache_stats, caching_disabled, clear_all_caches, get_cache
from repro.piezo import Transducer

FS = 96_000.0

#: Lengths on both sides of the multiples of 8 and 16 that vectorized
#: loops step by and of the powers of two the caches grow to.
_EDGE_LENGTHS = [
    1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 1_023, 1_025, 8_191, 8_193,
    65_535, 65_537, 131_071, 131_072, 131_073, 200_000,
]
_LENGTHS = st.lists(
    st.one_of(st.integers(1, 200_000), st.sampled_from(_EDGE_LENGTHS)),
    min_size=1,
    max_size=6,
)
_ORDERS = st.sampled_from(["as drawn", "growing", "shrinking"])
_CARRIERS = st.sampled_from([14_950.0, 15_000.0, 18_000.0, 1_234.567])


def _ordered(lengths, order):
    if order == "growing":
        return sorted(lengths)
    if order == "shrinking":
        return sorted(lengths, reverse=True)
    return lengths


def _fresh_sin(carrier, n, phase):
    t = np.arange(n) / FS
    return np.sin(TWO_PI * carrier * t + phase)


def _fresh_oscillator(carrier, n):
    return np.exp(-1j * TWO_PI * carrier * np.arange(n) / FS)


class TestPrefixIdentity:
    @given(
        lengths=_LENGTHS,
        order=_ORDERS,
        carrier=_CARRIERS,
        phase=st.sampled_from([0.0, 0.3, -1.25]),
    )
    @settings(max_examples=30, deadline=None)
    def test_unit_carrier_slices_equal_a_fresh_sin(
        self, lengths, order, carrier, phase
    ):
        clear_all_caches()
        for n in _ordered(lengths, order):
            want = _fresh_sin(carrier, n, phase)
            got = _unit_carrier(carrier, FS, n, phase)
            assert got.tobytes() == want.tobytes()
            with caching_disabled():
                uncached = _unit_carrier(carrier, FS, n, phase)
            assert uncached.tobytes() == want.tobytes()

    @given(
        lengths=_LENGTHS,
        order=_ORDERS,
        carrier=_CARRIERS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_oscillator_slices_equal_a_fresh_exp(self, lengths, order, carrier, seed):
        clear_all_caches()
        rng = np.random.default_rng(seed)
        for n in _ordered(lengths, order):
            x = rng.normal(size=(2, n))
            want = 2.0 * x * _fresh_oscillator(carrier, n)
            assert downconvert(x, carrier, FS).tobytes() == want.tobytes()
            assert downconvert(x[0], carrier, FS).tobytes() == want[0].tobytes()
            with caching_disabled():
                uncached = downconvert(x, carrier, FS)
            assert uncached.tobytes() == want.tobytes()

    def test_one_entry_per_carrier_grown_to_a_power_of_two(self):
        clear_all_caches()
        before = get_cache("unit_carriers").stats()
        for n in (5_000, 80_000, 3, 90_000, 131_072):
            _unit_carrier(15_000.0, FS, n)
        after = get_cache("unit_carriers").stats()
        assert after.entries == 1
        # 5,000 -> 8,192, then 80,000 -> 131,072, which serves the rest.
        assert after.misses - before.misses == 2
        assert after.hits - before.hits == 3
        assert len(get_cache("unit_carriers")._data[(15_000.0, FS, 0.0)]) == 131_072

    def test_slices_are_read_only(self):
        carrier = _unit_carrier(15_000.0, FS, 100)
        with pytest.raises(ValueError):
            carrier[0] = 1.0


def _reference_query_waveform(projector, query, sample_rate):
    """The per-call PWM synthesis the projector used to memoize per query."""
    bits = query.to_packet().to_bits(DOWNLINK_FORMAT)
    envelope = pwm_encode(bits, projector.pwm_code, sample_rate).astype(float)
    t = np.arange(len(envelope)) / sample_rate
    template = envelope * np.sin(TWO_PI * projector.carrier_hz * t + 0.0)
    return projector.source_pressure_pa * template


def _reference_carrier_waveform(projector, duration_s, sample_rate):
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    return projector.source_pressure_pa * np.sin(
        TWO_PI * projector.carrier_hz * t + 0.0
    )


class TestProjectorSynthesis:
    @given(
        destination=st.integers(0, 0xFF),
        command=st.sampled_from(list(Command)),
        argument=st.integers(0, 0xFF),
        drive=st.sampled_from([10.0, 60.0, 350.0]),
        carrier=_CARRIERS,
        sample_rate=st.sampled_from([FS, 192_000.0]),
        short_ms=st.sampled_from([None, 0.7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_query_waveform_equals_the_per_call_synthesis(
        self, destination, command, argument, drive, carrier, sample_rate, short_ms
    ):
        code = PWMCode() if short_ms is None else PWMCode(short_s=short_ms * 1e-3)
        projector = Projector(
            transducer=Transducer.from_cylinder_design(),
            drive_voltage_v=drive,
            carrier_hz=carrier,
            pwm_code=code,
        )
        query = Query(destination=destination, command=command, argument=argument)
        want = _reference_query_waveform(projector, query, sample_rate).tobytes()
        for _ in range(2):  # the carrier's miss or growth, then a hit
            assert projector.query_waveform(query, sample_rate).tobytes() == want
        with caching_disabled():
            assert projector.query_waveform(query, sample_rate).tobytes() == want

    @given(
        duration_s=st.floats(0.0, 2.0),
        drive=st.sampled_from([10.0, 60.0, 350.0]),
        carrier=_CARRIERS,
    )
    @settings(max_examples=40, deadline=None)
    def test_carrier_waveform_equals_the_per_call_synthesis(
        self, duration_s, drive, carrier
    ):
        projector = Projector(
            transducer=Transducer.from_cylinder_design(),
            drive_voltage_v=drive,
            carrier_hz=carrier,
        )
        want = _reference_carrier_waveform(projector, duration_s, FS).tobytes()
        assert projector.carrier_waveform(duration_s, FS).tobytes() == want
        with caching_disabled():
            assert projector.carrier_waveform(duration_s, FS).tobytes() == want


#: The caches that synthesize carriers and oscillators.
SYNTHESIS_CACHES = ("unit_carriers", "oscillators")


def _held_bytes(cache) -> int:
    return sum(value.nbytes for value in cache._data.values())


def _campaign_census(nodes: int) -> dict:
    """Cache census after two cached rounds of the bench fleet."""
    from repro.cli import _bench_campaign, _build_bench_fleet

    clear_all_caches()
    before = cache_stats()
    transports = _build_bench_fleet(nodes, seed=2019, bitrate=2_000.0)
    _bench_campaign(
        nodes, 2, 2019, 2_000.0, parallel=0, transports=transports
    )
    after = cache_stats()
    return {
        "names": set(after),
        "synthesis": {
            name: (len(get_cache(name)), _held_bytes(get_cache(name)))
            for name in SYNTHESIS_CACHES
        },
        "evictions": {
            name: s.evictions - (before[name].evictions if name in before else 0)
            for name, s in after.items()
        },
    }


@pytest.fixture(scope="module")
def census():
    return {nodes: _campaign_census(nodes) for nodes in (10, 25)}


class TestCampaignCensus:
    def test_synthesis_caches_do_not_grow_with_the_fleet(self, census):
        assert census[10]["synthesis"] == census[25]["synthesis"]
        # The bench fleet runs one carrier at one rate.
        for name in SYNTHESIS_CACHES:
            assert census[25]["synthesis"][name][0] == 1

    def test_no_per_query_template_cache(self, census):
        for nodes in census:
            assert "pwm_templates" not in census[nodes]["names"]

    def test_no_cache_evicts(self, census):
        for nodes in census:
            evicted = {k: v for k, v in census[nodes]["evictions"].items() if v}
            assert evicted == {}
