"""Tests for decode post-mortems: classification, assembly, JSONL."""

import numpy as np
import pytest

from repro.faults.injectors import (
    FAULT_FAILING_STAGES,
    BrownoutInjector,
    GarbledReplyInjector,
    GilbertElliottInjector,
    NoiseBurstInjector,
    TransportError,
    TransportExceptionInjector,
)
from repro.obs.postmortem import (
    DecodePostmortem,
    StageFinding,
    load_postmortems_jsonl,
    postmortems_to_jsonl,
    write_postmortems_jsonl,
)
from repro.obs.probe import ProbeRegistry, use_probes


class OkResult:
    success = True


QUERY = object()  # injectors never look inside the query


def ok_transport(query):
    return OkResult()


class TestFromFault:
    @pytest.mark.parametrize("fault", sorted(FAULT_FAILING_STAGES))
    def test_names_the_failing_stage(self, fault):
        pm = DecodePostmortem.from_fault(fault, node=7)
        assert pm.failure == "injected_fault"
        assert pm.fault == fault
        assert pm.failing_stage == FAULT_FAILING_STAGES[fault]
        assert fault in pm.verdict
        assert pm.failing_stage in pm.verdict
        assert pm.node == 7

    def test_unknown_fault_still_classifies(self):
        pm = DecodePostmortem.from_fault("made_up")
        assert pm.failing_stage == "unknown"
        assert pm.failure == "injected_fault"

    def test_stage_map_covers_all_injectors(self):
        assert FAULT_FAILING_STAGES == {
            "noise_burst": "link.hydrophone_dsp",
            "brownout": "link.node",
            "gilbert_elliott": "link.uplink_propagation",
            "garbled": "link.hydrophone_dsp",
            "transport_exception": "transport",
            "worker_crash": "engine",
            "watchdog_timeout": "engine",
        }


class TestInjectorsRecordPostmortems:
    """Acceptance criterion: every injector class files a verdict."""

    @pytest.mark.parametrize("make", [
        lambda: NoiseBurstInjector(ok_transport, start=0, duration=1),
        lambda: BrownoutInjector(ok_transport, at=0),
        lambda: GilbertElliottInjector(
            ok_transport, start_bad=True, bad_loss=1.0, p_bad_to_good=0.0,
            seed=0,
        ),
        lambda: GarbledReplyInjector(ok_transport, at=(0,)),
    ])
    def test_injected_result_carries_postmortem(self, make):
        probes = ProbeRegistry()
        with use_probes(probes):
            result = make()(QUERY)
        assert not result.success
        pm = result.postmortem
        assert pm is not None
        assert pm.fault == result.fault
        assert pm.failing_stage == FAULT_FAILING_STAGES[result.fault]
        assert result.fault in pm.verdict
        assert probes.postmortems == [pm]

    def test_transport_exception_files_before_raising(self):
        probes = ProbeRegistry()
        inj = TransportExceptionInjector(ok_transport, at=(0,))
        with use_probes(probes):
            with pytest.raises(TransportError):
                inj(QUERY)
        assert len(probes.postmortems) == 1
        assert probes.postmortems[0].fault == "transport_exception"
        assert probes.postmortems[0].failing_stage == "transport"

    def test_probes_disabled_means_no_postmortem(self):
        inj = BrownoutInjector(ok_transport, at=0)
        result = inj(QUERY)  # global registry is disabled by default
        assert result.postmortem is None


class _FailingLinkRuns:
    """Shared noisy-link transacts (expensive, so class-scoped)."""

    @staticmethod
    def run(noise_db):
        from repro.acoustics import POOL_A, Position
        from repro.acoustics.noise import AmbientNoiseModel
        from repro.core import BackscatterLink, Projector
        from repro.net.messages import Command, Query
        from repro.node.node import PABNode
        from repro.piezo import Transducer

        transducer = Transducer.from_cylinder_design()
        f = transducer.resonance_hz
        projector = Projector(
            transducer=transducer, drive_voltage_v=50.0, carrier_hz=f
        )
        node = PABNode(address=7, channel_frequencies_hz=(f,), bitrate=1_000.0)
        link = BackscatterLink(
            POOL_A, projector, Position(0.5, 1.5, 0.6),
            node, Position(1.5, 1.5, 0.6), Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat", flat_level_db=noise_db, seed=0
            ),
        )
        probes = ProbeRegistry()
        with use_probes(probes):
            result = link.transact(Query(destination=7, command=Command.PING))
        return probes, result


class TestFromLink(_FailingLinkRuns):
    @pytest.fixture(scope="class")
    def crc_failed(self):
        return self.run(noise_db=130.0)

    def test_crc_fail_autopsy(self, crc_failed):
        probes, result = crc_failed
        assert not result.success
        pm = result.postmortem
        assert pm is not None
        assert pm.failure == "crc_fail"
        assert pm.failing_stage == "link.hydrophone_dsp"
        assert "sync found" in pm.verdict
        assert "CRC failed" in pm.verdict
        assert probes.postmortems == [pm]

    def test_findings_cover_the_pipeline(self, crc_failed):
        _, result = crc_failed
        stages = {f.stage for f in result.postmortem.findings}
        assert "link.node" in stages
        assert "sync.detect_packet" in stages
        assert "link.hydrophone_dsp" in stages

    def test_render_contains_verdict_and_findings(self, crc_failed):
        _, result = crc_failed
        text = result.postmortem.render()
        assert "crc_fail at link.hydrophone_dsp" in text
        assert "verdict:" in text
        assert "[ok]" in text

    def test_verdict_on_the_root_span(self):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            _, result = self.run(noise_db=130.0)
        root = [s for s in tracer.spans if s.name == "link.transact"][0]
        assert root.attrs["postmortem_verdict"] == result.postmortem.verdict
        assert root.attrs["failing_stage"] == "link.hydrophone_dsp"


class TestLinkOwnRegistry:
    """A link's own registry sees what the global registry would."""

    @staticmethod
    def run(own: bool):
        """Bench-fleet node 24 (seed 2019), whose READ_PH fails its CRC."""
        from repro.acoustics import POOL_A, Position
        from repro.acoustics.noise import AmbientNoiseModel
        from repro.core import BackscatterLink, Projector
        from repro.net.messages import Command, Query
        from repro.node.node import PABNode
        from repro.piezo import Transducer

        transducer = Transducer.from_cylinder_design()
        f = transducer.resonance_hz
        probes = ProbeRegistry()
        link = BackscatterLink(
            POOL_A,
            Projector(transducer=transducer, drive_voltage_v=60.0, carrier_hz=f),
            Position(0.5, 1.5, 0.6),
            PABNode(address=0x28, channel_frequencies_hz=(f,), bitrate=2_000.0),
            Position(0.8 + 0.04 * 24, 1.5, 0.6),
            Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat", flat_level_db=35.0, seed=1000 * 2019 + 0x28
            ),
            probes=probes if own else None,
        )
        query = Query(destination=0x28, command=Command.READ_PH)
        if own:
            return probes, link.run_query(query)
        with use_probes(probes):
            return probes, link.run_query(query)

    def test_same_taps_and_verdict_as_the_global_registry(self):
        own_probes, own = self.run(own=True)
        global_probes, shared = self.run(own=False)
        assert not shared.success
        stages = {t.stage for t in global_probes.taps}
        assert {"hydrophone.demodulate", "sync.detect_packet"} <= stages
        assert {t.stage for t in own_probes.taps} == stages
        assert "sigma" in shared.postmortem.verdict
        assert own.postmortem.verdict == shared.postmortem.verdict


class TestFromLinkShapes:
    """Classification paths exercised with synthetic results/taps."""

    class _Result:
        powered_up = True
        query_decoded = True
        response = object()
        demod = None
        fault = None
        snr_db = float("nan")
        budget = None

        @property
        def success(self):
            return False

    def test_no_power_up(self):
        result = self._Result()
        result.powered_up = False
        probes = ProbeRegistry()
        probes.capture(
            "link.node", "power_up", incident_pressure_pa=3.0, powered=False
        )
        pm = DecodePostmortem.from_link(result, probes)
        assert pm.failure == "no_power_up"
        assert pm.failing_stage == "link.node"
        assert pm.findings[0].status == "failed"

    def test_query_not_decoded(self):
        result = self._Result()
        result.query_decoded = False
        pm = DecodePostmortem.from_link(result, ProbeRegistry())
        assert pm.failure == "query_not_decoded"

    def test_no_response(self):
        result = self._Result()
        result.response = None
        pm = DecodePostmortem.from_link(result, ProbeRegistry())
        assert pm.failure == "no_response"

    def test_sync_miss_quotes_the_margin(self):
        result = self._Result()
        probes = ProbeRegistry()
        probes.capture(
            "sync.detect_packet", "correlation",
            peak=0.08, threshold=0.12, margin=-0.04, peak_sigma=2.1,
            found=False,
        )
        pm = DecodePostmortem.from_link(result, probes)
        assert pm.failure == "sync_miss"
        assert "0.08" in pm.verdict
        assert "2.1 sigma" in pm.verdict
        assert "-0.04" in pm.verdict

    def test_zf_ill_conditioning_wins_over_crc(self):
        result = self._Result()
        probes = ProbeRegistry()
        probes.capture(
            "mimo.zero_forcing", "channel", cond=87.0, ill_conditioned=True,
        )
        pm = DecodePostmortem.from_link(result, probes)
        assert pm.failure == "zf_ill_conditioned"
        assert pm.failing_stage == "mimo.zero_forcing"
        assert "cond=87" in pm.verdict
        assert "under-separated" in pm.verdict

    def test_fault_result_delegates_to_from_fault(self):
        result = self._Result()
        result.fault = "brownout"
        pm = DecodePostmortem.from_link(result, ProbeRegistry())
        assert pm.failure == "injected_fault"
        assert pm.failing_stage == "link.node"


class TestJsonl:
    def _sample(self):
        return [
            DecodePostmortem.from_fault("brownout", node=3),
            DecodePostmortem(
                failure="crc_fail", failing_stage="link.hydrophone_dsp",
                verdict="eye closed", txn=2,
                findings=[StageFinding(
                    stage="link.node", status="ok", detail="powered",
                    data={"snr_db": 4.5},
                )],
            ),
        ]

    def test_round_trip(self, tmp_path):
        originals = self._sample()
        path = write_postmortems_jsonl(
            tmp_path / "new_dir" / "pm.jsonl", originals
        )
        loaded = load_postmortems_jsonl(path)
        assert [pm.to_dict() for pm in loaded] == [
            pm.to_dict() for pm in originals
        ]

    def test_one_line_per_postmortem(self):
        text = postmortems_to_jsonl(self._sample())
        assert text.count("\n") == 2
        assert text.endswith("\n")

    def test_empty_dump(self):
        assert postmortems_to_jsonl([]) == ""

    def test_non_finite_data_serialises(self, tmp_path):
        pm = DecodePostmortem(
            failure="sync_miss", failing_stage="link.hydrophone_dsp",
            verdict="v",
            findings=[StageFinding(
                stage="s", status="failed", detail="d",
                data={"snr_db": float("nan"), "peak": np.float64(0.25)},
            )],
        )
        path = write_postmortems_jsonl(tmp_path / "pm.jsonl", [pm])
        loaded = load_postmortems_jsonl(path)[0]
        assert loaded.findings[0].data["snr_db"] == "nan"
        assert loaded.findings[0].data["peak"] == 0.25
