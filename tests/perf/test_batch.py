"""Identity tests for the batched PHY engine (``parallel="batch"``).

The engine precomputes waveform work across a window of upcoming
rounds, so every shortcut it takes must collapse to the sequential
arithmetic exactly: the campaign report, event log, and metrics
exposition are compared byte-for-byte (via ``campaign_digest``) against
the plain loop.  The risky paths get their own tests — mid-campaign
``SET_BITRATE``/``SET_RESONANCE_MODE`` churn invalidates window hints,
fault injectors interpose on the transport chain, worker crashes tear
the window down, and checkpoint/resume rebuilds it mid-flight.
"""

import json

import numpy as np
import scipy.fft

from repro.core import BackscatterLink
from repro.faults import BrownoutInjector, EventLog, NoiseBurstInjector
from repro.net import Command, ReaderController, Response, RetryPolicy
from repro.obs import (
    MetricsRegistry,
    ProbeRegistry,
    Tracer,
    metrics_to_prometheus,
    use_tracer,
)
from repro.perf.batch import resolve_link
from repro.perf.kernels import (
    _OVERLAP_ADD_MIN_LEN,
    batched_convolve,
    batched_correlate,
    smart_convolve,
    smart_correlate,
)
from repro.resilience import campaign_digest, checkpoint_path, install_worker_crash

SEED = 5
BITRATE = 2_000.0


def _waveform_transports(n=4, seed=SEED, bitrate=BITRATE, modes=1):
    """Real waveform fleet: per-node geometry and seeded ambient noise.

    ``modes > 1`` gives every node a recto-piezo bank with that many
    resonance channels, so ``SET_RESONANCE_MODE`` churn is a genuine
    waveform change rather than a rejected argument.
    """
    from repro.acoustics import POOL_A, Position
    from repro.acoustics.noise import AmbientNoiseModel
    from repro.core import BackscatterLink, Projector
    from repro.node.node import PABNode
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    channels = tuple(f * (1.0 - 0.04 * m) for m in range(modes))
    transports = {}
    for i in range(n):
        addr = 0x30 + i
        projector = Projector(
            transducer=transducer, drive_voltage_v=60.0, carrier_hz=f
        )
        node = PABNode(
            address=addr, channel_frequencies_hz=channels, bitrate=bitrate
        )
        link = BackscatterLink(
            POOL_A,
            projector,
            Position(0.5, 1.5, 0.6),
            node,
            Position(0.9 + 0.07 * i, 1.6, 0.62),
            Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat",
                flat_level_db=35.0,
                seed=9_000 + 100 * seed + addr,
            ),
        )
        transports[addr] = link.run_query
    return transports


def _reader(transports, *, parallel, seed=SEED):
    log = EventLog()
    metrics = MetricsRegistry()
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=seed
        ),
        log=log,
        metrics=metrics,
        parallel=parallel,
    )
    return reader, log, metrics


def _campaign_digest(parallel, *, rounds=8, n=4, kill_at=None,
                     transports=None):
    """Digest of one fresh-fleet campaign in the given execution mode."""
    if transports is None:
        transports = _waveform_transports(n=n)
    reader, log, metrics = _reader(transports, parallel=parallel)
    if kill_at is not None:
        kill_round, kill_node = kill_at
        install_worker_crash(reader, kill_node, rounds=(kill_round,), crashes=1)
    report = reader.run_campaign(Command.READ_PH, rounds=rounds)
    return campaign_digest(report, log, metrics)


class TestBatchIdentity:
    """``parallel="batch"`` is byte-identical to the sequential loop."""

    def test_batch_matches_sequential(self):
        sequential = _campaign_digest(0)
        assert _campaign_digest("batch") == sequential

    def test_worker_crash_containment_identical(self):
        """A contained worker crash mid-window tears the plan down;
        the containment telemetry must still match the plain loop."""
        addr = 0x30 + 1
        sequential = _campaign_digest(0, n=3, kill_at=(4, addr))
        assert _campaign_digest("batch", n=3, kill_at=(4, addr)) == sequential


def _injected_campaign_blob(parallel, *, rounds=12, n=4, seed=SEED):
    """Fault injectors between the MAC and the waveform links.

    The injector chain holds the shared event log (like the chaos
    fleets in ``repro fleet-report``), and the batch engine must
    resolve links *through* the chain without disturbing when each
    injector fires.
    """
    log = EventLog()
    metrics = MetricsRegistry()
    transports = {}
    for addr, transact in sorted(_waveform_transports(n=n).items()):
        if addr % 2:
            transact = NoiseBurstInjector(
                transact, start=2, duration=4, node=addr, log=log,
                seed=seed + addr,
            )
        else:
            transact = BrownoutInjector(
                transact, at=5, dark_for=4, node=addr, log=log,
                seed=seed + addr,
            )
        transports[addr] = transact
    reader = ReaderController(
        transports,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=seed
        ),
        log=log,
        metrics=metrics,
        parallel=parallel,
    )
    report = reader.run_campaign(Command.READ_PH, rounds=rounds)
    return (
        json.dumps(report, sort_keys=True, default=str)
        + "\n" + log.dump()
        + "\n" + metrics_to_prometheus(metrics)
    )


class TestBatchInjectorIdentity:
    def test_injected_faults_identical(self):
        sequential = _injected_campaign_blob(0)
        assert "injector=" in sequential  # the chaos actually fired
        assert _injected_campaign_blob("batch") == sequential


def _churn_blob(parallel, *, rounds=12, seed=SEED):
    """Campaign with live reconfiguration between rounds.

    ``SET_BITRATE`` changes the uplink leg memo key and the demod
    parameters for every hint the engine planned ahead;
    ``SET_RESONANCE_MODE`` changes the reflection states behind the
    carrier leg.  Both must invalidate cleanly — the engine may only
    lose speed, never bits.
    """
    transports = _waveform_transports(n=3, modes=2)
    addrs = sorted(transports)
    reader, log, metrics = _reader(transports, parallel=parallel, seed=seed)
    rows = []
    for rnd in range(rounds):
        if rnd == 3:
            rows.append({"set_bitrate": reader.set_bitrate(addrs[0], 1_000.0)})
        if rnd == 5:
            rows.append({"set_mode": reader.set_resonance_mode(addrs[1], 1)})
        if rnd == 8:
            rows.append({
                "set_bitrate": reader.set_bitrate(addrs[0], BITRATE),
                "set_mode": reader.set_resonance_mode(addrs[1], 0),
            })
        rows.append(reader.poll_round(Command.READ_PH))
    return (
        json.dumps(rows, sort_keys=True, default=str)
        + "\n" + log.dump()
        + "\n" + metrics_to_prometheus(metrics)
    )


class TestBatchReconfigurationIdentity:
    def test_mid_campaign_bitrate_and_mode_churn_identical(self):
        sequential = _churn_blob(0)
        # The reconfigurations actually took effect (acked over the
        # real waveform link) — otherwise this test proves nothing.
        assert '"set_bitrate": true' in sequential
        assert '"set_mode": true' in sequential
        assert _churn_blob("batch") == sequential


class TestBatchCheckpointResume:
    def test_resume_into_batch_mode_matches_clean(self, tmp_path):
        """Checkpoint sequentially, resume batched: the engine starts
        with an empty window mid-campaign and must still replay the
        remaining rounds bit-for-bit."""
        clean = _campaign_digest(0, rounds=10, n=3)
        reader, _, _ = _reader(_waveform_transports(n=3), parallel=0)
        reader.run_campaign(
            Command.READ_PH, rounds=10,
            checkpoint_every=4, checkpoint_dir=tmp_path,
        )
        twin, tlog, tmetrics = _reader(
            _waveform_transports(n=3), parallel="batch"
        )
        report = twin.run_campaign(
            Command.READ_PH, rounds=10,
            resume_from=checkpoint_path(tmp_path, 4),
        )
        assert campaign_digest(report, tlog, tmetrics) == clean

    def test_checkpoint_in_batch_mode_resumes_sequentially(self, tmp_path):
        clean = _campaign_digest(0, rounds=10, n=3)
        reader, _, _ = _reader(_waveform_transports(n=3), parallel="batch")
        reader.run_campaign(
            Command.READ_PH, rounds=10,
            checkpoint_every=6, checkpoint_dir=tmp_path,
        )
        twin, tlog, tmetrics = _reader(_waveform_transports(n=3), parallel=0)
        report = twin.run_campaign(
            Command.READ_PH, rounds=10,
            resume_from=checkpoint_path(tmp_path, 6),
        )
        assert campaign_digest(report, tlog, tmetrics) == clean


class _StubResult:
    def __init__(self, packet):
        self.success = True
        self.demod = type("Demod", (), {})()
        self.demod.packet = packet
        self.demod.success = True


class _StubTransport:
    """Deterministic waveform-free transport; the engine must skip it."""

    def __init__(self, address):
        self.address = int(address)

    def __call__(self, query):
        raw = int((15.0 + self.address) * 100.0 + 10_000)
        data = bytes([(raw >> 8) & 0xFF, raw & 0xFF])
        response = Response(
            source=self.address, command=query.command, data=data
        )
        return _StubResult(response.to_packet())


class TestEngineEngagement:
    def test_engine_engages_on_waveform_fleet(self):
        reader, _, _ = _reader(_waveform_transports(n=3), parallel="batch")
        reader.run_campaign(Command.READ_PH, rounds=10)
        stats = reader._batch_engine.stats.as_dict()
        assert stats["planned"] > 0
        assert stats["demods_precomputed"] > 0
        assert stats["windows"] >= 1

    def test_retry_surplus_and_hint_carry_over(self):
        """The planner over-provisions for retries and re-adopts
        leftover hints at the next replan — while staying
        byte-identical to the sequential loop."""
        sequential = _campaign_digest(0, rounds=16)
        transports = _waveform_transports(n=4)
        reader, log, metrics = _reader(transports, parallel="batch")
        report = reader.run_campaign(Command.READ_PH, rounds=16)
        assert campaign_digest(report, log, metrics) == sequential
        stats = reader._batch_engine.stats.as_dict()
        assert stats["windows"] >= 2
        assert stats["retries_planned"] > 0
        assert stats["demods_carried"] > 0

    def test_engine_noops_on_stub_fleet(self):
        def blob(parallel):
            log = EventLog()
            metrics = MetricsRegistry()
            reader = ReaderController(
                {a: _StubTransport(a) for a in (1, 2, 3)},
                log=log, metrics=metrics, parallel=parallel,
            )
            report = reader.run_campaign(Command.READ_TEMPERATURE, rounds=6)
            return reader, campaign_digest(report, log, metrics)

        _, sequential = blob(0)
        reader, batched = blob("batch")
        assert batched == sequential
        assert reader._batch_engine.stats.as_dict()["planned"] == 0

    def test_resolve_link_through_injector_chain(self):
        from repro.core import BackscatterLink

        transact = next(iter(_waveform_transports(n=1).values()))
        link = resolve_link(transact)
        assert isinstance(link, BackscatterLink)
        wrapped = NoiseBurstInjector(transact, start=0, duration=1, node=1)
        assert resolve_link(wrapped) is link
        assert resolve_link(_StubTransport(1)) is None
        assert resolve_link(lambda q: None) is None


def _exchanges(tracer):
    """``[(link.transact span, [spans beneath it])]`` in exchange order."""
    by_id = {s.span_id: s for s in tracer.spans}

    def transact_of(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            if span.name == "link.transact":
                return span
        return None

    beneath: dict = {}
    for span in tracer.spans:
        root = transact_of(span)
        if root is not None:
            beneath.setdefault(root.span_id, []).append(span)
    roots = sorted(
        (s for s in tracer.spans if s.name == "link.transact"),
        key=lambda s: s.start_s,
    )
    return [(root, beneath.get(root.span_id, [])) for root in roots], transact_of


def _assert_stages_traced(tracer):
    """Every exchange shows the five stages, each tagged with a source,
    and every exchange after a node's first recalls something."""
    exchanges, _ = _exchanges(tracer)
    assert exchanges
    seen = set()
    for root, spans in exchanges:
        stage_spans = [s for s in spans if s.name in BackscatterLink.STAGES]
        assert {s.name for s in stage_spans} == set(BackscatterLink.STAGES)
        sources = {s.attrs["source"] for s in stage_spans}
        assert sources <= {"computed", "recalled", "batched"}
        node = root.attrs["destination"]
        if node in seen:
            assert "recalled" in sources
        seen.add(node)


class TestTracedCampaigns:
    """Tracing observes the memoized exchange instead of replacing it."""

    def test_per_link_tracer_digest_and_stages(self):
        sequential = _campaign_digest(0, n=3, rounds=5)
        tracer = Tracer()
        transports = _waveform_transports(n=3)
        for transact in transports.values():
            resolve_link(transact).tracer = tracer
        assert _campaign_digest(0, n=3, rounds=5, transports=transports) == sequential
        _assert_stages_traced(tracer)

    def test_global_tracer_digest_and_stages(self):
        sequential = _campaign_digest(0, n=3, rounds=5)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = _campaign_digest(0, n=3, rounds=5)
        assert traced == sequential
        _assert_stages_traced(tracer)

    def test_global_tracer_batch_campaign(self):
        """A traced batch campaign still batches: its live exchanges
        consume hints, and the planner's dry run stays out of the trace
        (one ``batch.prewarm`` block per replan)."""
        sequential = _campaign_digest(0, n=3, rounds=10)
        tracer = Tracer()
        with use_tracer(tracer):
            reader, log, metrics = _reader(
                _waveform_transports(n=3), parallel="batch"
            )
            report = reader.run_campaign(Command.READ_PH, rounds=10)
        assert campaign_digest(report, log, metrics) == sequential
        assert reader._batch_engine.stats.demods_precomputed > 0
        _assert_stages_traced(tracer)
        assert any(
            s.name == "link.hydrophone_dsp" and s.attrs["source"] == "batched"
            for s in tracer.spans
        )
        assert any(s.name == "batch.prewarm" for s in tracer.spans)
        _, transact_of = _exchanges(tracer)
        for span in tracer.spans:
            if span.name.startswith("node."):
                assert transact_of(span) is not None, span.name

    def test_probed_link_is_not_planned(self):
        """A link with its own probe registry computes every stage for
        real, so the batch engine must not plan (and waste) its hints."""
        addr = 0x30 + 1

        def probed_transports():
            transports = _waveform_transports(n=3)
            resolve_link(transports[addr]).probes = ProbeRegistry()
            return transports

        sequential = _campaign_digest(
            0, n=3, rounds=10, transports=probed_transports()
        )
        transports = probed_transports()
        reader, log, metrics = _reader(transports, parallel="batch")
        engine = reader._batch_engine
        planned = set()
        plan_windows = engine._plan_windows

        def spy(*args):
            windows = plan_windows(*args)
            planned.update(w.addr for w in windows)
            return windows

        engine._plan_windows = spy
        report = reader.run_campaign(Command.READ_PH, rounds=10)
        assert campaign_digest(report, log, metrics) == sequential
        assert planned and addr not in planned
        assert resolve_link(transports[addr])._batch_hints == {}


class TestBatchedKernelIdentity:
    """Row-wise bit-identity of the batched kernels, across the
    strategy-dispatch boundaries they share with the sequential path."""

    def test_fft_regime_matches_per_row(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(5, 9_000))
        kernel = rng.normal(size=768)
        per_row = np.stack([smart_convolve(r, kernel) for r in xs])
        assert np.array_equal(batched_convolve(xs, kernel), per_row)

    def test_overlap_add_regime_matches_per_row(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(3, _OVERLAP_ADD_MIN_LEN))
        kernel = rng.normal(size=512)
        per_row = np.stack([smart_convolve(r, kernel) for r in xs])
        assert np.array_equal(batched_convolve(xs, kernel), per_row)

    def test_direct_regime_matches_per_row(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(4, 200))
        kernel = rng.normal(size=16)
        per_row = np.stack([smart_convolve(r, kernel) for r in xs])
        assert np.array_equal(batched_convolve(xs, kernel), per_row)

    def test_correlate_matches_per_row(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(4, 6_000))
        template = rng.normal(size=384)
        per_row = np.stack(
            [smart_correlate(r, template, mode="valid") for r in xs]
        )
        got = batched_correlate(xs, template, mode="valid")
        assert np.array_equal(got, per_row)

    def test_dispatch_boundary_strategies_agree(self):
        """Either side of ``_OVERLAP_ADD_MIN_LEN`` the two FFT
        strategies compute the same convolution to rounding."""
        rng = np.random.default_rng(11)
        kernel = rng.normal(size=512)
        for n in (_OVERLAP_ADD_MIN_LEN - 1, _OVERLAP_ADD_MIN_LEN):
            x = rng.normal(size=n)
            got = smart_convolve(x, kernel)
            reference = np.convolve(x[: 4_096], kernel)
            np.testing.assert_allclose(
                got[: len(reference) - len(kernel)],
                reference[: len(reference) - len(kernel)],
                rtol=1e-9, atol=1e-9,
            )

    def test_scipy_rfft_bit_identical_to_numpy(self):
        """Both are pocketfft; the engine leans on exact agreement even
        at awkward (prime) transform lengths."""
        rng = np.random.default_rng(12)
        for n in (9_973, 8_192, 12_000):
            x = rng.normal(size=n)
            spectrum = scipy.fft.rfft(x)
            assert np.array_equal(spectrum, np.fft.rfft(x)), n
            assert np.array_equal(
                scipy.fft.irfft(spectrum, n=n), np.fft.irfft(spectrum, n=n)
            ), n

    def test_batched_preamble_correlation_matches_rows(self):
        from repro.dsp.sync import (
            batched_preamble_correlation,
            preamble_correlation,
        )

        rng = np.random.default_rng(13)
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        chip_rate, fs = 4_000.0, 96_000.0
        rows = rng.normal(size=(4, 6_000))
        batched = batched_preamble_correlation(rows, bits, chip_rate, fs)
        for i, row in enumerate(rows):
            expected = preamble_correlation(row, bits, chip_rate, fs)
            assert np.array_equal(batched[i], expected), i
