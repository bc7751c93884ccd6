"""Observers ride the one exchange path.

``BackscatterLink.run_query`` runs a single exchange whatever observes
it.  Caching off turns the leg memo into a pass-through, an energy
ledger books the same flows whether its node's legs are recalled or
computed, and enabled probes force only the legs whose stages they
want, so a campaign keeps its digest under every observer.
"""

import json

import numpy as np

from repro.acoustics import POOL_A, Position
from repro.acoustics.noise import AmbientNoiseModel
from repro.core import BackscatterLink, Projector
from repro.faults import EventLog
from repro.net import Command, ReaderController, RetryPolicy
from repro.net.messages import Query
from repro.node.node import PABNode
from repro.obs import EnergyLedger, MetricsRegistry, ProbeRegistry, Tracer
from repro.obs import use_probes, use_tracer
from repro.perf import caching_disabled, clear_all_caches
from repro.piezo import Transducer
from repro.resilience import campaign_digest

SEED = 5


def _links(n=3, *, ledgered=False):
    """A waveform fleet: per-node geometry and seeded ambient noise."""
    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    links = {}
    for i in range(n):
        addr = 0x30 + i
        node = PABNode(
            address=addr, channel_frequencies_hz=(f,), bitrate=2_000.0,
            ledger=EnergyLedger(addr) if ledgered else None,
        )
        links[addr] = BackscatterLink(
            POOL_A,
            Projector(transducer=transducer, drive_voltage_v=60.0, carrier_hz=f),
            Position(0.5, 1.5, 0.6),
            node,
            Position(0.9 + 0.07 * i, 1.6, 0.62),
            Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat", flat_level_db=35.0, seed=9_000 + addr
            ),
        )
    return links


def _campaign(links, *, rounds=4):
    """Digest of a sequential ``READ_PH`` campaign over ``links``."""
    log = EventLog()
    metrics = MetricsRegistry()
    reader = ReaderController(
        {addr: link.run_query for addr, link in links.items()},
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=SEED
        ),
        log=log,
        metrics=metrics,
    )
    report = reader.run_campaign(Command.READ_PH, rounds=rounds)
    return campaign_digest(report, log, metrics)


def _books(ledger):
    """Every book of an energy ledger, as one comparable string."""
    return json.dumps(
        {
            "summary": ledger.summary(),
            "soc": ledger.soc_series(),
            "brownouts": ledger.brownouts,
            "state": ledger.snapshot_state(),
        },
        sort_keys=True,
    )


def _stage_sources(tracer):
    """``[(destination, {stage span sources})]`` per exchange, in order."""
    by_id = {s.span_id: s for s in tracer.spans}

    def exchange_of(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            if span.name == "link.transact":
                return span.span_id
        return None

    sources: dict = {}
    for span in tracer.spans:
        if span.name in BackscatterLink.STAGES:
            sources.setdefault(exchange_of(span), set()).add(
                span.attrs["source"]
            )
    roots = sorted(
        (s for s in tracer.spans if s.name == "link.transact"),
        key=lambda s: s.start_s,
    )
    return [(r.attrs["destination"], sources[r.span_id]) for r in roots]


def _assert_recalls_after_first(tracer):
    """Each node's exchanges after its first recall at least one leg."""
    seen = set()
    exchanges = _stage_sources(tracer)
    for node, sources in exchanges:
        if node in seen:
            assert "recalled" in sources
        seen.add(node)
    return exchanges


class TestLedgeredFleet:
    def test_cached_equals_uncached_and_recalls(self):
        """The ledger books nothing while the link decodes, so a
        ledgered node may recall its decode and uplink legs."""
        clear_all_caches()
        with caching_disabled():
            links = _links(ledgered=True)
            uncached = _campaign(links)
            uncached_books = [_books(l.node.ledger) for l in links.values()]
        links = _links(ledgered=True)
        tracer = Tracer()
        with use_tracer(tracer):
            assert _campaign(links) == uncached
        assert [_books(l.node.ledger) for l in links.values()] == uncached_books
        assert all(len(l.node.ledger.soc_v) > 1 for l in links.values())
        _assert_recalls_after_first(tracer)


class TestProbedCampaign:
    def test_sync_probe_keeps_digest_and_memo(self):
        """A probe on a DSP stage forces no link leg: after each node's
        first exchange the legs are recalled, and the demodulator still
        publishes its tap on every exchange that reaches it."""
        unprobed = _campaign(_links())
        links = _links()
        reached = []
        for link in links.values():
            run_query = link.run_query

            def counted(query, run_query=run_query):
                result = run_query(query)
                reached.append(result.response is not None)
                return result

            link.run_query = counted
        probes = ProbeRegistry(stages={"sync.detect_packet"})
        tracer = Tracer()
        with use_probes(probes), use_tracer(tracer):
            assert _campaign(links) == unprobed
        assert len(_assert_recalls_after_first(tracer)) == len(reached)
        sync_txns = {t.txn for t in probes.taps_for("sync.detect_packet")}
        assert {t.stage for t in probes.taps} == {"sync.detect_packet"}
        assert len(sync_txns) == sum(reached) > 0


#: The link's taps of one successful exchange, in publication order.
LINK_TAPS = [
    ("link.node", "power_up"),
    ("link.pwm_synthesis", "query_waveform"),
    ("link.downlink_propagation", "incident_query"),
    ("link.node", "query_envelope"),
    ("link.node", "uplink_chips"),
    ("link.pwm_synthesis", "tx_waveform"),
    ("link.downlink_propagation", "incident_carrier"),
    ("link.node", "backscatter_reflected"),
    ("link.uplink_propagation", "hydrophone_mixture"),
    ("link.hydrophone_dsp", "analysis_segment"),
]


class TestFullyProbedExchange:
    def _taps(self, link, query):
        probes = ProbeRegistry()
        with use_probes(probes):
            assert link.run_query(query).success
        return [
            t for t in probes.taps if (t.stage, t.name) in set(LINK_TAPS)
        ]

    def test_cold_and_warm_link_capture_every_tap(self):
        link = _links(n=2)[0x31]
        query = Query(destination=0x31, command=Command.PING)
        cold = self._taps(link, query)
        assert link._leg_memo.hits == 0
        assert link.run_query(query).success  # unprobed: fills the memo
        assert link.run_query(query).success
        assert link._leg_memo.hits > 0
        warm = self._taps(link, query)
        for taps in (cold, warm):
            assert [(t.stage, t.name) for t in taps] == LINK_TAPS
        mixture = warm[-2]
        segment = warm[-1].diagnostics
        assert mixture.diagnostics["analysis_start"] == segment["analysis_start"]
        assert mixture.samples == -(-segment["samples"] // mixture.decimation)
        for key in ("band_snr_db", "uplink_rms_pa", "direct_rms_pa"):
            assert np.isfinite(mixture.diagnostics[key]), key
