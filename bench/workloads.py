"""One repetition of one benchmark workload, in a fresh process.

``bench/run.py`` starts this script once per repetition with
``PYTHONPATH`` pointing at the checkout's ``src`` and
``PYTHONHASHSEED=0``; it prints one JSON object as its last stdout
line.  numpy and scipy are imported before the set-up clock starts, so
``setup_s`` covers ``import repro`` through the ready reader.

With ``--check`` the repetition also proves its outputs correct after
the timed part (see :data:`CHECKS`); with ``--trace`` it runs under the
outside-in layer trace of ``bench/layers.py`` and reports per-layer
metrics instead of being timed for the end-to-end ones.

The workloads (fixed names; ``bench/README.md`` says why each exists):

* ``cached-fleet`` -- every 4th node of the 100-node bench fleet (25
  nodes spanning the full 0.8-3.56 m layout), 16 rounds of ``READ_PH``,
  sequential with the leg memo on;
* ``batch-fleet`` -- the same campaign under ``parallel="batch"``;
* ``traced-fleet`` -- the 10-node bench fleet for 8 rounds with a
  :class:`~repro.obs.Tracer` on every link (the memo is bypassed);
* ``chaos-telemetry`` -- ``repro fleet-report`` with 24 stub nodes for
  300 rounds, streaming telemetry and checkpointing every 25 rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import pathlib
import resource
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BITRATE = 2_000.0

#: Fleet workloads: node indices into the bench-fleet layout, rounds,
#: reader mode, whether links carry a tracer, and the mode the
#: correctness check replays the campaign in.
FLEETS = {
    "cached-fleet": dict(indices=range(0, 100, 4), rounds=16, mode=0,
                         traced=False, reference="batch"),
    "batch-fleet": dict(indices=range(0, 100, 4), rounds=16, mode="batch",
                        traced=False, reference=0),
    "traced-fleet": dict(indices=range(10), rounds=8, mode=0,
                         traced=True, reference=0),
}
CHAOS = dict(nodes=24, rounds=300, checkpoint_every=25)

#: Self-test sizes (``--toy``).
TOY_FLEETS = {
    "cached-fleet": dict(indices=range(0, 12, 4), rounds=3),
    "batch-fleet": dict(indices=range(0, 12, 4), rounds=3),
    "traced-fleet": dict(indices=range(3), rounds=3),
}
TOY_CHAOS = dict(nodes=8, rounds=30, checkpoint_every=10)

CHECKS = {
    "cached-fleet": "digest equals the batch-mode campaign's",
    "batch-fleet": "digest equals the cached-mode campaign's",
    "traced-fleet": "digest equals an untraced cached campaign's",
    "chaos-telemetry": "resuming the latest checkpoint reproduces the digest",
}
WORKLOADS = tuple(CHECKS)


def peak_rss_mb() -> float:
    """High-water resident set of this process [MB] (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mac_totals(reader) -> tuple[int, int, int]:
    """``(attempts, retries, readings)`` summed over the reader's nodes."""
    attempts = retries = readings = 0
    for record in reader.nodes.values():
        attempts += record.stats.attempts
        retries += record.stats.retries
        readings += len(record.readings)
    return attempts, retries, readings


def time_first_round(reader, out: dict) -> None:
    """Time the reader's next ``poll_round`` into ``out["first_round_s"]``.

    An instance attribute shadows the class method for one call and
    then removes itself.
    """
    inner = reader.poll_round

    def first_round(command):
        start = time.perf_counter()
        try:
            return inner(command)
        finally:
            out["first_round_s"] = time.perf_counter() - start
            del reader.poll_round

    reader.poll_round = first_round


def campaign_counts(before: tuple, after: tuple) -> dict:
    attempts = after[0] - before[0]
    retries = after[1] - before[1]
    ops = attempts - retries
    return {
        "attempts": attempts,
        "retries": retries,
        "ops": ops,
        "errors": ops - (after[2] - before[2]),
    }


# -- fleets ---------------------------------------------------------------------


def build_fleet_reader(indices, seed: int, mode, tracer=None):
    """The bench fleet at ``indices`` behind a steady-state reader.

    Node ``i`` sits where the 100-node ``repro bench`` fleet puts it:
    rank ``i // 70`` of 70 nodes 4 cm apart from 0.8 m along x, with a
    seeded 35 dB flat noise floor of its own.  The health thresholds
    are out of reach, so every round polls every node at 2 kbps.
    Returns ``(reader, links)``.
    """
    from repro.acoustics import POOL_A, AmbientNoiseModel, Position
    from repro.core import BackscatterLink, Projector
    from repro.faults import EventLog
    from repro.net import HealthPolicy, ReaderController, RetryPolicy
    from repro.node import PABNode
    from repro.obs import MetricsRegistry
    from repro.piezo import Transducer

    transducer = Transducer.from_cylinder_design()
    f = transducer.resonance_hz
    links = {}
    for i in indices:
        addr = 0x10 + i
        rank, col = divmod(i, 70)
        links[addr] = BackscatterLink(
            POOL_A,
            Projector(transducer=transducer, drive_voltage_v=60.0, carrier_hz=f),
            Position(0.5, 1.5, 0.6),
            PABNode(address=addr, channel_frequencies_hz=(f,), bitrate=BITRATE),
            Position(
                0.8 + 0.04 * col,
                1.5 + 0.25 * (rank % 5),
                0.6 + 0.05 * (rank // 5),
            ),
            Position(1.0, 0.8, 0.6),
            noise=AmbientNoiseModel(
                spectrum="flat", flat_level_db=35.0, seed=1000 * seed + addr
            ),
            tracer=tracer,
        )
    reader = ReaderController(
        {addr: link.run_query for addr, link in links.items()},
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.0, jitter=0.0, seed=seed
        ),
        health_policy=HealthPolicy(
            degrade_after=10**6, quarantine_after=10**6 + 1
        ),
        log=EventLog(),
        metrics=MetricsRegistry(),
        parallel=mode,
    )
    return reader, links


def fleet_digest(reader, report) -> str:
    from repro.resilience import campaign_digest

    return campaign_digest(report, reader.log, reader.metrics)


def run_fleet(seed: int, spec: dict, *, check: bool, trace) -> dict:
    """Build the fleet, time its campaign, and optionally replay it."""
    t0 = time.perf_counter()
    from repro.net import Command
    from repro.obs import Tracer

    tracer = Tracer() if spec["traced"] else None
    reader, links = build_fleet_reader(
        spec["indices"], seed, spec["mode"], tracer=tracer
    )
    setup_s = time.perf_counter() - t0
    if trace is not None:
        trace.bind_links(links.values())
        if tracer is not None:
            trace.tracers.append(tracer)
    out = {"setup_s": setup_s}
    before = mac_totals(reader)
    time_first_round(reader, out)
    start = time.perf_counter()
    report = reader.run_campaign(Command.READ_PH, rounds=spec["rounds"])
    out["campaign_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = peak_rss_mb()
    out.update(campaign_counts(before, mac_totals(reader)))
    out["digest"] = fleet_digest(reader, report)
    if check:
        del reader, links, report, tracer
        gc.collect()
        ref_reader, _ = build_fleet_reader(spec["indices"], seed, spec["reference"])
        ref = fleet_digest(
            ref_reader,
            ref_reader.run_campaign(Command.READ_PH, rounds=spec["rounds"]),
        )
        out["check"] = {"ok": ref == out["digest"], "reference": ref}
    return out


# -- chaos ----------------------------------------------------------------------


def quiet_cli(argv) -> int:
    """``repro.cli.main(argv)`` with its report tables swallowed."""
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_chaos(seed: int, spec: dict, *, check: bool) -> dict:
    """Time ``repro fleet-report`` and optionally resume its last checkpoint.

    The CLI builds its own reader, so a wrapper on
    ``ReaderController.run_campaign`` brackets the campaign.
    """
    out: dict = {}
    bracket: dict = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        tmp = pathlib.Path(tmp)
        t0 = time.perf_counter()
        from repro.net import ReaderController
        from repro.resilience import latest_checkpoint

        inner = vars(ReaderController)["run_campaign"]

        def timed_campaign(reader, *args, **kwargs):
            bracket["before"] = mac_totals(reader)
            time_first_round(reader, out)
            bracket["entry"] = time.perf_counter()
            try:
                return inner(reader, *args, **kwargs)
            finally:
                bracket["exit"] = time.perf_counter()
                bracket["after"] = mac_totals(reader)

        ReaderController.run_campaign = timed_campaign
        try:
            code = quiet_cli([
                "fleet-report", "--nodes", str(spec["nodes"]),
                "--rounds", str(spec["rounds"]), "--seed", str(seed),
                "--checkpoint-every", str(spec["checkpoint_every"]),
                "--checkpoint-dir", str(tmp),
                "--stream-out", str(tmp / "stream.jsonl"),
                "--digest-out", str(tmp / "digest"),
            ])
        finally:
            ReaderController.run_campaign = inner
        if code != 0:
            raise RuntimeError(f"fleet-report exited {code}")
        out["peak_rss_mb"] = peak_rss_mb()
        out["setup_s"] = bracket["entry"] - t0
        out["campaign_s"] = bracket["exit"] - bracket["entry"]
        out.update(campaign_counts(bracket["before"], bracket["after"]))
        out["digest"] = (tmp / "digest").read_text().strip()
        checkpoints = sorted(tmp.glob("checkpoint-*.json"))
        sizes = [p.stat().st_size for p in checkpoints]
        out["files"] = {
            "obs.stream.bytes": (tmp / "stream.jsonl").stat().st_size,
            "resilience.checkpoint.bytes": sum(sizes),
            "resilience.checkpoint.max_bytes": max(sizes, default=0),
        }
        if check:
            latest = latest_checkpoint(tmp)
            code = quiet_cli([
                "resume", str(latest), "--digest-out", str(tmp / "resumed"),
            ])
            ref = (tmp / "resumed").read_text().strip() if code == 0 else None
            out["check"] = {"ok": ref == out["digest"], "reference": ref}
    return out


# -- entry point ----------------------------------------------------------------


def run(workload: str, seed: int, *, check: bool = False, trace=None,
        toy: bool = False) -> dict:
    """One repetition of ``workload``; the result dict ``run.py`` reads."""
    if workload == "chaos-telemetry":
        result = run_chaos(seed, TOY_CHAOS if toy else CHAOS, check=check)
    else:
        spec = dict(FLEETS[workload])
        if toy:
            spec.update(TOY_FLEETS[workload])
        result = run_fleet(seed, spec, check=check, trace=trace)
    result["workload"] = workload
    result["seed"] = seed
    if check:
        result["check"]["what"] = CHECKS[workload]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--check", action="store_true",
                        help="also prove the campaign's outputs correct")
    parser.add_argument("--trace", action="store_true",
                        help="run under the layer trace; report layers")
    parser.add_argument("--out", help="append the trace's spans to this JSONL file")
    parser.add_argument("--toy", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    # Loaded before the set-up clock starts: setup_s covers repro only.
    import numpy  # noqa: F401
    import scipy.fft  # noqa: F401
    import scipy.signal  # noqa: F401

    trace = None
    if args.trace:
        from layers import LayerTrace

        trace = LayerTrace()
        trace.install()
        trace.begin_setup()
    try:
        result = run(args.workload, args.seed, check=args.check,
                     trace=trace, toy=args.toy)
        if trace is not None:
            extra = result.pop("files", {})
            extra["net.mac.attempts"] = result["attempts"]
            extra["net.mac.retries"] = result["retries"]
            result["layers"] = trace.metrics(extra)
            if args.out:
                trace.write_spans(args.out, args.workload)
    finally:
        if trace is not None:
            trace.restore()
    result.pop("files", None)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
