#!/usr/bin/env python3
"""Campaign benchmark: four digest-checked workloads, layer trace on demand.

Run from the repository root::

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload cached-fleet --seed 7 --seconds 15
    python3 bench/run.py --trace 1 --out spans.jsonl

Every repetition of a workload runs in a fresh Python process
(``bench/workloads.py``).  Repetitions continue until their set-up and
campaign time add up to ``--seconds``; each end-to-end metric is the
median over them.  The first repetition also proves the campaign's
outputs correct (``bench/workloads.py`` names each check), and every
repetition must reproduce its digest.  ``--trace 1`` follows each
repetition with a traced one and reports per-layer metrics instead.

The last stdout line of a single-workload run is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("exchanges_per_s", "1/s"),
    ("first_round_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: No new repetition starts once a run has spent this long, so that a
#: whole run stays well inside 180 s.
WALL_CAP_S = 110.0
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A workload process exited non-zero or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def run_child(workload: str, seed: int, *, check=False, trace=False,
              out=None, toy=False) -> dict:
    """One repetition in a fresh process; returns its result dict."""
    cmd = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if check:
        cmd.append("--check")
    if trace:
        cmd.append("--trace")
    if out:
        cmd += ["--out", str(out)]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildFailed(f"{workload}: exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, *, toy=False,
            trace=False, out=None) -> tuple[list, list]:
    """Repetitions until their measured time reaches ``seconds``.

    With ``trace`` a traced repetition follows each untraced one, so the
    two kinds sample the same stretch of machine time and their medians
    give the tracing overhead.  Only the first traced repetition writes
    its spans to ``out``.  Returns ``(untraced, traced)``.
    """
    started = time.monotonic()
    reps: list = []
    traced: list = []
    measured = 0.0
    while not reps or (
        measured < seconds and time.monotonic() - started < WALL_CAP_S
    ):
        rep = run_child(workload, seed, check=not reps, toy=toy)
        reps.append(rep)
        measured += rep["setup_s"] + rep["campaign_s"]
        if trace:
            traced.append(run_child(workload, seed, trace=True, toy=toy,
                                    out=None if traced else out))
    return reps, traced


def summarize(workload: str, reps: list, traced: list = ()) -> dict:
    """End-to-end medians, correctness and (optionally) layer metrics.

    ``ops`` counts the distinct polls of one campaign and ``errors`` the
    polls that returned no reading; a failed check makes every op an
    error.  ``attempted``/``failed`` count over all measured repetitions:
    a poll fails when the campaign's outputs are wrong, not when the
    simulated channel loses it.  The per-layer metrics come from the
    first traced repetition; ``bench.trace_overhead`` compares the
    traced and untraced medians.
    """
    check = reps[0]["check"]
    digests = {rep["digest"] for rep in [*reps, *traced]}
    problems = []
    if not check["ok"]:
        problems.append(f"check failed: {check['what']} "
                        f"(got {check['reference']})")
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {sorted(digests)}")
    correct = not problems
    ops = reps[0]["ops"]
    attempted = sum(rep["ops"] for rep in reps)
    metrics = {
        "exchanges_per_s": statistics.median(
            rep["attempts"] / rep["campaign_s"] for rep in reps
        ),
        "first_round_s": statistics.median(rep["first_round_s"] for rep in reps),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    summary = {
        "workload": workload,
        "seed": reps[0]["seed"],
        "reps": len(reps),
        "correct": correct,
        "problems": problems,
        "ops": ops,
        "errors": reps[0]["errors"] if correct else ops,
        "digest": reps[0]["digest"],
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
        "campaign_s": [rep["campaign_s"] for rep in reps],
    }
    if traced:
        layers = dict(traced[0]["layers"])
        layers["bench.trace_overhead"] = statistics.median(
            t["layers"]["bench.campaign_s"] for t in traced
        ) / statistics.median(rep["campaign_s"] for rep in reps) - 1.0
        summary["layers"] = layers
    return summary


def recorded_digest(workload: str, seed: int) -> str | None:
    """The digest ``bench/baseline.json`` records for this seed, if any."""
    try:
        baseline = json.loads((BENCH / "baseline.json").read_text())
    except (OSError, ValueError):
        return None
    if baseline.get("seed") != seed:
        return None
    return baseline.get("digests", {}).get(workload)


def print_report(summary: dict) -> None:
    w = summary["workload"]
    print(f"== {w} (seed {summary['seed']}, repetitions {summary['reps']})")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {summary['metrics'][name]:>12.4f} {unit}")
    reps = " ".join(f"{t:.3f}" for t in summary["campaign_s"])
    print(f"  campaign_s per repetition: {reps}")
    print(f"  ops {summary['ops']}  errors {summary['errors']}")
    recorded = recorded_digest(w, summary["seed"])
    note = (
        "no digest recorded for this seed" if recorded is None
        else "matches the recorded digest" if recorded == summary["digest"]
        else f"DIFFERS from the recorded digest {recorded}"
    )
    print(f"  digest {summary['digest']} ({note})")
    if summary["correct"]:
        print("  correctness: ok")
    for problem in summary["problems"]:
        print(f"  correctness: FAIL: {problem}")
    if "layers" in summary:
        print("  per-layer:")
        for name, unit, _better in PER_LAYER:
            value = summary["layers"][name]
            print(f"    {name:<42} {value:>14.6g} {unit}")


def result_line(summary: dict, trace: bool) -> str:
    if trace:
        units = {name: unit for name, unit, _better in PER_LAYER}
        values = summary["layers"]
    else:
        units = dict(END_TO_END)
        values = summary["metrics"]
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    })


def bench_workload(workload: str, args) -> dict:
    reps, traced = measure(workload, args.seed, args.seconds, toy=args.toy,
                           trace=bool(args.trace), out=args.out)
    summary = summarize(workload, reps, traced)
    if args.out and traced:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({
                "kind": "layers", "workload": workload,
                "metrics": summary["layers"],
            }) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced repetitions, report per-layer metrics")
    parser.add_argument("--out", help="write the traced spans here as JSONL")
    parser.add_argument("--toy", action="store_true",
                        help="tiny campaigns for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = declared["run_seconds"]
    if args.out:
        args.out = str(pathlib.Path(args.out).resolve())
        open(args.out, "w").close()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    summaries = []
    for workload in workloads:
        try:
            summary = bench_workload(workload, args)
        except ChildFailed as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print_report(summary)
        summaries.append(summary)
    if args.workload:
        print(result_line(summaries[0], bool(args.trace)))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
