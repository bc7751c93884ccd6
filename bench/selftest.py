#!/usr/bin/env python3
"""Self-test of the campaign benchmark at toy sizes (about 20 s).

Run from the repository root::

    python3 bench/selftest.py

It runs every workload with tiny campaigns (3 nodes x 3 rounds; chaos
8 nodes x 30 rounds, checkpointing every 10) through the untraced and
traced passes and checks that:

* the metric names and units printed match ``BENCHMARK.json``;
* the layer self-times plus ``bench.unattributed_s`` add up to the
  traced campaign time (within 2%);
* a forced digest mismatch counts every op as an error, marks every
  attempted op failed and makes the run exit non-zero;
* the benchmark refuses to run, printing no result, in a directory
  that holds only ``BENCHMARK.json`` and ``bench/``;
* no temporary directory is left behind.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run
from layers import PER_LAYER, ROOT_SPAN, SELF_TIME

ROOT = run.ROOT


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAIL: {message}")


def leftover_tmp() -> list:
    return sorted(p.name for p in ROOT.glob(".bench_tmp-*"))


def check_names(summary: dict, declared: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.result_line(summary, trace))
        check(set(line) == {"correct", "attempted", "failed", "metrics"},
              f"result keys {sorted(line)}")
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared[key]}
        check(got == want, f"{summary['workload']} {key} names/units differ: "
                           f"{sorted(set(got) ^ set(want))}")


def check_partition(summary: dict) -> None:
    layers = summary["layers"]
    total = sum(layers[name] for name in SELF_TIME) + layers[ROOT_SPAN]
    campaign = layers["bench.campaign_s"]
    check(abs(total - campaign) <= 0.02 * campaign,
          f"{summary['workload']}: self-times sum to {total}, campaign {campaign}")


def check_forced_mismatch(rep: dict) -> None:
    bad = json.loads(json.dumps(rep))
    bad["check"]["ok"] = False
    summary = run.summarize(bad["workload"], [bad])
    check(summary["errors"] == summary["ops"], "mismatch: errors != ops")
    check(summary["failed"] == summary["attempted"], "mismatch: failed != attempted")
    measure = run.measure
    run.measure = lambda *a, **k: ([bad], [])
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", bad["workload"], "--seed", str(bad["seed"]),
                             "--seconds", "0", "--toy"])
    finally:
        run.measure = measure
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code != 0, "mismatch: exit code 0")
    check(not result["correct"] and result["failed"] == result["attempted"],
          f"mismatch: result line {result}")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-bare-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", f"{bare}/bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cached-fleet",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0, "bare directory: exit code 0")
    check("{" not in proc.stdout, f"bare directory printed {proc.stdout!r}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
          "workload names differ from BENCHMARK.json")
    check([(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
          == list(PER_LAYER), "per_layer list differs from bench/layers.py")
    before = leftover_tmp()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-selftest-", dir=ROOT) as tmp:
        out = f"{tmp}/spans.jsonl"
        args = argparse.Namespace(seed=2019, seconds=0.0, trace=1, out=out, toy=True)
        first_rep = None
        for workload in run.WORKLOADS:
            summary = run.bench_workload(workload, args)
            check(summary["correct"], f"{workload}: {summary['problems']}")
            check_names(summary, declared)
            check_partition(summary)
            print(f"selftest: {workload} ok ({summary['ops']} ops, "
                  f"digest {summary['digest'][:12]})")
            if first_rep is None:
                first_rep = run.measure(workload, 2019, 0.0, toy=True)[0][0]
        with open(out) as fh:
            kinds = {json.loads(line)["kind"] for line in fh}
        check(kinds == {"span", "layers"}, f"--out holds {kinds}")
    check_forced_mismatch(first_rep)
    print("selftest: forced digest mismatch ok")
    check_refuses_without_program()
    print("selftest: refuses to run without the program ok")
    check(leftover_tmp() == before, f"temporary directories left: {leftover_tmp()}")
    print("selftest: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
