#!/usr/bin/env python
"""Commit-check for ``benchmarks/results/bench_trend.csv``.

The trend file is append-only: ``repro bench --trend-out`` refuses to
append under a stale header, so a row that reaches the repository must
match the canonical column layout exactly.  This validator is the CI
(lint job) end of that contract — it fails when:

* the header is not the canonical layout (columns renamed, reordered,
  or dropped — e.g. a row written by a pre-batch-engine checkout);
* a row has the wrong field count or a non-numeric field;
* the ``smoke`` column is not 0/1;
* a header line reappears mid-file (two files concatenated).

Usage: ``python scripts/validate_bench_trend.py [path]`` (defaults to
the committed trend file; exits non-zero with one line per problem).
"""

from __future__ import annotations

import pathlib
import sys

CANONICAL_HEADER = (
    "smoke,nodes,rounds,seed,sequential_s,cached_s,"
    "batch_s,speedup_cached,speedup_batch,"
    "frac_pwm_synthesis,frac_downlink_propagation,frac_node,"
    "frac_uplink_propagation,frac_hydrophone_dsp"
)

DEFAULT_PATH = pathlib.Path("benchmarks/results/bench_trend.csv")


def validate(path: pathlib.Path) -> list[str]:
    """All layout problems in ``path`` (empty list = valid)."""
    if not path.exists():
        return [f"{path}: missing"]
    text = path.read_text()
    if not text.endswith("\n"):
        return [f"{path}: missing trailing newline"]
    lines = text.splitlines()
    if not lines:
        return [f"{path}: empty"]
    problems = []
    if lines[0] != CANONICAL_HEADER:
        problems.append(
            f"{path}:1: header does not match the canonical layout "
            f"(got {lines[0]!r})"
        )
        return problems
    width = len(CANONICAL_HEADER.split(","))
    for lineno, line in enumerate(lines[1:], start=2):
        if line == CANONICAL_HEADER:
            problems.append(f"{path}:{lineno}: duplicate header row")
            continue
        fields = line.split(",")
        if len(fields) != width:
            problems.append(
                f"{path}:{lineno}: {len(fields)} fields (expected {width})"
            )
            continue
        for col, value in zip(CANONICAL_HEADER.split(","), fields):
            try:
                number = float(value)
            except ValueError:
                problems.append(
                    f"{path}:{lineno}: column {col} is not numeric "
                    f"({value!r})"
                )
                break
            if col == "smoke" and number not in (0.0, 1.0):
                problems.append(
                    f"{path}:{lineno}: smoke must be 0 or 1 (got {value})"
                )
                break
    return problems


def main(argv: list[str]) -> int:
    path = pathlib.Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    problems = validate(path)
    for problem in problems:
        print(problem)
    if not problems:
        rows = len(path.read_text().splitlines()) - 1
        print(f"{path}: OK ({rows} rows, canonical header)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
