"""Campaign diff engine: align two campaign artifacts, attribute drift.

The observability stack can already *record* a campaign three ways —
a schema-1 JSONL telemetry stream, a fleet-report JSON document, and
``BENCH_perf.json`` record files — but comparing two campaigns meant
eyeballing byte digests.  This module loads any two artifacts of the
same kind, aligns them round-by-round and stage-by-stage, and
produces a structured drift report that *attributes* deltas:

* to a **node** (per-node delivery-ratio deltas),
* to a **failure-taxonomy class** (fault-injector and post-mortem
  counts; each class carries its failing stage via
  :data:`repro.faults.injectors.FAULT_FAILING_STAGES`),
* to a **stage** (the stage fractions of two bench records),
* and to an **energy bucket** (final SoC classified against the
  supercap hysteresis thresholds).

The report is a JSON-ready dict with every float rounded to six
decimals and every mapping key stringified, so
:func:`drift_to_json` renders byte-identical output for identical
inputs — the property the CI drift gate's determinism check relies
on.  Thresholded gating (:class:`DiffThresholds`,
:func:`diff_campaigns` ``gate`` section) turns the report into a CI
verdict: ``repro diff A B --gate`` exits nonzero iff ``drifted``.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import asdict, dataclass

from repro.obs.stream import StreamAggregator

__all__ = [
    "SCHEMA_VERSION",
    "DiffThresholds",
    "load_artifact",
    "diff_campaigns",
    "drift_to_json",
    "render_drift",
]

#: Version of the drift-report document schema.
SCHEMA_VERSION = 1


def _round6(value) -> float:
    return round(float(value), 6)


def _finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class DiffThresholds:
    """Gate thresholds for :func:`diff_campaigns`.

    Defaults are deliberately loose enough that re-running a seeded
    campaign bit-for-bit passes with zero margin consumed, and tight
    enough that a single misbehaving node in a small fleet trips the
    gate.
    """

    delivery_ratio: float = 0.02      # fleet delivery-ratio drift
    node_delivery_ratio: float = 0.10  # any single node's drift
    stage_fraction: float = 0.10      # bench stage-share drift
    taxonomy_count: int = 5           # fault/postmortem count drift
    soc_v: float = 0.15               # any node's final SoC drift
    burn_rate: float = 1.0            # any objective's burn drift
    anomaly_count: int = 5            # detector-hit count drift
    #: Supercap hysteresis bounds used for energy-bucket classification
    #: (charged ≥ ``soc_charged_v`` > marginal ≥ ``soc_brownout_v`` >
    #: browned_out).
    soc_charged_v: float = 2.5
    soc_brownout_v: float = 2.1


#: Energy buckets, healthiest first (ordering used by reports/tables).
ENERGY_BUCKETS = ("charged", "marginal", "browned_out")


def _energy_bucket(soc_v: float, thresholds: DiffThresholds) -> str:
    if soc_v >= thresholds.soc_charged_v:
        return "charged"
    if soc_v >= thresholds.soc_brownout_v:
        return "marginal"
    return "browned_out"


def _fault_stage(name: str) -> str:
    from repro.faults.injectors import FAULT_FAILING_STAGES

    return FAULT_FAILING_STAGES.get(name, "unknown")


# -- artifact loading ---------------------------------------------------------------------


def load_artifact(path) -> dict:
    """Load one campaign artifact into a comparable summary dict.

    Sniffing order: a whole-file JSON dict with ``records`` is a
    BENCH document (the last record is summarized); one with
    ``network``/``nodes`` is a fleet report; anything else is fed
    line-by-line as a schema-1 JSONL stream.  Raises ``ValueError``
    for files that are none of the three.
    """
    path = pathlib.Path(path)
    text = path.read_text()
    if not text.strip():
        raise ValueError(f"{path}: empty artifact")
    doc = None
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "records" in doc:
        return _summarize_bench(doc, path)
    if isinstance(doc, dict) and ("network" in doc or "nodes" in doc):
        return _summarize_report(doc, path)
    agg = StreamAggregator()
    try:
        agg.feed_file(path)
    except ValueError as exc:
        raise ValueError(f"{path}: not a campaign artifact ({exc})") from exc
    if agg.segments == 0 and not agg.rounds_observed():
        raise ValueError(f"{path}: no stream events found")
    return _summarize_stream(agg, path)


def _summarize_stream(agg: StreamAggregator, path) -> dict:
    """Reduce an aggregated stream to the comparable summary shape."""
    per_node: dict = {}     # addr -> [delivered, polled]
    round_delivery: dict = {}
    soc_final: dict = {}
    soc_min: dict = {}
    for rec in agg.round_log:
        rnd = int(rec["t"])
        polled = delivered = 0
        for addr in sorted(rec["outcomes"]):
            info = rec["outcomes"][addr]
            if info.get("polled"):
                polled += 1
                node = per_node.setdefault(addr, [0, 0])
                node[1] += 1
                if info.get("delivered"):
                    delivered += 1
                    node[0] += 1
            soc = info.get("soc_v")
            if soc is not None:
                soc_final[addr] = float(soc)
                soc_min[addr] = min(soc_min.get(addr, float(soc)), float(soc))
        if polled:
            round_delivery[rnd] = delivered / polled
    faults: dict = {}
    fault_nodes: dict = {}
    for event in agg.event_log().events:
        if str(event.kind) != "fault":
            continue
        detail = dict(event.detail)
        name = str(detail.get("injector", "unknown"))
        faults[name] = faults.get(name, 0) + 1
        per = fault_nodes.setdefault(name, {})
        per[int(event.node)] = per.get(int(event.node), 0) + 1
    failures: dict = {}
    for pm in agg.postmortems:
        cls = str(pm.get("failure", "unknown"))
        failures[cls] = failures.get(cls, 0) + 1
    delivered = sum(v[0] for v in per_node.values())
    polled = sum(v[1] for v in per_node.values())
    return {
        "kind": "stream",
        "path": str(path),
        "rounds": agg.rounds_observed(),
        "delivery_ratio": (delivered / polled) if polled else None,
        "per_node_delivery": {
            str(a): (v[0] / v[1]) if v[1] else 0.0
            for a, v in sorted(per_node.items())
        },
        "round_delivery": {str(r): v for r, v in sorted(round_delivery.items())},
        "faults": dict(sorted(faults.items())),
        "fault_nodes": {
            name: {str(a): n for a, n in sorted(per.items())}
            for name, per in sorted(fault_nodes.items())
        },
        "failures": dict(sorted(failures.items())),
        "soc_final": {str(a): v for a, v in sorted(soc_final.items())},
        "soc_min": {str(a): v for a, v in sorted(soc_min.items())},
        "burn": {
            k: v for k, v in sorted(agg.final_burn().items()) if _finite(v)
        },
        "stage_fractions": {},
        "anomalies": dict(sorted(agg.anomaly_counts().items())),
    }


def _summarize_report(doc: dict, path) -> dict:
    """Summary for a fleet-report JSON document (``repro fleet-report
    --report-out``): aggregate comparison only, no round alignment."""
    nodes = doc.get("nodes", {})
    soc_final = {}
    for addr, summary in (doc.get("energy") or {}).items():
        soc = summary.get("soc_v", summary.get("final_soc_v"))
        if soc is not None:
            soc_final[str(addr)] = float(soc)
    burn = {}
    for objective, entry in (doc.get("slo") or {}).items():
        if isinstance(entry, dict) and _finite(entry.get("burn_rate")):
            burn[str(objective)] = float(entry["burn_rate"])
    return {
        "kind": "report",
        "path": str(path),
        "rounds": int(doc.get("rounds", 0)),
        "delivery_ratio": (doc.get("network") or {}).get("delivery_ratio"),
        "per_node_delivery": {
            str(a): float(info.get("delivery_ratio", 0.0))
            for a, info in sorted(nodes.items(), key=lambda kv: int(kv[0]))
        },
        "round_delivery": {},
        "faults": {},
        "fault_nodes": {},
        "failures": {},
        "soc_final": soc_final,
        "soc_min": {},
        "burn": burn,
        "stage_fractions": {},
        "anomalies": {},
    }


def _summarize_bench(doc: dict, path) -> dict:
    """Summary for a BENCH record document (last record)."""
    records = doc.get("records") or []
    if not records:
        raise ValueError(f"{path}: record document has no records")
    record = records[-1]
    fractions = {
        name: float(entry.get("fraction", 0.0))
        for name, entry in sorted((record.get("stages") or {}).items())
    }
    return {
        "kind": "bench",
        "path": str(path),
        "rounds": int(record.get("rounds", 0)),
        "delivery_ratio": record.get("delivery_ratio"),
        "per_node_delivery": {},
        "round_delivery": {},
        "faults": {},
        "fault_nodes": {},
        "failures": {},
        "soc_final": {},
        "soc_min": {},
        "burn": {},
        "stage_fractions": fractions,
        "anomalies": {},
    }


# -- diffing ------------------------------------------------------------------------------


def _delta_map(a: dict, b: dict) -> dict:
    """``{key: {a, b, delta}}`` over the union of two numeric maps.

    A key absent on one side contributes 0 to the delta but keeps
    ``None`` in its slot, so "missing" and "zero" stay
    distinguishable in the report.
    """
    out = {}
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if not (_finite(va) or _finite(vb)):
            continue
        fa = float(va) if _finite(va) else 0.0
        fb = float(vb) if _finite(vb) else 0.0
        out[str(key)] = {
            "a": _round6(va) if _finite(va) else None,
            "b": _round6(vb) if _finite(vb) else None,
            "delta": _round6(fb - fa),
        }
    return out


def _bucket_counts(soc_final: dict, thresholds: DiffThresholds) -> dict:
    counts = {bucket: 0 for bucket in ENERGY_BUCKETS}
    for soc in soc_final.values():
        counts[_energy_bucket(float(soc), thresholds)] += 1
    return counts


def _round_divergence(a: dict, b: dict, tolerance: float = 1e-9) -> dict:
    """Round-by-round alignment of two per-round delivery maps."""
    rounds = sorted(set(a) | set(b), key=int)
    diverged = []
    for rnd in rounds:
        va, vb = a.get(rnd), b.get(rnd)
        if va is None or vb is None or abs(float(va) - float(vb)) > tolerance:
            diverged.append(int(rnd))
    return {
        "count": len(diverged),
        "first": diverged[0] if diverged else -1,
        "last": diverged[-1] if diverged else -1,
    }


def diff_campaigns(a_path, b_path, *, thresholds: DiffThresholds | None = None) -> dict:
    """Diff two campaign artifacts; returns the drift-report dict.

    Both artifacts must summarize to the same kind (stream vs stream,
    report vs report, bench vs bench) — cross-kind comparisons would
    silently compare incommensurable numbers, so they raise.
    """
    thresholds = thresholds if thresholds is not None else DiffThresholds()
    a = load_artifact(a_path)
    b = load_artifact(b_path)
    if a["kind"] != b["kind"]:
        raise ValueError(
            f"cannot diff {a['kind']} artifact against {b['kind']} artifact"
        )

    taxonomy = {}
    for cls, entry in _delta_map(a["faults"], b["faults"]).items():
        taxonomy[cls] = {**entry, "stage": _fault_stage(cls)}
    deltas = {
        "delivery_ratio": _delta_map(
            {"fleet": a["delivery_ratio"]}, {"fleet": b["delivery_ratio"]}
        ).get("fleet"),
        "per_node_delivery": _delta_map(
            a["per_node_delivery"], b["per_node_delivery"]
        ),
        "taxonomy": taxonomy,
        "failures": _delta_map(a["failures"], b["failures"]),
        "stage_fractions": _delta_map(
            a["stage_fractions"], b["stage_fractions"]
        ),
        "soc_final": _delta_map(a["soc_final"], b["soc_final"]),
        "energy_buckets": _delta_map(
            _bucket_counts(a["soc_final"], thresholds),
            _bucket_counts(b["soc_final"], thresholds),
        ),
        "burn": _delta_map(a["burn"], b["burn"]),
        "anomalies": _delta_map(a["anomalies"], b["anomalies"]),
    }
    report = {
        "schema": SCHEMA_VERSION,
        "kind": a["kind"],
        "a": {"path": a["path"], "rounds": a["rounds"]},
        "b": {"path": b["path"], "rounds": b["rounds"]},
        "deltas": deltas,
        "rounds_diverged": _round_divergence(
            a["round_delivery"], b["round_delivery"]
        ),
        "attribution": _attribute(a, b, deltas),
    }
    report["gate"] = _gate(report, thresholds)
    return report


def _attribute(a: dict, b: dict, deltas: dict) -> list:
    """Ranked drift attribution: taxonomy class, then nodes, then stage.

    Entries are ordered most-suspect first; ties break
    lexicographically so the report is deterministic.
    """
    out = []
    taxonomy = deltas["taxonomy"]
    top_class = None
    if taxonomy:
        top_class = max(
            sorted(taxonomy),
            key=lambda cls: abs(taxonomy[cls]["delta"]),
        )
        if taxonomy[top_class]["delta"] == 0:
            top_class = None
    if top_class is not None:
        out.append({
            "kind": "taxonomy",
            "target": top_class,
            "delta": taxonomy[top_class]["delta"],
            "stage": taxonomy[top_class]["stage"],
        })
    per_node = deltas["per_node_delivery"]
    suspects = sorted(
        (node for node in per_node if per_node[node]["delta"] != 0),
        key=lambda node: (-abs(per_node[node]["delta"]), int(node)),
    )
    for node in suspects[:5]:
        # The node's dominant taxonomy-count change names the class
        # (and therefore the stage) behind its delivery delta.
        node_class = None
        best = 0
        for cls in sorted(set(a["fault_nodes"]) | set(b["fault_nodes"])):
            delta = abs(
                b["fault_nodes"].get(cls, {}).get(node, 0)
                - a["fault_nodes"].get(cls, {}).get(node, 0)
            )
            if delta > best:
                best = delta
                node_class = cls
        entry = {
            "kind": "node",
            "target": f"node {node}",
            "delta": per_node[node]["delta"],
        }
        if node_class is not None:
            entry["taxonomy"] = node_class
            entry["stage"] = _fault_stage(node_class)
        out.append(entry)
    fractions = deltas["stage_fractions"]
    if fractions:
        hot = max(
            sorted(fractions), key=lambda s: abs(fractions[s]["delta"])
        )
        if fractions[hot]["delta"] != 0:
            out.append({
                "kind": "stage",
                "target": hot,
                "delta": fractions[hot]["delta"],
            })
    return out


def _gate(report: dict, thresholds: DiffThresholds) -> dict:
    """Apply thresholds; returns the ``gate`` section of the report."""
    deltas = report["deltas"]
    failures = []
    if report["a"]["rounds"] != report["b"]["rounds"]:
        failures.append(
            f"round count differs: {report['a']['rounds']} vs "
            f"{report['b']['rounds']}"
        )
    fleet = deltas["delivery_ratio"]
    if fleet is not None and abs(fleet["delta"]) > thresholds.delivery_ratio:
        failures.append(
            f"fleet delivery ratio drifted {fleet['delta']:+.4f} "
            f"(threshold {thresholds.delivery_ratio})"
        )
    for node, entry in deltas["per_node_delivery"].items():
        if abs(entry["delta"]) > thresholds.node_delivery_ratio:
            failures.append(
                f"node {node} delivery drifted {entry['delta']:+.4f} "
                f"(threshold {thresholds.node_delivery_ratio})"
            )
    for cls, entry in deltas["taxonomy"].items():
        if abs(entry["delta"]) >= thresholds.taxonomy_count:
            failures.append(
                f"taxonomy class {cls} ({entry['stage']}) drifted "
                f"{entry['delta']:+.0f} events "
                f"(threshold {thresholds.taxonomy_count})"
            )
    for cls, entry in deltas["failures"].items():
        if abs(entry["delta"]) >= thresholds.taxonomy_count:
            failures.append(
                f"failure class {cls} drifted {entry['delta']:+.0f} "
                f"post-mortems (threshold {thresholds.taxonomy_count})"
            )
    for stage, entry in deltas["stage_fractions"].items():
        if abs(entry["delta"]) > thresholds.stage_fraction:
            failures.append(
                f"stage {stage} fraction drifted {entry['delta']:+.4f} "
                f"(threshold {thresholds.stage_fraction})"
            )
    for node, entry in deltas["soc_final"].items():
        if abs(entry["delta"]) > thresholds.soc_v:
            failures.append(
                f"node {node} final SoC drifted {entry['delta']:+.3f} V "
                f"(threshold {thresholds.soc_v})"
            )
    for objective, entry in deltas["burn"].items():
        if abs(entry["delta"]) > thresholds.burn_rate:
            failures.append(
                f"SLO {objective} burn rate drifted {entry['delta']:+.2f} "
                f"(threshold {thresholds.burn_rate})"
            )
    anomaly_delta = sum(
        entry["delta"] for entry in deltas["anomalies"].values()
    )
    if abs(anomaly_delta) >= thresholds.anomaly_count:
        failures.append(
            f"anomaly count drifted {anomaly_delta:+.0f} "
            f"(threshold {thresholds.anomaly_count})"
        )
    return {
        "thresholds": {
            k: v for k, v in sorted(asdict(thresholds).items())
        },
        "failures": failures,
        "drifted": bool(failures),
    }


# -- rendering ----------------------------------------------------------------------------


def drift_to_json(report: dict) -> str:
    """Canonical (byte-stable) JSON rendering of a drift report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_drift(report: dict) -> str:
    """Human-readable multi-table rendering for the CLI."""
    lines = []
    a, b = report["a"], report["b"]
    lines.append(
        f"campaign diff ({report['kind']}): A={a['path']} ({a['rounds']} "
        f"rounds)  B={b['path']} ({b['rounds']} rounds)"
    )
    deltas = report["deltas"]
    fleet = deltas["delivery_ratio"]
    if fleet is not None:
        lines.append(
            f"fleet delivery: {_cell(fleet['a'])} -> {_cell(fleet['b'])} "
            f"(delta {fleet['delta']:+.4f})"
        )
    diverged = report["rounds_diverged"]
    if diverged["count"]:
        lines.append(
            f"rounds diverged: {diverged['count']} "
            f"(first {diverged['first']}, last {diverged['last']})"
        )
    for title, key, fmt in (
        ("per-node delivery", "per_node_delivery", "+.4f"),
        ("failure taxonomy", "taxonomy", "+.0f"),
        ("post-mortem classes", "failures", "+.0f"),
        ("stage fractions", "stage_fractions", "+.4f"),
        ("final SoC (V)", "soc_final", "+.3f"),
        ("energy buckets", "energy_buckets", "+.0f"),
        ("SLO burn", "burn", "+.2f"),
        ("anomalies", "anomalies", "+.0f"),
    ):
        table = {
            k: v for k, v in deltas[key].items() if v["delta"] != 0
        }
        if not table:
            continue
        lines.append(f"-- {title} --")
        for k in sorted(table, key=lambda key: (-abs(table[key]["delta"]), key)):
            entry = table[k]
            stage = f"  [{entry['stage']}]" if "stage" in entry else ""
            lines.append(
                f"  {k:<28s} {_cell(entry['a']):>10s} -> "
                f"{_cell(entry['b']):>10s}  "
                f"delta {format(entry['delta'], fmt)}{stage}"
            )
    if report["attribution"]:
        lines.append("-- attribution (most suspect first) --")
        for i, entry in enumerate(report["attribution"], start=1):
            extra = ""
            if "taxonomy" in entry:
                extra = f"  via {entry['taxonomy']}"
            if "stage" in entry:
                extra += f" @ {entry['stage']}"
            lines.append(
                f"  {i}. {entry['kind']:<9s} {entry['target']:<24s} "
                f"delta {entry['delta']:+g}{extra}"
            )
    gate = report["gate"]
    if gate["failures"]:
        lines.append("-- gate: DRIFTED --")
        for failure in gate["failures"]:
            lines.append(f"  FAIL {failure}")
    else:
        lines.append("gate: clean (no thresholded drift)")
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4f}" if isinstance(value, float) else str(value)
