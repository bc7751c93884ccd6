"""Online anomaly detection over campaign telemetry series.

The other observability layers record everything — streams, SLO burn,
energy ledgers — but nothing *watches* those series for drift while a
campaign runs.  This module adds that layer: small, purely
arithmetic online detectors that the reader feeds once per round
(after the round's polls) and that emit schema-1
``anomaly`` envelopes plus ``pab_anomaly_*`` metrics when a watched
series departs from its learned baseline.

Two detector families, both deterministic (no wall clock, no RNG —
their state is a pure function of the observed value sequence, so
sequential, batched, and kill+resume campaigns flag byte-identical
anomaly sequences):

* :class:`EwmaDetector` — exponentially weighted mean/variance with a
  z-score trigger.  The baseline *adapts*, so it flags the onset of a
  shift and, once it has absorbed the new level, the recovery too.
* :class:`CusumDetector` — a standardized two-sided CUSUM against a
  baseline frozen after warm-up.  Slow drifts that never produce a
  single outlying round accumulate until the decision threshold trips.

:class:`AnomalyMonitor` multiplexes detectors over the per-round
series the reader already produces: fleet delivery ratio, per-node
delivery, per-node SoC, per-objective SLO burn rate, and round-mean
link SNR/BER (from the metrics registry's histograms).

Everything is opt-in: a reader constructed without a monitor pays one
``is None`` check per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.state import Stateful

__all__ = [
    "EwmaDetector",
    "CusumDetector",
    "AnomalyMonitor",
    "publish_anomalies",
    "SEVERITIES",
]

#: Severity ladder for anomaly envelopes, least severe first.
SEVERITIES = ("warn", "critical")


def _round6(value: float) -> float:
    """Stable 6-decimal rounding for envelope payload floats."""
    return round(float(value), 6)


@dataclass
class EwmaDetector(Stateful):
    """EWMA mean/variance with a z-score trigger.

    After ``warmup`` observations, a value whose distance from the
    EWMA mean exceeds ``threshold`` standard deviations is flagged;
    the baseline then keeps adapting, so a sustained shift is flagged
    at its onset and again (in the other direction) when it recovers.
    ``min_std``/``rel_floor`` put a floor under sigma so a series that
    has been perfectly constant (variance zero) still yields finite
    z-scores instead of dividing by zero.
    """

    alpha: float = 0.25
    threshold: float = 4.0
    warmup: int = 8
    min_std: float = 1e-3
    rel_floor: float = 0.02
    n: int = 0
    mean: float = 0.0
    var: float = 0.0

    name = "ewma"
    __state__ = ("n", "mean", "var")

    def observe(self, value: float):
        """Feed one sample; returns a detection dict or ``None``."""
        x = float(value)
        detection = None
        if self.n >= self.warmup:
            sigma = max(
                math.sqrt(max(self.var, 0.0)),
                self.min_std,
                self.rel_floor * abs(self.mean),
            )
            score = abs(x - self.mean) / sigma
            if score >= self.threshold:
                detection = {
                    "detector": self.name,
                    "value": x,
                    "expected": self.mean,
                    "deviation": x - self.mean,
                    "score": score,
                    "threshold": self.threshold,
                }
        if self.n == 0:
            self.mean = x
        else:
            delta = x - self.mean
            self.mean += self.alpha * delta
            self.var = (1.0 - self.alpha) * (
                self.var + self.alpha * delta * delta
            )
        self.n += 1
        return detection


@dataclass
class CusumDetector(Stateful):
    """Two-sided standardized CUSUM against a frozen baseline.

    The first ``warmup`` observations estimate the baseline mean and
    variance (Welford); the baseline is then frozen and each further
    sample's z-score feeds the classic one-sided sums ``s+`` and
    ``s-`` with slack ``drift``.  Crossing ``threshold`` flags a
    detection and *disarms* the detector until the statistic decays
    back below the threshold, so a persistent shift yields exactly one
    detection per excursion instead of one per round (the sums are
    clamped at twice the threshold so recovery decay stays prompt).
    """

    drift: float = 0.5
    threshold: float = 5.0
    warmup: int = 8
    min_std: float = 1e-3
    rel_floor: float = 0.02
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    pos: float = 0.0
    neg: float = 0.0
    armed: bool = True

    name = "cusum"
    __state__ = ("n", "mean", "m2", "pos", "neg", "armed")

    def observe(self, value: float):
        """Feed one sample; returns a detection dict or ``None``."""
        x = float(value)
        if self.n < self.warmup:
            self.n += 1
            delta = x - self.mean
            self.mean += delta / self.n
            self.m2 += delta * (x - self.mean)
            return None
        var = self.m2 / (self.warmup - 1) if self.warmup > 1 else 0.0
        sigma = max(
            math.sqrt(max(var, 0.0)),
            self.min_std,
            self.rel_floor * abs(self.mean),
        )
        z = (x - self.mean) / sigma
        clamp = 2.0 * self.threshold
        self.pos = min(max(0.0, self.pos + z - self.drift), clamp)
        self.neg = min(max(0.0, self.neg - z - self.drift), clamp)
        self.n += 1
        score = max(self.pos, self.neg)
        if score >= self.threshold:
            if not self.armed:
                return None
            self.armed = False
            return {
                "detector": self.name,
                "value": x,
                "expected": self.mean,
                "deviation": x - self.mean,
                "score": score,
                "threshold": self.threshold,
            }
        self.armed = True
        return None


def _make_detector(kind: str, config: dict):
    if kind == "ewma":
        return EwmaDetector(
            alpha=config["ewma_alpha"],
            threshold=config["ewma_threshold"],
            warmup=config["warmup"],
        )
    if kind == "cusum":
        return CusumDetector(
            drift=config["cusum_drift"],
            threshold=config["cusum_threshold"],
            warmup=config["warmup"],
        )
    raise ValueError(f"unknown detector kind {kind!r}")


@dataclass
class AnomalyMonitor(Stateful):
    """Per-series detector bank fed by the reader once per round.

    One detector of each configured kind is lazily created per
    ``(series, node)`` pair on first observation.  Detections come
    back as JSON-ready payload dicts (floats rounded to 6 decimals)
    naming the offending series, node, stage, round, detector, and a
    severity from :data:`SEVERITIES` — ``critical`` when the score
    reaches ``critical_factor`` times the detector's threshold.

    The monitor's state joins the reader checkpoint
    (:meth:`snapshot_state`/:meth:`restore_state`), so a resumed
    campaign's anomaly stream splices byte-identically onto the
    pre-kill stream.
    """

    __state__ = ("_series", "_hist_state", "counts", "prior_total")

    detectors: tuple = ("ewma", "cusum")
    warmup: int = 8
    ewma_alpha: float = 0.25
    ewma_threshold: float = 4.0
    cusum_drift: float = 0.5
    cusum_threshold: float = 5.0
    critical_factor: float = 2.0
    enabled: bool = True
    anomalies: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Detections emitted before the checkpoint this monitor was
    #: restored from (their envelopes are already on the stream).
    prior_total: int = 0
    _series: dict[tuple[str, int], list] = field(default_factory=dict)
    _hist_state: dict[str, tuple[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.detectors = tuple(self.detectors)
        config = {
            "warmup": int(self.warmup),
            "ewma_alpha": float(self.ewma_alpha),
            "ewma_threshold": float(self.ewma_threshold),
            "cusum_drift": float(self.cusum_drift),
            "cusum_threshold": float(self.cusum_threshold),
        }
        for kind in self.detectors:
            _make_detector(kind, config)  # validate kinds eagerly
        self._config = config

    # -- core ---------------------------------------------------------------------------

    def observe(
        self,
        series: str,
        value,
        *,
        node: int = -1,
        stage: str = "",
        rnd: int = -1,
    ) -> list:
        """Feed one sample of one series; returns detection payloads."""
        if not self.enabled or value is None:
            return []
        x = float(value)
        if not math.isfinite(x):
            return []
        key = (series, int(node))
        bank = self._series.get(key)
        if bank is None:
            bank = [
                _make_detector(kind, self._config) for kind in self.detectors
            ]
            self._series[key] = bank
        out = []
        for detector in bank:
            hit = detector.observe(x)
            if hit is None:
                continue
            severity = (
                "critical"
                if hit["score"] >= self.critical_factor * hit["threshold"]
                else "warn"
            )
            payload = {
                "series": series,
                "node": int(node),
                "stage": stage,
                "round": int(rnd),
                "detector": hit["detector"],
                "severity": severity,
                "value": _round6(hit["value"]),
                "expected": _round6(hit["expected"]),
                "deviation": _round6(hit["deviation"]),
                "score": _round6(hit["score"]),
                "threshold": _round6(hit["threshold"]),
            }
            self.anomalies.append(payload)
            self.counts[severity] = self.counts.get(severity, 0) + 1
            out.append(payload)
        return out

    def observe_campaign_round(
        self, t: float, record: dict, *, registry=None
    ) -> list:
        """Feed one reader round record; returns detection payloads.

        ``record`` is the reader's round-log record shape (``t`` /
        ``outcomes`` / optional ``burn``).  Observation order is fixed
        — fleet delivery, per-node delivery, per-node SoC, SLO burn,
        link SNR/BER — so the emitted anomaly sequence is deterministic
        for a given campaign.
        """
        if not self.enabled:
            return []
        rnd = int(t)
        out = []
        outcomes = record.get("outcomes", {})
        polled = [a for a in sorted(outcomes) if outcomes[a].get("polled")]
        if polled:
            delivered = sum(
                1 for a in polled if outcomes[a].get("delivered")
            )
            out += self.observe(
                "delivery_ratio",
                delivered / len(polled),
                stage="mac",
                rnd=rnd,
            )
        for addr in polled:
            out += self.observe(
                "node_delivered",
                1.0 if outcomes[addr].get("delivered") else 0.0,
                node=int(addr),
                stage="mac",
                rnd=rnd,
            )
        for addr in sorted(outcomes):
            soc = outcomes[addr].get("soc_v")
            if soc is not None:
                out += self.observe(
                    "soc_v", soc, node=int(addr), stage="energy", rnd=rnd
                )
        for objective in sorted(record.get("burn", {})):
            out += self.observe(
                f"slo_burn:{objective}",
                record["burn"][objective],
                stage="slo",
                rnd=rnd,
            )
        out += self._observe_link_quality(registry, rnd)
        return out

    def _observe_link_quality(self, registry, rnd: int) -> list:
        """Round-mean SNR/BER from the registry's link histograms.

        Histograms are cumulative, so the monitor tracks (count, sum)
        per family and observes the delta mean — the mean SNR/BER of
        the transactions this round only.
        """
        if registry is None:
            return []
        out = []
        for name, series in (
            ("pab_link_snr_db", "snr_db"),
            ("pab_link_ber", "ber"),
        ):
            count = 0
            total = 0.0
            found = False
            for metric in registry:
                if getattr(metric, "name", "") != name:
                    continue
                if not hasattr(metric, "bucket_counts"):
                    continue
                found = True
                count += metric.count - metric.nan_count
                total += metric.sum
            if not found:
                continue
            prev_count, prev_total = self._hist_state.get(name, (0, 0.0))
            self._hist_state[name] = (count, total)
            if count > prev_count:
                out += self.observe(
                    series,
                    (total - prev_total) / (count - prev_count),
                    stage="link",
                    rnd=rnd,
                )
        return out

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> dict:
        """Counts by severity plus the total, for reports and tests."""
        return {
            "total": self.prior_total + len(self.anomalies),
            **{sev: self.counts.get(sev, 0) for sev in SEVERITIES},
        }

    # -- checkpointing ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """The declared state; ``prior_total`` counts every detection so far."""
        state = super().snapshot_state()
        state["prior_total"] += len(self.anomalies)
        return state

    def restore_state(self, state: dict) -> None:
        """Rebuild the detector banks, then restore them.  The
        detections so far are on the stream: the list restarts empty,
        and ``prior_total`` keeps :meth:`summary` whole."""
        self._series = {
            tuple(key): [
                _make_detector(kind, self._config) for kind in self.detectors
            ]
            for key, _ in state["_series"]
        }
        super().restore_state(state)
        self.anomalies = []


def publish_anomalies(detections, *, t: float, bus=None, metrics=None):
    """Book a round's detections into the stream and the registry.

    One ``anomaly`` envelope per detection (``node`` lifted to the
    envelope for filtering) and two metric families:
    ``pab_anomaly_events_total{series,detector,severity}`` and the
    last absolute z/CUSUM score per series/node in
    ``pab_anomaly_score``.  Call order is the detection order, so the
    stream stays deterministic.
    """
    for a in detections:
        if metrics is not None:
            metrics.counter(
                "pab_anomaly_events_total",
                series=a["series"],
                detector=a["detector"],
                severity=a["severity"],
            ).inc()
            metrics.gauge(
                "pab_anomaly_score", series=a["series"], node=a["node"]
            ).set(a["score"])
        if bus is not None and bus.enabled:
            bus.publish(
                "anomaly", t=t, node=a["node"], source="analytics",
                data=dict(a),
            )
