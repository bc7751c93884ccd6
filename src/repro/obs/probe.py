"""Signal probes: named waveform taps through the PAB decode pipeline.

Spans (:mod:`repro.obs.trace`) say *which stage* was slow; metrics say
*how often* decodes fail.  Neither says *why the signal died* — the
paper's own evaluation reasons at the waveform level (demodulated
envelopes, recto-piezo spectra, BER-vs-SNR curves), and acoustic link
debugging is dominated by channel/DSP artifacts invisible to
packet-level counters.  Probes close that gap: instrumented stages
publish named taps — a (possibly decimated) waveform plus scalar stage
diagnostics — into a :class:`ProbeRegistry`, and a failed decode's taps
feed a :class:`~repro.obs.postmortem.DecodePostmortem`.

The contract mirrors the tracer:

* **Disabled is free.**  The process-global registry is disabled by
  default; publishers guard every capture (and any diagnostic
  computation) behind :meth:`ProbeRegistry.wants`, a single attribute
  check plus an optional stage-filter lookup.
* **Bounded.**  Captured waveforms are decimated to
  ``max_samples`` points (stride recorded on the tap), so a probed
  campaign cannot exhaust memory.
* **Scoped.**  :meth:`ProbeRegistry.begin_transaction` stamps
  subsequent taps with a transaction id; post-mortems only look at the
  failing transaction's taps.

Publishers (stage names as recorded on the taps):

========================  ====================================================
``link.pwm_synthesis``    projector waveforms (query, query+carrier)
``link.downlink_propagation``  incident pressure at the node
``link.node``             power-up, query envelope, uplink chips, backscatter
``link.uplink_propagation``    analysed hydrophone mixture (direct + uplink + noise)
``link.hydrophone_dsp``   analysis-segment bookkeeping
``hydrophone.demodulate`` recording + decode outcome (CRC, SNR, CFO)
``sync.detect_packet``    preamble correlation, peak/threshold margin, timing
``fm0.decode``            chip amplitudes + Viterbi path cost
``mimo.zero_forcing``     channel-matrix condition number
========================  ====================================================
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import re

import numpy as np


class ProbeTap:
    """One captured signal tap.

    Attributes
    ----------
    seq:
        Monotonic capture index within the registry.
    txn:
        Transaction id (0 outside any transaction).
    stage:
        Pipeline stage that published the tap (see the module table).
    name:
        Tap name within the stage (``"correlation"``, ``"chips"``, ...).
    waveform:
        The captured (possibly decimated) array, or ``None`` for a
        diagnostics-only tap.
    sample_rate:
        Sample rate of the *original* waveform [Hz] (``None`` when not
        applicable, e.g. chip-indexed arrays).
    decimation:
        Stride applied to the original waveform (1 = verbatim).
    diagnostics:
        Scalar stage diagnostics, computed at full rate by the
        publisher (SNR, correlation margin, condition number, ...).
    """

    __slots__ = (
        "seq", "txn", "stage", "name", "waveform", "sample_rate",
        "decimation", "diagnostics",
    )

    def __init__(self, seq: int, txn: int, stage: str, name: str,
                 waveform, sample_rate, decimation: int,
                 diagnostics: dict) -> None:
        self.seq = seq
        self.txn = txn
        self.stage = stage
        self.name = name
        self.waveform = waveform
        self.sample_rate = sample_rate
        self.decimation = decimation
        self.diagnostics = diagnostics

    @property
    def samples(self) -> int:
        """Stored sample count (0 for diagnostics-only taps)."""
        return 0 if self.waveform is None else len(self.waveform)

    def to_dict(self) -> dict:
        """JSON-ready metadata (the waveform itself is *not* included)."""
        from repro.obs.export import _json_safe

        return {
            "seq": self.seq,
            "txn": self.txn,
            "stage": self.stage,
            "name": self.name,
            "samples": self.samples,
            "sample_rate": self.sample_rate,
            "decimation": self.decimation,
            "diagnostics": {
                str(k): _json_safe(v)
                for k, v in sorted(self.diagnostics.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProbeTap({self.stage!r}/{self.name!r}, txn={self.txn}, "
            f"samples={self.samples})"
        )


class ProbeRegistry:
    """Collects signal taps and decode post-mortems.

    Parameters
    ----------
    enabled:
        When False, :meth:`wants` is always False and :meth:`capture`
        is a no-op — the disabled hot-path cost is one attribute check.
    max_samples:
        Per-tap waveform length cap; longer captures are strided down
        and the stride recorded as the tap's ``decimation``.
    stages:
        Optional iterable of stage names to capture; ``None`` captures
        everything.  Lets a long campaign probe only, say,
        ``sync.detect_packet`` without paying for waveform copies at
        every other stage.
    """

    def __init__(self, *, enabled: bool = True, max_samples: int = 4096,
                 stages=None) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.enabled = bool(enabled)
        self.max_samples = int(max_samples)
        self.stages = frozenset(stages) if stages is not None else None
        self.taps: list[ProbeTap] = []
        self.postmortems: list = []
        self._txn = 0
        self._next_seq = 1

    # -- capture ----------------------------------------------------------------------

    def wants(self, stage: str) -> bool:
        """Whether a capture for ``stage`` would be recorded.

        Publishers gate both the :meth:`capture` call and any expensive
        diagnostic computation behind this check.
        """
        if not self.enabled:
            return False
        return self.stages is None or stage in self.stages

    def capture(self, stage: str, name: str, *, waveform=None,
                sample_rate: float | None = None, **diagnostics):
        """Record one tap; returns it (or ``None`` when not wanted)."""
        if not self.wants(stage):
            return None
        stored, decimation = self._decimate(waveform)
        tap = ProbeTap(
            self._next_seq, self._txn, stage, name,
            stored, sample_rate, decimation, diagnostics,
        )
        self._next_seq += 1
        self.taps.append(tap)
        return tap

    def _decimate(self, waveform):
        if waveform is None:
            return None, 1
        x = np.asarray(waveform)
        if x.ndim != 1:
            x = x.ravel()
        if len(x) <= self.max_samples:
            return x.copy(), 1
        stride = -(-len(x) // self.max_samples)  # ceil division
        return x[::stride].copy(), stride

    def begin_transaction(self) -> int:
        """Start a new tap scope; returns the new transaction id."""
        self._txn += 1
        return self._txn

    def record_postmortem(self, postmortem) -> None:
        """File a :class:`~repro.obs.postmortem.DecodePostmortem`.

        Also publishes the verdict on the process-global telemetry bus
        (``kind="postmortem"``) when one is enabled — probes force the
        reader into sequential mode, so the publication order is
        deterministic.
        """
        self.postmortems.append(postmortem)
        from repro.obs.stream import get_bus

        bus = get_bus()
        if bus.enabled:
            bus.publish(
                "postmortem",
                t=float(postmortem.txn or 0),
                node=int(postmortem.node if postmortem.node is not None else -1),
                source="probe",
                data=postmortem.to_dict(),
            )

    def reset(self) -> None:
        """Drop all taps, post-mortems, and transaction state."""
        self.taps.clear()
        self.postmortems.clear()
        self._txn = 0
        self._next_seq = 1

    # -- queries ----------------------------------------------------------------------

    def taps_for(self, stage: str, *, txn: int | None = None) -> list:
        """Taps published by ``stage`` (optionally one transaction's)."""
        return [
            t for t in self.taps
            if t.stage == stage and (txn is None or t.txn == txn)
        ]

    def latest(self, stage: str, *, txn: int | None = None):
        """Most recent tap for ``stage``, or ``None``."""
        matches = self.taps_for(stage, txn=txn)
        return matches[-1] if matches else None

    def transaction_taps(self, txn: int | None = None) -> list:
        """All taps of one transaction (default: the current one)."""
        txn = self._txn if txn is None else txn
        return [t for t in self.taps if t.txn == txn]

    # -- export -----------------------------------------------------------------------

    def to_npz(self, path) -> pathlib.Path:
        """Dump raw taps to ``path`` as a ``.npz`` archive.

        Waveform-bearing taps become arrays keyed
        ``tap<seq>__<stage>__<name>``; the full tap metadata (including
        diagnostics and diagnostics-only taps) lands in ``meta_json``.
        Parent directories are created.
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {}
        for tap in self.taps:
            if tap.waveform is not None:
                arrays[f"tap{tap.seq:04d}__{tap.stage}__{tap.name}"] = (
                    tap.waveform
                )
        meta = [tap.to_dict() for tap in self.taps]
        arrays["meta_json"] = np.array(
            json.dumps(meta, sort_keys=True, separators=(",", ":"))
        )
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path


# ---------------------------------------------------------------------------
# Process-global registry (disabled by default)
# ---------------------------------------------------------------------------

_GLOBAL_PROBES = ProbeRegistry(enabled=False)


def get_probes() -> ProbeRegistry:
    """The process-global probe registry (disabled until installed)."""
    return _GLOBAL_PROBES


def set_probes(probes: ProbeRegistry) -> ProbeRegistry:
    """Install ``probes`` globally; returns the previous registry."""
    global _GLOBAL_PROBES
    previous = _GLOBAL_PROBES
    _GLOBAL_PROBES = probes
    return previous


@contextlib.contextmanager
def use_probes(probes: ProbeRegistry):
    """Temporarily install ``probes`` as the global registry."""
    previous = set_probes(probes)
    try:
        yield probes
    finally:
        set_probes(previous)


# ---------------------------------------------------------------------------
# CI failure artifacts
# ---------------------------------------------------------------------------

def dump_failure_artifacts(directory, name: str) -> list:
    """Persist the global registry's taps/post-mortems for a failed test.

    Called from the pytest hooks in ``tests/conftest.py`` and
    ``benchmarks/conftest.py`` when ``PAB_ARTIFACT_DIR`` is set: the CI
    obs/chaos jobs upload the directory as a workflow artifact so a
    failing decode can be autopsied without rerunning the job.  Returns
    the paths written (empty when the registry holds nothing).
    """
    probes = get_probes()
    if not probes.taps and not probes.postmortems:
        return []
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name)[:120]
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    if probes.taps:
        written.append(probes.to_npz(directory / f"{safe}.probes.npz"))
    if probes.postmortems:
        from repro.obs.postmortem import write_postmortems_jsonl

        written.append(
            write_postmortems_jsonl(
                directory / f"{safe}.postmortems.jsonl", probes.postmortems
            )
        )
    return written
