"""PWM line code for the downlink (projector -> node).

The paper encodes downlink bits as pulse widths — "a larger pulse width
corresponds to a '1' bit and a shorter pulse width corresponds to a '0'
bit" with the '1' twice as long as the '0' (Sec. 5.1a).  PWM was chosen
because the node can decode it with a bare envelope detector and a timer
(Sec. 4.2.1): the MCU measures the interval between falling edges.

A symbol here is ``on`` time (carrier present) followed by a fixed
``gap`` (carrier absent):

    '0'  ->  on for T,  off for T_gap
    '1'  ->  on for 2T, off for T_gap

Decoding needs only the sequence of falling-edge intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PWMCode:
    """Timing parameters of the PWM downlink code.

    Parameters
    ----------
    short_s:
        Carrier-on duration of a '0' [s].
    long_s:
        Carrier-on duration of a '1' [s]; the paper uses twice the short.
    gap_s:
        Carrier-off duration between pulses [s].  Must exceed the
        channel's reverberation tail for the envelope to drop between
        pulses; the defaults are sized for the paper's enclosed tanks.
    """

    short_s: float = 5e-3
    long_s: float = 10e-3
    gap_s: float = 8e-3

    def __post_init__(self) -> None:
        if not 0 < self.short_s < self.long_s:
            raise ValueError("need 0 < short < long")
        if self.gap_s <= 0:
            raise ValueError("gap must be positive")

    def symbol_duration(self, bit: int) -> float:
        """Total duration of one symbol [s]."""
        return (self.long_s if bit else self.short_s) + self.gap_s

    def frame_duration(self, bits) -> float:
        """Duration of a whole bit sequence [s]."""
        return float(sum(self.symbol_duration(int(b)) for b in np.asarray(bits)))

    def frame_samples(self, bits, sample_rate: float) -> int:
        """Exact sample count of :func:`pwm_encode` for ``bits``.

        Mirrors the encoder's per-symbol rounding (each on/gap segment
        rounds independently, clamped to >= 1 sample), so the batched
        engine can group same-shape downlink envelopes without
        synthesising the waveforms first.
        """
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        total = 0
        gap = max(int(round(self.gap_s * sample_rate)), 1)
        for bit in np.asarray(bits):
            on = self.long_s if bit else self.short_s
            total += max(int(round(on * sample_rate)), 1) + gap
        return total

    @property
    def decision_threshold_s(self) -> float:
        """Edge-interval threshold separating '0' from '1'."""
        return (self.short_s + self.long_s) / 2.0 + self.gap_s

    @property
    def mean_bit_rate(self) -> float:
        """Average bit rate for balanced data [bit/s]."""
        mean_t = (self.symbol_duration(0) + self.symbol_duration(1)) / 2.0
        return 1.0 / mean_t

    @property
    def harvest_duty_cycle(self) -> float:
        """Fraction of time the carrier is on for balanced data.

        The paper notes PWM "provides ample opportunities for energy
        harvesting" — the carrier is on most of the time.
        """
        on = (self.short_s + self.long_s) / 2.0
        return on / (on + self.gap_s)


def pwm_encode(bits, code: PWMCode, sample_rate: float) -> np.ndarray:
    """On/off keying envelope (values 0/1) for a bit sequence.

    The projector multiplies this envelope by its carrier.  Each symbol
    is an ``on`` run of ones and a ``gap`` run of zeros, each rounded to
    whole samples (at least one), so the envelope is the alternating
    values 1, 0 repeated by the per-symbol run lengths.
    """
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    data = np.asarray(bits)
    if data.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if data.size and not np.all((data == 0) | (data == 1)):
        raise ValueError("bits must be 0 or 1")
    short, long_, gap = (
        max(int(round(duration * sample_rate)), 1)
        for duration in (code.short_s, code.long_s, code.gap_s)
    )
    runs = np.empty(2 * len(data), dtype=np.intp)
    runs[0::2] = np.where(data == 1, long_, short)
    runs[1::2] = gap
    return np.repeat(np.tile([1.0, 0.0], len(data)), runs)


def pwm_decode_edges(
    edge_times_s, polarities, code: PWMCode, *, adaptive: bool = True
) -> np.ndarray:
    """Decode bits from envelope edge times and polarities.

    This mirrors the MCU firmware (Sec. 4.2.2): a timer measures the
    carrier-on duration between each rising edge (+1) and the following
    falling edge (-1); comparing it to a threshold yields the bit.
    Unpaired or out-of-order edges are skipped, which makes the decoder
    robust to noise glitches.

    With ``adaptive=True`` the decision threshold is re-learned from the
    measured durations themselves (midpoint of the shortest and longest
    pulse).  Reverberant channels delay every falling edge by roughly the
    same tail time, biasing all widths by a constant — the preamble
    guarantees both symbols appear, so the adaptive midpoint cancels the
    bias exactly, where the nominal midpoint would misread every pulse.
    """
    times = np.asarray(edge_times_s, dtype=float)
    pols = np.asarray(polarities)
    if times.shape != pols.shape or times.ndim != 1:
        raise ValueError("edge times and polarities must be matching 1-D arrays")
    durations = []
    rise_time: float | None = None
    for t, p in zip(times, pols):
        if p > 0:
            rise_time = t
        elif rise_time is not None:
            on = t - rise_time
            # Ignore glitch pulses much shorter than a '0'.
            if on > 0.25 * code.short_s:
                durations.append(on)
            rise_time = None
    if not durations:
        return np.zeros(0, dtype=np.int8)
    threshold = (code.short_s + code.long_s) / 2.0
    if adaptive:
        spread = max(durations) - min(durations)
        # Both symbols present: re-centre between the clusters.
        if spread > 0.5 * (code.long_s - code.short_s):
            threshold = (max(durations) + min(durations)) / 2.0
    return np.array(
        [1 if on > threshold else 0 for on in durations], dtype=np.int8
    )


def pwm_decode_envelope(
    envelope, code: PWMCode, sample_rate: float, *, threshold: float = 0.5
) -> np.ndarray:
    """Convenience: slice an analog envelope at ``threshold`` and decode.

    The node's real decode path goes through the Schmitt trigger model in
    :mod:`repro.circuits.schmitt`; this helper is for tests and offline
    analysis.
    """
    env = np.asarray(envelope, dtype=float)
    if env.ndim != 1:
        raise ValueError("envelope must be one-dimensional")
    high = env >= threshold
    diff = np.diff(high.astype(np.int8))
    edge_idx = np.nonzero(diff)[0] + 1
    times = edge_idx / sample_rate
    pols = diff[edge_idx - 1]
    if len(env) and high[0]:
        # The envelope starts mid-pulse: synthesise the rising edge at t=0.
        times = np.concatenate([[0.0], times])
        pols = np.concatenate([[1], pols])
    return pwm_decode_edges(times, pols, code)
