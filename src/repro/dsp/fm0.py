"""FM0 (bi-phase space) line coding for the backscatter uplink.

The paper adopts FM0 on the uplink (Sec. 3.2) because the guaranteed
level transition at every bit boundary lets the receiver delineate bits
robustly.  Encoding rules (EPC Gen2 convention):

* the signal level inverts at **every** bit boundary;
* a ``0`` bit additionally inverts in the **middle** of the bit;
* a ``1`` bit holds its level for the whole bit.

Each bit therefore occupies two half-bit *chips*.  The backscatter switch
drives the transducer with exactly this chip sequence (chip value 1 =
reflective state).
"""

from __future__ import annotations

import numpy as np

#: FM0 spends two chips (half-bits) per data bit.
CHIPS_PER_BIT = 2


def _as_bit_array(bits) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.int8)


def fm0_encode(bits, *, initial_level: int = 1) -> np.ndarray:
    """Encode data bits into an FM0 chip sequence (values 0/1).

    ``initial_level`` is the line level *before* the first bit; the first
    chip is its inversion (boundary transition).
    """
    data = _as_bit_array(bits)
    if initial_level not in (0, 1):
        raise ValueError("initial level must be 0 or 1")
    # Bit i's first chip follows i boundary inversions and one mid-bit
    # inversion per earlier '0' bit, then inverts at its own boundary;
    # a '0' inverts again for the second chip.
    zeros = (data == 0).astype(np.int8)
    zeros_before = np.cumsum(zeros) - zeros
    first = ((np.arange(len(data)) + zeros_before) & 1) ^ (initial_level ^ 1)
    chips = np.empty(2 * len(data), dtype=np.int8)
    chips[0::2] = first
    chips[1::2] = first ^ zeros
    return chips


def fm0_decode_chips(chips, *, soft: bool = False):
    """Decode an FM0 chip sequence back to bits.

    For hard chips (0/1) or soft chip amplitudes (any real values, higher
    = reflective state).  A bit is ``1`` when its two half-bit chips
    agree, ``0`` when they differ; with ``soft=True`` the decision margin
    ``-(x0 - x1)^2 + const`` is replaced by the correlation-based soft
    metric and the function returns ``(bits, margins)``.
    """
    x = np.asarray(chips, dtype=float)
    if x.ndim != 1:
        raise ValueError("chips must be one-dimensional")
    if len(x) % CHIPS_PER_BIT != 0:
        raise ValueError("chip count must be even")
    first = x[0::2]
    second = x[1::2]
    # Same sign / level across the two halves -> '1'; opposite -> '0'.
    diff = np.abs(first - second)
    scale = np.std(x) if np.std(x) > 0 else 1.0
    bits = (diff < scale).astype(np.int8)
    if not soft:
        return bits
    margins = np.abs(diff - scale) / scale
    return bits, margins


def fm0_expected_chips(bits, *, initial_level: int = 1) -> np.ndarray:
    """Bipolar (+1/-1) template of the FM0 waveform for correlation.

    Used to build preamble-matched filters: reflective chips map to +1 and
    absorptive chips to -1.
    """
    chips = fm0_encode(bits, initial_level=initial_level)
    return chips.astype(float) * 2.0 - 1.0


#: Branch chip templates, row k = 2*s_in + bit.  Entering level s_in
#: inverts at the boundary (first chip = 1 - s_in) and a '0' bit
#: inverts again mid-bit:
#:   k=0 (s_in=0, bit=0) -> chips (+1, -1), exit level 0
#:   k=1 (s_in=0, bit=1) -> chips (+1, +1), exit level 1
#:   k=2 (s_in=1, bit=0) -> chips (-1, +1), exit level 1
#:   k=3 (s_in=1, bit=1) -> chips (-1, -1), exit level 0
_FM0_BRANCH = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
_FM0_BRANCH.setflags(write=False)


def fm0_branch_metrics(chip_pairs) -> np.ndarray:
    """Squared-error branch metrics against the four FM0 transitions.

    ``chip_pairs`` is ``(..., n_bits, 2)`` — one row of chip-amplitude
    pairs per frame, so a whole fleet's frames can be scored as one
    ``(N, n_bits, 2)`` einsum (the FM0 matrix correlation of the
    batched engine).  ``out[..., i, k]`` is the metric of branch *k*
    for bit *i*: ``(x[2i] - c0)^2 + (x[2i+1] - c1)^2``.  The reduction
    is a fixed two-term sum per entry, so batched and per-frame calls
    are bit-identical.
    """
    pairs = np.asarray(chip_pairs, dtype=float)
    if pairs.ndim < 2 or pairs.shape[-1] != CHIPS_PER_BIT:
        raise ValueError("chip_pairs must have shape (..., n_bits, 2)")
    delta = pairs[..., None, :] - _FM0_BRANCH
    return np.einsum("...kc,...kc->...k", delta, delta)


def fm0_ml_decode(chip_amplitudes, *, initial_level: int = 1) -> np.ndarray:
    """Maximum-likelihood sequence decoding of noisy FM0 chip amplitudes.

    FM0 has memory (the boundary-inversion rule couples adjacent bits), so
    exact ML decoding is a two-state Viterbi over the line level.  States
    are the level entering the bit; each bit hypothesis predicts two chip
    polarities.  ``chip_amplitudes`` should be roughly zero-mean (positive
    = reflective).  Returns the decoded bits.
    """
    x = np.asarray(chip_amplitudes, dtype=float)
    if x.ndim != 1 or len(x) % 2:
        raise ValueError("need a flat, even-length chip array")
    n_bits = len(x) // 2
    if n_bits == 0:
        return np.zeros(0, dtype=np.int8)
    # Normalise amplitude so metrics are comparable.
    scale = np.max(np.abs(x))
    if scale > 0:
        x = x / scale

    # All branch metrics for every bit in one shot: err[i, k] =
    # (x[2i] - c0)^2 + (x[2i+1] - c1)^2, identical to the scalar form.
    errs = fm0_branch_metrics(x.reshape(n_bits, CHIPS_PER_BIT))

    # Two-state trellis over the precomputed metrics.  Transitions into
    # state 0 are branches k=0 (from state 0) and k=3 (from state 1);
    # into state 1, k=1 (from state 0) and k=2 (from state 1).  Strict
    # comparison keeps the earlier branch on ties, matching the original
    # scan order k=0..3.
    cost0, cost1 = (
        (0.0, 1e-3) if initial_level == 0 else (1e-3, 0.0)
    )
    # The recursion is sequential, so the hot loop runs on plain Python
    # floats and lists: ``tolist`` yields the same IEEE doubles as the
    # ndarray, and the adds/compares below are the same scalar ops in
    # the same order, so the decode is bit-identical to the ndarray
    # form at a fraction of the per-element indexing cost.
    e0, e1, e2, e3 = (
        errs[:, 0].tolist(), errs[:, 1].tolist(),
        errs[:, 2].tolist(), errs[:, 3].tolist(),
    )
    back0 = [0] * n_bits  # winning s_in per state
    back1 = [0] * n_bits
    for i in range(n_bits):
        into0_a = cost0 + e0[i]
        into0_b = cost1 + e3[i]
        into1_a = cost0 + e1[i]
        into1_b = cost1 + e2[i]
        if into0_b < into0_a:
            new0 = into0_b
            back0[i] = 1
        else:
            new0 = into0_a
        if into1_b < into1_a:
            new1 = into1_b
            back1[i] = 1
        else:
            new1 = into1_a
        cost0, cost1 = new0, new1
    cost = [cost0, cost1]
    # Trace back from the better final state.  The data bit of each
    # winning transition follows from its (s_in, s_out) pair: exiting to
    # state 0 means bit = s_in == 0 ? 0 : 1; to state 1 the reverse.
    # (``cost0 <= cost1`` picks state 0 on ties, as argmin did.)
    state = 0 if cost0 <= cost1 else 1
    decoded = [0] * n_bits
    for i in range(n_bits - 1, -1, -1):
        if state == 0:
            s_in = back0[i]
            decoded[i] = s_in
        else:
            s_in = back1[i]
            decoded[i] = 1 - s_in
        state = s_in
    bits = np.array(decoded, dtype=np.int8)
    from repro.obs.probe import get_probes

    probes = get_probes()
    if probes.wants("fm0.decode"):
        # Path cost per chip of the winning sequence: 0 for a clean
        # frame, ~1 at the decode threshold, ~2+ for noise-only input.
        path_cost = float(np.min(cost))
        probes.capture(
            "fm0.decode", "chips", waveform=x,
            n_bits=n_bits, path_cost=path_cost,
            cost_per_chip=path_cost / len(x),
        )
    return bits
