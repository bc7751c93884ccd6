"""Length-adaptive convolution kernels for the decode hot path.

``np.convolve`` evaluates directly in O(n*m); for the receiver's
correlations (50k-sample modulation against an 800+-sample preamble
template) that is tens of millions of MACs per decode.  FFT evaluation
is O(n log n), and overlap-add (:func:`scipy.signal.oaconvolve`) beats
one big FFT when the operands are very different lengths — exactly the
receiver's shape.

:func:`smart_convolve` keeps ``np.convolve`` semantics (including mode
handling) and picks the evaluation strategy by operand length:

* tiny problems stay direct — FFT setup would dominate;
* one-operand-much-longer problems use overlap-add;
* comparable-length problems use a single FFT.

The helpers accept real or complex input, like their scipy backends.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve, oaconvolve

#: Below this many output MACs, direct evaluation wins.
_DIRECT_MAC_LIMIT = 1 << 17

#: Length ratio beyond which overlap-add beats a single FFT.
_OVERLAP_ADD_RATIO = 8.0

#: Overlap-add only pays off once the long operand is mixture-scale;
#: for mid-size signals (the receiver's ~9k-sample analysis segments)
#: a single zero-padded FFT is 2-3x faster than scipy's block loop.
_OVERLAP_ADD_MIN_LEN = 1 << 16


def convolution_regime(n: int, m: int) -> str:
    """``"direct"``, ``"fft"`` or ``"overlap-add"`` for operand lengths ``n``, ``m``.

    The one dispatch rule of every convolution here and of the preamble
    correlation (:func:`repro.dsp.sync.batched_preamble_correlation`),
    which evaluates the FFT regime itself against cached spectra.
    Empty operands count as direct, so ``np.convolve`` reports them.
    """
    if n == 0 or m == 0 or n * m <= _DIRECT_MAC_LIMIT or min(n, m) < 8:
        return "direct"
    if (
        max(n, m) >= _OVERLAP_ADD_MIN_LEN
        and max(n, m) / min(n, m) >= _OVERLAP_ADD_RATIO
    ):
        return "overlap-add"
    return "fft"


def smart_convolve(x, kernel, mode: str = "full") -> np.ndarray:
    """``np.convolve(x, kernel, mode)`` with auto-selected evaluation.

    Dispatches to direct / :func:`scipy.signal.fftconvolve` /
    :func:`scipy.signal.oaconvolve` by operand length.  All three
    compute the same convolution; only floating-point rounding differs
    at the ~1 ulp level, far below any decode decision margin.
    """
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.ndim != 1 or kernel.ndim != 1:
        raise ValueError("smart_convolve operates on 1-D arrays")
    regime = convolution_regime(len(x), len(kernel))
    if regime == "direct":
        return np.convolve(x, kernel, mode=mode)
    if regime == "overlap-add":
        return oaconvolve(x, kernel, mode=mode)
    return fftconvolve(x, kernel, mode=mode)


def smart_correlate(x, template, mode: str = "valid") -> np.ndarray:
    """``np.correlate(x, template, mode)`` via :func:`smart_convolve`.

    Correlation is convolution with the (conjugated) reversed template;
    the receiver's preamble search uses real templates, so only the
    reversal matters.
    """
    template = np.asarray(template)
    return smart_convolve(x, np.conj(template[::-1]), mode=mode)


def stack_rows(rows) -> np.ndarray:
    """``np.stack(rows)``, or a copy-free ``(1, samples)`` view of one row.

    The stacked stages take one row per link; a live exchange is the
    one-row call, which must not pay for copying its waveform.
    """
    if len(rows) == 1:
        return np.asarray(rows[0])[None]
    return np.stack(rows)


def batched_convolve(xs, kernel, mode: str = "full") -> np.ndarray:
    """Row-wise :func:`smart_convolve` over an (N, samples) stack.

    Bit-identical to calling ``smart_convolve(row, kernel, mode)`` per
    row: the strategy dispatch depends only on the per-row lengths, and
    both scipy FFT backends produce byte-identical rows when handed the
    whole matrix with ``axes=-1`` (pocketfft transforms each row with
    the same plan it would use for a lone 1-D call).  The direct branch
    loops, because tiny problems gain nothing from stacking.
    """
    xs = np.asarray(xs)
    kernel = np.asarray(kernel)
    if xs.ndim == 1:
        return smart_convolve(xs, kernel, mode=mode)
    if xs.ndim != 2 or kernel.ndim != 1:
        raise ValueError("batched_convolve wants (N, samples) x 1-D kernel")
    regime = convolution_regime(xs.shape[-1], len(kernel))
    if regime == "direct":
        return np.stack([np.convolve(row, kernel, mode=mode) for row in xs])
    if regime == "overlap-add":
        return oaconvolve(xs, kernel[None, :], mode=mode, axes=-1)
    return fftconvolve(xs, kernel[None, :], mode=mode, axes=-1)


def batched_correlate(xs, template, mode: str = "valid") -> np.ndarray:
    """Row-wise :func:`smart_correlate` over an (N, samples) stack."""
    template = np.asarray(template)
    return batched_convolve(xs, np.conj(template[::-1]), mode=mode)
