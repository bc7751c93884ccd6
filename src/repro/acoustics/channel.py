"""Waveform-level acoustic channel.

:class:`AcousticChannel` ties the pieces of this subpackage together: given
a tank (or free field), source/receiver positions, and a noise model, it
turns a transmitted pressure waveform (referenced to 1 m from the source)
into the received pressure waveform at the receiver, including multipath,
propagation delay, and additive ambient noise.

The same object also provides narrowband summary quantities (channel gain,
transmission loss) used by the energy-budget engine, so the communication
and harvesting simulations see a consistent channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from repro.acoustics.geometry import Position, Tank
from repro.acoustics.multipath import ImageSourceModel, Path
from repro.acoustics.noise import AmbientNoiseModel
from repro.constants import NOMINAL_SOUND_SPEED
from repro.perf.cache import get_cache
from repro.perf.kernels import stack_rows


@dataclass
class ChannelOutput:
    """Result of pushing a waveform through the channel.

    Attributes
    ----------
    waveform:
        Received pressure waveform [Pa], same sample rate as the input.
        Longer than the input by the channel spread.
    direct_delay_s:
        Delay of the first (direct) arrival [s].
    paths:
        The multipath structure used.
    """

    waveform: np.ndarray
    direct_delay_s: float
    paths: list[Path]


class AcousticChannel:
    """Point-to-point underwater channel inside a tank.

    Parameters
    ----------
    tank:
        Geometry and boundary properties.
    source, receiver:
        Endpoint positions.
    sample_rate:
        Waveform sample rate [Hz].
    frequency_hz:
        Nominal carrier for absorption and narrowband summaries.
    noise:
        Ambient noise model; ``None`` disables additive noise.
    max_order:
        Image-source reflection order.
    sound_speed:
        Speed of sound [m/s].
    """

    def __init__(
        self,
        tank: Tank,
        source: Position,
        receiver: Position,
        *,
        sample_rate: float,
        frequency_hz: float = 15_000.0,
        noise: AmbientNoiseModel | None = None,
        max_order: int = 2,
        sound_speed: float = NOMINAL_SOUND_SPEED,
    ) -> None:
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        self.tank = tank
        self.source = source
        self.receiver = receiver
        self.sample_rate = sample_rate
        self.frequency_hz = frequency_hz
        self.noise = noise
        self.sound_speed = sound_speed
        self._model = ImageSourceModel(
            tank,
            max_order=max_order,
            sound_speed=sound_speed,
            frequency_hz=frequency_hz,
        )
        # Path enumeration and impulse-response synthesis depend only on
        # geometry + model parameters; links rebuilt for the same layout
        # (every transaction in a polling campaign) share the results.
        geo_key = (
            tank, source, receiver, max_order, sound_speed, frequency_hz
        )
        self._paths = get_cache("channel_paths", maxsize=1024).get_or_compute(
            geo_key, lambda: tuple(self._model.paths(source, receiver))
        )
        self._impulse = get_cache("channel_irs", maxsize=1024).get_or_compute(
            geo_key + (sample_rate,),
            lambda: self._model.impulse_response(
                source, receiver, sample_rate
            ),
        )

    @property
    def paths(self) -> list[Path]:
        """Multipath arrivals, sorted by delay."""
        return list(self._paths)

    @property
    def direct_path(self) -> Path:
        """The line-of-sight arrival."""
        for p in self._paths:
            if p.is_direct:
                return p
        # Direct path can only be missing if endpoints coincide; guarded in
        # ImageSourceModel, but keep a clear error for safety.
        raise RuntimeError("channel has no direct path")

    @property
    def distance(self) -> float:
        """Source-receiver straight-line distance [m]."""
        return self.source.distance_to(self.receiver)

    def gain_at(self, frequency_hz: float | None = None) -> complex:
        """Complex narrowband gain H(f) including multipath."""
        f = self.frequency_hz if frequency_hz is None else frequency_hz
        return self._model.channel_gain_at(self.source, self.receiver, f)

    def magnitude_gain(self, frequency_hz: float | None = None) -> float:
        """|H(f)| — linear pressure gain relative to source level at 1 m."""
        return abs(self.gain_at(frequency_hz))

    def incoherent_gain(self) -> float:
        """Power-sum gain sqrt(sum |g_i|^2) — used for energy budgets."""
        return self._model.rms_gain(self.source, self.receiver)

    def transmission_loss_db(self, frequency_hz: float | None = None) -> float:
        """Effective TL [dB] including coherent multipath gain."""
        g = self.magnitude_gain(frequency_hz)
        if g <= 0:
            return float("inf")
        return -20.0 * float(np.log10(g))

    @staticmethod
    def propagate(channels, waveforms) -> np.ndarray:
        """Noise-free propagation of an (N, samples) stack, row i through ``channels[i]``.

        One ``fftconvolve`` over the stack along the last axis: pocketfft
        transforms each row with the plan a lone 1-D call would use, so
        row i equals ``channels[i].apply(waveforms[i],
        include_noise=False).waveform`` bit for bit.  The channels'
        impulse responses must share one length.
        """
        irs = stack_rows([channel._impulse for channel in channels])
        return fftconvolve(np.asarray(waveforms, dtype=float), irs, axes=-1)

    def apply(
        self,
        waveform: np.ndarray,
        *,
        include_noise: bool = True,
        rng_noise: bool = True,
    ) -> ChannelOutput:
        """Propagate ``waveform`` (source pressure at 1 m [Pa]) to the receiver."""
        waveform = np.asarray(waveform, dtype=float)
        if waveform.ndim != 1:
            raise ValueError("waveform must be one-dimensional")
        received = AcousticChannel.propagate([self], waveform[None])[0]
        if include_noise and self.noise is not None and rng_noise:
            received = received + self.noise.generate(
                len(received), self.sample_rate
            )
        return ChannelOutput(
            waveform=received,
            direct_delay_s=self.direct_path.delay_s,
            paths=self.paths,
        )
