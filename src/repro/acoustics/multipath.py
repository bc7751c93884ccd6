"""Image-source multipath model for rectangular tanks.

The classic image-source method (Allen & Berkley 1979, adapted from room
acoustics to water tanks) mirrors the source across each boundary of the
box, recursively, producing a lattice of virtual sources.  Each virtual
source contributes one propagation path whose

* delay is its straight-line distance over the sound speed,
* amplitude is the product of the boundary reflection coefficients it
  bounced off, divided by the spreading law, times absorption.

The air-water surface is pressure-release (reflection ~ -1, sign flip);
walls and floor are hard (positive reflection).  This reproduces the
paper's observation (Fig. 9) that the elongated Pool B acts as a corridor
that focuses energy along its axis: its side walls are close, so many
low-order wall images add nearly in phase for on-axis geometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.acoustics.attenuation import absorption_db
from repro.acoustics.geometry import Position, Tank
from repro.constants import NOMINAL_SOUND_SPEED


@dataclass(frozen=True)
class Path:
    """A single propagation path between two points.

    Attributes
    ----------
    delay_s:
        Propagation delay [s].
    gain:
        Linear pressure gain relative to the source pressure at 1 m
        (signed: surface bounces flip polarity).
    distance_m:
        Total path length [m].
    bounces:
        Number of boundary reflections along the path (0 = direct).
    """

    delay_s: float
    gain: float
    distance_m: float
    bounces: int

    @property
    def is_direct(self) -> bool:
        return self.bounces == 0


class ImageSourceModel:
    """Enumerates propagation paths inside a rectangular tank.

    Parameters
    ----------
    tank:
        The tank geometry and boundary reflection coefficients.
    max_order:
        Maximum number of image reflections per axis.  Order 0 gives the
        direct path only; 2-3 is enough for the tank sizes in the paper.
    sound_speed:
        Speed of sound [m/s].
    frequency_hz:
        Carrier frequency used for the absorption term.  Absorption over
        tens of metres at 15 kHz is small (~1 dB/km) but included for
        completeness.
    min_gain:
        Paths weaker than this linear gain are dropped.
    """

    def __init__(
        self,
        tank: Tank,
        *,
        max_order: int = 2,
        sound_speed: float = NOMINAL_SOUND_SPEED,
        frequency_hz: float = 15_000.0,
        min_gain: float = 1e-6,
    ) -> None:
        if max_order < 0:
            raise ValueError("max_order must be non-negative")
        if sound_speed <= 0:
            raise ValueError("sound speed must be positive")
        self.tank = tank
        self.max_order = max_order
        self.sound_speed = sound_speed
        self.frequency_hz = frequency_hz
        self.min_gain = min_gain

    # -- image enumeration --------------------------------------------------

    def _axis_images(
        self, coord: float, size: float, order: int
    ) -> Iterator[tuple[float, int]]:
        """Images of one coordinate across a pair of parallel boundaries.

        Yields ``(image_coordinate, bounce_count)``.  The standard image
        lattice for a 1-D box [0, size] is ``2*n*size + coord`` and
        ``2*n*size - coord`` for integer n; the bounce count is how many
        boundary crossings the unfolded path makes.
        """
        for n in range(-order, order + 1):
            # Even-parity image: 2nL + coord crosses the boundary pair 2|n|
            # times.  Odd-parity image: 2nL - coord crosses |2n - 1| times.
            yield 2.0 * n * size + coord, 2 * abs(n)
            yield 2.0 * n * size - coord, abs(2 * n - 1)

    def paths(self, source: Position, receiver: Position) -> list[Path]:
        """All propagation paths from ``source`` to ``receiver``.

        Paths are sorted by increasing delay; the first entry is always the
        direct path.
        """
        self.tank.validate_position(source, "source")
        self.tank.validate_position(receiver, "receiver")
        t = self.tank
        result: list[Path] = []
        x_images = list(self._axis_images(source.x, t.length, self.max_order))
        y_images = list(self._axis_images(source.y, t.width, self.max_order))
        z_images = list(self._axis_images(source.z, t.depth, self.max_order))
        for xi, bx in x_images:
            for yi, by in y_images:
                for zi, bz in z_images:
                    order = bx + by + bz
                    if order > 2 * self.max_order:
                        continue
                    dx = xi - receiver.x
                    dy = yi - receiver.y
                    dz = zi - receiver.z
                    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                    if dist < 1e-6:
                        continue
                    gain = self._path_gain(dist, bx, by, bz, zi)
                    if abs(gain) < self.min_gain:
                        continue
                    result.append(
                        Path(
                            delay_s=dist / self.sound_speed,
                            gain=gain,
                            distance_m=dist,
                            bounces=order,
                        )
                    )
        result.sort(key=lambda p: p.delay_s)
        return result

    def _path_gain(
        self, distance: float, bx: int, by: int, bz: int, z_image: float
    ) -> float:
        """Signed linear gain of one image path."""
        t = self.tank
        # Wall bounces in x and y are always "hard" boundaries.
        refl = t.wall_reflection ** (bx + by)
        # z bounces alternate between surface (pressure release, z=0 plane)
        # and floor (hard).  The unfolded lattice alternates starting from
        # whichever boundary is crossed first; we approximate by splitting
        # bz bounces as evenly as possible between surface and floor, with
        # the surface taking the extra bounce when the image sits above the
        # physical tank (negative or small z image coordinate).
        surface_bounces = bz // 2
        floor_bounces = bz // 2
        if bz % 2 == 1:
            if z_image < 0 or z_image % (2 * t.depth) < t.depth:
                surface_bounces += 1
            else:
                floor_bounces += 1
        refl *= t.surface_reflection**surface_bounces
        refl *= t.wall_reflection**floor_bounces
        spreading = 1.0 / max(distance, 1.0)
        absorb = 10.0 ** (
            -absorption_db(self.frequency_hz, distance) / 20.0
        )
        return refl * spreading * absorb

    # -- impulse response ----------------------------------------------------

    def impulse_response(
        self,
        source: Position,
        receiver: Position,
        sample_rate: float,
        *,
        max_delay_s: float | None = None,
    ) -> np.ndarray:
        """Discrete-time pressure impulse response (see
        :func:`impulse_response_from_paths`)."""
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        all_paths = self.paths(source, receiver)
        if max_delay_s is not None:
            all_paths = [p for p in all_paths if p.delay_s <= max_delay_s]
        return impulse_response_from_paths(all_paths, sample_rate)

    def channel_gain_at(
        self, source: Position, receiver: Position, frequency_hz: float
    ) -> complex:
        """Complex narrowband channel gain H(f) at one frequency."""
        return coherent_gain(self.paths(source, receiver), frequency_hz)

    def rms_gain(self, source: Position, receiver: Position) -> float:
        """Incoherent (power-sum) channel gain sqrt(sum |g_i|^2).

        The right magnitude for *energy* budgets: a harvesting node
        integrates power over the whole reverberant field, and in a real
        tank the arrival phases decorrelate (rough walls, drift), so the
        deterministic coherent sum of the image model would over- or
        under-state long-range harvesting at specific spots."""
        return power_sum_gain(self.paths(source, receiver))


def impulse_response_from_paths(paths, sample_rate: float) -> np.ndarray:
    """Discrete-time pressure impulse response over ``paths``, in order.

    Fractional delays are handled by linearly splitting each arrival
    between the two neighbouring samples, which preserves total energy
    to first order and keeps the model fast.  A caller that holds
    :meth:`ImageSourceModel.paths`' list gets
    :meth:`ImageSourceModel.impulse_response` bit for bit without
    enumerating the image lattice again.
    """
    if not paths:
        return np.zeros(1)
    last = max(p.delay_s for p in paths)
    n = int(math.ceil(last * sample_rate)) + 2
    h = np.zeros(n)
    for p in paths:
        pos = p.delay_s * sample_rate
        i = int(math.floor(pos))
        frac = pos - i
        h[i] += p.gain * (1.0 - frac)
        h[i + 1] += p.gain * frac
    return h


def coherent_gain(paths, frequency_hz: float) -> complex:
    """Narrowband gain H(f) = sum g_i exp(-j 2 pi f tau_i) over ``paths``, in order.

    A caller that holds :meth:`ImageSourceModel.paths`' list gets
    :meth:`ImageSourceModel.channel_gain_at` bit for bit without
    enumerating the image lattice again.
    """
    acc = 0.0 + 0.0j
    for p in paths:
        acc += p.gain * np.exp(-2j * math.pi * frequency_hz * p.delay_s)
    return acc


def power_sum_gain(paths) -> float:
    """Incoherent gain sqrt(sum |g_i|^2) over ``paths``, in order."""
    return math.sqrt(sum(p.gain**2 for p in paths))
