"""Space-time regions: tilted blocks and cones.

At each time t every region here is an axis-aligned box of lattice sites,
which ``TranslatedBlock.box(t)`` and ``cone_box(lo, hi, t)`` return as
half-open integer bounds (lo, hi); these are the domains of the dynamics.
The bounds are exact: tilt vectors and offsets are rationals, and each bound
is a ceiling or floor of a rational, so no floating point enters any
membership decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Parse a rational from int, Fraction or a 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if value != int(value):
            raise ValueError(
                f"refusing float {value!r} for an exact coordinate; "
                "pass a Fraction or 'p/q' string"
            )
        return Fraction(int(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class BlockGeometry:
    """Tilted space-time block: t in [0, h), x - t*v in prod [-w_i, w_i)."""

    w: tuple[int, ...]
    h: int
    v: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(int(c) for c in self.w))
        object.__setattr__(self, "v", tuple(as_fraction(c) for c in self.v))
        if any(c <= 0 for c in self.w) or self.h <= 0:
            raise ValueError("block half-widths and height must be positive")
        if len(self.v) != len(self.w):
            raise ValueError("w and v must have the same dimension")

    @property
    def spatial_dim(self) -> int:
        return len(self.w)

    def scaled(self, w_factor: int, h_factor: int) -> "BlockGeometry":
        return BlockGeometry(
            tuple(w_factor * c for c in self.w), h_factor * self.h, self.v
        )


def cone_box(lo, hi, t: int):
    """The sites x of the cone over the interval [lo, hi] at time t, where
    t > 0 and lo*t <= x <= hi*t, as the half-open box
    ((ceil(lo*t),), (floor(hi*t) + 1,)); empty at t <= 0."""
    if t <= 0:
        return (0,), (0,)
    return (math.ceil(as_fraction(lo) * t),), (math.floor(as_fraction(hi) * t) + 1,)


@dataclass(frozen=True)
class TranslatedBlock:
    """A block translated by a rational space-time vector."""

    geometry: BlockGeometry
    offset: tuple[Fraction, ...]

    def box(self, t: int):
        """The sites x of the block at time t, where x - o - (t - o_t) * v
        lies in prod [-w_i, w_i) for the offset (o, o_t), as the half-open
        box (lo, hi) with lo = ceil(c - w), hi = ceil(c + w) per axis about
        the centre c = o + (t - o_t) * v; empty when t - o_t lies outside
        [0, h)."""
        g, (*o, o_t) = self.geometry, self.offset
        s = t - o_t
        if not 0 <= s < g.h:
            return (0,) * len(o), (0,) * len(o)
        centre = [oi + s * vi for oi, vi in zip(o, g.v)]
        return (tuple(math.ceil(c - w) for c, w in zip(centre, g.w)),
                tuple(math.ceil(c + w) for c, w in zip(centre, g.w)))


@dataclass(frozen=True)
class RenormalisationRegions:
    """Source block, the two displaced target blocks and their envelope."""

    source: TranslatedBlock
    target_plus: TranslatedBlock
    target_minus: TranslatedBlock
    envelope: TranslatedBlock


def bg_target_blocks(g: BlockGeometry) -> RenormalisationRegions:
    """Target blocks displaced by 7h along the tilt axis and +-2 w_{d-1}
    sideways, together with the envelope block of 4x the width and 8x the
    height."""
    d_s = g.spatial_dim
    zero = (Fraction(0),) * (d_s + 1)
    time_shift = tuple(vi * (7 * g.h) for vi in g.v) + (Fraction(7 * g.h),)
    side = [Fraction(0)] * (d_s + 1)
    side[d_s - 1] = Fraction(2 * g.w[d_s - 1])
    plus = tuple(a + b for a, b in zip(time_shift, side))
    minus = tuple(a - b for a, b in zip(time_shift, side))
    return RenormalisationRegions(
        source=TranslatedBlock(g, zero),
        target_plus=TranslatedBlock(g, plus),
        target_minus=TranslatedBlock(g, minus),
        envelope=TranslatedBlock(g.scaled(4, 8), zero),
    )
