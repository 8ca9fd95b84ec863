"""Space-time regions: tilted blocks and cones.

All membership tests are exact: tilt vectors are restricted to rationals and
decisions reduce to integer comparisons, so no floating point enters any
membership decision.  The masks operate on numpy integer arrays and are used
by the dynamics for domain restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


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


def block_mask(
    g: BlockGeometry,
    coords: Sequence[np.ndarray],
    t,
    offset: Sequence[Fraction] | None = None,
) -> np.ndarray:
    """Vectorised block membership for sites (coords, t) - offset.

    ``offset`` is a rational space-time translation of the block; ``t`` may
    be a scalar or an array broadcastable against the coordinate arrays.
    """
    d = g.spatial_dim + 1
    off = (
        tuple(as_fraction(c) for c in offset)
        if offset is not None
        else (Fraction(0),) * d
    )
    t_rel_num = np.asarray(t, dtype=np.int64) * off[-1].denominator - off[-1].numerator
    # t - off_t in [0, h)
    out = (t_rel_num >= 0) & (t_rel_num < g.h * off[-1].denominator)
    for xi, wi, vi, oi in zip(coords, g.w, g.v, off):
        # (xi - oi) - (t - ot) * vi in [-wi, wi), all over a common denominator
        num = (
            (np.asarray(xi, dtype=np.int64) * oi.denominator - oi.numerator)
            * (vi.denominator * off[-1].denominator)
            - t_rel_num * (vi.numerator * oi.denominator)
        )
        scale = wi * vi.denominator * oi.denominator * off[-1].denominator
        out = out & (num >= -scale) & (num < scale)
    return out


def cone_mask(lo, hi, coords: Sequence[np.ndarray], t) -> np.ndarray:
    """Vectorised membership of (x, t) in the cone over the interval
    [lo, hi]: t > 0 and lo*t <= x <= hi*t, cleared of denominators."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    (x,) = (np.asarray(c, dtype=np.int64) for c in coords)
    t = np.asarray(t, dtype=np.int64)
    return ((t > 0) & (x * lo.denominator >= t * lo.numerator)
            & (x * hi.denominator <= t * hi.numerator))


@dataclass(frozen=True)
class TranslatedBlock:
    """A block translated by a rational space-time vector."""

    geometry: BlockGeometry
    offset: tuple[Fraction, ...]

    def mask(self, coords, t) -> np.ndarray:
        return block_mask(self.geometry, coords, t, offset=self.offset)


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
