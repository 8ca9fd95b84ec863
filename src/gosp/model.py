"""Neighbourhood specification, validation and derived model constants.

A model is given by a finite set of step offsets in Z^d.  Validation checks
the standing normalisation assumptions (every offset points strictly forward
in time, the offsets generate all of Z^d) and derives the constants the
dynamics consume: the range ``R`` (slab width) and the spread ``gamma``
(maximal spatial displacement per unit time, an exact rational).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class ModelError(ValueError):
    """Base class for neighbourhood validation failures."""


class TooFewOffsets(ModelError):
    pass


class ZeroOffset(ModelError):
    pass


class NonPositiveTimeComponent(ModelError):
    def __init__(self, offset):
        self.offset = tuple(offset)
        super().__init__(
            f"offset {self.offset} has time component {self.offset[-1]} <= 0; "
            "every offset must point strictly forward in time"
        )


class ProperSublattice(ModelError):
    """The offsets generate a proper sublattice of Z^d.

    ``index`` is the sublattice index (``math.inf`` if the generated lattice
    is rank deficient).  The caller must re-index the lattice before using
    the model; no automatic re-coordinatisation is attempted.
    """

    def __init__(self, index):
        self.index = index
        super().__init__(
            f"offsets generate a proper sublattice of Z^d (index {index}); "
            "re-index the lattice and retry"
        )


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Raw neighbourhood: dimension and list of integer step offsets."""

    d: int
    offsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.d < 2:
            raise ModelError(f"dimension must be >= 2, got {self.d}")
        offs = tuple(tuple(int(c) for c in o) for o in self.offsets)
        for o in offs:
            if len(o) != self.d:
                raise ModelError(f"offset {o} does not have dimension {self.d}")
        if len(set(offs)) != len(offs):
            raise ModelError("offsets must be distinct")
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def from_mapping(cls, data) -> "NeighborhoodSpec":
        """Build from the model file layout ``{"d": 2, "X": [[-1,1],...]}``."""
        try:
            d = data["d"]
            raw = data["X"]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"model mapping must contain 'd' and 'X': {exc}") from exc
        return cls(d=int(d), offsets=tuple(tuple(int(c) for c in o) for o in raw))

    @classmethod
    def from_file(cls, path) -> "NeighborhoodSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(json.load(fh))


@dataclass(frozen=True)
class NormalizedModel:
    """A validated neighbourhood together with its derived constants.

    ``split_offsets`` lists each offset split into its spatial part ``y`` and
    time part ``u``, sorted lexicographically.  ``gamma`` is the exact
    rational spread max ||y||_inf / u.
    """

    spec: NeighborhoodSpec
    R: int
    gamma: Fraction
    split_offsets: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def d(self) -> int:
        return self.spec.d

    # cached in the instance __dict__, which the frozen dataclass's field-wise
    # __eq__ and __hash__ never read
    @cached_property
    def spatial_min(self) -> tuple[int, ...]:
        """Per-axis minimum spatial step over all offsets."""
        return tuple(
            min(y[i] for y, _ in self.split_offsets) for i in range(self.d - 1)
        )

    @cached_property
    def spatial_max(self) -> tuple[int, ...]:
        """Per-axis maximum spatial step over all offsets."""
        return tuple(
            max(y[i] for y, _ in self.split_offsets) for i in range(self.d - 1)
        )

    def dilation(self, t: int) -> int:
        """Spatial cone radius ceil(gamma * t): support after t steps stays
        within the initial support dilated by this much per axis."""
        return int(math.ceil(self.gamma * t))


def validate(spec: NeighborhoodSpec) -> NormalizedModel:
    """Check the normalisation invariants and derive R and gamma.

    Raises TooFewOffsets, ZeroOffset, NonPositiveTimeComponent or
    ProperSublattice when the input is not in normalised form.
    """
    offs = sorted(spec.offsets)
    if len(offs) < 2:
        raise TooFewOffsets(f"need at least 2 offsets, got {len(offs)}")
    origin = (0,) * spec.d
    if origin in offs:
        raise ZeroOffset("the origin is not a valid offset")
    for o in offs:
        if o[-1] <= 0:
            raise NonPositiveTimeComponent(o)
    k = lattice_index(spec)
    if k != 1:
        raise ProperSublattice(k)
    split = tuple((o[:-1], o[-1]) for o in offs)
    R = max(u for _, u in split)
    gamma = max(
        (Fraction(max((abs(c) for c in y), default=0), u) for y, u in split),
        default=Fraction(0),
    )
    return NormalizedModel(
        spec=NeighborhoodSpec(spec.d, tuple(offs)), R=R, gamma=gamma,
        split_offsets=split,
    )


def lattice_index(spec: NeighborhoodSpec):
    """Index of the integer lattice generated by the offsets inside Z^d.

    Computed exactly by integer row elimination (Hermite-style reduction of
    the generator matrix).  Returns ``math.inf`` when the generated lattice
    has rank < d.
    """
    d = spec.d
    rows = [list(o) for o in spec.offsets]
    pivot_row = 0
    pivots = []
    for col in range(d):
        # euclidean elimination in this column below pivot_row
        while True:
            nz = [i for i in range(pivot_row, len(rows)) if rows[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(rows[i][col]))
            rows[pivot_row], rows[i_min] = rows[i_min], rows[pivot_row]
            a = rows[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, len(rows)):
                q = rows[i][col] // a
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                if rows[i][col] != 0:
                    done = False
            if done:
                break
        if pivot_row < len(rows) and rows[pivot_row][col] != 0:
            pivots.append(abs(rows[pivot_row][col]))
            pivot_row += 1
    if len(pivots) < d:
        return math.inf
    index = 1
    for p in pivots:
        index *= p
    return index


def load_model(path) -> NormalizedModel:
    """Read and validate a model file."""
    return validate(NeighborhoodSpec.from_file(path))

