"""Reproducible product-Bernoulli random field on Z^d.

Every site carries a single uniform value derived by a counter-mode hash of
(seed, coordinates); a site is open iff that value falls below the open
probability.  There is no generator state and no sequencing, so queries are
pure and thread-schedule independent, and the single-uniform construction
gives an exact monotone coupling in p: raising p can only open more sites on
the same seed.

The mixer is the splitmix64 finalizer chained over the coordinates; its
identifier is recorded in run manifests so outputs are bit-reproducible
across machines.  Chaining gives the prefix identity

    site_hash(seed, [x_1, ..., x_d]) == mix(site_hash(seed, [x_1, ..., x_{d-1}])
                                            ^ (u64(x_d) * C + G))

(mix = ``_mix64``, C = ``_COORD_MUL``, G = ``_GOLDEN``, arithmetic mod 2^64),
so a hash over the spatial coordinates, which does not depend on time, can be
computed once and finished for each time by ``extend_hash`` with one mix.

``site_hash`` runs in numpy, the reference, except for a column of seeds
over a grid of coordinates, the shape of a ``BatchOpenness`` prefix table,
which the native kernel ``prefix_hash`` of ``gosp._openness`` hashes in
one call when its library is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _openness

MIXER_ID = "splitmix64-chain-v1"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_COORD_MUL = np.uint64(0xD6E8FEB86659FD93)
_MASK64 = (1 << 64) - 1

_TWO64 = 1 << 64


class FieldError(ValueError):
    pass


class SprinkleUnset(FieldError):
    pass


def _mix64(z):
    z = (z ^ (z >> _S30)) * _MUL1
    z = (z ^ (z >> _S27)) * _MUL2
    return z ^ (z >> _S31)


def _coord_key(c: int) -> int:
    """The key u64(c) * C + G with which a hash is extended by coordinate c."""
    return ((int(c) & _MASK64) * int(_COORD_MUL) + int(_GOLDEN)) & _MASK64


def extend_hash(prefix: np.ndarray, c: int) -> np.ndarray:
    """site_hash with the coordinate ``c`` appended to a prefix hash: a new
    array mix(prefix ^ (u64(c) * C + G)) of the prefix's shape."""
    out = prefix ^ np.uint64(_coord_key(c))
    out ^= out >> _S30
    out *= _MUL1
    out ^= out >> _S27
    out *= _MUL2
    out ^= out >> _S31
    return out


def open_mask(prefix: np.ndarray, t: int, threshold: int) -> np.ndarray:
    """Open mask of the shape of ``prefix``: site i of ``prefix`` is open at
    time t iff mix(prefix[i] ^ (u64(t) * C + G)) < threshold."""
    if prefix.dtype != np.uint64:
        raise TypeError(f"prefix hashes must be uint64, not {prefix.dtype}")
    return open_given_hash(extend_hash(prefix, t), threshold)


def _as_u64(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        if values.dtype == np.uint64:
            return values
        if values.dtype.kind in "iub":
            return values.astype(np.uint64)
        src = values
    else:
        # never let numpy infer a dtype here: python ints above 2**63 would
        # silently go through float64 and lose their low bits
        src = np.asarray(values, dtype=object)
    flat = np.asarray(
        [int(v) & _MASK64 for v in np.ravel(src)], dtype=np.uint64
    )
    return flat.reshape(np.shape(src))


def site_hash(seed, coords, stream: int = 0) -> np.ndarray:
    """64-bit hash of (seed, x_1, ..., x_d), vectorised over coordinates.

    ``coords`` is a sequence of d integer arrays (broadcastable against each
    other); ``seed`` may itself be an array for batched runs with distinct
    seeds.  ``stream`` selects an independent substream (used for the
    sprinkle field).

    A (B, 1, ..., 1) column of seeds over a grid, coordinate array a of
    shape (n_a, 1, ..., 1) spanning axis a of the d grid axes (the last d
    axes of the result), is hashed by the native ``prefix_hash`` when the
    library is loaded; every other call, and that one without the library,
    runs the numpy chain, which gives the same bits.
    """
    with np.errstate(over="ignore"):
        h = _mix64(_as_u64(seed) + _GOLDEN * np.uint64((stream + 1) & _MASK64))
        keys = (_as_u64(c) * _COORD_MUL + _GOLDEN for c in coords)
        if _openness._hash is not None and _is_grid(h, coords):
            return _openness.prefix_hash(h.ravel(), [k.ravel() for k in keys])
        for k in keys:
            h = _mix64(h ^ k)
    return h


def _is_grid(heads: np.ndarray, coords) -> bool:
    """Whether ``heads`` is a (B, 1, ..., 1) column with one axis per
    coordinate array, and coordinate array a an integer array of shape
    (n_a, 1, ..., 1) that spans axis a of the grid."""
    d = len(coords)
    return d > 0 and heads.shape[1:] == (1,) * d and all(
        isinstance(c, np.ndarray) and c.dtype.kind in "iu"
        and c.shape == (c.size,) + (1,) * (d - a - 1)
        for a, c in enumerate(coords))


def threshold_for(p: float) -> int:
    """Integer threshold T with site open iff hash < T; exact for the given
    double, and monotone in p.  Refuses NaN and p outside [0, 1]."""
    if not 0 <= p <= 1:
        raise FieldError(f"p must be in [0,1], got {p}")
    return int(Fraction(p) * _TWO64)


def open_given_hash(h: np.ndarray, threshold: int) -> np.ndarray:
    if threshold >= _TWO64:
        return np.ones(np.shape(h), dtype=bool)
    return h < np.uint64(threshold)


@dataclass(frozen=True)
class FieldSpec:
    """The configuration omega: seed, open probability, optional sprinkle.

    With ``sprinkle_eps`` set, an independent substream of extra open sites
    is available so that the sprinkled field, ``open_mask | extra_mask``, is
    Bernoulli(p + eps); the extra rate is eps/(1-p) so the composite marginal
    comes out at exactly p + eps while base-open still implies sprinkled-open
    on the same seed.
    """

    seed: int
    p: float
    sprinkle_eps: float | None = None

    def __post_init__(self):
        threshold_for(self.p)
        if self.sprinkle_eps is not None:
            if not 0.0 <= self.sprinkle_eps <= 1.0 - self.p:
                raise FieldError(
                    f"sprinkle_eps must be in [0, 1-p], got {self.sprinkle_eps}"
                )

    @property
    def _extra_rate(self) -> float:
        eps = self.sprinkle_eps
        if eps is None:
            raise SprinkleUnset("sprinkle_eps not set on this field")
        if eps == 0.0:
            return 0.0
        return float(Fraction(eps) / (1 - Fraction(self.p)))

    def open_mask(self, coords) -> np.ndarray:
        """Vectorised openness for sites given as d coordinate arrays."""
        h = site_hash(self.seed, coords)
        return open_given_hash(h, threshold_for(self.p))

    def extra_mask(self, coords) -> np.ndarray:
        """Only the extra open sites from the sprinkle substream."""
        extra_rate = self._extra_rate
        if extra_rate == 0.0:
            return np.zeros(np.broadcast_shapes(*(np.shape(c) for c in coords)),
                            dtype=bool)
        return open_given_hash(
            site_hash(self.seed, coords, stream=1), threshold_for(extra_rate)
        )

    def extra_open(self, site) -> bool:
        return bool(self.extra_mask([np.int64(c) for c in site]))


def spawn_seed(master_seed: int, index: int) -> int:
    """Derived per-replica seed; pure function of (master_seed, index)."""
    with np.errstate(over="ignore"):
        h = _mix64(_as_u64(master_seed) ^ _mix64(_as_u64(index) + _GOLDEN))
    return int(h)


def spawn_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Vectorised spawn_seed over the index range [start, stop)."""
    idx = np.arange(start, stop, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(_as_u64(master_seed) ^ _mix64(idx + _GOLDEN))
