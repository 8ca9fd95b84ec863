"""Shared models and helpers for the suite."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gosp import _openness
from gosp.model import NeighborhoodSpec, validate

# 2dOP in normalised coordinates (the symmetric {-1,+1} steps generate a
# proper sublattice; this is the re-indexed form with drift 1/2)
TWO_D_OP = validate(NeighborhoodSpec(d=2, offsets=((0, 1), (1, 1))))

# asymmetric three-point model whose crossing paths need not share vertices
ASYM3 = validate(NeighborhoodSpec(d=2, offsets=((-1, 1), (0, 1), (2, 1))))

# symmetric three-point model: zero drift, planar
SYM3 = validate(NeighborhoodSpec(d=2, offsets=((-1, 1), (0, 1), (1, 1))))

# range-2 model mixing time steps
RANGE2 = validate(NeighborhoodSpec(d=2, offsets=((0, 1), (1, 2))))

# a three-dimensional model
THREE_D = validate(
    NeighborhoodSpec(d=3, offsets=((0, 0, 1), (1, 0, 1), (0, 1, 1)))
)

MODEL_POOL = [TWO_D_OP, ASYM3, SYM3, RANGE2, THREE_D]

# every step to the right, so the spatial steps do not straddle 0: in t
# steps influence moves between 0 and t sites, not exactly t (kept out of
# MODEL_POOL, whose instances the acceptance criteria draw)
DRIFT2 = validate(NeighborhoodSpec(d=2, offsets=((1, 1), (1, 2))))


@pytest.fixture
def two_d_op():
    return TWO_D_OP


@pytest.fixture
def asym3():
    return ASYM3


@pytest.fixture
def sym3():
    return SYM3


def snapshot_sites(state) -> set:
    """Occupied slab sites (x_1, ..., x_{d-1}, s) of replica 0 of a
    BatchState, as a set of tuples."""
    return {
        tuple(int(a + c) for a, c in zip(state.anchor, x)) + (int(s),)
        for s, *x in zip(*np.nonzero(state.rows[0]))
    }


def model_file(tmp_path, model) -> str:
    import json

    path = tmp_path / "model.json"
    spec = {"d": model.d, "X": [list(o) for o in model.spec.offsets]}
    path.write_text(json.dumps(spec) + "\n")
    return str(path)


@contextmanager
def numpy_path():
    """Run the numpy reference of all three native kernels inside the
    block."""
    saved = _openness._hash, _openness._step, _openness._torus
    _openness._hash = _openness._step = _openness._torus = None
    try:
        yield
    finally:
        _openness._hash, _openness._step, _openness._torus = saved
