"""Blocks, boxes, cones and the renormalisation target regions.

The vectorised masks are checked on examples and against the scalar
membership oracles in oracles.py.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gosp.geometry import (
    BlockGeometry,
    TranslatedBlock,
    as_fraction,
    bg_target_blocks,
    block_mask,
    cone_mask,
)
from oracles import (
    block_contains,
    box_geometry,
    cone_contains,
    translated_block_contains as contains,
)


def _coords(site):
    return [np.int64(c) for c in site[:-1]], np.int64(site[-1])


def _in_block(g, site, offset=None) -> bool:
    """block_mask at one site."""
    return bool(block_mask(g, *_coords(site), offset=offset))


def _in_cone(lo, hi, site) -> bool:
    """cone_mask at one site."""
    return bool(cone_mask(lo, hi, *_coords(site)))


def test_block_contains_examples():
    assert _in_block(BlockGeometry((1,), 1, (0,)), (0, 0))
    g = BlockGeometry((2,), 3, (1,))
    assert _in_block(g, (3, 2))        # 3 - 2*1 = 1 in [-2, 2)
    assert not _in_block(g, (5, 2))    # 5 - 2 = 3 outside
    assert not _in_block(g, (0, 3))    # t range half-open


def test_box_equals_untilted_block():
    g = box_geometry(3, 2, 2)
    for x in range(-5, 5):
        for t in range(-1, 4):
            assert _in_block(g, (x, t)) == (-3 <= x < 3 and 0 <= t < 2)


def test_half_open_spatial_range():
    g = BlockGeometry((2,), 1, (0,))
    assert _in_block(g, (-2, 0))
    assert not _in_block(g, (2, 0))


def test_fractional_tilt_membership():
    g = BlockGeometry((1,), 4, (Fraction(1, 2),))
    # at t=3 the admissible x satisfy x - 3/2 in [-1, 1), i.e. x in {1, 2}
    assert [x for x in range(-2, 5) if _in_block(g, (x, 3))] == [1, 2]


def test_block_mask_matches_scalar():
    g = BlockGeometry((3,), 5, (Fraction(2, 3),))
    xs, ts = np.meshgrid(np.arange(-6, 10), np.arange(-2, 8), indexing="ij")
    mask = block_mask(g, [xs], ts)
    for x, t, m in zip(xs.ravel(), ts.ravel(), mask.ravel()):
        assert block_contains(g, (int(x), int(t))) == bool(m)


def test_translated_block_invariance():
    g = BlockGeometry((2,), 3, (Fraction(1, 2),))
    shift = (Fraction(5), Fraction(2))
    tb = TranslatedBlock(g, shift)
    for x in range(-5, 12):
        for t in range(-2, 8):
            assert bool(tb.mask(*_coords((x, t)))) == block_contains(g, (x - 5, t - 2))


def test_cone_contains_examples():
    assert _in_cone(-1, 1, (0, 5))
    assert not _in_cone(-1, 1, (6, 5))
    assert not _in_cone(-1, 1, (0, 0))     # t must be positive
    assert _in_cone("1/5", "3/5", (2, 5))
    assert _in_cone("1/5", "3/5", (1, 5))  # both ends are closed
    assert _in_cone("1/5", "3/5", (3, 5))
    assert not _in_cone("1/5", "3/5", (4, 5))


def test_cone_mask_matches_scalar():
    lo, hi = Fraction(-1, 3), Fraction(2, 3)
    xs, ts = np.meshgrid(np.arange(-5, 6), np.arange(0, 8), indexing="ij")
    mask = cone_mask(lo, hi, [xs], ts)
    for x, t, m in zip(xs.ravel(), ts.ravel(), mask.ravel()):
        assert cone_contains(lo, hi, (int(x), int(t))) == bool(m)


def test_bg_target_blocks_geometry():
    g = BlockGeometry((2,), 3, (0,))
    regions = bg_target_blocks(g)
    # targets centred at (+-4, 21) for v=0, w=2, h=3
    assert contains(regions.target_plus, (4, 21))
    assert contains(regions.target_minus, (-4, 21))
    assert not contains(regions.target_plus, (-4, 21))
    # envelope contains the source block
    for x in range(-6, 6):
        for t in range(0, 5):
            if contains(regions.source, (x, t)):
                assert contains(regions.envelope, (x, t))
    # targets are disjoint
    for x in range(-10, 10):
        for t in range(18, 26):
            assert not (
                contains(regions.target_plus, (x, t))
                and contains(regions.target_minus, (x, t))
            )


def test_as_fraction_parsing():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(2.0) == 2
    with pytest.raises(ValueError):
        as_fraction(0.3)


def test_invalid_block_rejected():
    with pytest.raises(ValueError):
        BlockGeometry((0,), 3, (0,))
    with pytest.raises(ValueError):
        BlockGeometry((2,), 0, (0,))
    with pytest.raises(ValueError):
        BlockGeometry((2, 2), 3, (0,))


@given(
    st.integers(1, 5), st.integers(1, 6),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.integers(-12, 12), st.integers(-2, 10),
)
def test_block_membership_translation_property(w, h, v, x, t):
    g = BlockGeometry((w,), h, (v,))
    # simultaneous integer translation of site and block leaves membership
    tb = TranslatedBlock(g, (Fraction(3), Fraction(2)))
    assert bool(tb.mask(*_coords((x + 3, t + 2)))) == block_contains(g, (x, t))
