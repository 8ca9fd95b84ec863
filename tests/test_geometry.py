"""Blocks, boxes, cones and the renormalisation target regions.

Every domain the engine runs is a box per time, ``domain(t) -> (lo, hi)``:
the boxes of blocks and cones, and of the shrinking cone of ``coupled_slab``
and the half-slab cut of ``half_slab_edges``, are checked site by site
against the scalar membership oracles in oracles.py and against the
definitions they stand for.
"""

import math
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import gosp.dynamics as dyn
from gosp.dynamics import coupled_slab, half_slab_edges
from gosp.geometry import (
    BlockGeometry,
    TranslatedBlock,
    as_fraction,
    bg_target_blocks,
    cone_box,
)
from conftest import ASYM3, DRIFT2, RANGE2, THREE_D, TWO_D_OP
from oracles import (
    block_contains,
    box_geometry,
    cone_contains,
    translated_block_contains as contains,
)


def _in(domain, site) -> bool:
    """Whether the box domain(t) holds x, for the site (*x, t)."""
    *x, t = site
    lo, hi = domain(t)
    return all(l <= c < h for l, c, h in zip(lo, x, hi))


def _block(g, offset=None):
    """The box domain of the block g, translated by ``offset`` if given."""
    return TranslatedBlock(g, offset or (0,) * (g.spatial_dim + 1)).box


def test_block_contains_examples():
    assert _in(_block(BlockGeometry((1,), 1, (0,))), (0, 0))
    g = BlockGeometry((2,), 3, (1,))
    assert _in(_block(g), (3, 2))        # 3 - 2*1 = 1 in [-2, 2)
    assert not _in(_block(g), (5, 2))    # 5 - 2 = 3 outside
    assert not _in(_block(g), (0, 3))    # t range half-open


def test_box_equals_untilted_block():
    g = box_geometry(3, 2, 2)
    for x in range(-5, 5):
        for t in range(-1, 4):
            assert _in(_block(g), (x, t)) == (-3 <= x < 3 and 0 <= t < 2)


def test_half_open_spatial_range():
    g = BlockGeometry((2,), 1, (0,))
    assert _in(_block(g), (-2, 0))
    assert not _in(_block(g), (2, 0))


def test_fractional_tilt_membership():
    g = BlockGeometry((1,), 4, (Fraction(1, 2),))
    # at t=3 the admissible x satisfy x - 3/2 in [-1, 1), i.e. x in {1, 2}
    assert TranslatedBlock(g, (0, 0)).box(3) == ((1,), (3,))
    assert [x for x in range(-2, 5) if _in(_block(g), (x, 3))] == [1, 2]


_q = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2), st.tuples(st.integers(1, 4), st.integers(1, 4)),
       st.integers(1, 5), st.tuples(_q, _q), st.tuples(_q, _q, _q))
@example(1, (3, 1), 5, (Fraction(2, 3), 0), (0, 0, 0))
@example(2, (2, 1), 3, (Fraction(-1, 2), Fraction(4, 3)),
         (Fraction(5, 2), -1, Fraction(7, 3)))
def test_block_box_matches_scalar(n, w, h, v, offset):
    # a block of d - 1 = n axes with rational tilt and offset: at every t
    # before, inside and after its time range, box(t) holds exactly the x
    # near it that translated_block_contains holds, and nothing beyond
    tb = TranslatedBlock(BlockGeometry(w[:n], h, v[:n]), offset[:n] + offset[-1:])
    o_t = tb.offset[-1]
    for t in range(math.floor(o_t) - 2, math.ceil(o_t) + h + 3):
        centre = [o + (t - o_t) * vi for o, vi in zip(tb.offset, tb.geometry.v)]
        near = [range(math.floor(c - wi) - 2, math.ceil(c + wi) + 3)
                for c, wi in zip(centre, tb.geometry.w)]
        lo, hi = tb.box(t)
        inside = [x for x in product(*near) if contains(tb, (*x, t))]
        assert all(_in(tb.box, (*x, t)) == (x in inside) for x in product(*near))
        if inside:
            assert [list(b) for b in (lo, hi)] == [
                [min(c) for c in zip(*inside)], [max(c) + 1 for c in zip(*inside)]]
        else:
            assert any(l >= u for l, u in zip(lo, hi))


def test_translated_block_invariance():
    g = BlockGeometry((2,), 3, (Fraction(1, 2),))
    shift = (Fraction(5), Fraction(2))
    tb = TranslatedBlock(g, shift)
    for x in range(-5, 12):
        for t in range(-2, 8):
            assert _in(tb.box, (x, t)) == block_contains(g, (x - 5, t - 2))


def test_cone_contains_examples():
    def in_cone(lo, hi, site):
        return _in(partial(cone_box, lo, hi), site)

    assert in_cone(-1, 1, (0, 5))
    assert not in_cone(-1, 1, (6, 5))
    assert not in_cone(-1, 1, (0, 0))     # t must be positive
    assert in_cone("1/5", "3/5", (2, 5))
    assert in_cone("1/5", "3/5", (1, 5))  # both ends are closed
    assert in_cone("1/5", "3/5", (3, 5))
    assert not in_cone("1/5", "3/5", (4, 5))


@settings(max_examples=100, deadline=None)
@given(_q, _q)
@example(Fraction(-1, 3), Fraction(2, 3))
@example(Fraction(1, 5), Fraction(3, 5))
@example(Fraction(1, 2), Fraction(1, 3))
def test_cone_box_matches_scalar(lo, hi):
    # at every t <= 0 the box is empty; at every t > 0 it holds exactly
    # the x near it that cone_contains holds, both ends closed, and is
    # empty when no x is (lo > hi included)
    for t in range(-3, 13):
        box = cone_box(lo, hi, t)
        a, b = sorted((lo * t, hi * t))
        near = range(math.floor(a) - 2, math.ceil(b) + 3)
        inside = [x for x in near if cone_contains(lo, hi, (x, t))]
        assert [x for x in near if _in(partial(cone_box, lo, hi), (x, t))] == inside
        if inside:
            assert box == ((inside[0],), (inside[-1] + 1,))
        else:
            assert box[0][0] >= box[1][0]


class _Captured(Exception):
    pass


def _run_domain(monkeypatch, fn, *args):
    """The domain that ``fn(*args)`` hands to ``batch_evolve``, which is
    not run."""
    seen = []

    def capture(*a, domain=None, **kw):
        seen.append(domain)
        raise _Captured

    monkeypatch.setattr(dyn, "batch_evolve", capture)
    with pytest.raises(_Captured):
        fn(*args)
    return seen[0]


@pytest.mark.parametrize("model", [TWO_D_OP, RANGE2, DRIFT2, THREE_D],
                         ids=["2dOP", "range2", "drift2", "3d"])
def test_shrinking_cone_box_matches_its_definition(monkeypatch, model):
    # coupled_slab's domain keeps a site (x, t_abs) that enters at step
    # k = t_abs - R + 1 iff, on every axis, some y of the window lies
    # within the moves of t - k hops from x
    d_s, t = model.d - 1, 6
    lo, hi = (-2,) * d_s, (3,) * (d_s - 1) + (4,)
    domain = _run_domain(monkeypatch, coupled_slab, model, [1], 0.5, t, (lo, hi))
    for k in range(1, t + 1):
        j, t_abs = t - k, k + model.R - 1
        moves = [(j * min(0, a), j * max(0, b))
                 for a, b in zip(model.spatial_min, model.spatial_max)]
        near = [range(l - 3 - j * 2, h + 3 + j * 2) for l, h in zip(lo, hi)]
        for x in product(*near):
            reach = all(any(m0 <= y - xa <= m1 for y in range(l, h))
                        for xa, l, h, (m0, m1) in zip(x, lo, hi, moves))
            assert _in(domain, (*x, t_abs)) == reach


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("model", [TWO_D_OP, ASYM3, RANGE2, DRIFT2],
                         ids=["2dOP", "asym3", "range2", "drift2"])
def test_half_slab_cut_box_matches_its_definition(monkeypatch, model, side):
    # the cut keeps a site (x, t_abs) entering at step k = t_abs - R + 1
    # iff the nearest omitted source s cannot reach x in k hops, and its
    # open side lies at or beyond every window the run can reach
    T, margin = 30, 0.2
    trunc = math.ceil(model.gamma * T * (1 + margin)) + 1
    domain = _run_domain(monkeypatch, half_slab_edges, model, [1], 0.8, side, T, margin)
    (down,), (up,) = model.spatial_min, model.spatial_max
    s = -trunc - 1 if side == "right" else trunc + 1
    for k in range(T + 1):
        (lo,), (hi,) = domain(k + model.R - 1)
        if side == "right":
            assert hi >= 1 + T * max(0, up)
            near = range(s - 2, s + k * max(0, up) + 4)
        else:
            assert lo <= T * min(0, down)
            near = range(s + k * min(0, down) - 3, s + 3)
        for x in near:
            unreached = (x - s > k * max(0, up) if side == "right"
                         else s - x > k * max(0, -down))
            assert (lo <= x < hi) == unreached


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
    assert _in(tb.box, (x + 3, t + 2)) == block_contains(g, (x, t))
