"""Slab chain, dual chain, reachability, probes and truncations.

The engine is checked against the naive set-based references in oracles.py
on every model of the shared pool, plus exact deterministic examples at
p = 0 and p = 1.  Truncations are also checked on DRIFT2, whose spatial
steps do not straddle 0, and reachability on randomly drawn models.
Compaction is checked against single-replica runs, observers that write
through ``state.index`` against the runs of each seed alone, and every run
against the rule that a step steps only the replicas alive before it; the
occupancy reductions are checked against plain numpy.
"""

import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gosp.dynamics as dyn
import gosp.estimators as est
import oracles
from conftest import (
    ASYM3, DRIFT2, MODEL_POOL, RANGE2, SYM3, THREE_D, TWO_D_OP, numpy_path,
    snapshot_sites,
)
from gosp.cli import _rle_encode, _snapshot_records
from gosp.dynamics import (
    BatchOpenness,
    OutsideSlab,
    TorusTooSmall,
    TruncationUncertified,
    batch_evolve,
    coupled_slab,
    dual_evolve,
    dual_reaches,
    evolve,
    half_slab_edges,
    reaches,
    rows_from_sites,
    slab_window_rows,
    torus_extinction_batch,
)
from gosp.field import FieldSpec, open_mask, site_hash, spawn_seeds
from gosp.geometry import BlockGeometry, TranslatedBlock
from gosp.model import ModelError, NeighborhoodSpec, validate


def _ids(model):
    return str(model.spec.offsets)


def _starts(model):
    d_s = model.d - 1
    return [(0,) * d_s + (0,), (1,) + (0,) * (d_s - 1) + (0,)]


# ---------------------------------------------------------------------------
# initial states and single steps

def test_initial_state_keeps_closed_sites():
    # the start set is the state at time 0; openness is never consulted there
    f = FieldSpec(seed=1, p=0.0)
    traj = evolve([(0, 0), (3, 0)], TWO_D_OP, f, 0, snapshot_times=[0])
    assert snapshot_sites(traj.snapshots[0]) == {(0, 0), (3, 0)}


def test_initial_state_empty_and_invalid():
    _, rows = rows_from_sites(TWO_D_OP, [])
    assert rows.shape == (1, 0) and not rows.any()
    with pytest.raises(OutsideSlab):
        rows_from_sites(TWO_D_OP, [(0, 1)])      # slab has R = 1 rows
    with pytest.raises(OutsideSlab):
        rows_from_sites(TWO_D_OP, [(0, 0, 0)])


def test_evolve_empty_start_is_extinct_at_zero():
    f = FieldSpec(seed=1, p=1.0)
    res = evolve([], TWO_D_OP, f, 5)
    assert res.extinction.tolist() == [0]
    assert not res.alive_at_T[0]


def test_evolve_p_zero_dies_in_one_step():
    f = FieldSpec(seed=1, p=0.0)
    res = evolve([(0, 0)], TWO_D_OP, f, 5, snapshot_times=[0, 1])
    assert res.extinction.tolist() == [1]
    assert snapshot_sites(res.snapshots[0]) == {(0, 0)}
    assert snapshot_sites(res.snapshots[1]) == set()


def test_step_p1_matches_sumset():
    f = FieldSpec(seed=7, p=1.0)
    for model in (TWO_D_OP, ASYM3, THREE_D):
        d_s = model.d - 1
        traj = evolve([(0,) * d_s + (0,)], model, f, 8,
                      snapshot_times=range(1, 9))
        for t in range(1, 9):
            got = {s[:-1] for s in snapshot_sites(traj.snapshots[t])}
            assert got == oracles.sumset(model, t)


# ---------------------------------------------------------------------------
# the observer hook of the batched engine

def _hook_run(**kw):
    # replica b of three starts at x = b; at p = 1 it occupies [b, b + t]
    rows = np.zeros((3, 1, 3), dtype=bool)
    for b in range(3):
        rows[b, 0, b] = True
    return batch_evolve(TWO_D_OP, [1, 2, 3], 1.0, 6, init=((0,), rows), **kw)


def test_observer_sees_live_rows_and_ends_returned_rows():
    # the hook sees the live replicas through state.index; the row it
    # returns at t = 3 ends replica 1 there
    seen = []

    def hook(t, state):
        seen.append(t)
        assert state.index.tolist() == ([0, 2] if t > 3 else [0, 1, 2])
        for b, row in zip(state.index, state.rows):
            occ = np.flatnonzero(row[0]) + state.anchor[0]
            assert list(occ) == list(range(b, b + t + 1))
        if t == 3:
            return state.index == 1

    res = _hook_run(per_step=hook, snapshot_times=[3])
    assert seen == list(range(7))
    assert list(res.extinction) == [-1, 3, -1]
    assert list(res.alive_at_T) == [True, False, True]
    snap = res.snapshots[3].rows                  # taken after the hook
    assert snap.shape[0] == 3 and not snap[1].any() and snap[[0, 2]].any(axis=(1, 2)).all()
    # row numbers or a scalar in place of a mask are refused
    for bad in (np.array([1]), True, np.zeros(2, dtype=bool)):
        with pytest.raises(ValueError, match="None or a bool mask of the 3 rows"):
            _hook_run(per_step=lambda t, state, bad=bad: bad)


# ---------------------------------------------------------------------------
# oracle agreement

@pytest.mark.parametrize("model", MODEL_POOL, ids=lambda m: str(m.spec.offsets))
def test_evolve_matches_slab_oracle(model):
    for seed in (11, 12, 13):
        f = FieldSpec(seed=seed, p=0.6)
        traj = evolve(_starts(model), model, f, 6, snapshot_times=[3, 6])
        for t in (3, 6):
            want = oracles.slab_state(model, f, _starts(model), t)
            assert snapshot_sites(traj.snapshots[t]) == want


def test_evolve_nonzero_start_time():
    f = FieldSpec(seed=5, p=0.6)
    traj = evolve([(0, 0)], TWO_D_OP, f, 5, t0=10, snapshot_times=[5])
    want = oracles.slab_state(TWO_D_OP, f, [(0, 0)], 5, t0=10)
    assert snapshot_sites(traj.snapshots[5]) == want


@pytest.mark.parametrize("model", MODEL_POOL, ids=lambda m: str(m.spec.offsets))
def test_dual_evolve_matches_oracle(model):
    for seed in (21, 22, 23):
        f = FieldSpec(seed=seed, p=0.7)
        traj = dual_evolve(_starts(model), model, f, 5, snapshot_times=[2, 5])
        for t in (2, 5):
            want = oracles.dual_slab_state(model, f, _starts(model), t)
            assert snapshot_sites(traj.snapshots[t]) == want


def test_dual_closed_start_dies_immediately():
    # dual extension requires the source site itself to be open
    f = FieldSpec(seed=0, p=0.0)
    res = dual_evolve([(0, 0)], TWO_D_OP, f, 3)
    assert res.extinction.tolist() == [1]


def test_dual_p1_reflected_sumset():
    f = FieldSpec(seed=3, p=1.0)
    traj = dual_evolve([(0, 0)], ASYM3, f, 4, snapshot_times=[4])
    got = {s[:-1] for s in snapshot_sites(traj.snapshots[4])}
    want = {tuple(-c for c in x) for x in oracles.sumset(ASYM3, 4)}
    assert got == want


@pytest.mark.parametrize("model", [TWO_D_OP, ASYM3, RANGE2, DRIFT2], ids=_ids)
def test_reaches_matches_path_oracle(model):
    a = (0, 0)
    for seed in (31, 32):
        f = FieldSpec(seed=seed, p=0.6)
        for x in range(-8, 9):
            for t in range(0, 5):
                b = (x, t)
                assert reaches(a, b, model, f) == oracles.path_exists(model, f, a, b)


@pytest.mark.parametrize("model", [TWO_D_OP, ASYM3, RANGE2, DRIFT2], ids=_ids)
def test_dual_reaches_matches_dual_oracle(model):
    a = (0, 0)
    # up to t = 6, where on DRIFT2 dual paths through open u = 2 hops occur
    for seed in (41, 42):
        f = FieldSpec(seed=seed, p=0.6)
        for x in range(-8, 9):
            for t in range(0, 7):
                b = (x, t)
                got = dual_reaches(b, a, model, f)
                assert got == oracles.dual_path_exists(model, f, b, a)


def test_only_the_path_start_is_exempt_from_the_domain():
    # at p = 1 a domain empty only at the start's time leaves the path
    # (0, 0) -> (1, 2) alone in both chains, and one empty only at its
    # end's time cuts it
    f = FieldSpec(seed=1, p=1.0)

    def empty_at(t_empty):
        return lambda t: ((5,), (5,)) if t == t_empty else ((-50,), (50,))

    for t_empty, want in ((0, True), (2, False)):
        domain = empty_at(t_empty)
        assert reaches((0, 0), (1, 2), TWO_D_OP, f, domain=domain) is want
        assert dual_reaches((1, 2), (0, 0), TWO_D_OP, f, domain=domain) is want


@st.composite
def _drawn_models(draw):
    """Valid d = 2 models of 2-3 offsets (y, u), |y| <= 2, 1 <= u <= 3."""
    offsets = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 3)),
                            min_size=2, max_size=3, unique=True))
    try:
        return validate(NeighborhoodSpec(d=2, offsets=tuple(offsets)))
    except ModelError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(_drawn_models(), st.integers(0, 2**32 - 1), st.floats(0.6, 1.0))
def test_reaches_matches_oracles_on_drawn_models(model, seed, p):
    # fixed model lists all have steps straddling 0; drawn ones need not
    f = FieldSpec(seed=seed, p=p)
    a = (0, 0)
    for x in range(-6, 7):
        for t in range(1, 5):
            b = (x, t)
            assert reaches(a, b, model, f) == oracles.path_exists(model, f, a, b)
            assert dual_reaches(b, a, model, f) == oracles.dual_path_exists(
                model, f, b, a)


def test_duality_identity():
    # a path forwards is a dual path backwards through the same open sites,
    # and a domain binds the same sites of both, also where its box moves
    # with t
    tilted = TranslatedBlock(BlockGeometry((2,), 20, (Fraction(1, 2),)),
                             (Fraction(0), Fraction(0))).box   # x - t/2 in [-2, 2)
    for model in (TWO_D_OP, ASYM3, RANGE2):
        for seed in (51, 52):
            f = FieldSpec(seed=seed, p=0.6)
            for dom in (None, _untilted(1, 3), tilted):       # x in [-2, 4)
                for x in range(-6, 7):
                    for t in range(0, 5):
                        assert reaches((0, 0), (x, t), model, f, dom) == dual_reaches(
                            (x, t), (0, 0), model, f, dom)


def _untilted(centre, w, h=20):
    """Domain of the untilted block [centre - w, centre + w) x [0, h)."""
    g = BlockGeometry((w,), h, (0,))
    return TranslatedBlock(g, (Fraction(centre), Fraction(0))).box


def test_reaches_respects_domain():
    f = FieldSpec(seed=2, p=1.0)
    # at p = 1 the origin reaches (3, 3); a tube cut at x < 2 blocks it
    assert reaches((0, 0), (3, 3), TWO_D_OP, f)
    dom = _untilted(-2, 4)                  # x in [-6, 2)
    assert not reaches((0, 0), (3, 3), TWO_D_OP, f, domain=dom)
    assert reaches((0, 0), (1, 3), TWO_D_OP, f, domain=dom)


def test_reaches_with_shifted_start_times():
    # starts anywhere in time, gaps shorter than R and negative included
    rng = np.random.default_rng(71)
    for _ in range(400):
        model = [*MODEL_POOL, DRIFT2][rng.integers(len(MODEL_POOL) + 1)]
        f = FieldSpec(seed=int(rng.integers(2**32)), p=float(rng.uniform(0.5, 1.0)))
        d_s = model.d - 1
        a_t = int(rng.integers(-7, 8))
        a = tuple(int(c) for c in rng.integers(-2, 3, d_s)) + (a_t,)
        b = (tuple(int(c) for c in rng.integers(-6, 7, d_s))
             + (a_t + int(rng.integers(-1, 7)),))
        assert reaches(a, b, model, f) == oracles.path_exists(model, f, a, b)
        assert dual_reaches(b, a, model, f) == oracles.dual_path_exists(
            model, f, b, a)


def test_reachability_is_one_engine_run(monkeypatch):
    # each query is one one-replica batch_evolve run, not a search of its own
    calls = []

    def counted(model, seeds, *args, **kwargs):
        calls.append(len(seeds))
        return batch_evolve(model, seeds, *args, **kwargs)

    monkeypatch.setattr(dyn, "batch_evolve", counted)
    f = FieldSpec(seed=5, p=0.7)
    for model in (TWO_D_OP, RANGE2, THREE_D):
        d_s = model.d - 1
        a = (0,) * (d_s + 1)
        for t in range(4):
            b = (1,) + (0,) * (d_s - 1) + (t,)
            for query, args in ((reaches, (a, b)), (dual_reaches, (b, a))):
                calls.clear()
                query(*args, model, f)
                assert calls == [1]


# ---------------------------------------------------------------------------
# hit and coupled regions

@st.composite
def _box_reads(draw):
    """(anchor, rows, box): rows with 0-2 leading axes over d - 1 in {1, 2}
    spatial axes, some of extent 0, and a box drawn near them, which may
    contain them, lie inside them, overlap them, miss them or be empty."""
    d_s = draw(st.sampled_from([1, 2]))
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    ext = draw(st.lists(st.integers(0, 4), min_size=d_s, max_size=d_s))
    anchor = draw(st.lists(st.integers(-4, 4), min_size=d_s, max_size=d_s))
    n = math.prod(lead + ext)
    rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=bool).reshape(lead + ext)
    lo = draw(st.lists(st.integers(-9, 9), min_size=d_s, max_size=d_s))
    hi = [l + draw(st.integers(-2, 9)) for l in lo]
    return tuple(anchor), rows, (tuple(lo), tuple(hi))


_FULL = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)


@settings(max_examples=300, deadline=None)
@given(_box_reads())
@example(((2,), _FULL, ((0,), (7,))))          # contains the rows
@example(((2,), _FULL, ((3,), (4,))))          # inside them
@example(((2,), _FULL, ((3,), (9,))))          # overlaps them
@example(((2,), _FULL, ((-4,), (2,))))         # misses them
@example(((2,), _FULL, ((4,), (4,))))          # empty
@example(((2,), _FULL, ((4,), (1,))))          # empty, hi < lo
@example(((0, 0), np.zeros((2, 0, 3), dtype=bool), ((-1, -1), (2, 2))))
def test_on_box_matches_per_cell_reference(read):
    # each cell x of the box reads the rows' cell x - anchor, unset outside
    # them, with the leading axes kept and no cell on an empty box
    anchor, rows, (lo, hi) = read
    lead = rows.shape[:rows.ndim - len(lo)]
    shape = tuple(max(h - l, 0) for l, h in zip(lo, hi))
    got = dyn._on_box(anchor, rows, (lo, hi))
    assert got.dtype == bool and got.shape == lead + shape
    for idx in np.ndindex(*lead, *shape):
        cell = [l + c - a for l, c, a in zip(lo, idx[len(lead):], anchor)]
        inside = all(0 <= c < e for c, e in zip(cell, rows.shape[len(lead):]))
        assert got[idx] == (inside and rows[idx[:len(lead)] + tuple(cell)])


def test_hit_coupled_at_time_zero():
    # before any step the slab run is its start: the whole window, every row
    for model in (TWO_D_OP, RANGE2):
        xi = coupled_slab(model, [9], 0.8, 0, ((-3,), (4,)))
        assert xi.shape == (1, model.R, 7) and xi.all()


def test_hit_coupled_p1_window_saturates():
    # at p = 1 the 2dOP origin run covers [0, t], hitting x at step x, and
    # the slab run covers the window, so H and K agree on row 0 exactly on
    # [0, t]; no site left of 0 is ever hit
    for t in (6, 13):
        item = (0.0, 1.0, (0, t), {(-1.0,): None, (1.0,): 1.0})
        for T_cond in (1, t, t + 5):
            got = est._shape_chunk(spawn_seeds(2, 0, 3), TWO_D_OP, 1.0, t,
                                   T_cond, (2, 3, 4))
            assert got == [item] * 3


@pytest.mark.parametrize("p", [0.0, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("model", [m for m in MODEL_POOL if m.d == 2] + [DRIFT2],
                         ids=_ids)
def test_hit_coupled_batch_matches_single_runs(model, p):
    # each row of a batched slab run, and each item of a batched shape
    # chunk, equals the B = 1 call on its seed, for batches that mix origin
    # runs dying early with runs alive at t
    t = 30
    window = dyn.dependency_cone(model, (-1,), (2,), t)
    pool = spawn_seeds(33, 0, 2000)
    ext = batch_evolve(model, pool, p, t).extinction
    early = (ext > 0) & (ext < t)
    died, rest = np.flatnonzero(early)[:6], np.flatnonzero(~early)[:10]
    assert len(died) == (0 if p == 1 else 6)
    assert p < 0.8 or (len(rest) == 10 and (ext[rest] < 0).all())
    seeds = pool[np.sort(np.concatenate([died, rest]))]
    xi = coupled_slab(model, seeds, p, t, window)
    assert xi.shape == (len(seeds), model.R, window[1][0] - window[0][0])
    args = (model, p, t, t // 2, (6, 8, 10, 12, 14))
    items = est._shape_chunk(seeds, *args)
    for b in range(len(seeds)):
        one = seeds[b:b + 1]
        assert np.array_equal(xi[b], coupled_slab(model, one, p, t, window)[0])
        assert [items[b]] == est._shape_chunk(one, *args)


@pytest.mark.parametrize("model", [m for m in MODEL_POOL if m.d == 2] + [DRIFT2],
                         ids=_ids)
def test_hit_coupled_slab_run_matches_a_wider_window(model):
    # the slab run from the cone of the window, restricted to the cone
    # shrinking with the steps left, equals on the window an unrestricted
    # run from a slab window 100 sites wider on each side than any cone
    t, lo, hi = 40, -10, 11
    reach = t * max(abs(y[0]) for y, _ in model.split_offsets) + 100
    for p in (0.7, 0.8):
        xi = coupled_slab(model, list(range(5)), p, t, ((lo,), (hi,)))
        for seed in range(5):
            wide = batch_evolve(
                model, [seed], p, t, snapshot_times=[t],
                init=slab_window_rows(model, (lo - reach,), (hi + reach,)),
            ).snapshots[t]
            got = {(lo + int(x), int(s)) for s, x in zip(*np.nonzero(xi[seed]))}
            want = {(int(wide.anchor[0] + x), int(s))
                    for s, x in zip(*np.nonzero(wide.rows[0]))}
            assert got == {(x, s) for x, s in want if lo <= x < hi}


# ---------------------------------------------------------------------------
# edge processes

def _edge_track(model, p, side, T, margin=0.2):
    """Certified frontier of one half-slab run, seed 8."""
    return half_slab_edges(model, [8], p, side, T, margin)[0].tolist()


def test_edge_track_p1_examples():
    assert _edge_track(ASYM3, 1.0, "right", 6) == [2 * t for t in range(7)]
    assert _edge_track(ASYM3, 1.0, "left", 6) == [-t for t in range(7)]
    assert _edge_track(TWO_D_OP, 1.0, "right", 6) == list(range(7))
    assert _edge_track(TWO_D_OP, 1.0, "left", 6) == [0] * 7


def test_edge_track_speed_bound():
    for t, v in enumerate(_edge_track(TWO_D_OP, 0.8, "right", 40)):
        assert v <= TWO_D_OP.gamma * t


def test_edge_track_refuses_dead_frontier():
    # at p = 0 the truncated half slab dies at step 1; an empty frontier
    # certifies nothing about the infinite half slab
    with pytest.raises(TruncationUncertified):
        _edge_track(TWO_D_OP, 0.0, "right", 10)


@pytest.mark.parametrize("side", ["left", "right"])
def test_edge_track_refuses_too_narrow_truncation(side):
    # margin -0.9 keeps a tenth of the needed half slab: the frontier, slower
    # than the cone at p = 0.8, falls within reach of the omitted sources
    with pytest.raises(TruncationUncertified):
        _edge_track(TWO_D_OP, 0.8, side, 300, margin=-0.9)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("model", [TWO_D_OP, ASYM3, SYM3, RANGE2, DRIFT2], ids=_ids)
def test_half_slab_cut_changes_no_frontier(monkeypatch, model, side):
    # the run without the cut of the omitted sources' cone certifies the
    # same frontiers, and refuses at the same replica and step when the
    # margin is too small; the cut's box drops sites of the new row's
    # window at most steps
    seeds = spawn_seeds(11, 0, 6)
    cut, step, dropped = dyn._half_slab_cut, dyn._batch_step, []

    def counting_step(state, m, openness, domain, t0):
        if domain is not None:
            # the new row's window, and the part of it the box keeps
            (mn,), (mx,) = m.spatial_min, m.spatial_max
            lo = state.anchor[0] + mn
            hi = lo + state.rows.shape[2] + mx - mn
            (c_lo,), (c_hi,) = domain(t0 + state.t + m.R)
            dropped.append(hi - lo - max(0, min(hi, c_hi) - max(lo, c_lo)))
        return step(state, m, openness, domain, t0)

    monkeypatch.setattr(dyn, "_batch_step", counting_step)

    def edges(margin, make_cut):
        monkeypatch.setattr(dyn, "_half_slab_cut", make_cut)
        try:
            return half_slab_edges(model, seeds, 0.75, side, 60, margin)
        except TruncationUncertified as exc:
            return str(exc)

    for margin in (0.2, -0.9):
        dropped.clear()
        got, ref = edges(margin, cut), edges(margin, lambda *args: None)
        assert type(got) is type(ref) and np.array_equal(got, ref)
        assert np.count_nonzero(dropped) > len(dropped) / 2
    assert isinstance(got, str) and "is not certified" in got


@pytest.mark.parametrize("side, message", [
    ("right", "right frontier of replica 3 at step 28 is not certified by the "
              "truncation at 91 (margin 0.5)"),
    ("left", "left frontier of replica 1 at step 40 is not certified by the "
             "truncation at 91 (margin 0.5)"),
], ids=["right", "left"])
def test_edge_refusal_names_the_replica_that_died(side, message):
    # at p = 0.6 the half slab dies out: of five replicas, replica 3 (right)
    # or 1 (left) dies first while the others are certified.  The refusal
    # names it and its step, as the run that stepped every dead row did
    seeds = spawn_seeds(0, 0, 5)
    for path in (contextlib.nullcontext, numpy_path):
        with path(), pytest.raises(TruncationUncertified) as exc:
            half_slab_edges(TWO_D_OP, seeds, 0.6, side, 60, 0.5)
        assert str(exc.value) == message


def _counted_attempts(monkeypatch):
    """The unwrapped ``_half_slab_attempt`` and the log of (trunc, outcome)
    of each attempt that ``half_slab_edges`` makes: 'certified', 'predicted'
    (ended by the extrapolation) or 'uncertified'."""
    attempt, log = dyn._half_slab_attempt, []

    def counting(model, seeds, p, side, T, trunc, *args, **kwargs):
        try:
            edges = attempt(model, seeds, p, side, T, trunc, *args, **kwargs)
        except TruncationUncertified as exc:
            log.append((trunc, "predicted" if "predict" in str(exc)
                        else "uncertified"))
            raise
        log.append((trunc, "certified"))
        return edges

    monkeypatch.setattr(dyn, "_half_slab_attempt", counting)
    return attempt, log


def _edges_or_refusal(run):
    try:
        return run()
    except TruncationUncertified as exc:
        return str(exc)


def test_narrow_attempts_change_no_frontier(monkeypatch):
    # half_slab_edges gives the frontiers of the one run at the full
    # truncation, or its refusal word for word, whichever attempts it made:
    # from p = 0.55 to 1 its narrow attempts are certified, ended by the
    # extrapolation or uncertified, and the full one certifies or refuses
    attempt, log = _counted_attempts(monkeypatch)
    seeds, margin, paths = spawn_seeds(12, 0, 3), 0.2, set()
    for model in (m for m in MODEL_POOL if m.d == 2):
        T = math.ceil(450 / model.gamma)
        full = math.ceil(model.gamma * T * (1 + margin)) + 1
        assert full >= dyn._NARROW_FLOOR
        for side in ("left", "right"):
            narrow = 0
            for p in (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.9, 1.0):
                log.clear()
                got = _edges_or_refusal(
                    lambda: half_slab_edges(model, seeds, p, side, T, margin))
                ref = _edges_or_refusal(
                    lambda: attempt(model, seeds, p, side, T, full, margin))
                assert type(got) is type(ref) and np.array_equal(got, ref)
                assert [t for t, _ in log] == [full // 4, full // 2, full][:len(log)]
                narrow += sum(t < full for t, _ in log)
                paths |= {(t == full, outcome) for t, outcome in log}
            assert narrow
    assert paths == {(False, "certified"), (False, "predicted"),
                     (False, "uncertified"), (True, "certified"),
                     (True, "uncertified")}


@pytest.mark.parametrize("side", ["left", "right"])
def test_half_attempt_certifies_2dop_at_p075(monkeypatch, side):
    # at T = 500 (full truncation 601) the quarter attempt is ended by the
    # extrapolation at step 62, and the half attempt gives the full run's
    # frontiers
    attempt, log = _counted_attempts(monkeypatch)
    seeds = spawn_seeds(0, 0, 4)
    got = half_slab_edges(TWO_D_OP, seeds, 0.75, side, 500, 0.2)
    assert log == [(150, "predicted"), (300, "certified")]
    assert np.array_equal(got, attempt(TWO_D_OP, seeds, 0.75, side, 500, 601, 0.2))


def test_no_narrow_attempt_below_the_floor(monkeypatch):
    # at T = 400 the full truncation, 481, is below _NARROW_FLOOR, so the
    # one attempt made is the full one
    _, log = _counted_attempts(monkeypatch)
    half_slab_edges(TWO_D_OP, spawn_seeds(0, 0, 4), 0.75, "right", 400, 0.2)
    assert log == [(481, "certified")]


def test_edge_track_requires_d2():
    from gosp.dynamics import DimensionNot2

    with pytest.raises(DimensionNot2):
        _edge_track(THREE_D, 0.8, "right", 5)


# ---------------------------------------------------------------------------
# torus dynamics

def _torus_tau(model, field, n, T_max):
    """Extinction step of one torus replica; None if alive at T_max."""
    tau = torus_extinction_batch(model, field.p, [field.seed], n, T_max).extinction[0]
    return int(tau) if tau >= 0 else None


def test_torus_trivial_probabilities():
    assert _torus_tau(TWO_D_OP, FieldSpec(seed=1, p=0.0), 6, 10) == 1
    assert _torus_tau(TWO_D_OP, FieldSpec(seed=1, p=1.0), 6, 10) is None


def test_torus_too_small():
    with pytest.raises(TorusTooSmall):
        _torus_tau(TWO_D_OP, FieldSpec(seed=1, p=0.5), 2, 10)
    with pytest.raises(TorusTooSmall):
        _torus_tau(ASYM3, FieldSpec(seed=1, p=0.5), 4, 10)


def test_torus_reproducible():
    f = FieldSpec(seed=123, p=0.55)
    a = _torus_tau(TWO_D_OP, f, 8, 200)
    b = _torus_tau(TWO_D_OP, f, 8, 200)
    assert a == b


def _torus_oracle(model, field, n, T_max):
    """Quotient chain on sets of residues; independent of the array engine."""
    R = model.R
    d_s = model.d - 1
    rows = [set(itertools.product(range(n), repeat=d_s)) for _ in range(R)]
    for t in range(T_max):
        top = set()
        for y, u in model.split_offsets:
            top |= {tuple((xi + yi) % n for xi, yi in zip(x, y)) for x in rows[R - u]}
        tau = t + R
        top = {x for x in top if oracles.site_open(field, x + (tau,))}
        rows = rows[1:] + [top]
        if not any(rows):
            return t + 1
    return None


def _torus_n(model):
    return int(3 * model.gamma * model.R) + 3


# (model, p, T_max, seeds, id): p = 0.55 on every torus model, and two
# supercritical models with replicas alive at T_max
_TORUS_ORACLE_CASES = [
    (model, 0.55, 40, range(61, 65), str(model.spec.offsets))
    for model in (TWO_D_OP, ASYM3, RANGE2, THREE_D)
] + [
    (model, p, T_max, range(8), f"{name}-{T_max}")
    for model, p, name in ((TWO_D_OP, 0.75, "2dOP"), (RANGE2, 0.7, "range2"))
    for T_max in (40, 300)
]


@pytest.mark.parametrize("model, p, T_max, seeds, numpy", [
    pytest.param(*case, numpy, id=name + ("-numpy" if numpy else ""))
    for *case, name in _TORUS_ORACLE_CASES for numpy in (False, True)
])
def test_torus_matches_quotient_oracle(model, p, T_max, seeds, numpy):
    # the native loop, where it builds, and the numpy loop
    n = _torus_n(model)
    taus = []
    for seed in seeds:
        f = FieldSpec(seed=seed, p=p)
        with numpy_path() if numpy else contextlib.nullcontext():
            tau = _torus_tau(model, f, n, T_max)
        assert tau == _torus_oracle(model, f, n, T_max)
        taus.append(tau)
    if p >= 0.7:
        assert None in taus         # a supercritical replica alive at T_max


@pytest.mark.parametrize("model, p", [(TWO_D_OP, 0.7), (RANGE2, 0.65),
                                     (THREE_D, 0.4)],
                         ids=["2dOP", "range2", "3d"])
def test_torus_batch_matches_single_replicas(model, p):
    # the numpy loop, which steps the batch in lockstep
    n = _torus_n(model)
    seeds = spawn_seeds(5, 0, 256)
    T_max = 120
    with numpy_path():
        res = torus_extinction_batch(model, p, seeds, n, T_max)
        single = [torus_extinction_batch(model, p, [s], n, T_max).extinction[0]
                  for s in seeds]
    assert res.extinction.tolist() == single
    assert (res.alive_at_T == (res.extinction < 0)).all()
    # replicas die after the first step, so the rows and the prefix table
    # are compacted midway, and some outlive T_max
    assert (res.extinction > 1).any()
    assert (res.extinction < 0).any()


@pytest.mark.parametrize("model", [TWO_D_OP, RANGE2, THREE_D],
                         ids=lambda m: str(m.spec.offsets))
def test_torus_batch_trivial_probabilities(model):
    n = _torus_n(model)
    seeds = spawn_seeds(3, 0, 5)
    dead = torus_extinction_batch(model, 0.0, seeds, n, 10)
    # the start rows need no openness; the last of them is gone after R steps
    assert dead.extinction.tolist() == [model.R] * 5
    assert not dead.alive_at_T.any()
    # p = 1 is the threshold 2**64, one past the largest uint64 hash
    full = torus_extinction_batch(model, 1.0, seeds, n, 300)
    assert full.extinction.tolist() == [-1] * 5
    assert full.alive_at_T.all()


# ---------------------------------------------------------------------------
# snapshot serialisation

def test_snapshot_roundtrip():
    # the simulate records of replica 1 decode to its snapshots
    res = batch_evolve(RANGE2, [26, 27], 0.7, 8,
                       init=rows_from_sites(RANGE2, [(0, 0), (3, 1)]),
                       snapshot_times=[0, 3, 8])
    recs = _snapshot_records(res.snapshots, 1)
    assert [r["t"] for r in recs] == [0, 3, 8]
    for r in recs:
        state = res.snapshots[r["t"]]
        shape = tuple(r["shape"])
        rows = [oracles.rle_decode(text, int(np.prod(shape))).reshape(shape)
                for text in r["rows"]]
        assert tuple(r["anchor"]) == state.anchor
        assert (np.stack(rows) == state.rows[1]).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=80), st.sampled_from([(-1,), (4, -1)]))
def test_rle_format(bits, shape):
    # any array round-trips, and only the leading zero-run may be empty
    bits = np.array(bits, dtype=bool)
    if len(shape) == 2:
        bits = bits[: len(bits) // 4 * 4]
    arr = bits.reshape(shape)
    enc = _rle_encode(arr)
    assert (oracles.rle_decode(enc, bits.size) == bits).all()
    runs = [int(r) for r in enc.split(",")] if enc else []
    assert all(r > 0 for r in runs[1:])
    bits = np.array([0, 0, 1, 1, 1, 0, 1], dtype=bool)
    enc = _rle_encode(bits)
    assert enc == "2,3,1,1"
    assert (oracles.rle_decode(enc, 7) == bits).all()
    # a leading one-run is encoded behind a zero-length zero-run
    assert _rle_encode(np.array([1, 1, 0], dtype=bool)) == "0,2,1"
    assert _rle_encode(np.zeros(0, dtype=bool)) == ""
    with pytest.raises(ValueError):
        oracles.rle_decode("2,3", 7)


# ---------------------------------------------------------------------------
# structural identities

_seeds = st.integers(0, 2**32 - 1)
_models = st.sampled_from([TWO_D_OP, ASYM3, RANGE2])


@settings(max_examples=25, deadline=None)
@given(_models, _seeds, st.integers(1, 5))
def test_additivity_property(model, seed, t):
    f = FieldSpec(seed=seed, p=0.6)
    a, b = [(0, 0)], [(2, 0)]
    xi_a = snapshot_sites(evolve(a, model, f, t, snapshot_times=[t]).snapshots[t])
    xi_b = snapshot_sites(evolve(b, model, f, t, snapshot_times=[t]).snapshots[t])
    xi_ab = snapshot_sites(
        evolve(a + b, model, f, t, snapshot_times=[t]).snapshots[t]
    )
    assert xi_ab == xi_a | xi_b


@settings(max_examples=25, deadline=None)
@given(_models, _seeds, st.integers(1, 5))
def test_attractiveness_property(model, seed, t):
    f = FieldSpec(seed=seed, p=0.6)
    small = [(0, 0)]
    large = [(0, 0), (1, 0), (-2, 0)]
    xi_s = snapshot_sites(evolve(small, model, f, t, snapshot_times=[t]).snapshots[t])
    xi_l = snapshot_sites(evolve(large, model, f, t, snapshot_times=[t]).snapshots[t])
    assert xi_s <= xi_l


@settings(max_examples=25, deadline=None)
@given(_models, _seeds, st.integers(1, 5))
def test_p_monotonicity_property(model, seed, t):
    xi = [
        snapshot_sites(
            evolve([(0, 0)], model, FieldSpec(seed=seed, p=p), t,
                   snapshot_times=[t]).snapshots[t]
        )
        for p in (0.4, 0.6, 0.9)
    ]
    assert xi[0] <= xi[1] <= xi[2]


@settings(max_examples=25, deadline=None)
@given(_seeds, st.integers(1, 6))
def test_slab_shift_property(seed, t):
    # row s of the state at time t+1 is row s+1 of the state at time t
    f = FieldSpec(seed=seed, p=0.7)
    traj = evolve([(0, 0), (1, 1)], RANGE2, f, t + 1, snapshot_times=[t, t + 1])
    now = snapshot_sites(traj.snapshots[t])
    nxt = snapshot_sites(traj.snapshots[t + 1])
    assert {x[0] for x in nxt if x[-1] == 0} == {x[0] for x in now if x[-1] == 1}


@settings(max_examples=25, deadline=None)
@given(_models, _seeds, st.integers(1, 6))
def test_cone_bound_property(model, seed, t):
    f = FieldSpec(seed=seed, p=0.9)
    traj = evolve([(0, 0)], model, f, t, snapshot_times=[t])
    for x in snapshot_sites(traj.snapshots[t]):
        *space, s = x
        assert max(abs(c) for c in space) <= model.gamma * (t + s)


@settings(max_examples=25, deadline=None)
@given(_models, _seeds, st.integers(1, 5))
def test_domain_monotonicity_property(model, seed, t):
    f = FieldSpec(seed=seed, p=0.8)
    narrow = _untilted(1, 3)                # x in [-2, 4)
    wide = _untilted(1, 7)                  # x in [-6, 8)
    xi_n = snapshot_sites(
        evolve([(0, 0)], model, f, t, domain=narrow, snapshot_times=[t]).snapshots[t]
    )
    xi_w = snapshot_sites(
        evolve([(0, 0)], model, f, t, domain=wide, snapshot_times=[t]).snapshots[t]
    )
    xi_f = snapshot_sites(
        evolve([(0, 0)], model, f, t, snapshot_times=[t]).snapshots[t]
    )
    assert xi_n <= xi_w <= xi_f


@settings(max_examples=10, deadline=None)
@given(
    _models, _seeds,
    st.sampled_from(["left", "right"]), st.floats(0.7, 1.0),
)
def test_certified_edges_do_not_depend_on_the_truncation(model, seed, side, p):
    wide = half_slab_edges(model, [seed, seed + 1], p, side, 30, margin=1.0)
    try:
        narrow = half_slab_edges(model, [seed, seed + 1], p, side, 30, margin=0.0)
    except TruncationUncertified:
        return
    assert (narrow == wide).all()


# ---------------------------------------------------------------------------
# prefix-cached openness

def _field_open(seed, p, lo, shape, t):
    """Reference: the scalar field's openness of the window at time t."""
    coords = [g + l for g, l in zip(np.indices(shape), lo)] + [np.int64(t)]
    return FieldSpec(seed=seed, p=p).open_mask(coords)


@st.composite
def _openness_runs(draw):
    d_s = draw(st.sampled_from([1, 2]))
    B = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=B, max_size=B))
    p = draw(st.floats(0.0, 1.0))
    queries = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(-40, 40)] * d_s),
            st.tuples(*[st.integers(1, 7)] * d_s),
            st.integers(-60, 60),
        ),
        min_size=1, max_size=8,
    ))
    keep_at = draw(st.integers(0, len(queries)))
    keep = draw(st.lists(st.booleans(), min_size=B, max_size=B))
    clip = draw(st.booleans())
    return d_s, seeds, p, queries, keep_at, keep, clip


@settings(max_examples=200, deadline=None)
@given(_openness_runs())
def test_openness_matches_site_hash(run):
    # windows shift and grow past the box in both directions, with negative
    # coordinates and times (as in the dual), optionally clipped to the
    # bounding box of all queries, and rows are dropped midway
    d_s, seeds, p, queries, keep_at, keep, clip = run
    cone = None
    if clip:
        cone = (
            tuple(min(q[0][i] for q in queries) for i in range(d_s)),
            tuple(max(q[0][i] + q[1][i] for q in queries) for i in range(d_s)),
        )
    openness = BatchOpenness(seeds, p, cone=cone)
    rows = list(range(len(seeds)))
    for k, (lo, shape, t) in enumerate(queries):
        if k == keep_at and any(keep):
            kept = np.flatnonzero(keep)
            left = openness.keep(np.array(rows), np.array(keep), t)
            rows = [rows[i] for i in kept]
            assert left.tolist() == rows
        got = open_mask(openness.prefix(lo, shape), t, openness.threshold)
        assert got.dtype == bool and got.shape == (len(rows),) + shape
        for b, r in enumerate(rows):
            assert (got[b] == _field_open(seeds[r], p, lo, shape, t)).all()


@pytest.mark.parametrize("path", [contextlib.nullcontext, numpy_path],
                         ids=["native", "numpy"])
def test_table_of_many_replicas_is_one_bindable_array(path):
    # more replicas than the 4,096 once hashed per block: the table is one
    # contiguous, writable uint64 array, which the run's chain_step binds
    # (and refuses otherwise), equal row by row to site_hash
    seeds = spawn_seeds(5, 0, 4099)
    lo, hi = (-3, 2), (1, 4)
    with path():
        openness = BatchOpenness(seeds, 0.5)
        openness.bind(THREE_D, dual=False)
        openness._cover(lo, hi)
        assert (openness.chain is None) == (path is numpy_path)
    table = openness.table
    assert table.dtype == np.uint64 and table.shape == (4099, 4, 2)
    assert table.flags.c_contiguous and table.flags.writeable
    grid = [g + l for g, l in zip(np.indices((4, 2)), lo)]
    for b, s in enumerate(seeds):
        assert np.array_equal(table[b], site_hash(s, grid))


# ---------------------------------------------------------------------------
# compaction and occupancy

@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(MODEL_POOL + [DRIFT2]),
    st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    _seeds,
    st.integers(1, 300),
    st.integers(0, 12),
    st.booleans(),
)
def test_compaction_is_exact(model, p, master, B, T, dual):
    # dropping extinct replicas changes nothing: each replica of a batch
    # ends as the B = 1 run of its seed does
    seeds = spawn_seeds(master, 0, B)
    comp = batch_evolve(model, seeds, p, T, dual=dual)
    for i, s in enumerate(seeds):
        one = batch_evolve(model, [s], p, T, dual=dual)
        assert one.extinction[0] == comp.extinction[i]
        assert one.alive_at_T[0] == comp.alive_at_T[i]


def _writing_observer(end_at, out):
    # writes each live replica's occupied sites at t, in absolute
    # coordinates, through state.index into out[replica][t]; ends a replica
    # at step end_at[replica] or once it occupies more than 40 sites
    def observe(t, state):
        ended = end_at[state.index] == t
        for i, b in enumerate(state.index):
            sites = np.argwhere(state.rows[i])
            sites[:, 1:] += state.anchor
            out[b][t] = sorted(map(tuple, sites.tolist()))
            ended[i] |= len(sites) > 40
        return ended

    return observe


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MODEL_POOL), st.sampled_from([0.3, 0.5, 0.7]), _seeds,
       st.integers(1, 10), st.integers(0, 20), st.booleans())
# replicas die, and the window then outgrows the prefix box, whose new table
# gets a new struct for the survivors
@example(TWO_D_OP, 0.7, 1, 8, 20, False)
@example(TWO_D_OP, 0.7, 1, 8, 20, True)
def test_observer_writes_through_index_as_each_seed_alone(model, p, master, B, T,
                                                          dual):
    # an observer that writes per-replica results through state.index and
    # ends some replicas gets, for each replica, what it gets on a run of
    # that seed alone, and so does the replica's extinction step
    seeds = spawn_seeds(master, 0, B)
    end_at = np.random.default_rng(master).integers(1, T + 3, B)
    out = [{} for _ in range(B)]
    res = batch_evolve(model, seeds, p, T, dual=dual,
                       per_step=_writing_observer(end_at, out))
    for i, s in enumerate(seeds):
        alone = [{}]
        one = batch_evolve(model, [s], p, T, dual=dual,
                           per_step=_writing_observer(end_at[i:i + 1], alone))
        assert one.extinction[0] == res.extinction[i]
        assert alone[0] == out[i]


@pytest.mark.parametrize("dual", [False, True])
def test_compaction_is_derived(monkeypatch, dual):
    # every run, observed, snapshotted or neither, drops its extinct
    # replicas
    kernel = "_dual_batch_step" if dual else "_batch_step"
    step, sizes = getattr(dyn, kernel), []

    def recording(state, *args):
        sizes.append(state.batch)
        return step(state, *args)

    monkeypatch.setattr(dyn, kernel, recording)
    B, T = 64, 30
    seeds = spawn_seeds(5, 0, B)
    for kw in ({}, {"per_step": lambda t, state: None}, {"snapshot_times": [3]}):
        sizes.clear()
        ext = batch_evolve(TWO_D_OP, seeds, 0.5, T, dual=dual, **kw).extinction
        # step t steps the replicas alive at t - 1
        assert sizes == [int(((ext < 0) | (ext >= t)).sum())
                         for t in range(1, len(sizes) + 1)]
        assert sizes[-1] < B


def test_snapshot_time_outside_horizon_refused(monkeypatch):
    # refused before any step runs; a time T itself is recorded
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(dyn, "_batch_step", no_step)
    seeds = spawn_seeds(5, 0, 4)
    for times in ([6], [0, 3, 6], [-1]):
        with pytest.raises(ValueError, match=r"must lie in \[0, T=5\]"):
            batch_evolve(TWO_D_OP, seeds, 0.5, 5, snapshot_times=times)
    res = batch_evolve(TWO_D_OP, seeds, 0.5, 0, snapshot_times=[0])
    assert list(res.snapshots) == [0]


@st.composite
def _occupancy_rows(draw):
    # batches of few and many replicas, narrow and wide, with empty rows,
    # all-empty batches and non-contiguous views like the trimmed rows a
    # step leaves
    d_s = draw(st.sampled_from([1, 2]))
    B = draw(st.sampled_from([1, 2, 127, 128, 300]))
    R = draw(st.integers(1, 3))
    ext = tuple(draw(st.integers(0, 40 if d_s == 1 else 7)) for _ in range(d_s))
    rng = np.random.default_rng(draw(_seeds))
    rows = rng.random((B, R) + ext) < draw(st.sampled_from([0.0, 1e-3, 0.03, 0.3]))
    rows[rng.random(B) < draw(st.sampled_from([0.0, 0.5]))] = False
    if draw(st.booleans()):
        pad = [(0, 0), (0, 0)] + [(draw(st.integers(0, 3)), draw(st.integers(1, 3)))
                                  for _ in range(d_s)]
        big = np.pad(rows, pad)
        rows = big[(slice(None), slice(None)) + tuple(
            slice(lo, lo + e) for (lo, _), e in zip(pad[2:], ext))]
    anchor = tuple(draw(st.integers(-50, 50)) for _ in range(d_s))
    return rows, anchor


@settings(max_examples=300, deadline=None)
@given(_occupancy_rows())
def test_occupancy_matches_plain_numpy(case):
    rows, anchor = case
    d_s = rows.ndim - 2
    expect_alive = rows.any(axis=tuple(range(1, rows.ndim)))
    state = dyn.BatchState(0, anchor, rows)
    assert np.array_equal(state.alive(), expect_alive)
    # the live rows, trimmed to the box that _occupancy finds
    alive, occupied = dyn._occupancy(rows)
    assert np.array_equal(alive, expect_alive)
    trimmed, lo = dyn._trim(rows[alive], anchor, occupied)
    nz = np.nonzero(rows)
    if not nz[0].size:
        assert trimmed.shape == (0, rows.shape[1]) + (0,) * d_s and lo == anchor
        return
    box = [(int(c.min()), int(c.max()) + 1) for c in nz[2:]]
    assert lo == tuple(a + b for a, (b, _) in zip(anchor, box))
    assert np.array_equal(trimmed, rows[expect_alive][
        (slice(None), slice(None)) + tuple(slice(*b) for b in box)])
