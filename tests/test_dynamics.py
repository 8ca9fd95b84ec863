"""Slab chain, dual chain, reachability, probes and re-indexing.

The engine is checked against the naive set-based references in oracles.py
on every model of the shared pool, plus exact deterministic examples at
p = 0 and p = 1.
"""

import io
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gosp.dynamics as dyn
import oracles
from conftest import ASYM3, MODEL_POOL, RANGE2, THREE_D, TWO_D_OP, snapshot_sites
from gosp.dynamics import (
    BatchOpenness,
    MissingSnapshots,
    IrrationalTilt,
    OutsideSlab,
    TorusTooSmall,
    TruncationUncertified,
    TubeDomain,
    WindowTooSmall,
    batch_evolve,
    dual_evolve,
    dual_reaches,
    edge_track,
    evolve,
    half_slab_edges,
    hit_and_coupled_regions,
    initial_state,
    reaches,
    read_snapshots,
    step,
    tilt_period,
    tilted_view,
    torus_extinction,
    torus_extinction_batch,
    write_snapshots,
)
from gosp.field import FieldSpec, spawn_seeds


def _starts(model):
    d_s = model.d - 1
    return [(0,) * d_s + (0,), (1,) + (0,) * (d_s - 1) + (0,)]


# ---------------------------------------------------------------------------
# initial states and single steps

def test_initial_state_keeps_closed_sites():
    # the start set is the state at time 0; openness is never consulted there
    st0 = initial_state([(0, 0), (3, 0)], TWO_D_OP)
    assert (0, 0) in st0
    assert (3, 0) in st0
    assert (1, 0) not in st0


def test_initial_state_empty_and_invalid():
    st0 = initial_state([], TWO_D_OP)
    assert st0.is_empty()
    with pytest.raises(OutsideSlab):
        initial_state([(0, 1)], TWO_D_OP)      # slab has R = 1 rows
    with pytest.raises(OutsideSlab):
        initial_state([(0, 0, 0)], TWO_D_OP)


def test_evolve_empty_start_is_extinct_at_zero():
    f = FieldSpec(seed=1, p=1.0)
    traj = evolve([], TWO_D_OP, f, 5)
    assert traj.extinction_time == 0
    assert not traj.survived


def test_evolve_p_zero_dies_in_one_step():
    f = FieldSpec(seed=1, p=0.0)
    traj = evolve([(0, 0)], TWO_D_OP, f, 5)
    assert traj.extinction_time == 1
    assert traj.counts[0] == 1


def test_step_p1_matches_sumset():
    f = FieldSpec(seed=7, p=1.0)
    for model in (TWO_D_OP, ASYM3, THREE_D):
        d_s = model.d - 1
        state = initial_state([(0,) * d_s + (0,)], model)
        for t in range(1, 9):
            state = step(state, model, f)
            got = {s[:-1] for s in state.occupied()}
            assert got == oracles.sumset(model, t)


# ---------------------------------------------------------------------------
# the observer hook of the batched engine

def _hook_run(**kw):
    # replica b of three starts at x = b; at p = 1 it occupies [b, b + t]
    rows = np.zeros((3, 1, 3), dtype=bool)
    for b in range(3):
        rows[b, 0, b] = True
    return batch_evolve(TWO_D_OP, [1, 2, 3], 1.0, 6, init=((0,), rows), **kw)


def test_observer_sees_every_step_and_ends_cleared_rows():
    seen = []

    def hook(t, state):
        seen.append(t)
        for b in range(3):
            occ = np.flatnonzero(state.rows[b, 0]) + state.anchor[0]
            assert list(occ) == ([] if b == 1 and t > 3 else list(range(b, b + t + 1)))
        if t == 3:
            state.rows[1] = False

    res = _hook_run(per_step=hook, snapshot_times=[3])
    assert seen == list(range(7))
    assert list(res.extinction) == [-1, 3, -1]
    assert list(res.alive_at_T) == [True, False, True]
    assert not res.snapshots[3].rows[1].any()     # taken after the hook
    with pytest.raises(ValueError):
        _hook_run(per_step=hook, compact=True)


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
    traj = dual_evolve([(0, 0)], TWO_D_OP, f, 3)
    assert traj.extinction_time == 1


def test_dual_p1_reflected_sumset():
    f = FieldSpec(seed=3, p=1.0)
    traj = dual_evolve([(0, 0)], ASYM3, f, 4, snapshot_times=[4])
    got = {s[:-1] for s in traj.snapshots[4].occupied()}
    want = {tuple(-c for c in x) for x in oracles.sumset(ASYM3, 4)}
    assert got == want


@pytest.mark.parametrize("model", [TWO_D_OP, ASYM3, RANGE2],
                         ids=lambda m: str(m.spec.offsets))
def test_reaches_matches_path_oracle(model):
    a = (0, 0)
    for seed in (31, 32):
        f = FieldSpec(seed=seed, p=0.6)
        for x in range(-8, 9):
            for t in range(0, 5):
                b = (x, t)
                assert reaches(a, b, model, f) == oracles.path_exists(model, f, a, b)


@pytest.mark.parametrize("model", [TWO_D_OP, ASYM3, RANGE2],
                         ids=lambda m: str(m.spec.offsets))
def test_dual_reaches_matches_dual_oracle(model):
    a = (0, 0)
    for seed in (41, 42):
        f = FieldSpec(seed=seed, p=0.6)
        for x in range(-8, 9):
            for t in range(0, 5):
                b = (x, t)
                got = dual_reaches(b, a, model, f)
                assert got == oracles.dual_path_exists(model, f, b, a)


def test_duality_identity():
    # a path forwards is a dual path backwards through the same open sites
    for model in (TWO_D_OP, ASYM3, RANGE2):
        for seed in (51, 52):
            f = FieldSpec(seed=seed, p=0.6)
            for x in range(-6, 7):
                for t in range(0, 5):
                    assert reaches((0, 0), (x, t), model, f) == dual_reaches(
                        (x, t), (0, 0), model, f
                    )


def test_reaches_respects_domain():
    f = FieldSpec(seed=2, p=1.0)
    # at p = 1 the origin reaches (3, 3); a tube cut at x < 2 blocks it
    assert reaches((0, 0), (3, 3), TWO_D_OP, f)
    dom = TubeDomain((-5,), (2,))
    assert not reaches((0, 0), (3, 3), TWO_D_OP, f, domain=dom)
    assert reaches((0, 0), (1, 3), TWO_D_OP, f, domain=dom)


# ---------------------------------------------------------------------------
# hit and coupled regions

def test_hit_coupled_at_time_zero():
    f = FieldSpec(seed=9, p=0.8)
    hc = hit_and_coupled_regions(TWO_D_OP, f, 0, ((-3,), (4,)))
    # the two runs agree exactly at the origin before any step is taken
    assert hc.K.sum() == 1
    assert hc.K[0, 3]
    assert hc.H.sum() == 1
    assert hc.H[0, 3]


def test_hit_coupled_p1_window_saturates():
    f = FieldSpec(seed=9, p=1.0)
    hc = hit_and_coupled_regions(TWO_D_OP, f, 6, ((1,), (6,)))
    # the origin run covers [0, t] at p = 1, so the window is hit and coupled
    assert hc.H.all()
    assert hc.K.all()
    assert hc.xi_origin.all()
    assert hc.xi_slab.all()


def test_hit_coupled_pruning_is_exact():
    f = FieldSpec(seed=19, p=0.7)
    a = hit_and_coupled_regions(TWO_D_OP, f, 8, ((-2,), (9,)), prune=True)
    b = hit_and_coupled_regions(TWO_D_OP, f, 8, ((-2,), (9,)), prune=False)
    assert (a.H == b.H).all()
    assert (a.K == b.K).all()
    assert (a.xi_origin == b.xi_origin).all()
    assert (a.xi_slab == b.xi_slab).all()
    assert a.hitting == b.hitting


def test_hit_coupled_refuses_narrow_budget():
    f = FieldSpec(seed=1, p=0.7)
    with pytest.raises(WindowTooSmall) as exc:
        hit_and_coupled_regions(TWO_D_OP, f, 50, ((-2,), (3,)), max_width=10)
    (lo, hi) = exc.value.required
    assert hi[0] - lo[0] > 10


# ---------------------------------------------------------------------------
# edge processes

def test_edge_track_p1_examples():
    f = FieldSpec(seed=4, p=1.0)
    r = edge_track(ASYM3, f, "right", 6)
    assert r.values == [2 * t for t in range(7)]
    l = edge_track(ASYM3, f, "left", 6)
    assert l.values == [-t for t in range(7)]
    r = edge_track(TWO_D_OP, f, "right", 6)
    assert r.values == list(range(7))
    l = edge_track(TWO_D_OP, f, "left", 6)
    assert l.values == [0] * 7


def test_edge_track_speed_bound():
    f = FieldSpec(seed=8, p=0.8)
    r = edge_track(TWO_D_OP, f, "right", 40)
    for t, v in enumerate(r.values):
        assert v <= TWO_D_OP.gamma * t


def test_edge_track_refuses_dead_frontier():
    # at p = 0 the truncated half slab dies at step 1; an empty frontier
    # certifies nothing about the infinite half slab
    with pytest.raises(TruncationUncertified):
        edge_track(TWO_D_OP, FieldSpec(seed=8, p=0.0), "right", 10)


@pytest.mark.parametrize("side", ["left", "right"])
def test_edge_track_refuses_too_narrow_truncation(side):
    # margin -0.9 keeps a tenth of the needed half slab: the frontier, slower
    # than the cone at p = 0.8, falls within reach of the omitted sources
    with pytest.raises(TruncationUncertified):
        edge_track(TWO_D_OP, FieldSpec(seed=8, p=0.8), side, 300, margin=-0.9)


def test_edge_track_requires_d2():
    from gosp.dynamics import DimensionNot2

    f = FieldSpec(seed=8, p=0.8)
    with pytest.raises(DimensionNot2):
        edge_track(THREE_D, f, "right", 5)


# ---------------------------------------------------------------------------
# torus dynamics

def test_torus_trivial_probabilities():
    assert torus_extinction(TWO_D_OP, FieldSpec(seed=1, p=0.0), 6, 10) == 1
    assert torus_extinction(TWO_D_OP, FieldSpec(seed=1, p=1.0), 6, 10) is None


def test_torus_too_small():
    with pytest.raises(TorusTooSmall):
        torus_extinction(TWO_D_OP, FieldSpec(seed=1, p=0.5), 2, 10)
    with pytest.raises(TorusTooSmall):
        torus_extinction(ASYM3, FieldSpec(seed=1, p=0.5), 4, 10)


def test_torus_reproducible():
    f = FieldSpec(seed=123, p=0.55)
    a = torus_extinction(TWO_D_OP, f, 8, 200)
    b = torus_extinction(TWO_D_OP, f, 8, 200)
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
        top = {x for x in top if field.site_open(x + (tau,))}
        rows = rows[1:] + [top]
        if not any(rows):
            return t + 1
    return None


def _torus_n(model):
    return int(3 * model.gamma * model.R) + 3


@pytest.mark.parametrize("model", [TWO_D_OP, ASYM3, RANGE2, THREE_D],
                         ids=lambda m: str(m.spec.offsets))
def test_torus_matches_quotient_oracle(model):
    n = _torus_n(model)
    for seed in (61, 62, 63, 64):
        f = FieldSpec(seed=seed, p=0.55)
        assert torus_extinction(model, f, n, 40) == _torus_oracle(model, f, n, 40)


@pytest.mark.parametrize("T_max", [40, 300])
@pytest.mark.parametrize("model, p", [(TWO_D_OP, 0.75), (RANGE2, 0.7)],
                         ids=["2dOP", "range2"])
def test_torus_block_ends_match_quotient_oracle(model, p, T_max):
    # one replica finishes its openness in blocks of _BLOCK_STEPS steps:
    # T_max = 40 stops inside the first block, T_max = 300 inside the second,
    # and deaths fall inside blocks
    assert T_max % dyn._BLOCK_STEPS and dyn._BLOCK_STEPS < 300
    n = _torus_n(model)
    taus = []
    for seed in range(8):
        f = FieldSpec(seed=seed, p=p)
        tau = torus_extinction(model, f, n, T_max)
        assert tau == _torus_oracle(model, f, n, T_max)
        taus.append(tau)
    assert None in taus
    assert any(tau is not None and tau % dyn._BLOCK_STEPS for tau in taus)


@pytest.mark.parametrize("model, p", [(TWO_D_OP, 0.7), (RANGE2, 0.65),
                                     (THREE_D, 0.4)],
                         ids=["2dOP", "range2", "3d"])
def test_torus_batch_matches_single_replicas(model, p):
    n = _torus_n(model)
    seeds = spawn_seeds(5, 0, 256)
    T_max = 120
    res = torus_extinction_batch(model, p, seeds, n, T_max)
    single = [torus_extinction_batch(model, p, [s], n, T_max).extinction[0]
              for s in seeds]
    assert res.extinction.tolist() == single
    assert (res.alive_at_T == (res.extinction < 0)).all()
    # replicas die inside the first block of the batch, whose rows and
    # remaining open masks are then compacted, and some outlive T_max
    first = dyn._BLOCK_SITES // (len(seeds) * n ** (model.d - 1))
    assert 1 < first < T_max
    assert ((res.extinction > 1) & (res.extinction < first)).any()
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
# tilted re-indexing

def test_tilt_period_examples():
    assert tilt_period(TWO_D_OP, (0,)) == 1
    assert tilt_period(TWO_D_OP, (Fraction(1, 2),)) == 2
    assert tilt_period(TWO_D_OP, (Fraction(1, 3),)) == 3
    assert tilt_period(RANGE2, (Fraction(1, 2),)) == 2
    assert tilt_period(RANGE2, (Fraction(1, 3),)) == 3
    assert tilt_period(RANGE2, (0,)) == 2


def test_tilted_view_zero_tilt_is_identity():
    f = FieldSpec(seed=14, p=0.7)
    traj = evolve([(0, 0), (2, 1)], RANGE2, f, 8, snapshot_times=[6, 7])
    view = tilted_view(RANGE2, traj, (0,), 6)
    assert view.R_hat == 2
    state = traj.snapshots[6]
    for s in range(2):
        want = {x[:-1] for x in snapshot_sites(state) if x[-1] == s}
        assert view.rows[s] == want
        for z in want:
            assert view.contains(z, s)


def test_tilted_view_half_tilt():
    f = FieldSpec(seed=14, p=0.8)
    traj = evolve([(0, 0)], TWO_D_OP, f, 6, snapshot_times=[4, 5])
    view = tilted_view(TWO_D_OP, traj, (Fraction(1, 2),), 4)
    assert view.R_hat == 2
    # row 0: sites of the time-4 snapshot shifted back by 4 * (1/2)
    want = {(x - 2,) for (x, _) in snapshot_sites(traj.snapshots[4])}
    assert view.rows[0] == want
    # row 1 sits at time 5 where the shift 5/2 is not integral
    assert view.rows[1] == set()


def test_tilted_view_integer_tilt_predicate():
    f = FieldSpec(seed=15, p=0.8)
    traj = evolve([(0, 0)], TWO_D_OP, f, 10, snapshot_times=range(11))
    view = tilted_view(TWO_D_OP, traj, (1,), 6, hit_horizon=10)
    occ6 = snapshot_sites(traj.snapshots[6])
    for x in range(-2, 10):
        assert view.contains((x,), 0) == ((x + 6, 0) in occ6)
    # hatted hitting time: first snapshot time where the re-indexed site is on
    for (z, s), t_hat in view.hitting.items():
        assert s == 0
        assert (z + t_hat, 0) in snapshot_sites(traj.snapshots[t_hat])
        for u in range(0, t_hat):
            assert (z + u, 0) not in snapshot_sites(traj.snapshots[u])


def test_tilted_view_coupled_rows():
    from gosp.dynamics import slab_window_rows, batch_evolve, ProcessState

    f = FieldSpec(seed=16, p=0.8)
    traj = evolve([(0, 0)], TWO_D_OP, f, 6, snapshot_times=[6])
    res = batch_evolve(
        TWO_D_OP, [f.seed], f.p, 6,
        init=slab_window_rows(TWO_D_OP, (-20,), (21,)), snapshot_times=[6],
    )
    slab = {
        6: ProcessState(6, res.snapshots[6].anchor, res.snapshots[6].rows[0])
    }
    traj_slab = evolve([(0, 0)], TWO_D_OP, f, 0)
    traj_slab.snapshots = slab
    view = tilted_view(TWO_D_OP, traj, (0,), 6, traj_slab=traj_slab)
    occ = view.rows[0]
    slab_occ = {x[:-1] for x in slab[6].occupied()}
    assert view.coupled[0] == {
        z for z in occ | slab_occ if (z in occ) == (z in slab_occ)
    }


def test_tilted_view_errors():
    f = FieldSpec(seed=14, p=0.8)
    traj = evolve([(0, 0)], TWO_D_OP, f, 6, snapshot_times=[4])
    with pytest.raises(MissingSnapshots):
        tilted_view(TWO_D_OP, traj, (Fraction(1, 2),), 4)   # needs time 5 too
    with pytest.raises(IrrationalTilt):
        tilted_view(TWO_D_OP, traj, (0, 0), 4)              # wrong dimension


# ---------------------------------------------------------------------------
# snapshot serialisation

def test_snapshot_roundtrip():
    f = FieldSpec(seed=27, p=0.7)
    traj = evolve([(0, 0), (3, 1)], RANGE2, f, 8, snapshot_times=[0, 3, 8])
    buf = io.StringIO()
    write_snapshots(traj.snapshots, buf)
    buf.seek(0)
    back = read_snapshots(buf)
    assert set(back) == {0, 3, 8}
    for t, state in traj.snapshots.items():
        assert back[t].anchor == state.anchor
        assert (back[t].rows == state.rows).all()


def test_rle_format():
    from gosp.dynamics import _rle_decode, _rle_encode

    bits = np.array([0, 0, 1, 1, 1, 0, 1], dtype=bool)
    enc = _rle_encode(bits)
    assert enc == "2,3,1,1"
    assert (_rle_decode(enc, 7) == bits).all()
    # a leading one-run is encoded behind a zero-length zero-run
    assert _rle_encode(np.array([1, 1, 0], dtype=bool)) == "0,2,1"
    assert _rle_encode(np.zeros(0, dtype=bool)) == ""
    with pytest.raises(ValueError):
        _rle_decode("2,3", 7)


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
    narrow = TubeDomain((-2,), (3,))
    wide = TubeDomain((-6,), (7,))
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
            openness = openness.take(kept)
            rows = [rows[i] for i in kept]
        got = openness.window(lo, shape, t)
        assert got.dtype == bool and got.shape == (len(rows),) + shape
        for b, r in enumerate(rows):
            assert (got[b] == _field_open(seeds[r], p, lo, shape, t)).all()
        # a vector of times gives the mask of each time
        times = np.array([t - 1, t, t + 5])
        block = openness.window(lo, shape, times)
        assert block.shape == (3, len(rows)) + shape
        for j, tj in enumerate(times):
            assert (block[j] == openness.window(lo, shape, int(tj))).all()
