"""Estimator entry points: deterministic examples at p in {0, 1}, exact
small-horizon oracles, refusal paths, and invariance under the thread count
and the chunk sizes."""

import inspect
import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes
from scipy import ndimage, stats

import gosp.dynamics as dyn
import gosp.estimators as est
import oracles
from conftest import ASYM3, RANGE2, THREE_D, TWO_D_OP
from gosp.dynamics import TorusTooSmall, batch_evolve
from gosp.estimators import (
    CensoredMean,
    ConeOutsideShape,
    EdgeTruncationRefused,
    Estimate,
    EstimatorError,
    GeometryInvalid,
    InsufficientDeaths,
    InsufficientSurvivals,
    NoCrossingFound,
    SubcriticalRefused,
    bg_event_probability,
    box_infection_probe,
    critical_point,
    crossing_probability,
    death_bound_fit,
    density_spectrum,
    edge_speeds,
    good_block_probability,
    path_crossing_transfer,
    primal_dual_meet,
    restricted_cone_survival,
    shape_and_time_constants,
    subcritical_decay,
    survival_curve,
    torus_stats,
)
from gosp.field import FieldSpec, spawn_seed, spawn_seeds
from gosp.geometry import BlockGeometry, TranslatedBlock


# ---------------------------------------------------------------------------
# Estimate

def test_estimate_bernoulli_endpoints():
    e0 = Estimate.from_bernoulli(0, 20)
    assert e0.mean == 0.0 and e0.ci95[0] == 0.0 and e0.ci95[1] > 0.0
    e1 = Estimate.from_bernoulli(20, 20)
    assert e1.mean == 1.0 and e1.ci95[1] == 1.0 and e1.ci95[0] < 1.0
    e = Estimate.from_bernoulli(8, 10)
    assert e.ci95[0] < 0.8 < e.ci95[1]
    assert 0.0 < e.ci95[0] < e.ci95[1] < 1.0


def test_estimate_from_samples():
    e = Estimate.from_samples([1.0, 2.0, 3.0])
    assert e.mean == 2.0
    assert e.stderr == pytest.approx(1.0 / np.sqrt(3))
    with pytest.raises(EstimatorError):
        Estimate.from_samples([])
    with pytest.raises(EstimatorError):
        Estimate.from_bernoulli(0, 0)


# ---------------------------------------------------------------------------
# survival

def test_survival_trivial():
    s1 = survival_curve(TWO_D_OP, 1.0, 10, 50, seed=1)
    assert s1.estimate.mean == 1.0 and s1.estimate.stderr == 0.0
    s0 = survival_curve(TWO_D_OP, 0.0, 10, 50, seed=1)
    assert s0.estimate.mean == 0.0
    assert (s0.taus == 1).all()
    assert survival_curve(TWO_D_OP, 0.0, 10, 50, seed=1, dual=True).estimate.mean == 0.0
    assert survival_curve(TWO_D_OP, 1.0, 10, 50, seed=1, dual=True).estimate.mean == 1.0


def test_survival_one_step_closed_form():
    # P(tau > 1) = 1 - (1-p)^2 for the two-point neighbourhood
    p = 0.8
    sc = survival_curve(TWO_D_OP, p, 1, 40000, seed=2)
    exact = 1 - (1 - p) ** 2
    assert abs(sc.estimate.mean - exact) <= 4 * max(sc.estimate.stderr, 1e-9)


@pytest.mark.parametrize("p", [Fraction(4, 5), Fraction(3, 10)])
def test_survival_matches_exact_enumeration(p):
    exact = float(oracles.exact_survival(TWO_D_OP, p, 3))
    sc = survival_curve(TWO_D_OP, float(p), 3, 20000, seed=11)
    assert abs(sc.estimate.mean - exact) <= 4 * max(sc.estimate.stderr, 1e-9)


# ---------------------------------------------------------------------------
# critical point proxy

def test_critical_point_bracket():
    cp = critical_point(TWO_D_OP, 12, 12, 200, 0.1, seed=5)
    assert cp.p_hi - cp.p_lo <= 0.1
    assert cp.p_lo < cp.p_hat < cp.p_hi
    assert 0.4 < cp.p_hat < 0.9
    assert len(cp.stability) == 3
    # endpoints of the sweep bracket the 1/2 level
    freq = dict((p, e.mean) for p, e in cp.sweep)
    assert freq[0.0] < 0.5 <= freq[1.0]
    with pytest.raises(EstimatorError):
        critical_point(TWO_D_OP, 12, 12, 100, -1.0, seed=5)


@pytest.mark.parametrize("T, L_stop", [(20, 0), (20, -3), (0, 20)])
def test_critical_point_refuses_an_empty_horizon(monkeypatch, T, L_stop):
    # with L_stop <= 0 the origin itself has the event, and with T = 0 every
    # replica is alive at T: bad input, refused before any sweep runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(est, "_event_frequency", no_sweep)
    with pytest.raises(EstimatorError, match="at least 1"):
        critical_point(TWO_D_OP, T, L_stop, 50, 0.1, seed=1)


def _pc_event(model, p, seed, T, L_stop):
    """Set-based pc event: the origin's slab state at some step t <= T
    holds a site at sup-norm distance >= L_stop, or the state at T is
    non-empty."""
    levels = oracles.infected_times(model, FieldSpec(seed=int(seed), p=p),
                                    [(0,) * model.d], T)
    states = [{x for s in range(model.R) for x in levels.get(t + s, ())}
              for t in range(T + 1)]
    far = any(max(map(abs, x)) >= L_stop for state in states for x in state)
    return far or bool(states[T])


@pytest.mark.parametrize("model, p", [(TWO_D_OP, 0.6), (ASYM3, 0.45)],
                         ids=["2dOP", "asym3"])
def test_event_chunk_matches_set_growth(model, p):
    seeds, T, L_stop = spawn_seeds(23, 0, 20), 30, 8
    got = est._event_chunk(seeds, model, p, T, L_stop).tolist()
    assert got == [_pc_event(model, p, s, T, L_stop) for s in seeds]
    # some replicas have the event only by distance, dead before T
    alive = batch_evolve(model, seeds, p, T).alive_at_T.tolist()
    assert 0 < sum(got) < len(got) and sum(got) > sum(alive)


def test_event_chunk_sees_an_event_exactly_at_L_stop():
    # this replica's farthest site is at x = -L_stop and it dies before T:
    # a window that starts at -L_stop does not lie inside |x| < L_stop
    model, p, T, L_stop = ASYM3, 0.5, 30, 8
    seeds = spawn_seeds(23, 77, 78)
    levels = oracles.infected_times(model, FieldSpec(seed=int(seeds[0]), p=p),
                                    [(0,) * model.d], T)
    assert max(abs(x) for xs in levels.values() for (x,) in xs) == L_stop
    assert not levels.get(T)
    assert est._event_chunk(seeds, model, p, T, L_stop).tolist() == [True]


# ---------------------------------------------------------------------------
# shape and edge speeds

def test_shape_p1_deterministic():
    sh = shape_and_time_constants(ASYM3, 1.0, 20, 5, seed=3)
    # sumset support is [-t, 2t] but 2t-1 is unreachable, so the solid
    # agreement run ends at 2t-2 and the rescaled interval is [-1, 1.9]
    assert sh.u_hat == (-1.0, 1.9)
    assert sh.mu_hat[(-1.0,)].mean == 1.0
    assert 0.5 <= sh.mu_hat[(1.0,)].mean <= 0.65
    assert len(sh.lo_samples) == 5


def test_shape_refuses_subcritical():
    with pytest.raises(SubcriticalRefused):
        shape_and_time_constants(TWO_D_OP, 0.3, 20, 5, seed=3)


def test_shape_requires_d2():
    from gosp.dynamics import DimensionNot2

    with pytest.raises(DimensionNot2):
        shape_and_time_constants(THREE_D, 0.9, 20, 5, seed=3)


def test_edge_speeds_p1_exact():
    e = edge_speeds(ASYM3, 1.0, 20, 4, seed=1)
    assert e.alpha.mean == 2.0 and e.alpha.stderr == 0.0
    assert e.beta.mean == -1.0
    assert e.alpha_upper == 2.0 and e.beta_lower == -1.0
    e = edge_speeds(TWO_D_OP, 1.0, 20, 4, seed=1)
    assert e.alpha.mean == 1.0 and e.beta.mean == 0.0


def test_edge_speeds_refuses_dead_replicas():
    with pytest.raises(InsufficientSurvivals):
        edge_speeds(TWO_D_OP, 0.0, 20, 4, seed=1)


def test_edge_speeds_refuses_uncertified_truncation(monkeypatch):
    # margin -0.9 keeps a tenth of the needed half slab
    monkeypatch.setattr(est, "_EDGE_MARGIN", -0.9)
    with pytest.raises(EdgeTruncationRefused):
        edge_speeds(TWO_D_OP, 0.8, 300, 2, seed=1)


# ---------------------------------------------------------------------------
# extinction-time tails

def test_death_bound_fit_negative_slope():
    df = death_bound_fit(TWO_D_OP, 0.8, 60, 20000, (5, 25), seed=6)
    assert df.slope < 0
    assert df.r2 > 0.9
    assert df.n_deaths >= 50


def test_death_bound_fit_refusals():
    with pytest.raises(InsufficientDeaths):
        death_bound_fit(TWO_D_OP, 1.0, 60, 500, (5, 25), seed=6)
    with pytest.raises(InsufficientDeaths):
        # at p = 0 every replica dies at step 1, outside the window
        death_bound_fit(TWO_D_OP, 0.0, 60, 500, (5, 25), seed=6)
    with pytest.raises(EstimatorError):
        death_bound_fit(TWO_D_OP, 0.5, 60, 500, (30, 70), seed=6)


def test_subcritical_decay_positive_rate():
    dc = subcritical_decay(
        TWO_D_OP, 0.5, 20, 20000, seed=7, windows=((5, 10), (10, 15))
    )
    assert dc.c_hat > 0
    for (_, c_w, n_w) in dc.window_fits:
        assert c_w > 0 and n_w >= 50


def test_subcritical_decay_refuses_without_survivors():
    with pytest.raises(InsufficientSurvivals):
        subcritical_decay(TWO_D_OP, 0.0, 20, 1000, seed=7,
                          windows=((5, 10),))


def test_subcritical_decay_refuses_no_windows_before_any_chunk(monkeypatch):
    # with no window there is nothing to fit: refused before the first
    # chunk, not by min() of an empty sequence after every chunk ran
    def no_chunk(common, span):
        raise AssertionError("a decay chunk ran")

    monkeypatch.setattr(est, "_decay_chunk", no_chunk)
    with pytest.raises(EstimatorError, match="at least one fit window"):
        subcritical_decay(TWO_D_OP, 0.5, 20, 200_000, seed=1, windows=())


# ---------------------------------------------------------------------------
# torus

def test_torus_stats_p0():
    ts = torus_stats(TWO_D_OP, 0.0, [6, 8], 40, 50, seed=8)
    assert ts.regime == "sub"
    for n, s in zip([6, 8], ts.per_size):
        assert s.mean_tau.mean == 1.0 and s.censored == 0
        assert s.ratio_log == pytest.approx(1 / np.log(n))
    assert ts.slope_vs_log == pytest.approx(0.0, abs=1e-12)


def test_torus_stats_censored_refusal():
    with pytest.raises(CensoredMean):
        torus_stats(TWO_D_OP, 0.8, [8], 30, 200, seed=8)
    # every replica dies, yet 5 deaths are below the floor, which the
    # refusal names
    with pytest.raises(CensoredMean,
                       match=r"5 of 5 .*floor max\(10, reps // 2\) = 10"):
        torus_stats(TWO_D_OP, 0.3, [6], 5, 400, seed=1, regime="sub")


def test_torus_stats_rejects_unknown_regime():
    with pytest.raises(EstimatorError):
        torus_stats(TWO_D_OP, 0.5, [8], 30, 50, seed=8, regime="mixed")


@pytest.mark.parametrize("regime", ["auto", "super"])
def test_torus_stats_refuses_small_sides_before_any_run(monkeypatch, regime):
    # a side n <= 2*gamma*R anywhere in ``sizes`` is refused before the
    # regime pre-run and before the runs of the good sizes ahead of it
    runs = []
    monkeypatch.setattr(est, "survival_curve", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(est, "_run_chunks", lambda *a, **k: runs.append(a))
    for model, sizes, n, bound in ((TWO_D_OP, [12, 2], 2, 2),
                                   (ASYM3, [6, 5, 4], 4, 4)):
        with pytest.raises(TorusTooSmall, match=(
                rf"^torus side {n} must exceed 2\*gamma\*R = {bound}$")):
            torus_stats(model, 0.7, sizes, 40, 300, seed=8, regime=regime)
    assert runs == []


# the estimators compute the KS distance and the box minimum themselves;
# scipy, a test dependency only, is the reference they must equal bit for bit

@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), scale=st.sampled_from([0.3, 3.0, 60.0, 5000.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, scale=3.0, seed=0)
@example(n=2000, scale=60.0, seed=11)
def test_ks_expon_equals_scipy_kstest(n, scale, seed):
    # integer extinction times t >= 1; the larger spreads put t / mean on
    # both sides of expm1's branch point |x| = 0.5
    t = 1 + np.floor(np.random.default_rng(seed).exponential(scale, n))
    x = t / t.mean()
    want = float(stats.kstest(x, "expon").statistic)
    assert est._ks_expon(x).hex() == want.hex()


def test_torus_ks_distance_equals_scipy_kstest():
    for s in torus_stats(TWO_D_OP, 0.7, [6, 8], 40, 2000, seed=8,
                         regime="super").per_size:
        want = stats.kstest(s.taus / s.taus.mean(), "expon").statistic
        assert s.ks_distance.hex() == float(want).hex()


@settings(max_examples=300, deadline=None)
@given(shape=array_shapes(min_dims=1, max_dims=2, max_side=12),
       n=st.integers(1, 4), density=st.sampled_from([0.5, 0.8, 0.95, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(1,), n=1, density=1.0, seed=0)
@example(shape=(3,), n=2, density=1.0, seed=0)
@example(shape=(3, 5), n=2, density=1.0, seed=0)
@example(shape=(8, 9), n=2, density=0.95, seed=1)
def test_box_full_equals_ndimage_minimum_filter(shape, n, density, seed):
    # dense columns, so that full boxes occur; the short ones (a side
    # below 2n) have none
    col = np.random.default_rng(seed).random(shape) < density
    want = ndimage.minimum_filter(col.astype(np.uint8), size=2 * n,
                                  mode="constant", cval=0).astype(bool)
    assert np.array_equal(est._box_full(col, n), want)


# ---------------------------------------------------------------------------
# density

def test_density_trivial():
    d1 = density_spectrum(TWO_D_OP, 1.0, 4, 20, 5, seed=9)
    assert (d1.samples == 1.0).all()
    d0 = density_spectrum(TWO_D_OP, 0.0, 4, 20, 5, seed=9)
    assert (d0.samples == 0.0).all()
    with pytest.raises(EstimatorError):
        density_spectrum(TWO_D_OP, 0.5, 4, 5, 5, seed=9)


@pytest.mark.parametrize("model, p", [(TWO_D_OP, 0.65), (ASYM3, 0.5)],
                         ids=["2dOP", "asym3"])
def test_density_chunk_matches_set_growth(model, p):
    # Y_n of a replica: the fraction of the start sites (x, s), x in
    # [-n, n), whose dual alone survives to depth T_inf
    seeds, n, T_inf = spawn_seeds(29, 0, 6), 3, 15
    survives = [[bool(oracles.dual_slab_state(model, FieldSpec(seed=int(si), p=p),
                                              [(x, s)], T_inf))
                 for s in range(model.R) for x in range(-n, n)] for si in seeds]
    got = est._density_chunk(seeds, model, p, n, T_inf).tolist()
    assert got == [sum(f) / len(f) for f in survives]
    assert 0 < sum(map(sum, survives)) < sum(map(len, survives))


# ---------------------------------------------------------------------------
# crossing and block events

def test_crossing_trivial():
    c1 = crossing_probability(TWO_D_OP, 1.0, 20, 0.2, 0, 10, seed=10)
    assert c1.estimate.mean == 1.0
    c0 = crossing_probability(TWO_D_OP, 0.0, 20, 0.2, 0, 10, seed=10)
    assert c0.estimate.mean == 0.0


@pytest.mark.parametrize("model, p, slope, shift", [
    (TWO_D_OP, 0.65, Fraction(1, 2), Fraction(0)),
    (ASYM3, 0.45, Fraction(0), Fraction(-1, 2)),
], ids=["2dOP", "asym3"])
def test_crossing_chunk_matches_set_growth(model, p, slope, shift):
    # growth from the half slab x <= 0, far wider than the chunk's
    # truncation, inside the shifted box, alive at the top chain row
    L, w = 20, 4
    block = TranslatedBlock(BlockGeometry((w,), L + model.R, (slope,)),
                            (shift, Fraction(0)))
    inside = partial(oracles.translated_block_contains, block)
    starts = [(x, s) for s in range(model.R) for x in range(-8 * L, 1)]
    box = est._tilted_box(model, w, L + model.R, slope, shift, half=True)
    seeds = spawn_seeds(31, 0, 20)
    got = est._crossing_chunk(seeds, model, p, L, box).tolist()
    want = []
    for si in seeds:
        levels = oracles.infected_times(model, FieldSpec(seed=int(si), p=p),
                                        starts, L, domain=inside)
        want.append(any(levels.get(tau) for tau in range(L, L + model.R)))
    assert got == want
    assert 0 < sum(got) < len(got)


def test_bg_event_trivial():
    g = BlockGeometry((2,), 3, (0,))
    assert bg_event_probability(TWO_D_OP, 1.0, g, 1, 6, seed=2).estimate.mean == 1.0
    assert bg_event_probability(TWO_D_OP, 0.0, g, 1, 6, seed=2).estimate.mean == 0.0


def test_bg_event_placement_uses_no_numpy_generator(monkeypatch):
    # each box is placed from the field's hash of its seed, not from a
    # numpy bit generator, whose streams may change between numpy versions
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    g = BlockGeometry((3,), 4, ("1/2",))
    ev = bg_event_probability(TWO_D_OP, 0.8, g, 1, 20, seed=3)
    assert ev.outcomes.shape == (20,)


@pytest.mark.parametrize("model, p, h", [
    (TWO_D_OP, 0.7, 2), (ASYM3, 0.5, 2),
    # two slab rows, and growth that the envelope cuts
    (RANGE2, 0.8, 3),
], ids=["2dOP", "asym3", "range2"])
def test_bg_chunk_matches_set_growth(model, p, h):
    # the box placed from the hash chain, its growth inside the envelope
    # and the full-box test at each s in [7h, 8h), recomputed per replica
    # by oracles.bg_event; at these p both outcomes occur
    seeds, g, n = spawn_seeds(29, 0, 30), BlockGeometry((3,), h, ("1/2",)), 1
    got = est._bg_chunk(seeds, model, p, g, n).tolist()
    assert got == [oracles.bg_event(model, p, g, n, s) for s in seeds]
    assert 0 < sum(got) < len(got)


def test_bg_event_geometry_validation():
    with pytest.raises(GeometryInvalid):
        bg_event_probability(TWO_D_OP, 0.5, BlockGeometry((2,), 3, (0,)), 2,
                             4, seed=2)
    with pytest.raises(GeometryInvalid):
        bg_event_probability(TWO_D_OP, 0.5, BlockGeometry((2,), 1, (0,)), 1,
                             4, seed=2)
    with pytest.raises(GeometryInvalid):
        bg_event_probability(THREE_D, 0.5, BlockGeometry((2,), 3, (0,)), 1,
                             4, seed=2)
    # a box needs n >= 1: n = 0 used to give a 0.0 estimate, n = -1 a bare
    # ValueError from numpy
    for n in (0, -1):
        with pytest.raises(GeometryInvalid, match="1 <= n"):
            bg_event_probability(TWO_D_OP, 0.5, BlockGeometry((2,), 3, (0,)), n,
                                 4, seed=2)


def test_good_block_p1_with_matching_tilt():
    gb = good_block_probability(
        TWO_D_OP, 1.0, 16, 8, 2, seed=3, v=(Fraction(1, 2),)
    )
    assert gb.estimate.mean == 1.0
    assert gb.event1.mean == 1.0
    assert gb.event2.mean == 1.0
    assert gb.event3.mean == 1.0


def test_good_block_p0():
    gb = good_block_probability(
        TWO_D_OP, 0.0, 16, 8, 2, seed=3, v=(Fraction(1, 2),)
    )
    # everything dies instantly: the dichotomy and coupling hold trivially
    # but the displaced probe blocks are never reached
    assert gb.event1.mean == 1.0
    assert gb.event3.mean == 0.0
    assert gb.estimate.mean == 0.0


def test_good_block_geometry_validation():
    with pytest.raises(GeometryInvalid):
        good_block_probability(TWO_D_OP, 0.5, 16, 1, 2, seed=3)
    with pytest.raises(GeometryInvalid):
        good_block_probability(TWO_D_OP, 0.5, 10, 4, 2, seed=3)
    with pytest.raises(GeometryInvalid):
        good_block_probability(TWO_D_OP, 0.5, 16, 4, 2, seed=3, v=(0, 0))


@pytest.mark.parametrize("model, settings", [
    # at L = C = 4 event 2 fails in some replicas only through slab sites
    # grown from sources outside the boxes, which pins the slab window
    (TWO_D_OP, [(0.6, 2, 2, "1/2", 32), (0.6, 4, 4, "1/2", 16)]),
    # at p = 0.7 a site dies at exactly thr in one replica, which pins the
    # threshold of the long survivors in event 2
    (ASYM3, [(0.8, 4, 4, 0, 13), (0.7, 4, 4, 0, 16)]),
    # two slab rows: a site's cluster spans the 6L-wide region only at
    # C >= 16, so here e2 varies at p = 0.5 and e1 at p = 0.8
    (RANGE2, [(0.5, 6, 3, "1/2", 32), (0.8, 4, 4, "1/2", 16)]),
], ids=["2dOP", "asym3", "range2"])
def test_good_chunk_matches_set_growth(model, settings):
    # the dichotomy, the coupling with the full slab on the 3L-blocks and
    # the probes, recomputed per replica by oracles.good_events
    events = []
    for p, L, C, v, n in settings:
        seeds, v = spawn_seeds(7, 0, n), (Fraction(v),)
        got = est._good_chunk(seeds, model, p, L, C, v)
        assert got == [oracles.good_events(model, p, L, C, v, s) for s in seeds]
        events += got
    # each event holds in some replicas and fails in others
    assert all(0 < sum(col) < len(events) for col in zip(*events))


# ---------------------------------------------------------------------------
# primal-dual meeting

def test_meet_trivial():
    m = primal_dual_meet(TWO_D_OP, 1.0, 10, 8, (Fraction(1, 2),), seed=4)
    assert m.z == (10,)
    assert m.both_alive == 8
    assert m.failure.mean == 0.0
    m0 = primal_dual_meet(TWO_D_OP, 0.0, 10, 8, (Fraction(1, 2),), seed=4)
    assert m0.both_alive == 0
    assert m0.failure.mean == 0.0


@pytest.mark.parametrize("model, p, z", [(TWO_D_OP, 0.7, (6,)), (ASYM3, 0.6, (-4,))],
                         ids=["2dOP", "asym3"])
def test_meet_chunk_matches_set_growth(model, p, z):
    # the primal from the origin on the seed's substream 0 and the dual from
    # z at time 2t on substream 1, both at time t: (both alive, both alive
    # with disjoint states)
    seeds, t = spawn_seeds(37, 0, 24), 12
    want = []
    for si in seeds:
        primal = oracles.slab_state(
            model, FieldSpec(seed=spawn_seed(int(si), 0), p=p), [(0,) * model.d], t)
        dual = oracles.dual_slab_state(
            model, FieldSpec(seed=spawn_seed(int(si), 1), p=p), [z + (0,)], t,
            t0=2 * t)
        both = bool(primal) and bool(dual)
        want.append((both, both and not (primal & dual)))
    got = est._meet_chunk(seeds, model, p, t, z)
    assert got == want
    assert set(got) == {(False, False), (True, False), (True, True)}


def test_meet_rejects_bad_vhat():
    with pytest.raises(EstimatorError):
        primal_dual_meet(TWO_D_OP, 0.5, 10, 8, (0, 0), seed=4)


# ---------------------------------------------------------------------------
# restricted cones

def test_cone_survival_trivial():
    c1 = restricted_cone_survival(
        TWO_D_OP, 1.0, ("1/4", "3/4"), 20, 10, seed=1, t0=5, shape=(0.0, 1.0)
    )
    assert c1.estimate.mean == 1.0
    c0 = restricted_cone_survival(
        TWO_D_OP, 0.0, ("1/4", "3/4"), 20, 10, seed=1, t0=5, shape=(0.0, 1.0)
    )
    assert c0.estimate.mean == 0.0


def _cone_survives(model, p, seed, lo, hi, T, t0):
    """Set-based cone survival: the cone's lattice sites at times t0, ...,
    t0+R-1 start a growth restricted to the cone, alive at time T."""
    cone = partial(oracles.cone_contains, lo, hi)
    width = 2 * (t0 + model.R)
    starts = [(x, s) for s in range(model.R) for x in range(-width, width + 1)
              if cone((x, t0 + s))]
    levels = oracles.infected_times(model, FieldSpec(seed=int(seed), p=p),
                                    starts, T - t0, t0=t0, domain=cone)
    return any(levels.get(tau) for tau in range(T, T + model.R))


@pytest.mark.parametrize("model, lo, hi, p", [
    (TWO_D_OP, Fraction(1, 4), Fraction(3, 4), 0.65),
    (TWO_D_OP, Fraction(1, 4), Fraction(3, 4), 0.7),
    (ASYM3, Fraction(-1, 2), Fraction(1), 0.45),
    (ASYM3, Fraction(-1, 2), Fraction(1), 0.5),
], ids=["2dOP-0.65", "2dOP-0.7", "asym3-0.45", "asym3-0.5"])
def test_cone_chunk_matches_set_growth(model, lo, hi, p):
    seeds, T, t0 = spawn_seeds(17, 0, 20), 30, 5
    got = est._cone_chunk(seeds, model, p, lo, hi, T, t0).tolist()
    assert got == [_cone_survives(model, p, s, lo, hi, T, t0) for s in seeds]
    assert 0 < sum(got) < len(got)


def test_cone_outside_shape_refused():
    with pytest.raises(ConeOutsideShape):
        restricted_cone_survival(
            TWO_D_OP, 1.0, ("-1/2", "1/2"), 20, 10, seed=1, t0=5,
            shape=(0.0, 1.0),
        )


# ---------------------------------------------------------------------------
# path crossing and transfer

def test_box_infection_probe_examples():
    assert box_infection_probe(TWO_D_OP) == (1, (1,), 1)
    assert box_infection_probe(ASYM3) == (1, (0,), 1)


def test_transfer_p1_identical_boxes():
    r = path_crossing_transfer(
        TWO_D_OP, 1.0, 0.0, 20, 5, seed=2,
        alpha="1/2", beta="1/2", shift=0, half_width=3,
    )
    assert r.crossing.mean == 1.0
    assert r.transfer.mean == 1.0
    # both boxes coincide, so the leftmost witnesses share every vertex
    assert r.path_meets == r.crossed == 5


def test_transfer_refusals():
    with pytest.raises(EstimatorError):
        path_crossing_transfer(TWO_D_OP, 0.8, 0.3, 20, 5, seed=2,
                               alpha="1/2", beta="1/2")
    with pytest.raises(TypeError, match="alpha"):
        path_crossing_transfer(TWO_D_OP, 0.8, 0.1, 20, 5, seed=2)
    with pytest.raises(NoCrossingFound):
        path_crossing_transfer(TWO_D_OP, 0.0, 0.0, 20, 5, seed=2,
                               alpha="1/2", beta="1/2")


@pytest.mark.parametrize("model, p, shift, beta, counts", [
    (TWO_D_OP, 0.75, 1, "1/2", (29, 7, 12, 18)),
    (ASYM3, 0.7, 0, "0", (34, 16, 29, 32)),
], ids=["2dOP", "asym3"])
def test_transfer_chunk_matches_oracle(model, p, shift, beta, counts):
    # crossings by set growth, witnesses by enumerating every crossing
    # path, the meets and the sprinkled BFS recomputed per replica by
    # oracles.transfer_records; here each outcome takes both values
    L, eps, w = 8, 0.1, 2
    slopes = ((Fraction(1, 2), -shift), (Fraction(beta), shift))
    seeds, probe = spawn_seeds(5, 0, 40), box_infection_probe(model)
    boxes = [est._tilted_box(model, w, L + 1, slope, Fraction(off), half=False)
             for slope, off in slopes]
    got = est._transfer_chunk(seeds, model, p, eps, L, boxes, probe)
    blocks = [TranslatedBlock(BlockGeometry((w,), L + 1, (slope,)),
                              (Fraction(off), Fraction(0)))
              for slope, off in slopes]
    assert got == oracles.transfer_records(model, p, eps, L, blocks, probe, seeds)
    crossed = [r for r in got if r is not None]
    assert (len(crossed), *map(sum, zip(*crossed))) == counts


def test_path_start_is_exempt_from_the_domain():
    # a path's start site is exempt from openness and from the domain: in
    # the ASYM3 setting above, 18 of the 36 witnesses that cross the first
    # box start outside its row at time 0, and every later site of each
    # lies inside the box
    L, seeds = 8, spawn_seeds(5, 0, 40)
    init, box = est._tilted_box(ASYM3, 2, L + 1, Fraction(1, 2), Fraction(0),
                                half=False)
    run = batch_evolve(ASYM3, seeds, 0.7, L, init=init, domain=box,
                       snapshot_times=range(L + 1))
    paths = [est._leftmost_path(ASYM3, run.snapshots, L, b)
             for b in np.flatnonzero(run.alive_at_T)]

    def inside(x, t):
        (lo,), (hi,) = box(t)
        return lo <= x < hi

    assert len(paths) == 36
    assert sum(not inside(*path[0]) for path in paths) == 18
    assert all(inside(*site) for path in paths for site in path[1:])


def test_box_setup_runs_once_per_estimator_call(monkeypatch):
    # every chunk shares the tilted-box set-up made once per call: one box
    # for crossing, two for crosspath, however many replicas and chunks
    calls = []
    setup = est._tilted_box

    def counting(*args, **kwargs):
        calls.append(args)
        return setup(*args, **kwargs)

    monkeypatch.setattr(est, "_tilted_box", counting)
    monkeypatch.setattr(est, "_CROSS_CHUNK", 1)
    monkeypatch.setattr(est, "_TRANSFER_CHUNK", 1)
    for reps in (1, 6):
        calls.clear()
        crossing_probability(TWO_D_OP, 0.7, 20, 0.2, 0, reps, seed=10)
        assert len(calls) == 1
        calls.clear()
        path_crossing_transfer(TWO_D_OP, 1.0, 0.0, 20, reps, seed=2,
                               alpha="1/2", beta="1/2", shift=0, half_width=3)
        assert len(calls) == 2


def test_reps_beyond_a_seed_lane_refused():
    # replica 2**32 of lane 0 would reuse the seed of replica 0 of lane 1;
    # refused before any chunk runs
    with pytest.raises(EstimatorError, match="seed lane"):
        survival_curve(TWO_D_OP, 0.8, 5, 2**32, seed=1)
    with pytest.raises(EstimatorError, match="seed lane"):
        edge_speeds(TWO_D_OP, 0.8, 5, 2**32 + 5, seed=1)


# each public estimator, called with the given replica count
_ESTIMATOR_CALLS = {
    "survival": lambda reps: survival_curve(TWO_D_OP, 0.8, 5, reps, seed=1),
    "pc": lambda reps: critical_point(TWO_D_OP, 5, 3, reps, 0.1, seed=1),
    "shape": lambda reps: shape_and_time_constants(TWO_D_OP, 0.8, 10, reps,
                                                   seed=1),
    "edges": lambda reps: edge_speeds(TWO_D_OP, 0.8, 5, reps, seed=1),
    "death": lambda reps: death_bound_fit(TWO_D_OP, 0.8, 10, reps, (2, 5),
                                          seed=1),
    "decay": lambda reps: subcritical_decay(TWO_D_OP, 0.5, 10, reps, seed=1,
                                            windows=((2, 5),)),
    "torus": lambda reps: torus_stats(TWO_D_OP, 0.8, [8], reps, 10, seed=1,
                                      regime="super"),
    "density": lambda reps: density_spectrum(TWO_D_OP, 0.8, 2, 10, reps, seed=1),
    "crossing": lambda reps: crossing_probability(TWO_D_OP, 0.8, 10, 0.2, "1/2",
                                                  reps, seed=1),
    "bgprobe": lambda reps: bg_event_probability(
        TWO_D_OP, 0.8, BlockGeometry((2,), 3, (0,)), 1, reps, seed=1),
    "goodblock": lambda reps: good_block_probability(TWO_D_OP, 0.8, 4, 2, reps,
                                                     seed=1),
    "meet": lambda reps: primal_dual_meet(TWO_D_OP, 0.8, 5, reps, ("1/2",),
                                          seed=1),
    "cone": lambda reps: restricted_cone_survival(
        TWO_D_OP, 0.8, ("1/4", "3/4"), 20, reps, seed=1, t0=5, shape=(0.0, 1.0)),
    "crosspath": lambda reps: path_crossing_transfer(
        TWO_D_OP, 0.8, 0.1, 10, reps, seed=1, alpha="1/2", beta="1/2"),
}


@pytest.mark.parametrize("reps", [0, -2])
@pytest.mark.parametrize("name", sorted(_ESTIMATOR_CALLS))
def test_no_replicas_is_an_error_not_a_refusal(name, reps):
    # a run of no replicas is a bad request (exit 1), not an unanswerable
    # one (exit 2), and no estimator returns an estimate of it
    with pytest.raises(EstimatorError, match=r"^reps must be >= 1$") as exc:
        _ESTIMATOR_CALLS[name](reps)
    assert not isinstance(exc.value, est.EstimatorRefused)


@pytest.mark.parametrize("call, exc, match", [
    (lambda: density_spectrum(TWO_D_OP, 0.7, 0, 10, 4, seed=1),
     EstimatorError, "n >= 1"),
    (lambda: density_spectrum(TWO_D_OP, 0.7, -1, 10, 4, seed=1),
     EstimatorError, "n >= 1"),
    (lambda: edge_speeds(TWO_D_OP, 0.8, 0, 4, seed=1),
     EstimatorError, "T must be >= 1"),
    (lambda: shape_and_time_constants(TWO_D_OP, 0.8, 0, 4, seed=1),
     EstimatorError, "t must be >= 1"),
    (lambda: batch_evolve(TWO_D_OP, [1], 0.5, -1), ValueError, "T must be >= 0"),
    (lambda: survival_curve(TWO_D_OP, 0.5, -1, 4, seed=1),
     ValueError, "T must be >= 0"),
    (lambda: critical_point(TWO_D_OP, 5, 3, 4, float("nan"), seed=1),
     EstimatorError, "tol must be positive"),
    (lambda: crossing_probability(TWO_D_OP, 0.8, 0, 0.2, "1/2", 4, seed=1),
     EstimatorError, "L must be >= 1"),
    (lambda: torus_stats(TWO_D_OP, 0.8, [], 4, 10, seed=1),
     EstimatorError, "at least one torus size"),
    (lambda: primal_dual_meet(TWO_D_OP, 0.8, 0, 4, ("1/2",), seed=1),
     EstimatorError, "t must be >= 1"),
    (lambda: death_bound_fit(TWO_D_OP, 0.8, 60, 12000, (5.7, 25.2), seed=6),
     EstimatorError, r"must satisfy 1 <= a < b <= T in integers"),
    (lambda: subcritical_decay(TWO_D_OP, 0.5, 30, 20000, seed=1,
                               windows=((5.7, 25.2),)),
     EstimatorError, r"must satisfy 1 <= a < b <= T in integers"),
], ids=["density-n0", "density-n-1", "edges-T0", "shape-t0", "batch-T-1",
        "survival-T-1", "pc-tol-nan", "crossing-L0", "torus-no-sizes",
        "meet-t0", "death-window-5.7", "decay-window-5.7"])
def test_degenerate_sizes_are_refused(call, exc, match):
    # these used to end in a ZeroDivisionError or a numpy error from an
    # empty array, or, at T < 0, run no step and report survival 1.0; a
    # NaN tol bisected nothing and reported the bracket [0, 1], L = 0 a
    # crossing frequency of 1.0, no torus size an empty result, t = 0 a
    # meeting failure of 0, and a fit window of non-integers ran truncated
    with pytest.raises(exc, match=match):
        call()


def _never_reached(seeds, *args):
    return np.zeros(len(seeds), dtype=bool)


@pytest.mark.parametrize("call, exc, message", [
    (lambda mp: (mp.setattr(est, "_event_chunk", _never_reached),
                 critical_point(TWO_D_OP, 5, 3, 4, 0.1, seed=1)),
     est.BracketNotFound,
     "event frequency does not cross 1/2 on [0, 1] at this horizon"),
    (lambda mp: shape_and_time_constants(TWO_D_OP, 0.5, 1, 1, T_cond=200, seed=1),
     InsufficientSurvivals,
     "only 0 of 1 conditioned replicas obtained in 50 attempts"),
    (lambda mp: edge_speeds(THREE_D, 0.8, 5, 4, seed=1),
     dyn.DimensionNot2, "edge speeds are defined for d = 2 only"),
    (lambda mp: crossing_probability(THREE_D, 0.8, 10, 0.2, "1/2", 4, seed=1),
     dyn.DimensionNot2, "box crossing is defined for d = 2 only"),
    (lambda mp: restricted_cone_survival(THREE_D, 0.8, ("1/4", "3/4"), 20, 4,
                                         seed=1, t0=5, shape=(0.0, 1.0)),
     dyn.DimensionNot2, "cone survival is implemented for d = 2"),
    (lambda mp: path_crossing_transfer(THREE_D, 0.8, 0.1, 10, 4, seed=1,
                                       alpha="1/2", beta="1/2"),
     dyn.DimensionNot2, "path transfer is defined for d = 2 only"),
    (lambda mp: restricted_cone_survival(TWO_D_OP, 0.8, ("1/4", "3/4"), 5, 4,
                                         seed=1, t0=5, shape=(0.0, 1.0)),
     EstimatorError, "need 0 < t0 < T"),
    (lambda mp: restricted_cone_survival(TWO_D_OP, 0.8, ("3/4", "1/4"), 20, 4,
                                         seed=1, t0=5, shape=(0.0, 1.0)),
     EstimatorError, "cone interval must be non-empty"),
    (lambda mp: box_infection_probe(RANGE2),
     EstimatorError, "box infection probe requires a range-1 model"),
], ids=["pc-no-bracket", "shape-no-survivors", "edges-3d", "crossing-3d",
        "cone-3d", "crosspath-3d", "cone-t0-at-T", "cone-empty", "probe-range2"])
def test_refusals_name_their_class_and_reason(monkeypatch, call, exc, message):
    # the refusals that no other unit test reaches: the exact class, so a
    # refusal (exit 2) cannot turn into an error (exit 1) or back, and the
    # whole message
    with pytest.raises(exc) as info:
        call(monkeypatch)
    assert type(info.value) is exc and str(info.value) == message


def _return_seeds(seeds):
    return seeds


def test_replica_seeds_follow_their_lane():
    # replica i of lane 3 runs on seed index 3 * 2**32 + i, whatever the
    # threads; chunks of 4 from 5 to 23 leave a ragged last chunk
    lane, start, stop = 3, 5, 23
    want = spawn_seeds(11, lane * 2**32 + start, lane * 2**32 + stop)
    for threads in (1, 2):
        parts = est._run_chunks(_return_seeds, (), 11, stop, 4, threads,
                                lane=lane, start=start)
        assert len(parts) == 5 and len(parts[-1]) == 2
        assert np.array_equal(np.concatenate(parts), want)


def test_chunk_workers_take_seeds_first():
    # a chunk worker gets its replicas' seeds from _run_chunks and never
    # derives them itself
    workers = {name: fn for name, fn in inspect.getmembers(est, inspect.isfunction)
               if name.startswith("_") and name.endswith("_chunk")}
    assert len(workers) >= 13
    firsts = {name: next(iter(inspect.signature(fn).parameters))
              for name, fn in workers.items()}
    assert firsts == dict.fromkeys(workers, "seeds")


# ---------------------------------------------------------------------------
# aggregation is independent of the thread count

def test_thread_count_invariance():
    a = survival_curve(TWO_D_OP, 0.6, 30, 5000, seed=12, threads=1)
    b = survival_curve(TWO_D_OP, 0.6, 30, 5000, seed=12, threads=3)
    assert (a.taus == b.taus).all()
    assert a.estimate == b.estimate
    ea = edge_speeds(TWO_D_OP, 0.8, 30, 20, seed=13, threads=1)
    eb = edge_speeds(TWO_D_OP, 0.8, 30, 20, seed=13, threads=2)
    assert ea.alpha == eb.alpha and ea.beta == eb.beta
    da = density_spectrum(TWO_D_OP, 0.7, 4, 20, 12, seed=14, threads=1)
    db = density_spectrum(TWO_D_OP, 0.7, 4, 20, 12, seed=14, threads=2)
    assert (da.samples == db.samples).all()


def test_outcomes_do_not_depend_on_chunk_size(monkeypatch):
    # a replica's outcome depends on its seed alone; 135,000 replicas make
    # an odd number of chunks at every size (135, 33 and 3), so at two
    # threads one worker takes a chunk more than the other
    reps = 135_000
    ref = None
    for threads, chunk in itertools.product((1, 2), (1_000, 4_096, 65_536)):
        monkeypatch.setattr(est, "_DECAY_CHUNK", chunk)
        monkeypatch.setattr(est, "_SURVIVAL_CHUNK", chunk)
        assert math.ceil(reps / chunk) % 2 == 1
        hist = subcritical_decay(
            TWO_D_OP, 0.5, 40, reps, seed=21, threads=threads,
            windows=((5, 10), (10, 15)),
        ).histogram
        taus = survival_curve(TWO_D_OP, 0.5, 40, reps, seed=22, threads=threads).taus
        if ref is None:
            ref = hist, taus
        assert np.array_equal(hist, ref[0]) and np.array_equal(taus, ref[1])


def test_pool_is_sized_to_chunks_and_cores(monkeypatch):
    # the pool forks all its workers at once, so threads beyond the chunks
    # or the cores start none; threads <= 1 run serially.  The pool here
    # records its size and maps in process, so nothing is forked
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(est, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(est, "_SURVIVAL_CHUNK", 4)
    ref = survival_curve(TWO_D_OP, 0.6, 10, 12, seed=1).taus     # 3 chunks
    for cores, threads, want in ((8, 5000, [3]), (8, 2, [2]), (2, 5000, [2]),
                                 (None, 5000, [1]), (8, 1, []), (8, 0, []),
                                 (8, -4, [])):
        monkeypatch.setattr(est.os, "cpu_count", lambda: cores)
        sizes.clear()
        taus = survival_curve(TWO_D_OP, 0.6, 10, 12, seed=1, threads=threads).taus
        assert sizes == want and np.array_equal(taus, ref)


def test_batched_outcomes_do_not_depend_on_chunk_size(monkeypatch):
    # shape, meet, density, goodblock and crosspath step each chunk's
    # replicas as one batch; chunks of one replica are the per-replica
    # reference, the middle sizes leave ragged last chunks, and at two
    # threads several chunks go through the pool
    v = (Fraction(1, 2),)

    def outcomes(threads):
        sh = shape_and_time_constants(TWO_D_OP, 0.75, 40, 20, seed=5,
                                      threads=threads)
        return (
            sh.attempts, sh.lo_samples.tolist(), sh.hi_samples.tolist(),
            sh.supports, {k: e.mean for k, e in sh.mu_hat.items() if e},
            # off the drift, so some pairs alive at t meet and some do not
            primal_dual_meet(TWO_D_OP, 0.8, 12, 20, (Fraction(1, 4),), seed=3,
                             threads=threads).events,
            density_spectrum(TWO_D_OP, 0.7, 4, 20, 13, seed=4,
                             threads=threads).samples.tolist(),
            density_spectrum(THREE_D, 0.7, 2, 10, 5, seed=4,
                             threads=threads).samples.tolist(),
            good_block_probability(TWO_D_OP, 0.8, 4, 2, 9, seed=7, v=v,
                                   threads=threads).events,
            good_block_probability(RANGE2, 0.8, 4, 2, 9, seed=7, v=v,
                                   threads=threads).events,
            # the 2dOP and RANGE2 cases above never vary event 2
            good_block_probability(ASYM3, 0.8, 4, 4, 13, seed=7,
                                   threads=threads).events,
        )

    ref = None
    for threads, (shape, block, meet, rows) in itertools.product(
        (1, 2), ((1, 7, 1, 1), (3, 7, 5, 20), (16, 32, 32, 512)),
    ):
        monkeypatch.setattr(est, "_SHAPE_CHUNK", shape)
        monkeypatch.setattr(est, "_SHAPE_BLOCK", block)
        monkeypatch.setattr(est, "_MEET_CHUNK", meet)
        monkeypatch.setattr(est, "_SITE_ROWS", rows)
        got = outcomes(threads)
        if ref is None:
            ref = got
            assert got[0] > 20          # some attempts died before T_cond
            assert 0 < sum(f for _, f in got[5]) < sum(b for b, _ in got[5])
            assert all(0 < sum(col) < 13 for col in zip(*got[10]))
        assert got == ref
    # a shape chunk's items, the Nones of replicas dead by T_cond included,
    # are those of one-replica chunks in replica order
    seeds = spawn_seeds(5, 0, 16)
    args = (TWO_D_OP, 0.75, 40, 40, (8, 10, 12, 14))
    whole = est._shape_chunk(seeds, *args)
    assert None in whole and whole != sorted(whole, key=lambda x: x is None)
    assert whole == [x for i in range(16)
                     for x in est._shape_chunk(seeds[i:i + 1], *args)]
    # so are a crosspath chunk's records, the Nones of replicas that miss a
    # box included; the boxes cross, so paths meet in some replicas only
    boxes = [est._tilted_box(ASYM3, 2, 21, Fraction(slope), Fraction(off),
                             half=False)
             for slope, off in (("1/2", -3), ("1/4", 3))]
    seeds = spawn_seeds(2, 0, 16)
    args = (ASYM3, 0.8, 0.1, 20, boxes, box_infection_probe(ASYM3))
    whole = est._transfer_chunk(seeds, *args)
    assert None in whole and len(set(whole) - {None}) > 2
    assert whole == [x for i in range(16)
                     for x in est._transfer_chunk(seeds[i:i + 1], *args)]


def test_per_replica_outcomes_do_not_depend_on_chunk_size(monkeypatch):
    # pc, edges, torus, crossing, bgprobe, cone and crosspath split their
    # replicas into chunks of a constant size: chunks of one replica are
    # the per-replica reference, 7 leaves a ragged last chunk, and the
    # default takes each run's replicas in one or a few chunks
    names = ("_EVENT_CHUNK", "_EDGE_CHUNK", "_TORUS_CHUNK", "_CROSS_CHUNK",
             "_BG_CHUNK", "_CONE_CHUNK", "_TRANSFER_CHUNK")
    defaults = {name: getattr(est, name) for name in names}
    g = BlockGeometry((3,), 4, ("1/2",))

    def outcomes(threads):
        cp = critical_point(TWO_D_OP, 8, 8, 20, 0.25, seed=5, threads=threads)
        ed = edge_speeds(TWO_D_OP, 0.8, 30, 20, seed=13, threads=threads)
        return (
            [(p, e.mean) for p, e in cp.sweep], [e.mean for e in cp.stability],
            ed.r_T.tolist(), ed.l_T.tolist(),
            torus_stats(TWO_D_OP, 0.55, [6], 20, 400, seed=8, threads=threads,
                        regime="sub").per_size[0].taus.tolist(),
            crossing_probability(TWO_D_OP, 0.7, 20, 0.2, 0, 20, seed=10,
                                 threads=threads).outcomes.tolist(),
            bg_event_probability(TWO_D_OP, 0.7, g, 1, 20, seed=3,
                                 threads=threads).outcomes.tolist(),
            restricted_cone_survival(TWO_D_OP, 0.7, ("1/4", "3/4"), 30, 20,
                                     seed=1, threads=threads, t0=5,
                                     shape=(0.0, 1.0)).outcomes.tolist(),
            path_crossing_transfer(TWO_D_OP, 0.8, 0.1, 20, 20, seed=2,
                                   threads=threads, alpha="1/2",
                                   beta="1/2").records,
        )

    ref = None
    for threads, size in itertools.product((1, 2), (1, 7, None)):
        for name in names:
            monkeypatch.setattr(est, name, size or defaults[name])
        got = outcomes(threads)
        if ref is None:
            ref = got
            # every per-replica outcome takes more than one value
            for part in got[2:]:
                assert len(set(map(str, part))) > 1, part
        assert got == ref


def _count_runs(monkeypatch):
    """Record (replicas, steps) of every engine run, the slab run's too."""
    runs, run = [], dyn.batch_evolve

    def counted(model, seeds, p, T, **kwargs):
        runs.append((len(seeds), T))
        return run(model, seeds, p, T, **kwargs)

    monkeypatch.setattr(dyn, "batch_evolve", counted)
    monkeypatch.setattr(est, "batch_evolve", counted)
    return runs


def test_shape_chunk_without_survivors(monkeypatch):
    # at p = 0 no replica survives, so the chunk is all None and its one
    # origin run starts no slab run
    def refuse(*args, **kwargs):
        raise AssertionError("coupled_slab called")

    monkeypatch.setattr(est, "coupled_slab", refuse)
    runs = _count_runs(monkeypatch)
    assert est._shape_chunk(spawn_seeds(5, 0, 6), TWO_D_OP, 0.0, 10, 10,
                            (2, 3, 4, 5)) == [None] * 6
    assert runs == [(6, 10)]


@pytest.mark.parametrize("T_cond", [1, 10, 30])
def test_shape_chunk_runs_the_origin_once_and_the_slab_on_survivors(
        monkeypatch, T_cond):
    seeds, t = spawn_seeds(5, 0, 16), 10
    survivors = int(batch_evolve(TWO_D_OP, seeds, 0.7, T_cond).alive_at_T.sum())
    assert 0 < survivors < len(seeds)
    runs = _count_runs(monkeypatch)
    est._shape_chunk(seeds, TWO_D_OP, 0.7, t, T_cond, (2, 3, 4, 5))
    assert runs == [(len(seeds), max(t, T_cond)), (survivors, t)]


def test_shape_chunk_conditions_on_survival_to_a_later_T_cond():
    # with T_cond = t + 20 the items are those of T_cond = t, except that
    # replicas dead by T_cond give None; one alive at t dies before T_cond
    seeds, t, ns = spawn_seeds(5, 0, 16), 10, (2, 3, 4, 5)
    at_t = est._shape_chunk(seeds, TWO_D_OP, 0.7, t, t, ns)
    later = est._shape_chunk(seeds, TWO_D_OP, 0.7, t, t + 20, ns)
    alive = batch_evolve(TWO_D_OP, seeds, 0.7, t + 20).alive_at_T
    assert later == [item if a else None for item, a in zip(at_t, alive)]
    assert any(item is not None and not a for item, a in zip(at_t, alive))


def _shape_item(model, p, seed, t, T_cond, ns):
    """Set-based shape chunk item: the origin growth gives survival to
    T_cond, the row-0 hit times up to t and the support at t; a slab growth
    from a window wider than the cone gives the slab run's row 0 at t."""
    field, R = FieldSpec(seed=int(seed), p=p), model.R
    levels = oracles.infected_times(model, field, [(0, 0)], max(t, T_cond))
    if not any(levels.get(tau) for tau in range(T_cond, T_cond + R)):
        return None
    # the t-step cone of the origin, one site wider on each side
    lo = -1 + t * min(0, model.spatial_min[0])
    hi = 2 + t * max(0, model.spatial_max[0])
    reach = t * max(abs(y[0]) for y, _ in model.split_offsets) + 5
    slab = {x for x, s in oracles.slab_state(
        model, field,
        [(x, s) for s in range(R) for x in range(lo - reach, hi + reach)], t)
        if s == 0}
    at_t = {x for (x,) in levels.get(t, ())}
    hit = {}
    for step in range(t + 1):
        for (x,) in levels.get(step, ()):
            hit.setdefault(x, step)
    # the longest run of sites hit by t on which both runs agree at t,
    # the leftmost of equal ones
    run, a = None, None
    for x in range(lo, hi + 1):
        if x < hi and x in hit and (x in at_t) == (x in slab):
            a = x if a is None else a
        elif a is not None:
            if run is None or x - a > run[1] - run[0] + 1:
                run = (a, x - 1)
            a = None
    if run is None:
        return None
    a, b = run
    mus = {}
    for d in (-1.0, 1.0):
        pts = [(n, hit[round(n * d)]) for n in ns if round(n * d) in hit]
        mus[(d,)] = (sum(n * tn for n, tn in pts) / sum(n * n for n, _ in pts)
                     if len(pts) >= 3 else None)
    support = (min(at_t), max(at_t)) if at_t else None
    return (a / t, b / t, support, mus)


@pytest.mark.parametrize("model, p", [(TWO_D_OP, 0.7), (ASYM3, 0.5)],
                         ids=["2dOP", "asym3"])
def test_shape_chunk_matches_set_growth(model, p):
    seeds, t, ns = spawn_seeds(19, 0, 20), 12, (2, 3, 4, 5, 6)
    items = []
    for T_cond in (1, t, t + 10):
        got = est._shape_chunk(seeds, model, p, t, T_cond, ns)
        assert got == [_shape_item(model, p, s, t, T_cond, ns) for s in seeds]
        items += got
    assert None in items and any(item is not None for item in items)
