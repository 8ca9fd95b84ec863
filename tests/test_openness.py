"""The native kernels against their numpy references, and their build."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gosp
import gosp.dynamics as dyn
from gosp import _openness
from gosp.dynamics import batch_evolve, coupled_slab, torus_extinction_batch
from gosp.field import spawn_seeds
from gosp.geometry import BlockGeometry, TranslatedBlock, cone_box

from conftest import (
    ASYM3, DRIFT2, MODEL_POOL, RANGE2, THREE_D, TWO_D_OP, model_file, numpy_path,
)

SRC = str(Path(gosp.__file__).resolve().parents[1])
PS = [0.0, 0.3, 0.5, 0.7, 1.0]

native = pytest.mark.skipif(_openness.KIND != "native",
                            reason="the native kernel did not build here")


# ---------------------------------------------------------------------------
# equivalence

@st.composite
def _states(draw):
    """A state of a drawn model: B replicas of random rows, some of them
    empty, at a negative or positive anchor, possibly as a strided view
    like the trimmed rows a step leaves."""
    model = draw(st.sampled_from(MODEL_POOL + [DRIFT2]))
    d_s = model.d - 1
    B = draw(st.integers(1, 6))
    ext = tuple(draw(st.integers(1, 12 if d_s == 1 else 5)) for _ in range(d_s))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((B, model.R) + ext) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    rows[rng.random(B) < 0.2] = False
    if draw(st.booleans()):
        big = np.zeros((B, model.R) + tuple(e + 3 for e in ext), dtype=bool)
        view = (slice(None), slice(None)) + tuple(slice(1, 1 + e) for e in ext)
        big[view] = rows
        rows = big[view]
    anchor = tuple(draw(st.integers(-60, 60)) for _ in range(d_s))
    return model, dyn.BatchState(draw(st.integers(0, 5)), anchor, rows)


_times = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-300, 300))


def _moving_box(origin, width, drift):
    """A box domain [o_a + s, o_a + s + width) on axis a, o = ``origin``,
    shifted by s = drift * (t % 3) at time t; empty (lo = hi) at the times
    divisible by 5, and with lo > hi wherever width < 0."""
    def domain(t):
        if t % 5 == 0:
            return tuple(origin), tuple(origin)
        lo = tuple(o + drift * (t % 3) for o in origin)
        return lo, tuple(c + width for c in lo)

    return domain


@native
@settings(max_examples=300, deadline=None)
@given(_states(), _times, st.sampled_from(PS), st.booleans(), st.booleans(),
       st.integers(-8, 12), st.integers(-3, 12), st.integers(-2, 2))
@example((TWO_D_OP, dyn.BatchState(0, (0,), np.ones((3, 1, 6), dtype=bool))),
         1, 0.5, False, True, 4, -2, 0)
@example((RANGE2, dyn.BatchState(2, (-3,), np.ones((2, 2, 7), dtype=bool))),
         9, 1.0, True, True, 3, 3, 1)
def test_native_step_matches_numpy_step(case, t0, p, dual, masked, off, width, drift):
    # one step of each kernel from a drawn state: negative coordinates and
    # times wrap as u64, and the domain is a box that moves with t, partly
    # or wholly outside the masked window, empty at some times and, for a
    # negative width, inverted; the step drops the dead replicas in place,
    # and writes their extinction into a larger array through a shuffled
    # index
    model, state = case
    B = state.batch
    seeds = spawn_seeds(t0 & 0xFFFF, 0, B)
    rng = np.random.default_rng(t0 & 0xFFFF)
    index = rng.permutation(B + 3)[:B]
    extinction = rng.choice([-1, 0, 3], B + 3)
    # axis a starts a sites further, so no two axes clip alike
    domain = _moving_box([c + off + a for a, c in enumerate(state.anchor)], width, drift)

    kernel = dyn._dual_batch_step if dual else dyn._batch_step

    def step(sel):
        openness = dyn.BatchOpenness(seeds[sel], p)
        openness.index, openness.extinction = index[sel].copy(), extinction.copy()
        openness.bind(model, dual)
        start = dyn.BatchState(state.t, state.anchor, state.rows[sel], openness.index)
        nxt = kernel(start, model, openness, domain if masked else None, t0)
        return nxt, openness

    got, got_open = step(slice(None))
    with numpy_path():
        ref, ref_open = step(slice(None))
    assert got.t == ref.t and got.anchor == ref.anchor
    assert got.rows.dtype == ref.rows.dtype == bool
    assert np.array_equal(got.rows, ref.rows) and got.alive().all()
    assert got.index is got_open.index and ref.index is ref_open.index
    for name in ("index", "extinction", "seeds", "table"):
        assert np.array_equal(getattr(got_open, name), getattr(ref_open, name))
    # each survivor, in replica order, is the step of its replica alone,
    # with its own seed and table row; each other replica ends at t + 1
    expect, j = extinction.copy(), 0
    for b in range(B):
        with numpy_path():
            one, one_open = step([b])
        if not one.batch:
            expect[index[b]] = state.t + 1
            continue
        assert ref.index[j] == index[b] and ref_open.seeds[j] == seeds[b]
        assert np.array_equal(ref_open.table[j], one_open.table[0])
        assert np.array_equal(ref.rows[j], dyn._grid_occupancy(
            one.anchor, one.rows[0], ref.anchor, ref.rows.shape[2:]))
        j += 1
    assert j == ref.batch and np.array_equal(ref_open.extinction, expect)


def _domains(model):
    """The engine's domains, as the estimators build them."""
    d_s = model.d - 1
    block = TranslatedBlock(BlockGeometry((6,) * d_s, 9, (Fraction(1, 2),) * d_s),
                            (Fraction(-1),) * d_s + (Fraction(1),))
    out = {"none": None, "block": block.box}
    if d_s == 1:
        out["cone"] = partial(cone_box, Fraction(-1, 3), Fraction(4, 5))
    return out


@native
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MODEL_POOL + [DRIFT2]), st.sampled_from(PS),
    st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 15),
    st.booleans(), st.sampled_from(["none", "block", "cone"]),
    st.integers(0, 15),
)
@example(THREE_D, 0.5, 1, 1, 10, False, "block", 3)
@example(RANGE2, 1.0, 2, 1, 12, True, "none", 20)
@example(DRIFT2, 0.0, 3, 7, 5, False, "cone", 1)
@example(RANGE2, 0.7, 4, 30, 15, True, "none", 6)
@example(DRIFT2, 0.5, 5, 9, 12, True, "block", 4)
def test_native_runs_match_numpy_runs(model, p, master, B, T, dual, dom, clear_at):
    # every state an observer sees, one that ends every third replica at
    # clear_at, snapshots, every domain kind and the coupled slab's
    # shrinking cone; the dual queries negative times; the torus runs whole
    # replicas in C against the numpy loop's one query per step.  Two
    # unobserved runs besides: one from per-replica rows, every other one
    # empty at t = 0, and one whose horizon is the last extinction step of
    # the plain run, so that replicas die exactly at T
    seeds = spawn_seeds(master, 0, B)
    domain = _domains(model).get(dom)
    d_s = model.d - 1
    rng = np.random.default_rng(master)
    start = rng.random((B, model.R) + (3,) * d_s) < 0.5
    start[::2] = False

    def runs():
        seen = []

        def observer(t, state):
            seen.append((t, state.anchor, state.index.copy(), state.rows.copy()))
            if t == clear_at:
                return state.index % 3 == 0

        # the dual runs backwards from time T, through the domains' times
        t0 = T if dual else 0
        res = batch_evolve(model, seeds, p, T, t0=t0, dual=dual, domain=domain,
                           per_step=observer, snapshot_times=[0, T // 2, T])
        plain = batch_evolve(model, seeds, p, T, t0=t0, dual=dual, domain=domain)
        empty = batch_evolve(model, seeds, p, T, t0=t0, dual=dual, domain=domain,
                             init=((-1,) * d_s, start))
        # with no replica dying (-1 throughout) the horizon is 0 steps
        last = max(int(plain.extinction.max()), 0)
        at_T = batch_evolve(model, seeds, p, last, t0=t0, dual=dual, domain=domain)
        coupled = coupled_slab(model, seeds, p, T, ((-2,) * d_s, (3,) * d_s))
        n = int(3 * model.gamma * model.R) + 3
        torus = torus_extinction_batch(model, p, seeds, n, 3 * T)
        snaps = [(t, s.anchor, s.rows) for t, s in sorted(res.snapshots.items())]
        return (res.extinction, plain.extinction, empty.extinction, at_T.extinction,
                coupled, torus.extinction, seen, snaps)

    got = runs()
    with numpy_path():
        ref = runs()
    for a, b in zip(got[:6], ref[:6]):
        assert np.array_equal(a, b)
    observed, plain, empty, at_T = got[:4]
    assert (empty[::2] == 0).all()
    assert np.array_equal(at_T == plain.max(), plain == plain.max())
    # the replicas the observer returned end at the step it returned them
    ended = [i for t, _, index, _ in got[6] if t == clear_at for i in index if i % 3 == 0]
    assert (observed[ended] == clear_at).all()
    for seen_a, seen_b in zip(got[6:], ref[6:]):
        assert len(seen_a) == len(seen_b)
        for a, b in zip(seen_a, seen_b):
            assert a[:2] == b[:2] and all(map(np.array_equal, a[2:], b[2:]))


@pytest.mark.parametrize("dual", [False, True])
def test_compacting_run_leaves_the_callers_seeds(dual):
    # the steps move the survivors' seeds down in place, on a copy: the
    # caller's uint64 array, which BatchOpenness may hold as it is, keeps
    # its order on both paths
    seeds = spawn_seeds(8, 0, 200)
    before = seeds.copy()
    runs = []
    for path in (contextlib.nullcontext, numpy_path):
        with path():
            runs.append(batch_evolve(TWO_D_OP, seeds, 0.6, 40, dual=dual).extinction)
        assert np.array_equal(seeds, before)
    assert np.array_equal(*runs)
    # replicas die at several steps, and some live to T
    assert len(np.unique(runs[0])) > 3 and (runs[0] < 0).any()


@native
@pytest.mark.parametrize("dual", [False, True])
def test_native_steps_never_run_the_numpy_body(monkeypatch, dual):
    # with the library loaded, every step of a run takes exactly one call
    # of the native kernel, through a domain, snapshots and an observer
    # that ends rows
    def numpy_body(*args):
        raise AssertionError("a step ran its numpy body")

    monkeypatch.setattr(dyn, "open_mask", numpy_body)
    monkeypatch.setattr(dyn, "_shift_in", numpy_body)
    calls = []
    kernel = _openness._step
    monkeypatch.setattr(_openness, "_step", lambda run: calls.append(1) or kernel(run))

    def end_even(t, state):
        if t == 5:
            ended.extend(state.index[state.index % 2 == 0])
            return state.index % 2 == 0

    for model in (TWO_D_OP, RANGE2, THREE_D):
        calls.clear()
        ended = []
        # the dual runs backwards from time 9, through the block's times
        res = batch_evolve(model, spawn_seeds(3, 0, 40), 0.7, 20, dual=dual,
                           t0=9 if dual else 0, domain=_domains(model)["block"],
                           per_step=end_even, snapshot_times=[10])
        steps = int(np.where(res.extinction < 0, 20, res.extinction).max())
        assert len(calls) == steps > 5
        assert ended and (res.extinction[ended] == 5).all()


@native
def test_compacting_step_refuses_mismatched_bookkeeping():
    # a wrong dtype, a missing row, a strided array or sources outside the
    # rows never bind the struct of the kernel's in-place moves; a table
    # bound for fewer replicas, rows of another R, a box of the wrong
    # length and a window outside the table's box never reach the kernel,
    # which refuses a box outside the window, or inverted, before it writes
    # anything
    rows, sources = np.ones((2, 1, 3), dtype=bool), np.array([[0, 0], [0, 1]])
    table = np.zeros((2, 4), dtype=np.uint64)
    good = [np.zeros(2, np.uint64), np.arange(2), np.full(2, -1)]

    def bound(seeds, index, extinction, table=table, sources=sources, shift=(0,)):
        chain = _openness.chain_step(sources, shift, 1, False, 0, seeds, index, extinction)
        chain.bind(table)
        return chain

    for i, bad in [(1, np.arange(2, dtype=np.int32)), (0, np.zeros(1, np.uint64)),
                   (0, np.zeros(4, np.uint64)[::2]), (2, np.full(2, -1.0))]:
        with pytest.raises(ValueError, match="a chain_step needs"):
            bound(*(bad if j == i else a for j, a in enumerate(good)))
    for kw in [{"table": np.zeros((2, 8), np.uint64)[:, ::2]},
               {"table": table.astype(np.int64)}, {"table": np.zeros((3, 4), np.uint64)},
               {"sources": sources.astype(np.int32)}, {"sources": np.array([[1, 0]])},
               {"sources": np.array([[0, -1]])}, {"sources": np.zeros((0, 2), np.int64)},
               {"shift": (0, 0)}]:
        with pytest.raises(ValueError, match="a chain_step needs"):
            bound(*good, **kw)
    whole = [0, 4]                      # the new row's window (4,)
    with pytest.raises(ValueError, match="bound to 1 replicas, not 2"):
        bound(*good, table=table[:1])(rows, (0,), [0], (0,), whole, 1)
    with pytest.raises(ValueError, match="of 1 rows, not 2"):
        bound(*good)(np.ones((2, 2, 3), dtype=bool), (0,), [0], (0,), whole, 1)
    for box in ([0], [0, 4, 0], [], [0, 4] * 2):
        with pytest.raises(ValueError, match=f"box holds 2 ints, not {len(box)}"):
            bound(*good)(rows, (0,), [0], (0,), box, 1)
    for box in ([-1, 4], [0, 5], [3, 2], [5, 5]):
        with pytest.raises(ValueError, match=r"not 0 <= lo <= hi <= \(4,\)"):
            bound(*good)(rows, (0,), [0], (0,), box, 1)
    for place in ((-1,), (1,)):
        with pytest.raises(ValueError, match=r"leaves the table's box \(4,\)"):
            bound(*good)(rows, (0,), [0], place, whole, 1)
    assert good[2].tolist() == [-1, -1]
    out, anchor, _ = bound(*good)(rows, (0,), [0], (0,), whole, 1)
    assert out.shape == (0, 1, 4) and anchor == (0,) and good[2].tolist() == [1, 1]


def _widening_box(d_s, gap_at):
    """A box domain that widens by a site every other unit of time and
    shifts with t, so that it cuts the windows of a run from the origin at
    most steps; at time ``gap_at`` it is inverted (lo > hi) if that time
    is even, and wholly outside every window if it is odd."""
    def domain(t):
        lo, hi = -2 - abs(t) // 2 + t % 3, 3 + abs(t) // 2 + t % 3
        if t == gap_at:
            lo, hi = (hi, lo) if t % 2 == 0 else (lo + 10**6, hi + 10**6)
        return (lo,) * d_s, (hi,) * d_s

    return domain


@native
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MODEL_POOL), st.booleans(), st.sampled_from([0.7, 0.85, 1.0]),
    st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(6, 30),
    st.lists(st.integers(0, 30), max_size=3), st.integers(0, 30),
    st.integers(0, 40),
)
@example(TWO_D_OP, False, 1.0, 1, 5, 20, [3, 9], 7, 40)
@example(THREE_D, True, 1.0, 2, 4, 12, [2], 5, 40)
@example(RANGE2, False, 0.85, 3, 12, 30, [0, 4, 5], 30, 17)
@example(RANGE2, True, 1.0, 4, 6, 24, [], 12, 10)
def test_native_runs_rederive_their_pointers(model, dual, p, master, B, T, end_at, snap,
                                             gap_at):
    # the kernel finds the rows it stepped last at the address it wrote
    # them to, and every other rows, such as those _keep copied when the
    # observer ended some, through numpy; its table, until _cover
    # reallocates it as the windows outgrow the box: native and numpy runs
    # agree through observers that end rows at drawn steps, snapshots and a
    # box domain that moves with t and is empty at one drawn time, and a
    # run at p = 1 that lives to T outgrows its first box
    seeds = spawn_seeds(master, 0, B)
    tables = []
    bind = _openness.ChainStep.bind

    def counting_bind(self, table):
        if table is not None:
            tables.append(table.shape)
        bind(self, table)

    def run():
        seen = []

        def observer(t, state):
            seen.append((t, state.anchor, state.index.copy(), state.rows.copy()))
            if t in end_at:
                return state.index % 3 == t % 3

        res = batch_evolve(model, seeds, p, T, t0=T if dual else 0, dual=dual,
                           domain=_widening_box(model.d - 1, gap_at), per_step=observer,
                           snapshot_times=[min(snap, T), T])
        snaps = [(t, s.anchor, s.rows) for t, s in sorted(res.snapshots.items())]
        return res.extinction, snaps, seen

    _openness.ChainStep.bind = counting_bind
    try:
        got = run()
    finally:
        _openness.ChainStep.bind = bind
    with numpy_path():
        ref = run()
    assert np.array_equal(got[0], ref[0])
    for a, b in zip(got[1:], ref[1:]):
        # lists of (t, anchor, *arrays)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x[:2] == y[:2] and all(map(np.array_equal, x[2:], y[2:]))
    if p == 1.0 and (got[0] < 0).any():
        assert len(tables) >= 2


def _word_side(model):
    """The largest torus side whose R * n**(d-1) sites fit in the 64-bit
    word of ``torus_run``'s word path; larger sides take its byte path."""
    return max(n for n in range(1, 65) if model.R * n ** (model.d - 1) <= 64)


@st.composite
def _torus_sides(draw):
    """A model and a torus side: one of its five smallest allowed sides, or
    one within two of its largest word-path side, on either side of it."""
    model = draw(st.sampled_from(MODEL_POOL))
    least, word = int(2 * model.gamma * model.R) + 1, _word_side(model)
    return model, draw(st.integers(least, least + 4)
                       | st.integers(max(least, word - 2), word + 2))


def _torus_extinction(model, n, p, master, B, T_max):
    """Extinction steps of B torus replicas on the side n."""
    seeds = spawn_seeds(master, 0, B)
    return torus_extinction_batch(model, p, seeds, n, T_max).extinction


@native
@settings(max_examples=150, deadline=None)
@given(
    _torus_sides(), st.sampled_from(PS), st.integers(0, 2**32 - 1),
    st.integers(0, 12), st.one_of(st.just(1), st.integers(0, 400)),
)
# a batch with no replica; one step; replicas alive at T_max on every model,
# RANGE2 among them, with others dead before it
@example((TWO_D_OP, 3), 0.5, 1, 0, 50)
@example((THREE_D, 3), 0.3, 2, 5, 1)
@example((RANGE2, 5), 0.7, 3, 12, 300)
@example((ASYM3, 5), 0.7, 4, 12, 300)
@example((THREE_D, 4), 0.5, 5, 12, 300)
# the largest word-path side and the smallest byte-path one (R = 1 and
# N = 64 among them, where the word shifts a whole row out), p = 1 and no
# step at all on the word path
@example((TWO_D_OP, 64), 0.6, 6, 12, 300)
@example((TWO_D_OP, 65), 0.6, 7, 12, 300)
@example((RANGE2, 32), 0.55, 8, 12, 300)
@example((RANGE2, 33), 0.55, 9, 12, 300)
@example((THREE_D, 8), 0.4, 10, 12, 300)
@example((THREE_D, 9), 0.4, 11, 12, 300)
@example((TWO_D_OP, 64), 1.0, 12, 3, 300)
@example((RANGE2, 32), 0.5, 13, 3, 0)
def test_native_torus_matches_numpy_torus(side, p, master, B, T_max):
    got = _torus_extinction(*side, p, master, B, T_max)
    with numpy_path():
        ref = _torus_extinction(*side, p, master, B, T_max)
    assert got.dtype == ref.dtype == np.int64
    assert np.array_equal(got, ref)


@native
def test_torus_kernel_refuses_gather_outside_the_rows():
    # indices past either end of the R*N rows, a row of the wrong length and
    # no offset at all never reach the C loop
    prefix = np.zeros((2, 4), dtype=np.uint64)
    for gather in ([[0, 1, 2, 4]], [[-1, 0, 1, 2]], [[0, 1, 2]], np.zeros((0, 4))):
        with pytest.raises(ValueError, match="gather must be"):
            _openness.torus_extinction(prefix, np.array(gather), 1, 10, 0, 0, 0)


# ---------------------------------------------------------------------------
# build, fallback and cache

def _env(cache, path=None):
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache))
    if path is not None:
        env["PATH"] = path
    return env


def _cache_files(cache):
    return sorted(p.name for p in (cache / "gosp").iterdir())


_CLI_RUNS = """
import sys
from gosp.cli import main
model, out = sys.argv[1:]
sys.exit(main(["survival", "--model", model, "--seed", "5", "--p", "0.7",
               "--T", "40", "--reps", "300", "--dual", "--out", out + "/dual"])
         or main(["torus", "--model", model, "--seed", "6", "--p", "0.7",
                  "--sizes", "6", "--reps", "40", "--T-max", "300",
                  "--out", out + "/torus"]))
"""


@native
def test_failed_build_falls_back_to_numpy(tmp_path):
    # no compiler on PATH and nothing cached: the run takes the numpy path,
    # says so in its manifest only, and writes the native run's bytes
    model = model_file(tmp_path, TWO_D_OP)
    (tmp_path / "empty-bin").mkdir()
    paths = {"native": None, "numpy": str(tmp_path / "empty-bin")}
    for kind, path in paths.items():
        cache = tmp_path / f"cache-{kind}"
        cache.mkdir()
        subprocess.run(
            [sys.executable, "-c", _CLI_RUNS, model, str(tmp_path / kind)],
            env=_env(cache, path), check=True, capture_output=True, timeout=300,
        )
        assert _cache_files(cache) == (
            [] if kind == "numpy" else [_openness._library_name()])
    for run in ("dual", "torus"):
        a, b = tmp_path / "native" / run, tmp_path / "numpy" / run
        for name in ("results.jsonl", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
            assert b"openness" not in (a / name).read_bytes()
        for kind in paths:
            manifest = json.loads((tmp_path / kind / run / "manifest.json").read_text())
            assert manifest["openness"] == kind


_BUILD_AND_CHECK = """
import numpy as np
from gosp import _openness
from gosp.dynamics import batch_evolve, torus_extinction_batch
from gosp.field import site_hash
from gosp.model import NeighborhoodSpec, validate
assert _openness.KIND == "native" and None not in (_openness._hash, _openness._torus)
model = validate(NeighborhoodSpec(d=2, offsets=((0, 1), (1, 2))))
seeds = np.arange(30, dtype=np.uint64)
grid = (seeds.reshape(-1, 1, 1), [np.arange(-3, 4).reshape(-1, 1), np.arange(5)])
hashes = site_hash(*grid)
runs = [batch_evolve(model, seeds, 0.65, 60, dual=dual).extinction
        for dual in (False, True)]
# compacting runs: replicas die at several steps, and some live to T
assert all(len(set(a.tolist())) > 3 and (a < 0).any() for a in runs)
# one torus on each path of torus_run: R*N = 12 sites in a word, 80 in bytes
tori = [torus_extinction_batch(model, 0.65, seeds, n, 200).extinction for n in (6, 40)]
_openness._hash = _openness._step = _openness._torus = None
assert np.array_equal(hashes, site_hash(*grid))
assert all(np.array_equal(a, batch_evolve(model, seeds, 0.65, 60, dual=dual).extinction)
           for a, dual in zip(runs, (False, True)))
assert all(np.array_equal(a, torus_extinction_batch(model, 0.65, seeds, n, 200).extinction)
           for a, n in zip(tori, (6, 40)))
"""


@native
def test_concurrent_first_builds_share_the_cache(tmp_path):
    # two processes build into one empty cache at once: both load a working
    # kernel and no temporary file is left behind
    procs = [
        subprocess.Popen([sys.executable, "-c", _BUILD_AND_CHECK],
                         env=_env(tmp_path), stderr=subprocess.PIPE)
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    assert _cache_files(tmp_path) == [_openness._library_name()]


_POOL_RUN = """
import glob, os, sys
import gosp.cli as cli
import gosp.estimators as est

cache, model, out = sys.argv[1:]
# the import built the kernel; with it gone, a worker that loaded the
# kernel again would build it afresh into the cache
for path in glob.glob(os.path.join(cache, "gosp", "*")):
    os.unlink(path)
starts = []

class Pool(est.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        starts.append(1)
        super().__init__(*args, **kwargs)

est.ProcessPoolExecutor = Pool
cli.run({"estimator": "survival", "model": model, "seed": 3, "p": 0.7,
         "T": 30, "reps": 5000}, 2, out)
assert starts, "the run used no process pool"
assert not os.listdir(os.path.join(cache, "gosp")), "a worker built the kernel"
"""


@native
def test_pool_workers_never_build(tmp_path):
    model = model_file(tmp_path, TWO_D_OP)
    cache = tmp_path / "cache"
    cache.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_RUN, str(cache), model, str(tmp_path / "out")],
        env=_env(cache), capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_source_builds_without_warnings(tmp_path):
    proc = subprocess.run(
        ["gcc", *_openness._FLAGS, "-Wall", "-Wextra", "-Werror",
         _openness._SOURCE, "-o", str(tmp_path / "kernels.so")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
