"""Evolution of the domain-restricted lattice growth chain and its dual.

The chain lives on the time slab Z^{d-1} x [0, R).  One step shifts the slab
forward: row s of the new state is row s+1 of the old one for s < R-1, and
the new top row contains (x, R-1) iff the space-time site (x, t+R) is open,
lies in the domain, and is reachable by a single step offset from an
occupied site of the old state.

States are dense boolean arrays over a moving spatial window, with a leading
batch axis so that independent replicas (distinct seeds) evolve in lockstep
through the same vectorised kernels; ``evolve`` and ``dual_evolve`` are
one-replica runs of ``batch_evolve`` and return its ``BatchResult``.

Openness comes from one ``BatchOpenness`` per batch.  By the prefix identity
of the field, site_hash(seed, [*x, t]) = mix(site_hash(seed, x) ^ (u64(t) * C
+ G)), so the time-independent spatial prefix of each replica and site is
hashed once into a table and every step finishes it with a single mix and
the threshold test.

A domain is a box per time: ``domain(t)`` gives the half-open integer
bounds (lo, hi) of the sites x that a path may step on at time t, empty
when lo >= hi on some axis.  Each step clips the box to the window it
masks (``_clip``): the sites outside are cleared, and only those inside
are tested for openness.

Each step of ``batch_evolve`` (``_batch_step``, ``_dual_batch_step``) is one
call of the native kernel ``chain_step`` of ``gosp._openness``: the shift-OR
through the offsets, the open test inside the domain's box, the slab shift
and the occupancy that ``_trim`` needs, for any d and R, and the dropping of
the replicas that died.  The run binds the kernel once, through
``BatchOpenness.bind``, to everything that stays put between steps; the
table is bound again only when ``_cover`` reallocates it, so a step passes
the kernel only its rows, its time keys, the place of its window in the
table and its clipped box.  The numpy body of each step is the reference;
it runs only without the library, clipping by slicing, finishing the prefix
hashes with ``open_mask`` and dropping the dead replicas in numpy.

``batch_evolve`` steps the primal and dual chains on Z^{d-1}.  The quotient
chain on the side-n torus has a stepping loop of its own,
``torus_extinction_batch``: its window never moves, so each step is a
gather of the flat rows through one precomputed index per offset.  With the
native library each replica runs alone in C until it dies (``torus_run``),
its R*N rows packed into one 64-bit word when R*N <= 64 (the word path)
and one byte a site otherwise (the byte path); the numpy loop, their
reference and fallback, steps the batch in lockstep and finishes the
torus's prefix table with ``open_mask`` at every step.

All truncations of infinite initial conditions rest on the cone bound of
``dependency_cone``: a run started on the ``source_window`` of the boxes it
is read on agrees there with the infinite slab, and the half slab of
``half_slab_edges`` certifies its cut as it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, le, sub
from typing import Callable, Iterable

import numpy as np

from ._openness import chain_step, torus_extinction
from .field import (_COORD_MUL, FieldSpec, _as_u64, _coord_key, open_mask,
                    site_hash, threshold_for)
from .model import NormalizedModel


class DynamicsError(ValueError):
    pass


class OutsideSlab(DynamicsError):
    pass


class DimensionNot2(DynamicsError):
    pass


class TorusTooSmall(DynamicsError):
    pass


class TruncationUncertified(DynamicsError):
    """A truncated half slab's frontier fell within reach of the omitted
    sources (or died out), so it need not be the infinite half slab's."""


# ---------------------------------------------------------------------------
# states

@dataclass
class BatchState:
    """Occupancy of a batch of replicas: rows has shape (B, R, *extent).

    ``t`` counts chain steps from the start of the run; for primal evolution
    it is offset by the start time t0 of the run when querying the field.
    ``index`` gives the original replica of each row of a run's state,
    whose rows are those of its live replicas only, so that a step never
    meets an empty window.
    """

    t: int
    anchor: tuple[int, ...]
    rows: np.ndarray
    index: np.ndarray | None = None

    @property
    def batch(self) -> int:
        return self.rows.shape[0]

    def alive(self) -> np.ndarray:
        B, R, *ext = self.rows.shape
        return self.rows.reshape(B, R, math.prod(ext)).any(axis=(1, 2))


def _occupancy(rows: np.ndarray):
    """Which replicas the rows occupy, and the (lo, hi) bounds of the cells
    that any of them occupies: the numpy counterpart of what ``chain_step``
    returns."""
    B, R, *ext = rows.shape
    d_s = len(ext)
    occ = rows.reshape(B, R, math.prod(ext)).any(axis=1)
    alive, cells = occ.any(axis=1), occ.any(axis=0).reshape(ext)
    lo, hi = [], []
    if alive.any():
        for ax in range(d_s):
            nz = np.flatnonzero(cells.any(axis=tuple(i for i in range(d_s) if i != ax)))
            lo.append(int(nz[0]))
            hi.append(int(nz[-1]) + 1)
    return alive, (lo, hi)


def _trim(rows: np.ndarray, anchor, box):
    """Shrink the spatial window of the live ``rows`` to ``box``, the
    (lo, hi) bounds of the cells they occupy, which ``_occupancy`` and
    ``chain_step`` give; with no rows the window is empty.  Returns the
    trimmed rows and their anchor."""
    lo, hi = box if len(rows) else ([0] * (rows.ndim - 2),) * 2
    return rows[(slice(None),) * 2 + tuple(map(slice, lo, hi))], tuple(map(add, anchor, lo))


def _on_box(anchor, rows, box) -> np.ndarray:
    """The cells of ``rows`` at ``anchor`` on the integer box (lo, hi), the
    leading axes kept; cells outside the rows read unset, an empty box none."""
    lo, hi = box
    lead = rows.shape[:rows.ndim - len(lo)]
    out = np.zeros(lead + tuple(max(h - l, 0) for l, h in zip(lo, hi)), dtype=bool)
    src, dst = [], []
    for a, e, l, h in zip(anchor, rows.shape[len(lead):], lo, hi):
        s0, s1 = max(l - a, 0), min(h - a, e)
        if s0 >= s1:
            return out
        src.append(slice(s0, s1))
        dst.append(slice(s0 + a - l, s1 + a - l))
    out[(...,) + tuple(dst)] = rows[(...,) + tuple(src)]
    return out


def rows_from_sites(model: NormalizedModel, sites) -> tuple[tuple[int, ...], np.ndarray]:
    """Minimal (anchor, rows) for a finite set of slab sites."""
    R, d_s = model.R, model.d - 1
    sites = [tuple(int(c) for c in s) for s in sites]
    for s in sites:
        if len(s) != d_s + 1:
            raise OutsideSlab(f"site {s} has wrong dimension")
        if not 0 <= s[-1] < R:
            raise OutsideSlab(f"site {s} outside the slab [0, {R})")
    if not sites:
        return (0,) * d_s, np.zeros((R,) + (0,) * d_s, dtype=bool)
    anchor = tuple(min(s[i] for s in sites) for i in range(d_s))
    ext = tuple(max(s[i] for s in sites) - anchor[i] + 1 for i in range(d_s))
    rows = np.zeros((R,) + ext, dtype=bool)
    for s in sites:
        rows[(s[-1],) + tuple(c - a for c, a in zip(s, anchor))] = True
    return anchor, rows


def slab_window_rows(model: NormalizedModel, lo, hi) -> tuple[tuple[int, ...], np.ndarray]:
    """Fully occupied slab over the spatial window [lo_i, hi_i)."""
    ext = tuple(h - l for l, h in zip(lo, hi))
    return tuple(lo), np.ones((model.R,) + ext, dtype=bool)


# ---------------------------------------------------------------------------
# open-site evaluation for batches

class BatchOpenness:
    """Openness of space-time sites for a batch of replicas, one seed per row.

    The spatial hash prefix site_hash(seed, x) of every site of a box is
    kept in a (B, *box) table, so a step only finishes the hash with its time
    coordinate (one mix per site, ``open_mask`` on a ``prefix`` view).  The
    box grows, doubling per axis, only when a window of ``place`` or
    ``prefix`` leaves it, and never past ``cone``, which holds them all.

    It also holds what moves with the table rows when replicas die: the
    seeds, each row's original replica ``index`` and the whole batch's
    ``extinction`` steps, and ``chain``, the ``chain_step`` that ``bind``
    binds to them for a run before the first table is built.  ``_cover``
    binds each table it builds; dropping replicas moves rows down within
    the same buffers, so no other table is ever bound.
    """

    def __init__(self, seeds, p, cone=None):
        # a copy, since compaction moves the seeds in place (_as_u64 may
        # return the caller's array)
        self.seeds = _as_u64(seeds).copy()
        self.threshold = threshold_for(p)
        self.cone = cone
        self.lo = self.hi = self.table = self.chain = None
        self.index = np.arange(len(self.seeds), dtype=np.int64)
        self.extinction = np.full(len(self.seeds), -1, dtype=np.int64)

    def bind(self, model: NormalizedModel, dual: bool) -> None:
        """Bind ``chain_step`` to the batch for a run of the model's chain
        (``dual``: its dual) as ``chain``; None without the library."""
        # the new row's window starts at spatial_min from the old window's
        # anchor, the dual's at -spatial_max
        shift = tuple(-m for m in model.spatial_max) if dual else model.spatial_min
        self.chain = chain_step(_sources(model, dual), shift, model.R, dual,
                                self.threshold, self.seeds, self.index, self.extinction)

    def keep(self, rows: np.ndarray, live, t: int) -> np.ndarray:
        """The ``rows`` of the replicas ``live``, a bool mask; the others get
        extinction step t, and the live ones' seeds, index and table rows
        move down in place: a ``chain_step``'s drop in numpy."""
        if live.all():
            return rows
        self.extinction[self.index[~live]] = t
        kept = np.flatnonzero(live)
        for a in (self.seeds, self.index, self.table):
            if a is not None:
                a[:len(kept)] = a[kept]
        self.resize(len(kept))
        return rows[live]

    def resize(self, n: int) -> None:
        """Keep the first n rows, as a ``chain_step`` leaves them."""
        if n < len(self.seeds):
            self.seeds, self.index = self.seeds[:n], self.index[:n]
            self.table = None if self.table is None else self.table[:n]

    def _cover(self, lo, hi) -> None:
        """Grow the box, and rebuild the table, to contain [lo, hi)."""
        if self.lo is not None and all(map(le, self.lo, lo)) and all(map(le, hi, self.hi)):
            return
        if self.lo is not None:
            # a side that grows at least doubles the width, clipped to the
            # cone but never short of the query
            c_lo, c_hi = self.cone if self.cone is not None else (
                (-math.inf,) * len(lo), (math.inf,) * len(hi)
            )
            lo = tuple(
                min(l, max(b - (e - b), c)) if l < b else b
                for l, b, e, c in zip(lo, self.lo, self.hi, c_lo)
            )
            hi = tuple(
                max(h, min(e + (e - b), c)) if h > e else e
                for h, b, e, c in zip(hi, self.lo, self.hi, c_hi)
            )
        self.lo, self.hi = tuple(lo), tuple(hi)
        d = len(lo)
        # the box's coordinates, each varying along its own axis only: the
        # grid that site_hash hashes in one native call
        coords = [np.arange(l, h, dtype=np.int64).reshape((-1,) + (1,) * (d - a - 1))
                  for a, (l, h) in enumerate(zip(lo, hi))]
        # free the old box, which the chain holds too, before hashing the
        # new
        self.table = None
        if self.chain is not None:
            self.chain.bind(None)
        self.table = site_hash(self.seeds.reshape((-1,) + (1,) * d), coords)
        if self.chain is not None:
            self.chain.bind(self.table)

    def place(self, lo, shape) -> tuple[int, ...]:
        """Where the window [lo, lo + shape) starts in the table's box,
        grown to cover it first."""
        self._cover(lo, tuple(map(add, lo, shape)))
        return tuple(map(sub, lo, self.lo))

    def prefix(self, lo, shape) -> np.ndarray:
        """The (B, *shape) view of the prefix table over [lo, lo + shape)."""
        at = self.place(lo, shape)
        return self.table[(slice(None),) + tuple(map(slice, at, map(add, at, shape)))]


# ---------------------------------------------------------------------------
# stepping kernels

def _union(state: BatchState, lo, shape):
    """Anchor and extent of the smallest box holding both the state's window
    and the window [lo, lo + shape)."""
    ext = state.rows.shape[2:]
    ulo = tuple(min(l, a) for l, a in zip(lo, state.anchor))
    uhi = tuple(max(l + s, a + e) for l, s, a, e in zip(lo, shape, state.anchor, ext))
    return ulo, tuple(h - l for l, h in zip(ulo, uhi))


def _shift_in(state: BatchState, new: np.ndarray, lo, openness: BatchOpenness,
              dual: bool) -> BatchState:
    """The next state: ``new``, the (B, *shape) new row at ``lo``, becomes
    the top row (row 0 for the dual), the old rows move one row towards the
    other end, the replicas that died leave (``BatchOpenness.keep``), and
    the union window of both is trimmed."""
    B, R, *ext = state.rows.shape
    shape = new.shape[1:]
    ulo, uni = _union(state, lo, shape)
    rows = np.zeros((B, R) + uni, dtype=bool)
    head, tail = slice(None, -1), slice(1, None)
    src, dst, row = (head, tail, 0) if dual else (tail, head, R - 1)
    if R > 1:
        sl = tuple(slice(a - l, a - l + e) for a, l, e in zip(state.anchor, ulo, ext))
        rows[(slice(None), dst) + sl] = state.rows[:, src]
    sl = tuple(slice(l_ - l, l_ - l + s) for l_, l, s in zip(lo, ulo, shape))
    rows[(slice(None), row) + sl] = new
    live, box = _occupancy(rows)
    rows, anchor = _trim(openness.keep(rows, live, state.t + 1), ulo, box)
    return BatchState(state.t + 1, anchor, rows, openness.index)


def _sources(model: NormalizedModel, dual: bool) -> np.ndarray:
    """Per offset (y, u), the row that feeds the new row through it and the
    place of that row's window in the new row's window: row R-u at y -
    spatial_min for the primal, row u-1 at spatial_max - y for the dual."""
    mins, maxs = model.spatial_min, model.spatial_max
    return np.array([
        (u - 1,) + tuple(mx - yi for yi, mx in zip(y, maxs)) if dual
        else (model.R - u,) + tuple(yi - mn for yi, mn in zip(y, mins))
        for y, u in model.split_offsets
    ], dtype=np.int64)


def _shift_or(rows: np.ndarray, model: NormalizedModel, dual: bool,
              shape) -> np.ndarray:
    """The (B, *shape) OR of ``rows`` through every offset, each source row
    at its place from ``_sources``: the kernel's shift-OR in numpy."""
    acc = np.zeros((len(rows),) + tuple(shape), dtype=bool)
    for r, *at in _sources(model, dual):
        sl = tuple(slice(a, a + e) for a, e in zip(at, rows.shape[2:]))
        acc[(slice(None),) + sl] |= rows[:, r]
    return acc


def _clip(domain, t: int, lo, shape) -> list[int]:
    """The box of ``domain`` at time t clipped to the window [lo, lo +
    shape), in the window's coordinates: its lower then its upper bounds,
    with lower <= upper on every axis, so an empty box stays empty; the
    whole window with no domain."""
    if domain is None:
        return [0] * len(shape) + list(shape)
    d_lo, d_hi = domain(t)
    a = [min(max(b - w, 0), n) for b, w, n in zip(d_lo, lo, shape)]
    return a + [min(max(b - w, x), n) for b, w, x, n in zip(d_hi, lo, a, shape)]


def _native_step(state, openness, place, times, box) -> BatchState:
    """The step by the run's ``chain_step``, which drops the dead replicas
    in the same call, reading the open sites of ``times`` inside ``box``
    from the prefix table's window at ``place``."""
    chain = openness.chain
    rows, ulo, bounds = chain(state.rows, state.anchor, [_coord_key(t) for t in times],
                              place, box, state.t + 1)
    openness.resize(len(rows))          # the kernel moved the survivors down
    rows, anchor = _trim(rows, ulo, bounds)
    chain.last = rows                   # found by address at the next step
    return BatchState(state.t + 1, anchor, rows, openness.index)


def _batch_step(state: BatchState, model: NormalizedModel,
                openness: BatchOpenness, domain, t0: int) -> BatchState:
    """Primal slab-shift step; the new top row sits at absolute time t0+t+R.

    The new top row is the OR of the old rows through each offset, masked
    with the open sites inside the domain's box and cleared outside it;
    ``chain_step`` does it all in one native call, and the numpy body below
    is its reference."""
    R = model.R
    mins, maxs = model.spatial_min, model.spatial_max
    ext = state.rows.shape[2:]
    lo = tuple(map(add, state.anchor, mins))
    shape = tuple(map(add, ext, map(sub, maxs, mins)))
    t_abs = t0 + state.t + R
    place = openness.place(lo, shape)       # the table now covers the window
    box = _clip(domain, t_abs, lo, shape)
    if openness.chain is not None:
        return _native_step(state, openness, place, [t_abs], box)
    prefix = openness.prefix(lo, shape)
    acc = _shift_or(state.rows, model, False, shape)
    new = np.zeros_like(acc)
    sl = (slice(None),) + tuple(map(slice, box[:len(shape)], box[len(shape):]))
    new[sl] = acc[sl] & open_mask(prefix[sl], t_abs, openness.threshold)
    return _shift_in(state, new, lo, openness, dual=False)


def _dual_batch_step(state: BatchState, model: NormalizedModel,
                     openness: BatchOpenness, domain, t0: int) -> BatchState:
    """Dual step: extend occupied open sites backwards by one slab row.

    Row r of the dual state at depth tau sits at absolute time t0 - tau + r;
    a site extends only if it is itself open (and inside the domain's box at
    its time), while newly inserted sites carry no openness requirement
    until they extend in turn.  ``chain_step`` does the step in one native
    call, and the numpy body below is its reference.
    """
    R = model.R
    ext = state.rows.shape[2:]
    times = [t0 - state.t + r for r in range(R)]
    place = openness.place(state.anchor, ext)   # the table now covers the window
    boxes = [_clip(domain, t, state.anchor, ext) for t in times]
    if openness.chain is not None:
        return _native_step(state, openness, place, times, sum(boxes, []))
    mins, maxs = model.spatial_min, model.spatial_max
    lo = tuple(map(sub, state.anchor, maxs))
    shape = tuple(map(add, ext, map(sub, maxs, mins)))
    prefix = openness.prefix(state.anchor, ext)
    occ_open = np.zeros_like(state.rows)
    for r, (t_abs, box) in enumerate(zip(times, boxes)):
        sl = (slice(None),) + tuple(map(slice, box[:len(ext)], box[len(ext):]))
        occ_open[:, r][sl] = state.rows[:, r][sl] & open_mask(
            prefix[sl], t_abs, openness.threshold)
    return _shift_in(state, _shift_or(occ_open, model, True, shape), lo,
                     openness, dual=True)


def _torus_batch_step(state: BatchState, gather: np.ndarray,
                      open_top: np.ndarray) -> BatchState:
    """Torus step on rows of shape (B, R, *n) read as (B, R*N), N = n^(d-1).

    Row i of ``gather`` gives, for each site of the new top row, the index
    of its source through offset i in those flat rows; ``open_top`` is the
    (B, N) open mask of the new top row.
    """
    shape = state.rows.shape
    flat = state.rows.reshape(shape[0], -1)
    top = np.logical_or.reduce(flat[:, gather], axis=1)
    top &= open_top
    if shape[1] > 1:
        top = np.concatenate([flat[:, open_top.shape[1]:], top], axis=1)
    return BatchState(state.t + 1, state.anchor, top.reshape(shape))


# ---------------------------------------------------------------------------
# batched driver

def dependency_cone(model: NormalizedModel, lo, hi, k: int,
                    backward: bool = False):
    """Box (lo', hi') of the sites that the box [lo, hi) can influence within
    k steps, or with ``backward`` of the sites that can influence it.

    A step is a chain step or a unit of time: a hop moves by a spatial step
    y and takes u >= 1 time, landing on a new top row, so k steps make at
    most k hops, while a shifted row keeps its place.  Per axis the total
    move thus lies in [k * min(0, spatial_min), k * max(0, spatial_max)].
    """
    down = [k * min(0, m) for m in model.spatial_min]
    up = [k * max(0, m) for m in model.spatial_max]
    if backward:
        down, up = [-u for u in up], [-d for d in down]
    return (tuple(l + d for l, d in zip(lo, down)),
            tuple(h + u for h, u in zip(hi, up)))


def source_window(model: NormalizedModel, boxes):
    """Slab window (lo, hi) that a run must start on to agree with the
    infinite slab on every box of ``boxes``, (k, (lo, hi)) pairs of a box
    and the step k at which it is read: the hull of each box's backward
    ``dependency_cone`` over k steps.

    The chain is additive: a state is the union of the states grown from
    each of its sources alone, and the growth of a source outside the
    window misses every box at its step.
    """
    los, his = zip(*(dependency_cone(model, lo, hi, k, backward=True)
                     for k, (lo, hi) in boxes))
    return tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))


@dataclass
class BatchResult:
    """Summary of a batched run; all arrays are indexed by replica."""

    extinction: np.ndarray              # step of first empty state; -1 if none seen
    snapshots: dict[int, BatchState] | None = None

    @property
    def alive_at_T(self) -> np.ndarray:
        return self.extinction < 0


def batch_evolve(model: NormalizedModel, seeds, p, T, *,
                 init: tuple[tuple[int, ...], np.ndarray] | None = None,
                 t0: int = 0, dual: bool = False, domain: Callable | None = None,
                 snapshot_times: Iterable[int] = (),
                 per_step: Callable | None = None) -> BatchResult:
    """Run B replicas of the chain on Z^{d-1} (the dual chain if ``dual``)
    for T steps; record extinction steps and the snapshots at
    ``snapshot_times``, each of which must lie in [0, T].

    ``init`` is a shared (anchor, rows) pair with rows of shape (R, *extent)
    or a per-replica (B, R, *extent) array; default is a single occupied site
    at the origin of row 0.  ``domain(t)``, if given, is the box (lo, hi)
    of the sites x, lo <= x < hi per axis, that a path may step on at time
    t, in exact integers (for example ``TranslatedBlock.box`` or
    ``partial(cone_box, lo, hi)``); it is empty when lo >= hi on some axis.
    A path's start site is exempt from openness and from the domain: the
    rows of ``init`` are the state at step 0 as given, and the primal chain
    tests only the sites it enters from step 1.  The dual chain tests the
    sites it extends from, so there the exempt site is the one a dual path
    reaches last.

    Each step drops the replicas that die in it from the rows, the prefix
    table and the seeds, and writes their extinction step; replicas empty
    from the start end at step 0.  A snapshot is scattered back to all B
    replicas in replica order, a dead one empty.

    ``per_step(t, state)`` is the observer hook.  It is called for t = 0,
    1, ... in order, up to T or until every replica has ended, the last
    time with no rows, each time before the snapshot at t is taken.  It
    sees the live replicas only: ``state.rows`` holds their rows in replica
    order and ``state.index`` the original replica of each, through which
    it writes its per-replica results.  It returns None or a bool mask over
    the rows of the replicas it ends at t, which get extinction step t and
    leave the run; an exception it raises ends the run.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    snapshot_times = set(snapshot_times)
    if any(not 0 <= t <= T for t in snapshot_times):
        raise ValueError(
            f"snapshot times {sorted(snapshot_times)} must lie in [0, T={T}]")
    B = len(seeds)
    d_s = model.d - 1
    if init is None:
        anchor, rows1 = rows_from_sites(model, [(0,) * d_s + (0,)])
    else:
        anchor, rows1 = init
        anchor = tuple(anchor)
    rows = (
        np.broadcast_to(rows1, (B,) + rows1.shape).copy()
        if rows1.ndim == model.d else np.array(rows1, dtype=bool)
    )
    # every window a T-step run queries lies in its cone (the dual's
    # influence runs backwards)
    hi = tuple(a + e for a, e in zip(anchor, rows.shape[2:]))
    openness = BatchOpenness(
        seeds, p, cone=dependency_cone(model, anchor, hi, T, backward=dual),
    )
    openness.bind(model, dual)
    rows = openness.keep(rows, BatchState(0, anchor, rows).alive(), 0)
    state = BatchState(0, anchor, rows, openness.index)
    snapshots = {} if snapshot_times else None

    def observe(t):
        nonlocal state
        ended = None if per_step is None else per_step(t, state)
        if ended is not None:
            if np.shape(ended) != (state.batch,) or np.asarray(ended).dtype != bool:
                raise ValueError(f"per_step must return None or a bool mask "
                                 f"of the {state.batch} rows")
            rows = openness.keep(state.rows, ~ended, t)
            state = BatchState(t, state.anchor, rows, openness.index)
        if t in snapshot_times:
            full = np.zeros((B,) + state.rows.shape[1:], dtype=bool)
            full[state.index] = state.rows
            snapshots[t] = BatchState(t, state.anchor, full)

    observe(0)
    step = _dual_batch_step if dual else _batch_step
    for t in range(1, T + 1):
        if not state.batch:
            break
        state = step(state, model, openness, domain, t0)
        observe(t)
    if snapshots is not None:
        # runs that die before a requested snapshot time are recorded empty
        empty = np.zeros((B, model.R) + (0,) * d_s, dtype=bool)
        for t_req in snapshot_times - snapshots.keys():
            snapshots[t_req] = BatchState(t_req, (0,) * d_s, empty)
    return BatchResult(openness.extinction, snapshots)


# ---------------------------------------------------------------------------
# single-replica API

def evolve(A, model: NormalizedModel, field: FieldSpec, T: int,
           domain: Callable | None = None, t0: int = 0,
           snapshot_times: Iterable[int] = ()) -> BatchResult:
    """Iterate the chain from the slab sites A for T steps (or to
    extinction): the one-replica ``batch_evolve`` run on ``field``."""
    return batch_evolve(
        model, [field.seed], field.p, T, init=rows_from_sites(model, A), t0=t0,
        domain=domain, snapshot_times=snapshot_times,
    )


def dual_evolve(A, model: NormalizedModel, field: FieldSpec, T: int,
                domain: Callable | None = None, t0: int = 0,
                snapshot_times: Iterable[int] = ()) -> BatchResult:
    """Iterate the dual chain from the slab sites A for T backwards steps."""
    return batch_evolve(
        model, [field.seed], field.p, T, init=rows_from_sites(model, A), t0=t0,
        dual=True, domain=domain, snapshot_times=snapshot_times,
    )


# ---------------------------------------------------------------------------
# pointwise reachability

def _path_query(source, target, model: NormalizedModel, field: FieldSpec,
                domain, dual: bool) -> bool:
    """Whether the one-replica run from the site ``source`` = (x, t), put
    on slab row 0 (dual) or R-1 at absolute time t, has ``target`` on that
    row at target's time; False if that time is not ahead of t."""
    row, (*x, t), (*y, u) = (0 if dual else model.R - 1), source, target
    T = int(t) - int(u) if dual else int(u) - int(t)
    if T < 0:
        return False
    snap = (dual_evolve if dual else evolve)(
        [tuple(x) + (row,)], model, field, T, domain=domain,
        t0=int(t) - row, snapshot_times=[T]).snapshots[T]
    return bool(_on_box(snap.anchor, snap.rows[0, row],
                        (y, [c + 1 for c in y])).any())


def reaches(a, b, model: NormalizedModel, field: FieldSpec,
            domain: Callable | None = None) -> bool:
    """True iff there is a path a -> b of open in-domain sites (start exempt).

    One ``evolve`` run from a on the top row R-1, whose absolute time is
    a_t, for b_t - a_t steps: the path exists iff b is then on the top row.
    Reflexive by the empty path.
    """
    return _path_query(a, b, model, field, domain, dual=False)


def dual_reaches(b, a, model: NormalizedModel, field: FieldSpec,
                 domain: Callable | None = None) -> bool:
    """True iff there is a dual path b ~> a: steps reversed, with every path
    site except the final one required to be open (and in the domain).

    One ``dual_evolve`` run from b on row 0 at absolute time b_t: the dual
    path exists iff a is on row 0 at depth b_t - a_t.
    """
    return _path_query(b, a, model, field, domain, dual=True)


# ---------------------------------------------------------------------------
# coupled full-slab run

def coupled_slab(model: NormalizedModel, seeds, p, t: int, window) -> np.ndarray:
    """Occupancy (B, R, *window extent) at step t of the full-slab run on
    each seed's field, restricted to ``window``, a (lo, hi) pair of spatial
    bounds: slab site (x, s) of replica b maps to index [b, s, x - lo].

    The run starts on the ``source_window`` of the window at step t, so
    its restriction to the window is the infinite slab's.  Its domain is
    the cone shrinking with the steps left: a site entering at step k
    reaches the window within t - k hops or never, so by the same argument
    the domain changes nothing in the window.
    """
    lo, hi = (tuple(int(c) for c in b) for b in window)

    def shrinking_cone(t_abs):
        # the top row at absolute time t_abs enters at step t_abs - R + 1
        return dependency_cone(model, lo, hi, t - (t_abs - model.R + 1), backward=True)

    snap = batch_evolve(
        model, seeds, p, t,
        init=slab_window_rows(model, *source_window(model, [(t, (lo, hi))])),
        domain=shrinking_cone, snapshot_times=[t],
    ).snapshots[t]
    return _on_box(snap.anchor, snap.rows, (lo, hi))


# ---------------------------------------------------------------------------
# edge processes (d = 2)

def _half_slab_cut(model: NormalizedModel, side: str, reach, bound: int):
    """Domain of a truncated half slab: the sites outside the cone of the
    omitted sources.  ``reach(k)`` is the (lo, hi) x-range of the k-step
    ``dependency_cone`` of the nearest omitted source, beyond which (side
    'right': right of hi) the omitted sources occupy nothing after k steps;
    the top row at absolute time t_abs enters at step t_abs - R + 1.  The
    box's other side is ``bound``, the far side of the run's own
    ``dependency_cone``, which every window of the run lies within."""
    def cut(t_abs):
        lo, hi = reach(t_abs - model.R + 1)
        return ((hi,), (bound,)) if side == "right" else ((bound,), (lo,))

    return cut


# narrow truncations are tried first only when the full one is this wide:
# below it the sites they save cost less than the steps of the attempts
# that fail
_NARROW_FLOOR = 512


def half_slab_edges(model: NormalizedModel, seeds, p, side: str, T: int,
                    margin: float) -> np.ndarray:
    """Frontiers r_0..r_T (side 'right': max occupied x from {x <= 0}) or
    l_0..l_T ('left': min occupied x from {x >= 0}), shape (B, T+1).

    The infinite half slab is truncated to its sites -trunc <= x <= 0, with
    trunc at most full = ceil(gamma*T*(1+margin))+1, the worst case.  After
    t steps the omitted sources x <= -trunc-1 occupy nothing outside the
    t-step ``dependency_cone`` of -trunc-1, the nearest of them; by
    additivity a truncated frontier right of that cone is the infinite one
    (mirrored for 'left').  Every replica and step is checked as the run
    goes, and TruncationUncertified is raised at the first step where the
    check fails, an empty frontier included.

    A frontier that moves the way the cone grows needs less, so when
    full >= _NARROW_FLOOR the same seeds are first run at trunc = full // 4,
    then full // 2, and the first attempt certified at every step is
    returned.  A narrow attempt ends at its first uncertified step, or at
    step max(1, T // 8) when the least gap between a frontier and the
    omitted sources' cone, extrapolated linearly from its start at trunc,
    falls below trunc / 8 by step T.  Only the full attempt refuses.  The outputs cannot depend
    on this schedule: the truncated runs grow with trunc and lie inside the
    infinite one, and a frontier certified at trunc is the infinite one,
    so at full it is the same frontier and is certified there too.  Every
    result, refusal and refusal message is that of the run at full.

    Each run also drops every site inside the cone of its omitted sources
    (``_half_slab_cut``).  A site entering at step k inside the k-step cone
    has all its descendants inside the cone of the steps after, since each
    step makes at most one hop; conversely every path to a site right of
    the t-step cone stays right of the k-step cone at each step k <= t.  By
    additivity the cut run therefore occupies exactly the truncated run's
    sites right of the cone, so every certified frontier, and every
    refusal, is the same with or without the cut; only the window, which
    would otherwise keep the cone's sites, shrinks.
    """
    if model.d != 2:
        raise DimensionNot2("edge processes are defined for d = 2 only")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    full = int(math.ceil(model.gamma * T * (1 + margin))) + 1
    if full >= _NARROW_FLOOR:
        for trunc in (full // 4, full // 2):
            try:
                return _half_slab_attempt(model, seeds, p, side, T, trunc,
                                          margin, probe=max(1, T // 8))
            except TruncationUncertified:
                pass
    return _half_slab_attempt(model, seeds, p, side, T, full, margin)


def _half_slab_attempt(model: NormalizedModel, seeds, p, side: str, T: int,
                       trunc: int, margin: float,
                       probe: int | None = None) -> np.ndarray:
    """The frontiers of ``half_slab_edges`` from one run truncated at
    ``trunc``, or TruncationUncertified at its first uncertified step.
    With ``probe``, also TruncationUncertified at step ``probe`` when the
    least gap g there predicts trunc + (g - trunc) * T / probe < trunc / 8.
    """
    if side == "right":
        start, nearest = ((-trunc,), (1,)), ((-trunc - 1,), (-trunc,))
    else:
        start, nearest = ((0,), (trunc + 1,)), ((trunc + 1,), (trunc + 2,))
    edges = np.empty((len(seeds), T + 1), dtype=np.int64)
    (lo0,), (hi0,) = nearest
    (lo1,), (hi1,) = dependency_cone(model, *nearest, 1)

    def reach(k):
        # the k-step cone of the nearest omitted source grows by as much at
        # every step
        return lo0 + k * (lo1 - lo0), hi0 + k * (hi1 - hi0)

    def gap(front, t):
        # how far a live replica's frontier lies outside the cone, which the
        # cut leaves as it is: certified iff >= 0, and trunc at step 0
        reach_lo, reach_hi = reach(t)
        return front - reach_hi if side == "right" else reach_lo - 1 - front

    def frontier(t, state: BatchState):
        front = []
        if state.batch:
            occ = state.rows[:, 0] if model.R == 1 else state.rows.any(axis=1)
            # bytes.rfind (find) gives each row's last (first) occupied
            # cell, which a live row has, from one copy of the rows, with
            # no reversed copy or argmax
            w, flat, a = occ.shape[1], occ.tobytes(), state.anchor[0]
            find = flat.rfind if side == "right" else flat.find
            front = [find(1, i, i + w) + a - i for i in range(0, len(flat), w)]
        least = gap(min(front) if side == "right" else max(front), t) if front else 0
        # the nearest frontier decides, unless a replica has died
        if len(front) < len(seeds) or least < 0:
            ok = np.zeros(len(seeds), dtype=bool)     # by replica; a dead one fails
            ok[state.index] = gap(np.array(front, dtype=np.int64), t) >= 0
            raise TruncationUncertified(
                f"{side} frontier of replica {np.argmin(ok)} at step {t} is not "
                f"certified by the truncation at {trunc} (margin {margin})"
            )
        # trunc + (least - trunc) * T / t < trunc / 8, both sides times 8t
        if t == probe and 8 * (least - trunc) * T < -7 * t * trunc:
            raise TruncationUncertified(
                f"{side} frontiers at step {t} predict no certificate at "
                f"step {T} from the truncation at {trunc}"
            )
        edges[:, t] = front             # all alive, so in replica order

    # the run's own cone closes the cut's open side
    (c_lo,), (c_hi,) = dependency_cone(model, *start, T)
    cut = _half_slab_cut(model, side, reach, c_hi if side == "right" else c_lo)
    batch_evolve(model, seeds, p, T, init=slab_window_rows(model, *start),
                 per_step=frontier, domain=cut)
    return edges


# ---------------------------------------------------------------------------
# torus dynamics


def check_torus_side(model: NormalizedModel, n: int) -> None:
    """Raise ``TorusTooSmall`` unless the torus side n exceeds 2*gamma*R."""
    if n <= 2 * model.gamma * model.R:
        raise TorusTooSmall(
            f"torus side {n} must exceed 2*gamma*R = {2 * model.gamma * model.R}"
        )


def torus_extinction_batch(model: NormalizedModel, p, seeds, n: int,
                           T_max: int) -> BatchResult:
    """Extinction steps of the torus quotient dynamics, one replica per seed,
    each started from the fully occupied slab and run for at most T_max steps.

    Each step gathers the new top row from flat rows through one index per
    offset and masks it with the open sites of its time.  With the native
    library, ``torus_run`` runs each replica on its own from the (B, N)
    prefix table until it dies, so no replica waits for another: with
    R*N <= 64 its rows are one 64-bit word (the word path), else one byte
    a site (the byte path).  The numpy loop is the reference and the
    fallback: it steps the batch in lockstep (``_torus_batch_step``), with
    ``open_mask`` on the same table, and drops extinct replicas from the
    rows and the table after every step (``BatchOpenness.keep``).
    """
    check_torus_side(model, n)
    R, d_s = model.R, model.d - 1
    B, N = len(seeds), n ** d_s
    cells = np.arange(N).reshape((n,) * d_s)
    gather = np.stack([
        (R - u) * N + np.roll(cells, tuple(y), axis=tuple(range(d_s))).ravel()
        for y, u in model.split_offsets
    ])
    openness = BatchOpenness(seeds, p)
    table = openness.prefix((0,) * d_s, (n,) * d_s).reshape(B, N)
    native = torus_extinction(table, gather, R, T_max, openness.threshold,
                              _coord_key(R), int(_COORD_MUL))
    if native is not None:
        return BatchResult(native)
    state = BatchState(0, (0,) * d_s, np.ones((B, R) + (n,) * d_s, dtype=bool))
    while state.batch and state.t < T_max:
        # keep moves the live replicas' table rows to the front of the table
        open_top = open_mask(table[:state.batch], state.t + R, openness.threshold)
        state = _torus_batch_step(state, gather, open_top)
        state.rows = openness.keep(state.rows, state.alive(), state.t)
    return BatchResult(openness.extinction)
