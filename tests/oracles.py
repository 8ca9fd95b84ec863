"""Independent brute-force reference implementations for the test suite.

Everything here is scalar, set-based and deliberately naive: path existence
by memoised recursion over single offsets, slab states by level-by-level
derivation in plain dicts of tuples, sumsets by set DP, and exact small-T
survival probabilities by exhaustive enumeration of the dependency cone.
Scalar region membership and run-length decoding check the vectorised
masks and the snapshot records.  None of it shares code with the vectorised
engine it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np

from gosp.field import FieldSpec, threshold_for
from gosp.geometry import BlockGeometry, TranslatedBlock
from gosp.model import NormalizedModel

_M64 = (1 << 64) - 1


def _mix(z: int) -> int:
    """The splitmix64 finalizer on a Python integer."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def stream_hash(seed: int, coords, stream: int = 0) -> int:
    """The hash of (seed, coords) on a substream: the seed and coordinates
    chained through the mixer one at a time, in Python integers."""
    golden = 0x9E3779B97F4A7C15
    h = _mix(int(seed) + golden * (stream + 1) & _M64)
    for c in coords:
        h = _mix(h ^ ((int(c) & _M64) * 0xD6E8FEB86659FD93 + golden & _M64))
    return h


def site_open(field: FieldSpec, site) -> bool:
    """Whether a site of the field is open: its hash on stream 0 falls
    below the threshold."""
    return stream_hash(field.seed, site) < threshold_for(field.p)


def path_exists(model: NormalizedModel, field: FieldSpec, a, b) -> bool:
    """Open path a -> b, start exempt: all sites after a must be open."""
    offsets = model.spec.offsets
    memo = {}

    def rec(site):
        if site == a:
            return True
        if site in memo:
            return memo[site]
        ok = False
        if site[-1] > a[-1] and site_open(field, site):
            for off in offsets:
                prev = tuple(c - o for c, o in zip(site, off))
                if rec(prev):
                    ok = True
                    break
        memo[site] = ok
        return ok

    return rec(tuple(b))


def dual_path_exists(model: NormalizedModel, field: FieldSpec, b, a) -> bool:
    """Dual path b -> a, end exempt: every site stepped from must be open."""
    offsets = model.spec.offsets
    if tuple(b) == tuple(a):
        return True
    frontier = {tuple(b)}
    if not site_open(field, tuple(b)):
        return False
    seen = set(frontier)
    while frontier:
        nxt = set()
        for site in frontier:
            for off in offsets:
                prev = tuple(c - o for c, o in zip(site, off))
                if prev == tuple(a):
                    return True
                if prev[-1] <= a[-1] or prev in seen:
                    continue
                if site_open(field, prev):
                    nxt.add(prev)
                    seen.add(prev)
        frontier = nxt
    return False


def infected_times(model: NormalizedModel, field: FieldSpec, starts, t_max,
                   t0: int = 0, domain=None):
    """Absolute-time levels of the infected set grown from slab starts.

    ``starts`` are slab sites (x, s); the returned dict maps absolute time
    to the set of spatial positions infected at that time.  Sites at times
    below t0 + R are exactly the starts (the initial slab is the state, not
    a source of further within-slab derivations).  With ``domain``, a
    predicate on space-time sites, a derived site must also satisfy it; the
    starts are exempt.
    """
    R = model.R
    levels: dict[int, set] = {}
    for s in starts:
        levels.setdefault(t0 + s[-1], set()).add(tuple(s[:-1]))
    for tau in range(t0 + R, t0 + t_max + R):
        cand = set()
        for y, u in model.split_offsets:
            for x in levels.get(tau - u, ()):
                cand.add(tuple(xi + yi for xi, yi in zip(x, y)))
        here = {x for x in cand if site_open(field, x + (tau,))
                and (domain is None or domain(x + (tau,)))}
        if here:
            levels[tau] = here
    return levels


def slab_state(model: NormalizedModel, field: FieldSpec, starts, t,
               t0: int = 0):
    """Slab state after t chain steps as a set of (x..., s) sites."""
    levels = infected_times(model, field, starts, t, t0=t0)
    out = set()
    for s in range(model.R):
        for x in levels.get(t0 + t + s, ()):
            out.add(x + (s,))
    return out


def dual_slab_state(model: NormalizedModel, field: FieldSpec, starts, t,
                    t0: int = 0):
    """Dual slab state after t backwards steps.

    Starts are slab sites at dual depth 0 (row s at absolute time t0 + s);
    the state at depth t holds (x, s) iff a dual path leads from a start to
    the absolute site (x, t0 - t + s).
    """
    R = model.R
    levels: dict[int, set] = {}
    for s in starts:
        levels.setdefault(t0 + s[-1], set()).add(tuple(s[:-1]))
    # the chain only derives new bottom rows, at times strictly below t0;
    # within the initial slab the state is exactly the start set
    for tau in range(t0 - 1, t0 - t - 1, -1):
        cand = set()
        for y, u in model.split_offsets:
            for x in levels.get(tau + u, ()):
                src = x + (tau + u,)
                if site_open(field, src):
                    cand.add(tuple(xi - yi for xi, yi in zip(x, y)))
        if cand:
            levels.setdefault(tau, set()).update(cand)
    out = set()
    for s in range(R):
        for x in levels.get(t0 - t + s, ()):
            out.add(x + (s,))
    return out


def sumset(model: NormalizedModel, t: int):
    """t-fold sumset of the spatial parts of a range-1 neighbourhood."""
    assert all(u == 1 for _, u in model.split_offsets)
    steps = [y for y, _ in model.split_offsets]
    current = {(0,) * (model.d - 1)}
    for _ in range(t):
        current = {
            tuple(a + b for a, b in zip(x, y)) for x in current for y in steps
        }
    return current


def _cone_sites(model: NormalizedModel, T: int):
    """All sites (x, tau), 1 <= tau <= T, reachable from the origin."""
    sites = []
    level = {(0,) * (model.d - 1)}
    for tau in range(1, T + 1):
        level = {
            tuple(a + b for a, b in zip(x, y))
            for x in level for y, _ in model.split_offsets
        }
        sites.extend(x + (tau,) for x in sorted(level))
    return sites


def exact_survival(model: NormalizedModel, p, T: int) -> Fraction:
    """P(origin cluster alive at chain time T), exact, by enumerating every
    configuration of the dependency cone.  Range-1 models only; meant for
    T <= 3 where the cone has at most a dozen sites."""
    assert model.R == 1
    p = Fraction(p) if not isinstance(p, Fraction) else p
    sites = _cone_sites(model, T)
    steps = [y for y, _ in model.split_offsets]
    total = Fraction(0)
    origin = (0,) * (model.d - 1)
    for bits in product((False, True), repeat=len(sites)):
        open_sites = {s for s, b in zip(sites, bits) if b}
        level = {origin}
        alive = True
        for tau in range(1, T + 1):
            level = {
                tuple(a + b for a, b in zip(x, y))
                for x in level for y in steps
                if tuple(a + b for a, b in zip(x, y)) + (tau,) in open_sites
            }
            if not level:
                alive = False
                break
        if alive:
            weight = Fraction(1)
            for b in bits:
                weight *= p if b else 1 - p
            total += weight
    return total


def exact_extinction_pmf(model: NormalizedModel, p, T: int):
    """P(tau = t) for t <= T plus P(tau > T), exact; range-1 models."""
    probs = [exact_survival(model, p, t) for t in range(T + 1)]
    pmf = [probs[t - 1] - probs[t] for t in range(1, T + 1)]
    return [1 - probs[0]] + pmf, probs[T]


# ---------------------------------------------------------------------------
# the bgprobe event

def bg_event(model: NormalizedModel, p, g: BlockGeometry, n: int, seed: int) -> bool:
    """The bgprobe event of one seed, by set growth.

    The box's time t and centre x come from the seed's stream-2 hashes of
    the coordinates 0, 1, ..., d-1, each scaled to its range [0, m) as
    (h * m) >> 64: t in [0, h), and x_i = ceil(v_i t - w_i) + [0, 2 w_i).
    The box [x - n, x + n) on every slab row starts a growth at t0 = t
    inside the envelope block (width 4w, height 8h, tilt v).  The event
    holds if at some time s in [7h, 8h) a site x of a target block (the
    block displaced by 7h along the tilt and by +-2 w_{d-1} on the last
    spatial axis) has its whole box [x - n, x + n) occupied on every slab
    row, rows s, ..., s + R - 1.
    """
    R, d_s = model.R, model.d - 1
    h0, *hx = (stream_hash(seed, [c], stream=2) for c in range(model.d))
    t = h0 * g.h >> 64
    # ceil(v t - w) = ceil(num / den) for v = vn / den
    centre = [-((w * v.denominator - v.numerator * t) // v.denominator)
              + (hi * 2 * w >> 64) for v, w, hi in zip(g.v, g.w, hx)]
    box = list(product(*(range(c - n, c + n) for c in centre)))
    starts = [x + (s,) for x in box for s in range(R)]
    envelope = TranslatedBlock(
        BlockGeometry(tuple(4 * w for w in g.w), 8 * g.h, g.v), (0,) * model.d)
    shift = [v * 7 * g.h for v in g.v]
    targets = [
        TranslatedBlock(g, tuple(c + (sign * 2 * g.w[-1] if i == d_s - 1 else 0)
                                 for i, c in enumerate(shift)) + (7 * g.h,))
        for sign in (1, -1)
    ]
    levels = infected_times(
        model, FieldSpec(seed=int(seed), p=p), starts, 8 * g.h - t, t0=t,
        domain=lambda site: translated_block_contains(envelope, site))
    around = list(product(range(-n, n), repeat=d_s))
    for s in range(7 * g.h, 8 * g.h):
        rows = set.intersection(*(levels.get(s + r, set()) for r in range(R)))
        for x in rows:
            if (any(translated_block_contains(tb, x + (s,)) for tb in targets)
                    and all(tuple(a + b for a, b in zip(x, dx)) in rows
                            for dx in around)):
                return True
    return False


# ---------------------------------------------------------------------------
# the goodblock events

def good_events(model: NormalizedModel, p, L: int, C: int, v, seed: int):
    """The goodblock events (e1, e2, e3) of one seed, by set growth.

    With thr = L // C and s = C L + thr, the block's base slab is the sites
    (x, u), u in [0, R), with x - u v in [-L, L).  Each such site starts a
    growth from the slab whose top row R - 1 it is (t0 = u - R + 1), and so
    does the full slab, here truncated generously, from the same t0.  Row r
    of a state k steps on is compared on the region x - (k + r) v in
    [-3L, 3L).  Event 1: no site dies at a step tau in [thr, s).  Event 2:
    every site that does not die before thr agrees with the full slab on
    its region at k = C L and k = s.  Event 3: the full slab from t0 = 0
    meets, at step s, both probes x - (s + r) v -+ L e_{d-1} in
    [-max(1, thr), max(1, thr)).
    """
    R, d_s = model.R, model.d - 1
    field = FieldSpec(seed=int(seed), p=p)
    thr = L // C
    s_time = C * L + thr
    v = tuple(Fraction(c) for c in v)

    def block(w, centre):
        return TranslatedBlock(BlockGeometry((w,) * d_s, R, v),
                               tuple(centre) + (Fraction(0),))

    def state(levels, t0, k):
        return {x + (r,) for r in range(R) for x in levels.get(t0 + k + r, ())}

    def in_region(site, k):
        # row r of the state at step k against the region at time r
        return translated_block_contains(
            block(3 * L, [vi * k for vi in v]), site)

    probes = [block(max(1, thr), [vi * s_time + (sgn * L if i == d_s - 1 else 0)
                                  for i, vi in enumerate(v)])
              for sgn in (1, -1)]
    base = block(L, [0] * d_s)
    span = s_time + R
    reach = 4 * L + model.dilation(span) + 1
    axes = [range(math.floor(min(0, vi) * span) - reach,
                  math.ceil(max(0, vi) * span) + reach) for vi in v]
    e1 = e2 = True
    for u in range(R):
        t0 = u - R + 1
        slab = infected_times(
            model, field, [x + (r,) for x in product(*axes) for r in range(R)],
            s_time, t0=t0)
        full = {k: state(slab, t0, k) for k in (C * L, s_time)}
        for x in product(*axes):
            if not translated_block_contains(base, x + (u,)):
                continue
            levels = infected_times(model, field, [x + (R - 1,)], s_time, t0=t0)
            tau = next((k for k in range(1, s_time + 1)
                        if not state(levels, t0, k)), None)
            if tau is not None and thr <= tau < s_time:
                e1 = False
            if tau is not None and tau < thr:
                continue
            for k, want in full.items():
                if any(in_region(site, k) for site in state(levels, t0, k) ^ want):
                    e2 = False
        if u == R - 1:
            e3 = all(any(translated_block_contains(tb, site) for site in full[s_time])
                     for tb in probes)
    return e1, e2, e3


# ---------------------------------------------------------------------------
# the crosspath records

def transfer_records(model: NormalizedModel, p, eps, L: int, blocks, probe,
                     seeds):
    """The crosspath record of each seed, by set growth and enumeration.

    Range-1 models in d = 2.  A tilted block of ``blocks`` is crossed when
    the growth inside it from the full slab at time 0, here truncated
    generously, reaches time L.  Its witness is the lexicographically least
    x-sequence of the crossing paths (x_0, 0), ..., (x_L, L): each step a
    spatial step, each site after the start open and in the block.  A
    record is None unless both blocks are crossed, else (the two witnesses
    share a vertex, the first thickened by the probe (n, v, t) -- the sites
    (x + v + b, s + t), b in [-n, n), over its vertices (x, s) -- meets the
    second, the sprinkled transfer).  The transfer holds when steps from
    the first witness's start reach the second's end through sites on
    either witness or extra-open sites of the sprinkle, at time s + j,
    1 <= j <= t, within rad = n + |v| + t max(1, dilation(1)) of a vertex
    (x, s) of the first witness.
    """
    n_pr, (v_pr,), t_pr = probe
    ys = [y for (y,), _ in model.split_offsets]
    rate = float(Fraction(eps) / (1 - Fraction(p))) if eps else 0.0
    rad = n_pr + abs(v_pr) + t_pr * max(1, model.dilation(1))
    reach = max(abs(tb.offset[0]) + abs(tb.geometry.v[0]) * (L + 1)
                + tb.geometry.w[0] for tb in blocks) + model.dilation(L) + 1
    xs = range(-math.ceil(reach), math.ceil(reach) + 1)

    def witness(field, tb):
        @cache
        def inside(site):
            return site_open(field, site) and translated_block_contains(tb, site)

        levels = infected_times(model, field, [(x, 0) for x in xs], L,
                                domain=inside)
        if not levels.get(L):
            return None
        paths = []

        def extend(path):
            x, t = path[-1]
            if t == L:
                paths.append(path)
            for y in ys:
                if inside((x + y, t + 1)):
                    extend(path + [(x + y, t + 1)])

        for x in xs:
            extend([(x, 0)])
        return min(paths, key=lambda path: [x for x, _ in path])

    out = []
    for seed in seeds:
        field = FieldSpec(seed=int(seed), p=p)
        gam, gam2 = (witness(field, tb) for tb in blocks)
        if gam is None or gam2 is None:
            out.append(None)
            continue
        path_meet = bool(set(gam) & set(gam2))
        hat_meet = any(s2 == s + t_pr and -n_pr <= x2 - x - v_pr < n_pr
                       for x, s in gam for x2, s2 in gam2)

        def allowed(site):
            z, t = site
            if site in gam or site in gam2:
                return True
            near = any(1 <= t - s <= t_pr and abs(z - x) <= rad for x, s in gam)
            return near and stream_hash(seed, site, stream=1) < threshold_for(rate)

        seen, queue = {gam[0]}, [gam[0]]
        while queue:
            x, t = queue.pop(0)
            for y in ys:
                site = (x + y, t + 1)
                if t < L and site not in seen and allowed(site):
                    seen.add(site)
                    queue.append(site)
        out.append((path_meet, hat_meet, gam2[-1] in seen))
    return out


# ---------------------------------------------------------------------------
# region membership, one site at a time

def box_geometry(n: int, d: int, R: int) -> BlockGeometry:
    """The basic box: [-n, n)^{d-1} x [0, R), i.e. an untilted block."""
    return BlockGeometry((n,) * (d - 1), R, (Fraction(0),) * (d - 1))


def block_contains(g: BlockGeometry, site) -> bool:
    """Exact membership of a site (x, t), integer or rational, in the block."""
    *x, t = site
    if not 0 <= t < g.h:
        return False
    for xi, wi, vi in zip(x, g.w, g.v):
        # xi - t*vi in [-wi, wi), scaled by the denominator of vi
        lhs = xi * vi.denominator - t * vi.numerator
        if not -wi * vi.denominator <= lhs < wi * vi.denominator:
            return False
    return True


def translated_block_contains(tb: TranslatedBlock, site) -> bool:
    """Membership of a site in a block translated by a rational vector."""
    return block_contains(tb.geometry, [c - o for c, o in zip(site, tb.offset)])


def cone_contains(lo: Fraction, hi: Fraction, site) -> bool:
    """Membership of (x, t) in the cone over [lo, hi]: t > 0, lo <= x/t <= hi."""
    x, t = site
    if t <= 0:
        return False
    return lo <= Fraction(x, t) <= hi


# ---------------------------------------------------------------------------
# snapshot records

def rle_decode(text: str, size: int) -> np.ndarray:
    """Bits of a run-length text (alternating runs, zeros first)."""
    out = np.zeros(size, dtype=bool)
    if not text:
        return out
    pos, val = 0, False
    for tok in text.split(","):
        n = int(tok)
        if val:
            out[pos:pos + n] = True
        pos += n
        val = not val
    if pos != size:
        raise ValueError(f"run lengths cover {pos} bits, expected {size}")
    return out
