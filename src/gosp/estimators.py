"""Monte Carlo estimators for the supercritical-phase observables.

Every estimator is a deterministic function of (model, parameters, master
seed, replica count): replica i of seed lane ``lane`` always runs on the
derived seed ``spawn_seed(master, lane * 2**32 + i)``, which ``_seeded``
alone computes, and aggregation happens once over the per-replica arrays in
index order, so the reported numbers do not depend on the thread count.
Chunk sizes are constants chosen for speed; they only group replicas into
batches, and a replica's outcome depends on its seed alone, so no outcome
depends on them either.  tests/test_estimators.py checks this for every
chunked estimator at two thread counts:
test_outcomes_do_not_depend_on_chunk_size for survival and decay,
test_batched_outcomes_do_not_depend_on_chunk_size for shape, meet, density,
goodblock and crosspath, and
test_per_replica_outcomes_do_not_depend_on_chunk_size for pc, edges, torus,
crossing, bgprobe, cone and crosspath.

A result holds only what its estimator computed; the inputs it ran on are
in the run manifest's ``config``.  All reported quantities are
finite-horizon proxies; the horizon is an explicit parameter, written to the
summary row's ``T`` column and to the manifest.  Estimators refuse (raise a
subclass of ``EstimatorRefused``) rather than return a number whose estimand
is degenerate at the requested parameters.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product, repeat

import numpy as np

from .dynamics import (
    BatchState,
    DimensionNot2,
    TruncationUncertified,
    _grid_occupancy,
    batch_evolve,
    check_torus_side,
    coupled_slab,
    dependency_cone,
    half_slab_edges,
    rows_from_sites,
    slab_window_rows,
    source_window,
    torus_extinction_batch,
)
from .field import FieldSpec, site_hash, spawn_seed, spawn_seeds
from .geometry import (
    BlockGeometry,
    TranslatedBlock,
    as_fraction,
    bg_target_blocks,
    cone_box,
)
from .model import NormalizedModel


class EstimatorError(RuntimeError):
    pass


class EstimatorRefused(EstimatorError):
    """The estimand is degenerate at these parameters; maps to exit code 2."""


class SubcriticalRefused(EstimatorRefused):
    pass


class InsufficientDeaths(EstimatorRefused):
    pass


class InsufficientSurvivals(EstimatorRefused):
    pass


class EdgeTruncationRefused(InsufficientSurvivals):
    """A truncated half slab's frontier died out or fell within reach of
    the omitted sources, so its edge values are not certified exact."""


class CensoredMean(EstimatorRefused):
    pass


class ConeOutsideShape(EstimatorRefused):
    pass


class NoCrossingFound(EstimatorRefused):
    pass


class BracketNotFound(EstimatorRefused):
    pass


class GeometryInvalid(EstimatorRefused):
    pass


# ---------------------------------------------------------------------------
# summary statistics

_Z95 = 1.959963984540054


def _wilson(k: int, n: int) -> tuple[float, float]:
    z2 = _Z95 * _Z95
    phat = k / n
    denom = 1 + z2 / n
    centre = phat + z2 / (2 * n)
    half = _Z95 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
    return ((centre - half) / denom, (centre + half) / denom)


@dataclass(frozen=True)
class Estimate:
    """Point estimate with standard error and a 95% confidence interval."""

    mean: float
    stderr: float
    n: int
    ci95: tuple[float, float]

    @classmethod
    def from_bernoulli(cls, successes, n: int) -> "Estimate":
        if n <= 0:
            raise EstimatorError("sample count must be positive")
        k = int(successes)
        phat = k / n
        # sample sd with ddof=1, matching the generic stderr definition
        sd = math.sqrt(phat * (1 - phat) * n / (n - 1)) if n > 1 else 0.0
        return cls(phat, sd / math.sqrt(n), n, _wilson(k, n))

    @classmethod
    def from_samples(cls, values) -> "Estimate":
        a = np.asarray(values, dtype=float)
        n = int(a.size)
        if n == 0:
            raise EstimatorError("no samples")
        m = float(a.mean())
        sd = float(a.std(ddof=1)) if n > 1 else 0.0
        se = sd / math.sqrt(n)
        return cls(m, se, n, (m - _Z95 * se, m + _Z95 * se))


# ---------------------------------------------------------------------------
# replica-parallel plumbing

# replica seeds live in disjoint lanes so auxiliary runs (pre-checks,
# stability repeats) never share seeds with the main replicas
_LANE = 1 << 32
# the survival pre-check of shape and torus: _PRE_REPS replicas of seed lane
# _PRE_LANE, read as subcritical when they survive below _SURVIVAL_FLOOR
_PRE_REPS, _PRE_LANE, _SURVIVAL_FLOOR = 200, 9, 0.2


def _run_spans(worker, common, spans, threads: int) -> list:
    if threads <= 1 or len(spans) <= 1:
        return [worker(common, s) for s in spans]
    # the pool forks all its workers at the first submit, so it is sized
    # to the chunks and cores there are, not to the threads asked for
    workers = min(threads, len(spans), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, repeat(common), spans, chunksize=1))


def _seeded(common, span):
    worker, args, master, lane = common
    base = lane * _LANE
    return worker(spawn_seeds(master, base + span[0], base + span[1]), *args)


def _run_chunks(worker, args, seed: int, stop: int, chunk: int, threads: int,
                lane: int = 0, start: int = 0) -> list:
    """``worker(seeds, *args)`` for each chunk of replicas start..stop-1 of
    seed lane ``lane``, in replica order."""
    if stop <= start:
        raise EstimatorError("reps must be >= 1")
    # index 2**32 would take its seed from the next lane
    if stop >= _LANE:
        raise EstimatorError(
            f"replica index {stop - 1} does not fit a seed lane; at most "
            f"{_LANE - 1} replicas per run"
        )
    spans = [(i, min(i + chunk, stop)) for i in range(start, stop, chunk)]
    return _run_spans(_seeded, (worker, args, seed, lane), spans, threads)


@dataclass
class EventFrequency:
    """Frequency of an event over the replicas, with its indicator per
    replica."""

    estimate: Estimate
    outcomes: np.ndarray


def _event_frequency(worker, args, seed: int, reps: int, chunk: int,
                     threads: int, lane: int = 0) -> EventFrequency:
    ev = np.concatenate(
        _run_chunks(worker, args, seed, reps, chunk, threads, lane)
    )
    return EventFrequency(Estimate.from_bernoulli(ev.sum(), reps), ev)


# ---------------------------------------------------------------------------
# survival curves

_SURVIVAL_CHUNK = 4096


def _survival_chunk(seeds, model, p, T, dual):
    # extinction stays -1 exactly for the replicas alive at T
    return batch_evolve(model, seeds, p, T, dual=dual).extinction


@dataclass
class SurvivalCurve:
    """Survival frequency at horizon T plus the raw extinction steps."""

    estimate: Estimate
    taus: np.ndarray            # extinction step per replica; -1 if alive at T


def survival_curve(model: NormalizedModel, p, T: int, reps: int, seed: int,
                   threads: int = 1, dual: bool = False,
                   lane: int = 0) -> SurvivalCurve:
    """Fraction of origin-started replicas alive at horizon T (with ``dual``,
    of replicas whose dual from the origin reaches depth T)."""
    taus = np.concatenate(_run_chunks(
        _survival_chunk, (model, p, T, dual), seed, reps, _SURVIVAL_CHUNK,
        threads, lane,
    ))
    return SurvivalCurve(
        estimate=Estimate.from_bernoulli((taus < 0).sum(), reps), taus=taus,
    )


# ---------------------------------------------------------------------------
# critical point proxy

_EVENT_CHUNK = 1024


def _event_chunk(seeds, model, p, T, L_stop):
    reached = np.zeros(len(seeds), dtype=bool)

    def stop_at_extent(t, state: BatchState):
        # a replica with an occupied site at sup-norm distance >= L_stop has
        # the event; returning it ends it here.  None has it while the
        # window lies inside |x| < L_stop
        if all(-L_stop < a and a + e <= L_stop
               for a, e in zip(state.anchor, state.rows.shape[2:])):
            return None
        occ = state.rows.any(axis=1)
        big = np.zeros(len(occ), dtype=bool)
        for ax, a in enumerate(state.anchor):
            proj = occ.any(axis=tuple(i for i in range(1, occ.ndim) if i != 1 + ax))
            far = np.abs(np.arange(a, a + proj.shape[1])) >= L_stop
            big |= (proj & far).any(axis=1)
        reached[state.index[big]] = True
        return big

    res = batch_evolve(model, seeds, p, T, per_step=stop_at_extent)
    return res.alive_at_T | reached


@dataclass
class CriticalPoint:
    """Finite-size proxy bracket for the critical probability.

    The event bisected is "the origin cluster reaches time T or spatial
    extent L_stop"; p_hat is the midpoint of the final bracket.  This is a
    proxy at the stated horizon, not the infinite-volume threshold.
    """

    p_lo: float
    p_hi: float
    p_hat: float
    sweep: list                  # (p, Estimate) pairs visited by bisection
    stability: list              # Estimate at p_hat under independent seeds


def critical_point(model: NormalizedModel, T: int, L_stop: int, reps: int,
                   tol: float, seed: int, threads: int = 1) -> CriticalPoint:
    if tol <= 0:
        raise EstimatorError("tol must be positive")
    if T < 1 or L_stop < 1:
        raise EstimatorError("T and L_stop must be at least 1")
    sweep = []

    def event(p, lane=0):
        return _event_frequency(_event_chunk, (model, p, T, L_stop), seed,
                                reps, _EVENT_CHUNK, threads, lane).estimate

    def freq(p):
        e = event(p)
        sweep.append((p, e))
        return e.mean

    if freq(0.0) >= 0.5 or freq(1.0) < 0.5:
        raise BracketNotFound(
            "event frequency does not cross 1/2 on [0, 1] at this horizon"
        )
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if freq(mid) >= 0.5:
            hi = mid
        else:
            lo = mid
    p_hat = (lo + hi) / 2
    stability = [event(p_hat, lane) for lane in (1, 2, 3)]
    return CriticalPoint(
        p_lo=lo, p_hi=hi, p_hat=p_hat, sweep=sweep, stability=stability,
    )


# ---------------------------------------------------------------------------
# limit shape

def _longest_run(mask: np.ndarray):
    """Endpoints (inclusive) of the longest run of True, or None."""
    if not mask.any():
        return None
    edges = np.flatnonzero(np.diff(np.concatenate(
        ([0], mask.astype(np.int8), [0])
    )))
    starts, ends = edges[::2], edges[1::2]
    k = int(np.argmax(ends - starts))
    return int(starts[k]), int(ends[k]) - 1


_SHAPE_CHUNK = 16
_SHAPE_BLOCK = 32
# the directions whose time constants are estimated
_SHAPE_DIRECTIONS = ((-1.0,), (1.0,))


def _shape_chunk(seeds, model, p, t, T_cond, ns):
    # the t-step cone of the origin, the only sites it can hit
    lo, hi = dependency_cone(model, (0,), (1,), t)
    ext = (hi[0] - lo[0],)
    hits = np.full((len(seeds),) + ext, -1, dtype=np.int64)

    def record_hits(step, state):
        # a hit after step t would change H, the sites hit by time t
        # only the grid's columns inside the state's window can be hit
        a = max(state.anchor[0], lo[0])
        b = min(state.anchor[0] + state.rows.shape[2], hi[0])
        if step <= t and a < b:
            occ = _grid_occupancy(state.anchor, state.rows[:, 0], (a,), (b - a,))
            cols = slice(a - lo[0], b - lo[0])
            mine = hits[state.index, cols]
            mine[occ & (mine < 0)] = step
            hits[state.index, cols] = mine

    # one origin run answers survival to T_cond and gives the state at t
    res = batch_evolve(model, seeds, p, max(t, T_cond), snapshot_times=[t],
                       per_step=record_hits)
    alive = (res.extinction < 0) | (res.extinction > T_cond)
    out = [None] * len(seeds)
    if not alive.any():
        return out
    snap = res.snapshots[t]
    xi_origin = _grid_occupancy(snap.anchor, snap.rows[alive, 0], lo, ext)
    xi_slab = coupled_slab(model, seeds[alive], p, t, (lo, hi))[:, 0]
    for j, i in enumerate(np.flatnonzero(alive)):
        hit_times = hits[i]
        # row 0 of H and K: hit by time t, and both runs agree at t
        run = _longest_run((hit_times >= 0) & (xi_origin[j] == xi_slab[j]))
        if run is None:
            continue
        a, b = run
        occ = np.flatnonzero(xi_origin[j])
        support = (
            (int(lo[0] + occ[0]), int(lo[0] + occ[-1])) if occ.size else None
        )
        mus = {}
        for dvec in _SHAPE_DIRECTIONS:
            pts = []
            for n in ns:
                x = round(n * dvec[0]) - lo[0]
                if 0 <= x < len(hit_times) and hit_times[x] >= 0:
                    pts.append((n, int(hit_times[x])))
            if len(pts) >= 3:
                mus[dvec] = sum(n * tn for n, tn in pts) / sum(
                    n * n for n, _ in pts
                )
            else:
                mus[dvec] = None
        out[i] = ((lo[0] + a) / t, (lo[0] + b) / t, support, mus)
    return out


@dataclass
class ShapeEstimate:
    """Rescaled limit-shape interval and per-direction time constants (d=2).

    The interval endpoints come from the longest solid run of agreement
    between the hit region and the coupled region on the bottom slab row:
    chance agreements of two empty indicators outside the growth region do
    not join the run, so the run endpoints track the true frontier.
    """

    attempts: int                # attempts consumed to reach the quota
    mu_hat: dict                 # direction -> Estimate or None
    u_lo: Estimate
    u_hi: Estimate
    lo_samples: np.ndarray
    hi_samples: np.ndarray
    supports: list               # per-replica (min, max) of xi^o row 0

    @property
    def u_hat(self) -> tuple[float, float]:
        return (self.u_lo.mean, self.u_hi.mean)


def shape_and_time_constants(model: NormalizedModel, p, t: int, reps: int,
                             T_cond: int | None = None, seed: int = 0,
                             threads: int = 1) -> ShapeEstimate:
    """Shape interval at time t from replicas conditioned on survival to
    T_cond, drawn from at most max(10 reps, 50) attempts."""
    if model.d != 2:
        raise DimensionNot2("shape estimation is implemented for d = 2")
    # the quota loop below would never meet a quota below 1
    if reps < 1:
        raise EstimatorError("reps must be >= 1")
    if t < 1:
        raise EstimatorError("t must be >= 1")
    T_cond = t if T_cond is None else T_cond
    T_pre = min(t, 200)
    pre = survival_curve(model, p, T_pre, _PRE_REPS, seed, threads=threads,
                         lane=_PRE_LANE)
    if pre.estimate.mean < _SURVIVAL_FLOOR:
        raise SubcriticalRefused(
            f"survival frequency {pre.estimate.mean:.3f} at T={T_pre} is "
            f"below the floor {_SURVIVAL_FLOOR}"
        )
    ns = tuple(range(max(2, t // 5), t // 2 + 1, max(1, t // 20)))
    budget = max(reps * 10, 50)
    # blocks of attempts run one at a time, and only until the quota is met
    items = chain.from_iterable(
        chain.from_iterable(_run_chunks(
            _shape_chunk, (model, p, t, T_cond, ns), seed,
            min(start + _SHAPE_BLOCK, budget), _SHAPE_CHUNK, threads,
            start=start,
        ))
        for start in range(0, budget, _SHAPE_BLOCK)
    )
    collected = []
    attempts = 0
    for item in items:
        attempts += 1
        if item is not None:
            collected.append(item)
            if len(collected) == reps:
                break
    if len(collected) < reps:
        raise InsufficientSurvivals(
            f"only {len(collected)} of {reps} conditioned replicas obtained "
            f"in {attempts} attempts"
        )
    lo_samples = np.array([c[0] for c in collected])
    hi_samples = np.array([c[1] for c in collected])
    mu_hat = {}
    for dvec in _SHAPE_DIRECTIONS:
        vals = [c[3][dvec] for c in collected if c[3][dvec] is not None]
        mu_hat[dvec] = Estimate.from_samples(vals) if vals else None
    return ShapeEstimate(
        attempts=attempts, mu_hat=mu_hat,
        u_lo=Estimate.from_samples(lo_samples),
        u_hi=Estimate.from_samples(hi_samples),
        lo_samples=lo_samples, hi_samples=hi_samples,
        supports=[c[2] for c in collected],
    )


# ---------------------------------------------------------------------------
# edge speeds (d = 2)

_EDGE_CHUNK = 8
# the half slab's truncation margin, which sets the widest truncation
# tried, after a quarter and half of it (``half_slab_edges``); the frontier
# certificate refuses a margin that turns out too small
_EDGE_MARGIN = 0.2


def _edge_chunk(seeds, model, p, T, side):
    try:
        return half_slab_edges(model, seeds, p, side, T, _EDGE_MARGIN)
    except TruncationUncertified as exc:
        raise EdgeTruncationRefused(str(exc)) from exc


@dataclass
class EdgeSpeeds:
    """Frontier speed estimates with the per-time diagnostic bounds.

    ``alpha_upper`` is min over t of mean r_t/t (an upper bound on the right
    speed by subadditivity); ``beta_lower`` is the symmetric max for the
    left frontier.
    """

    alpha: Estimate
    beta: Estimate
    alpha_upper: float
    beta_lower: float
    r_T: np.ndarray
    l_T: np.ndarray


def edge_speeds(model: NormalizedModel, p, T: int, reps: int, seed: int,
                threads: int = 1) -> EdgeSpeeds:
    """Mean frontier displacement per step for both half-slab processes.

    Both sides run on the same per-replica fields, so differences of speeds
    across p or across sides are positively coupled.
    """
    if model.d != 2:
        raise DimensionNot2("edge speeds are defined for d = 2 only")
    if T < 1:
        raise EstimatorError("T must be >= 1")

    def side_edges(side):
        return np.concatenate(_run_chunks(
            _edge_chunk, (model, p, T, side), seed, reps, _EDGE_CHUNK, threads,
        ))

    def reduce(edges, minimise):
        # certified frontiers never die out, so every replica counts at every t
        vT = edges[:, T]
        means = edges[:, 1:].astype(float).sum(axis=0) / len(edges)
        ratios = means / np.arange(1, T + 1)
        diag = float(ratios.min() if minimise else ratios.max())
        return Estimate.from_samples(vT / T), diag, vT

    alpha, alpha_upper, r_T = reduce(side_edges("right"), minimise=True)
    beta, beta_lower, l_T = reduce(side_edges("left"), minimise=False)
    return EdgeSpeeds(
        alpha=alpha, beta=beta, alpha_upper=alpha_upper, beta_lower=beta_lower,
        r_T=r_T, l_T=l_T,
    )


# ---------------------------------------------------------------------------
# extinction-time tails

def _fit_line(x: np.ndarray, y: np.ndarray):
    """Slope of the least-squares line, its R^2 and the slope's standard
    error."""
    n = x.size
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1 - ss_res / ss_tot
    sxx = float(((x - x.mean()) ** 2).sum())
    se = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 and sxx > 0 else 0.0
    return float(slope), r2, se


# a death-bound fit needs this many deaths in its window, and a decay fit
# this many survivors at the end of each window
_MIN_EVENTS = 50


@dataclass
class DeathBoundFit:
    """Log-linear fit of the finite-extinction-time tail over a window."""

    slope: float
    slope_stderr: float
    r2: float
    n_deaths: int                # deaths inside the window
    counts: dict                 # t -> count of t <= tau <= T


def death_bound_fit(model: NormalizedModel, p, T: int, reps: int,
                    window: tuple[int, int], seed: int,
                    threads: int = 1) -> DeathBoundFit:
    """Slope of log P(t <= tau < infinity) over the window.

    Extinction by the horizon counts as finite; tau > T is censored out of
    the event, which biases the tail slightly low but leaves the slope of
    the log-tail nearly unchanged over windows well below T.
    """
    w0, w1 = int(window[0]), int(window[1])
    if not 1 <= w0 < w1 <= T:
        raise EstimatorError(f"window {window} must satisfy 1 <= a < b <= T")
    sc = survival_curve(model, p, T, reps, seed, threads=threads)
    ts = np.arange(w0, w1 + 1)
    finite = sc.taus[sc.taus >= 0]
    tails = np.array([(finite >= t).sum() for t in ts])
    n_deaths = int(tails[0] - (finite > w1).sum())
    keep = tails > 0
    if n_deaths < _MIN_EVENTS or keep.sum() < 3:
        raise InsufficientDeaths(
            f"{n_deaths} deaths in window [{w0}, {w1}] "
            f"(floor {_MIN_EVENTS}, {int(keep.sum())} support points)"
        )
    slope, r2, se = _fit_line(
        ts[keep].astype(float), np.log(tails[keep] / reps)
    )
    return DeathBoundFit(
        slope=slope, slope_stderr=se, r2=r2, n_deaths=n_deaths,
        counts={int(t): int(c) for t, c in zip(ts, tails)},
    )


_DECAY_CHUNK = 65536


def _decay_chunk(seeds, model, p, T):
    res = batch_evolve(model, seeds, p, T)
    tau_eff = np.where(res.extinction < 0, T + 1, res.extinction)
    # integer histogram so the merge over chunks is exact in any order
    return np.bincount(tau_eff, minlength=T + 2)


@dataclass
class SubcriticalDecay:
    """Exponential decay rate of P(tau >= t), fitted over trailing windows."""

    c_hat: float                 # fit over the union of the windows
    window_fits: list            # (window, c_window, survivors at window end)
    histogram: np.ndarray        # counts of tau; index T+1 collects tau > T


def subcritical_decay(model: NormalizedModel, p, T: int, reps: int, seed: int,
                      threads: int = 1,
                      windows=((40, 60), (60, 80))) -> SubcriticalDecay:
    for window in windows:
        if not 1 <= window[0] < window[1] <= T:
            raise EstimatorError(f"window {window} must satisfy 1 <= a < b <= T")
    hist = sum(_run_chunks(
        _decay_chunk, (model, p, T), seed, reps, _DECAY_CHUNK, threads,
    ))
    tail = np.cumsum(hist[::-1])[::-1]

    def fit(a, b):
        ts = np.arange(a, b + 1)
        surv = tail[a:b + 1]
        if surv[-1] < _MIN_EVENTS:
            raise InsufficientSurvivals(
                f"only {int(surv[-1])} replicas with tau >= {b} "
                f"(floor {_MIN_EVENTS})"
            )
        slope, _, _ = _fit_line(ts.astype(float), np.log(surv / reps))
        return -slope, int(surv[-1])

    window_fits = [((int(a), int(b)), *fit(int(a), int(b))) for a, b in windows]
    c_hat, _ = fit(int(min(a for a, _ in windows)), int(max(b for _, b in windows)))
    return SubcriticalDecay(c_hat=c_hat, window_fits=window_fits, histogram=hist)


# ---------------------------------------------------------------------------
# torus extinction

_TORUS_CHUNK = 256


def _torus_chunk(seeds, model, p, n, T_max):
    return torus_extinction_batch(model, p, seeds, n, T_max).extinction


@dataclass
class TorusSizeStats:
    """Extinction times on one torus size, in the order of ``sizes``."""

    mean_tau: Estimate
    uncensored: int
    censored: int
    ks_distance: float | None    # supercritical mode
    ratio_log: float | None      # subcritical mode: mean / log n
    taus: np.ndarray


@dataclass
class TorusStats:
    """Extinction-time statistics of the full-start torus dynamics."""

    regime: str
    per_size: list
    slope_vs_log: float | None   # subcritical: slope of mean tau vs log n


# Cephes' expm1, copied operation for operation: exp(v) - 1 through libm
# outside [-0.5, 0.5], a rational function inside.  np.expm1 and np.exp
# round differently, and the KS distance below must equal the Cephes-based
# kstest(x, "expon") statistic bit for bit (tests/test_estimators.py).
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2,
            9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
            2.2726554820815502876593e-1, 2.0000000000000000000897e0)


def _ks_expon(x) -> float:
    """Kolmogorov-Smirnov distance of the sample x from Exp(1)."""
    x = np.sort(x)
    n = x.size
    v = -x
    em1 = np.empty_like(v)
    inner = np.abs(v) <= 0.5
    em1[~inner] = [math.exp(a) - 1.0 for a in v[~inner].tolist()]
    w = v[inner]
    xx = w * w
    r = w * np.polyval(_EXPM1_P, xx)
    r = r / (np.polyval(_EXPM1_Q, xx) - r)
    em1[inner] = r + r
    cdf = -em1
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                     (cdf - np.arange(0.0, n) / n).max()))


def torus_stats(model: NormalizedModel, p, sizes, reps: int, T_max: int,
                seed: int, threads: int = 1, regime: str = "auto") -> TorusStats:
    if regime not in ("auto", "sub", "super"):
        raise EstimatorError(f"unknown regime {regime!r}")
    for n in sizes:
        check_torus_side(model, int(n))
    if regime == "auto":
        pre = survival_curve(model, p, 100, _PRE_REPS, seed, threads=threads,
                             lane=_PRE_LANE)
        regime = "super" if pre.estimate.mean >= _SURVIVAL_FLOOR else "sub"
    floor = max(10, reps // 2)
    per_size = []
    for j, n in enumerate(sizes):
        ext = np.concatenate(_run_chunks(
            _torus_chunk, (model, p, int(n), T_max), seed, reps, _TORUS_CHUNK,
            threads, lane=16 + j,
        ))
        taus = ext[ext >= 0].astype(float)
        if taus.size < floor:
            raise CensoredMean(
                f"torus size {n}: {taus.size} of {reps} replicas died by "
                f"T_max={T_max}, below the floor max(10, reps // 2) = "
                f"{floor}; cannot estimate the mean"
            )
        est = Estimate.from_samples(taus)
        ks = ratio = None
        if regime == "super":
            ks = _ks_expon(taus / taus.mean())
        else:
            ratio = est.mean / math.log(n)
        per_size.append(TorusSizeStats(
            mean_tau=est, uncensored=int(taus.size),
            censored=int(reps - taus.size), ks_distance=ks, ratio_log=ratio,
            taus=taus,
        ))
    slope = None
    if regime == "sub" and len(per_size) >= 2:
        xs = np.log(sizes)
        ys = [s.mean_tau.mean for s in per_size]
        slope = float(np.polyfit(xs, ys, 1)[0])
    return TorusStats(regime=regime, per_size=per_size, slope_vs_log=slope)


# ---------------------------------------------------------------------------
# density spectrum

# the chunks of density and goodblock repeat each replica's seed once per
# start site; a chunk takes as many replicas as fit _SITE_ROWS batch rows
_SITE_ROWS = 512


def _chunk_reps(n_sites: int) -> int:
    return max(1, _SITE_ROWS // n_sites)


def _site_starts(model: NormalizedModel, ext, slab_rows) -> np.ndarray:
    """Rows (n, R, *ext) with one occupied site each: every cell of a box of
    extent ``ext`` on each slab row of ``slab_rows`` in turn."""
    cells = math.prod(ext)
    n = len(slab_rows) * cells
    rows = np.zeros((n, model.R, cells), dtype=bool)
    k = np.arange(n)
    rows[k, np.repeat(slab_rows, cells), k % cells] = True
    return rows.reshape((n, model.R) + tuple(ext))


def _density_chunk(seeds, model, p, n, T_inf):
    d_s = model.d - 1
    rows = _site_starts(model, (2 * n,) * d_s, range(model.R))
    n_sites = len(rows)
    res = batch_evolve(
        model, np.repeat(seeds, n_sites), p, T_inf,
        init=((-n,) * d_s, np.concatenate([rows] * len(seeds))),
        dual=True,
    )
    return res.alive_at_T.reshape(len(seeds), n_sites).mean(axis=1)


@dataclass
class DensitySpectrum:
    """Samples of the box density of deep dual survivors."""

    mean: Estimate
    samples: np.ndarray


def density_spectrum(model: NormalizedModel, p, n: int, T_inf: int, reps: int,
                     seed: int, threads: int = 1) -> DensitySpectrum:
    """Y_n = fraction of sites of B_n whose dual survives to depth T_inf."""
    if T_inf < 10 or n < 1:
        raise EstimatorError(f"need T_inf >= 10 and n >= 1, got {T_inf} and {n}")
    samples = np.concatenate(_run_chunks(
        _density_chunk, (model, p, n, T_inf), seed, reps,
        _chunk_reps(model.R * (2 * n) ** (model.d - 1)), threads,
    ))
    return DensitySpectrum(mean=Estimate.from_samples(samples), samples=samples)


# ---------------------------------------------------------------------------
# box crossing

def _tilted_box(model: NormalizedModel, w: int, height: int, slope: Fraction,
                shift: Fraction, half: bool):
    """``(init, domain)`` of a run inside the box B(w, height, slope) shifted
    by ``shift``, or None if no source can enter it.

    ``domain`` is the box's row at each time, and ``init`` the
    ``source_window`` of those rows (with ``half``, cut to x <= 0).
    """
    box = TranslatedBlock(BlockGeometry((w,), height, (slope,)),
                          (shift, Fraction(0))).box
    (lo,), (hi,) = source_window(model, [(t, box(t)) for t in range(height)])
    if half:
        hi = min(hi, 1)
    if lo >= hi:
        return None
    return slab_window_rows(model, (lo,), (hi,)), box


_CROSS_CHUNK = 64


def _crossing_chunk(seeds, model, p, L, box):
    if box is None:
        return np.zeros(len(seeds), dtype=bool)
    init, domain = box
    return batch_evolve(model, seeds, p, L, init=init, domain=domain).alive_at_T


def crossing_probability(model: NormalizedModel, p, L: int, eps: float,
                         slope, reps: int, seed: int, threads: int = 1,
                         lateral_shift=0) -> EventFrequency:
    """Frequency of a bottom-to-top crossing of the tilted box B(eps*L, L, slope)
    by the process started from the truncated half slab {x <= 0}."""
    if model.d != 2:
        raise DimensionNot2("box crossing is defined for d = 2 only")
    w = max(1, round(eps * L))
    # box height L+R so the top chain row [L, L+R) lies inside the domain
    box = _tilted_box(model, w, L + model.R, as_fraction(slope),
                      as_fraction(lateral_shift), half=True)
    return _event_frequency(_crossing_chunk, (model, p, L, box), seed, reps,
                            _CROSS_CHUNK, threads)


# ---------------------------------------------------------------------------
# renormalisation block event

_BG_CHUNK = 16


def _on_box(anchor, rows, box):
    """The cells of ``rows`` at ``anchor`` on the integer box (lo, hi), the
    leading axes kept; cells outside the rows read unset."""
    lo, hi = box
    return _grid_occupancy(anchor, rows, lo, tuple(h - l for l, h in zip(lo, hi)))


def _box_full(col, n):
    """The cells x of the boolean array col whose box [x - n, x + n) on
    every axis is set in col; cells outside col count as unset."""
    full = col
    for ax in range(col.ndim):
        m = col.shape[ax]
        a = np.moveaxis(full, ax, -1)
        # c[..., j] counts the set cells of a before index j - n
        c = np.cumsum(np.pad(a, [(0, 0)] * (a.ndim - 1) + [(n + 1, n)]),
                      axis=-1)
        full = np.moveaxis(c[..., 2 * n:2 * n + m] - c[..., :m] == 2 * n,
                           -1, ax)
    return full


def _bg_chunk(seeds, model, p, g, n):
    regions = bg_target_blocks(g)
    out = []
    for si in seeds:
        # the box's time and place from hashes of the seed, each scaled
        # to its range [0, m) as (h * m) >> 64
        h0, *hx = (int(v) for v in site_hash(si, [np.arange(model.d)], stream=2))
        t = h0 * g.h >> 64
        x = tuple(
            math.ceil(vi * t - wi) + (hi * 2 * wi >> 64)
            for vi, wi, hi in zip(g.v, g.w, hx)
        )
        init = slab_window_rows(
            model, tuple(c - n for c in x), tuple(c + n for c in x)
        )
        success = False

        def scan(step_t, state: BatchState):
            # the run ends at its first success
            nonlocal success
            s_abs = t + step_t
            if not 7 * g.h <= s_abs < 8 * g.h:
                return
            if any(e == 0 for e in state.rows.shape[2:]):
                return
            full = _box_full(state.rows[0].all(axis=0), n)
            success = any(_on_box(state.anchor, full, target.box(s_abs)).any()
                          for target in (regions.target_plus, regions.target_minus))
            return np.array([success])

        batch_evolve(
            model, [si], p, 8 * g.h - t, init=init, t0=t,
            domain=regions.envelope.box, per_step=scan,
        )
        out.append(success)
    return np.array(out, dtype=bool)


def bg_event_probability(model: NormalizedModel, p, g: BlockGeometry, n: int,
                         reps: int, seed: int,
                         threads: int = 1) -> EventFrequency:
    """Frequency that a uniformly placed box (x,t)+B_n, run inside the
    envelope B(4w, 8h, v), fully infects a translated box in one of the two
    displaced target blocks."""
    if g.spatial_dim != model.d - 1:
        raise GeometryInvalid("block geometry dimension does not match model")
    if not 1 <= n < min(g.w):
        raise GeometryInvalid(f"need 1 <= n < min(w): n={n}, w={g.w}")
    if g.h <= model.R:
        raise GeometryInvalid(f"need block height > R: h={g.h}, R={model.R}")
    return _event_frequency(_bg_chunk, (model, p, g, n), seed, reps,
                            _BG_CHUNK, threads)


# ---------------------------------------------------------------------------
# good blocks

def _good_chunk(seeds, model, p, L, C, v):
    R = model.R
    d_s = model.d - 1
    thr = L // C
    s_time = C * L + thr

    def boxes(half_width, centre):
        # the block's box on each slab row r, row r at time r
        tb = TranslatedBlock(BlockGeometry((half_width,) * d_s, R, v),
                             tuple(centre) + (Fraction(0),))
        return [tb.box(r) for r in range(R)]

    regions = {t: boxes(3 * L, [vi * t for vi in v]) for t in (C * L, s_time)}
    probes = [
        boxes(max(1, thr), [vi * s_time + (sgn * L if ax == d_s - 1 else 0)
                            for ax, vi in enumerate(v)])
        for sgn in (1, -1)
    ]
    # the slab runs are read on the regions at their steps, the probes at s_time
    window = source_window(model, [(k, b) for k, bs in regions.items() for b in bs]
                           + [(s_time, b) for bs in probes for b in bs])

    # one batch entry per replica and site (x, u) of the block's slab row
    # u, which is the top chain row R-1 of a run from t0 = u - R + 1
    starts = _site_starts(model, (2 * L,) * d_s, [R - 1])
    n_sites = len(starts)
    k = len(seeds)
    site_seeds, starts = np.repeat(seeds, n_sites), np.concatenate([starts] * k)

    def cells(snap, r, box):
        # row r of each replica's snapshot on the box, flattened
        return _on_box(snap.anchor, snap.rows[:, r], box).reshape(len(snap.rows), -1)

    e1, e2, e3 = np.ones((3, k), dtype=bool)
    for u in range(R):
        t0 = u - R + 1
        res = batch_evolve(
            model, site_seeds, p, s_time, t0=t0, snapshot_times=[C * L, s_time],
            init=(tuple(math.ceil(vi * u - L) for vi in v), starts),
        )
        tau = res.extinction.reshape(k, n_sites)
        alive_long = (tau < 0) | (tau >= thr)
        e1 &= ~((tau >= thr) & (tau < s_time)).any(axis=1)
        res_s = batch_evolve(
            model, seeds, p, s_time, init=slab_window_rows(model, *window),
            t0=t0, snapshot_times=[C * L, s_time],
        )
        for off_t, reg in regions.items():
            snap, snap_s = res.snapshots[off_t], res_s.snapshots[off_t]
            for r, box in enumerate(reg):
                mismatch = (cells(snap, r, box).reshape(k, n_sites, -1)
                            != cells(snap_s, r, box)[:, None])
                e2 &= ~(mismatch.any(axis=2) & alive_long).any(axis=1)
        if u == R - 1:
            # probe blocks against the untranslated slab run (t0 = 0)
            for probe in probes:
                e3 &= np.any([cells(res_s.snapshots[s_time], r, box).any(axis=1)
                              for r, box in enumerate(probe)], axis=0)
    return list(zip(e1.tolist(), e2.tolist(), e3.tolist()))


@dataclass
class GoodBlockEstimate:
    estimate: Estimate           # all three events hold
    event1: Estimate             # extinction-time dichotomy
    event2: Estimate             # coupled-region containments
    event3: Estimate             # displaced probe blocks reached
    events: list                 # per replica (e1, e2, e3)


def good_block_probability(model: NormalizedModel, p, L: int, C: int,
                           reps: int, seed: int, threads: int = 1,
                           v=None) -> GoodBlockEstimate:
    """Frequency of the three-part good-block event at scale (L, C).

    Event 1: every site of the block's base slab either dies before L/C or
    survives to s = C*L + L/C.  Event 2: long-surviving sites agree with the
    full-slab process on the 3L-block at times C*L and s.  Event 3: the
    full-slab state at time s meets both probe blocks displaced by +-L on
    the last spatial axis.
    """
    if C < 2:
        raise GeometryInvalid("need C >= 2")
    if L < C or L % C != 0:
        raise GeometryInvalid(f"need C | L and L >= C; got L={L}, C={C}")
    v = tuple(
        as_fraction(c) for c in (v if v is not None else (0,) * (model.d - 1))
    )
    if len(v) != model.d - 1:
        raise GeometryInvalid("tilt vector has wrong dimension")
    flat = list(chain.from_iterable(_run_chunks(
        _good_chunk, (model, p, L, C, v), seed, reps,
        _chunk_reps((2 * L) ** (model.d - 1)), threads,
    )))
    good = sum(1 for e1, e2, e3 in flat if e1 and e2 and e3)
    return GoodBlockEstimate(
        estimate=Estimate.from_bernoulli(good, reps),
        event1=Estimate.from_bernoulli(sum(e[0] for e in flat), reps),
        event2=Estimate.from_bernoulli(sum(e[1] for e in flat), reps),
        event3=Estimate.from_bernoulli(sum(e[2] for e in flat), reps),
        events=flat,
    )


# ---------------------------------------------------------------------------
# primal-dual meeting

_MEET_CHUNK = 32


def _meet_chunk(seeds, model, p, t, z):
    rp = batch_evolve(model, [spawn_seed(s, 0) for s in seeds], p, t,
                      snapshot_times=[t])
    rd = batch_evolve(
        model, [spawn_seed(s, 1) for s in seeds], p, t,
        init=rows_from_sites(model, [z + (0,)]), t0=2 * t, dual=True,
        snapshot_times=[t],
    )
    both = rp.alive_at_T & rd.alive_at_T
    sp, sd = rp.snapshots[t], rd.snapshots[t]
    meet = sp.rows & _grid_occupancy(sd.anchor, sd.rows, sp.anchor, sp.rows.shape[2:])
    meet = meet.reshape(len(seeds), -1).any(axis=1)
    return list(zip(both.tolist(), (both & ~meet).tolist()))


@dataclass
class MeetEstimate:
    """Failure frequency of the primal-dual meeting event.

    The dual starts at the rounded displacement z = round(2t * v_hat) (ties
    toward minus infinity) at absolute time 2t; row s of the dual at depth t
    sits at absolute time t+s, so the two slab states are compared directly.
    """

    failure: Estimate            # both alive at t, supports disjoint
    events: list                 # per replica (both alive, failure)
    both_alive: int
    z: tuple[int, ...]


def primal_dual_meet(model: NormalizedModel, p, t: int, reps: int, v_hat,
                     seed: int, threads: int = 1) -> MeetEstimate:
    v_hat = tuple(as_fraction(c) for c in v_hat)
    if len(v_hat) != model.d - 1:
        raise EstimatorError("v_hat has wrong dimension")
    # nearest integer with ties toward minus infinity
    z = tuple(math.ceil(2 * t * c - Fraction(1, 2)) for c in v_hat)
    flat = list(chain.from_iterable(_run_chunks(
        _meet_chunk, (model, p, t, z), seed, reps, _MEET_CHUNK, threads,
    )))
    return MeetEstimate(
        failure=Estimate.from_bernoulli(sum(f for _, f in flat), reps),
        events=flat, both_alive=sum(b for b, _ in flat),
        z=z,
    )


# ---------------------------------------------------------------------------
# restricted-cone survival

_CONE_CHUNK = 64
_CONE_MARGIN = 0.02


def _cone_chunk(seeds, model, p, lo, hi, T, t0):
    # the cone's lattice sites x in [lo*t, hi*t] at t = t0, ..., t0+R-1
    sites = [
        (x, s) for s in range(model.R)
        for x in range(math.ceil(lo * (t0 + s)), math.floor(hi * (t0 + s)) + 1)
    ]
    res = batch_evolve(
        model, seeds, p, T - t0, init=rows_from_sites(model, sites), t0=t0,
        domain=partial(cone_box, lo, hi),
    )
    return res.alive_at_T


def restricted_cone_survival(model: NormalizedModel, p, interval, T: int,
                             reps: int, seed: int, threads: int = 1,
                             t0: int = 50, shape=None) -> EventFrequency:
    """Frequency that some start site of the cone {(x, t): lo*t <= x <= hi*t}
    over ``interval`` = (lo, hi), in the time window [t0, t0+R), percolates
    within the cone to time T.

    Start-window policy: start sites are exactly the cone's lattice sites in
    that window and are exempt from the openness/domain requirement, like
    any path start.  Refuses unless [lo, hi] lies inside the shape interval
    ``shape`` = (u_lo, u_hi), estimated here if None, with a margin of
    _CONE_MARGIN.
    """
    if model.d != 2:
        raise DimensionNot2("cone survival is implemented for d = 2")
    if not 0 < t0 < T:
        raise EstimatorError("need 0 < t0 < T")
    o_lo, o_hi = (as_fraction(c) for c in interval)
    if o_lo > o_hi:
        raise EstimatorError("cone interval must be non-empty")
    if shape is None:
        shape = shape_and_time_constants(
            model, p, min(400, max(T, 50)), 40,
            seed=spawn_seed(seed, 7), threads=threads,
        ).u_hat
    u_lo, u_hi = shape
    if not (u_lo + _CONE_MARGIN <= float(o_lo)
            and float(o_hi) <= u_hi - _CONE_MARGIN):
        raise ConeOutsideShape(
            f"cone [{float(o_lo):.3f}, {float(o_hi):.3f}] is not inside the "
            f"shape interval [{u_lo:.3f}, {u_hi:.3f}] with margin {_CONE_MARGIN}"
        )
    return _event_frequency(_cone_chunk, (model, p, o_lo, o_hi, T, t0), seed,
                            reps, _CONE_CHUNK, threads)


# ---------------------------------------------------------------------------
# path crossing and sprinkled transfer

# the probe box's half-width and the largest number of steps searched
_PROBE_N = 1
_PROBE_T_MAX = 12


def box_infection_probe(model: NormalizedModel) -> tuple[int, tuple[int, ...], int]:
    """(n, v, t) for the smallest t (then closest v) with v + [-n, n)^{d-1}
    inside the t-fold sumset of the spatial steps, n = _PROBE_N; at p=1 a
    site infects that whole box t steps later."""
    if any(u != 1 for _, u in model.split_offsets):
        raise EstimatorError("box infection probe requires a range-1 model")
    d_s = model.d - 1
    n = _PROBE_N
    steps = [y for y, _ in model.split_offsets]
    box = list(product(*[range(-n, n)] * d_s))
    current = {(0,) * d_s}
    for t in range(1, _PROBE_T_MAX + 1):
        current = {
            tuple(a + b for a, b in zip(x, y)) for x in current for y in steps
        }
        for cand in sorted(current, key=lambda z: (max(map(abs, z)), z)):
            if all(
                tuple(ci + bi for ci, bi in zip(cand, b)) in current
                for b in box
            ):
                return n, cand, t
    raise EstimatorError(
        f"no box infection parameters found up to t={_PROBE_T_MAX}")


def _leftmost_path(model: NormalizedModel, snapshots, L: int, b: int):
    """Leftmost bottom-to-top open path of replica b, alive at L, from
    stored range-1 states.

    Keeps only sites that are co-reachable from the top, then greedily takes
    the smallest admissible successor; this is the lexicographically least
    crossing path, a deterministic witness choice.
    """
    ys = sorted(y[0] for y, _ in model.split_offsets)
    occ = []
    for t in range(L + 1):
        st = snapshots[t]
        row = st.rows[b, 0]
        occ.append({int(st.anchor[0] + j) for j in np.flatnonzero(row)})
    co = [set() for _ in range(L + 1)]
    co[L] = occ[L]
    for t in range(L - 1, -1, -1):
        nxt = co[t + 1]
        co[t] = {x for x in occ[t] if any(x + y in nxt for y in ys)}
    a = min(co[0])
    path = [(a, 0)]
    for t in range(1, L + 1):
        a = min(a + y for y in ys if a + y in co[t])
        path.append((a, t))
    return path


def _transfer_bfs(model, seed, p, eps, gam, gam2, probe, L) -> bool:
    """Can the sprinkled field connect the start of gamma to the end of
    gamma-prime through gamma, gamma-prime and extra sites near gamma?"""
    n_pr, v_pr, t_pr = probe
    v0 = v_pr[0]
    fld = FieldSpec(seed, p, sprinkle_eps=eps)
    ys = sorted(y[0] for y, _ in model.split_offsets)
    core = defaultdict(set)
    for x, t in gam:
        core[t].add(x)
    for x, t in gam2:
        core[t].add(x)
    band = defaultdict(list)
    rad = n_pr + abs(v0) + t_pr * max(1, model.dilation(1))
    for x, ta in gam:
        for j in range(1, t_pr + 1):
            if ta + j <= L:
                band[ta + j].append((x - rad, x + rad))
    target = gam2[-1][0]
    frontier = {gam[0][0]}
    for t in range(1, L + 1):
        nxt = set()
        for x in frontier:
            for y in ys:
                z = x + y
                if z in nxt:
                    continue
                if z in core[t]:
                    nxt.add(z)
                elif eps > 0 and any(
                    lo <= z <= hi for lo, hi in band.get(t, ())
                ) and fld.extra_open((z, t)):
                    nxt.add(z)
        if not nxt:
            return False
        frontier = nxt
    return target in frontier


_TRANSFER_CHUNK = 64


def _transfer_chunk(seeds, model, p, eps, L, boxes, probe):
    # one run per box over the whole span; a replica crosses a box if it
    # is alive at L, and then every snapshot of that run exists
    runs = [
        batch_evolve(model, seeds, p, L, init=init, domain=domain,
                     snapshot_times=range(L + 1))
        for init, domain in boxes
    ]
    crossed = runs[0].alive_at_T & runs[1].alive_at_T
    n_pr, v_pr, t_pr = probe
    out = []
    for i, si in enumerate(seeds):
        if not crossed[i]:
            out.append(None)
            continue
        gam, gam2 = (_leftmost_path(model, r.snapshots, L, i) for r in runs)
        g2set = set(gam2)
        path_meet = bool(set(gam) & g2set)
        hat = {
            (x + v_pr[0] + b, ta + t_pr)
            for x, ta in gam for b in range(-n_pr, n_pr)
        }
        hat_meet = bool(hat & g2set)
        transfer = _transfer_bfs(model, si, p, eps, gam, gam2, probe, L)
        out.append((path_meet, hat_meet, transfer))
    return out


@dataclass
class TransferResult:
    """Crossing-path statistics of the two tilted boxes under sprinkling.

    ``records`` holds one entry per replica: None when at least one box was
    not crossed, else (paths share a vertex, thickened path meets the other
    path, sprinkled transfer connects start to end).
    """

    crossing: Estimate           # both boxes crossed
    transfer: Estimate           # transfer success among crossing replicas
    path_meets: int
    hat_meets: int
    crossed: int
    records: list


def path_crossing_transfer(model: NormalizedModel, p, eps: float, L: int,
                           reps: int, seed: int, threads: int = 1, *,
                           alpha, beta, shift=None,
                           half_width=None) -> TransferResult:
    """Sample fields where both tilted boxes are crossed, extract leftmost
    crossing paths and test the sprinkled start-to-end transfer.

    The first box has slope ``alpha`` shifted left by ``shift``, the second
    slope ``beta`` shifted right; both have half-width ``half_width``
    (default eps*L).
    """
    if model.d != 2:
        raise DimensionNot2("path transfer is defined for d = 2 only")
    if not 0 <= eps <= 1 - p:
        raise EstimatorError(f"eps must lie in [0, 1-p], got {eps}")
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    if half_width is not None:
        w = int(half_width)
    else:
        w = max(1, round(eps * L)) if eps > 0 else max(1, round(0.1 * L))
    shift = 2 * w if shift is None else int(shift)
    probe = box_infection_probe(model)
    # neither box is cut to a half slab, so neither source window is empty
    boxes = [
        _tilted_box(model, w, L + 1, slope, Fraction(off), half=False)
        for slope, off in ((alpha, -shift), (beta, shift))
    ]
    records = list(chain.from_iterable(_run_chunks(
        _transfer_chunk, (model, p, eps, L, boxes, probe), seed, reps,
        _TRANSFER_CHUNK, threads,
    )))
    crossed = [r for r in records if r is not None]
    if not crossed:
        raise NoCrossingFound(
            f"no replica crossed both boxes in {reps} attempts"
        )
    return TransferResult(
        crossing=Estimate.from_bernoulli(len(crossed), reps),
        transfer=Estimate.from_bernoulli(
            sum(r[2] for r in crossed), len(crossed)
        ),
        path_meets=sum(r[0] for r in crossed),
        hat_meets=sum(r[1] for r in crossed),
        crossed=len(crossed), records=records,
    )
