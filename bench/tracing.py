"""Per-layer spans and counts for the traced benchmark run.

gosp carries no instrumentation of its own yet, so ``install`` wraps, for the
life of the process, the attributes through which each layer calls the next:
the field's ``site_hash``, the step kernels, ``_trim`` and ``batch_evolve``
in ``gosp.dynamics``, ``_run_spans``, ``ProcessPoolExecutor`` and the
estimator entry points in ``gosp.estimators``, and the runner table, model
loader and artifact writer in ``gosp.cli``.  Every module that binds the same
function object gets the wrapper, so ``from .dynamics import batch_evolve``
copies are traced too.

Each chunk handed to ``_run_spans`` runs under a fresh ``Spans`` record that
travels back with the chunk's result, so spans recorded in forked pool
workers are merged into the calling process.  A wrapped name that no longer
exists is reported by ``install``, and one whose arguments or result no
longer have the shape a counting hook reads is recorded when the hook fails;
either turns the metrics that need it into ``None`` and never fails the run.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

# artifacts whose bytes are counted; the manifest is left out because its
# timing field makes its length vary from run to run
COUNTED_ARTIFACTS = ("results.jsonl", "summary.csv")

# estimator entry points the workloads reach from the CLI runners
ESTIMATORS = ("survival_curve", "subcritical_decay", "torus_stats", "edge_speeds")

KERNELS = {"_batch_step": -1, "_dual_batch_step": 0, "_torus_batch_step": -1}


class Spans:
    """Span times and counts recorded in one process, or for one chunk."""

    def __init__(self):
        self.total = defaultdict(float)     # inclusive seconds per span name
        self.own = defaultdict(float)       # seconds outside wrapped callees
        self.count = defaultdict(int)
        self.peak = defaultdict(int)
        self.chunk_s = []
        self.stack = []                     # callee seconds of each open span
        self.depth = defaultdict(int)
        self.broken = set()                 # wrapped names whose hook failed

    def merge(self, other: "Spans") -> None:
        for name, v in other.total.items():
            self.total[name] += v
        for name, v in other.own.items():
            self.own[name] += v
        for name, v in other.count.items():
            self.count[name] += v
        for name, v in other.peak.items():
            self.peak[name] = max(self.peak[name], v)
        self.chunk_s.extend(other.chunk_s)
        self.broken |= other.broken


# the wrappers are patched into process-wide module attributes, so the record
# they write to is process-wide too; _Chunk swaps it for the span of a chunk
_spans = Spans()


def _timed(name, fn, after=None, outermost=False):
    """Wrap ``fn`` in a span; ``outermost`` skips calls nested in the same span."""

    def wrapper(*args, **kwargs):
        sp = _spans
        if outermost and sp.depth[name]:
            return fn(*args, **kwargs)
        sp.depth[name] += 1
        sp.stack.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            callee = sp.stack.pop()
            if sp.stack:
                sp.stack[-1] += dt
            sp.depth[name] -= 1
            sp.total[name] += dt
            sp.own[name] += dt - callee
            sp.count[name + ".calls"] += 1
        if after is not None:
            try:
                after(sp, args, out)
            except (AttributeError, IndexError, TypeError, ValueError):
                sp.broken.add(name)     # what the hook reads has changed shape
        return out

    wrapper.__wrapped__ = fn
    return wrapper


class _Chunk:
    """Picklable worker wrapper: runs one chunk under its own Spans record."""

    def __init__(self, worker):
        self.worker = worker

    def __call__(self, common, span):
        global _spans
        outer, _spans = _spans, Spans()
        t0 = time.perf_counter()
        try:
            result = self.worker(common, span)
        finally:
            chunk, _spans = _spans, outer
        chunk.chunk_s.append(time.perf_counter() - t0)
        chunk.stack = []
        return result, chunk


def _wrap_run_spans(orig):
    def run_spans(worker, common, spans, threads):
        sp = _spans
        t0 = time.perf_counter()
        parts = orig(_Chunk(worker), common, spans, threads)
        pooled = threads > 1 and len(spans) > 1
        sp.total["run_spans_capacity"] += (time.perf_counter() - t0) * (
            threads if pooled else 1
        )
        results = []
        for result, chunk in parts:
            sp.merge(chunk)
            results.append(result)
        return results

    return _timed("_run_spans", run_spans)


def _wrap_pool(orig):
    class CountingPool(orig):
        def __init__(self, *args, **kwargs):
            _spans.count["pool_starts"] += 1
            super().__init__(*args, **kwargs)

    CountingPool.__name__ = CountingPool.__qualname__ = orig.__name__
    return CountingPool


def _after_hash(sp, args, out):
    sp.count["sites_hashed"] += int(out.size)


def _after_step(top_row):
    def after(sp, args, out):
        rows = out.rows
        sp.count["steps"] += 1
        sp.count["replica_steps"] += int(args[0].rows.shape[0])
        sp.count["occupied_new"] += int(rows[:, top_row].sum())
        sp.peak["window_sites"] = max(sp.peak["window_sites"], int(rows.size))

    return after


def _after_write(sp, args, out):
    path, text = args[0], args[1]
    if os.path.basename(path) in COUNTED_ARTIFACTS:
        sp.count["bytes_written"] += len(text.encode("utf-8"))


def _targets():
    """(module, attribute, wrapper factory) for every traced boundary."""
    out = [("gosp.dynamics", "site_hash", lambda f: _timed("site_hash", f, _after_hash))]
    for name, top in KERNELS.items():
        out.append(("gosp.dynamics", name,
                    lambda f, n=name, r=top: _timed(n, f, _after_step(r))))
    out += [
        ("gosp.dynamics", "_trim", lambda f: _timed("_trim", f)),
        ("gosp.dynamics", "batch_evolve", lambda f: _timed("batch_evolve", f)),
        ("gosp.estimators", "_run_spans", _wrap_run_spans),
        ("gosp.estimators", "ProcessPoolExecutor", _wrap_pool),
    ]
    out += [
        ("gosp.estimators", name, lambda f: _timed("estimator", f, outermost=True))
        for name in ESTIMATORS
    ]
    out += [
        ("gosp.cli", "load_model", lambda f: _timed("load_model", f)),
        ("gosp.cli", "_atomic_write", lambda f: _timed("_atomic_write", f, _after_write)),
    ]
    return out


def install() -> set:
    """Wrap every traced boundary; return the names that could not be found."""
    global _spans
    _spans = Spans()
    missing = set()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "gosp" or n.startswith("gosp."))]
    for modname, attr, wrap in _targets():
        orig = getattr(sys.modules.get(modname), attr, None)
        if orig is None:
            missing.add(attr)
            continue
        new = wrap(orig)
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, new)
    runners = getattr(sys.modules.get("gosp.cli"), "_RUNNERS", None)
    if isinstance(runners, dict):
        for key, fn in list(runners.items()):
            runners[key] = _timed("runner", fn)
    else:
        missing.add("_RUNNERS")
    return missing


# metric name -> (unit, wrapped names it needs)
LAYER_METRICS = {
    "field.hash_s": ("s", {"site_hash"}),
    "field.sites_hashed": ("count", {"site_hash"}),
    "field.ns_per_site": ("ns", {"site_hash"}),
    "dynamics.steps": ("count", set(KERNELS)),
    "dynamics.replica_steps": ("count", set(KERNELS)),
    "dynamics.primal_step_s": ("s", {"_batch_step", "site_hash", "_trim"}),
    "dynamics.dual_step_s": ("s", {"_dual_batch_step", "site_hash", "_trim"}),
    "dynamics.torus_step_s": ("s", {"_torus_batch_step", "site_hash", "_trim"}),
    "dynamics.trim_s": ("s", {"_trim"}),
    "dynamics.us_per_step": ("us", set(KERNELS)),
    "dynamics.driver_s": ("s", {"batch_evolve"} | set(KERNELS)),
    "dynamics.occupied_per_hashed": ("ratio", {"site_hash"} | set(KERNELS)),
    "dynamics.peak_window_sites": ("count", set(KERNELS)),
    "estimators.chunks": ("count", {"_run_spans"}),
    "estimators.pool_starts": ("count", {"ProcessPoolExecutor"}),
    "estimators.chunk_s.p50": ("s", {"_run_spans"}),
    "estimators.chunk_s.tail": ("s", {"_run_spans"}),
    "estimators.busy_s": ("s", {"_run_spans"}),
    "estimators.dispatch_s": ("s", {"_run_spans"}),
    "estimators.aggregate_s": ("s", {"_run_spans"} | set(ESTIMATORS)),
    "cli.estimator_s": ("s", set(ESTIMATORS)),
    "cli.write_s": ("s", {"_RUNNERS", "load_model"}),
    "cli.bytes_written": ("B", {"_atomic_write"}),
}

# counts that must repeat exactly between two traced runs of the same code
EXACT_COUNTS = (
    "field.sites_hashed", "dynamics.steps", "dynamics.replica_steps",
    "estimators.chunks", "estimators.pool_starts", "cli.bytes_written",
)


def layer_metrics(run_s: float, missing: set) -> dict:
    """Per-layer values from the spans recorded since ``install``.

    A layer that did not run on the workload reads 0 (a kernel never
    called spent no time); with fewer than 11 chunks there is no percentile
    with ten chunks beyond it, and the tail is the slowest chunk.  A value
    is None only where a wrapped name was missing.
    """
    sp = _spans
    missing = missing | sp.broken
    steps = sp.count["steps"]
    hashed = sp.count["sites_hashed"]
    chunks = sorted(sp.chunk_s)
    busy = sum(chunks)
    step_total = sum(sp.total[k] for k in KERNELS)

    # the highest percentile with at least ten chunks beyond it: the
    # 100 * (n - 10) / n th of n = estimators.chunks
    tail = chunks[-11] if len(chunks) > 10 else max(chunks, default=None)
    values = {
        "field.hash_s": sp.total["site_hash"],
        "field.sites_hashed": hashed,
        "field.ns_per_site": sp.total["site_hash"] / hashed * 1e9 if hashed else None,
        "dynamics.steps": steps,
        "dynamics.replica_steps": sp.count["replica_steps"],
        "dynamics.primal_step_s": sp.own["_batch_step"],
        "dynamics.dual_step_s": sp.own["_dual_batch_step"],
        "dynamics.torus_step_s": sp.own["_torus_batch_step"],
        "dynamics.trim_s": sp.total["_trim"],
        "dynamics.us_per_step": step_total / steps * 1e6 if steps else None,
        "dynamics.driver_s": sp.own["batch_evolve"],
        "dynamics.occupied_per_hashed": sp.count["occupied_new"] / hashed if hashed else None,
        "dynamics.peak_window_sites": sp.peak["window_sites"],
        "estimators.chunks": len(chunks),
        "estimators.pool_starts": sp.count["pool_starts"],
        "estimators.chunk_s.p50": statistics.median(chunks) if chunks else None,
        "estimators.chunk_s.tail": tail,
        "estimators.busy_s": busy,
        "estimators.dispatch_s": sp.total["run_spans_capacity"] - busy,
        "estimators.aggregate_s": sp.total["estimator"] - sp.total["_run_spans"],
        "cli.estimator_s": sp.total["estimator"],
        "cli.write_s": run_s - sp.total["runner"] - sp.total["load_model"],
        "cli.bytes_written": sp.count["bytes_written"],
    }
    for name, (_, needs) in LAYER_METRICS.items():
        if needs & missing:
            values[name] = None
    return values
