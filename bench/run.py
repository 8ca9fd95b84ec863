"""gosp benchmark: fixed CLI workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload in turn
    python3 bench/run.py --pin [--workload NAME]   # print digests to pin

Each run of a workload is a fresh interpreter (``bench/child.py``) that sets
up as the ``gosp`` command does and then drives the workload's plans through
``gosp.cli.run``, the same path as ``gosp <estimator> --out``.  Runs repeat
until ``--seconds`` have passed (at least three).  Every run's
``results.jsonl`` and ``summary.csv`` are checked: against the digests
pinned in ``bench/workloads.json`` on the default seed, otherwise against
the first run's.

With ``--trace 0`` the result reports the end-to-end metrics, medians over
the runs, with each run's times scaled to the reference machine's speed by
calibration samples taken next to it (see ``calibrate`` and
``machine_time``; the raw times are printed on the lines before).  With
``--trace 1`` runs alternate traced and untraced, and the result reports the
per-layer metrics of ``bench/tracing.py``, the set-up split, and the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it give the same metrics for people, and the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing as mp
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_runs")
ARTIFACTS = ("results.jsonl", "summary.csv")
MIN_RUNS = 3
DEADLINE_S = 170.0           # a whole invocation ends well within 180 s
# calibrate()'s median on the machine the benchmark was defined on (2-core
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6): timings are reported in
# seconds at that machine's speed
CAL_REF_S = 0.52

END_TO_END = {
    "run_s": "s", "reps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
}
SETUP_LAYERS = {
    "setup.import_s": "import_s", "model.load_s": "load_s", "cli.validate_s": "validate_s",
}

sys.path.insert(0, BENCH)
import tracing  # noqa: E402  (stdlib only at import; gosp is imported by child.py)


def load_spec() -> dict:
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_models(spec: dict, work: str) -> dict:
    paths = {}
    for name, model in spec["models"].items():
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(model, fh)
    return paths


def calibrate(_=None) -> float:
    """Seconds taken by fixed work: an interpreted loop plus uint64 ufuncs.

    The mix matches gosp's hot path (Python per-step overhead and splitmix64
    on mid-size arrays) but runs none of gosp's code, so only the machine's
    speed moves it.  On a shared 2-vCPU VM that speed drifted by up to a
    factor of 1.8 over minutes, in common across set-up and workload, so each
    run's times are scaled by CAL_REF_S over the mean of the samples taken
    just before and just after it (see ``machine_time``).  A sample lasts
    about half a second: samples of 0.13 s caught sub-second bursts and
    added more spread than they removed.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_400_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    x = np.arange(4096, dtype=np.uint64)
    mul, shift = np.uint64(0xBF58476D1CE4E5B9), np.uint64(30)
    for _ in range(12_000):
        h = x * mul
        h ^= h >> shift
        (h * mul < mul).any()
    return time.perf_counter() - t0


def machine_time(pool, threads: int) -> float:
    """calibrate() on ``threads`` processes at once; the mean of their times.

    A workload on two processes loads both vCPUs, and a single-process sample
    did not follow its speed (the quartile spread of decay-sub's run_s over
    six five-run groups was 0.08 raw, 0.11 scaled by one process's samples
    and 0.03 scaled by two processes' samples).
    """
    if pool is None:
        return calibrate()
    return statistics.mean(pool.map(calibrate, range(threads), chunksize=1))


def _kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:                 # the group has already ended
        pass


def _await_group(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of group ``pgid`` is left, at most ``limit_s``."""
    end = time.perf_counter() + limit_s
    while time.perf_counter() < end:
        try:
            os.killpg(pgid, 0)
        except OSError:             # no process of the group is left
            return
        time.sleep(0.01)


def run_once(workload: dict, models: dict, seed: int, threads: int,
             traced: bool, out: str, timeout: float) -> dict:
    """One fresh-interpreter run; returns the child's record plus setup_s."""
    calls = []
    for j, call in enumerate(workload["calls"]):
        plan = {k: v for k, v in call.items() if k != "model"}
        plan.update(model=models[call["model"]], seed=seed)
        calls.append({"plan": plan, "out": os.path.join(out, f"call{j}")})
    job = {"src": SRC, "threads": threads, "trace": traced, "calls": calls}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    timer = threading.Timer(timeout, _kill, [proc])
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        timer.join()
        _kill(proc)                 # also whatever the child left running
        proc.wait()
        _await_group(proc.pid)
        proc.stdout.close()
    failure = {"error": f"child exited with code {proc.returncode}", "setup_s": setup_s,
               "traced": traced}
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        return failure
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return failure
    record.update(setup_s=setup_s, traced=traced)
    if record["error"] is None:
        if not os.path.abspath(record["gosp_file"]).startswith(SRC + os.sep):
            record["error"] = f"gosp imported from {record['gosp_file']}, not {SRC}"
        else:
            record["digests"] = [
                {a: _sha256(os.path.join(c["out"], a)) for a in ARTIFACTS} for c in calls
            ]
    return record


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def measure(spec: dict, name: str, seed: int, seconds: float, trace: bool,
            pinning: bool = False) -> list:
    """Repeat runs of one workload; return their records, errors marked.

    Each record carries ``scale``: CAL_REF_S over the mean of the machine
    time samples taken just before and just after the run.  ``pinning`` runs
    at threads=1 and checks only that the runs agree.
    """
    deadline = time.perf_counter() + DEADLINE_S
    workload = spec["workloads"][name]
    threads = 1 if pinning else workload["threads"]
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    pinned = not pinning and seed == spec["default_seed"]
    reference = workload["digests"] if pinned else None
    runs = []
    # fork, not spawn: a spawn pool starts multiprocessing's resource tracker,
    # a process that outlives this one; pool.join() below waits for every worker
    pool = mp.get_context("fork").Pool(threads) if threads > 1 else None
    try:
        models = write_models(spec, work)
        cal = machine_time(pool, threads)
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            # start another run only if, at the mean pace so far, it ends in time
            if len(runs) >= MIN_RUNS and (now - start) * (len(runs) + 1) / len(runs) > seconds:
                break
            left = deadline - now
            if runs and left < 2 * (now - start) / len(runs):
                break
            out = os.path.join(work, f"run{len(runs)}")
            # traced runs alternate with untraced ones, starting traced
            r = run_once(workload, models, seed, threads,
                         trace and len(runs) % 2 == 0, out, max(left, 1.0))
            shutil.rmtree(out, ignore_errors=True)
            if r["error"] is None:
                if reference is None:
                    reference = r["digests"]
                elif r["digests"] != reference:
                    r["error"] = "results.jsonl or summary.csv differs from the reference digest"
            before, cal = cal, machine_time(pool, threads)
            r["scale"] = CAL_REF_S / ((before + cal) / 2)
            runs.append(r)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        shutil.rmtree(work, ignore_errors=True)
    return runs


def _median(values, pick=statistics.median):
    values = [v for v in values if v is not None]
    return pick(values) if values else None


def end_to_end(workload: dict, runs: list) -> dict:
    """Medians over the untraced runs of times scaled by each run's ``scale``."""
    timed = [r for r in runs if not r["traced"] and r["error"] is None]
    timed = timed or [r for r in runs if not r["traced"] and "run_s" in r]
    run_s = _median([r["run_s"] * r["scale"] for r in timed])
    reps = sum(call["reps"] for call in workload["calls"])
    return {
        "run_s": run_s,
        "reps_per_s": reps / run_s if run_s else None,
        "setup_s": _median([r["setup_s"] * r["scale"] for r in runs]),
        "peak_rss_mb": _median([r.get("peak_rss_mb") for r in timed]),
    }


def per_layer(runs: list, problems: list, notes: list) -> dict:
    traced = [r for r in runs if r["traced"] and r["error"] is None]
    values = {
        metric: _median([r["setup"][key] for r in runs if "setup" in r])
        for metric, key in SETUP_LAYERS.items()
    }
    for metric, (unit, _) in tracing.LAYER_METRICS.items():
        # counts stay whole numbers: the lower median of equal counts is the count
        pick = statistics.median_low if unit in ("count", "B") else statistics.median
        values[metric] = _median([r["layers"][metric] for r in traced], pick)
    for metric in tracing.EXACT_COUNTS:
        seen = {r["layers"][metric] for r in traced}
        if len(seen) > 1:
            problems.append(f"{metric} differs between traced runs: {sorted(seen)}")
    for r in traced:
        if r.get("missing"):
            notes.append(f"wrapped names missing, their metrics are null: {r['missing']}")
            break
    values["trace.run_s"] = _median([r["run_s"] for r in traced])
    # traced and untraced runs alternate, so each side is scaled to the same
    # machine speed before the two are compared
    scaled = [_median([r["run_s"] * r["scale"] for r in runs
                       if r["traced"] is side and r["error"] is None]) for side in (True, False)]
    values["trace.overhead_ratio"] = scaled[0] / scaled[1] if None not in scaled else None
    return values


LAYER_UNITS = {
    **{m: "s" for m in SETUP_LAYERS},
    **{m: unit for m, (unit, _) in tracing.LAYER_METRICS.items()},
    "trace.run_s": "s", "trace.overhead_ratio": "ratio",
}


def machine(runs: list) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        top, head = (git.stdout.split() + [None, None])[:2]
        if git.returncode == 0 and top and os.path.samefile(top, ROOT):
            sha = head
    except (OSError, subprocess.SubprocessError):
        pass
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": versions.get("numpy"), "scipy": versions.get("scipy"), "git_sha": sha,
    }


def report(name: str, seed: int, threads: int, runs: list, metrics: dict, units: dict,
           problems: list, notes: list) -> None:
    failed = sum(r["error"] is not None for r in runs)
    print(f"{name}: seed {seed}, threads {threads}, {len(runs)} runs, {failed} failed")
    for r in runs:
        if r["error"] is not None:
            print(f"  failed run: {r['error']}")
    print("  raw run_s/setup_s per run, traced marked *, with the factor that scales "
          "them to the reference machine speed:")
    print("   " + " ".join(
        f"{r.get('run_s', 0):.3f}{'*' if r['traced'] else ''}/{r['setup_s']:.3f}s"
        f"x{r['scale']:.3f}" for r in runs))
    for problem in problems:
        print(f"  check failed: {problem}")
    for note in notes:
        print(f"  note: {note}")
    for metric, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:32s} {shown:>14s} {units[metric]}")
    print(f"  {'failed_frac':32s} {failed / len(runs):14.6g} ratio")


def bench(spec: dict, name: str, seed: int, seconds: float, trace: bool):
    runs = measure(spec, name, seed, seconds, trace)
    problems, notes = [], []
    if trace:
        metrics, units = per_layer(runs, problems, notes), LAYER_UNITS
    else:
        metrics, units = end_to_end(spec["workloads"][name], runs), END_TO_END
    report(name, seed, spec["workloads"][name]["threads"], runs, metrics, units,
           problems, notes)
    failed = sum(r["error"] is not None for r in runs)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, runs


def pin(spec: dict, names: list) -> dict:
    """Digests of the named workloads at threads=1 on the default seed."""
    out = {}
    for name in names:
        runs = measure(spec, name, spec["default_seed"], 0.0, False, pinning=True)
        if any(r["error"] is not None for r in runs):
            raise SystemExit(f"{name}: {[r['error'] for r in runs]}")
        out[name] = runs[0]["digests"]
    return out


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="print the digests to pin in workloads.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gosp", "cli.py")):
        print(f"error: no gosp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.pin:
        parser.error("--workload is required")
    names = [args.workload] if args.workload not in (None, "all") else list(spec["workloads"])
    if args.pin:
        print(json.dumps(pin(spec, names), indent=2))
        return 0
    results, all_runs = {}, []
    for name in names:
        results[name], runs = bench(spec, name, args.seed, args.seconds, bool(args.trace))
        all_runs += runs
    print("machine " + json.dumps(machine(all_runs), sort_keys=True))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
