"""One benchmark iteration in a fresh interpreter.

Usage (from ``run.py``): ``python3 bench/child.py '<job json>'``.  The job
names the checkout's ``src`` directory, the thread count, the traced flag and
the plans with their output directories.

The process sets up as ``gosp <estimator>`` does (import ``gosp.cli``, load
the model, validate the plan) and prints ``ready``; the parent times set-up
from its spawn to that line.  It then runs every plan through
``gosp.cli.run`` and prints one JSON line with its own timings.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import gosp.cli as cli
    t1 = time.perf_counter()
    for path in sorted({call["plan"]["model"] for call in job["calls"]}):
        cli.load_model(path)
    t2 = time.perf_counter()
    for call in job["calls"]:
        cli.validate_plan(call["plan"])
    t3 = time.perf_counter()
    print("ready", flush=True)

    import numpy
    import scipy
    out = {
        "setup": {"import_s": t1 - t0, "load_s": t2 - t1, "validate_s": t3 - t2},
        "gosp_file": cli.__file__,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "error": None,
    }
    missing = set()
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        missing = tracing.install()

    run_s = 0.0
    try:
        for call in job["calls"]:
            t = time.perf_counter()
            cli.run(call["plan"], job["threads"], call["out"])
            run_s += time.perf_counter() - t
    except cli.est.EstimatorRefused as e:
        out["error"] = f"refused ({type(e).__name__}): {e}"
    except Exception as e:  # reported to the parent, which counts the run as failed
        traceback.print_exc()
        out["error"] = f"{type(e).__name__}: {e}"
    out["run_s"] = run_s
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = kib / 1024
    if job["trace"]:
        out["layers"] = tracing.layer_metrics(run_s, missing)
        out["missing"] = sorted(missing | tracing._spans.broken)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
