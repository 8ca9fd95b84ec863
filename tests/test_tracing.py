"""The benchmark's traced run still finds every boundary it wraps.

``bench/tracing.py`` wraps the step kernels, ``_trim``, ``site_hash`` and
``batch_evolve`` in ``gosp.dynamics``, the estimator entry points and the
runner table in ``gosp.cli``; a name it cannot find, or a counting hook
that no longer reads the shapes it expects, turns the per-layer metrics that
need it into null without failing the benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import TWO_D_OP, model_file

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import sys
import gosp.cli
sys.path.insert(0, sys.argv[1])
import tracing
print(sorted(tracing.install()))
"""


# runs a tiny torus plan and a tiny survival plan through gosp.cli.run
# under tracing; the wrappers patch process-wide attributes, hence the
# subprocess
_TRACED = """
import json, os, sys, time
import gosp.cli as cli
sys.path.insert(0, sys.argv[1])
import tracing
missing = tracing.install()
model, out = sys.argv[2], sys.argv[3]
plans = [
    {"estimator": "torus", "model": model, "seed": 3, "p": 0.7, "sizes": [6],
     "reps": 20, "T_max": 300, "regime": "super"},
    {"estimator": "survival", "model": model, "seed": 3, "p": 0.7, "T": 20,
     "reps": 50},
]
t0 = time.perf_counter()
for i, plan in enumerate(plans):
    cli.run(cli.validate_plan(plan), 1, os.path.join(out, str(i)))
print(json.dumps({
    "broken": sorted(tracing._spans.broken),
    "layers": tracing.layer_metrics(time.perf_counter() - t0, missing),
}))
"""


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "bench"), *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return out.stdout.strip()


def test_tracing_install_finds_every_name():
    assert _run(_PROBE) == "[]"


def test_traced_torus_and_survival_plans_have_every_layer(tmp_path):
    model = model_file(tmp_path, TWO_D_OP)
    out = json.loads(_run(_TRACED, model, str(tmp_path / "out")))
    assert out["broken"] == []
    layers = out["layers"]
    assert [name for name, v in layers.items() if v is None] == []
    assert layers["dynamics.steps"] > 0
    assert layers["dynamics.torus_step_s"] > 0
    assert layers["dynamics.primal_step_s"] > 0
