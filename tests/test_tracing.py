"""The benchmark's traced run still finds every boundary it wraps.

``bench/tracing.py`` wraps the step kernels, ``_trim``, ``site_hash`` and
``batch_evolve`` in ``gosp.dynamics``, the estimator entry points and the
runner table in ``gosp.cli``; a name it cannot find, or a counting hook
that no longer reads the shapes it expects, turns the per-layer metrics that
need it into null without failing the benchmark run.

The native torus loop runs no wrapped name, so a traced torus run reads its
step time as 0 on the native path; that known gap is a strict xfail, which
turns into a failure once the tracer sees the loop.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import TWO_D_OP, model_file

from gosp import _openness

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import sys
import gosp.cli
sys.path.insert(0, sys.argv[1])
import tracing
print(sorted(tracing.install()))
"""


# runs tiny plans, given as JSON (plan, threads) pairs, through gosp.cli.run
# under tracing; the wrappers patch process-wide attributes, hence the
# subprocess.  The decay chunk is lowered so that a small decay plan still
# spreads over several chunks in the process pool.  With numpy_torus the
# torus runs its numpy loop, the only one that calls the wrapped
# ``_torus_batch_step``: the native loop runs no wrapped name.
_TRACED = """
import json, os, sys, time
import gosp._openness
import gosp.cli as cli
import gosp.estimators
sys.path.insert(0, sys.argv[1])
import tracing
gosp.estimators._DECAY_CHUNK = 4000
if sys.argv[5] == "1":
    gosp._openness._torus = None
missing = tracing.install()
model, out, plans = sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
t0 = time.perf_counter()
for i, (plan, threads) in enumerate(plans):
    plan = cli.validate_plan(dict(plan, model=model, seed=3))
    cli.run(plan, threads, os.path.join(out, str(i)))
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


def _traced_layers(tmp_path, plans, numpy_torus=False):
    model = model_file(tmp_path, TWO_D_OP)
    out = json.loads(_run(_TRACED, model, str(tmp_path / "out"),
                          json.dumps(plans), str(int(numpy_torus))))
    assert out["broken"] == []
    layers = out["layers"]
    assert [name for name, v in layers.items() if v is None] == []
    # the benchmark's result line must parse as strict JSON
    json.dumps(layers, allow_nan=False)
    return layers


_TORUS_AND_SURVIVAL = [
    ({"estimator": "torus", "p": 0.7, "sizes": [6], "reps": 20,
      "T_max": 300, "regime": "super"}, 1),
    ({"estimator": "survival", "p": 0.7, "T": 20, "reps": 50}, 1),
]


@pytest.fixture(scope="module")
def torus_and_survival_layers(tmp_path_factory):
    # the torus on whichever loop the library gives, as the benchmark runs it
    return _traced_layers(tmp_path_factory.mktemp("traced"), _TORUS_AND_SURVIVAL)


def test_traced_torus_and_survival_plans_have_every_layer(torus_and_survival_layers):
    layers = torus_and_survival_layers
    assert layers["dynamics.steps"] > 0
    assert layers["dynamics.primal_step_s"] > 0


@pytest.mark.xfail(_openness.KIND == "native", strict=True,
                   reason="bench/tracing.py wraps no name inside the native "
                          "torus loop (ROADMAP item 1)")
def test_traced_torus_reads_its_step_time(torus_and_survival_layers):
    assert torus_and_survival_layers["dynamics.torus_step_s"] > 0


def test_traced_numpy_torus_reads_its_step_time(tmp_path):
    layers = _traced_layers(tmp_path, _TORUS_AND_SURVIVAL[:1], numpy_torus=True)
    assert layers["dynamics.torus_step_s"] > 0


def test_traced_dual_and_pooled_decay_plans_have_every_layer(tmp_path):
    # the dual kernel, and a decay run spread over three chunks in the
    # process pool, must be seen by every layer as the benchmark sees them
    layers = _traced_layers(tmp_path, [
        ({"estimator": "survival", "p": 0.7, "T": 20, "reps": 50,
          "dual": True}, 1),
        ({"estimator": "survival", "p": 0.5, "T": 20, "reps": 12000,
          "decay_windows": [[2, 6], [6, 10]]}, 2),
    ])
    assert layers["dynamics.dual_step_s"] > 0
    assert layers["dynamics.primal_step_s"] > 0
    assert layers["estimators.chunks"] >= 3
    assert layers["estimators.pool_starts"] == 1
    # every decay replica takes its first step in a traced kernel
    assert layers["dynamics.replica_steps"] >= 12000


def test_traced_pooled_decay_plan_alone_has_every_layer(tmp_path):
    # the decay plan alone, as decay-sub runs it: no other plan in the
    # process fills the step and hash metrics, so a decay path the tracer
    # cannot see turns them into null
    layers = _traced_layers(tmp_path, [
        ({"estimator": "survival", "p": 0.5, "T": 20, "reps": 12000,
          "decay_windows": [[2, 6], [6, 10]]}, 2),
    ])
    assert layers["dynamics.primal_step_s"] > 0
    assert layers["estimators.chunks"] >= 3
    assert layers["dynamics.replica_steps"] >= 12000


def test_traced_edges_plan_has_every_layer(tmp_path):
    # the edge plan, as edges-wide runs it: each half slab steps T times
    # through the traced primal kernel, which trims once per step
    T = 40
    layers = _traced_layers(tmp_path, [
        ({"estimator": "edges", "p": 0.8, "T": T, "reps": 4}, 1),
    ])
    assert layers["dynamics.steps"] == 2 * T
    assert layers["dynamics.trim_s"] > 0
    assert layers["dynamics.primal_step_s"] > 0
