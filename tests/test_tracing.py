"""The benchmark's traced run still finds every boundary it wraps.

``bench/tracing.py`` wraps the step kernels, ``_trim``, ``site_hash`` and
``batch_evolve`` in ``gosp.dynamics``, the estimator entry points and the
runner table in ``gosp.cli``; a name it cannot find turns the per-layer
metrics that need it into null without failing the benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import sys
import gosp.cli
sys.path.insert(0, sys.argv[1])
import tracing
print(sorted(tracing.install()))
"""


def test_tracing_install_finds_every_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "bench")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
