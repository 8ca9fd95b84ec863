"""The native openness kernel against the numpy reference, and its build."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gosp
from gosp import _openness
from gosp.dynamics import batch_evolve, torus_extinction_batch
from gosp.field import site_hash, spawn_seeds, threshold_for

from conftest import (
    ASYM3, MODEL_POOL, RANGE2, THREE_D, TWO_D_OP, model_file, numpy_path,
)

SRC = str(Path(gosp.__file__).resolve().parents[1])
PS = [0.0, 0.3, 0.5, 0.7, 1.0]

native = pytest.mark.skipif(_openness.KIND != "native",
                            reason="the native kernel did not build here")


# ---------------------------------------------------------------------------
# equivalence

@st.composite
def _prefix_views(draw):
    """A view of a (B, *box) prefix table: a sub-box with a step per axis,
    the box at negative coordinates or not."""
    d_s = draw(st.sampled_from([1, 2]))
    B = draw(st.integers(1, 5))
    seeds = np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=B, max_size=B)),
                     dtype=np.uint64)
    box = tuple(draw(st.lists(st.integers(0, 9), min_size=d_s, max_size=d_s)))
    lo = draw(st.lists(st.integers(-50, 10), min_size=d_s, max_size=d_s))
    coords = [g + l for g, l in zip(np.indices(box, dtype=np.int64), lo)]
    table = site_hash(seeds.reshape((-1,) + (1,) * d_s), coords)
    view = []
    for n in table.shape:
        a = draw(st.integers(0, n))
        b = draw(st.integers(a, n))
        view.append(slice(a, b, draw(st.integers(1, 3))))
    return table[tuple(view)]


_times = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-300, 300))


@native
@settings(max_examples=300, deadline=None)
@given(_prefix_views(), _times, st.sampled_from(PS))
def test_native_mask_matches_numpy(prefix, t, p):
    # negative coordinates and times wrap as u64; views are strided sub-boxes,
    # possibly empty
    got = _openness.open_mask(prefix, t, threshold_for(p))
    ref = _openness._numpy_mask(prefix, t, threshold_for(p))
    assert got.dtype == ref.dtype == bool
    assert got.shape == ref.shape == prefix.shape
    assert np.array_equal(got, ref)


@native
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MODEL_POOL), st.sampled_from(PS),
    st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 15),
    st.booleans(),
)
def test_native_runs_match_numpy_runs(model, p, master, B, T, dual):
    # the dual queries negative times; the torus runs whole replicas in C
    # against the numpy loop's one query per step
    seeds = spawn_seeds(master, 0, B)

    def runs():
        res = batch_evolve(model, seeds, p, T, dual=dual, snapshot_times=[T])
        n = int(3 * model.gamma * model.R) + 3
        torus = torus_extinction_batch(model, p, seeds, n, 3 * T)
        snap = res.snapshots[T]
        return (res.extinction, res.alive_at_T, snap.anchor, snap.rows,
                torus.extinction)

    got = runs()
    with numpy_path():
        ref = runs()
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def _torus_extinction(model, p, master, B, extra, T_max):
    """Extinction steps of B torus replicas on the side 2*gamma*R + 1 +
    extra, the smallest allowed side plus ``extra``."""
    n = int(2 * model.gamma * model.R) + 1 + extra
    seeds = spawn_seeds(master, 0, B)
    return torus_extinction_batch(model, p, seeds, n, T_max).extinction


@native
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(MODEL_POOL), st.sampled_from(PS),
    st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 4),
    st.one_of(st.just(1), st.integers(0, 400)),
)
# a batch with no replica; one step; replicas alive at T_max on every model,
# RANGE2 among them, with others dead before it
@example(TWO_D_OP, 0.5, 1, 0, 0, 50)
@example(THREE_D, 0.3, 2, 5, 0, 1)
@example(RANGE2, 0.7, 3, 12, 2, 300)
@example(ASYM3, 0.7, 4, 12, 0, 300)
@example(THREE_D, 0.5, 5, 12, 1, 300)
def test_native_torus_matches_numpy_torus(model, p, master, B, extra, T_max):
    got = _torus_extinction(model, p, master, B, extra, T_max)
    with numpy_path():
        ref = _torus_extinction(model, p, master, B, extra, T_max)
    assert got.dtype == ref.dtype == np.int64
    assert np.array_equal(got, ref)


@native
def test_torus_kernel_refuses_gather_outside_the_rows():
    # indices past either end of the R*N rows, a row of the wrong length and
    # no offset at all never reach the C loop
    prefix = np.zeros((2, 4), dtype=np.uint64)
    for gather in ([[0, 1, 2, 4]], [[-1, 0, 1, 2]], [[0, 1, 2]], np.zeros((0, 4))):
        with pytest.raises(ValueError, match="gather must be"):
            _openness.torus_extinction(prefix, np.array(gather), 1, 10, 0)


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
from gosp.dynamics import torus_extinction_batch
from gosp.field import threshold_for
from gosp.model import NeighborhoodSpec, validate
assert _openness.KIND == "native" and _openness._torus is not None
prefix = np.arange(1, 4001, dtype=np.uint64).reshape(40, 100)[::2, 3:97]
thr = threshold_for(0.4)
for t in range(-5, 5):
    assert np.array_equal(_openness.open_mask(prefix, t, thr),
                          _openness._numpy_mask(prefix, t, thr))
model = validate(NeighborhoodSpec(d=2, offsets=((0, 1), (1, 2))))
seeds = np.arange(30, dtype=np.uint64)
native = torus_extinction_batch(model, 0.65, seeds, 6, 200).extinction
_openness._torus = None
assert np.array_equal(native, torus_extinction_batch(model, 0.65, seeds, 6, 200).extinction)
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
