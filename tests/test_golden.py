"""Golden corpus: every CLI estimator reproduces pinned artifact digests.

Each ``tests/golden/<name>.json`` holds a model, a plan small enough to run
in seconds and the SHA-256 of the ``results.jsonl`` and ``summary.csv`` the
plan produces, natively at one and two threads and on the numpy path.  The
digests pin the bytes across rewrites of the engine, and every case but the
three in ``DEGENERATE`` can also tell a broken event from a working one
(``test_corpus_case_can_fail``); an announced output
change re-pins them with

    PYTHONPATH=src python tests/test_golden.py --pin

and records the change in CHANGES.md.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gosp.cli import run, validate_plan

from conftest import numpy_path

GOLDEN = Path(__file__).parent / "golden"
ARTIFACTS = ("results.jsonl", "summary.csv")
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))

# summary.csv rows by estimator name (before any "[...]"): the frequencies
# of Bernoulli events, and the rest
BERNOULLI = {
    "survival", "survival.dual", "simulate", "simulate.dual", "cone", "crossing",
    "crosspath.crossing", "crosspath.transfer", "bgprobe", "meet.failure",
    "goodblock", "goodblock.event1", "goodblock.event2", "goodblock.event3",
}
OTHER = {"decay", "death", "density", "edges.alpha", "edges.beta", "pc",
         "shape.u_lo", "shape.u_hi", "shape.mu", "torus"}
# the cases whose events are constant, pinned for their bytes only
DEGENERATE = {
    "goodblock": "events (1, 0, 1) in all 4 replicas: at tilt 1/2 event 2 "
                 "needs C of about 16",
    "crosspath": "eps 0: all 6 replicas cross and transfer",
    "simulate-dual": "all 5 replicas live to T",
}


def _load(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _digests(case: dict, threads: int, work: Path) -> dict:
    model_path = work / "model.json"
    model_path.write_text(json.dumps(case["model"]) + "\n")
    plan = validate_plan(dict(case["plan"], model=str(model_path)))
    out = work / f"out{threads}"
    run(plan, parallelism=threads, out_dir=str(out))
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


def test_corpus_covers_every_estimator():
    from gosp.cli import _RUNNERS

    covered = {_load(name)["plan"]["estimator"] for name in CASES}
    assert covered == set(_RUNNERS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", CASES)
def test_golden_digests(name, threads, tmp_path):
    case = _load(name)
    assert _digests(case, threads, tmp_path) == case["sha256"]


@pytest.mark.parametrize("name", CASES)
def test_golden_digests_on_numpy_path(name, tmp_path):
    # the numpy references of the native kernels, the path that runs
    # where the library cannot be built, write the same bytes
    with numpy_path():
        test_golden_digests(name, 1, tmp_path)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=DEGENERATE[name]))
    if name in DEGENERATE else name for name in CASES
])
def test_corpus_case_can_fail(name, tmp_path):
    # a digest pins bytes, but a case whose events are constant cannot tell
    # a broken event from a working one: every Bernoulli row lies strictly
    # between 0 and 1, and every boolean record column takes both values
    _digests(_load(name), 1, tmp_path)
    with open(tmp_path / "out1" / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        kind = row["estimator"].split("[")[0]
        assert kind in BERNOULLI | OTHER, f"unclassified row {kind}"
        if kind in BERNOULLI:
            assert 0 < float(row["mean"]) < 1, row
    records = [json.loads(line) for line in
               (tmp_path / "out1" / "results.jsonl").read_text().splitlines()]
    flags = {k for r in records for k, v in r.items() if isinstance(v, bool)}
    for key in flags:
        assert {r[key] for r in records if key in r} == {False, True}, key


def _pin() -> None:
    for name in CASES:
        case = _load(name)
        with tempfile.TemporaryDirectory() as work:
            case["sha256"] = _digests(case, 1, Path(work))
        body = ",\n".join(
            f'  "{key}": {json.dumps(case[key])}'
            for key in ("model", "plan", "sha256")
        )
        (GOLDEN / f"{name}.json").write_text("{\n" + body + "\n}\n")
        print(name, case["sha256"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python tests/test_golden.py --pin")
    _pin()
