"""Golden corpus: every CLI estimator reproduces pinned artifact digests.

Each ``tests/golden/<name>.json`` holds a model, a plan small enough to run
in seconds and the SHA-256 of the ``results.jsonl`` and ``summary.csv`` the
plan produces, natively at one and two threads and on the numpy path.  The
digests pin the bytes across rewrites of the engine; an announced output
change re-pins them with

    PYTHONPATH=src python tests/test_golden.py --pin

and records the change in CHANGES.md.
"""

from __future__ import annotations

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
