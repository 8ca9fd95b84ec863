"""Config validation, artifact layout and CLI exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gosp.cli as cli
from conftest import TWO_D_OP, model_file
from gosp import estimators as est
from gosp.cli import (
    _PARAMS, SchemaError, _build_parser, _plan_from_args, main, parse_config,
    run, validate_plan,
)
from gosp.field import MIXER_ID

GOLDEN = Path(__file__).parent / "golden"


def _survival_plan(model_path, **over):
    plan = {
        "estimator": "survival", "model": model_path, "seed": 7,
        "p": 1.0, "T": 5, "reps": 20,
    }
    plan.update(over)
    return plan


@pytest.fixture
def model_path(tmp_path):
    return model_file(tmp_path, TWO_D_OP)


# ---------------------------------------------------------------------------
# schema validation

def test_validate_plan_accepts_minimal(model_path):
    plan = _survival_plan(model_path)
    assert validate_plan(plan) is plan


def test_unknown_key_pointer(model_path):
    with pytest.raises(SchemaError) as exc:
        validate_plan(_survival_plan(model_path, foo=1))
    assert exc.value.pointer == "/foo"


def test_bad_value_pointer(model_path):
    with pytest.raises(SchemaError) as exc:
        validate_plan(_survival_plan(model_path, p="high"))
    assert exc.value.pointer == "/p"
    with pytest.raises(SchemaError) as exc:
        validate_plan(_survival_plan(model_path, p=1.5))
    assert exc.value.pointer == "/p"


def test_missing_required_key(model_path):
    plan = _survival_plan(model_path)
    del plan["reps"]
    with pytest.raises(SchemaError) as exc:
        validate_plan(plan)
    assert "reps" in str(exc.value)


def test_unknown_estimator():
    with pytest.raises(SchemaError) as exc:
        validate_plan({"estimator": "magic", "model": "m", "seed": 1})
    assert exc.value.pointer == "/estimator"


def test_parse_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        parse_config(str(path))


def test_parse_config_roundtrip(tmp_path, model_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(_survival_plan(model_path)))
    assert parse_config(str(path))["estimator"] == "survival"


def _flag_text(value, schema):
    if schema.get("type") == "array":
        sep = ":" if schema.get("maxItems") == 2 else ","
        return sep.join(_flag_text(v, schema["items"]) for v in value)
    return str(value)


def _as_parsed(value, schema):
    """The value a flag gives back: fractions stay 'p/q' text."""
    if schema.get("type") == "array":
        return [_as_parsed(v, schema["items"]) for v in value]
    return str(value) if schema.get("type") == ["string", "number"] else value


@pytest.mark.parametrize("case", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_golden_plan_round_trips_through_flags(case):
    plan = dict(json.loads((GOLDEN / f"{case}.json").read_text())["plan"],
                model="model.json")
    spec = _PARAMS[plan["estimator"]]
    schemas = {**spec["required"], **spec["optional"]}
    argv = [plan["estimator"], "--model", plan["model"], "--seed", str(plan["seed"])]
    expected = dict(plan)
    for key, schema in schemas.items():
        if key not in plan:
            continue
        flag = "--" + key.replace("_", "-")
        if plan[key] is True:
            argv.append(flag)
        else:
            argv.append(f"{flag}={_flag_text(plan[key], schema)}")
            expected[key] = _as_parsed(plan[key], schema)
    parsed = _plan_from_args(_build_parser().parse_args(argv))
    assert json.dumps(parsed, sort_keys=True) == json.dumps(expected, sort_keys=True)


# ---------------------------------------------------------------------------
# artifacts

def test_run_artifacts(tmp_path, model_path):
    out = tmp_path / "out"
    res = run(_survival_plan(model_path), out_dir=str(out))
    assert res["rows"][0]["mean"] == 1.0

    csv_text = (out / "summary.csv").read_bytes().decode()
    assert csv_text.splitlines()[0] == (
        "estimator,p,T,reps,mean,stderr,ci_lo,ci_hi,seed"
    )
    assert "\r" not in csv_text

    lines = (out / "results.jsonl").read_text().splitlines()
    assert len(lines) == 20
    recs = [json.loads(line) for line in lines]
    assert [r["replica"] for r in recs] == list(range(20))
    assert all(r["tau"] is None for r in recs)       # p = 1: nobody dies
    for line in lines:
        assert line == line.rstrip()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mixer"] == MIXER_ID
    assert manifest["master_seed"] == 7
    assert manifest["timing"]["wall_s"] >= 0
    assert manifest["status"] == "ok" and manifest["reason"] is None
    with open(model_path, "rb") as fh:
        assert manifest["model_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert not list(out.glob("*.partial"))


def test_run_is_reproducible_across_threads(tmp_path, model_path):
    plan = _survival_plan(model_path, p=0.6, T=30, reps=3000)
    outs = []
    for name, threads in (("a", 1), ("b", 2), ("c", 1)):
        d = tmp_path / name
        run(dict(plan), parallelism=threads, out_dir=str(d))
        outs.append(
            ((d / "results.jsonl").read_bytes(), (d / "summary.csv").read_bytes())
        )
    assert outs[0] == outs[1] == outs[2]


def test_refused_run_leaves_manifest_only(tmp_path, model_path, capsys):
    # the manifest says that the run was refused, and why
    out = tmp_path / "out"
    code = main([
        "shape", "--model", model_path, "--seed", "1", "--p", "0.3",
        "--T", "20", "--reps", "5", "--out", str(out),
    ])
    assert code == 2
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["timing"] is None       # crash-safe: written before results
    assert manifest["status"] == "refused"
    reason = manifest["reason"]
    assert reason["class"] == "SubcriticalRefused"
    assert "below the floor" in reason["message"]
    assert f"refused (SubcriticalRefused): {reason['message']}" in capsys.readouterr().err
    assert not (out / "results.jsonl").exists()
    assert not (out / "summary.csv").exists()


def test_crashed_run_leaves_manifest_that_says_why(tmp_path, model_path, monkeypatch):
    # a runner that raises leaves the manifest it found at "running", with
    # status "error" and the exception's class and message, and the
    # exception goes on to the caller
    out = tmp_path / "out"
    seen = []

    def crash(model, plan, threads):
        seen.append(json.loads((out / "manifest.json").read_text())["status"])
        raise RuntimeError("the runner broke")

    monkeypatch.setitem(cli._RUNNERS, "survival", crash)
    with pytest.raises(RuntimeError, match="the runner broke"):
        run(_survival_plan(model_path, p=0.6, T=5, reps=3), out_dir=str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert seen == ["running"]
    assert manifest["status"] == "error" and manifest["timing"] is None
    assert manifest["reason"] == {"class": "RuntimeError", "message": "the runner broke"}
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_simulate_snapshot_records(tmp_path, model_path):
    out = tmp_path / "out"
    plan = {
        "estimator": "simulate", "model": model_path, "seed": 3,
        "p": 1.0, "T": 4, "reps": 2, "snapshots": [0, 4],
    }
    run(plan, out_dir=str(out))
    recs = [
        json.loads(line)
        for line in (out / "results.jsonl").read_text().splitlines()
    ]
    for r in recs:
        times = [s["t"] for s in r["snapshots"]]
        assert times == [0, 4]
        assert set(recs[0]["snapshots"][0]) == {"t", "anchor", "shape", "rows"}


@pytest.mark.parametrize("snapshots, schema_refuses", [("9", False), ("-2", True)])
def test_simulate_snapshot_outside_horizon_exits_1(tmp_path, model_path, capsys,
                                                   snapshots, schema_refuses):
    # a negative time fails the schema before the manifest is written; a
    # time above T is refused by the engine before any step runs
    out = tmp_path / "out"
    assert main(["simulate", "--model", model_path, "--seed", "1", "--p", "0.8",
                 "--T", "5", "--reps", "3", "--snapshots", snapshots,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if schema_refuses:
        assert "config error at /snapshots/0" in err
        assert not out.exists()
    else:
        assert "must lie in [0, T=5]" in err
        assert not (out / "results.jsonl").exists()


@pytest.mark.parametrize("form", ["flag", "config"])
def test_density_a_values_exits_1_before_manifest(tmp_path, model_path, form):
    # no output depends on an a-value, so neither the flag nor the key exists
    out = tmp_path / "out"
    if form == "flag":
        argv = ["density", "--model", model_path, "--seed", "1", "--p", "0.8",
                "--n", "4", "--T-inf", "20", "--reps", "5", "--a-values", "0.5"]
    else:
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({
            "estimator": "density", "model": model_path, "seed": 1, "p": 0.8,
            "n": 4, "T_inf": 20, "reps": 5, "a_values": [0.5]}))
        argv = ["density", "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# results.jsonl written by column

def _record_lines(columns) -> str:
    """The per-record writer: one dict per replica, sorted by replica
    (stably), one ``_RECORD_ENCODER`` line each."""
    records = [{k: v[i] for k, v in columns.items()}
               for i in range(len(columns["replica"]))]
    records.sort(key=lambda r: r["replica"])
    return "".join(cli._RECORD_ENCODER.encode(r) + "\n" for r in records)


_VALUES = st.one_of(
    st.integers(-2**70, 2**70), st.none(), st.booleans(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]),
    st.text(st.sampled_from(',"\\ :%a\u00e9\u20ac\U0001f600\n')),
    st.lists(st.integers(-9, 9), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3), st.data())
def test_column_writer_matches_record_lines(sizes, data):
    # the replica column runs 0..c-1 once per size c, as torus records do
    # before run() sorts them; one size is every other estimator's column
    replica = [i for c in sizes for i in range(c)]
    columns = {"replica": replica}
    for key in data.draw(st.sets(st.sampled_from(["tau", "index", "u,lo", "p%"]),
                                 max_size=3)):
        columns[key] = data.draw(st.lists(_VALUES, min_size=len(replica),
                                          max_size=len(replica)))
    assert cli._jsonl(columns) == _record_lines(columns)


def test_replica_columns_must_have_equal_lengths():
    cols = cli._replicas(tau=[3, None], hit=np.array([True, False]))
    assert {k: list(v) for k, v in cols.items()} == {
        "replica": [0, 1], "tau": [3, None], "hit": [True, False]}
    # a short column is an error, not a run cut to its length
    with pytest.raises(ValueError, match="unequal lengths"):
        cli._replicas(tau=[3, None], hit=np.array([True]))


def test_torus_columns_match_record_lines(model_path):
    # two sizes, whose rows run() interleaves by replica
    plan = validate_plan({"estimator": "torus", "model": model_path, "seed": 8,
                          "p": 0.5, "sizes": [6, 8], "reps": 30, "T_max": 100})
    _, columns = cli._RUNNERS["torus"](cli.load_model(model_path), plan, 1)
    assert columns["replica"][:31] == list(range(30)) + [0]
    assert cli._jsonl(columns) == _record_lines(columns)


@pytest.mark.xfail(strict=True, reason="TorusSizeStats.taus keeps only the "
                   "uncensored steps, so a censored replica has no record and "
                   "the later ones take its index; the fix re-pins torus-tail's "
                   "digests (ROADMAP item 15)")
def test_torus_writes_one_record_per_replica(tmp_path, model_path):
    # 2 of these 64 replicas live to T_max: each keeps its own record, with
    # tau null, and every other record keeps its replica's extinction step
    plan = validate_plan({"estimator": "torus", "model": model_path, "seed": 7,
                          "p": 0.75, "sizes": [12], "reps": 64, "T_max": 8000})
    run(plan, parallelism=1, out_dir=str(tmp_path / "out"))
    lines = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    stats = est.torus_stats(TWO_D_OP, 0.75, [12], 64, 8000, seed=7).per_size[0]
    assert stats.censored == 2
    assert [r["replica"] for r in records] == list(range(64))
    assert sum(r["tau"] is None for r in records) == stats.censored
    assert [r["tau"] for r in records if r["tau"] is not None] == stats.taus.tolist()


# ---------------------------------------------------------------------------
# exit codes

def test_main_validate_ok(capsys, model_path):
    assert main(["validate", "--model", model_path]) == 0
    assert "R=1" in capsys.readouterr().out


def test_main_validate_proper_sublattice(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "X": [[-1, 1], [1, 1]]}))
    assert main(["validate", "--model", str(path)]) == 1
    assert "ProperSublattice" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"d": 2, "X": [[0, 1.5], [1, 1]]}',
    '{"d": 2, "X": 5}',
    '{"d": 2, "X": [[0, null], [1, 1]]}',
    '{"d": 1e400, "X": [[0, 1], [1, 1]]}',
])
def test_main_validate_refuses_non_integer_model(tmp_path, capsys, text):
    # refused with exit 1, not truncated (1.5 would validate as 1) and not a
    # TypeError or OverflowError traceback
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["validate", "--model", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error (ModelError): ")


def test_main_schema_error_exit_code(tmp_path, model_path, capsys):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(_survival_plan(model_path, foo=1)))
    assert main(["survival", "--config", str(cfg)]) == 1
    assert "/foo" in capsys.readouterr().err


def test_main_missing_model_flag(capsys):
    assert main(["survival", "--seed", "1", "--p", "0.5", "--T", "5",
                 "--reps", "10"]) == 1
    assert "/model" in capsys.readouterr().err


def test_main_success_prints_rows(tmp_path, model_path, capsys):
    out = tmp_path / "out"
    code = main([
        "survival", "--model", model_path, "--seed", "2", "--p", "1.0",
        "--T", "5", "--reps", "10", "--out", str(out),
    ])
    assert code == 0
    assert "survival: mean=1.0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# registry, refused configs and flag forms

def test_run_dispatches_through_runner_table(tmp_path, model_path, monkeypatch):
    import gosp.cli as cli

    assert set(cli._PARAMS) == set(cli._RUNNERS)
    calls = []
    runner = cli._RUNNERS["survival"]

    def recording(model, cfg, threads):
        calls.append(cfg["estimator"])
        return runner(model, cfg, threads)

    monkeypatch.setitem(cli._RUNNERS, "survival", recording)
    run(_survival_plan(model_path), out_dir=str(tmp_path / "out"))
    assert calls == ["survival"]


_CONE = {"estimator": "cone", "seed": 1, "p": 0.8, "lo": "1/4", "hi": "3/4",
         "T": 20, "reps": 20}


@pytest.mark.parametrize("plan, pointer", [
    (_survival_plan("m", dual=True, decay_windows=[[5, 10]]), "/dual"),
    (_survival_plan("m", dual=True, death_window=[5, 10]), "/dual"),
    (_survival_plan("m", decay_windows=[[5, 10]], death_window=[5, 10]),
     "/death_window"),
    (dict(_CONE, model="m", shape_lo=0.0), "/"),
    (dict(_CONE, model="m", shape_hi=1.0), "/"),
    (dict(_CONE, model="m", lo=0.5), "/lo"),
    (dict(_CONE, model="m", hi="abc"), "/hi"),
    (dict(_CONE, model="m", hi="1/0"), "/hi"),
    ({"estimator": "crosspath", "model": "m", "seed": 1, "p": 0.8, "eps": 0.0,
      "L": 40, "alpha": "3/2", "beta": "-1/2", "shift": "1/2", "reps": 6},
     "/shift"),
    (_survival_plan("m", death_window=[0, 10]), "/death_window/0"),
    (_survival_plan("m", decay_windows=[[5, 10], [4, -3]]), "/decay_windows/1/1"),
])
def test_validate_plan_refuses_ignored_or_bad_values(plan, pointer):
    with pytest.raises(SchemaError) as exc:
        validate_plan(plan)
    assert exc.value.pointer == pointer


def test_validate_plan_accepts_primal_fit_with_dual_false(model_path):
    validate_plan(_survival_plan(model_path, dual=False, death_window=[5, 10]))


@pytest.mark.parametrize("flags", [
    ["--slope=1/0"],
    ["--slope", "1/2", "--shift", "x"],
])
def test_bad_fraction_flag_exits_before_manifest(tmp_path, model_path, flags,
                                                capsys):
    out = tmp_path / "out"
    argv = ["crossing", "--model", model_path, "--seed", "1", "--p", "0.8",
            "--L", "10", "--eps", "0.2", "--reps", "5", "--out", str(out)]
    assert main(argv + flags) == 1
    assert "is not a 'fraction'" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_fraction_float_exits_before_manifest(tmp_path, model_path):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(dict(_CONE, model=model_path, lo=0.25)))
    out = tmp_path / "out"
    assert main(["cone", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_negative_fraction_flag_space_separated():
    argv = ["crosspath", "--model", "m", "--seed", "1", "--p", "0.8",
            "--eps", "0", "--L", "40", "--alpha", "3/2", "--beta", "-1/2",
            "--shift", "-3", "--reps", "6"]
    plan = _plan_from_args(_build_parser().parse_args(argv))
    assert (plan["beta"], plan["shift"]) == ("-1/2", -3)


def test_shape_replica_without_support_writes_null(tmp_path, model_path):
    # conditioned on survival to T_cond = 1 only, some replicas have no
    # occupied site on row 0 at time T
    out = tmp_path / "out"
    code = main([
        "shape", "--model", model_path, "--seed", "3", "--p", "0.7",
        "--T", "30", "--T-cond", "1", "--reps", "30", "--out", str(out),
    ])
    assert code == 0
    recs = [json.loads(line)
            for line in (out / "results.jsonl").read_text().splitlines()]
    assert len(recs) == 30
    assert any(r["support"] is None for r in recs)
    assert all(r["support"] is None or len(r["support"]) == 2 for r in recs)


# ---------------------------------------------------------------------------
# non-finite numbers and unparsable flag values

_NAN, _INF = float("nan"), float("inf")
_CROSSING = {"estimator": "crossing", "seed": 1, "p": 0.8, "L": 10,
             "eps": 0.2, "slope": 0, "reps": 5}


@pytest.mark.parametrize("over, pointer", [
    (dict(_survival_plan("m"), p=_NAN), "/p"),
    (dict(_survival_plan("m"), p=-_INF), "/p"),
    (dict(_CROSSING, model="m", eps=_NAN), "/eps"),
    (dict(_CROSSING, model="m", eps=_INF), "/eps"),
    ({"estimator": "pc", "model": "m", "seed": 1, "T": 10, "L_stop": 5,
      "reps": 5, "tol": _INF}, "/tol"),
    (dict(_CONE, model="m", shape_lo=_NAN, shape_hi=1.0), "/shape_lo"),
])
def test_config_file_non_finite_number_exits_before_manifest(
        tmp_path, model_path, over, pointer, capsys):
    cfg = tmp_path / "plan.json"
    # json writes NaN and Infinity as the bare tokens it reads back
    cfg.write_text(json.dumps(dict(over, model=model_path)))
    out = tmp_path / "out"
    assert main([over["estimator"], "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error at {pointer}: must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("estimator, flags, pointer", [
    ("survival", ["--p", "nan", "--T", "5", "--reps", "5"], "/p"),
    ("survival", ["--p=-inf", "--T", "5", "--reps", "5"], "/p"),
    ("crossing", ["--p", "0.8", "--L", "10", "--eps", "inf", "--slope", "0",
                  "--reps", "5"], "/eps"),
    ("crossing", ["--p", "0.8", "--L", "10", "--eps", "NaN", "--slope", "0",
                  "--reps", "5"], "/eps"),
    # space-separated negative forms are values, not unknown options
    ("survival", ["--p", "-inf", "--T", "5", "--reps", "5"], "/p"),
    ("survival", ["--p", "-Infinity", "--T", "5", "--reps", "5"], "/p"),
    ("survival", ["--p", "-nan", "--T", "5", "--reps", "5"], "/p"),
])
def test_non_finite_number_flag_exits_before_manifest(tmp_path, model_path,
                                                      estimator, flags, pointer,
                                                      capsys):
    out = tmp_path / "out"
    argv = [estimator, "--model", model_path, "--seed", "1", "--out", str(out)]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert f"config error at {pointer}: must be a finite number" in err
    assert not out.exists()


_TORUS = {"estimator": "torus", "seed": 1, "p": 0.8, "sizes": [8], "reps": 5,
          "T_max": 10}
_DENSITY = {"estimator": "density", "seed": 1, "p": 0.8, "n": 2, "T_inf": 10,
            "reps": 2}


@pytest.mark.parametrize("over, pointer", [
    (_survival_plan("m", reps=10.0), "/reps"),
    (_survival_plan("m", T=10.0), "/T"),
    (_survival_plan("m", seed=1.0), "/seed"),
    (dict(_DENSITY, n=2.0), "/n"),
    (dict(_TORUS, sizes=[8.0]), "/sizes/0"),
    (dict(_survival_plan("m"), estimator="simulate", snapshots=[2.0]),
     "/snapshots/0"),
    (_survival_plan("m", reps=True), "/reps"),
])
def test_config_file_integral_float_exits_before_manifest(
        tmp_path, model_path, over, pointer, capsys):
    # a JSON integer is an int: 10.0 would pass jsonschema's default
    # "integer" and fail in a traceback, or run, after the manifest
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(dict(over, model=model_path)))
    out = tmp_path / "out"
    assert main([over["estimator"], "--config", str(cfg), "--out", str(out)]) == 1
    assert f"config error at {pointer}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--T", "abc"], ["--p", "high"], ["--bogus"],
                                   ["--threads", "0"], ["--threads", "-3"]])
def test_unparsable_flag_exits_1(tmp_path, model_path, flags, capsys):
    # exit code 2 is kept for an estimator refusal; fewer than one thread
    # is refused with the flags that do not parse
    out = tmp_path / "out"
    argv = ["survival", "--model", model_path, "--seed", "1", "--p", "0.5",
            "--T", "5", "--reps", "5", "--out", str(out)]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ArgumentError): ")
    assert not out.exists()


def test_config_file_unparsable_value_exits_1(tmp_path, model_path, capsys):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(_survival_plan(model_path, T="abc")))
    out = tmp_path / "out"
    assert main(["survival", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config error at /T" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window, schema_refuses", [
    ("60:40", False), ("10:95", False), ("0:10", True), ("-3:10", True),
])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_bad_decay_window_exits_1_before_any_chunk(
        tmp_path, model_path, monkeypatch, capsys, window, schema_refuses, form):
    # a bound below 1 fails the schema before the manifest is written; a
    # window with a >= b or b > T is refused before any chunk runs
    def no_chunk(common, span):
        raise AssertionError("a decay chunk ran")

    monkeypatch.setattr(est, "_decay_chunk", no_chunk)
    out = tmp_path / "out"
    if form == "flag":
        argv = ["survival", "--model", model_path, "--seed", "1", "--p", "0.5",
                "--T", "90", "--reps", "100", "--decay-windows", window]
    else:
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(_survival_plan(
            model_path, p=0.5, T=90, reps=100,
            decay_windows=[[10, 20], [int(c) for c in window.split(":")]],
        )))
        argv = ["survival", "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    if schema_refuses:
        assert "config error at /decay_windows/" in err
        assert not out.exists()
    else:
        assert "must satisfy 1 <= a < b <= T" in err
        assert not (out / "results.jsonl").exists()



# ---------------------------------------------------------------------------
# import path

# imports the package and the CLI, then runs through cli.run the two
# estimators whose statistics the suite checks against scipy (the
# supercritical torus KS distance and bgprobe's box minimum)
_NO_SCIPY = """
import json, os, sys
import gosp, gosp.cli as cli
model, out, plans = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
for i, plan in enumerate(plans):
    cli.run(cli.validate_plan(dict(plan, model=model, seed=3)), 1,
            os.path.join(out, str(i)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_never_imports_scipy(tmp_path, model_path):
    plans = [
        {"estimator": "torus", "p": 0.7, "sizes": [6], "reps": 20,
         "T_max": 300, "regime": "super"},
        {"estimator": "bgprobe", "p": 0.8, "w": [2], "h": 3, "v": ["0"],
         "n": 1, "reps": 20},
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, model_path, str(tmp_path / "out"),
         json.dumps(plans)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "out" / "1" / "results.jsonl").exists()
