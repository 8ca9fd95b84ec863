"""Experiment runner: config parsing, manifests and machine-readable output.

Every run produces three artifacts in the output directory: a pretty-printed
``manifest.json`` (written before any result, so a crash never leaves results
without a manifest, and again when the run ends, with how it ended), a
``results.jsonl`` stream with one record per replica
or sweep point, and a ``summary.csv`` table with a fixed header.  Result
streams are deterministic functions of (config, master seed, replica count)
and independent of ``--threads``; files are written with a ``.partial``
suffix and renamed once complete.

Exit codes: 0 on success, 2 when the estimator refuses the parameters (for
example a subcritical shape request), 1 on any other error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import time

import jsonschema
import numpy as np

from . import __version__
from ._openness import KIND as OPENNESS_KIND
from .field import MIXER_ID, spawn_seeds
from .geometry import BlockGeometry, as_fraction
from .model import ModelError, load_model
from .dynamics import batch_evolve
from . import estimators as est


class SchemaError(ValueError):
    """Config rejected by schema validation; ``pointer`` locates the issue."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"config error at {pointer}: {message}")


# ---------------------------------------------------------------------------
# config schema

# "fraction": a value as_fraction takes (an integer, an integral number or
# 'p/q' text), so a bad one is refused before the run starts
_FORMATS = jsonschema.FormatChecker(formats=())
_FORMATS.checks("fraction", raises=(ArithmeticError, TypeError, ValueError))(
    lambda value: as_fraction(value) is not None)

# "finite": refuses the NaN and +-Infinity that Python's json reads and a
# float flag parses; NaN compares false with every bound, so no bound does
_FORMATS.checks("finite")(
    lambda value: not isinstance(value, float) or math.isfinite(value))


# "integer": an int that is not a bool, where jsonschema's default also
# takes an integral float such as 10.0, which the estimators cannot run on
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int)
        and not isinstance(value, bool)))


def _number(**bounds) -> dict:
    """Schema of a finite number within ``bounds`` (JSON-schema keywords)."""
    return {"type": "number", **bounds, "allOf": [
        {"format": "finite", "description": "must be a finite number"}]}


_NUM01 = _number(minimum=0, maximum=1)
_POSINT = {"type": "integer", "minimum": 1}
_INT = {"type": "integer"}
_FRAC = {"type": ["string", "number"], "format": "fraction"}
_INTS = {"type": "array", "items": _INT, "minItems": 1}
_FRACS = {"type": "array", "items": _FRAC, "minItems": 1}
_WINDOW = {"type": "array", "items": _POSINT, "minItems": 2, "maxItems": 2}
_BOOL = {"type": "boolean"}
_EPS = _number(minimum=0)
_P_T_REPS = {"p": _NUM01, "T": _POSINT, "reps": _POSINT}

# estimator -> parameter schemas ("required", "optional"; keys mirror the CLI
# flags exactly) and further JSON-schema keywords of the whole config
_PARAMS = {}
# estimator -> runner(model, cfg, threads) -> (summary rows, result records:
# a list of dicts, or per-replica columns from _replicas)
_RUNNERS = {}


def _estimator(name, required, optional=None, **keywords):
    """Register the decorated runner and its parameter schemas under ``name``."""
    def register(runner):
        _PARAMS[name] = {"required": required, "optional": optional or {},
                         **keywords}
        _RUNNERS[name] = runner
        return runner
    return register


def _schema_for(estimator: str) -> dict:
    spec = dict(_PARAMS[estimator])
    required, optional = spec.pop("required"), spec.pop("optional")
    props = {
        "model": {"type": "string"},
        "estimator": {"const": estimator},
        "seed": _INT,
        **required, **optional,
    }
    return {
        "type": "object",
        "properties": props,
        "required": ["model", "estimator", "seed"] + sorted(required),
        "additionalProperties": False,
        **spec,
    }


def validate_plan(config: dict) -> dict:
    if not isinstance(config, dict):
        raise SchemaError("", "config must be a JSON object")
    estimator = config.get("estimator")
    if estimator not in _PARAMS:
        raise SchemaError(
            "/estimator", f"unknown estimator {estimator!r}; "
            f"expected one of {sorted(_PARAMS)}"
        )
    schema = _schema_for(estimator)
    # report unknown keys with their own pointer, not the object's
    unknown = sorted(set(config) - set(schema["properties"]))
    if unknown:
        raise SchemaError(f"/{unknown[0]}", "unknown key")
    try:
        jsonschema.validate(config, schema, cls=_Validator, format_checker=_FORMATS)
    except jsonschema.ValidationError as e:
        # a schema's "description", where it has one, explains the refusal
        pointer = "/" + "/".join(str(part) for part in e.absolute_path)
        raise SchemaError(pointer, e.schema.get("description", e.message)) from None
    return config


def parse_config(path) -> dict:
    """Load and schema-validate an experiment config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError("", f"not valid JSON: {e}") from None
    return validate_plan(config)


# ---------------------------------------------------------------------------
# runners: plan -> (summary rows, result records)

def _row(cfg, name, T, e, reps=None, p=None):
    """One summary row; ``e`` is an Estimate or (mean, stderr, ci_lo, ci_hi),
    and ``p``, ``reps`` default to the config's."""
    mean, stderr, lo, hi = e if isinstance(e, tuple) else (e.mean, e.stderr, *e.ci95)
    return {
        "estimator": name, "p": cfg["p"] if p is None else p, "T": T,
        "reps": cfg["reps"] if reps is None else reps, "mean": mean,
        "stderr": stderr, "ci_lo": lo, "ci_hi": hi, "seed": cfg["seed"],
    }


def _replicas(**columns):
    """Per-replica records as columns: record i is {"replica": i, key:
    columns[key][i], ...}; array columns are turned into Python values with
    ``tolist``.  Columns of unequal lengths are a ValueError."""
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c)
              for c in columns.values()]
    n, *ragged = {len(v) for v in values}
    if ragged:
        raise ValueError(f"replica columns of unequal lengths: "
                         f"{dict(zip(columns, map(len, values)))}")
    return {"replica": range(n), **dict(zip(columns, values))}


def _taus(taus):
    """Extinction steps as integers, the censored (-1) ones as None."""
    return [int(t) if t >= 0 else None for t in taus.tolist()]


def _rle_encode(bits: np.ndarray) -> str:
    """Run lengths of a flat bit array, alternating and starting with zeros."""
    flat = np.asarray(bits, dtype=bool).ravel()
    if flat.size == 0:
        return ""
    cuts = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    # a leading one-run follows a zero-run of length 0
    starts = [0, 0] if flat[0] else [0]
    runs = np.diff(np.concatenate((starts, cuts, [flat.size])))
    return ",".join(map(str, runs.tolist()))


def _snapshot_records(snapshots, b) -> list:
    """Replica b's snapshots, by time, as records {t, anchor, shape, rows[]}
    with each slab row run-length encoded."""
    return [{
        "t": int(t),
        "anchor": [int(a) for a in st.anchor],
        "shape": [int(e) for e in st.rows.shape[2:]],
        "rows": [_rle_encode(row) for row in st.rows[b]],
    } for t, st in sorted(snapshots.items())]


# a snapshot time above T is refused by batch_evolve, before any step runs
@_estimator("simulate", _P_T_REPS, {
    "dual": _BOOL,
    "snapshots": {"type": "array", "items": {"type": "integer", "minimum": 0},
                  "minItems": 1}})
def _run_simulate(model, cfg, threads):
    snaps = sorted(set(cfg.get("snapshots", ())))
    dual = cfg.get("dual", False)
    res = batch_evolve(
        model, spawn_seeds(cfg["seed"], 0, cfg["reps"]), cfg["p"], cfg["T"],
        dual=dual, snapshot_times=snaps,
    )
    records = _replicas(tau=_taus(res.extinction))
    if snaps:
        records["snapshots"] = [_snapshot_records(res.snapshots, b)
                                for b in records["replica"]]
    e = est.Estimate.from_bernoulli(int(res.alive_at_T.sum()), cfg["reps"])
    return [_row(cfg, "simulate.dual" if dual else "simulate", cfg["T"], e)], records


# the decay and death fits run the primal process, each in a run of its own
_PRIMAL = {"const": False, "description": "decay_windows and death_window fit "
           "the primal process only; drop dual"}


@_estimator(
    "survival", _P_T_REPS,
    {"dual": _BOOL,
     "decay_windows": {"type": "array", "items": _WINDOW, "minItems": 1},
     "death_window": _WINDOW},
    dependentSchemas={
        "decay_windows": {"properties": {"dual": _PRIMAL, "death_window": {
            "not": {}, "description": "decay_windows and death_window are "
            "separate runs; give one of them"}}},
        "death_window": {"properties": {"dual": _PRIMAL}},
    },
)
def _run_survival(model, cfg, threads):
    p, T, reps, seed = cfg["p"], cfg["T"], cfg["reps"], cfg["seed"]
    if "decay_windows" in cfg:
        windows = tuple(tuple(w) for w in cfg["decay_windows"])
        r = est.subcritical_decay(
            model, p, T, reps, seed, threads=threads, windows=windows
        )
        rows = [_row(cfg, f"decay[{a}:{b}]", T, (c, 0.0, c, c))
                for (a, b), c, _ in r.window_fits]
        rows.append(_row(cfg, "decay", T, (r.c_hat, 0.0, r.c_hat, r.c_hat)))
        records = [
            {"index": t, "tau": (t if t <= T else None), "count": int(c)}
            for t, c in enumerate(r.histogram) if c
        ]
        return rows, records
    if "death_window" in cfg:
        a, b = cfg["death_window"]
        r = est.death_bound_fit(model, p, T, reps, (a, b), seed, threads=threads)
        half = 1.96 * r.slope_stderr
        rows = [_row(cfg, f"death[{a}:{b}]", T, (
            r.slope, r.slope_stderr, r.slope - half, r.slope + half))]
        records = [
            {"index": t, "t": t, "tail_count": int(c)}
            for t, c in sorted(r.counts.items())
        ]
        return rows, records
    dual = cfg.get("dual", False)
    r = est.survival_curve(model, p, T, reps, seed, threads=threads, dual=dual)
    name = "survival.dual" if dual else "survival"
    return [_row(cfg, name, T, r.estimate)], _replicas(tau=_taus(r.taus))


@_estimator("pc", {"T": _POSINT, "L_stop": _POSINT, "reps": _POSINT,
                   "tol": _number(exclusiveMinimum=0)})
def _run_pc(model, cfg, threads):
    r = est.critical_point(
        model, cfg["T"], cfg["L_stop"], cfg["reps"], cfg["tol"], cfg["seed"],
        threads=threads,
    )
    rows = [_row(cfg, "pc", cfg["T"], (
        r.p_hat, (r.p_hi - r.p_lo) / 2, r.p_lo, r.p_hi), p=r.p_hat)]
    records = [
        {"index": i, "p": p, "event_freq": e.mean}
        for i, (p, e) in enumerate(r.sweep)
    ]
    records += [
        {"index": len(r.sweep) + j, "p": r.p_hat, "event_freq": e.mean,
         "stability_lane": j + 1}
        for j, e in enumerate(r.stability)
    ]
    return rows, records


@_estimator("shape", _P_T_REPS, {"T_cond": _POSINT})
def _run_shape(model, cfg, threads):
    T = cfg["T"]
    r = est.shape_and_time_constants(
        model, cfg["p"], T, cfg["reps"], T_cond=cfg.get("T_cond"),
        seed=cfg["seed"], threads=threads,
    )
    rows = [_row(cfg, "shape.u_lo", T, r.u_lo), _row(cfg, "shape.u_hi", T, r.u_hi)]
    rows += [_row(cfg, f"shape.mu[{direction}]", T, e, reps=e.n)
             for direction, e in sorted(r.mu_hat.items()) if e is not None]
    # a replica with no occupied site on row 0 at time T has no support
    supports = [None if s is None else list(s) for s in r.supports]
    return rows, _replicas(u_lo=r.lo_samples, u_hi=r.hi_samples, support=supports)


@_estimator("edges", _P_T_REPS)
def _run_edges(model, cfg, threads):
    r = est.edge_speeds(model, cfg["p"], cfg["T"], cfg["reps"], cfg["seed"],
                        threads=threads)
    rows = [_row(cfg, "edges.alpha", cfg["T"], r.alpha),
            _row(cfg, "edges.beta", cfg["T"], r.beta)]
    return rows, _replicas(r_T=r.r_T, l_T=r.l_T)


@_estimator("torus", {"p": _NUM01, "sizes": _INTS, "reps": _POSINT,
                      "T_max": _POSINT},
            {"regime": {"enum": ["auto", "sub", "super"]}})
def _run_torus(model, cfg, threads):
    r = est.torus_stats(
        model, cfg["p"], cfg["sizes"], cfg["reps"], cfg["T_max"], cfg["seed"],
        threads=threads, regime=cfg.get("regime", "auto"),
    )
    sizes = list(zip(map(int, cfg["sizes"]), r.per_size))
    rows = [_row(cfg, f"torus[n={n}]", cfg["T_max"], s.mean_tau) for n, s in sizes]
    tables = [_replicas(n=[n] * len(s.taus), tau=_taus(s.taus)) for n, s in sizes]
    records = {k: [v for t in tables for v in t[k]] for k in ("replica", "n", "tau")}
    # "index" orders the sizes; run() sorts by replica, interleaving them
    records["index"] = range(len(records["replica"]))
    return rows, records


@_estimator("density", {"p": _NUM01, "n": _POSINT, "T_inf": _POSINT,
                        "reps": _POSINT})
def _run_density(model, cfg, threads):
    r = est.density_spectrum(
        model, cfg["p"], cfg["n"], cfg["T_inf"], cfg["reps"], cfg["seed"],
        threads=threads,
    )
    rows = [_row(cfg, f"density[n={cfg['n']}]", cfg["T_inf"], r.mean)]
    return rows, _replicas(y=r.samples)


@_estimator("crossing", {"p": _NUM01, "L": _POSINT, "eps": _EPS,
                         "slope": _FRAC, "reps": _POSINT},
            {"shift": _FRAC})
def _run_crossing(model, cfg, threads):
    r = est.crossing_probability(
        model, cfg["p"], cfg["L"], cfg["eps"], cfg["slope"], cfg["reps"],
        cfg["seed"], threads=threads, lateral_shift=cfg.get("shift", 0),
    )
    return ([_row(cfg, "crossing", cfg["L"], r.estimate)],
            _replicas(crossed=r.outcomes))


@_estimator("bgprobe", {"p": _NUM01, "w": _INTS, "h": _POSINT, "v": _FRACS,
                        "n": _POSINT, "reps": _POSINT})
def _run_bgprobe(model, cfg, threads):
    g = BlockGeometry(tuple(cfg["w"]), cfg["h"], tuple(cfg["v"]))
    r = est.bg_event_probability(model, cfg["p"], g, cfg["n"], cfg["reps"],
                                 cfg["seed"], threads=threads)
    return ([_row(cfg, "bgprobe", cfg["h"], r.estimate)],
            _replicas(event=r.outcomes))


@_estimator("goodblock", {"p": _NUM01, "L": _POSINT, "C": _POSINT,
                          "reps": _POSINT},
            {"v": _FRACS})
def _run_goodblock(model, cfg, threads):
    L, C = cfg["L"], cfg["C"]
    r = est.good_block_probability(
        model, cfg["p"], L, C, cfg["reps"], cfg["seed"], threads=threads,
        v=cfg.get("v"),
    )
    T = C * L + L // C
    rows = [_row(cfg, name, T, e) for name, e in (
        ("goodblock", r.estimate), ("goodblock.event1", r.event1),
        ("goodblock.event2", r.event2), ("goodblock.event3", r.event3))]
    ev = np.array(r.events, dtype=bool)
    return rows, _replicas(event1=ev[:, 0], event2=ev[:, 1], event3=ev[:, 2])


@_estimator("meet", {"p": _NUM01, "t": _POSINT, "v_hat": _FRACS,
                     "reps": _POSINT})
def _run_meet(model, cfg, threads):
    r = est.primal_dual_meet(
        model, cfg["p"], cfg["t"], cfg["reps"], cfg["v_hat"], cfg["seed"],
        threads=threads,
    )
    ev = np.array(r.events, dtype=bool)
    return ([_row(cfg, "meet.failure", cfg["t"], r.failure)],
            _replicas(both_alive=ev[:, 0], failure=ev[:, 1]))


@_estimator("cone", {"p": _NUM01, "lo": _FRAC, "hi": _FRAC, "T": _POSINT,
                     "reps": _POSINT},
            {"t0": _POSINT, "shape_lo": _number(), "shape_hi": _number()},
            dependentRequired={"shape_lo": ["shape_hi"], "shape_hi": ["shape_lo"]})
def _run_cone(model, cfg, threads):
    r = est.restricted_cone_survival(
        model, cfg["p"], (cfg["lo"], cfg["hi"]), cfg["T"], cfg["reps"],
        cfg["seed"], threads=threads, t0=cfg.get("t0", 50),
        shape=(cfg["shape_lo"], cfg["shape_hi"]) if "shape_lo" in cfg else None,
    )
    return ([_row(cfg, "cone", cfg["T"], r.estimate)],
            _replicas(survived=r.outcomes))


@_estimator("crosspath", {"p": _NUM01, "eps": _EPS, "L": _POSINT,
                          "alpha": _FRAC, "beta": _FRAC, "reps": _POSINT},
            {"shift": _INT, "half_width": _POSINT})
def _run_crosspath(model, cfg, threads):
    r = est.path_crossing_transfer(
        model, cfg["p"], cfg["eps"], cfg["L"], cfg["reps"], cfg["seed"],
        threads=threads, alpha=cfg["alpha"], beta=cfg["beta"],
        shift=cfg.get("shift"), half_width=cfg.get("half_width"),
    )
    rows = [
        _row(cfg, "crosspath.crossing", cfg["L"], r.crossing),
        _row(cfg, "crosspath.transfer", cfg["L"], r.transfer, reps=r.crossed),
    ]
    records = [
        {"replica": i, "crossed": False} if rec is None else
        {"replica": i, "crossed": True, "path_meet": bool(rec[0]),
         "hat_meet": bool(rec[1]), "transfer": bool(rec[2])}
        for i, rec in enumerate(r.records)
    ]
    return rows, records


# ---------------------------------------------------------------------------
# artifact writing

_CSV_COLUMNS = (
    "estimator", "p", "T", "reps", "mean", "stderr", "ci_lo", "ci_hi", "seed"
)


# one encoder for every results.jsonl line; json.dumps would build one per call
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _column_lines(columns: dict) -> str:
    """The results.jsonl lines of per-replica columns, sorted by replica
    (stably), each the ``_RECORD_ENCODER`` text of its record.

    A column is encoded in one call, as a JSON array split at its commas;
    a column with a comma in some value's text (a list, a string) is
    encoded value by value instead.  One format string, with the keys in
    sorted order, makes each line."""
    order = np.argsort(columns["replica"], kind="stable")
    if np.any(order[1:] < order[:-1]):
        columns = {k: [v[i] for i in order] for k, v in columns.items()}
    n, keys = len(order), sorted(columns)
    if not n:
        return ""
    cells = []
    for k in keys:
        values = list(columns[k])
        text = _RECORD_ENCODER.encode(values)[1:-1].split(",")
        if len(text) != n:
            text = [_RECORD_ENCODER.encode(v) for v in values]
        cells.append(text)
    line = "{" + ",".join(_RECORD_ENCODER.encode(k).replace("%", "%%") + ":%s"
                          for k in keys) + "}\n"
    return "".join(line % row for row in zip(*cells))


def _jsonl(records) -> str:
    """results.jsonl: per-replica columns (a dict) or records (a list of
    dicts, sorted by replica, else index), one ``_RECORD_ENCODER`` line
    each."""
    if isinstance(records, dict):
        return _column_lines(records)
    records = sorted(records, key=lambda r: r.get("replica", r.get("index", 0)))
    return "".join(_RECORD_ENCODER.encode(rec) + "\n" for rec in records)


def _atomic_write(path: str, text: str) -> None:
    partial = path + ".partial"
    with open(partial, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(partial, path)


def _write_manifest(path: str, plan: dict, status: str, timing=None,
                    reason=None) -> None:
    with open(plan["model"], "rb") as fh:
        model_hash = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "model_sha256": model_hash,
        "config": plan,
        "master_seed": plan["seed"],
        "reps": plan.get("reps"),
        "mixer": MIXER_ID,
        "openness": OPENNESS_KIND,
        "version": __version__,
        "status": status,
        "reason": reason,
        "timing": timing,
    }
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run(plan: dict, parallelism: int = 1, out_dir: str = ".") -> dict:
    """Execute a validated plan and write manifest, JSONL and CSV artifacts.
    The manifest's ``status`` is "running", then "ok", or "refused" or
    "error" with the exception's class and message, which is raised again."""
    model = load_model(plan["model"])
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_manifest(manifest_path, plan, "running")
    try:
        t_start = time.perf_counter()
        rows, records = _RUNNERS[plan["estimator"]](model, plan, parallelism)
        wall = time.perf_counter() - t_start

        _atomic_write(os.path.join(out_dir, "results.jsonl"), _jsonl(records))

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _atomic_write(os.path.join(out_dir, "summary.csv"), buf.getvalue())
    except BaseException as exc:
        status = "refused" if isinstance(exc, est.EstimatorRefused) else "error"
        _write_manifest(manifest_path, plan, status,
                        reason={"class": type(exc).__name__, "message": str(exc)})
        raise

    reps = plan.get("reps")
    timing = {"wall_s": wall, "per_replica_s": (wall / reps) if reps else None}
    _write_manifest(manifest_path, plan, "ok", timing)
    return {"rows": rows, "timing": timing}


# ---------------------------------------------------------------------------
# argument parsing

def _window(text: str) -> list:
    a, b = text.split(":")
    return [int(a), int(b)]


def _threads(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _flag_type(schema: dict):
    """Parser of one flag value: integers, numbers, fractions (kept as
    'p/q' text), windows written A:B, and comma lists of these."""
    kind = schema["type"]
    if kind == "array" and schema.get("maxItems") == 2:
        return _window
    if kind == "array":
        item = _flag_type(schema["items"])
        return lambda text: [item(part.strip()) for part in text.split(",") if part.strip()]
    if kind == "integer":
        return int
    if kind == "number":
        return float
    return str


def _flag_kwargs(schema: dict) -> dict:
    """argparse keyword arguments of the flag for a parameter schema."""
    if "enum" in schema:
        return dict(choices=schema["enum"])
    if schema["type"] == "boolean":
        return dict(action="store_true", default=None)
    if schema["type"] == "array":
        metavar = "A:B" if schema.get("maxItems") == 2 else "X1,X2,..."
        return dict(type=_flag_type(schema), metavar=metavar)
    return dict(type=_flag_type(schema))


# a value starting with '-' is taken for an option unless it matches this:
# argparse's own pattern refuses fractions such as -1/2, and -inf and -nan,
# which must reach the schema's finite-number check
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|(inf(inity)?|nan)$)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError on a bad command line instead of exiting with
    argparse's code 2, which gosp keeps for an estimator refusal."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gosp",
        description="Oriented site percolation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="validate a model file")
    pv.add_argument("--model", required=True)

    for name, spec in _PARAMS.items():
        sp = sub.add_parser(name, help=f"run the {name} estimator")
        sp._negative_number_matcher = _NEGATIVE_VALUE
        sp.add_argument("--config", help="JSON config file; overrides flags")
        sp.add_argument("--model")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=_threads, default=1)
        sp.add_argument("--out", default=".")
        for key, schema in {**spec["required"], **spec["optional"]}.items():
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, **_flag_kwargs(schema))
    return parser


def _plan_from_args(args: argparse.Namespace) -> dict:
    if args.config:
        return parse_config(args.config)
    config = {"estimator": args.command}
    for key in ("model", "seed"):
        value = getattr(args, key)
        if value is None:
            raise SchemaError(f"/{key}", "required (or use --config)")
        config[key] = value
    spec = _PARAMS[args.command]
    for key in list(spec["required"]) + list(spec["optional"]):
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    return validate_plan(config)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "validate":
            model = load_model(args.model)
            print(f"ok: d={model.d} R={model.R} gamma={model.gamma} "
                  f"offsets={list(model.spec.offsets)}")
            return 0
        plan = _plan_from_args(args)
        result = run(plan, parallelism=args.threads, out_dir=args.out)
        for row in result["rows"]:
            print(f"{row['estimator']}: mean={row['mean']} "
                  f"ci95=[{row['ci_lo']}, {row['ci_hi']}]")
        return 0
    except est.EstimatorRefused as e:
        print(f"refused ({type(e).__name__}): {e}", file=sys.stderr)
        return 2
    except (argparse.ArgumentError, SchemaError, ModelError, OSError, ValueError,
            est.EstimatorError) as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
