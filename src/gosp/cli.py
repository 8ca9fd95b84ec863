"""Experiment runner: config parsing, manifests and machine-readable output.

Every run produces three artifacts in the output directory: a pretty-printed
``manifest.json`` (written before any result, so a crash never leaves results
without a manifest), a ``results.jsonl`` stream with one record per replica
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
import os
import sys
import time
from fractions import Fraction

import jsonschema
import numpy as np

from . import __version__
from .field import MIXER_ID, spawn_seeds
from .geometry import BlockGeometry, as_fraction
from .model import ModelError, load_model
from .dynamics import ProcessState, batch_evolve, write_snapshots
from . import estimators as est


class SchemaError(ValueError):
    """Config rejected by schema validation; ``pointer`` locates the issue."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"config error at {pointer}: {message}")


# ---------------------------------------------------------------------------
# config schema

_NUM01 = {"type": "number", "minimum": 0, "maximum": 1}
_POSINT = {"type": "integer", "minimum": 1}
_INT = {"type": "integer"}
_FRAC = {"type": ["string", "number"]}
_INTS = {"type": "array", "items": _INT, "minItems": 1}
_FRACS = {"type": "array", "items": _FRAC, "minItems": 1}
_WINDOW = {"type": "array", "items": _INT, "minItems": 2, "maxItems": 2}
_BOOL = {"type": "boolean"}

# per-estimator parameter schemas; keys mirror the CLI flags exactly
_PARAMS = {
    "simulate": {
        "required": {"p": _NUM01, "T": _POSINT, "reps": _POSINT},
        "optional": {"dual": _BOOL, "snapshots": _INTS},
    },
    "survival": {
        "required": {"p": _NUM01, "T": _POSINT, "reps": _POSINT},
        "optional": {
            "dual": _BOOL,
            "decay_windows": {"type": "array", "items": _WINDOW, "minItems": 1},
            "death_window": _WINDOW,
        },
    },
    "pc": {
        "required": {
            "T": _POSINT, "L_stop": _POSINT, "reps": _POSINT,
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
        "optional": {},
    },
    "shape": {
        "required": {"p": _NUM01, "T": _POSINT, "reps": _POSINT},
        "optional": {"T_cond": _POSINT},
    },
    "edges": {
        "required": {"p": _NUM01, "T": _POSINT, "reps": _POSINT},
        "optional": {},
    },
    "torus": {
        "required": {
            "p": _NUM01, "sizes": _INTS, "reps": _POSINT, "T_max": _POSINT,
        },
        "optional": {"regime": {"enum": ["auto", "sub", "super"]}},
    },
    "density": {
        "required": {
            "p": _NUM01, "n": _POSINT, "T_inf": _POSINT, "reps": _POSINT,
        },
        "optional": {"a_values": {"type": "array", "items": {"type": "number"}}},
    },
    "crossing": {
        "required": {
            "p": _NUM01, "L": _POSINT, "eps": {"type": "number", "minimum": 0},
            "slope": _FRAC, "reps": _POSINT,
        },
        "optional": {"shift": _FRAC},
    },
    "bgprobe": {
        "required": {
            "p": _NUM01, "w": _INTS, "h": _POSINT, "v": _FRACS, "n": _POSINT,
            "reps": _POSINT,
        },
        "optional": {},
    },
    "goodblock": {
        "required": {"p": _NUM01, "L": _POSINT, "C": _POSINT, "reps": _POSINT},
        "optional": {"v": _FRACS},
    },
    "meet": {
        "required": {"p": _NUM01, "t": _POSINT, "v_hat": _FRACS, "reps": _POSINT},
        "optional": {},
    },
    "cone": {
        "required": {
            "p": _NUM01, "lo": _FRAC, "hi": _FRAC, "T": _POSINT,
            "reps": _POSINT,
        },
        "optional": {"t0": _POSINT, "shape_lo": {"type": "number"},
                     "shape_hi": {"type": "number"}},
    },
    "crosspath": {
        "required": {
            "p": _NUM01, "eps": {"type": "number", "minimum": 0},
            "L": _POSINT, "alpha": _FRAC, "beta": _FRAC, "reps": _POSINT,
        },
        "optional": {"shift": _FRAC, "half_width": _POSINT},
    },
}


def _schema_for(estimator: str) -> dict:
    spec = _PARAMS[estimator]
    props = {
        "model": {"type": "string"},
        "estimator": {"const": estimator},
        "seed": _INT,
    }
    props.update(spec["required"])
    props.update(spec["optional"])
    return {
        "type": "object",
        "properties": props,
        "required": ["model", "estimator", "seed"] + sorted(spec["required"]),
        "additionalProperties": False,
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
        jsonschema.validate(config, schema)
    except jsonschema.ValidationError as e:
        pointer = "/" + "/".join(str(part) for part in e.absolute_path)
        raise SchemaError(pointer, e.message) from None
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

def _row(name, p, T, reps, e, seed):
    return {
        "estimator": name, "p": p, "T": T, "reps": reps,
        "mean": e.mean, "stderr": e.stderr,
        "ci_lo": e.ci95[0], "ci_hi": e.ci95[1], "seed": seed,
    }


def _raw_row(name, p, T, reps, mean, stderr, ci_lo, ci_hi, seed):
    return {
        "estimator": name, "p": p, "T": T, "reps": reps, "mean": mean,
        "stderr": stderr, "ci_lo": ci_lo, "ci_hi": ci_hi, "seed": seed,
    }


def _tau_records(taus):
    return [
        {"replica": i, "tau": int(t) if t >= 0 else None}
        for i, t in enumerate(taus)
    ]


def _run_simulate(model, cfg, threads):
    p, T, reps, seed = cfg["p"], cfg["T"], cfg["reps"], cfg["seed"]
    snaps = sorted(set(cfg.get("snapshots", ())))
    seeds = spawn_seeds(seed, 0, reps)
    res = batch_evolve(
        model, seeds, p, T, dual=cfg.get("dual", False),
        snapshot_times=snaps, compact=not snaps,
    )
    records = _tau_records(res.extinction)
    for rec, b in zip(records, range(reps)):
        if snaps:
            buf = io.StringIO()
            write_snapshots(
                {
                    t: ProcessState(t, s.anchor, s.rows[b])
                    for t, s in res.snapshots.items()
                },
                buf,
            )
            rec["snapshots"] = [json.loads(line) for line in buf.getvalue().splitlines()]
    e = est.Estimate.from_bernoulli(int(res.alive_at_T.sum()), reps)
    name = "simulate.dual" if cfg.get("dual", False) else "simulate"
    return [_row(name, p, T, reps, e, seed)], records


def _run_survival(model, cfg, threads):
    p, T, reps, seed = cfg["p"], cfg["T"], cfg["reps"], cfg["seed"]
    if "decay_windows" in cfg:
        windows = tuple(tuple(w) for w in cfg["decay_windows"])
        r = est.subcritical_decay(
            model, p, T, reps, seed, threads=threads, windows=windows
        )
        rows = [
            _raw_row(f"decay[{a}:{b}]", p, T, reps, c, 0.0, c, c, seed)
            for (a, b), c, _ in r.window_fits
        ]
        rows.append(_raw_row("decay", p, T, reps, r.c_hat, 0.0,
                             r.c_hat, r.c_hat, seed))
        records = [
            {"index": t, "tau": (t if t <= T else None), "count": int(c)}
            for t, c in enumerate(r.histogram) if c
        ]
        return rows, records
    if "death_window" in cfg:
        a, b = cfg["death_window"]
        r = est.death_bound_fit(model, p, T, reps, (a, b), seed, threads=threads)
        rows = [_raw_row(
            f"death[{a}:{b}]", p, T, reps, r.slope, r.slope_stderr,
            r.slope - 1.96 * r.slope_stderr, r.slope + 1.96 * r.slope_stderr,
            seed,
        )]
        records = [
            {"index": t, "t": t, "tail_count": int(c)}
            for t, c in sorted(r.counts.items())
        ]
        return rows, records
    dual = cfg.get("dual", False)
    r = est.survival_curve(model, p, T, reps, seed, threads=threads, dual=dual)
    name = "survival.dual" if dual else "survival"
    return [_row(name, p, T, reps, r.estimate, seed)], _tau_records(r.taus)


def _run_pc(model, cfg, threads):
    T, reps, seed = cfg["T"], cfg["reps"], cfg["seed"]
    r = est.critical_point(
        model, T, cfg["L_stop"], reps, cfg["tol"], seed, threads=threads
    )
    rows = [_raw_row("pc", r.p_hat, T, reps, r.p_hat,
                     (r.p_hi - r.p_lo) / 2, r.p_lo, r.p_hi, seed)]
    records = [
        {"index": i, "p": p, "event_freq": e.mean}
        for i, (p, e) in enumerate(r.sweep)
    ]
    records += [
        {"index": len(records) + j, "p": r.p_hat, "event_freq": e.mean,
         "stability_lane": j + 1}
        for j, e in enumerate(r.stability)
    ]
    return rows, records


def _run_shape(model, cfg, threads):
    p, t, reps, seed = cfg["p"], cfg["T"], cfg["reps"], cfg["seed"]
    r = est.shape_and_time_constants(
        model, p, t, reps, T_cond=cfg.get("T_cond"), seed=seed, threads=threads
    )
    rows = [
        _row("shape.u_lo", p, t, r.reps, r.u_lo, seed),
        _row("shape.u_hi", p, t, r.reps, r.u_hi, seed),
    ]
    for direction, e in sorted(r.mu_hat.items()):
        if e is not None:
            rows.append(_row(f"shape.mu[{direction}]", p, t, e.n, e, seed))
    records = [
        {"replica": i, "u_lo": float(lo), "u_hi": float(hi),
         "support": [int(s) for s in sup]}
        for i, (lo, hi, sup) in enumerate(
            zip(r.lo_samples, r.hi_samples, r.supports)
        )
    ]
    return rows, records


def _run_edges(model, cfg, threads):
    p, T, reps, seed = cfg["p"], cfg["T"], cfg["reps"], cfg["seed"]
    r = est.edge_speeds(model, p, T, reps, seed, threads=threads)
    rows = [
        _row("edges.alpha", p, T, reps, r.alpha, seed),
        _row("edges.beta", p, T, reps, r.beta, seed),
    ]
    records = [
        {"replica": i, "r_T": int(a), "l_T": int(b)}
        for i, (a, b) in enumerate(zip(r.r_T, r.l_T))
    ]
    return rows, records


def _run_torus(model, cfg, threads):
    p, reps, seed = cfg["p"], cfg["reps"], cfg["seed"]
    r = est.torus_stats(
        model, p, cfg["sizes"], reps, cfg["T_max"], seed, threads=threads,
        regime=cfg.get("regime", "auto"),
    )
    rows, records, k = [], [], 0
    for s in r.per_size:
        rows.append(_row(f"torus[n={s.n}]", p, cfg["T_max"], reps,
                         s.mean_tau, seed))
        for i, t in enumerate(s.taus):
            records.append({
                "index": k, "n": s.n, "replica": i,
                "tau": int(t) if t >= 0 else None,
            })
            k += 1
    return rows, records


def _run_density(model, cfg, threads):
    p, reps, seed = cfg["p"], cfg["reps"], cfg["seed"]
    r = est.density_spectrum(
        model, p, cfg["n"], cfg["T_inf"], reps, seed, threads=threads,
        a_values=tuple(cfg.get("a_values", ())),
    )
    rows = [_row(f"density[n={cfg['n']}]", p, cfg["T_inf"], reps, r.mean, seed)]
    records = [
        {"replica": i, "y": float(y)} for i, y in enumerate(r.samples)
    ]
    return rows, records


def _run_crossing(model, cfg, threads):
    p, reps, seed = cfg["p"], cfg["reps"], cfg["seed"]
    r = est.crossing_probability(
        model, p, cfg["L"], cfg["eps"], as_fraction(cfg["slope"]), reps, seed,
        threads=threads, lateral_shift=as_fraction(cfg.get("shift", 0)),
    )
    rows = [_row("crossing", p, cfg["L"], reps, r.estimate, seed)]
    records = [
        {"replica": i, "crossed": bool(c)} for i, c in enumerate(r.outcomes)
    ]
    return rows, records


def _run_bgprobe(model, cfg, threads):
    p, reps, seed = cfg["p"], cfg["reps"], cfg["seed"]
    g = BlockGeometry(
        tuple(cfg["w"]), cfg["h"], tuple(as_fraction(c) for c in cfg["v"])
    )
    r = est.bg_event_probability(model, p, g, cfg["n"], reps, seed,
                                 threads=threads)
    rows = [_row("bgprobe", p, cfg["h"], reps, r.estimate, seed)]
    records = [
        {"replica": i, "event": bool(c)} for i, c in enumerate(r.outcomes)
    ]
    return rows, records


def _run_goodblock(model, cfg, threads):
    p, reps, seed = cfg["p"], cfg["reps"], cfg["seed"]
    r = est.good_block_probability(
        model, p, cfg["L"], cfg["C"], reps, seed, threads=threads,
        v=[as_fraction(c) for c in cfg["v"]] if "v" in cfg else None,
    )
    T = cfg["C"] * cfg["L"] + cfg["L"] // cfg["C"]
    rows = [
        _row("goodblock", p, T, reps, r.estimate, seed),
        _row("goodblock.event1", p, T, reps, r.event1, seed),
        _row("goodblock.event2", p, T, reps, r.event2, seed),
        _row("goodblock.event3", p, T, reps, r.event3, seed),
    ]
    records = [
        {"replica": i, "event1": bool(a), "event2": bool(b), "event3": bool(c)}
        for i, (a, b, c) in enumerate(r.events)
    ]
    return rows, records


def _run_meet(model, cfg, threads):
    p, t, reps, seed = cfg["p"], cfg["t"], cfg["reps"], cfg["seed"]
    r = est.primal_dual_meet(
        model, p, t, reps, [as_fraction(c) for c in cfg["v_hat"]], seed,
        threads=threads,
    )
    rows = [_row("meet.failure", p, t, reps, r.failure, seed)]
    records = [
        {"replica": i, "both_alive": bool(b), "failure": bool(f)}
        for i, (b, f) in enumerate(r.events)
    ]
    return rows, records


def _run_cone(model, cfg, threads):
    p, T, reps, seed = cfg["p"], cfg["T"], cfg["reps"], cfg["seed"]
    shape = None
    if "shape_lo" in cfg or "shape_hi" in cfg:
        if not ("shape_lo" in cfg and "shape_hi" in cfg):
            raise SchemaError("/shape_lo", "shape_lo and shape_hi go together")
        shape = (cfg["shape_lo"], cfg["shape_hi"])
    r = est.restricted_cone_survival(
        model, p, (as_fraction(cfg["lo"]), as_fraction(cfg["hi"])), T, reps,
        seed, threads=threads, t0=cfg.get("t0", 50), shape=shape,
    )
    rows = [_row("cone", p, T, reps, r.estimate, seed)]
    records = [
        {"replica": i, "survived": bool(c)} for i, c in enumerate(r.outcomes)
    ]
    return rows, records


def _run_crosspath(model, cfg, threads):
    p, reps, seed = cfg["p"], cfg["reps"], cfg["seed"]
    r = est.path_crossing_transfer(
        model, p, cfg["eps"], cfg["L"], reps, seed, threads=threads,
        alpha=as_fraction(cfg["alpha"]), beta=as_fraction(cfg["beta"]),
        shift=as_fraction(cfg["shift"]) if "shift" in cfg else None,
        half_width=cfg.get("half_width"),
    )
    rows = [
        _row("crosspath.crossing", p, cfg["L"], reps, r.crossing, seed),
        _row("crosspath.transfer", p, cfg["L"], r.crossed, r.transfer, seed),
    ]
    records = []
    for i, rec in enumerate(r.records):
        if rec is None:
            records.append({"replica": i, "crossed": False})
        else:
            pm, hm, tr = rec
            records.append({
                "replica": i, "crossed": True, "path_meet": bool(pm),
                "hat_meet": bool(hm), "transfer": bool(tr),
            })
    return rows, records


_RUNNERS = {
    "simulate": _run_simulate,
    "survival": _run_survival,
    "pc": _run_pc,
    "shape": _run_shape,
    "edges": _run_edges,
    "torus": _run_torus,
    "density": _run_density,
    "crossing": _run_crossing,
    "bgprobe": _run_bgprobe,
    "goodblock": _run_goodblock,
    "meet": _run_meet,
    "cone": _run_cone,
    "crosspath": _run_crosspath,
}

_CSV_COLUMNS = (
    "estimator", "p", "T", "reps", "mean", "stderr", "ci_lo", "ci_hi", "seed"
)


# ---------------------------------------------------------------------------
# artifact writing

def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, Fraction):
        return str(o)
    raise TypeError(f"not JSON serialisable: {o!r}")


def _atomic_write(path: str, text: str) -> None:
    partial = path + ".partial"
    with open(partial, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(partial, path)


def _manifest(plan: dict, timing) -> dict:
    with open(plan["model"], "rb") as fh:
        model_hash = hashlib.sha256(fh.read()).hexdigest()
    return {
        "model_sha256": model_hash,
        "config": plan,
        "master_seed": plan["seed"],
        "reps": plan.get("reps"),
        "mixer": MIXER_ID,
        "version": __version__,
        "timing": timing,
    }


def run(plan: dict, parallelism: int = 1, out_dir: str = ".") -> dict:
    """Execute a validated plan and write manifest, JSONL and CSV artifacts."""
    model = load_model(plan["model"])
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    _atomic_write(
        manifest_path,
        json.dumps(_manifest(plan, None), indent=2, sort_keys=True,
                   default=_json_default) + "\n",
    )
    t_start = time.perf_counter()
    rows, records = _RUNNERS[plan["estimator"]](model, plan, parallelism)
    wall = time.perf_counter() - t_start

    records = sorted(records, key=lambda r: r.get("replica", r.get("index", 0)))
    lines = [
        json.dumps(rec, sort_keys=True, separators=(",", ":"),
                   default=_json_default)
        for rec in records
    ]
    _atomic_write(
        os.path.join(out_dir, "results.jsonl"),
        "".join(line + "\n" for line in lines),
    )

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _atomic_write(os.path.join(out_dir, "summary.csv"), buf.getvalue())

    reps = plan.get("reps")
    timing = {
        "wall_s": wall,
        "per_replica_s": (wall / reps) if reps else None,
    }
    _atomic_write(
        manifest_path,
        json.dumps(_manifest(plan, timing), indent=2, sort_keys=True,
                   default=_json_default) + "\n",
    )
    return {"rows": rows, "records": records, "timing": timing}


# ---------------------------------------------------------------------------
# argument parsing

def _window(text: str) -> list:
    a, b = text.split(":")
    return [int(a), int(b)]


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gosp",
        description="Oriented site percolation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="validate a model file")
    pv.add_argument("--model", required=True)

    for name, spec in _PARAMS.items():
        sp = sub.add_parser(name, help=f"run the {name} estimator")
        sp.add_argument("--config", help="JSON config file; overrides flags")
        sp.add_argument("--model")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int, default=1)
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
    args = _build_parser().parse_args(argv)
    try:
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
    except (SchemaError, ModelError, OSError, ValueError, est.EstimatorError) as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
