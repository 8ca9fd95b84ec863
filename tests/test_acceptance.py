"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single machine-greppable line "criterion NN: PASS ..."
(or FAIL) before asserting.  Statistical tolerances and replica counts are
fixed; every run uses pinned master seeds, so outcomes are deterministic.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import ASYM3, MODEL_POOL, RANGE2, TWO_D_OP, model_file, snapshot_sites
from gosp.cli import run
from gosp.dynamics import dual_evolve, dual_reaches, evolve, reaches
from gosp.estimators import (
    crossing_probability,
    death_bound_fit,
    density_spectrum,
    edge_speeds,
    path_crossing_transfer,
    shape_and_time_constants,
    subcritical_decay,
    survival_curve,
    torus_stats,
)
from gosp.field import FieldSpec


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def theta_curves():
    # shared by criteria 5 and 12: primal and dual survival at p=0.8, T=100
    t_start = time.perf_counter()
    sc = survival_curve(TWO_D_OP, 0.8, 100, 20000, seed=1005)
    dc = survival_curve(TWO_D_OP, 0.8, 100, 20000, seed=1006, dual=True)
    return sc, dc, time.perf_counter() - t_start


def _instances(count, seed=12345):
    rng = random.Random(seed)
    for _ in range(count):
        model = rng.choice(MODEL_POOL)
        p = rng.uniform(0.2, 0.9)
        field = FieldSpec(seed=rng.getrandbits(64), p=p)
        d_s = model.d - 1
        starts = [
            tuple(rng.randint(-4, 4) for _ in range(d_s))
            + (rng.randint(0, model.R - 1),)
            for _ in range(rng.randint(1, 2))
        ]
        T = rng.randint(1, 6)
        yield model, field, starts, T, rng


def test_criterion_01_oracle_equivalence():
    t_start = time.perf_counter()
    mismatches = 0
    for model, field, starts, T, rng in _instances(1000):
        traj = evolve(starts, model, field, T, snapshot_times=[T])
        if snapshot_sites(traj.snapshots[T]) != oracles.slab_state(
            model, field, starts, T
        ):
            mismatches += 1
        dual = dual_evolve(starts, model, field, T, snapshot_times=[T])
        if snapshot_sites(dual.snapshots[T]) != oracles.dual_slab_state(
            model, field, starts, T
        ):
            mismatches += 1
        d_s = model.d - 1
        a = starts[0][:-1] + (0,)
        b = tuple(rng.randint(-6, 6) for _ in range(d_s)) + (rng.randint(0, 6),)
        if reaches(a, b, model, field) != oracles.path_exists(model, field, a, b):
            mismatches += 1
    elapsed = time.perf_counter() - t_start
    _report(
        1, mismatches == 0 and elapsed < 30.0,
        f"1000 instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_duality():
    mismatches = 0
    for model, field, starts, T, rng in _instances(1000, seed=54321):
        d_s = model.d - 1
        a = starts[0][:-1] + (0,)
        b = tuple(rng.randint(-6, 6) for _ in range(d_s)) + (rng.randint(0, 6),)
        if reaches(a, b, model, field) != dual_reaches(b, a, model, field):
            mismatches += 1
    _report(2, mismatches == 0, f"1000 instances, {mismatches} mismatches")


def test_criterion_03_structural_identities():
    rng = random.Random(777)
    failures = []
    for k in range(150):
        model = rng.choice([TWO_D_OP, ASYM3, RANGE2])
        seed = rng.getrandbits(64)
        t = rng.randint(1, 5)
        f = FieldSpec(seed=seed, p=0.6)

        def sites(starts, field=f, model=model):
            traj = evolve(starts, model, field, t, snapshot_times=[t])
            return snapshot_sites(traj.snapshots[t])

        a, b = [(0, 0)], [(rng.randint(-3, 3), 0)]
        if sites(a + b) != sites(a) | sites(b):
            failures.append((k, "additivity"))
        if not sites(a) <= sites(a + b):
            failures.append((k, "attractiveness"))
        lo = sites(a, field=FieldSpec(seed=seed, p=0.4))
        hi = sites(a, field=FieldSpec(seed=seed, p=0.9))
        if not lo <= sites(a) <= hi:
            failures.append((k, "p-monotonicity"))
        traj = evolve(a, RANGE2, f, t + 1, snapshot_times=[t, t + 1])
        now = snapshot_sites(traj.snapshots[t])
        nxt = snapshot_sites(traj.snapshots[t + 1])
        if {x[0] for x in nxt if x[1] == 0} != {x[0] for x in now if x[1] == 1}:
            failures.append((k, "slab-shift"))
        for x in sites(a):
            if abs(x[0]) > model.gamma * (t + x[1]):
                failures.append((k, "cone-bound"))
                break
    _report(3, not failures, f"150 runs, failures: {failures[:3]}")


def test_criterion_04_sumset_law():
    f = FieldSpec(seed=0, p=1.0)
    bad = []
    for model in (ASYM3, TWO_D_OP):
        traj = evolve(
            [(0, 0)], model, f, 30, snapshot_times=range(1, 31)
        )
        for t in range(1, 31):
            got = {x[:-1] for x in snapshot_sites(traj.snapshots[t])}
            if got != oracles.sumset(model, t):
                bad.append((model.spec.offsets, t))
    _report(4, not bad, f"t <= 30 on both models, mismatches: {bad}")


def test_criterion_05_order_parameter_duality(theta_curves):
    sc, dc, elapsed = theta_curves
    p = 0.8
    diff = abs(p * sc.estimate.mean - dc.estimate.mean)
    sigma = np.hypot(p * sc.estimate.stderr, dc.estimate.stderr)
    _report(
        5, diff <= 3 * sigma and elapsed < 120.0,
        f"|p*theta - theta~| = {diff:.5f} <= 3*{sigma:.5f}, {elapsed:.1f}s",
    )


def test_criterion_06_shape_equals_edge_interval():
    sh = shape_and_time_constants(ASYM3, 0.8, 2000, 200, seed=1060)
    ed = edge_speeds(ASYM3, 0.8, 2000, 50, seed=1061)
    d_hi = abs(sh.u_hat[1] - ed.alpha.mean)
    d_lo = abs(sh.u_hat[0] - ed.beta.mean)
    _report(
        6, d_hi <= 0.05 and d_lo <= 0.05,
        f"U_hat = [{sh.u_hat[0]:.4f}, {sh.u_hat[1]:.4f}], "
        f"(beta, alpha) = ({ed.beta.mean:.4f}, {ed.alpha.mean:.4f}), "
        f"gaps ({d_lo:.4f}, {d_hi:.4f}) <= 0.05",
    )


def test_criterion_07_edge_symmetry():
    # in the normalised coordinates used here the symmetric two-point model
    # is sheared by +1/2 per step, so alpha + beta = 1 replaces alpha = -beta
    ed = edge_speeds(TWO_D_OP, 0.8, 2000, 50, seed=1070)
    dev = abs(ed.alpha.mean + ed.beta.mean - 1.0)
    _report(
        7, dev <= 0.02,
        f"|alpha + beta - 1| = {dev:.4f} <= 0.02 "
        f"(alpha={ed.alpha.mean:.4f}, beta={ed.beta.mean:.4f})",
    )


def test_criterion_08_monotone_edge_speed():
    results = [
        edge_speeds(TWO_D_OP, p, 400, 60, seed=1080)
        for p in (0.75, 0.80, 0.85, 0.90)
    ]
    ok = True
    gaps = []
    for lo, hi in zip(results, results[1:]):
        gap = hi.alpha.mean - lo.alpha.mean
        comb = np.hypot(hi.alpha.stderr, lo.alpha.stderr)
        gaps.append((round(gap, 4), round(comb, 4)))
        if gap <= comb:
            ok = False
    _report(8, ok, f"alpha gaps vs combined stderr: {gaps}")


def test_criterion_09_exponential_death_bound():
    df = death_bound_fit(TWO_D_OP, 0.8, 100, 100000, (10, 50), seed=1090)
    _report(
        9, df.slope < 0 and df.r2 >= 0.9,
        f"slope = {df.slope:.4f} < 0, R^2 = {df.r2:.4f} >= 0.9, "
        f"{df.n_deaths} deaths in window",
    )


def test_criterion_10_subcritical_decay_windows():
    dc = subcritical_decay(
        TWO_D_OP, 0.5, 90, 120_000_000, seed=1100,
        windows=((40, 60), (60, 80)), threads=2,
    )
    (_, c_a, n_a), (_, c_b, n_b) = dc.window_fits
    rel = abs(c_a - c_b) / ((c_a + c_b) / 2)
    _report(
        10, rel <= 0.10,
        f"c[40:60] = {c_a:.4f} ({n_a} tail), c[60:80] = {c_b:.4f} "
        f"({n_b} tail), relative gap {rel:.3f} <= 0.10",
    )


def test_criterion_11_torus_laws():
    sup = torus_stats(TWO_D_OP, 0.8, [12], 560, 300000, seed=1110)
    s = sup.per_size[0]
    sub = torus_stats(TWO_D_OP, 0.55, [8, 16, 32], 400, 2000, seed=1111)
    ratios = [sz.ratio_log for sz in sub.per_size]
    spread = max(ratios) / min(ratios)
    ok = (
        sup.regime == "super" and s.uncensored >= 500
        and s.ks_distance < 0.1 and spread <= 1.25
    )
    _report(
        11, ok,
        f"KS = {s.ks_distance:.4f} < 0.1 ({s.uncensored} uncensored); "
        f"mean/log n = {[round(r, 2) for r in ratios]}, "
        f"spread {spread:.3f} <= 1.25",
    )


def test_criterion_12_density(theta_curves):
    sc, _, _ = theta_curves
    p = 0.8
    target = p * sc.estimate.mean
    half = 0.5 * target
    d16 = density_spectrum(TWO_D_OP, p, 16, 200, 200, seed=1120)
    d32 = density_spectrum(TWO_D_OP, p, 32, 200, 200, seed=1121)
    diff = abs(d32.mean.mean - target)
    sigma = np.hypot(p * sc.estimate.stderr, d32.mean.stderr)
    f16 = float((d16.samples <= half).mean())
    f32 = float((d32.samples <= half).mean())
    ok = diff <= 3 * sigma and f32 <= f16
    _report(
        12, ok,
        f"|Y_32 - p*theta| = {diff:.4f} <= 3*{sigma:.4f}; "
        f"P(Y <= {half:.3f}): n=16 -> {f16}, n=32 -> {f32}",
    )


def test_criterion_13_crossing():
    ed = edge_speeds(TWO_D_OP, 0.8, 400, 60, seed=1130)
    slope = Fraction(round(1000 * ed.alpha.mean), 1000)
    freqs = {}
    for L in (50, 100, 200):
        c = crossing_probability(TWO_D_OP, 0.8, L, 0.2, slope, 400, seed=1131)
        freqs[L] = c.estimate.mean
    ok = (
        freqs[200] >= 0.9
        and freqs[100] >= freqs[50] - 0.03
        and freqs[200] >= freqs[100] - 0.03
    )
    _report(13, ok, f"slope {slope}, crossing freq by L: {freqs}")


def test_criterion_14_non_planarity_witness():
    # stored witness: the extracted crossing paths of the two tilted boxes
    # for the asymmetric model avoid each other, yet the thickened first
    # path meets the second
    r = path_crossing_transfer(
        ASYM3, 0.8, 0.0, 60, 10, seed=42,
        alpha="3/2", beta="-1/2", shift=10, half_width=8,
    )
    witness = r.records[2]
    witness_ok = (
        witness is not None and witness[1] and not witness[0]
    )
    planar = path_crossing_transfer(
        TWO_D_OP, 0.8, 0.0, 100, 520, seed=1140,
        alpha="7/10", beta="3/10", shift=8, half_width=8,
    )
    planar_ok = planar.crossed >= 500 and planar.transfer.mean == 1.0
    _report(
        14, witness_ok and planar_ok,
        f"stored witness (seed 42, replica 2): hat-meet={witness[1]}, "
        f"path-meet={witness[0]}; planar transfer "
        f"{planar.transfer.mean:.3f} over {planar.crossed} crossings",
    )


def test_criterion_15_reproducibility(tmp_path):
    plan = {
        "estimator": "survival", "model": model_file(tmp_path, TWO_D_OP),
        "seed": 1150, "p": 0.7, "T": 50, "reps": 5000,
    }
    run(dict(plan), parallelism=1, out_dir=str(tmp_path / "a"))
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    run(manifest["config"], parallelism=4, out_dir=str(tmp_path / "b"))
    same = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("results.jsonl", "summary.csv")
    )
    _report(15, same, "manifest re-run byte-identical across thread counts")
