"""Counter-mode hash field: purity, coupling, uniformity, sprinkling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from conftest import TWO_D_OP, numpy_path
from oracles import site_open
from gosp import _openness
from gosp.estimators import survival_curve
from gosp.field import (
    FieldSpec,
    FieldError,
    SprinkleUnset,
    extend_hash,
    site_hash,
    spawn_seed,
    spawn_seeds,
    threshold_for,
)


def test_trivial_probabilities():
    f0 = FieldSpec(seed=1, p=0.0)
    f1 = FieldSpec(seed=1, p=1.0)
    coords = [np.array([0, 5, 123456]), np.array([0, -3, 789])]
    assert not f0.open_mask(coords).any()
    assert f1.open_mask(coords).all()


def test_purity():
    f = FieldSpec(seed=42, p=0.5)
    coords = [np.arange(-5, 5), np.full(10, 9)]
    assert np.array_equal(f.open_mask(coords), f.open_mask(coords))


def test_invalid_p_rejected():
    with pytest.raises(FieldError):
        FieldSpec(seed=1, p=1.5)
    with pytest.raises(FieldError):
        FieldSpec(seed=1, p=0.9, sprinkle_eps=0.2)
    # the bound lives in threshold_for, which used to clamp p into [0, 1]
    # and fail on NaN inside Fraction; every run refuses through it
    for p in (float("nan"), -0.1, 1.5, float("inf"), -float("inf")):
        with pytest.raises(FieldError, match=r"p must be in \[0,1\]"):
            threshold_for(p)
        with pytest.raises(FieldError, match=r"p must be in \[0,1\]"):
            FieldSpec(seed=1, p=p)
    with pytest.raises(FieldError, match=r"p must be in \[0,1\]"):
        survival_curve(TWO_D_OP, 1.5, 5, 4, seed=1)


@given(st.integers(0, 2**64 - 1), st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
@settings(max_examples=200)
def test_monotone_coupling_in_p(seed, site):
    coords = [np.array([c]) for c in site]
    opens = [bool(FieldSpec(seed=seed, p=p).open_mask(coords)[0]) for p in (0.2, 0.5, 0.8)]
    assert opens == sorted(opens)


def test_vectorised_matches_scalar():
    f = FieldSpec(seed=9, p=0.37)
    xs = np.arange(-20, 20)
    ts = np.full_like(xs, 3)
    mask = f.open_mask([xs, ts])
    for x, m in zip(xs, mask):
        assert site_open(f, (int(x), 3)) == bool(m)


def test_chi_square_uniformity():
    # 10^6 hashed sites bucketed into 256 cells; significance 1e-3
    xs, ts = np.meshgrid(np.arange(1000), np.arange(1000), indexing="ij")
    h = site_hash(12345, [xs.ravel(), ts.ravel()])
    buckets = (h >> np.uint64(56)).astype(np.int64)
    counts = np.bincount(buckets, minlength=256)
    chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
    assert stats.chi2.sf(chi2, df=255) > 1e-3


def test_sprinkle_marginal_and_coupling():
    f = FieldSpec(seed=77, p=0.5, sprinkle_eps=0.2)
    xs, ts = np.meshgrid(np.arange(1000), np.arange(1000), indexing="ij")
    coords = [xs.ravel(), ts.ravel()]
    base = f.open_mask(coords)
    comp = base | f.extra_mask(coords)
    # base-open implies sprinkled-open on the same seed
    assert not (base & ~comp).any()
    n = comp.size
    se = np.sqrt(0.7 * 0.3 / n)
    assert abs(comp.mean() - 0.7) <= 3 * se
    assert abs(base.mean() - 0.5) <= 3 * np.sqrt(0.25 / n)


def test_sprinkle_zero_eps_identical():
    f = FieldSpec(seed=3, p=0.4, sprinkle_eps=0.0)
    xs = np.arange(-100, 100)
    ts = np.zeros_like(xs)
    assert not f.extra_mask([xs, ts]).any()
    assert not f.extra_open((0, 0))


def test_sprinkle_unset():
    f = FieldSpec(seed=3, p=0.4)
    with pytest.raises(SprinkleUnset):
        f.extra_open((0, 0))


def test_threshold_exact_and_monotone():
    assert threshold_for(0.0) == 0
    assert threshold_for(1.0) == 2**64
    ps = [0.1, 0.25, 0.5, 0.75, 0.9]
    ths = [threshold_for(p) for p in ps]
    assert ths == sorted(ths)
    assert threshold_for(0.5) == 2**63


def test_spawn_seeds_matches_scalar():
    got = spawn_seeds(999, 5, 50)
    want = [spawn_seed(999, i) for i in range(5, 50)]
    assert [int(s) for s in got] == want


def test_spawn_seed_large_inputs_keep_low_bits():
    # indices above 2**63 must not round through float64
    a = spawn_seed(1, 2**63 + 1)
    b = spawn_seed(1, 2**63 + 2)
    assert a != b
    got = spawn_seeds(1, 2**63 + 1, 2**63 + 3)
    assert [int(s) for s in got] == [a, b]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**64 - 1), st.integers(0, 2),
    st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=3),
    st.integers(-2**62, 2**62), st.integers(0, 1),
)
def test_extend_hash_is_the_prefix_identity(seed, base, xs, c, stream):
    coords = [np.arange(base, base + 4, dtype=np.int64) * x for x in xs]
    prefix = site_hash(seed, coords, stream=stream)
    full = site_hash(seed, coords + [np.int64(c)], stream=stream)
    assert (extend_hash(prefix, c) == full).all()


def _grid_coords(axes):
    """One int64 coordinate array per (start, length) axis, varying along
    its own axis of the grid only, as ``BatchOpenness`` asks for them."""
    d = len(axes)
    return [np.arange(lo, lo + n, dtype=np.int64).reshape((-1,) + (1,) * (d - a - 1))
            for a, (lo, n) in enumerate(axes)]


_STARTS = st.one_of(st.integers(-50, 50), st.integers(-2**63, -2**63 + 8),
                    st.integers(2**63 - 16, 2**63 - 9))


@pytest.mark.skipif(_openness.KIND != "native", reason="native library not loaded")
@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=5), st.integers(0, 2),
       st.lists(st.tuples(_STARTS, st.integers(0, 7)), min_size=1, max_size=3))
# no replica; an empty grid axis; coordinates at both ends of int64 and
# seeds above 2**63
@example([], 0, [(0, 3), (1, 2)])
@example([1, 2], 1, [(0, 3), (5, 0), (1, 2)])
@example([2**64 - 1, 2**63], 2, [(-2**63, 3), (2**63 - 4, 3)])
def test_native_site_hash_matches_numpy(seeds, stream, axes):
    column = np.array(seeds, dtype=np.uint64).reshape((-1,) + (1,) * len(axes))
    coords = _grid_coords(axes)
    with mock.patch.object(_openness, "prefix_hash", wraps=_openness.prefix_hash) as native:
        got = site_hash(column, coords, stream=stream)
    assert native.call_count == 1
    with numpy_path():
        want = site_hash(column, coords, stream=stream)
    assert got.dtype == want.dtype == np.uint64
    assert got.shape == want.shape == (len(seeds),) + tuple(n for _, n in axes)
    assert np.array_equal(got, want)
