"""Neighbourhood validation, orientation and lattice index."""

import math

import pytest
from hypothesis import given, strategies as st

from gosp.model import (
    NeighborhoodSpec,
    NonPositiveTimeComponent,
    ProperSublattice,
    TooFewOffsets,
    ZeroOffset,
    lattice_index,
    validate,
)

from conftest import MODEL_POOL


def test_asymmetric_three_point_model():
    m = validate(NeighborhoodSpec(d=2, offsets=((-1, 1), (0, 1), (2, 1))))
    assert m.R == 1
    assert m.gamma == 2
    assert lattice_index(m.spec) == 1


def test_symmetric_two_point_is_proper_sublattice():
    with pytest.raises(ProperSublattice) as exc:
        validate(NeighborhoodSpec(d=2, offsets=((-1, 1), (1, 1))))
    assert exc.value.index == 2


def test_single_offset_rejected():
    with pytest.raises(TooFewOffsets):
        validate(NeighborhoodSpec(d=2, offsets=((0, 1),)))


def test_zero_offset_rejected():
    with pytest.raises(ZeroOffset):
        validate(NeighborhoodSpec(d=2, offsets=((0, 0), (1, 1))))


def test_non_positive_time_component_reports_offset():
    with pytest.raises(NonPositiveTimeComponent) as exc:
        validate(NeighborhoodSpec(d=2, offsets=((0, 1), (1, 0))))
    assert exc.value.offset == (1, 0)


def test_lattice_index_examples():
    assert lattice_index(NeighborhoodSpec(d=2, offsets=((-1, 1), (1, 1)))) == 2
    assert lattice_index(NeighborhoodSpec(d=2, offsets=((0, 1), (1, 0)))) == 1
    assert lattice_index(
        NeighborhoodSpec(d=2, offsets=((-1, 1), (0, 1), (2, 1)))
    ) == 1


def test_rank_deficient_lattice_is_infinite():
    assert lattice_index(
        NeighborhoodSpec(d=2, offsets=((0, 1), (0, 2)))
    ) == math.inf


def test_gamma_bound_on_pool():
    for m in MODEL_POOL:
        assert any(
            max(abs(c) for c in y) == m.gamma * u for y, u in m.split_offsets
        )
        for y, u in m.split_offsets:
            assert max(abs(c) for c in y) <= m.gamma * u


_offsets = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-1, 3)),
    min_size=2, max_size=5, unique=True,
).map(tuple)


@given(_offsets)
def test_validate_agrees_with_index_and_orientation(offsets):
    spec = NeighborhoodSpec(d=2, offsets=offsets)
    ok_form = (
        all(off != (0, 0) for off in offsets)
        and all(off[-1] >= 1 for off in offsets)
        and lattice_index(spec) == 1
    )
    if ok_form:
        m = validate(spec)
        # orientation with u = e_d holds whenever validation succeeds
        assert all(u >= 1 for _, u in m.split_offsets)
    else:
        with pytest.raises(Exception):
            validate(spec)


def test_cached_spatial_bounds_keep_pickle_and_equality():
    import pickle

    for model in MODEL_POOL:
        fresh = validate(model.spec)
        bounds = (fresh.spatial_min, fresh.spatial_max)
        assert bounds == tuple(
            tuple(f(y[i] for y, _ in fresh.split_offsets) for i in range(fresh.d - 1))
            for f in (min, max)
        )
        # a model with cached bounds equals, hashes and pickles like one without
        assert fresh == validate(model.spec)
        assert hash(fresh) == hash(validate(model.spec))
        back = pickle.loads(pickle.dumps(fresh))
        assert back == fresh
        assert (back.spatial_min, back.spatial_max) == bounds
