"""The natural-layout transform against its corner-packed oracle.

:class:`~repro.decompose.MultilevelTransform` lifts in place on the
field's grid; :mod:`oracles.corner_transform` keeps the corner-packed
layout it replaced. Per element the two do the same arithmetic in the
same order, so every public output — extracted levels (the stored
order), recompositions (single and batched), absolute recompositions
and the error weights they feed — must match byte for byte, and the
level index sets must partition the field (the decode body fills its
coefficient stack without zeroing it first).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.corner_transform import CornerPackedTransform
from repro.decompose import (
    MultilevelTransform,
    interpolation,
    level_error_weights,
    num_levels_for_shape,
    transform_for,
)
from repro.decompose import transform as transform_module


@st.composite
def geometries(draw):
    """1-3-D shapes (non-dyadic, some axes too short to halve) with any
    level count up to the deepest."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 27), min_size=ndim,
                                max_size=ndim)))
    min_size = draw(st.sampled_from([2, 4]))
    deepest = num_levels_for_shape(shape, min_size)
    num_levels = draw(st.integers(0, deepest))
    mode = draw(st.sampled_from(["hierarchical", "mgard"]))
    return shape, num_levels, mode, min_size


def _pair(shape, num_levels, mode, min_size):
    return (MultilevelTransform(shape, num_levels, mode, min_size),
            CornerPackedTransform(shape, num_levels, mode, min_size))


def _assert_same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(geometries(), st.integers(0, 2**32 - 1))
def test_natural_layout_matches_corner_packed_oracle(geometry, seed):
    shape = geometry[0]
    natural, oracle = _pair(*geometry)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(shape)

    levels = natural.extract_levels(natural.decompose(u))
    expected = oracle.extract_levels(oracle.decompose(u))
    assert len(levels) == len(expected)
    for got, want in zip(levels, expected):
        _assert_same(got, want)

    _assert_same(natural.recompose(natural.assemble_levels(levels)),
                 oracle.recompose(oracle.assemble_levels(levels)))

    scaled = [[lv * (k + 1.5) for lv in levels] for k in range(3)]
    stack = np.stack([natural.assemble_levels(s) for s in scaled])
    oracle_stack = np.stack([oracle.assemble_levels(s) for s in scaled])
    _assert_same(natural.recompose(stack, overwrite=True),
                 oracle.recompose(oracle_stack, overwrite=True))

    magnitudes = [np.abs(lv) for lv in levels]
    _assert_same(
        natural.recompose_absolute(natural.assemble_levels(magnitudes)),
        oracle.recompose_absolute(oracle.assemble_levels(magnitudes)))
    assert level_error_weights(natural) == level_error_weights(oracle)


@settings(max_examples=60, deadline=None)
@given(geometries())
def test_level_indices_partition_the_field(geometry):
    natural, oracle = _pair(*geometry)
    indices = natural.level_indices()
    assert [idx.size for idx in indices] == oracle.level_sizes()
    combined = np.sort(np.concatenate(indices))
    np.testing.assert_array_equal(combined, np.arange(int(np.prod(
        geometry[0]))))


@pytest.mark.parametrize("shape", [(21, 22, 23), (23, 23, 23)])
@pytest.mark.parametrize("num_levels", [1, 2])
def test_mgard_absolute_recompose_ignores_view_layout(shape, num_levels):
    """Shapes where the entrywise-absolute MGARD correction's matrix
    product summed in a layout-dependent order (row-major vs transposed
    BLAS call) before its operand was made contiguous."""
    natural, oracle = _pair(shape, num_levels, "mgard", 4)
    rng = np.random.default_rng(7)
    levels = [np.abs(rng.standard_normal(n)) for n in natural.level_sizes()]
    _assert_same(natural.recompose_absolute(natural.assemble_levels(levels)),
                 oracle.recompose_absolute(oracle.assemble_levels(levels)))
    assert level_error_weights(natural) == level_error_weights(oracle)


def test_abs_correction_is_layout_independent():
    n = 23
    detail = np.abs(np.random.default_rng(3).standard_normal((n // 2, 21, 22)))
    want = interpolation.abs_correction_from_detail(detail, n)
    host = np.zeros((n // 2, 21, 2 * 22))
    host[:, :, ::2] = detail
    for view in (np.asfortranarray(detail), host[:, :, ::2],
                 np.moveaxis(np.ascontiguousarray(
                     np.moveaxis(detail, 0, -1)), -1, 0)):
        _assert_same(interpolation.abs_correction_from_detail(view, n), want)


def test_transform_for_is_one_read_only_transform_per_geometry():
    a = transform_for((20, 24), None, "hierarchical", 4)
    assert transform_for([20, 24]) is a
    assert transform_for((20, 24), num_levels_for_shape((20, 24))) is a
    assert transform_for((20, 24), mode="mgard") is not a
    for index in a.level_indices():
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 0


def test_concurrent_first_calls_share_one_transform():
    """Threads that ask for a geometry at once all get the one object
    (an unguarded ``lru_cache`` builds and returns one per racer)."""
    geometry = ((37, 29, 11), None, "mgard", 2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            transform_module._shared_transform.cache_clear()
            barrier = threading.Barrier(8)
            got = []

            def ask():
                barrier.wait(timeout=10)
                got.append(transform_for(*geometry))

            threads = [threading.Thread(target=ask) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == 8
            assert len({id(t) for t in got}) == 1
    finally:
        sys.setswitchinterval(switch)
