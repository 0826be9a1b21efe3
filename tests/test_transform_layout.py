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

import math
import sys
import threading
from unittest import mock

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


def _check_against_oracle(geometry, u, stack=3, absolute=True):
    """decompose *u*, recompose, a ``(stack, *shape)`` recompose and
    (if *absolute*) recompose_absolute, each byte-equal to the
    oracle's."""
    natural, oracle = _pair(*geometry)
    levels = natural.extract_levels(natural.decompose(u))
    expected = oracle.extract_levels(oracle.decompose(u))
    assert len(levels) == len(expected)
    for got, want in zip(levels, expected):
        _assert_same(got, want)

    _assert_same(natural.recompose(natural.assemble_levels(levels)),
                 oracle.recompose(oracle.assemble_levels(levels)))

    scaled = [[lv * (1 - k / 8) for lv in levels] for k in range(stack)]
    _assert_same(
        natural.recompose(np.stack([natural.assemble_levels(s)
                                    for s in scaled]), overwrite=True),
        oracle.recompose(np.stack([oracle.assemble_levels(s)
                                   for s in scaled]), overwrite=True))

    if absolute:
        magnitudes = [np.abs(lv) for lv in levels]
        _assert_same(
            natural.recompose_absolute(natural.assemble_levels(magnitudes)),
            oracle.recompose_absolute(oracle.assemble_levels(magnitudes)))
    return natural, oracle


@settings(max_examples=80, deadline=None)
@given(geometries(), st.sampled_from([2, 4, 6, None]),
       st.sampled_from([1e-3, 1.0, 1e6]), st.integers(0, 2**32 - 1))
def test_natural_layout_matches_corner_packed_oracle(geometry, planes, scale,
                                                     seed):
    """Slabs of 2, 4 or 6 first-axis planes at the finest step (wider at
    coarser steps, whose planes are smaller; whole tiles of a stack), so
    the slabs' coupling is crossed at every boundary, or the shipped
    slab size."""
    shape = geometry[0]
    u = np.random.default_rng(seed).standard_normal(shape) * scale
    slab = (planes * 8 * math.prod(shape[1:]) if planes
            else transform_module._SLAB_BYTES)
    with mock.patch.object(transform_module, "_SLAB_BYTES", slab):
        natural, oracle = _check_against_oracle(geometry, u, stack=5)
        assert level_error_weights(natural) == level_error_weights(oracle)


@pytest.mark.parametrize("shape", [(80, 80, 80), (64, 64, 64), (81, 66, 34),
                                   (300, 200)])
def test_benchmark_fields_match_the_oracle(shape):
    u = np.random.default_rng(sum(shape)).standard_normal(shape)
    _check_against_oracle((shape, None, "hierarchical", 4), u)


def test_stack_of_tiles_matches_the_oracle():
    """K = 18 tiles of 16^3, a read batch: slabs of whole tiles."""
    natural, oracle = _pair((16, 16, 16), None, "hierarchical", 4)
    rng = np.random.default_rng(18)
    levels = [natural.extract_levels(natural.decompose(
        rng.standard_normal((16, 16, 16)))) for _ in range(18)]
    got = natural.recompose(np.stack(
        [natural.assemble_levels(lv) for lv in levels]), overwrite=True)
    want = oracle.recompose(np.stack(
        [oracle.assemble_levels(lv) for lv in levels]), overwrite=True)
    _assert_same(got, want)
    for k in range(18):
        _assert_same(got[k], natural.recompose(
            natural.assemble_levels(levels[k])))


@pytest.mark.parametrize("shape, hot", [
    ((8, 8), [(0, 6), (1, 0)]),  # the last axis, after the axis-0 pass
    ((3, 8), [(0, 6), (1, 0)]),  # the last axis alone halves
    ((3, 8, 3), [(0, 6, 1), (1, 0, 1)]),  # a middle axis
    ((8, 3), [(0, 1), (6, 1)]),  # a stack's tiles, along their first axis
])
def test_no_prediction_adds_nodes_of_two_fibers(shape, hot):
    """1e308 on the last even node of one fiber and on the first of the
    next (or of the next tile): no prediction adds the two, so no
    floating-point error is raised on the way. (Absolute recomposes do
    overflow at 1e308.)"""
    u = np.zeros(shape)
    for index in hot:
        u[index] = 1e308
    with np.errstate(all="raise"):
        _check_against_oracle((shape, None, "hierarchical", 4), u,
                              absolute=False)


def _lifted_shapes(call):
    """``(shape, axis)`` of every lattice *call* lifts, at a slab size of
    one byte (two planes a slab)."""
    seen, pairs = [], interpolation.pairs

    def spy(lattice, axis, buf):
        seen.append((lattice.shape, axis))
        return pairs(lattice, axis, buf)

    with mock.patch.object(transform_module, "_SLAB_BYTES", 1), \
            mock.patch.object(interpolation, "pairs", spy):
        call()
    return seen


def test_slab_count_of_a_sweep():
    """The patched slab size really cuts a step into slabs: each slab of
    two planes lifts its odd plane against the next slab's first, and a
    stack's slabs are whole tiles. ``mgard`` lifts a step as one slab."""
    field = np.ones((21, 6, 5))
    natural = MultilevelTransform((21, 6, 5), 1)
    seen = _lifted_shapes(lambda: natural.decompose(field))
    assert seen == [((3, 6, 5), 0)] * 10 + [((1, 6, 5), 0)]
    seen = _lifted_shapes(lambda: natural.recompose(np.ones((5, 21, 6, 5))))
    assert seen == [((2, 21, 6, 5), 1)] * 2 + [((1, 21, 6, 5), 1)]
    mgard = MultilevelTransform((21, 6, 5), 1, "mgard")
    assert _lifted_shapes(lambda: mgard.decompose(field)) == [
        ((21, 6, 5), 0)]


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
