"""Tests for the retrieval planner."""

import math
import warnings

import numpy as np
import pytest
from oracles.plan_greedy import plan_greedy_loop

from repro.core.errors import TransientStoreError
from repro.core.planner import (
    plan_at,
    plan_full,
    plan_greedy,
    plan_round_robin,
)
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, refactor
from repro.core.store import MemoryStore, open_field, store_field
from repro.core.stream import (
    LazyLevelStream,
    LevelStream,
    ReadState,
    SegmentRef,
)
from repro.data import generators as gen
from repro.lossless.hybrid import CompressedGroup


@pytest.fixture(scope="module")
def field():
    data = gen.gaussian_random_field((16, 17, 18), -2.5, seed=2,
                                     dtype=np.float64)
    return refactor(data)


class TestGreedy:
    def test_bound_met(self, field):
        for tol in (1e-1, 1e-3, 1e-5):
            plan = plan_greedy(field, tol)
            assert plan.error_bound <= tol

    def test_zero_tolerance_fetches_everything(self, field):
        plan = plan_greedy(field, 0.0)
        assert plan.groups_per_level == field.max_groups()

    def test_huge_tolerance_fetches_nothing(self, field):
        plan = plan_greedy(field, 1e300)
        assert plan.groups_per_level == [0] * len(field.levels)
        assert plan.fetched_bytes == 0

    def test_rejects_nonfinite_tolerance(self, field):
        # A NaN previously fell through every comparison and silently
        # produced an empty plan; inf is rejected with it ("retrieve
        # nothing" must be asked for with a finite loose tolerance).
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                plan_greedy(field, bad)
            with pytest.raises(ValueError, match="finite"):
                plan_round_robin(field, bad)

    def test_monotone_bytes(self, field):
        plans = [plan_greedy(field, t) for t in (1e-1, 1e-2, 1e-3, 1e-4)]
        sizes = [p.fetched_bytes for p in plans]
        assert sizes == sorted(sizes)

    def test_greedy_never_worse_than_round_robin(self, field):
        for tol in (1e-1, 1e-2, 1e-3, 1e-4):
            g = plan_greedy(field, tol)
            rr = plan_round_robin(field, tol)
            assert g.fetched_bytes <= rr.fetched_bytes

    def test_start_seeds_plan(self, field):
        base = plan_greedy(field, 1e-2)
        refined = plan_greedy(field, 1e-4, start=base.groups_per_level)
        assert refined.covers(base)

    def test_rejects_negative_tolerance(self, field):
        with pytest.raises(ValueError):
            plan_greedy(field, -1.0)

    def test_rejects_bad_start(self, field):
        with pytest.raises(ValueError):
            plan_greedy(field, 1e-2, start=[0])
        bad = [lv.num_groups + 1 for lv in field.levels]
        with pytest.raises(ValueError):
            plan_greedy(field, 1e-2, start=bad)


class TestRoundRobin:
    def test_bound_met(self, field):
        plan = plan_round_robin(field, 1e-3)
        assert plan.error_bound <= 1e-3

    def test_terminates_when_infeasible(self, field):
        plan = plan_round_robin(field, 0.0)
        assert plan.groups_per_level == field.max_groups()

    def test_rejects_negative_tolerance(self, field):
        with pytest.raises(ValueError):
            plan_round_robin(field, -0.5)


class TestInfiniteBounds:
    """Finite data near the float64 limit can give a level an infinite
    weighted bound. The running total must never take ``inf - inf``: a
    NaN total made the lookup fetch everything (with an "invalid value"
    warning) and stopped the loop one round in, above the tolerance."""

    @pytest.fixture(scope="class")
    def huge(self):
        data = np.zeros((8, 8))
        data[0, 6] = data[1, 0] = 1e308
        return refactor(data)

    def test_the_level_bound_is_infinite(self, huge):
        # The property the other tests here need.
        weight, level = huge.level_weights[1], huge.levels[1]
        assert math.isinf(weight * level.error_bound_for_groups(0))

    def test_smallest_greedy_prefix_meets_tolerance(self, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = plan_greedy(huge, 1e300)
            assert plan == plan_greedy_loop(huge, 1e300)
        assert plan.error_bound <= 1e300
        assert plan.groups_per_level == [8, 8]
        for level in range(2):  # the last greedy step was one of these
            fewer = list(plan.groups_per_level)
            fewer[level] -= 1
            assert plan_at(huge, fewer).error_bound > 1e300

    @pytest.mark.parametrize("tolerance", [0.0, 1e300, 1e306, 1.7e308])
    @pytest.mark.parametrize("start", [None, [0, 0], [3, 0], [0, 2]])
    def test_lookup_equals_loop(self, huge, tolerance, start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = plan_greedy(huge, tolerance, start)
            assert plan == plan_greedy_loop(huge, tolerance, start)
        if plan.error_bound > tolerance:
            assert plan.groups_per_level == huge.max_groups()


class TestHelpers:
    def test_plan_full(self, field):
        plan = plan_full(field)
        assert plan.groups_per_level == field.max_groups()
        assert plan.fetched_bytes == field.total_bytes()

    def test_covers(self, field):
        small = plan_greedy(field, 1e-1)
        big = plan_greedy(field, 1e-4)
        assert big.covers(small)
        if big.fetched_bytes > small.fetched_bytes:
            assert not small.covers(big)


class TestPrefixSumMetadata:
    """A lazy level answers ``bytes_for_groups`` / ``planes_in_groups``
    from prefix sums over its refs, built at init, with the numbers an
    eager level holding the same groups gives; planning never reads a
    segment, and the planner's output does not move."""

    @staticmethod
    def _no_resolve(keys, expected):
        raise AssertionError(f"planning fetched {keys}")

    @pytest.mark.parametrize("seed", range(20))
    def test_sums_equal_plain_sums_over_random_refs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 12))
        refs = [SegmentRef(f"k{i}", int(rng.integers(0, 500)),
                           int(rng.integers(1, 9)), 0) for i in range(n)]
        geometry = dict(level=0, num_elements=8, num_bitplanes=64,
                        exponent=0, max_abs=1.0, layout="natural",
                        warp_size=32)
        level = LazyLevelStream(**geometry, refs=refs,
                                reads=ReadState(self._no_resolve))
        plain = LevelStream(**geometry, groups=[
            CompressedGroup("direct", b"", (1,) * r.num_planes, 0)
            for r in refs])
        for g in [int(x) for x in rng.permutation(n + 3)] * 2:
            assert level.bytes_for_groups(g) == sum(
                r.nbytes for r in refs[:g])
            assert level.planes_in_groups(g) == plain.planes_in_groups(g)
            assert level.error_bound_for_groups(g) == (
                plain.error_bound_for_groups(g))

    def test_plan_greedy_unchanged(self, field):
        store = MemoryStore()
        store_field(store, field)
        lazy = open_field(store, field.name)
        start = [0] * len(field.levels)
        for tol in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 0.0):
            want = plan_greedy(field, tol, start=start)
            got = plan_greedy(lazy, tol, start=start)
            assert got == want
            start = [g // 2 for g in want.groups_per_level]

    def test_planning_reads_no_segment(self, field):
        """Over a store whose every segment read fails, ``plan_step`` /
        ``plan_steps`` plan from the index alone: the store sees only
        the index reads."""
        store = _IndexOnlyStore()
        store_field(store, field)
        index = f"{field.name}.index"
        sessions = [Reconstructor(open_field(store, field.name))
                    for _ in range(3)]
        assert store.log == [index] * 3
        steps = Reconstructor.plan_steps(sessions, 1e-3)
        assert [s.groups for s in steps] == [
            plan_greedy(field, 1e-3).groups_per_level] * 3
        first = sessions[0]
        assert first.plan_step(1e-2, relative=True).groups == plan_greedy(
            field, 1e-2 * field.value_range).groups_per_level
        assert first.plan_step().groups == field.max_groups()
        assert store.log == [index] * 3
        assert first.counters().segment_reads == 0


class _IndexOnlyStore(MemoryStore):
    """Logs every key read; any key but an index record fails."""

    def __init__(self):
        super().__init__()
        self.log: list[str] = []

    def get(self, key):
        self.log.append(key)
        if not key.endswith(".index"):
            raise TransientStoreError(key)
        return super().get(key)
