"""Tests for the retrieval planner."""

import json

import numpy as np
import pytest
from oracles.plan_greedy import plan_greedy_loop

from repro.core.errors import TransientStoreError
from repro.core.planner import (
    plan_for_planes,
    plan_full,
    plan_greedy,
    plan_greedy_many,
    plan_round_robin,
)
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, refactor
from repro.core.store import MemoryStore, open_field, store_field
from repro.core.stream import LazyLevelStream, LevelStream, SegmentRef
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


class TestHelpers:
    def test_plan_full(self, field):
        plan = plan_full(field)
        assert plan.groups_per_level == field.max_groups()
        assert plan.fetched_bytes == field.total_bytes()

    def test_plan_for_planes(self, field):
        want = [3] * len(field.levels)
        plan = plan_for_planes(field, want)
        for lv, g, w in zip(field.levels, plan.groups_per_level, want):
            assert lv.planes_in_groups(g) >= min(
                w, lv.planes_in_groups(lv.num_groups)
            )

    def test_plan_for_planes_validates(self, field):
        with pytest.raises(ValueError):
            plan_for_planes(field, [1])

    def test_covers(self, field):
        small = plan_greedy(field, 1e-1)
        big = plan_greedy(field, 1e-4)
        assert big.covers(small)
        if big.fetched_bytes > small.fetched_bytes:
            assert not small.covers(big)


class TestPrefixSumMetadata:
    """A lazy level answers ``bytes_for_groups`` / ``planes_in_groups``
    from prefix sums (built once its plane counts are known), with the
    same numbers the plain sums over its refs give, pre-metadata refs
    included, and the planner's output does not move."""

    @staticmethod
    def _level(refs, planes):
        def fetch(wanted):
            for seq, index, key in wanted:
                seq.memoize(index, CompressedGroup(
                    "direct", b"", (1,) * planes[index], 0).to_bytes())

        return LazyLevelStream(
            level=0, num_elements=8, num_bitplanes=64, exponent=0,
            max_abs=1.0, layout="natural", warp_size=32, refs=refs,
            fetch=fetch,
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_sums_equal_plain_sums_over_random_refs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 12))
        planes = [int(p) for p in rng.integers(1, 9, n)]
        known = rng.random(n) < (0.5 if seed % 2 else 1.0)
        refs = [SegmentRef(f"k{i}", int(rng.integers(0, 500)),
                           planes[i] if known[i] else None)
                for i in range(n)]
        nbytes = [r.nbytes for r in refs]
        level = self._level(refs, planes)
        for g in [int(x) for x in rng.permutation(n + 3)] * 2:
            assert level.bytes_for_groups(g) == sum(nbytes[:g])
            assert level.planes_in_groups(g) == sum(planes[:g])
            # the lazy level's bound is the plain level's computation
            assert level.error_bound_for_groups(g) == (
                LevelStream.error_bound_for_groups(level, g))
        assert level.planes_in_groups(n) == sum(planes)

    @pytest.mark.parametrize("drop_metadata", [False, True])
    def test_plan_greedy_unchanged(self, field, drop_metadata):
        store = MemoryStore()
        index = store_field(store, field)
        if drop_metadata:  # a pre-metadata index: planes resolve lazily
            index["segments"] = {}
            store.put(f"{field.name}.index", json.dumps(index).encode())
        lazy = open_field(store, field.name)
        start = [0] * len(field.levels)
        for tol in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 0.0):
            want = plan_greedy(field, tol, start=start)
            got = plan_greedy(lazy, tol, start=start)
            assert got == want
            start = [g // 2 for g in want.groups_per_level]


class _LoggingStore(MemoryStore):
    """Logs every key read; the keys in ``broken`` fail."""

    def __init__(self):
        super().__init__()
        self.log: list[str] = []
        self.broken: set[str] = set()

    def get(self, key):
        self.log.append(key)
        if key in self.broken:
            raise TransientStoreError(key)
        return super().get(key)


class TestPreMetadataResolution:
    """On a pre-metadata index (no plane counts), planning resolves
    groups to learn their plane counts. The lookup resolves exactly the
    segments the greedy loop resolved, in the same order: a coarse plan
    does not read the whole field, and a segment no plan looks at can
    fail without failing the plan."""

    @staticmethod
    def _legacy_store(field):
        store = _LoggingStore()
        index = store_field(store, field)
        index["segments"] = {}
        store.put(f"{field.name}.index", json.dumps(index).encode())
        return store

    @staticmethod
    def _planned(store, field, plan):
        """*plan*'s result on a fresh open, and the keys it read."""
        lazy = open_field(store, field.name)
        store.log.clear()
        return plan(lazy), list(store.log), lazy

    @pytest.mark.parametrize("seed", range(8))
    def test_reads_what_the_loop_read(self, field, seed):
        rng = np.random.default_rng(seed)
        store = self._legacy_store(field)
        tolerances = rng.choice([1e-1, 1e-2, 1e-3, 1e-5, 0.0], 4)
        starts = [None] + [
            [int(rng.integers(0, lv.num_groups + 1)) for lv in field.levels]
            for _ in range(3)]

        def staircase(planner):
            def run(lazy):
                return [planner(lazy, t, s)
                        for t, s in zip(tolerances, starts)]
            return run

        want, want_log, loop_field = self._planned(
            store, field, staircase(plan_greedy_loop))
        got, got_log, lazy = self._planned(
            store, field, staircase(plan_greedy))
        assert got == want
        assert got_log == want_log
        assert [lv.groups.resolved_indices for lv in lazy.levels] == [
            lv.groups.resolved_indices for lv in loop_field.levels]
        assert lazy.io_counters == loop_field.io_counters

    def test_batch_reads_field_after_field(self, field):
        """A batch resolves as the fields planned one by one would."""
        store = self._legacy_store(field)
        tolerances = [1e-2, 1e-4, 1e-1]
        logs = []
        for planner in (
            lambda fields: plan_greedy_many(fields, tolerances, [None] * 3),
            lambda fields: [plan_greedy_loop(f, t)
                            for f, t in zip(fields, tolerances)],
        ):
            fresh = [open_field(store, field.name) for _ in tolerances]
            store.log.clear()
            logs.append((planner(fresh), list(store.log)))
        assert logs[0] == logs[1]

    def test_session_first_plan_traffic_equals_the_loops(self, field):
        store = self._legacy_store(field)
        session = Reconstructor(open_field(store, field.name))
        session.reconstruct(1e-2)
        loop = Reconstructor(open_field(store, field.name))
        loop.reconstruct(plan=plan_greedy_loop(loop.field, 1e-2))
        assert session.counters() == loop.counters()
        assert session.counters().cold_bytes < store.total_bytes() // 2

    def test_unplanned_deep_segment_fault_does_not_fail_the_plan(
            self, field):
        plan = plan_greedy(field, 1e-1)
        store = self._legacy_store(field)
        lazy = open_field(store, field.name)
        # The loop looked one group past the plan on a level, no further.
        store.broken = {ref.key for lv, g in zip(
            lazy.levels, plan.groups_per_level) for ref in lv.refs[g + 1:]}
        assert store.broken
        result = Reconstructor(lazy).reconstruct(1e-1)
        assert result.plan == plan
        assert not store.broken & set(store.log)
