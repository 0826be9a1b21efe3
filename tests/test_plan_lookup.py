"""Plans by lookup equal the greedy loop's, plan for plan.

:func:`repro.core.planner.plan_greedy_many` sorts each field's steps by
(−prefix minimum of the level's score sequence, level, group) and stops
at the first prefix whose running bound meets the tolerance. The loop it
replaced is the oracle (``tests/oracles/plan_greedy.py``): groups, bound
and bytes must be equal — not close — from every start, on refactored
fields and on synthetic levels built to tie.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.plan_greedy import plan_greedy_loop

from repro.core.planner import (
    plan_full,
    plan_greedy,
    plan_greedy_many,
)
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, refactor
from repro.core.stream import LazyLevelStream, RefactoredField, SegmentRef
from repro.data import generators as gen


@pytest.fixture(scope="module")
def fields():
    shapes = [(16, 17, 18), (9, 9, 9), (8, 33, 5), (12, 20, 6)]
    out = []
    for i, shape in enumerate(shapes):
        data = gen.gaussian_random_field(shape, -2.0 - i / 4, seed=i,
                                         dtype=np.float64)
        encoding = "negabinary" if i % 2 else "sign_magnitude"
        out.append(refactor(data, RefactorConfig(signed_encoding=encoding)))
    return out


def synthetic_field(rng, num_levels: int) -> RefactoredField:
    """Levels from random refs: small integer byte counts (zeros and
    repeats included) and one shared weight, so scores tie often."""
    template = [(int(rng.integers(1, 5)), int(rng.integers(0, 4)))
                for _ in range(int(rng.integers(1, 5)))]

    def level(idx):
        if rng.random() < 0.5:  # a copy of the template: ties across levels
            groups = template
        else:
            groups = [(int(rng.integers(1, 5)), int(rng.integers(0, 4)))
                      for _ in range(int(rng.integers(0, 6)))]
        refs = [SegmentRef(f"l{idx}g{g}", nbytes, planes, 0)
                for g, (planes, nbytes) in enumerate(groups)]
        return LazyLevelStream(
            level=idx, num_elements=8, num_bitplanes=12,
            exponent=int(rng.integers(-3, 4)),
            max_abs=float(rng.choice([0.0, 0.75, 3.0])), layout="natural",
            warp_size=32, refs=refs, reads=None,
            signed_encoding=str(rng.choice(["sign_magnitude",
                                            "negabinary"])),
        )

    weight = float(rng.choice([1.0, 0.5]))
    return RefactoredField(
        shape=(8,), dtype=np.dtype(np.float64), mode="interp",
        num_levels=num_levels, min_size=1, group_size=1, design="x",
        level_weights=[weight] * num_levels,
        levels=[level(i) for i in range(num_levels)], value_range=1.0,
    )


def random_start(rng, field) -> list[int]:
    return [int(rng.integers(0, lv.num_groups + 1)) for lv in field.levels]


TOLERANCES = st.sampled_from(
    [0.0, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 1e300])


class TestLookupEqualsLoop:
    @settings(max_examples=250, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           tolerance=TOLERANCES | st.sampled_from([1e307, 1.7e308]),
           num_levels=st.integers(1, 5),
           weight=st.sampled_from([None, None, 1e300, 1e308, 1.7e308]))
    def test_synthetic_levels_with_ties(self, seed, tolerance, num_levels,
                                        weight):
        """Weights near the float64 limit overflow some level bounds to
        inf (several groups deep, and finite terms whose sum overflows):
        no warning either, and a plan that misses its tolerance fetched
        everything."""
        rng = np.random.default_rng(seed)
        field = synthetic_field(rng, num_levels)
        if weight is not None:
            field = dataclasses.replace(field,
                                        level_weights=[weight] * num_levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for start in (None, random_start(rng, field)):
                plan = plan_greedy(field, tolerance, start)
                assert plan == plan_greedy_loop(field, tolerance, start)
                if plan.error_bound > tolerance:
                    assert plan.groups_per_level == field.max_groups()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_of_fields_from_random_starts(self, fields, data):
        """One lookup over fields of different level and group counts
        (a padded batch) equals each field's own loop."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        picked = data.draw(st.lists(st.sampled_from(range(len(fields))),
                                    min_size=1, max_size=6))
        batch = [fields[i] for i in picked] + [synthetic_field(rng, 3)]
        tolerances = [data.draw(TOLERANCES) for _ in batch]
        starts = [random_start(rng, f) if rng.random() < 0.7 else None
                  for f in batch]
        got = plan_greedy_many(batch, tolerances, starts)
        assert got == [plan_greedy_loop(f, t, s)
                       for f, t, s in zip(batch, tolerances, starts)]

    @settings(max_examples=25, deadline=None)
    @given(
        index=st.integers(0, 3),
        staircase=st.lists(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4, 1e-6]),
                           min_size=1, max_size=6),
        detour=st.sampled_from([None, "full", "explicit"]),
    )
    def test_session_staircases(self, fields, index, staircase, detour):
        """Tightening and loosening staircases from committed starts;
        a detour through ``plan_full`` or a step to explicit group
        counts leaves the session off the greedy path, and later steps
        start there."""
        field = fields[index]
        recon = Reconstructor(field)
        for i, relative in enumerate(staircase):
            if i == 1 and detour == "full":
                recon.reconstruct(None)
            elif i == 1 and detour == "explicit":
                groups = [max(have, lv.num_groups // 2) for have, lv in zip(
                    recon.fetched_groups, field.levels)]
                detour_step = dataclasses.replace(recon.plan_step(None),
                                                  groups=groups)
                recon.fetch_step(detour_step)
                assert recon.decode_step(
                    detour_step).plan.groups_per_level == groups
            start = recon.fetched_groups
            absolute = relative * field.value_range
            step = recon.plan_step(relative, relative=True)
            expect = plan_greedy_loop(field, absolute, start)
            assert step.groups == expect.groups_per_level
            assert recon.decode_step(step).plan == expect


class TestLookupEdges:
    def test_start_validation(self, fields):
        field = fields[0]
        with pytest.raises(ValueError, match="one entry per level"):
            plan_greedy(field, 1e-3, start=[0])
        with pytest.raises(ValueError, match="out of range"):
            plan_greedy(field, 1e-3,
                        start=[lv.num_groups + 1 for lv in field.levels])
        with pytest.raises(ValueError, match="out of range"):
            plan_greedy(field, 1e-3, start=[-1] * len(field.levels))

    def test_empty_batch_and_full_start(self, fields):
        assert plan_greedy_many([], [], []) == []
        field = fields[1]
        full = plan_full(field)
        assert plan_greedy(field, 0.0, start=field.max_groups()) == full

    def test_plan_steps_batch_equals_one_by_one(self, fields):
        recons = [Reconstructor(f) for f in fields]
        batch = Reconstructor.plan_steps(recons, 1e-3)
        for recon, step in zip(recons, batch):
            one = recon.plan_step(1e-3)
            assert (step.groups, step.incremental_bytes, step.tolerance) \
                == (one.groups, one.incremental_bytes, one.tolerance)
