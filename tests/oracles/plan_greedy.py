"""The greedy planner as a loop, :func:`repro.core.planner.plan_greedy`'s
oracle.

The library plans by sort and lookup (:func:`~repro.core.planner.
plan_greedy_many`). This module keeps the round-by-round greedy loop it
replaced — each round scores every level's next group by error reduction
per byte (``inf`` from an infinite bound) and fetches the best, the
lowest level on a tie, until the running bound meets the tolerance; an
infinite running bound is summed afresh each round — so tests can check
the lookup plan for plan.

Import it with the ``tests`` directory on ``sys.path`` (pytest puts it
there for files under ``tests/``)::

    from oracles.plan_greedy import plan_greedy_loop
"""

from __future__ import annotations

import math

from repro.core.planner import RetrievalPlan
from repro.util.validation import check_tolerance


def plan_greedy_loop(field, tolerance: float, start=None) -> RetrievalPlan:
    """The greedy plan of *field* at *tolerance* from *start*, by loop."""
    tolerance = check_tolerance(tolerance)
    groups = list(start) if start is not None else [0] * len(field.levels)
    if len(groups) != len(field.levels):
        raise ValueError("start must have one entry per level")
    for g, lv in zip(groups, field.levels):
        if not 0 <= g <= lv.num_groups:
            raise ValueError("start group count out of range")
    per_level = [
        w * lv.error_bound_for_groups(g)
        for w, lv, g in zip(field.level_weights, field.levels, groups)
    ]
    total = sum(per_level)
    while total > tolerance:
        best_idx, best_score, best_new = -1, 0.0, 0.0
        for idx, lv in enumerate(field.levels):
            g = groups[idx]
            if g >= lv.num_groups:
                continue
            new_err = field.level_weights[idx] * lv.error_bound_for_groups(
                g + 1
            )
            gain = per_level[idx] - new_err
            cost = lv.bytes_for_groups(g + 1) - lv.bytes_for_groups(g)
            score = math.inf if math.isinf(per_level[idx]) \
                else gain / max(cost, 1)
            if best_idx < 0 or score > best_score:
                best_idx, best_score, best_new = idx, score, new_err
        if best_idx < 0:
            break  # everything fetched; tolerance below lossless floor
        groups[best_idx] += 1
        old = per_level[best_idx]
        per_level[best_idx] = best_new
        # inf - inf would make the total NaN and end the loop unmet.
        total = sum(per_level) if math.isinf(total) \
            else total + (best_new - old)
    return RetrievalPlan(
        groups,
        sum(w * lv.error_bound_for_groups(g)
            for w, lv, g in zip(field.level_weights, field.levels, groups)),
        sum(lv.bytes_for_groups(g) for lv, g in zip(field.levels, groups)),
    )
