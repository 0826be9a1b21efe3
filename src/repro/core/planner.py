"""Retrieval planning: which plane groups to fetch for a tolerance.

Given per-level error weights ``w_ℓ`` and the per-level bound as a
function of fetched groups, the planner minimizes fetched bytes subject
to ``Σ_ℓ w_ℓ · bound_ℓ(g_ℓ) ≤ τ``. The default greedy strategy fetches,
at each step, the group with the best error-reduction-per-byte — MDR's
adaptive retrieval. A round-robin strategy (one group per level per
round, coarse to fine) is provided as the ablation baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.stream import RefactoredField
from repro.util.validation import check_tolerance


@dataclass
class RetrievalPlan:
    """Per-level group counts plus the resulting guarantees."""

    groups_per_level: list[int]
    error_bound: float
    fetched_bytes: int

    def covers(self, other: "RetrievalPlan") -> bool:
        """True if this plan fetches at least everything *other* does."""
        return all(
            a >= b
            for a, b in zip(self.groups_per_level, other.groups_per_level)
        )


def _bound(field: RefactoredField, groups: list[int]) -> float:
    return sum(w * lv.error_bound_for_groups(g)
               for w, lv, g in zip(field.level_weights, field.levels, groups))


def plan_at(field: RefactoredField, groups: list[int]) -> RetrievalPlan:
    """The plan fetching *groups* of *field* (its bound and bytes)."""
    return RetrievalPlan(groups, _bound(field, groups), sum(
        lv.bytes_for_groups(g) for lv, g in zip(field.levels, groups)))


def plan_greedy(
    field: RefactoredField,
    tolerance: float,
    start: list[int] | None = None,
) -> RetrievalPlan:
    """Greedy error-per-byte retrieval plan (the HP-MDR default).

    Each round fetches the next group of the level with the best error
    reduction per byte (the lowest level on a tie) until the composed
    bound meets *tolerance*. ``start`` seeds the plan with
    already-fetched group counts so progressive refinement only pays
    for the increment. If the tolerance is below the near-lossless
    floor, the full stream is planned (the best achievable) — callers
    can compare ``error_bound`` to what they asked for. The one-field
    call of :func:`plan_greedy_many`.
    """
    return plan_greedy_many([field], [check_tolerance(tolerance)], [start])[0]


def greedy_table(field: RefactoredField) -> tuple[np.ndarray, ...]:
    """*field*'s weighted bound and bytes after ``g`` groups per level
    (``(L, G + 1)``, a level's last entry repeated past its end) and its
    group counts."""
    counts = [lv.num_groups for lv in field.levels]
    depth = max(counts, default=0) + 1
    def padded(rows, dtype):  # a level's last entry repeated past its end
        return np.array([row + row[-1:] * (depth - len(row)) for row in rows],
                        dtype).reshape(len(rows), depth)
    bound = padded([[w * lv.error_bound_for_groups(g) for g in range(k + 1)]
                    for w, lv, k in zip(field.level_weights, field.levels,
                                        counts)], np.float64)
    nbytes = padded([[lv.bytes_for_groups(g) for g in range(k + 1)]
                     for lv, k in zip(field.levels, counts)], np.int64)
    return bound, nbytes, np.array(counts, np.int64)


def _padded(table, width: int, depth: int) -> tuple[np.ndarray, ...]:
    """*table* grown to *width* levels and *depth* group counts."""
    bound, nbytes, counts = table
    rows, cols = (0, width - counts.size), (0, depth - bound.shape[1])
    return (*(np.pad(np.pad(a, ((0, 0), cols), "edge"), (rows, (0, 0)))
              for a in (bound, nbytes)), np.pad(counts, rows))


def plan_greedy_many(
    fields: list[RefactoredField],
    tolerances: list[float],
    starts: list[list[int] | None],
    tables: list | None = None,
) -> list[RetrievalPlan]:
    """:func:`plan_greedy` of K fields at once, from their
    :func:`greedy_table` s (*tables*, ``None`` entries built).

    The greedy rounds merge the levels' score sequences, so they take
    the steps in the stable order of (−prefix minimum of the level's
    scores from the start, level, group): one sort of a padded
    ``(K, S)`` array. A step from an infinite bound scores ``inf``. The
    running bound is the loop's float arithmetic (a fresh ``sum``, then
    ``+= new − old`` in order, as ``np.cumsum`` adds), and a plan is the
    shortest prefix meeting its tolerance. A field whose running bound
    leaves the finite range is walked like the loop
    (:func:`_walk_totals`), which sums afresh while it is infinite.
    """
    tolerances = np.array([check_tolerance(t) for t in tolerances])
    if not fields:
        return []
    tables = [t or greedy_table(f) for t, f in zip(
        tables or [None] * len(fields), fields)]
    sizes = [t[2].size for t in tables]
    width, depth = max(sizes), max(t[0].shape[1] for t in tables)
    if any(t[0].shape != (width, depth) for t in tables):
        tables = [_padded(t, width, depth) for t in tables]
    bound, nbytes, last = (np.array([t[i] for t in tables]) for i in range(3))
    first = np.zeros(last.shape, dtype=np.int64)
    for row, (start, size) in enumerate(zip(starts, sizes)):
        if start is not None:
            if len(start) != size:
                raise ValueError("start must have one entry per level")
            first[row, :size] = start
    if ((first < 0) | (first > last)).any():
        raise ValueError("start group count out of range")
    k, steps = len(tables), width * (depth - 1)
    ahead = np.arange(depth - 1) >= first[..., None]
    live = ahead & (np.arange(depth - 1) < last[..., None])
    with np.errstate(invalid="ignore", over="ignore"):  # walked below
        gain = bound[..., :-1] - bound[..., 1:]
        score = np.where(~ahead | np.isinf(bound[..., :-1]), np.inf, gain
                         / np.maximum(nbytes[..., 1:] - nbytes[..., :-1], 1))
        # Dead steps key NaN, which sorts after every live key (+inf,
        # a -inf score's, included).
        key = np.where(live, -np.minimum.accumulate(score, axis=-1), np.nan)
        order = key.reshape(k, steps).argsort(axis=1, kind="stable")
        rows, levels = np.arange(k)[:, None], np.arange(width)
        fresh = np.array([sum(b[:size]) for b, size in zip(
            bound[rows, levels, first].tolist(), sizes)]).reshape(k, 1)
        delta = np.where(live, -gain, 0.0).reshape(k, steps)[rows, order]
        totals = np.concatenate([fresh, delta], 1).cumsum(axis=1)
    step_level = order // max(depth - 1, 1)
    # A cumsum that leaves the finite range never comes back to it.
    for row in np.flatnonzero(~np.isfinite(totals[:, -1])):
        totals[row] = _walk_totals(bound[row, :sizes[row]], first[row],
                                   step_level[row], int(live[row].sum()),
                                   steps)
    met = totals <= tolerances[:, None]
    taken = np.where(met.any(1), met.argmax(1), live.sum((1, 2)))
    groups = first + np.bincount(
        (rows * width + step_level)[
            np.arange(steps) < taken[:, None]],
        minlength=k * width).reshape(k, width)
    at = (rows, levels, groups)
    return [RetrievalPlan(g[:size], sum(b[:size]), int(n)) for g, b, n, size
            in zip(groups.tolist(), bound[at].tolist(), nbytes[at].sum(1),
                   sizes)]


def _walk_totals(bound: np.ndarray, first: np.ndarray, levels: np.ndarray,
                 live: int, steps: int) -> list[float]:
    """One field's running bound before and after each of its *steps*
    (the first *live* fetch a group of ``levels[i]``), as the greedy
    loop adds: ``+= new − old`` while finite, a fresh ``sum`` while
    infinite, so no total takes ``inf − inf``."""
    at = first[:len(bound)].tolist()
    terms = bound[np.arange(len(bound)), at].tolist()
    totals = [sum(terms)]
    for level in levels[:live].tolist():
        old = terms[level]
        at[level] += 1
        terms[level] = float(bound[level, at[level]])
        totals.append(sum(terms) if math.isinf(totals[-1])
                      else totals[-1] + (terms[level] - old))
    return totals + totals[-1:] * (steps - live)


def plan_round_robin(
    field: RefactoredField,
    tolerance: float,
    start: list[int] | None = None,
) -> RetrievalPlan:
    """Fetch one group per level per round until the bound is met.

    The simple baseline the greedy planner is measured against in the
    ablation benchmarks.
    """
    tolerance = check_tolerance(tolerance)
    groups = list(start) if start is not None else [0] * len(field.levels)
    if len(groups) != len(field.levels):
        raise ValueError("start must have one entry per level")
    while _bound(field, groups) > tolerance:
        advanced = False
        for idx, lv in enumerate(field.levels):
            if groups[idx] < lv.num_groups:
                groups[idx] += 1
                advanced = True
                if _bound(field, groups) <= tolerance:
                    break
        if not advanced:
            break
    return plan_at(field, groups)


def plan_full(field: RefactoredField) -> RetrievalPlan:
    """Plan fetching every stored group (near-lossless retrieval)."""
    return plan_at(field, field.max_groups())

