"""Next-error-bound estimation: CP, MA, MAPE (paper Section 6.2).

Each method answers the same question inside Algorithm 3: given that the
current per-variable bounds ``{ε_i}`` yield an estimated QoI error
``τ′ > τ``, what should the next ``{ε_i}`` be?

* **CP** (CPU porting): take the grid point with the worst estimated
  QoI error (the estimate's own argmax), then repeatedly halve *all*
  bounds and re-evaluate that one point (with its stale reconstructed
  values) until it satisfies τ.
  Converges in few iterations but over-preserves — stale single-point
  data makes the decayed bounds stricter than necessary.
* **MA** (minimal augmentation): advance each variable by exactly one
  merged bitplane group — the finest possible step, near-optimal bitrate
  but many iterations.
* **MAPE** (MA + proportional estimation): if ``p = τ′/τ`` exceeds the
  switch threshold ``c``, scale every bound by ``1/p`` (one big
  proportional jump); once close, fall back to MA's fine steps.
"""

from __future__ import annotations

import numpy as np

from repro.core.stream import RefactoredField
from repro.qoi.expressions import QoI, pointwise_qoi_error

EB_METHODS = ("cp", "ma", "mape")

_MAX_HALVINGS = 60


def next_group_bound(field: RefactoredField, fetched: list[int]) -> float:
    """Composed L∞ bound after fetching the single best extra group.

    Returns the current bound unchanged when everything is fetched.
    """
    per_level = [
        w * lv.error_bound_for_groups(g)
        for w, lv, g in zip(field.level_weights, field.levels, fetched)
    ]
    total = sum(per_level)
    best = total
    for idx, lv in enumerate(field.levels):
        g = fetched[idx]
        if g >= lv.num_groups:
            continue
        candidate = total - per_level[idx] + field.level_weights[
            idx
        ] * lv.error_bound_for_groups(g + 1)
        best = min(best, candidate)
    return best


def cp_update(
    qoi: QoI,
    point_values: dict[str, float],
    bounds: dict[str, float],
    tolerance: float,
) -> dict[str, float]:
    """CP: decay all bounds against the stale worst point (GPU argmax +
    CPU halving loop in the paper's implementation).

    *point_values* are each variable's reconstructed value at the grid
    point with the largest estimated QoI error under *bounds* — the
    argmax the estimate already found, so no grid-wide pass runs here.
    """
    point = {name: np.asarray([v], dtype=np.float64)
             for name, v in point_values.items()}
    eb = dict(bounds)
    for _ in range(_MAX_HALVINGS):
        point_err = pointwise_qoi_error(qoi, point, eb)[0]
        if point_err <= tolerance:
            break
        eb = {k: v / 2.0 for k, v in eb.items()}
    return eb


def ma_update(
    fields: dict[str, RefactoredField],
    fetched: dict[str, list[int]],
    bounds: dict[str, float],
) -> dict[str, float]:
    """MA: one more merged bitplane group per variable."""
    return {
        name: min(bounds[name], next_group_bound(fields[name], fetched[name]))
        for name in fields
    }


def mape_update(
    qoi: QoI,
    values: dict[str, np.ndarray],
    fields: dict[str, RefactoredField],
    fetched: dict[str, list[int]],
    bounds: dict[str, float],
    tolerance: float,
    estimated_error: float,
    switch_threshold: float = 10.0,
) -> dict[str, float]:
    """MAPE: proportional jump while far from τ, MA steps once close."""
    if switch_threshold <= 1.0:
        raise ValueError("switch_threshold must be > 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    p = estimated_error / tolerance
    if p > switch_threshold:
        return {k: v / p for k, v in bounds.items()}
    return ma_update(fields, fetched, bounds)
