"""Per-level error weights and the L∞ composition rule.

The retrieval planner needs ``|u - û|∞ ≤ Σ_ℓ w_ℓ · e_ℓ`` where ``e_ℓ``
bounds the per-coefficient error of level ℓ (from dropped bitplanes) and
``w_ℓ`` is the worst-case amplification of a level-ℓ coefficient
perturbation through recomposition.

Because :meth:`MultilevelTransform.recompose_absolute` applies the exact
entrywise-absolute reconstruction operators, feeding it an indicator of
level ℓ yields the *exact* operator ∞-norm for the hierarchical mode and
a rigorous upper bound for the MGARD mode. Weights are computed once per
transform and cached on the instance.
"""

from __future__ import annotations

import numpy as np

from repro.decompose.transform import MultilevelTransform

_WEIGHTS_ATTR = "_cached_level_error_weights"


def level_error_weights(transform: MultilevelTransform) -> list[float]:
    """Worst-case L∞ amplification per coefficient level.

    ``weights[ℓ]`` multiplies the uniform coefficient-error bound of level
    ℓ in the composition rule. Computed by pushing a ones-indicator of
    each level through the absolute recomposition.
    """
    cached = getattr(transform, _WEIGHTS_ATTR, None)
    if cached is not None:
        return list(cached)
    weights: list[float] = []
    sizes = transform.level_sizes()
    for level, size in enumerate(sizes):
        ones = [
            np.ones(sz, dtype=np.float64) if lv == level
            else np.zeros(sz, dtype=np.float64)
            for lv, sz in enumerate(sizes)
        ]
        coeffs = transform.assemble_levels(ones)
        response = transform.recompose_absolute(coeffs)
        weights.append(float(np.max(response)))
    setattr(transform, _WEIGHTS_ATTR, tuple(weights))
    return weights


def compose_error_bound(
    transform: MultilevelTransform, level_errors: list[float]
) -> float:
    """Rigorous L∞ reconstruction-error bound from per-level bounds."""
    weights = level_error_weights(transform)
    if len(level_errors) != len(weights):
        raise ValueError(
            f"expected {len(weights)} level errors, got {len(level_errors)}"
        )
    return float(sum(w * e for w, e in zip(weights, level_errors)))


def pointwise_error_bound(
    transform: MultilevelTransform, level_errors: list[float]
) -> np.ndarray:
    """Pointwise (per-grid-node) reconstruction-error bound.

    Sharper than :func:`compose_error_bound` where coefficient influence
    is uneven. No retrieval path calls it: the QoI estimator
    (:mod:`repro.qoi`) works from each variable's scalar L∞ bound.
    """
    sizes = transform.level_sizes()
    if len(level_errors) != len(sizes):
        raise ValueError(
            f"expected {len(sizes)} level errors, got {len(level_errors)}"
        )
    mags = [
        np.full(sz, abs(err), dtype=np.float64)
        for sz, err in zip(sizes, level_errors)
    ]
    coeffs = transform.assemble_levels(mags)
    return transform.recompose_absolute(coeffs)
