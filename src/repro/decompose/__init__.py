"""Multilevel decomposition substrate (the GPU-MGARD role in HP-MDR).

HP-MDR composes PMGARD: input data is decomposed into hierarchical
coefficient levels, each of which is bitplane-encoded independently. This
package provides:

- :class:`~repro.decompose.transform.MultilevelTransform` — the
  decompose/recompose pair for 1-D/2-D/3-D grids of arbitrary (not just
  dyadic) extents, in two modes:

  * ``"hierarchical"`` (default) — interpolation-basis (MGARD-0 / PMGARD
    style) transform with nonnegative reconstruction weights, enabling
    *exact* per-level L∞ error-amplification weights;
  * ``"mgard"`` — adds the L2-projection correction (tridiagonal mass
    solves per axis), improving rate-distortion at the cost of looser
    (but still rigorous) error weights.

- :func:`~repro.decompose.transform.transform_for` — the process's one
  shared transform per geometry (level index sets built once).
- :mod:`~repro.decompose.norms` — per-level error weights and the
  composition rule ``|u - û|∞ ≤ Σ_ℓ w_ℓ · e_ℓ`` used by the retrieval
  planner to guarantee requested tolerances.
"""

from repro.decompose.grid import LevelGeometry, coarse_size, num_levels_for_shape
from repro.decompose.norms import compose_error_bound, level_error_weights
from repro.decompose.transform import MultilevelTransform, transform_for

__all__ = [
    "LevelGeometry",
    "MultilevelTransform",
    "coarse_size",
    "num_levels_for_shape",
    "compose_error_bound",
    "level_error_weights",
    "transform_for",
]
