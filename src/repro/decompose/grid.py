"""Dyadic-ish grid hierarchy bookkeeping.

MGARD-style transforms store coefficients *in place*: after decomposing
level ℓ, the corner block of the array holds the coarse approximation and
the remainder holds that level's detail coefficients. This module tracks
corner shapes per level and builds flat index sets for extracting each
level's coefficients in a deterministic (C-order) layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def coarse_size(n: int) -> int:
    """Number of coarse (even-index) nodes for a 1-D grid of *n* nodes."""
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    return (n + 1) // 2


def num_levels_for_shape(shape: tuple[int, ...], min_size: int = 4) -> int:
    """Largest level count so every dimension stays >= *min_size* coarse.

    A level count of ``L`` means ``L`` halving steps; dimensions of size
    < ``2*min_size`` simply stop halving earlier (handled by the
    transform), so this is governed by the largest dimension.
    """
    if not shape:
        raise ValueError("shape must be non-empty")
    levels = 0
    dims = list(shape)
    while max(dims) >= 2 * min_size and levels < 30:
        dims = [coarse_size(n) if n >= 2 * min_size else n for n in dims]
        levels += 1
    return levels


@dataclass(frozen=True)
class LevelGeometry:
    """Corner-block shapes for every level of a multilevel transform.

    ``shapes[0]`` is the full (finest) shape; ``shapes[k]`` is the corner
    block after ``k`` halvings; ``shapes[num_levels]`` is the coarsest
    block. Level indices used throughout the library: level ``0`` is the
    *coarsest* coefficient set (the nodal values of the coarsest grid) and
    level ``num_levels`` is the finest detail set.
    """

    shape: tuple[int, ...]
    num_levels: int
    min_size: int = 4

    def __post_init__(self) -> None:
        if self.num_levels < 0:
            raise ValueError("num_levels must be >= 0")
        max_levels = num_levels_for_shape(self.shape, self.min_size)
        if self.num_levels > max_levels:
            raise ValueError(
                f"num_levels={self.num_levels} too deep for shape "
                f"{self.shape} (max {max_levels} with min_size="
                f"{self.min_size})"
            )

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def corner_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of the corner block after 0..num_levels halvings."""
        shapes = [tuple(self.shape)]
        current = list(self.shape)
        for _ in range(self.num_levels):
            current = [
                coarse_size(n) if n >= 2 * self.min_size else n
                for n in current
            ]
            shapes.append(tuple(current))
        return shapes

    def halved_axes(self, step: int) -> list[int]:
        """Axes actually halved at halving step *step* (0-based, fine first)."""
        shapes = self.corner_shapes()
        before, after = shapes[step], shapes[step + 1]
        return [ax for ax in range(self.ndim) if after[ax] != before[ax]]

    def level_indices(self) -> list[np.ndarray]:
        """Flat C-order indices of each level's coefficients.

        Returns ``num_levels + 1`` index arrays: entry 0 selects the
        coarsest corner block; entry ℓ>0 selects the detail coefficients
        introduced when refining from level ℓ-1 to ℓ.
        """
        shapes = self.corner_shapes()
        full = self.shape

        def corner_mask(corner: tuple[int, ...]) -> np.ndarray:
            mask = np.zeros(full, dtype=bool)
            mask[tuple(slice(0, c) for c in corner)] = True
            return mask

        indices: list[np.ndarray] = []
        prev = corner_mask(shapes[self.num_levels])
        indices.append(np.flatnonzero(prev))
        for level in range(1, self.num_levels + 1):
            cur = corner_mask(shapes[self.num_levels - level])
            indices.append(np.flatnonzero(cur & ~prev))
            prev = cur
        return indices

    def level_sizes(self) -> list[int]:
        """Element counts per level (coarsest first)."""
        return [idx.size for idx in self.level_indices()]
