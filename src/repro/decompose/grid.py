"""Dyadic-ish grid hierarchy bookkeeping.

The multilevel transform keeps coefficients *in place on the natural
grid*: halving step *s* works on the sub-lattice of stride ``2**h`` per
axis (``h`` = how often that axis halved before step *s*), leaves the
coarse approximation on its even nodes and that step's details on its
odd ones. This module tracks the grid shape and strides per step and
builds each level's flat index set. A level lists its coefficients in
the C order they would have in the corner-packed layout (coarse block
in the corner, details around it), the order every stored stream uses.
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
    """Grid shapes, strides and index sets for every level of a
    multilevel transform.

    ``shapes[0]`` is the full (finest) shape; ``shapes[k]`` is the grid
    after ``k`` halvings (the sub-lattice of ``strides()[k]``);
    ``shapes[num_levels]`` is the coarsest grid. Level indices used throughout the library: level ``0`` is the
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
        """Grid shapes after 0..num_levels halvings (in the corner-packed
        order, the corner block a level's coarse values fill)."""
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

    def strides(self) -> list[tuple[int, ...]]:
        """Per-axis stride of the sub-lattice each halving step works on;
        entry ``num_levels`` strides the coarsest grid's nodes."""
        shapes = self.corner_shapes()
        out = [(1,) * self.ndim]
        for before, after in zip(shapes, shapes[1:]):
            out.append(tuple(s << (a != b) for s, a, b in zip(
                out[-1], after, before)))
        return out

    def level_indices(self) -> list[np.ndarray]:
        """Flat natural-layout indices of each level's coefficients.

        Returns ``num_levels + 1`` index arrays: entry 0 selects the
        coarsest grid's nodes; entry ℓ>0 selects the detail coefficients
        introduced when refining from level ℓ-1 to ℓ. Each lists its
        nodes in corner-packed C order. Level ℓ > 0 holds step
        ``s = num_levels - ℓ``'s odd nodes: its region is the corner
        block of ``n_s`` nodes per axis minus the next-coarser block of
        ``n_{s+1}``, and along each axis position ``c < n_{s+1}`` is node
        ``c`` of step ``s + 1``'s sub-lattice and ``c >= n_{s+1}`` odd
        node ``c - n_{s+1}`` of step *s*'s, so a region's natural indices
        are the outer sum of per-axis maps, masked to its odd nodes.
        """
        shapes, strides = self.corner_shapes(), self.strides()
        row = np.cumprod((1,) + self.shape[:0:-1])[::-1]

        def region(step):
            """Natural indices of the nodes step *step* leaves odd (all
            of the coarsest grid's for *step* = num_levels)."""
            flat, odd = np.zeros((), np.intp), np.zeros((), bool)
            for ax, n in enumerate(shapes[step]):
                m = shapes[step + 1][ax] if step < self.num_levels else n
                pos = np.concatenate([
                    np.arange(m) * strides[min(step + 1, self.num_levels)][ax],
                    (2 * np.arange(n - m) + 1) * strides[step][ax]])
                flat = np.add.outer(flat, pos * row[ax])
                odd = np.logical_or.outer(odd, np.arange(n) >= m)
            return flat[odd] if step < self.num_levels else flat.reshape(-1)

        return [region(step) for step in range(self.num_levels, -1, -1)]

    def level_sizes(self) -> list[int]:
        """Element counts per level (coarsest first)."""
        return [idx.size for idx in self.level_indices()]
