"""The corner-packed multilevel transform, the natural-layout transform's
oracle.

:class:`~repro.decompose.MultilevelTransform` lifts in place on the
field's natural grid: the coefficients of halving step *s* stay on the
sub-lattice of stride ``2**s`` along each halved axis. This module keeps
the layout it replaced — after each step the coarse approximation is
packed into the corner block and that step's details around it, so every
axis pass copies the even half and writes both halves back interleaved —
with the same per-element arithmetic. ``extract_levels`` of either
transform lists a level's coefficients in the same order (C order of the
corner-packed array), so tests compare the two byte for byte.

Import it with the ``tests`` directory on ``sys.path`` (pytest puts it
there for files under ``tests/``)::

    from oracles.corner_transform import CornerPackedTransform
"""

from __future__ import annotations

import numpy as np

from repro.decompose import interpolation as interp
from repro.decompose.grid import LevelGeometry, num_levels_for_shape
from repro.util.validation import check_dtype_floating

_MODES = ("hierarchical", "mgard")


def split_even_odd(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split along axis 0 into even-index and odd-index node values."""
    return v[0::2], v[1::2]


def predict_odd(even: np.ndarray, n: int) -> np.ndarray:
    """Linear-interpolation prediction of odd-node values.

    Odd node ``2i+1`` is predicted by ``(even[i] + even[i+1]) / 2``. When
    ``n`` is even the last odd node has no right neighbor and is predicted
    by its left neighbor alone.
    """
    n_odd = n // 2
    pred = np.empty((n_odd,) + even.shape[1:], dtype=even.dtype)
    interior = n_odd if n % 2 == 1 else n_odd - 1
    pred[:interior] = 0.5 * (even[:interior] + even[1 : interior + 1])
    if n % 2 == 0:
        pred[interior] = even[interior]
    return pred


def corner_level_indices(geometry: LevelGeometry) -> list[np.ndarray]:
    """Flat C-order indices of each level's coefficients in the
    corner-packed array: entry 0 selects the coarsest corner block, entry
    ℓ > 0 the details introduced when refining from level ℓ-1 to ℓ."""
    shapes = geometry.corner_shapes()
    full = geometry.shape

    def corner_mask(corner: tuple[int, ...]) -> np.ndarray:
        mask = np.zeros(full, dtype=bool)
        mask[tuple(slice(0, c) for c in corner)] = True
        return mask

    indices: list[np.ndarray] = []
    prev = corner_mask(shapes[geometry.num_levels])
    indices.append(np.flatnonzero(prev))
    for level in range(1, geometry.num_levels + 1):
        cur = corner_mask(shapes[geometry.num_levels - level])
        indices.append(np.flatnonzero(cur & ~prev))
        prev = cur
    return indices


class CornerPackedTransform:
    """Decompose/recompose with corner-packed coefficients (same
    parameters as :class:`~repro.decompose.MultilevelTransform`)."""

    def __init__(
        self,
        shape: tuple[int, ...],
        num_levels: int | None = None,
        mode: str = "hierarchical",
        min_size: int = 4,
    ) -> None:
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 1 for s in shape):
            raise ValueError(f"invalid shape {shape}")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if num_levels is None:
            num_levels = num_levels_for_shape(shape, min_size)
        self.geometry = LevelGeometry(shape, num_levels, min_size)
        self.mode = mode
        self._level_indices: list[np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.geometry.shape

    @property
    def num_levels(self) -> int:
        return self.geometry.num_levels

    @property
    def num_coefficient_sets(self) -> int:
        return self.geometry.num_levels + 1

    def level_indices(self) -> list[np.ndarray]:
        if self._level_indices is None:
            self._level_indices = corner_level_indices(self.geometry)
        return self._level_indices

    def level_sizes(self) -> list[int]:
        return [idx.size for idx in self.level_indices()]

    def decompose(self, data: np.ndarray) -> np.ndarray:
        """Forward transform: field → corner-packed coefficients."""
        coeffs = self._prepare(data)
        shapes = self.geometry.corner_shapes()
        for step in range(self.num_levels):
            block = coeffs[tuple(slice(0, s) for s in shapes[step])]
            self._decompose_level(block, step)
        return coeffs

    def recompose(
        self, coeffs: np.ndarray, *, overwrite: bool = False
    ) -> np.ndarray:
        """Inverse transform: corner-packed coefficients → field; a
        ``(K, *shape)`` stack recomposes K fields at once."""
        lead = (slice(None),) * (np.ndim(coeffs) - len(self.shape))
        if (
            overwrite
            and isinstance(coeffs, np.ndarray)
            and coeffs.dtype == np.float64
            and coeffs.shape[len(lead):] == self.shape
            and coeffs.flags.c_contiguous
            and coeffs.flags.writeable
        ):
            data = coeffs
        else:
            data = self._prepare(coeffs, batched=bool(lead))
        shapes = self.geometry.corner_shapes()
        for step in range(self.num_levels - 1, -1, -1):
            block = data[lead + tuple(slice(0, s) for s in shapes[step])]
            self._recompose_level(block, step, False, batch_axes=len(lead))
        return data

    def recompose_absolute(self, coeffs: np.ndarray) -> np.ndarray:
        """Recompose with entrywise-absolute operators."""
        data = self._prepare(coeffs)
        if np.any(data < 0):
            raise ValueError("absolute recompose expects nonnegative input")
        shapes = self.geometry.corner_shapes()
        for step in range(self.num_levels - 1, -1, -1):
            block = data[tuple(slice(0, s) for s in shapes[step])]
            self._recompose_level(block, step, absolute=True)
        return data

    def extract_levels(self, coeffs: np.ndarray) -> list[np.ndarray]:
        flat = coeffs.reshape(-1)
        return [flat[idx].copy() for idx in self.level_indices()]

    def assemble_levels(self, levels: list[np.ndarray]) -> np.ndarray:
        indices = self.level_indices()
        if len(levels) != len(indices):
            raise ValueError(
                f"expected {len(indices)} level arrays, got {len(levels)}"
            )
        dtype = np.result_type(*[lv.dtype for lv in levels])
        out = np.zeros(self.shape, dtype=dtype)
        flat = out.reshape(-1)
        for idx, values in zip(indices, levels):
            if values.size != idx.size:
                raise ValueError(
                    f"level size mismatch: expected {idx.size}, "
                    f"got {values.size}"
                )
            flat[idx] = values
        return out

    def _prepare(self, data: np.ndarray, batched: bool = False) -> np.ndarray:
        data = np.asarray(data)
        check_dtype_floating(data)
        if (data.shape[1:] if batched else data.shape) != self.shape:
            raise ValueError(
                f"data shape {data.shape} does not match transform shape "
                f"{self.shape}"
            )
        return np.array(data, dtype=np.float64, copy=True)

    def _decompose_level(self, block: np.ndarray, step: int) -> None:
        for axis in self.geometry.halved_axes(step):
            self._decompose_axis(block, axis)

    def _recompose_level(
        self, block: np.ndarray, step: int, absolute: bool,
        batch_axes: int = 0,
    ) -> None:
        for axis in reversed(self.geometry.halved_axes(step)):
            self._recompose_axis(block, axis + batch_axes, absolute)

    def _decompose_axis(self, block: np.ndarray, axis: int) -> None:
        v = np.moveaxis(block, axis, 0)
        n = v.shape[0]
        even, odd = split_even_odd(v)
        pred = predict_odd(even, n)
        detail = odd - pred
        coarse = even.copy()
        if self.mode == "mgard" and detail.shape[0] > 0:
            coarse += interp.correction_from_detail(detail, n)
        m = coarse.shape[0]
        v[:m] = coarse
        v[m:] = detail

    def _recompose_axis(
        self, block: np.ndarray, axis: int, absolute: bool
    ) -> None:
        v = np.moveaxis(block, axis, 0)
        n = v.shape[0]
        m = (n + 1) // 2
        # The even-half copy, prediction temporary and interleaved
        # write-back the natural layout does without.
        even = v[:m].copy()
        detail = v[m:]
        if self.mode == "mgard" and detail.shape[0] > 0:
            if absolute:
                even += interp.abs_correction_from_detail(detail, n)
            else:
                even -= interp.correction_from_detail(detail, n)
        odd = predict_odd(even, n)
        odd += detail
        v[1::2] = odd
        v[0::2] = even
