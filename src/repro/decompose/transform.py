"""The multilevel decompose/recompose transform.

``MultilevelTransform`` is the Python counterpart of GPU-MGARD's
(re)decomposer: it turns an n-D field into hierarchical coefficients
level by level, lifting in place on the field's natural grid. Halving
step *s* works on the sub-lattice of stride ``2**h`` per axis (``h`` =
the axis's earlier halvings), copied out contiguous, one cache-sized
slab at a time: each axis pass subtracts from every odd node the
interpolation of its even neighbours (recompose adds it back) in one
ufunc call per slab, so coefficients never move — the coarse values
stay on the even nodes, the step's details on the odd ones.
:meth:`~MultilevelTransform.level_indices` lists each level's nodes in
the order of the corner-packed layout (coarse block in the corner,
details around it), which every stored stream uses. The transform is an
exact inverse pair up to floating-point round-off.

Two modes:

* ``"hierarchical"``: detail = value − linear interpolation of coarse
  neighbors. Reconstruction weights are nonnegative, so per-level L∞
  error weights are exact (see :mod:`repro.decompose.norms`).
* ``"mgard"``: additionally projects the residual onto the coarse space
  (L2 correction via tridiagonal mass solves), matching MGARD's better
  rate-distortion; error weights are rigorous but looser.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from repro.decompose import interpolation as interp
from repro.decompose.grid import LevelGeometry, num_levels_for_shape
from repro.util.validation import check_dtype_floating

_MODES = ("hierarchical", "mgard")
#: Bytes of lattice one slab of a halving step holds: set from the
#: ``slab_rows`` of ``recompose_sweep`` in ``benchmarks/bench_hotpaths.py``.
_SLAB_BYTES = 1 << 19


class MultilevelTransform:
    """Decompose/recompose fields on a fixed grid shape.

    Parameters
    ----------
    shape:
        Grid extents (1-, 2-, or 3-D; any positive sizes).
    num_levels:
        Halving steps; defaults to the deepest hierarchy keeping every
        dimension at least ``min_size`` nodes.
    mode:
        ``"hierarchical"`` or ``"mgard"`` (see module docstring).
    min_size:
        Dimensions stop halving once below ``2 * min_size``.
    """

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
        self._indices = tuple(self.geometry.level_indices())
        for index in self._indices:
            index.setflags(write=False)
        # Per halving step: its even nodes (the next step's lattice) as
        # a slice of its own lattice, and the axes it halves.
        self._steps = [
            (tuple(slice(None, None, 1 + (ax in axes))
                   for ax in range(len(shape))), axes)
            for axes in map(self.geometry.halved_axes, range(num_levels))]

    # ------------------------------------------------------------------
    # Public geometry accessors
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.geometry.shape

    @property
    def num_levels(self) -> int:
        return self.geometry.num_levels

    @property
    def num_coefficient_sets(self) -> int:
        """Number of per-level coefficient groups (num_levels + 1)."""
        return self.geometry.num_levels + 1

    def level_indices(self) -> list[np.ndarray]:
        """Each level's flat natural-layout indices (read-only)."""
        return list(self._indices)

    def level_sizes(self) -> list[int]:
        return [idx.size for idx in self.level_indices()]

    # ------------------------------------------------------------------
    # Core transform
    # ------------------------------------------------------------------
    def decompose(self, data: np.ndarray) -> np.ndarray:
        """Forward transform: field → coefficients on the natural grid."""
        coeffs = self._prepare(data)
        self._sweep(coeffs, (), np.subtract)
        return coeffs

    def recompose(
        self, coeffs: np.ndarray, *, overwrite: bool = False
    ) -> np.ndarray:
        """Inverse transform: natural-grid coefficients → field.

        ``overwrite=True`` lets the transform work directly in *coeffs*
        (which must then be an owned, writeable float64 C-array — e.g.
        fresh from :meth:`assemble_levels`), skipping the defensive
        copy; the per-step hot path of progressive reconstruction uses
        this. A ``(K, *shape)`` stack recomposes K fields at once, with
        the same arithmetic per element as K separate calls.
        """
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
        self._sweep(data, lead, np.add)
        return data

    def recompose_absolute(self, coeffs: np.ndarray) -> np.ndarray:
        """Recompose with entrywise-absolute operators.

        Feeding per-coefficient error magnitudes through this yields a
        rigorous pointwise bound on the reconstruction error — the basis
        of the retrieval planner's guarantee.
        """
        data = self._prepare(coeffs)
        if np.any(data < 0):
            raise ValueError("absolute recompose expects nonnegative input")
        self._sweep(data, (), np.add, absolute=True)
        return data

    # ------------------------------------------------------------------
    # Level extraction / assembly
    # ------------------------------------------------------------------
    def extract_levels(self, coeffs: np.ndarray) -> list[np.ndarray]:
        """Split a coefficient array into per-level 1-D arrays.

        Entry 0 is the coarsest set; entry ``num_levels`` the finest
        details. Each level lists its coefficients in the C order of the
        corner-packed layout (see :meth:`LevelGeometry.level_indices`).
        """
        flat = coeffs.reshape(-1)
        return [flat[idx] for idx in self._indices]  # gathers copy

    def assemble_levels(self, levels: list[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`extract_levels`."""
        indices = self.level_indices()
        if len(levels) != len(indices):
            raise ValueError(
                f"expected {len(indices)} level arrays, got {len(levels)}"
            )
        dtype = np.result_type(*[lv.dtype for lv in levels])
        out = np.empty(self.shape, dtype=dtype)  # the levels partition it
        flat = out.reshape(-1)
        for idx, values in zip(indices, levels):
            if values.size != idx.size:
                raise ValueError(
                    f"level size mismatch: expected {idx.size}, "
                    f"got {values.size}"
                )
            flat[idx] = values
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prepare(self, data: np.ndarray, batched: bool = False) -> np.ndarray:
        data = np.asarray(data)
        check_dtype_floating(data)
        if (data.shape[1:] if batched else data.shape) != self.shape:
            raise ValueError(
                f"data shape {data.shape} does not match transform shape "
                f"{self.shape}"
            )
        # Work in float64 for transform accuracy; callers round-trip
        # through the original dtype at the pipeline boundary.
        return np.array(data, dtype=np.float64, copy=True)

    def _sweep(self, data: np.ndarray, lead: tuple, op, absolute=False):
        """Every halving step (finest first to decompose, ``op`` =
        ``np.subtract``), each on its lattice copied out contiguous, in
        slabs of about ``_SLAB_BYTES`` along the first axis (even plane
        counts; whole tiles of a stack): a slab lifts along every other
        halved axis while it is in cache. A halved first axis couples
        slabs: a slab's odd planes decompose first, against untouched
        even planes, and recompose once both neighbours' slabs are done.
        ``mgard`` lifts each step as one slab: its correction solves
        along whole axes, and its absolute bound is a BLAS product whose
        rounding moves with a fiber's column among the others."""
        forward = op is np.subtract
        buf = np.empty(data.size // 2)  # a pass touches <= half a lattice
        chain = [data]
        for even, axes in self._steps:
            if forward:
                self._slabs(chain[-1], lead, axes, op, buf, absolute)
            chain.append(chain[-1][lead + even].copy())
        for step in reversed(range(len(self._steps))):
            even, axes = self._steps[step]
            chain[step][lead + even] = chain[step + 1]
            if not forward:
                self._slabs(chain[step], lead, axes, op, buf, absolute)

    def _slabs(self, lattice, lead, axes, op, buf, absolute):
        axes = [axis + len(lead) for axis in axes]
        first, n, forward = axes[0] == 0, lattice.shape[0], op is np.subtract
        others = axes[first:] if forward else axes[first:][::-1]
        span = n if self.mode == "mgard" else \
            max(2, _SLAB_BYTES // lattice[0].nbytes) & -2
        start = 0  # recompose: the even plane the next odd planes lift from
        for a in range(0, n, span):
            b = min(a + span, n)
            if first and forward:
                self._lift(lattice[a:b + 1], 0, op, buf, absolute)
            for axis in others:
                self._lift(lattice[a:b], axis, op, buf, absolute)
            if first and not forward:
                end = n if b == n else b - 1
                self._lift(lattice[start:end], 0, op, buf, absolute)
                start = end - 1

    def _lift(self, lattice, axis, op, buf, absolute):
        """One pass along *axis*, with ``mgard``'s correction of the even
        nodes (before the odd ones to recompose, after to decompose)."""
        if self.mode == "mgard":  # the axis moved to the front
            v = lattice.transpose(
                (axis, *range(axis), *range(axis + 1, lattice.ndim)))
            even, odd, n = v[0::2], v[1::2], v.shape[0]
            if op is np.add and absolute:
                even += interp.abs_correction_from_detail(odd, n)
            elif op is np.add:
                even -= interp.correction_from_detail(odd, n)
        interp.lift(*interp.pairs(lattice, axis, buf), op)
        if self.mode == "mgard" and op is np.subtract:
            even += interp.correction_from_detail(odd, n)


def transform_for(
    shape: tuple[int, ...],
    num_levels: int | None = None,
    mode: str = "hierarchical",
    min_size: int = 4,
) -> MultilevelTransform:
    """The process's one :class:`MultilevelTransform` of a geometry.

    Its level index sets are built once and read-only, so every engine
    of that geometry (refactorers, reconstructors, same-shape tiles,
    concurrent threads) shares it instead of rebuilding them.
    """
    shape = tuple(int(s) for s in shape)
    if num_levels is None:
        num_levels = num_levels_for_shape(shape, min_size)
    with _SHARED_LOCK:  # one build even when threads ask at once
        return _shared_transform(shape, int(num_levels), mode, int(min_size))


_SHARED_LOCK = threading.Lock()
_shared_transform = lru_cache(maxsize=32)(MultilevelTransform)
