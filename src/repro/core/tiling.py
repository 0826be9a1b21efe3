"""Sub-domain (tile) processing for fields larger than device memory.

Section 6.1's premise: large datasets are split into sub-domains that
stream through the device and parallelize across devices (Fig. 4). This
module is that scale path — split an n-D field into tiles, refactor each
independently (optionally fanning tiles out across a worker pool), and
reconstruct/stitch with a global tolerance. Tiles partition the domain,
so the global L∞ guarantee is simply the max of the per-tile guarantees.

Three behaviours make tiling the production path rather than a toy:

* **Parallel tile fan-out** — :class:`TiledRefactorer` /
  :class:`TiledReconstructor` accept ``num_workers`` / ``backend``. A
  refactor fans tiles out on the shared process pool (``processes``);
  a read runs per-tile work on the
  :class:`~repro.core.backends.ThreadPool` its engine owns
  (``threads``: the NumPy kernels release the GIL, so tiles overlap
  across cores). Per-shape :class:`~repro.core.refactor.Refactorer`
  instances and per-geometry transforms are shared — boundary tiles
  reuse the interior tiles' geometry.
* **Lazy everything** — :class:`TiledReconstructor` builds a tile's
  :class:`~repro.core.reconstruct.Reconstructor` (and through it the
  retained incremental decode state) only when a reconstruction first
  touches that tile, so opening a 1000-tile field costs nothing until
  tiles are used. :class:`LazyTiledField` extends the same economics to
  the store: per-tile sub-fields resolve through
  :func:`~repro.core.store.open_tiled_field` on first touch.
* **Region-of-interest retrieval** — ``reconstruct(region=...)``
  decodes only the tiles overlapping the requested hyperslab; bytes
  fetched and planes decoded scale with the region, not the domain, and
  each touched tile's :class:`~repro.bitplane.encoding.PartialDecodeState`
  is reused across staircase steps exactly as in the untiled engine.

A tile batch's retrieval step is written once, as a fetch stage and a
decode stage (see :class:`TiledReconstructor`), and every route runs
its batches through one runner, :meth:`~repro.core.backends.ThreadPool
.map`; the routes differ only in batch count and in which thread runs
each stage. Reads run in the caller's process: ``processes`` names the
write side's pool, where each call carries its tile block and the
config and a worker keeps per-shape
:class:`~repro.core.refactor.Refactorer` instances keyed by that config.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.core.backends import (
    ClosesOnExit,
    ThreadPool,
    parse_backend_spec,
    resolve_backend,
    shared_process_backend,
    task_name,
)
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, Refactorer
from repro.core.store import _ColdResolver, open_fields, tile_field_name
from repro.core.stream import Counters, RefactoredField, fetch_fields
from repro.util.validation import (
    check_dtype_floating,
    check_on_fault,
    check_tolerance,
)


@dataclass(frozen=True)
class TileSpec:
    """Placement of one tile within the global domain."""

    index: tuple[int, ...]
    offset: tuple[int, ...]
    shape: tuple[int, ...]

    def slices(self) -> tuple[slice, ...]:
        return tuple(
            slice(o, o + s) for o, s in zip(self.offset, self.shape)
        )

    def intersection(
        self, region: tuple[slice, ...]
    ) -> tuple[tuple[slice, ...], tuple[slice, ...]] | None:
        """Overlap of this tile with *region* (normalized global slices).

        Returns ``(tile_local, region_local)`` slice tuples addressing
        the overlap within the tile's block and within the region's
        output array respectively, or ``None`` when they are disjoint.
        """
        tile_local = []
        region_local = []
        for o, s, r in zip(self.offset, self.shape, region):
            lo = max(o, r.start)
            hi = min(o + s, r.stop)
            if lo >= hi:
                return None
            tile_local.append(slice(lo - o, hi - o))
            region_local.append(slice(lo - r.start, hi - r.start))
        return tuple(tile_local), tuple(region_local)


def plan_tiles(
    shape: tuple[int, ...], tile_shape: tuple[int, ...]
) -> list[TileSpec]:
    """Cover *shape* with tiles of at most *tile_shape* extents."""
    shape = tuple(int(s) for s in shape)
    tile_shape = tuple(int(t) for t in tile_shape)
    if len(tile_shape) != len(shape):
        raise ValueError("tile_shape rank must match data rank")
    if any(t < 1 for t in tile_shape):
        raise ValueError("tile extents must be >= 1")
    # A tile picks one position per axis (C order); the three products
    # below walk the same picks in step.
    counts = [-(-s // t) for s, t in zip(shape, tile_shape)]
    offsets = [range(0, c * t, t) for c, t in zip(counts, tile_shape)]
    extents = [[min(t, s - o) for o in axis]
               for axis, s, t in zip(offsets, shape, tile_shape)]
    return list(map(TileSpec, product(*map(range, counts)),
                    product(*offsets), product(*extents)))


def normalize_region(
    region: Sequence, shape: tuple[int, ...]
) -> tuple[slice, ...]:
    """Validate a region-of-interest request against a domain *shape*.

    *region* must have one entry per axis; each entry is a ``slice``
    (with unit step), a ``(start, stop)`` pair, or ``None`` for the full
    axis. Bounds must satisfy ``0 <= start <= stop <= extent`` — regions
    are hyperslabs in global coordinates, not fancy indexing.
    """
    if len(region) != len(shape):
        raise ValueError(
            f"region rank {len(region)} must match data rank {len(shape)}"
        )
    out = []
    for axis, (entry, extent) in enumerate(zip(region, shape)):
        if entry is None:
            out.append(slice(0, extent))
            continue
        if isinstance(entry, slice):
            if entry.step not in (None, 1):
                raise ValueError(
                    f"region axis {axis}: only unit-step slices supported"
                )
            start = 0 if entry.start is None else int(entry.start)
            stop = extent if entry.stop is None else int(entry.stop)
        else:
            start, stop = (int(v) for v in entry)
        if not 0 <= start <= stop <= extent:
            raise ValueError(
                f"region axis {axis}: [{start}, {stop}) outside "
                f"[0, {extent}]"
            )
        out.append(slice(start, stop))
    return tuple(out)


@dataclass
class TiledField:
    """A refactored field stored as independent sub-domain streams."""

    shape: tuple[int, ...]
    dtype: np.dtype
    tiles: list[TileSpec]
    fields: Sequence[RefactoredField]
    value_range: float
    name: str = "var"

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    def total_bytes(self) -> int:
        return sum(f.total_bytes() for f in self.fields)

    def tiles_overlapping(
        self, region: tuple[slice, ...]
    ) -> list[tuple[int, TileSpec, tuple[tuple[slice, ...],
                                         tuple[slice, ...]]]]:
        """``(tile_position, spec, (tile_local, region_local))`` per
        tile intersecting *region* (normalized slices)."""
        hits = []
        for i, tile in enumerate(self.tiles):
            overlap = tile.intersection(region)
            if overlap is not None:
                hits.append((i, tile, overlap))
        return hits


class _LazyTileFields(Sequence):
    """Per-tile sub-fields resolved on first touch.

    ``opener(names)`` opens stored tiles in one batch (their index
    records in one request), settled as ``({name: field}, {name:
    error})``. Opened fields are memoized, so a session opens each tile
    exactly once; untouched tiles cost nothing.
    """

    def __init__(self, names: list, opener: Callable) -> None:
        self._names = names
        self._opener = opener
        self._fields: dict[int, RefactoredField] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        for error in self.open([index]).values():
            raise error
        with self._lock:
            return self._fields[index]

    def open(self, indices: Sequence[int]) -> dict[int, BaseException]:
        """Open the unopened tiles among *indices* in one batch; returns
        the failed ones' errors by position. The opener runs outside the
        lock (store I/O of concurrent batches overlaps); a racing
        duplicate open is harmless — setdefault keeps one winner."""
        with self._lock:
            todo = [i for i in dict.fromkeys(indices) if i not in self._fields]
        if not todo:
            return {}
        fields, errors = self._opener([self._names[i] for i in todo])
        with self._lock:
            for i in todo:
                if self._names[i] in fields:
                    self._fields.setdefault(i, fields[self._names[i]])
        return {i: errors[self._names[i]] for i in todo
                if self._names[i] in errors}

    @property
    def opened_indices(self) -> list[int]:
        """Tile positions opened so far — testing/telemetry hook."""
        with self._lock:
            return sorted(self._fields)


class LazyTiledField(TiledField):
    """A :class:`TiledField` whose per-tile sub-fields open on demand.

    Built by :func:`~repro.core.store.open_tiled_field` from the tiled
    index record alone: construction fetches nothing beyond that index,
    and touching ``fields[i]`` opens tile *i* lazily (its own index
    segment plus, later, exactly the plane groups a decode needs).
    ``tile_bytes`` — the per-tile stored sizes recorded at write time —
    lets :meth:`total_bytes` answer without opening a single tile.

    Tiles open in batches through ``open_fields(store, names, cache=)``.
    """

    def __init__(
        self,
        *,
        shape: tuple[int, ...],
        dtype: np.dtype,
        tiles: list[TileSpec],
        tile_field_names: list[str],
        tile_bytes: list[int],
        value_range: float,
        name: str,
        store,
        cache=None,
    ) -> None:
        if not (len(tiles) == len(tile_field_names) == len(tile_bytes)):
            raise ValueError(
                "tiles, tile_field_names, and tile_bytes must align"
            )
        # A partial, not a bound method or closure over self: either
        # would close a field -> fields -> opener -> field cycle and
        # leave dropped sessions to the cyclic collector.
        # One resolver for every tile, so a tile batch's plane groups
        # go out in one request with or without a shared cache.
        opener = functools.partial(
            open_fields, store,
            cache=_ColdResolver(store) if cache is None else cache,
        )
        super().__init__(
            shape=tuple(shape),
            dtype=np.dtype(dtype),
            tiles=tiles,
            fields=_LazyTileFields(tile_field_names, opener),
            value_range=float(value_range),
            name=name,
        )
        self.tile_field_names = list(tile_field_names)
        self.tile_bytes = [int(b) for b in tile_bytes]

    def total_bytes(self) -> int:
        """Stored payload size of every tile — served from the index."""
        return sum(self.tile_bytes)

    @property
    def opened_tiles(self) -> list[int]:
        """Tile positions whose sub-fields have been opened so far."""
        return self.fields.opened_indices


def one_tile_field(
    field: RefactoredField, *, store, cache=None
) -> LazyTiledField:
    """A just-opened untiled *field* as the one tile of a
    :class:`LazyTiledField` (no store access)."""
    zeros = (0,) * len(field.shape)
    tiled = LazyTiledField(
        shape=field.shape, dtype=field.dtype,
        tiles=[TileSpec(index=zeros, offset=zeros,
                        shape=tuple(field.shape))],
        tile_field_names=[field.name], tile_bytes=[field.total_bytes()],
        value_range=field.value_range, name=field.name,
        store=store, cache=cache,
    )
    tiled.fields._fields[0] = field
    return tiled


def _task_refactor_tile(state, config, block, tile_name):
    """Process-backend task: refactor one tile block under *config*.

    The call carries everything: the parent's
    :class:`~repro.core.refactor.RefactorConfig` and the tile's
    contiguous block. The worker keeps one per-shape cache
    (:func:`_refactorer_for`) per distinct config — a frozen, hashable
    dataclass, so equal configs share one cache — and boundary tiles
    of the same shape reuse one refactorer across calls exactly as in
    the parent. Returns the serialized field, whose byte layout is the
    cross-backend identity contract.
    """
    refactorers = state.setdefault(("tiled-refactorer", config), {})
    return _refactorer_for(refactorers, config, block.shape).refactor(
        block, name=tile_name
    ).to_bytes()


def _refactorer_for(
    refactorers: dict, config: RefactorConfig, shape: tuple[int, ...]
) -> Refactorer:
    """The cached :class:`Refactorer` of *shape* in *refactorers*
    (boundary tiles share geometry, so one per distinct shape)."""
    if shape not in refactorers:
        refactorers[shape] = Refactorer(shape, config)
    return refactorers[shape]


class TiledRefactorer:
    """Refactor large fields tile by tile (the streaming write path).

    Tiles refactor one after another in the calling thread, sharing
    per-shape :class:`~repro.core.refactor.Refactorer` instances
    (transform geometry, error weights). Resolving to the ``processes``
    backend (``backend=`` / ``REPRO_BACKEND``; ``num_workers`` sizes the
    pool when the spec does not) fans tiles out across worker processes
    — the one parallel write route: each call carries its tile block
    and the config, and warm per-shape refactorers are reused across
    calls. ``threads`` (and a bare ``num_workers > 1``) runs the serial
    loop: a thread fan-out lost to it at every tile size measured. The
    tile order — and every tile's serialized bytes — of the result is
    identical under every backend.
    """

    def __init__(
        self,
        tile_shape: tuple[int, ...],
        config: RefactorConfig | None = None,
        num_workers: int = 0,
        backend: str | None = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.tile_shape = tuple(int(t) for t in tile_shape)
        self.config = config or RefactorConfig()
        self.num_workers = int(num_workers)
        if backend is not None:
            parse_backend_spec(backend)  # validates, raises on junk
        self.backend = backend
        self._refactorers: dict[tuple[int, ...], Refactorer] = {}

    def refactor(self, data: np.ndarray, name: str = "var") -> TiledField:
        data = np.asarray(data)
        check_dtype_floating(data)
        if data.size:
            value_range = float(np.max(data) - np.min(data))
            if not math.isfinite(value_range):
                raise ValueError(
                    "data contains non-finite values; the tiled field's "
                    "value_range would be non-finite and every relative-"
                    "tolerance retrieval over it would silently fail"
                )
        else:
            value_range = 0.0
        tiles = plan_tiles(data.shape, self.tile_shape)
        jobs = [
            (tile, tile_field_name(name, tile.index)) for tile in tiles
        ]
        spec = resolve_backend(self.backend, self.num_workers)
        if (
            spec.kind == "processes" and spec.workers > 1
            and len(tiles) > 1 and data.size
        ):
            fields = self._refactor_tiles_processes(
                data, jobs, shared_process_backend(spec.workers)
            )
        else:
            fields = [
                _refactorer_for(self._refactorers, self.config, tile.shape)
                .refactor(np.ascontiguousarray(data[tile.slices()]),
                          name=tile_name)
                for tile, tile_name in jobs
            ]
        return TiledField(
            shape=data.shape,
            dtype=data.dtype,
            tiles=tiles,
            fields=fields,
            value_range=value_range,
            name=name,
        )

    def _refactor_tiles_processes(
        self, data: np.ndarray, jobs: list[tuple[TileSpec, str]], backend
    ) -> list[RefactoredField]:
        """Fan tile refactors out across the process backend.

        Each call carries its tile's contiguous block and the config.
        Results come back as serialized fields (the byte-identity
        contract), deserialized in tile order.
        """
        refactor_name = task_name(_task_refactor_tile)
        blobs = backend.map_calls([
            (
                refactor_name,
                (
                    self.config,
                    np.ascontiguousarray(data[tile.slices()]),
                    tile_name,
                ),
            )
            for tile, tile_name in jobs
        ])
        return [RefactoredField.from_bytes(blob) for blob in blobs]


class TiledReconstructionResult(tuple):
    """``(data, error_bound)`` plus degraded-step metadata.

    A ``tuple`` subclass, so every existing
    ``out, bound = recon.reconstruct(...)`` unpacking (and indexing)
    keeps working; steps run with ``on_fault="degrade"`` additionally
    report which tiles faulted:

    * ``degraded`` — any tile answered from its last committed
      refinement (or, never having been opened, as zeros);
    * ``failed_tiles`` — their tile positions, sorted;
    * ``failed_groups`` — per failed position, the per-level group
      counts the aborted plan wanted (``None`` for tiles that faulted
      before opening);
    * ``error_bound`` is the honest global bound of what was returned —
      ``inf`` when an unopened tile contributed zeros with no guarantee.
    """

    def __new__(
        cls,
        data: np.ndarray,
        error_bound: float,
        *,
        degraded: bool = False,
        failed_tiles: Sequence[int] = (),
        failed_groups: dict[int, list[int] | None] | None = None,
    ) -> "TiledReconstructionResult":
        self = super().__new__(cls, (data, error_bound))
        self.degraded = bool(degraded)
        self.failed_tiles = sorted(failed_tiles)
        self.failed_groups = dict(failed_groups or {})
        return self

    @property
    def data(self) -> np.ndarray:
        return self[0]

    @property
    def error_bound(self) -> float:
        return self[1]


#: Width of a pipelined step's fetch stage, and the tile batches the
#: step is split into. Store I/O blocks on the network/disk and releases
#: the GIL, so a couple of fetch threads overlap many tiles' latency.
FETCH_WORKERS = 2


def _batches(jobs: list, count: int) -> list[list]:
    """*jobs* in ``count`` contiguous batches (at least one job each)."""
    count = min(max(count, 1), len(jobs))
    bounds = [len(jobs) * i // max(count, 1) for i in range(count + 1)]
    return [jobs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TiledReconstructor(ClosesOnExit):
    """Progressive reconstruction of a tiled field with a global bound.

    Per-tile :class:`~repro.core.reconstruct.Reconstructor` instances —
    and through them the retained incremental decode state — are built
    lazily on first touch, so wrapping a 1000-tile field costs nothing
    until a reconstruction actually needs a tile. Same-geometry tiles
    share the process's one :class:`~repro.decompose.MultilevelTransform`
    of their geometry (:func:`~repro.decompose.transform_for`).

    The unit of work is a tile batch, and its step is one body: the
    fetch stage (:meth:`_fetch_batch`: open, plan, one segment request,
    faults captured) and the decode stage (:meth:`_decode_batch`: one
    ``Reconstructor.decode_steps`` call, stitched into the output). Both
    run in the caller's process, through the instance's pool's
    :meth:`~repro.core.backends.ThreadPool.map`: the sequential route
    runs one batch of every selected tile (``serial`` and
    ``processes``; ``threads:N``: N batches on the pool), and a
    pipelined step ``FETCH_WORKERS`` batches with fetch on the pool and
    decode on the caller thread (``then=``). On every route a failed
    step returns only once nothing it started is still running.

    ``pipelined=True`` overlaps one batch's segment *fetch* with
    another's *decode* — the paper's Fig. 4 stage overlap on the real
    retrieval stack: every batch's fetch is submitted up front and the
    caller decodes them in batch order as they land, so on a
    latency-bearing store a step pays ≈max(fetch, decode) instead of
    their sum, with bit-identical results, counters and fault semantics
    (each batch's fetch is one request in the sequential route's key
    order). Its pool is ``FETCH_WORKERS`` wide under every backend.
    """

    def __init__(
        self,
        tiled: TiledField,
        num_workers: int = 0,
        backend: str | None = None,
        pipelined: bool = False,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.tiled = tiled
        self.num_workers = int(num_workers)
        if backend is not None:
            parse_backend_spec(backend)  # validates, raises on junk
        self.backend = backend
        self.pipelined = bool(pipelined)
        self._threads = ThreadPool()  # tile fan-out, or the fetch stage
        self._recons: dict[int, Reconstructor] = {}
        self._state_lock = threading.Lock()

    def _reconstructor_for(self, position: int) -> Reconstructor:
        """Tile *position*'s reconstructor, built on first touch (the
        fetch stage has opened the tile's field). Positions are unique
        per step, so construction outside the lock cannot duplicate."""
        with self._state_lock:
            recon = self._recons.get(position)
        if recon is None:
            recon = Reconstructor(self.tiled.fields[position])
            with self._state_lock:
                recon = self._recons.setdefault(position, recon)
        return recon

    @property
    def touched_tiles(self) -> list[int]:
        """Tile positions with progressive state."""
        with self._state_lock:
            return sorted(self._recons)

    def touched_reconstructors(self) -> list[Reconstructor]:
        """Touched tiles' reconstructors, in tile-position order.

        The public window onto per-tile progressive state (fields,
        fetch progress, decode counters) — e.g. the service layer walks
        it to prefetch each touched tile's next planned plane group.
        """
        with self._state_lock:
            recons = dict(self._recons)
        return [recons[i] for i in sorted(recons)]

    def counters(self) -> Counters:
        """Summed :class:`~repro.core.stream.Counters` of every touched
        tile (eager, in-memory fields contribute no segment traffic)."""
        return sum((r.counters() for r in self.touched_reconstructors()),
                   Counters())

    # The frozen end-to-end benchmark harness still reads it by this name.
    aggregate_decode_counters = counters

    @property
    def fetched_bytes(self) -> int:
        """Cumulative payload bytes fetched across touched tiles."""
        return self.counters().fetched_bytes

    def decode_state_bytes(self) -> int:
        """Resident bytes of retained decode state across touched tiles."""
        return self.counters().decode_state_bytes

    def reconstruct(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        region: Sequence | None = None,
        on_fault: str = "raise",
    ) -> "TiledReconstructionResult":
        """(stitched data, achieved global L∞ bound) at *tolerance*.

        Tiles partition the domain, so the global bound is the max of
        per-tile bounds; each touched tile fetches and decodes only its
        own increment. ``relative=True`` interprets the tolerance as a
        fraction of the *global* value range (per-tile ranges would
        weaken the guarantee on quiet tiles); combining it with
        ``tolerance=None`` is rejected — near-lossless retrieval has no
        fraction to scale. On a constant field (``value_range == 0``)
        relative requests short-circuit to the documented near-lossless
        path, matching :meth:`Reconstructor.reconstruct`.

        ``region`` restricts retrieval to a hyperslab (per-axis
        ``slice``/``(start, stop)``/``None`` entries, global
        coordinates): only overlapping tiles are touched, the returned
        array has the region's extents, and the bound covers exactly
        those tiles. Tiles keep their progressive state across calls,
        so walking a staircase over a region refines incrementally and
        later widening the region only pays for the new tiles.

        ``on_fault="degrade"`` turns store faults into a degraded
        answer instead of an exception: a tile whose fetch fails is
        answered from its last committed refinement (see
        :meth:`Reconstructor.reconstruct`); a tile that faults before
        it ever opened contributes zeros and an ``inf`` bound. The
        returned :class:`TiledReconstructionResult` unpacks like the
        usual ``(data, error_bound)`` pair and records ``degraded`` /
        ``failed_tiles`` / ``failed_groups``; a later call at the same
        tolerance retries exactly the failed increments.
        """
        check_on_fault(on_fault)
        if relative and tolerance is None:
            raise ValueError(
                "relative=True requires a tolerance; near-lossless "
                "retrieval (tolerance=None) has no value range to scale"
            )
        tol = check_tolerance(tolerance, allow_none=True)
        if tol is not None:
            if relative:
                if self.tiled.value_range == 0.0:
                    # Constant field: any fraction of a zero range is 0;
                    # fetch everything deliberately (near-lossless).
                    tol = None
                else:
                    tol = tol * self.tiled.value_range
        if region is None:
            region_slices = tuple(slice(0, s) for s in self.tiled.shape)
        else:
            region_slices = normalize_region(region, self.tiled.shape)
        out_shape = tuple(s.stop - s.start for s in region_slices)
        out = np.empty(out_shape, dtype=self.tiled.dtype)
        selected = self.tiled.tiles_overlapping(region_slices)
        jobs = [(pos, overlap) for pos, _, overlap in selected]

        fetch = functools.partial(self._fetch_batch, tol=tol)
        decode = functools.partial(self._decode_batch, on_fault=on_fault,
                                   out=out)
        if self.pipelined:
            # Stage overlap (Fig. 4): FETCH_WORKERS batches fetch on the
            # instance's pool while this thread decodes each as it lands.
            batched = self._threads.map(
                fetch, _batches(jobs, FETCH_WORKERS), FETCH_WORKERS,
                then=decode,
            )
        else:
            # One batch (``serial`` and ``processes`` alike), or
            # ``threads:N`` batches on the pool.
            threads = resolve_backend(self.backend, self.num_workers).threads
            batched = self._threads.map(
                lambda batch: decode(batch, fetch(batch)),
                _batches(jobs, threads), threads,
            )
        outcomes = [outcome for batch in batched for outcome in batch]
        worst = 0.0
        failed_groups: dict[int, list[int] | None] = {}
        for (position, _), (bound, degraded, groups) in zip(jobs, outcomes):
            worst = max(worst, bound)
            if degraded:
                failed_groups[position] = groups
        return TiledReconstructionResult(
            out,
            worst,
            degraded=bool(failed_groups),
            failed_tiles=list(failed_groups),
            failed_groups=failed_groups,
        )

    def _fetch_batch(self, batch, tol):
        """Fetch stage of a tile batch: its unopened tiles open together
        (one request for their index records), plan together (one
        ``Reconstructor.plan_steps``), and all missing plane groups go
        out in one more (keys in job order, then level, then group).
        Returns ``(reconstructor, step, fault)`` per job (no
        reconstructor: the tile failed to open). Planning reads no
        segment, so every store fault is an open or fetch fault: each is
        captured, to surface at decode time in job order, never retried
        (a retry would shift per-key access counts and seeded fault
        schedules).
        """
        positions = [pos for pos, _ in batch]
        fields = self.tiled.fields
        faults = (fields.open(positions)
                  if isinstance(fields, _LazyTileFields) else {})
        recons = [None if pos in faults else self._reconstructor_for(pos)
                  for pos in positions]
        steps = iter(Reconstructor.plan_steps([r for r in recons if r], tol))
        fetched = [(recon, recon and next(steps), faults.get(pos))
                   for pos, recon in zip(positions, recons)]
        errors = iter(fetch_fields([
            (recon.field, list(zip(recon.fetched_groups, step.groups)))
            for recon, step, _ in fetched if recon
        ]))
        return [(recon, step, next(errors) if recon else fault)
                for recon, step, fault in fetched]

    def _decode_batch(self, batch, fetched, on_fault, out):
        """Decode stage of a tile batch: one
        :meth:`~repro.core.reconstruct.Reconstructor.decode_steps` call,
        so ``on_fault`` is decided in one place for every route. Stitches
        each tile's block into *out* and returns ``(bound, degraded,
        groups)`` per job. A tile that never opened has no committed
        refinement to fall back on: it degrades to zeros and an
        unbounded error (caching nothing, so the next call retries it
        from scratch), or under ``"raise"`` ends the batch once the
        tiles before it have committed.
        """
        live = []
        for recon, step, fault in fetched:
            if recon is None and on_fault != "degrade":
                Reconstructor.decode_steps(live, on_fault)
                raise fault
            if recon is not None:
                live.append((recon, step, fault))
        results = iter(Reconstructor.decode_steps(live, on_fault))
        outcomes = []
        for (_, (tile_local, region_local)), (recon, _, _) in zip(batch,
                                                                  fetched):
            if recon is None:
                out[region_local] = 0
                outcomes.append((math.inf, True, None))
            else:
                result = next(results)
                out[region_local] = result.data[tile_local]
                outcomes.append((result.error_bound, result.degraded,
                                 result.failed_groups))
        return outcomes

    def close(self) -> None:
        """Join the instance's thread pool (idempotent; the engine stays
        usable and rebuilds the pool on the next step that needs it)."""
        self._threads.close()


__all__ = [
    "TileSpec",
    "plan_tiles",
    "normalize_region",
    "TiledField",
    "LazyTiledField",
    "TiledRefactorer",
    "TiledReconstructionResult",
    "TiledReconstructor",
]
