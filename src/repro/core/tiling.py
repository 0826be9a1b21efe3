"""Sub-domain (tile) processing for fields larger than device memory.

Section 6.1's premise: large datasets are split into sub-domains that
stream through the device and parallelize across devices (Fig. 4). This
module is that scale path — split an n-D field into tiles, refactor each
independently (optionally fanning tiles out across a worker pool), and
reconstruct/stitch with a global tolerance. Tiles partition the domain,
so the global L∞ guarantee is simply the max of the per-tile guarantees.

Three behaviours make tiling the production path rather than a toy:

* **Parallel tile fan-out** — :class:`TiledRefactorer` /
  :class:`TiledReconstructor` accept ``num_workers`` and run per-tile
  work on the :class:`~repro.core.backends.ThreadPool` each engine owns
  (the NumPy kernels release the GIL, so tiles overlap across cores) or
  on the shared process pool. Per-shape
  :class:`~repro.core.refactor.Refactorer` instances and per-geometry
  transforms are still shared — boundary tiles reuse the interior
  tiles' geometry.
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

A tile's retrieval step is written once, as a fetch stage and a decode
stage (see :class:`TiledReconstructor`); the sequential, pipelined and
process routes differ only in which thread or process runs them — by
construction: a process worker holds a serial :class:`TiledReconstructor`
over the session's field (tiled fields pickle, and ship once per
worker) and calls the same two stage functions on it. The write side
is the same shape: a process worker holds a serial
:class:`TiledRefactorer` built from the shared config and refactors its
tile with that engine's per-shape refactorer.
"""

from __future__ import annotations

import functools
import math
import threading
import uuid
from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass
from itertools import product

import numpy as np

from repro.core.backends import (
    ClosesOnExit,
    ThreadPool,
    attach_shared_block,
    current_process_backend,
    parse_backend_spec,
    resolve_backend,
    share_array,
    shared_process_backend,
    task_name,
    worker_shared,
)
from repro.core.errors import ComputeError, StoreError
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, Refactorer
from repro.core.store import open_field
from repro.core.stream import Counters, RefactoredField
from repro.decompose import MultilevelTransform
from repro.pipeline.retrieval import FETCH_WORKERS, run_window
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
    counts = [-(-s // t) for s, t in zip(shape, tile_shape)]
    tiles = []
    for index in product(*(range(c) for c in counts)):
        offset = tuple(i * t for i, t in zip(index, tile_shape))
        extent = tuple(
            min(t, s - o) for t, s, o in zip(tile_shape, shape, offset)
        )
        tiles.append(TileSpec(index=index, offset=offset, shape=extent))
    return tiles


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

    def __reduce__(self):
        # Group payloads are memoryviews and do not pickle: an eager
        # field crosses a process boundary as its serialized tile bytes,
        # each parsed on the receiving side's first touch of that tile.
        blobs = [field.to_bytes() for field in self.fields]
        return TiledField, (
            self.shape, self.dtype, self.tiles,
            _LazyTileFields(blobs, RefactoredField.from_bytes),
            self.value_range, self.name,
        )


class _LazyTileFields(Sequence):
    """Per-tile sub-fields resolved on first touch.

    ``opener(names[i])`` yields tile *i*: a stored name opened against a
    store, or serialized bytes parsed (a pickled eager field). Opened
    fields are memoized per instance, so a region-of-interest session
    touching the same tiles across staircase steps opens each tile (and
    fetches its index segment) exactly once; untouched tiles cost
    nothing, and a pickled copy starts with none opened.
    """

    def __init__(
        self,
        names: list[str],
        opener: Callable[[str], RefactoredField],
    ) -> None:
        self._names = names
        self._opener = opener
        self._fields: dict[int, RefactoredField] = {}
        self._lock = threading.Lock()

    def __reduce__(self):
        return _LazyTileFields, (self._names, self._opener)

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        with self._lock:
            field = self._fields.get(index)
        if field is None:
            # Open outside the lock: the opener does store I/O, and
            # concurrent first touches of *different* tiles (the
            # parallel reconstruct fan-out) must overlap. A racing
            # duplicate open of the same tile is possible but harmless —
            # setdefault keeps exactly one winner.
            field = self._opener(self._names[index])
            with self._lock:
                field = self._fields.setdefault(index, field)
        return field

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

    Tiles open through ``open_field(store, name, cache=, verify=)``. The
    field pickles as its index metadata plus *store* and *verify* —
    never the cache, never an opened tile — so a process worker rebuilds
    any tile from its own copy, reading the store directly and without
    re-reading the ``<name>.tiles`` record.
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
        verify: bool = True,
    ) -> None:
        if not (len(tiles) == len(tile_field_names) == len(tile_bytes)):
            raise ValueError(
                "tiles, tile_field_names, and tile_bytes must align"
            )
        # A partial, not a bound method or closure over self: either
        # would close a field -> fields -> opener -> field cycle and
        # leave dropped sessions to the cyclic collector.
        opener = functools.partial(
            open_field, store, cache=cache, verify=verify
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
        self._store = store
        self._verify = bool(verify)

    def __reduce__(self):
        return functools.partial(
            LazyTiledField, shape=self.shape, dtype=self.dtype,
            tiles=self.tiles, tile_field_names=self.tile_field_names,
            tile_bytes=self.tile_bytes, value_range=self.value_range,
            name=self.name, store=self._store, verify=self._verify,
        ), ()

    def total_bytes(self) -> int:
        """Stored payload size of every tile — served from the index."""
        return sum(self.tile_bytes)

    @property
    def opened_tiles(self) -> list[int]:
        """Tile positions whose sub-fields have been opened so far."""
        return self.fields.opened_indices


def one_tile_field(
    field: RefactoredField, *, store, cache=None, verify: bool = True
) -> LazyTiledField:
    """A just-opened untiled *field* as the one tile of a
    :class:`LazyTiledField` (no store access; a pickled copy re-opens
    the tile by name like any other lazy tile)."""
    zeros = (0,) * len(field.shape)
    tiled = LazyTiledField(
        shape=field.shape, dtype=field.dtype,
        tiles=[TileSpec(index=zeros, offset=zeros,
                        shape=tuple(field.shape))],
        tile_field_names=[field.name], tile_bytes=[field.total_bytes()],
        value_range=field.value_range, name=field.name,
        store=store, cache=cache, verify=verify,
    )
    tiled.fields._fields[0] = field
    return tiled


def _task_refactor_tile(
    state, token, shm_name, shape, dtype_str, offset, extent, tile_name
):
    """Process-backend task: refactor one tile out of shared memory.

    The tile block is copied out of the parent's shared-memory segment
    (never pickled through the pipe). The worker refactors with the
    parent's per-shape cache (:func:`_refactorer_for`) built from the
    :class:`~repro.core.refactor.RefactorConfig` that arrived once per
    worker under *token* alone — the parent planned the tiles — and kept
    resident, so boundary tiles of the same shape reuse one refactorer
    across calls exactly as in the parent. Returns the serialized field,
    whose byte layout is the cross-backend identity contract.
    """
    refactorers = state.setdefault(("tiled-refactorer", token), {})
    block = attach_shared_block(shm_name, shape, dtype_str, offset, extent)
    refactorer = _refactorer_for(
        refactorers, worker_shared(state, token),
        tuple(int(e) for e in extent),
    )
    return refactorer.refactor(block, name=tile_name).to_bytes()


def _refactorer_for(
    refactorers: dict, config: RefactorConfig, shape: tuple[int, ...]
) -> Refactorer:
    """The cached :class:`Refactorer` of *shape* in *refactorers*.

    Boundary tiles share geometry, so there is one per distinct shape.
    The transform's lazily-built level indices are warmed here so the
    shared instance is read-only by the time tiles fan out across
    worker threads.
    """
    if shape not in refactorers:
        refactorer = Refactorer(shape, config)
        refactorer.transform.level_indices()
        refactorers[shape] = refactorer
    return refactorers[shape]


class TiledRefactorer(ClosesOnExit):
    """Refactor large fields tile by tile (the streaming write path).

    ``num_workers > 1`` refactors independent tiles concurrently on the
    instance's own thread pool — the within-device pipeline of
    Fig. 4, with per-shape :class:`~repro.core.refactor.Refactorer`
    instances (transform geometry, error weights) still shared across
    tiles. Resolving to the ``processes`` backend (``backend=`` /
    ``REPRO_BACKEND``) instead publishes the field in a shared-memory
    segment and fans tiles out across worker processes — true
    parallelism, with the config pickled once per worker and warm
    per-shape refactorers reused across calls. The tile order — and
    every tile's serialized bytes — of the result is identical under
    all three backends.
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
        self._threads = ThreadPool()  # the threads:N tile fan-out
        self._refactorers: dict[tuple[int, ...], Refactorer] = {}
        # ensure_shared token for shipping the config once per worker;
        # a fresh UUID so recycled ids can never alias a stale config.
        self._config_token = f"tiled-refactor-config:{uuid.uuid4().hex}"

    def _refactorer_for(self, shape: tuple[int, ...]) -> Refactorer:
        return _refactorer_for(self._refactorers, self.config, shape)

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
            (tile, f"{name}.T" + "_".join(map(str, tile.index)))
            for tile in tiles
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
            for tile in tiles:  # materialize shared state before the fan-out
                self._refactorer_for(tile.shape)

            def refactor_tile(job) -> RefactoredField:
                tile, tile_name = job
                block = np.ascontiguousarray(data[tile.slices()])
                return self._refactorers[tile.shape].refactor(
                    block, name=tile_name
                )

            fields = self._threads.map(refactor_tile, jobs, spec.threads)
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

        The whole field is published once in a shared-memory segment;
        each call ships only coordinates, and each worker copies out
        exactly its tile's block. Results come back as serialized
        fields (the byte-identity contract), deserialized in tile
        order. The segment is unlinked as soon as the calls settle.
        """
        backend.ensure_shared(self._config_token, self.config)
        arr = np.ascontiguousarray(data)
        shm = share_array(arr)
        try:
            refactor_name = task_name(_task_refactor_tile)
            blobs = backend.map_calls([
                (
                    refactor_name,
                    (
                        self._config_token, shm.name, arr.shape,
                        arr.dtype.str, tile.offset, tile.shape, tile_name,
                    ),
                    None,
                )
                for tile, tile_name in jobs
            ])
        finally:
            shm.close()
            shm.unlink()
        return [RefactoredField.from_bytes(blob) for blob in blobs]

    def close(self) -> None:
        """Join the instance's thread pool (idempotent).

        The shared process backend is process-wide and is not closed
        here; its own ``atexit`` registry tears it down.
        """
        self._threads.close()


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


def _task_decode_tile(state, session, token, position, window, tol, on_fault):
    """Process-backend task: one tile's progressive reconstruction step.

    The worker runs the engine itself: a plain serial
    :class:`TiledReconstructor` over the session's shared field (shipped
    once per worker under *token*), built on first use and kept resident
    under the session's key, so each tile's warm reconstructor — decode
    partials, fetch progress, counters — is reused across staircase
    steps; sticky dispatch lands a tile on the same worker every time.
    A worker that lost its state (respawned, or a replaced pool) simply
    builds a fresh engine from the shared field and the tile starts from
    scratch, bit-identically. *window* is the tile-local overlap as
    ``(start, stop)`` pairs — message payloads stay plain ints. Returns
    the tile outcome ``(block, bound, degraded, groups)`` plus the
    tile's counters as plain ints (``None`` while the tile never
    opened).
    """
    engine = state.get(("tiled-session", session))
    if engine is None:
        engine = state[("tiled-session", session)] = TiledReconstructor(
            worker_shared(state, token)
        )
    job = (position, (tuple(slice(lo, hi) for lo, hi in window), None))
    block, *rest = engine._decode_tile(
        job, engine._fetch_tile(job, tol, on_fault), on_fault
    )
    recon = engine._recons.get(position)
    return (
        (np.ascontiguousarray(block), *rest),
        None if recon is None else astuple(recon.counters()),
    )


class TiledReconstructor(ClosesOnExit):
    """Progressive reconstruction of a tiled field with a global bound.

    Per-tile :class:`~repro.core.reconstruct.Reconstructor` instances —
    and through them the retained incremental decode state — are built
    lazily on first touch, so wrapping a 1000-tile field costs nothing
    until a reconstruction actually needs a tile. Same-geometry tiles
    share one :class:`~repro.decompose.MultilevelTransform`.

    A tile's step is one body — the fetch stage (:meth:`_fetch_tile`:
    open + ``plan_step`` + ``fetch_step``, faults captured) and the
    decode stage (:meth:`_decode_tile`: ``decode_step(fetch_error=)``)
    — and every route runs those two functions: the sequential route
    composes them per tile (serial, or ``num_workers > 1`` tiles at a
    time on the instance's thread pool), the pipelined window runs
    fetch two wide on that same pool and decode on the caller thread,
    and a process worker calls them on its own resident engine
    (:func:`_task_decode_tile`) — one body by construction. The
    instance's pool therefore serves one purpose per engine: the tile
    fan-out when ``pipelined`` is false, the window's fetch stage when
    it is true. On every route a failed step returns only once nothing
    it started is still running.

    ``pipelined=True`` overlaps each tile's segment *fetch* with other
    tiles' *decode* through the bounded
    :func:`~repro.pipeline.retrieval.run_window` — the
    paper's Fig. 4 stage overlap on the real retrieval stack. On a
    latency-bearing store a staircase step then pays ≈max(fetch,
    decode) instead of their sum, with bit-identical results, counters,
    and fault semantics (each tile's store accesses stay one sequential
    chain in the sequential path's exact order). With more than one
    tile selected the window replaces the ``threads`` tile fan-out
    (decode is then inline; single-tile steps stay sequential). The
    process backend ignores the flag: its worker-resident sessions
    already overlap store I/O across workers, and tile state must live
    in exactly one place.
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
        self._transforms: dict[tuple, MultilevelTransform] = {}
        self._state_lock = threading.Lock()
        # Process route: worker-resident engines are addressed by this
        # token, ``_remote`` says one may exist (close() releases it),
        # and ``_shadow`` mirrors each remote tile's counters after its
        # latest step so counters() answers without a round-trip.
        self._session_token = f"tiled-session:{uuid.uuid4().hex}"
        self._remote = False
        self._shadow: dict[int, Counters] = {}

    def _transform_for(self, field: RefactoredField) -> MultilevelTransform:
        key = (tuple(field.shape), field.num_levels, field.mode,
               field.min_size)
        with self._state_lock:
            transform = self._transforms.get(key)
        if transform is None:
            transform = MultilevelTransform(
                field.shape,
                num_levels=field.num_levels,
                mode=field.mode,
                min_size=field.min_size,
            )
            transform.level_indices()  # warm before any concurrent use
            with self._state_lock:
                transform = self._transforms.setdefault(key, transform)
        return transform

    def _reconstructor_for(self, position: int) -> Reconstructor:
        """Tile *position*'s reconstructor, built on first touch.

        Touching a lazily-opened tiled field here also opens the tile's
        sub-field (one index fetch); untouched tiles stay unopened.
        Runs inside the per-tile fetch stage, so first-touch opens of
        different tiles — store I/O on a lazy field — overlap across
        the fetch or worker pool instead of serializing up front.
        Construction happens outside the memo lock; positions are unique
        per step, so duplicate construction cannot arise within one call.
        """
        with self._state_lock:
            recon = self._recons.get(position)
        if recon is None:
            field = self.tiled.fields[position]
            recon = Reconstructor(
                field, transform=self._transform_for(field)
            )
            with self._state_lock:
                recon = self._recons.setdefault(position, recon)
        return recon

    @property
    def touched_tiles(self) -> list[int]:
        """Tile positions with progressive state, local or remote."""
        with self._state_lock:
            return sorted(set(self._recons) | set(self._shadow))

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
        tile, local or worker-resident.

        Serial/thread sessions count in the parent's tile reconstructors
        and lazy tile fields; process sessions count in the workers,
        whose counters are mirrored back after every step. Eager
        (in-memory) fields contribute no segment traffic either way.
        """
        with self._state_lock:
            total = sum(self._shadow.values(), Counters())
        return sum((r.counters() for r in self.touched_reconstructors()),
                   total)

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

        fetch = functools.partial(
            self._fetch_tile, tol=tol, on_fault=on_fault
        )
        decode = functools.partial(self._decode_tile, on_fault=on_fault)
        spec = resolve_backend(self.backend, self.num_workers)
        if (
            spec.kind == "processes" and spec.workers > 1
            and self.tiled.num_tiles > 1
        ):
            # Worker-resident tile state lives in exactly one place, so
            # a multi-tile field takes this route on every step once
            # resolved to it; a one-tile field (an untiled variable)
            # has nothing to fan out and stays here, reading through
            # the caller's cache. ``pipelined`` is inert: workers fetch
            # store-side, overlapping I/O across the pool.
            outcomes = self._decode_tiles_processes(
                jobs, tol, on_fault, shared_process_backend(spec.workers)
            )
        elif self.pipelined and len(jobs) > 1:
            # Stage overlap (Fig. 4): fetches run up to a window of
            # tiles ahead, two at a time on the instance's pool; decode
            # and the in-stream commit stay on this thread — serial and
            # ``threads`` engines alike — so each block is stitched and
            # released at once (resident decoded data stays O(window)).
            outcomes = run_window(
                self._threads.executor(FETCH_WORKERS), jobs, fetch, decode,
                commit=functools.partial(self._commit_tile, out=out),
            )
        else:
            # The same two stages, composed per tile. First-touch opens
            # happen inside the fan-out: on a store-backed field the
            # per-tile index fetches overlap across worker threads.
            outcomes = self._threads.map(
                lambda job: decode(job, fetch(job)), jobs, spec.threads
            )
        worst = 0.0
        degraded = False
        failed_tiles: list[int] = []
        failed_groups: dict[int, list[int] | None] = {}
        for (position, (_, region_local)), outcome in zip(jobs, outcomes):
            block, bound, tile_degraded, groups = outcome
            if block is not None:  # pipelined commits wrote in-stream
                out[region_local] = block
            worst = max(worst, bound)
            if tile_degraded:
                degraded = True
                failed_tiles.append(position)
                failed_groups[position] = groups
        return TiledReconstructionResult(
            out,
            worst,
            degraded=degraded,
            failed_tiles=failed_tiles,
            failed_groups=failed_groups,
        )

    def _fetch_tile(self, job, tol, on_fault):
        """Fetch stage: first-touch open + plan + segment resolution.

        Returns ``(reconstructor, step, fault)``. Expected store faults
        are *captured*, not raised, so under the pipelined window they
        surface at decode time in tile order — the failure the
        sequential route would pick — and so the faulted fetch is never
        retried (a retry would shift per-key access counts and
        desynchronize seeded fault schedules). A fault before the tile
        ever opened returns ``(None, None, exc)`` under ``degrade`` (the
        zeros/inf tile); plan-time faults always raise.
        """
        position = job[0]
        try:
            recon = self._reconstructor_for(position)
        except StoreError as exc:
            if on_fault != "degrade":
                raise
            return None, None, exc
        step = recon.plan_step(tol)
        try:
            recon.fetch_step(step)
        except StoreError as exc:
            return recon, step, exc
        return recon, step, None

    def _decode_tile(self, job, fetched, on_fault):
        """Decode stage: one tile's plane-group decompress + commit.

        A fetch fault captured upstream replays through ``decode_step``,
        so the ``on_fault`` policy (raise, or degrade to the last
        committed refinement) is decided in one place for every route.
        """
        _, (tile_local, _) = job
        recon, step, fault = fetched
        if recon is None:
            return self._unopened_outcome(tile_local)
        result = recon.decode_step(
            step, on_fault=on_fault, fetch_error=fault
        )
        return (
            result.data[tile_local],
            result.error_bound,
            result.degraded,
            result.failed_groups,
        )

    def _unopened_outcome(self, tile_local):
        """Degraded outcome of a tile with no committed refinement.

        The tile never opened (or its worker-resident state died with
        its worker): there is no stale answer to fall back on, so it
        contributes zeros and an unbounded error for this step, caches
        nothing, and is retried from scratch on the next call.
        """
        shape = tuple(loc.stop - loc.start for loc in tile_local)
        return np.zeros(shape, dtype=self.tiled.dtype), math.inf, True, None

    def _commit_tile(self, job, outcome, out):
        """Commit stage: stitch the block, then drop it (O(window))."""
        _, (_, region_local) = job
        block, *rest = outcome
        out[region_local] = block
        return None, *rest

    def _decode_tiles_processes(
        self, jobs: list[tuple], tol: float | None, on_fault: str, backend
    ) -> list[tuple]:
        """One step of every selected tile on the process backend.

        The field ships once per worker (``ensure_shared``; a restarted
        or replaced pool has shipped nothing, so it ships again by
        itself) and each call carries only the tile position and plain
        ints. Sticky dispatch pins a tile to one worker, whose resident
        engine keeps the tile's warm reconstructor across staircase
        steps. The parent tracks nothing about what lives where: the
        backend restores shared objects onto a respawned worker and
        retries the in-flight call, which rebuilds that worker's tiles
        from scratch, while the survivors keep their state. Each reply
        mirrors the tile's counters into ``_shadow``.
        """
        field_token = f"tiled-field:{self._session_token}"
        backend.ensure_shared(field_token, self.tiled)
        self._remote = True
        decode_name = task_name(_task_decode_tile)
        settled = backend.map_calls([
            (
                decode_name,
                (
                    self._session_token, field_token, pos,
                    tuple((s.start, s.stop) for s in tile_local),
                    tol, on_fault,
                ),
                pos,  # sticky: the tile's decode state lives here
            )
            for pos, (tile_local, _) in jobs
        ], settle=True)
        outcomes = []
        failures: list[BaseException] = []
        for (pos, (tile_local, _)), (ok, value) in zip(jobs, settled):
            if ok:
                outcome, counts = value
                if counts is not None:
                    with self._state_lock:
                        self._shadow[pos] = Counters(*counts)
                outcomes.append(outcome)
            elif on_fault == "degrade" and isinstance(
                value, (StoreError, ComputeError)
            ):
                # The tile's worker-resident refinement died with its
                # worker (crash, quarantine, or deadline kill): nothing
                # is committed parent-side, so degrade like a
                # never-opened tile.
                outcomes.append(self._unopened_outcome(tile_local))
            else:
                failures.append(value)
        if failures:
            raise failures[0]  # jobs are in tile order: the earliest
        return outcomes

    def close(self) -> None:
        """Release worker-resident session state, then the local pool.

        Idempotent; the engine stays usable (either is rebuilt on the
        next step that needs it). The shared process backend itself is
        process-wide and is not closed here.
        """
        if self._remote:
            self._remote = False
            # Only a live pool can hold this session: look, never
            # create one to drop from. Both drops are best-effort.
            backend = current_process_backend()
            if backend is not None:
                backend.drop_session(self._session_token)
                backend.drop_shared(f"tiled-field:{self._session_token}")
        self._threads.close()

    def __del__(self) -> None:
        # Worker-resident state is released by close() alone, and the
        # service tracks its sessions weakly: an abandoned engine must
        # still let go of it. (Thread pools need no finalizer.)
        try:
            self.close()
        except Exception:  # reprolint: disable=R2 -- GC-time teardown: an exception in __del__ is unactionable and would only print noise
            pass

    def progressive(
        self,
        tolerances: Sequence[float],
        relative: bool = False,
        region: Sequence | None = None,
        on_fault: str = "raise",
    ) -> list["TiledReconstructionResult"]:
        """Reconstruct at a decreasing tolerance schedule over *region*."""
        return [
            self.reconstruct(
                tolerance=t, relative=relative, region=region,
                on_fault=on_fault,
            )
            for t in tolerances
        ]


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
