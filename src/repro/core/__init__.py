"""HP-MDR core: end-to-end data refactoring and progressive retrieval.

The pipeline composes the substrates exactly as Figure 1 of the paper:

    field ──MultilevelTransform──► per-level coefficients
          ──bitplane encode─────► per-level bitplane streams
          ──hybrid lossless─────► compressed plane groups (segments)

and the reverse for reconstruction, where the retrieval planner picks the
cheapest set of plane groups whose composed L∞ bound meets the requested
tolerance (the "just enough precision on demand" property).

Public API:

- :class:`~repro.core.refactor.Refactorer` — one-call refactoring.
- :class:`~repro.core.reconstruct.Reconstructor` — tolerance-driven and
  incremental (progressive) reconstruction.
- :class:`~repro.core.stream.RefactoredField` — the portable stream
  format (serializable, device-independent) — and its store-backed
  :class:`~repro.core.stream.LazyRefactoredField` twin that resolves
  segments on first decode touch.
- :mod:`~repro.core.store` — in-memory and directory-backed (one
  append-only pack file) segment stores behind the :class:`~repro.core.store.SegmentReader`
  protocol, plus :func:`~repro.core.store.store_field` /
  :func:`~repro.core.store.load_field` /
  :func:`~repro.core.store.open_field`.
- :mod:`~repro.core.service` — the
  :class:`~repro.core.service.RetrievalService` layer that multiplexes
  concurrent progressive :class:`~repro.core.service.Session` objects
  (one engine for every variable: an untiled one is a one-tile field)
  over one byte-budgeted shared :class:`~repro.core.service.SegmentCache`.
"""

from repro.core.errors import (
    ComputeError,
    SegmentCorruptionError,
    SegmentNotFoundError,
    StoreError,
    StoreFormatError,
    TransientStoreError,
    WorkerCrashedError,
    WorkerTimeoutError,
)
from repro.core.faults import (
    FaultInjectingStore,
    ResilientReader,
    RetryPolicy,
    WorkerChaos,
)
from repro.core.planner import RetrievalPlan, plan_greedy, plan_round_robin
from repro.core.reconstruct import ReconstructionResult, Reconstructor
from repro.core.refactor import Refactorer, RefactorConfig
from repro.core.service import RetrievalService, SegmentCache, Session
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    SegmentReader,
    load_field,
    open_field,
    open_tiled_field,
    segment_checksum,
    store_field,
    store_tiled_field,
)
from repro.core.stream import (
    LazyRefactoredField,
    LevelStream,
    RefactoredField,
    SegmentRef,
)
from repro.core.tiling import (
    LazyTiledField,
    TiledField,
    TiledReconstructionResult,
    TiledReconstructor,
    TiledRefactorer,
    plan_tiles,
)

__all__ = [
    "Refactorer",
    "RefactorConfig",
    "Reconstructor",
    "ReconstructionResult",
    "RefactoredField",
    "LazyRefactoredField",
    "LevelStream",
    "SegmentRef",
    "RetrievalPlan",
    "plan_greedy",
    "plan_round_robin",
    "SegmentReader",
    "MemoryStore",
    "DirectoryStore",
    "store_field",
    "load_field",
    "open_field",
    "store_tiled_field",
    "open_tiled_field",
    "segment_checksum",
    "StoreError",
    "SegmentNotFoundError",
    "TransientStoreError",
    "SegmentCorruptionError",
    "StoreFormatError",
    "ComputeError",
    "WorkerCrashedError",
    "WorkerTimeoutError",
    "FaultInjectingStore",
    "WorkerChaos",
    "RetryPolicy",
    "ResilientReader",
    "RetrievalService",
    "SegmentCache",
    "Session",
    "plan_tiles",
    "TiledField",
    "LazyTiledField",
    "TiledRefactorer",
    "TiledReconstructionResult",
    "TiledReconstructor",
]
