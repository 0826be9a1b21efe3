"""repro — a reproduction of HP-MDR (SC'25).

High-performance and Portable Data Refactoring and Progressive Retrieval
with Advanced GPUs, rebuilt as a pure-Python library: the PMGARD-style
multilevel decomposition, optimized bitplane encoding designs, hybrid
lossless compression, HDEM pipeline optimization, QoI-controlled
progressive retrieval, and all evaluation baselines.

Quickstart (doctested — see README.md for the store-backed service flow):

    >>> import numpy as np
    >>> from repro import refactor, reconstruct
    >>> data = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
    >>> field = refactor(data)                      # write once
    >>> coarse = reconstruct(field, tolerance=1e-2)   # read cheap
    >>> fine = reconstruct(field, tolerance=1e-8)     # read precise
    >>> bool(np.max(np.abs(coarse.data - data)) <= 1e-2)
    True
    >>> fine.fetched_bytes > coarse.fetched_bytes
    True

See README.md for install/usage, docs/architecture.md for the
paper-section → module map, and ROADMAP.md for the perf trajectory.
"""

from repro.core.errors import (
    SegmentCorruptionError,
    SegmentNotFoundError,
    StoreError,
    StoreFormatError,
    TransientStoreError,
)
from repro.core.faults import FaultInjectingStore, ResilientReader, RetryPolicy
from repro.core.reconstruct import (
    ReconstructionResult,
    Reconstructor,
    reconstruct,
)
from repro.core.refactor import RefactorConfig, Refactorer, refactor
from repro.core.service import RetrievalService, SegmentCache
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    load_field,
    open_field,
    store_field,
)
from repro.core.stream import LazyRefactoredField, RefactoredField
from repro.lossless.hybrid import HybridConfig
from repro.qoi import retrieve_qoi, v_total

__version__ = "1.1.0"

__all__ = [
    "refactor",
    "reconstruct",
    "Refactorer",
    "Reconstructor",
    "RefactorConfig",
    "HybridConfig",
    "RefactoredField",
    "LazyRefactoredField",
    "ReconstructionResult",
    "MemoryStore",
    "DirectoryStore",
    "store_field",
    "load_field",
    "open_field",
    "RetrievalService",
    "SegmentCache",
    "StoreError",
    "SegmentNotFoundError",
    "TransientStoreError",
    "SegmentCorruptionError",
    "StoreFormatError",
    "FaultInjectingStore",
    "RetryPolicy",
    "ResilientReader",
    "retrieve_qoi",
    "v_total",
    "__version__",
]
