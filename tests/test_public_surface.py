"""The retrieval and refactoring APIs' public signatures, pinned.

One retrieval step runs one way (``plan_step → fetch_step →
decode_step``) and a worker count means one thing (*tiles at a time*,
accepted by the two tiled engines), so the constructors and
``reconstruct`` methods carry only the parameters something measured or
a caller needs. This file pins
that surface by signature — a parameter that comes back has to come back
here first — and checks that every removed keyword is a ``TypeError``,
not a silently ignored argument. It needs nothing but the package (and
pytest as the runner), so CI also runs it against the *installed*
package in the ``clean-install`` job.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import repro.core.reconstruct
import repro.core.stream
import repro.pipeline
import repro.pipeline.retrieval
from repro.core.backends import (
    ClosesOnExit,
    ProcessBackend,
    ThreadPool,
    _task_ping,
    task_name,
)
from repro.core.reconstruct import Reconstructor, reconstruct
from repro.core.refactor import RefactorConfig, Refactorer, refactor
import repro.core
import repro.core.service
from repro.core.faults import FaultInjectingStore, ResilientReader
from repro.core.service import RetrievalService, SegmentCache, Session
from repro.core.store import DirectoryStore, MemoryStore
from repro.core.stream import Counters
from repro.core.tiling import (
    LazyTiledField,
    TiledReconstructor,
    TiledRefactorer,
)
from repro.lossless.hybrid import compress_planes
from repro.pipeline.retrieval import run_window

REQUIRED = inspect.Parameter.empty

STEP = [("tolerance", None), ("relative", False), ("plan", None),
        ("on_fault", "raise")]
TILED_STEP = [("tolerance", None), ("relative", False), ("region", None),
              ("on_fault", "raise")]
TILED_ENGINE = [("num_workers", 0), ("backend", None), ("pipelined", False)]

SURFACE = [
    (Reconstructor, [("field", REQUIRED), ("transform", None)]),
    (reconstruct,
     [("field", REQUIRED), ("tolerance", None), ("relative", False)]),
    (Reconstructor.reconstruct, STEP),
    (Reconstructor.decode_step,
     [("step", REQUIRED), ("on_fault", "raise"), ("fetch_error", None)]),
    (TiledReconstructor, [("tiled", REQUIRED), *TILED_ENGINE]),
    (TiledReconstructor.reconstruct, TILED_STEP),
    (RetrievalService.session,
     [("name", REQUIRED), ("num_workers", 0), ("backend", None),
      ("pipelined", None)]),
    (Session, [("service", REQUIRED), ("tiled", REQUIRED), *TILED_ENGINE]),
    (Session.reconstruct, TILED_STEP),
    (run_window,
     [("executor", REQUIRED), ("items", REQUIRED), ("fetch", REQUIRED),
      ("decode", REQUIRED), ("commit", None), ("window", 4)]),
    (ThreadPool, []),
    (ThreadPool.executor, [("workers", REQUIRED)]),
    (ThreadPool.map,
     [("fn", REQUIRED), ("jobs", REQUIRED), ("workers", REQUIRED)]),
    (RetrievalService,
     [("store", REQUIRED), ("cache_bytes", 256 << 20), ("prefetch", False)]),
    (Refactorer, [("shape", REQUIRED), ("config", None)]),
    (TiledRefactorer,
     [("tile_shape", REQUIRED), ("config", None), ("num_workers", 0),
      ("backend", None)]),
    (compress_planes, [("planes", REQUIRED), ("config", None)]),
    (LazyTiledField,
     [("shape", REQUIRED), ("dtype", REQUIRED), ("tiles", REQUIRED),
      ("tile_field_names", REQUIRED), ("tile_bytes", REQUIRED),
      ("value_range", REQUIRED), ("name", REQUIRED), ("store", REQUIRED),
      ("cache", None), ("verify", True)]),
    (ProcessBackend,
     [("num_workers", REQUIRED), ("default_deadline", None),
      ("max_task_retries", 2)]),
]

REMOVED_KEYWORDS = [
    (Reconstructor, ["num_workers", "backend", "incremental"]),
    (reconstruct, ["num_workers", "backend"]),
    (Reconstructor.decode_step, ["level_runner"]),
    (TiledReconstructor,
     ["incremental", "pipeline_window", "fetch_workers"]),
    (TiledReconstructor.reconstruct, ["pipelined"]),
    (RetrievalService.session, ["pipeline_window", "fetch_workers"]),
    (Session, ["pipeline_window", "fetch_workers"]),
    (Session.reconstruct, ["pipelined", "plan"]),
    (RefactorConfig, ["num_workers", "backend"]),
    (compress_planes, ["pool"]),
    (run_window, ["decode_pool", "decode_workers", "fetch_workers"]),
    (RetrievalService, ["num_workers"]),
    (ProcessBackend, ["start_method"]),
]


def _parameters(obj):
    return [
        (p.name, p.default)
        for p in inspect.signature(obj).parameters.values()
        if p.name != "self"
    ]


@pytest.mark.parametrize(
    "obj,expected", SURFACE, ids=[obj.__qualname__ for obj, _ in SURFACE]
)
def test_signature_is_exactly(obj, expected):
    assert _parameters(obj) == expected


@pytest.mark.parametrize(
    "obj,keyword",
    [(obj, kw) for obj, kws in REMOVED_KEYWORDS for kw in kws],
    ids=[f"{obj.__qualname__}-{kw}"
         for obj, kws in REMOVED_KEYWORDS for kw in kws],
)
def test_removed_keyword_is_a_type_error(obj, keyword):
    # Argument binding fails before any body runs, so placeholder
    # positionals (including an unbound method's ``self``) are enough.
    required = [None] * sum(
        p.default is REQUIRED
        for p in inspect.signature(obj).parameters.values()
    )
    with pytest.raises(TypeError, match=keyword):
        obj(*required, **{keyword: 1})


def test_refactor_config_fields():
    assert [f.name for f in dataclasses.fields(RefactorConfig)] == [
        "num_bitplanes", "num_levels", "mode", "min_size", "design",
        "warp_size", "signed_encoding", "hybrid",
    ]


def test_removed_names_are_gone():
    assert not hasattr(repro.pipeline, "pipelined_reconstruct")
    assert not hasattr(repro.pipeline.retrieval, "pipelined_reconstruct")
    assert "pipelined_reconstruct" not in repro.pipeline.__all__
    assert not hasattr(repro.pipeline.retrieval, "RetrievalPipeline")
    assert not hasattr(repro.pipeline, "RetrievalPipeline")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core._pool")
    for name in ("fetch_level_groups", "step_segment_keys", "map_jobs",
                 "close", "num_workers", "backend", "incremental",
                 "_decode_level_full"):
        assert not hasattr(Reconstructor, name), name


def test_one_session_class_and_one_opener():
    """Every variable is served by one ``Session`` over one tiled
    engine; ``tiled_session`` survives only as an alias of ``session``."""
    assert "Session" in repro.core.__all__
    for name in ("ServiceSession", "TiledServiceSession"):
        assert not hasattr(repro.core, name), name
        assert name not in repro.core.__all__
    assert RetrievalService.tiled_session is RetrievalService.session
    assert not hasattr(RetrievalService, "open_tiled")
    assert not hasattr(SegmentCache, "warm")


def test_one_batch_method_per_read_layer():
    """Every reader layer answers ``get`` + ``settle_many`` and the cache
    ``get`` + ``resolve_settled``; the cache credits its own prefetch
    hits, so no session-side facade fronts it."""
    for layer in (MemoryStore, DirectoryStore, FaultInjectingStore,
                  ResilientReader, SegmentCache):
        assert not hasattr(layer, "get_many"), layer
    for name in ("resolve", "resolve_many", "settle_many"):
        assert not hasattr(SegmentCache, name), name
    assert callable(SegmentCache.prefetch)
    assert not hasattr(repro.core.service, "_PrefetchAwareCache")
    assert not hasattr(LazyTiledField, "io_counters")


def test_pool_owners_compose_their_thread_pool():
    """A thread pool is a handle an object owns, not a class it
    inherits: the three owners share only the stateless ``with``
    protocol, none dispatches through a generic ``map_jobs``, and the
    service is not an execution-backend host at all."""
    assert set(vars(ClosesOnExit)) <= {
        "__module__", "__doc__", "__dict__", "__weakref__",
        "__enter__", "__exit__",
    }
    for owner in (TiledRefactorer, TiledReconstructor, RetrievalService):
        assert owner.__mro__[1:] == (ClosesOnExit, object), owner
        assert not hasattr(owner, "map_jobs"), owner
    for engine in (Refactorer, Reconstructor):
        assert engine.__mro__[1:] == (object,), engine
    assert not hasattr(RetrievalService, "backend")
    assert repro.pipeline.retrieval.WINDOW == 4
    assert repro.pipeline.retrieval.FETCH_WORKERS == 2


def test_one_counters_record():
    """One record counts the read path's traffic and decode work. A
    process worker replies with it as plain ints in field order, so the
    order is pinned; the two partial records it replaced are gone."""
    assert [f.name for f in dataclasses.fields(Counters)] == [
        "fetched_bytes", "decode_state_bytes", "groups_decoded",
        "planes_decoded", "level_decodes", "level_reuses",
        "segment_reads", "cold_bytes", "cache_hit_bytes",
    ]
    a, b = Counters(*range(1, 10)), Counters(*range(10, 19))
    assert a + b - b == a
    assert dataclasses.astuple(a + b) == tuple(range(11, 29, 2))
    assert not hasattr(repro.core.stream, "IOCounters")
    assert not hasattr(repro.core.reconstruct, "DecodeCounters")
    for name in ("snapshot", "since", "total", "bytes_fetched"):
        assert not hasattr(Counters, name), name
    assert not hasattr(TiledReconstructor, "aggregate_io_counters")
    assert (TiledReconstructor.aggregate_decode_counters
            is TiledReconstructor.counters)
    recon = Reconstructor(refactor(np.linspace(0.0, 1.0, 64)))
    assert not hasattr(recon, "decode_counters")
    assert recon.counters() == Counters()


def test_lazy_tiled_field_takes_a_store_not_an_opener():
    metadata = dict(shape=(4,), dtype="float32", tiles=[],
                    tile_field_names=[], tile_bytes=[], value_range=1.0,
                    name="rho")
    with pytest.raises(TypeError, match="opener"):
        LazyTiledField(**metadata, store=None, opener=lambda name: None)
    field = LazyTiledField(**metadata, store=None)
    assert not hasattr(field, "source")


def test_process_backend_tracks_no_resident_state():
    """Engines rebuild worker state from one shared object, so the pool
    exposes no per-slot stamps; ``broadcast`` is still one result per
    worker, in slot order."""
    assert not hasattr(ProcessBackend, "slot_generations")
    assert not hasattr(ProcessBackend, "_broadcast_send")
    with ProcessBackend(2) as backend:
        pids = backend.broadcast(task_name(_task_ping))
        assert pids == [w.process.pid for w in backend._workers]
        assert len(set(pids)) == 2
