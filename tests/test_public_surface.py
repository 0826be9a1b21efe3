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
import time

import numpy as np
import pytest

import repro.bitplane
import repro.bitplane.align
import repro.bitplane.encoding
import repro.bitplane.transpose
import repro.core.backends
import repro.core.planner
import repro.core.reconstruct
import repro.core.store
import repro.core.stream
import repro.core.tiling
import repro.lossless
import repro.lossless.bitio
import repro.lossless.huffman
import repro.lossless.hybrid
import repro.pipeline
import repro.util
import repro.util.validation
from repro.bitplane.encoding import BitplaneStream, decode_bitplanes
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
from repro.core.faults import FaultInjectingStore, ResilientReader, RetryPolicy
from repro.core.service import RetrievalService, SegmentCache, Session
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    _ColdResolver,
    load_field,
    open_field,
    open_fields,
    open_tiled_field,
)
from repro.core.stream import Counters, LevelStream, SegmentRef
from repro.decompose import transform_for
from repro.gpu.events import Timeline
from repro.gpu.hdem import HostDeviceModel
from repro.core.tiling import (
    LazyTiledField,
    TiledReconstructor,
    TiledRefactorer,
)
from repro.lossless.huffman import HuffmanCodec, huffman_encode
from repro.lossless.hybrid import compress_planes

REQUIRED = inspect.Parameter.empty

STEP = [("tolerance", None), ("relative", False), ("on_fault", "raise")]
TILED_STEP = [("tolerance", None), ("relative", False), ("region", None),
              ("on_fault", "raise")]
TILED_ENGINE = [("num_workers", 0), ("backend", None), ("pipelined", False)]

SURFACE = [
    (Reconstructor, [("field", REQUIRED)]),
    (reconstruct,
     [("field", REQUIRED), ("tolerance", None), ("relative", False)]),
    (Reconstructor.reconstruct, STEP),
    (Reconstructor.plan_step, [("tolerance", None), ("relative", False)]),
    (Reconstructor.plan_steps,
     [("recons", REQUIRED), ("tolerance", None), ("relative", False)]),
    (Reconstructor.decode_step,
     [("step", REQUIRED), ("on_fault", "raise"), ("fetch_error", None)]),
    (TiledReconstructor, [("tiled", REQUIRED), *TILED_ENGINE]),
    (TiledReconstructor.reconstruct, TILED_STEP),
    (RetrievalService.session,
     [("name", REQUIRED), ("num_workers", 0), ("backend", None),
      ("pipelined", None)]),
    (Session, [("service", REQUIRED), ("tiled", REQUIRED), *TILED_ENGINE]),
    (Session.reconstruct, TILED_STEP),
    (ThreadPool, []),
    (ThreadPool.executor, [("workers", REQUIRED)]),
    (ThreadPool.map,
     [("fn", REQUIRED), ("jobs", REQUIRED), ("workers", REQUIRED),
      ("then", None)]),
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
      ("cache", None)]),
    (ProcessBackend, [("num_workers", REQUIRED)]),
    (ProcessBackend.map_calls, [("calls", REQUIRED), ("deadline", None)]),
    (RetryPolicy,
     [("max_attempts", 4), ("base_delay_s", 0.01), ("jitter", 0.1),
      ("deadline_s", None), ("attempt_timeout_s", None), ("seed", 0),
      ("sleep", time.sleep), ("clock", time.monotonic)]),
    (load_field, [("store", REQUIRED), ("name", REQUIRED)]),
    (transform_for,
     [("shape", REQUIRED), ("num_levels", None), ("mode", "hierarchical"),
      ("min_size", 4)]),
    (HuffmanCodec, [("chunk_symbols", 256)]),
    (HuffmanCodec.encode,
     [("data", REQUIRED), ("freqs", None), ("lengths", None)]),
    (huffman_encode,
     [("data", REQUIRED), ("freqs", None), ("lengths", None)]),
    (decode_bitplanes, [("stream", REQUIRED), ("num_planes", None)]),
]

REMOVED_KEYWORDS = [
    (Reconstructor, ["num_workers", "backend", "incremental", "transform"]),
    (reconstruct, ["num_workers", "backend"]),
    (Reconstructor.reconstruct, ["plan"]),
    (Reconstructor.plan_step, ["plan"]),
    (Reconstructor.plan_steps, ["plan"]),
    (Reconstructor.decode_step, ["level_runner"]),
    (TiledReconstructor,
     ["incremental", "pipeline_window", "fetch_workers"]),
    (TiledReconstructor.reconstruct, ["pipelined"]),
    (RetrievalService.session, ["pipeline_window", "fetch_workers"]),
    (Session, ["pipeline_window", "fetch_workers"]),
    (Session.reconstruct, ["pipelined", "plan"]),
    (RefactorConfig, ["num_workers", "backend"]),
    (compress_planes, ["pool"]),
    (RetrievalService, ["num_workers"]),
    (ProcessBackend, ["start_method", "default_deadline",
                      "max_task_retries"]),
    (RetryPolicy, ["max_delay_s", "retryable"]),
    (open_field, ["verify"]),
    (open_fields, ["verify"]),
    (open_tiled_field, ["verify"]),
    (load_field, ["verify", "groups_per_level"]),
    (LazyTiledField, ["verify"]),
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
    """The pipelined window left the runtime with its module: a tiled
    step's one batch runner is ``ThreadPool.map``, and ``repro.pipeline``
    defines no names (its simulated submodules import directly, so
    the only public attributes it can grow are those submodules)."""
    for name in ("pipelined_reconstruct", "RetrievalPipeline", "StageCosts"):
        assert not hasattr(repro.pipeline, name), name
    assert {name for name in vars(repro.pipeline)
            if not name.startswith("_")} <= {"dag", "scheduler", "executor",
                                              "multigpu"}
    assert not hasattr(repro.pipeline, "__all__")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core._pool")
    with pytest.raises(ModuleNotFoundError):  # the window's module
        importlib.import_module(".retrieval", package="repro.pipeline")
    for name in ("fetch_level_groups", "step_segment_keys", "map_jobs",
                 "close", "num_workers", "backend", "incremental",
                 "_decode_level_full"):
        assert not hasattr(Reconstructor, name), name
    # A geometry's transform is the process's one (transform_for).
    assert not hasattr(TiledReconstructor, "_transform_for")


def test_test_only_entry_points_are_gone():
    """Entry points whose only callers were tests: a staircase is a
    loop over ``reconstruct``, a plan comes from the planner, a worker
    is reached by one ``map_calls`` call each, and a tiled refactor has
    no thread pool to close."""
    for owner, name in [
        (Reconstructor, "progressive"), (Reconstructor, "_validate_plan"),
        (TiledReconstructor, "progressive"),
        (repro.core.planner, "plan_for_planes"),
        (repro.core.store, "SegmentStore"), (repro.core, "SegmentStore"),
        (LevelStream, "to_bitplane_stream"),
        (ProcessBackend, "broadcast"), (RetryPolicy, "run"),
        (TiledRefactorer, "close"), (TiledRefactorer, "__enter__"),
        (TiledRefactorer, "__exit__"), (TiledRefactorer, "_refactorer_for"),
        (repro.core.backends, "_LIVE_THREAD_POOLS"),
        (repro.core.backends, "_shutdown_thread_pools"),
        (repro.bitplane, "decode_bitplanes_incremental"),
        (repro.bitplane.encoding, "decode_bitplanes_incremental"),
        (repro.bitplane.encoding, "_check_state_matches"),
        (repro.lossless, "estimate_group_ratios"),
        (repro.lossless.hybrid, "estimate_group_ratios"),
        (repro.lossless.hybrid, "_select_method"),
    ]:
        assert not hasattr(owner, name), (owner, name)
    for package, name in [(repro.core, "SegmentStore"),
                          (repro.bitplane, "decode_bitplanes_incremental"),
                          (repro.lossless, "estimate_group_ratios")]:
        assert name not in package.__all__, name
    assert repro.core.backends._MAX_TASK_RETRIES == 2
    assert not hasattr(TiledRefactorer((4,)), "_threads")


def test_one_huffman_encoder_and_one_packer():
    """The seed Huffman kernels are test oracles
    (``tests/oracles/huffman_seed.py``): the codec has one encode body
    with no route switch, and the bit module one packer. Entry points
    whose only callers were tests are gone with them — a bitplane
    stream travels as a refactored field's plane groups, never as bytes
    of its own."""
    for name in ("encode_reference", "decode_reference",
                 "_build_lut_reference", "_encode_impl"):
        assert not hasattr(HuffmanCodec, name), name
    for name, method in vars(HuffmanCodec).items():
        if "encode" in name:
            assert "fast" not in inspect.signature(method).parameters, name
    assert not hasattr(repro.lossless.huffman, "build_code_lengths_reference")
    for name in ("pack_varlen_bits", "pack_varlen_bits_reference",
                 "peek_bits"):
        assert not hasattr(repro.lossless.bitio, name), name
    for name in ("to_bytes", "from_bytes"):
        assert not hasattr(BitplaneStream, name), name
    assert not hasattr(repro.bitplane.encoding, "_MAGIC")
    for name in ("encode", "decode"):
        assert not hasattr(repro.bitplane, name), name
        assert not hasattr(repro.bitplane.encoding, name), name
        assert name not in repro.bitplane.__all__, name
    assert not hasattr(repro.util, "check_positive")
    assert not hasattr(repro.util.validation, "check_positive")
    assert "check_positive" not in repro.util.__all__
    assert not hasattr(Timeline, "engine_busy_time")
    assert not hasattr(HostDeviceModel, "serial_time")


def test_one_bitplane_decoder():
    """``decode_bitplanes`` is the resumable decoder's one-call; the
    one-shot decoder it replaced is the test oracle
    ``tests/oracles/bitplane_decode.py``, so none of its inject, convert
    or un-transpose kernels remains. ``inject_code_planes_reference``
    stays: it is the big-endian route of ``apply_planes_many``."""
    for module, name in [
        (repro.bitplane.encoding, "_decode_negabinary"),
        (repro.bitplane.encoding, "inject_planes"),
        (repro.bitplane.encoding, "inject_planes_reference"),
        (repro.bitplane.encoding, "inject_code_planes"),
        (repro.bitplane.transpose, "planes_to_words"),
        (repro.bitplane.transpose, "untranspose_sign_magnitude"),
        (repro.bitplane.align, "from_fixed_point"),
        (repro.bitplane, "from_fixed_point"),
    ]:
        assert not hasattr(module, name), (module.__name__, name)
        assert name not in repro.bitplane.__all__, name
    assert callable(repro.bitplane.encoding.inject_code_planes_reference)


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


def test_checksums_ride_in_segment_refs():
    """A segment's CRC32 is a field of its ``SegmentRef`` and every
    segment read names it (``resolve_settled(keys, expected)``), so no
    resolver keeps a checksum registry. The retry layer keeps its own
    opt-in table."""
    assert [f.name for f in dataclasses.fields(SegmentRef)] == [
        "key", "nbytes", "num_planes", "crc32"]
    for resolver in (SegmentCache, _ColdResolver):
        assert not hasattr(resolver, "register_checksums"), resolver
        assert _parameters(resolver.resolve_settled) == [
            ("keys", REQUIRED), ("expected", None)]
    assert _parameters(SegmentCache.prefetch) == [
        ("key", REQUIRED), ("crc32", REQUIRED)]
    assert not any("checksum" in name
                   for name in vars(SegmentCache(MemoryStore())))
    assert not hasattr(repro.core, "index_checksums")
    assert "index_checksums" not in repro.core.__all__
    assert not hasattr(repro.core.store, "index_checksums")
    assert callable(ResilientReader.register_checksums)


def test_pool_owners_compose_their_thread_pool():
    """A thread pool is a handle an object owns, not a class it
    inherits: the two owners share only the stateless ``with``
    protocol, none dispatches through a generic ``map_jobs``, and the
    service is not an execution-backend host at all. The write side
    owns no pool."""
    assert set(vars(ClosesOnExit)) <= {
        "__module__", "__doc__", "__dict__", "__weakref__",
        "__enter__", "__exit__",
    }
    for owner in (TiledReconstructor, RetrievalService):
        assert owner.__mro__[1:] == (ClosesOnExit, object), owner
        assert not hasattr(owner, "map_jobs"), owner
    for engine in (Refactorer, Reconstructor, TiledRefactorer):
        assert engine.__mro__[1:] == (object,), engine
    assert not hasattr(RetrievalService, "backend")
    assert repro.core.tiling.FETCH_WORKERS == 2


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
    """Reads run in the caller's process and a write call carries its
    whole input, so the pool exposes no per-slot stamps, sticky routing
    or session drops; one call per worker lands on each worker, in slot
    order."""
    for name in ("slot_generations", "_broadcast_send", "worker_for",
                 "drop_session", "ensure_shared", "drop_shared", "_recv",
                 "_abandon"):
        assert not hasattr(ProcessBackend, name), name
    assert not hasattr(repro.core.backends, "WORKER_CHAOS_TOKEN")
    with ProcessBackend(2) as backend:
        pids = backend.map_calls(
            [(task_name(_task_ping), ())] * backend.num_workers)
        assert pids == [w.process.pid for w in backend._workers]
        assert len(set(pids)) == 2
