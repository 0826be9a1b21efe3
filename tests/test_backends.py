"""Cross-backend differential suite: serial / threads / processes.

The execution backend must be *unobservable* except in wall-clock time:
every engine (eager refactor, incremental staircases against the
full-decode oracle, tiled region-of-interest retrieval, degraded-mode
resume, service sessions over tiled and one-tile fields) must produce
bit-identical bytes, identical error bounds,
identical ``counters()`` records, and identical
degraded/failed-tile reporting under all three backends. Each test
computes its reference on the serial engine and diffs a parametrized
backend against it, so a future backend (or a regression in an existing
one) fails loudly here rather than corrupting science silently.

Also covers the backend-selection rules, hypothesis properties of the
two fan-out mechanisms (``ThreadPool.map`` and
``ProcessBackend.map_jobs``: ordering, exception propagation,
lifecycle), who owns which thread pool, the drain-before-raise
guarantee of the ``threads`` route, and ``atexit`` teardown of leaked
pools.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.full_decode import full_decode

from repro.core import backends
from repro.core.backends import (
    BACKEND_ENV,
    ProcessBackend,
    ThreadPool,
    current_process_backend,
    default_process_workers,
    parse_backend_spec,
    resolve_backend,
    shared_process_backend,
    shutdown_all_backends,
    task_name,
    worker_shared,
)
from repro.core.errors import (
    StoreError,
    TransientStoreError,
    WorkerCrashedError,
    WorkerTimeoutError,
)
from repro.core.faults import FaultInjectingStore, WorkerChaos
from repro.core.refactor import refactor
from repro.core.reconstruct import Reconstructor
from repro.core.service import RetrievalService
from repro.core.store import (
    MemoryStore,
    open_field,
    open_tiled_field,
    segment_key,
    store_field,
    store_tiled_field,
)
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data import generators as gen
from repro.pipeline.retrieval import FETCH_WORKERS

BACKENDS = ["serial", "threads:2", "processes:2"]
STAIRCASE = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
ROI = (slice(4, 14), slice(2, 12), None)
SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.backend


# -- shared task/job functions (module-level: process-backend picklable) ---

def _square(x):
    return x * x


def _explode_on_negative(x):
    if x < 0:
        raise ValueError(f"negative job {x}")
    return x


def _raise_transient(x):
    raise TransientStoreError(f"synthetic fault {x}")


def _resolved_kind_with_forced_parallel(_):
    # Inside a process worker the guard must force serial regardless of
    # what num_workers asks for — nested pools are forbidden.
    return resolve_backend(None, 8).kind


_identity_lambda = lambda x: x  # noqa: E731 -- module-level, still unpicklable


class _Host:
    """Test-local adapter: one ``map_jobs`` over the two real mechanisms,
    selected the way the tiled engines select."""

    def __init__(self, num_workers: int = 0, backend: str | None = None):
        self.num_workers, self.backend = int(num_workers), backend
        self._threads = ThreadPool()
        self.close = self._threads.close

    def map_jobs(self, fn, jobs):
        spec = resolve_backend(self.backend, self.num_workers)
        if spec.kind == "processes" and spec.workers > 1 and len(jobs) > 1:
            return shared_process_backend(spec.workers).map_jobs(fn, jobs)
        return self._threads.map(fn, jobs, spec.threads)


# -- fixtures ---------------------------------------------------------------

@pytest.fixture(scope="module")
def data():
    return gen.gaussian_random_field((18, 14, 10), -2.0, seed=21,
                                     dtype=np.float64)


@pytest.fixture(scope="module")
def reference_field(data):
    return refactor(data, name="vx")


@pytest.fixture(scope="module")
def reference_staircase(reference_field):
    recon = Reconstructor(reference_field)
    return [recon.reconstruct(tolerance=t) for t in STAIRCASE]


@pytest.fixture(scope="module")
def reference_tiled(data):
    return TiledRefactorer((8, 8, 8)).refactor(data, name="rho")


@pytest.fixture(scope="module")
def stored(reference_field):
    store = MemoryStore()
    store_field(store, reference_field)
    return store


@pytest.fixture(scope="module")
def tiled_stored(reference_tiled):
    store = MemoryStore()
    store_tiled_field(store, reference_tiled)
    return store


@pytest.fixture(scope="module")
def service_stored(reference_field, reference_tiled):
    store = MemoryStore()
    store_field(store, reference_field)
    store_tiled_field(store, reference_tiled)
    return store


def _fresh_tiled_store(reference_tiled):
    store = MemoryStore()
    store_tiled_field(store, reference_tiled)
    return store


# -- backend selection rules ------------------------------------------------

class TestBackendSelection:
    def test_parse_specs(self):
        assert parse_backend_spec("serial") == ("serial", None)
        assert parse_backend_spec("Threads:4") == ("threads", 4)
        assert parse_backend_spec("processes:2") == ("processes", 2)

    @pytest.mark.parametrize("junk", ["gpu", "threads:x", "processes:0"])
    def test_parse_rejects_junk(self, junk):
        with pytest.raises(ValueError):
            parse_backend_spec(junk)

    def test_num_workers_rule(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None, 0) == ("serial", 0)
        assert resolve_backend(None, 1) == ("serial", 0)
        assert resolve_backend(None, 4) == ("threads", 4)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes:3")
        assert resolve_backend(None, 0) == ("processes", 3)
        # the historical num_workers sizing survives an unsized override
        monkeypatch.setenv(BACKEND_ENV, "processes")
        assert resolve_backend(None, 4) == ("processes", 4)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes:3")
        assert resolve_backend("threads:2", 0) == ("threads", 2)
        assert resolve_backend("serial", 8) == ("serial", 0)

    def test_forced_parallel_kind_gets_default_width(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        spec = resolve_backend("processes", 0)
        assert spec.kind == "processes"
        assert spec.workers == default_process_workers()

    def test_worker_processes_resolve_serial(self):
        host = _Host(2, backend="processes:2")
        kinds = host.map_jobs(_resolved_kind_with_forced_parallel, [0, 1])
        assert kinds == ["serial", "serial"]

    def test_invalid_backend_rejected_at_construction(self, reference_tiled):
        with pytest.raises(ValueError):
            TiledRefactorer((8, 8, 8), backend="gpu")
        with pytest.raises(ValueError):
            TiledReconstructor(reference_tiled, backend="threads:zero")
        with pytest.raises(ValueError):
            TiledRefactorer((8, 8, 8), backend="processes:-1")


# -- differential: refactor -------------------------------------------------

class TestRefactorDifferential:
    def test_refactor_byte_identical(self, data, reference_field,
                                     monkeypatch):
        # An untiled refactor is serial and does not consult the
        # environment override; the subprocess twin below checks that no
        # pool is spawned either.
        monkeypatch.setenv("REPRO_BACKEND", "threads:2")
        field = refactor(data, name="vx")
        assert field.to_bytes() == reference_field.to_bytes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tiled_refactor_byte_identical(self, data, reference_tiled,
                                           backend):
        tiled = TiledRefactorer(
            (8, 8, 8), num_workers=2, backend=backend
        ).refactor(data, name="rho")
        assert len(tiled.fields) == len(reference_tiled.fields)
        for built, ref in zip(tiled.fields, reference_tiled.fields):
            assert built.to_bytes() == ref.to_bytes()
        assert tiled.value_range == reference_tiled.value_range


# -- differential: reconstruction ------------------------------------------

def _assert_steps_identical(result, reference):
    np.testing.assert_array_equal(result.data, reference.data)
    assert result.error_bound == reference.error_bound
    assert result.decoded_groups == reference.decoded_groups
    assert result.decoded_planes == reference.decoded_planes
    assert result.degraded == reference.degraded
    assert result.failed_groups == reference.failed_groups


class TestReconstructDifferential:
    """Untiled reconstructors are serial (no backend axis): one session
    against the module's reference staircase, whatever ``REPRO_BACKEND``
    says."""

    def test_eager_staircase(self, reference_field, reference_staircase):
        recon = Reconstructor(reference_field)
        for tol, ref in zip(STAIRCASE, reference_staircase):
            step = recon.reconstruct(tolerance=tol)
            _assert_steps_identical(step, ref)
            np.testing.assert_array_equal(
                step.data, full_decode(reference_field, recon.fetched_groups)
            )
        ref_session = Reconstructor(reference_field)
        for tol in STAIRCASE:
            ref_session.reconstruct(tolerance=tol)
        assert recon.fetched_groups == ref_session.fetched_groups
        assert recon.counters() == ref_session.counters()
        assert recon.decode_state_bytes() == ref_session.decode_state_bytes()

    def test_lazy_staircase_with_io_counters(self, stored,
                                             reference_staircase):
        ref_recon = Reconstructor(open_field(stored, "vx"))
        recon = Reconstructor(open_field(stored, "vx"))
        for tol, ref in zip(STAIRCASE, reference_staircase):
            expected = ref_recon.reconstruct(tolerance=tol)
            step = recon.reconstruct(tolerance=tol)
            np.testing.assert_array_equal(step.data, ref.data)
            assert step.incremental_bytes == expected.incremental_bytes
            assert step.cold_bytes == expected.cold_bytes
            assert step.cache_hit_bytes == expected.cache_hit_bytes
        # the session-cumulative segment traffic matches exactly
        assert recon.field.io_counters == ref_recon.field.io_counters
        assert recon.counters() == ref_recon.counters()


class TestTiledDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roi_staircase_with_aggregates(self, reference_tiled,
                                           tiled_stored, backend):
        ref = TiledReconstructor(open_tiled_field(tiled_stored, "rho"))
        got = TiledReconstructor(
            open_tiled_field(_fresh_tiled_store_from(tiled_stored), "rho"),
            num_workers=2, backend=backend,
        )
        for tol in STAIRCASE:
            expected = ref.reconstruct(tolerance=tol, region=ROI)
            step = got.reconstruct(tolerance=tol, region=ROI)
            np.testing.assert_array_equal(step.data, expected.data)
            assert step.error_bound == expected.error_bound
            assert step.degraded == expected.degraded
            assert step.failed_tiles == expected.failed_tiles
        assert got.touched_tiles == ref.touched_tiles
        assert got.fetched_bytes == ref.fetched_bytes
        assert got.decode_state_bytes() == ref.decode_state_bytes()
        # neither engine reads through a cache: even the cold/hit split
        # of the whole record matches on every backend
        assert got.counters() == ref.counters()
        got.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_widening_region_pays_only_new_tiles(self, tiled_stored,
                                                 backend):
        ref = TiledReconstructor(open_tiled_field(tiled_stored, "rho"))
        got = TiledReconstructor(
            open_tiled_field(_fresh_tiled_store_from(tiled_stored), "rho"),
            num_workers=2, backend=backend,
        )
        for region in (ROI, None):  # widen ROI -> full domain
            expected = ref.reconstruct(tolerance=1e-2, region=region)
            step = got.reconstruct(tolerance=1e-2, region=region)
            np.testing.assert_array_equal(step.data, expected.data)
        assert got.fetched_bytes == ref.fetched_bytes
        assert got.touched_tiles == ref.touched_tiles
        got.close()


def _fresh_tiled_store_from(stored: MemoryStore) -> MemoryStore:
    """Copy a stored tiled field into a fresh store (fresh counters)."""
    copy = MemoryStore()
    for key in stored.keys():
        copy.put(key, stored.get(key))
    return copy


# -- differential: degraded-mode resume ------------------------------------

class TestDegradedResumeDifferential:
    """Pre-programmed fault schedules replay identically everywhere.

    ``fail_first`` schedules are pure functions of per-key access
    counts, which the process backend preserves: tiled fetches are
    pinned to one worker per tile. (The untiled case has no backend
    axis; it checks that the schedule replays identically at all.)
    """

    def test_untiled_degrade_then_resume(self, stored, reference_staircase):
        key = segment_key("vx", 0, 2)

        def build():
            flaky = FaultInjectingStore(stored, fail_first={key: 1})
            return Reconstructor(open_field(flaky, "vx"))

        ref, got = build(), build()
        saw_degraded = False
        for tol in STAIRCASE:
            expected = ref.reconstruct(tolerance=tol, on_fault="degrade")
            step = got.reconstruct(tolerance=tol, on_fault="degrade")
            np.testing.assert_array_equal(step.data, expected.data)
            assert step.error_bound == expected.error_bound
            assert step.degraded == expected.degraded
            assert step.failed_groups == expected.failed_groups
            saw_degraded = saw_degraded or step.degraded
        # the schedule must actually have degraded one step, and the
        # final refinement must still land on the clean reference
        assert saw_degraded
        np.testing.assert_array_equal(
            got.reconstruct(tolerance=STAIRCASE[-1]).data,
            reference_staircase[-1].data,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tiled_unopened_and_midstep_degrade(self, reference_tiled,
                                                backend):
        # fail the first access of one tile's index (never-opened
        # degrade: zeros + inf bound) and of another tile's first
        # segment (mid-step degrade from committed state)
        schedule = {
            "rho.T0_0_0.index": 1,
            segment_key("rho.T0_1_0", 0, 0): 1,
        }

        def build(backend_spec):
            store = _fresh_tiled_store(reference_tiled)
            flaky = FaultInjectingStore(store, fail_first=schedule)
            return TiledReconstructor(open_tiled_field(flaky, "rho"),
                                      num_workers=2, backend=backend_spec)

        ref, got = build(None), build(backend)
        saw_degraded = False
        for tol in STAIRCASE[:3]:
            expected = ref.reconstruct(tolerance=tol, region=ROI,
                                       on_fault="degrade")
            step = got.reconstruct(tolerance=tol, region=ROI,
                                   on_fault="degrade")
            np.testing.assert_array_equal(step.data, expected.data)
            assert step.error_bound == expected.error_bound
            assert step.degraded == expected.degraded
            assert step.failed_tiles == expected.failed_tiles
            assert step.failed_groups == expected.failed_groups
            saw_degraded = saw_degraded or step.degraded
        assert saw_degraded  # the schedule must not be vacuous
        got.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raise_mode_propagates_typed_error(self, reference_tiled,
                                               backend):
        store = _fresh_tiled_store(reference_tiled)
        flaky = FaultInjectingStore(
            store, fail_first={"rho.T0_0_0.index": 1}
        )
        recon = TiledReconstructor(open_tiled_field(flaky, "rho"),
                                   num_workers=2, backend=backend)
        with pytest.raises(TransientStoreError):
            recon.reconstruct(tolerance=1e-2, region=ROI)
        recon.close()


# -- differential: service sessions ----------------------------------------

#: Session rows: (variable, region). An untiled variable is a one-tile
#: field, so it is one more row of the same session, not another path.
SESSION_ROWS = {"tiled-roi": ("rho", ROI), "one-tile": ("vx", None)}


def _traffic(before: dict, after: dict, keys) -> dict:
    return {key: after[key] - before[key] for key in keys}


class TestServiceDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("row", list(SESSION_ROWS))
    def test_session_staircase(self, service_stored, reference_staircase,
                               row, backend):
        name, region = SESSION_ROWS[row]
        service = RetrievalService(service_stored, prefetch=True)
        ref_service = RetrievalService(service_stored, prefetch=True)
        with service.session(
            name, num_workers=2, backend=backend
        ) as got, ref_service.session(name, backend="serial") as ref:
            # process workers of a multi-tile field read the store
            # directly (no shared cache), so the cold/hit *split* may
            # differ there; the reads must not, and a one-tile field
            # stays in this process on every backend
            keys = ["fetched_bytes", "segment_reads"]
            split = row == "one-tile" or not backend.startswith("processes")
            if split:
                keys += ["cold_bytes", "cache_hit_bytes"]
            for tol in STAIRCASE:
                ref_before = ref.stats()
                expected = ref.reconstruct(tolerance=tol, region=region)
                ref_service.drain_prefetch()
                got_before = got.stats()
                step = got.reconstruct(tolerance=tol, region=region)
                service.drain_prefetch()
                np.testing.assert_array_equal(step.data, expected.data)
                assert step.error_bound == expected.error_bound
                assert (_traffic(got_before, got.stats(), keys)
                        == _traffic(ref_before, ref.stats(), keys))
                if row == "one-tile":  # and the untiled engine's answer
                    clean = reference_staircase[STAIRCASE.index(tol)]
                    np.testing.assert_array_equal(step.data, clean.data)
                    assert step.error_bound == clean.error_bound
            assert got.tiles_touched == ref.tiles_touched
            assert got.fetched_bytes == ref.fetched_bytes
            assert got.decode_state_bytes == ref.decode_state_bytes
            got_stats, ref_stats = got.stats(), ref.stats()
            for key in ("tiles", "tiles_touched", "fetched_bytes",
                        "decode_state_bytes", *keys):
                assert got_stats[key] == ref_stats[key]
            got_counters, ref_counters = (
                s.reconstructor.counters() for s in (got, ref)
            )
            if not split:
                got_counters, ref_counters = (
                    dataclasses.replace(c, cold_bytes=0, cache_hit_bytes=0)
                    for c in (got_counters, ref_counters)
                )
            assert got_counters == ref_counters
        service.close()
        ref_service.close()

    def test_one_tile_session_ships_nothing(self, stored, monkeypatch):
        """Under ``processes:2`` a one-tile session decodes in this
        process: no field is shipped, and the shared cache sees exactly
        the serial run's traffic."""
        shipped = []
        ensure_shared = ProcessBackend.ensure_shared

        def recording(backend, token, obj):
            shipped.append(token)
            return ensure_shared(backend, token, obj)

        monkeypatch.setattr(ProcessBackend, "ensure_shared", recording)

        def run(spec):
            monkeypatch.setenv(BACKEND_ENV, spec)
            service = RetrievalService(stored)
            with service.session("vx") as session:
                steps = [session.reconstruct(tolerance=t) for t in STAIRCASE]
                remote = session.reconstructor._remote
            service.close()
            return steps, service.cache.stats(), remote

        serial, serial_cache, _ = run("serial")
        got, got_cache, remote = run("processes:2")
        assert not remote
        assert not [t for t in shipped if t.startswith("tiled-field:")]
        assert got_cache == serial_cache
        for step, ref in zip(got, serial):
            np.testing.assert_array_equal(step.data, ref.data)
            assert step.error_bound == ref.error_bound


# -- map_jobs properties ----------------------------------------------------

class TestMapJobsProperties:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(jobs=st.lists(st.integers(-1000, 1000), max_size=25))
    @settings(max_examples=15, deadline=None)
    def test_ordering_matches_serial_loop(self, backend, jobs):
        host = _Host(2, backend=backend)
        try:
            assert host.map_jobs(_square, jobs) == [x * x for x in jobs]
        finally:
            host.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        prefix=st.lists(st.integers(0, 100), max_size=10),
        bad=st.integers(-100, -1),
        suffix=st.lists(st.integers(-100, 100), max_size=10),
    )
    @settings(max_examples=15, deadline=None)
    def test_exception_propagates_with_args_intact(self, backend, prefix,
                                                   bad, suffix):
        host = _Host(2, backend=backend)
        jobs = prefix + [bad] + suffix
        first_bad = next(x for x in jobs if x < 0)
        try:
            with pytest.raises(ValueError) as excinfo:
                host.map_jobs(_explode_on_negative, jobs)
            # every backend surfaces the *earliest submitted* failure
            assert excinfo.value.args == (f"negative job {first_bad}",)
        finally:
            host.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_typed_store_error_crosses_the_boundary(self, backend):
        host = _Host(2, backend=backend)
        try:
            with pytest.raises(TransientStoreError) as excinfo:
                host.map_jobs(_raise_transient, [1, 2])
            assert excinfo.value.args == ("synthetic fault 1",)
            if backend.startswith("processes"):
                assert "TransientStoreError" in excinfo.value.remote_traceback
        finally:
            host.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(jobs=st.lists(st.integers(0, 50), min_size=2, max_size=12))
    @settings(max_examples=10, deadline=None)
    def test_lifecycle_close_then_reuse(self, backend, jobs):
        host = _Host(2, backend=backend)
        try:
            assert host.map_jobs(_square, jobs) == [x * x for x in jobs]
            host.close()  # pool torn down...
            assert host.map_jobs(_square, jobs) == [x * x for x in jobs]
        finally:
            host.close()


class TestProcessBackendLifecycle:
    def test_restart_bumps_generation_and_reships_shared(self):
        backend = ProcessBackend(2)
        try:
            token = "test-shared-object"
            backend.ensure_shared(token, {"answer": 42})
            first = backend.generation
            assert first >= 1
            got = backend.call(task_name(_read_shared), token)
            assert got == {"answer": 42}
            backend.close()
            # restart: generation bumps, shared state must be re-shipped
            backend.ensure_shared(token, {"answer": 43})
            assert backend.ensure_alive() == first + 1
            assert backend.call(task_name(_read_shared), token) == {
                "answer": 43
            }
        finally:
            backend.close()

    def test_shared_backend_grows_but_never_shrinks(self):
        small = shared_process_backend(1)
        assert small.num_workers >= 1
        grown = shared_process_backend(2)  # may replace to widen
        assert grown.num_workers >= 2
        again = shared_process_backend(1)  # a narrower ask never shrinks
        assert again is grown
        assert again.num_workers >= 2

    def test_forked_child_cannot_tear_down_the_shared_pool(self):
        """Spinning up a *private* pool forks children that inherit the
        shared singleton (and its pipe fds); when the child clears the
        singleton global, the resulting GC must not close the parent's
        shared workers. Regression: this exact sequence used to kill
        the shared pool and break every later process-backed engine."""
        host = _Host(2, backend="processes:2")
        assert host.map_jobs(_square, [2, 3]) == [4, 9]  # shared pool up
        private = ProcessBackend(2)
        try:
            private.ensure_alive()
        finally:
            private.close()
        time.sleep(0.5)  # any child-side teardown would have landed
        assert shared_process_backend(1).alive, \
            "a forked child's teardown reached the shared pool"
        assert host.map_jobs(_square, [4]) == [16]


def _read_shared(state, token):
    return worker_shared(state, token)


def _reverse_blob(blob):
    return blob[::-1]


class TestPipeCapacity:
    def test_large_task_and_result_payloads_do_not_deadlock(self):
        """Task and result payloads far beyond the ~64KB OS pipe buffer:
        the old send-everything-then-drain barrier deadlocked (worker
        blocked writing an undrained result, parent blocked writing the
        rest of the batch), so run under a watchdog."""
        backend = ProcessBackend(2)
        blobs = [bytes([65 + i]) * (300 * 1024) for i in range(6)]
        outcome = {}

        def run():
            outcome["result"] = backend.map_jobs(_reverse_blob, blobs)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        try:
            assert not worker.is_alive(), \
                "large payloads deadlocked the dispatch barrier"
            assert outcome["result"] == [b[::-1] for b in blobs]
        finally:
            backend.close()

    def test_unpicklable_job_raises_with_rest_of_batch_settled(self):
        """Nothing is probed for picklability up front (probing would
        serialize each job twice); a job that cannot pickle surfaces as
        that call's failure without wedging the pipes."""
        backend = ProcessBackend(2)
        try:
            with pytest.raises(TypeError):
                backend.map_jobs(_square, [1, threading.Lock(), 3])
            # the pool stayed consistent: the next batch works
            assert backend.map_jobs(_square, [2, 3]) == [4, 9]
        finally:
            backend.close()

    def test_unpicklable_fn_raises_instead_of_running_host_side(self):
        """An unpicklable *fn* used to turn the whole batch into a
        silent host-side loop; it now fails at dispatch like an
        unpicklable job, and the pool survives untouched."""
        backend = ProcessBackend(2)
        try:
            with pytest.raises(pickle.PicklingError):
                backend.map_jobs(_identity_lambda, [1, 2])
            assert backend.map_jobs(abs, [-2, 3]) == [2, 3]
            assert backend.health()["respawns"] == 0
        finally:
            backend.close()


class TestPoolReplacementReship:
    def test_grown_shared_pool_forces_tile_reship(self, reference_tiled,
                                                  tiled_stored):
        """Growing the shared pool mid-session replaces it with a fresh
        ProcessBackend whose generation counter restarts — and can land
        on the same generation number the old pool had. The session
        records neither: the fresh pool has shipped nothing, so the
        next step's ``ensure_shared`` ships the field again and the
        fresh workers rebuild their engines from it."""
        ref = TiledReconstructor(open_tiled_field(tiled_stored, "rho"))
        got = TiledReconstructor(
            open_tiled_field(_fresh_tiled_store_from(tiled_stored), "rho"),
            num_workers=2, backend="processes:2",
        )
        try:
            expected = ref.reconstruct(tolerance=STAIRCASE[0], region=ROI)
            step = got.reconstruct(tolerance=STAIRCASE[0], region=ROI)
            np.testing.assert_array_equal(step.data, expected.data)
            before = shared_process_backend(1)
            grown = shared_process_backend(before.num_workers + 1)
            assert grown is not before
            assert grown.uid != before.uid
            expected = ref.reconstruct(tolerance=STAIRCASE[1], region=ROI)
            step = got.reconstruct(tolerance=STAIRCASE[1], region=ROI)
            np.testing.assert_array_equal(step.data, expected.data)
            assert step.error_bound == expected.error_bound
        finally:
            got.close()


# -- one thread pool per owner ----------------------------------------------

class TestThreadPoolOwnership:
    def test_concurrent_first_touches_create_one_executor(self):
        pool = ThreadPool()
        barrier = threading.Barrier(8)
        seen = []

        def touch():
            barrier.wait(timeout=10)
            seen.append(pool.executor(2))

        before = set(backends._LIVE_THREAD_POOLS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert len(seen) == 8 and len(set(map(id, seen))) == 1
            assert set(backends._LIVE_THREAD_POOLS) - before == {seen[0]}
        finally:
            pool.close()

    def test_serial_tiled_staircase_starts_no_thread(self, data,
                                                     tiled_stored,
                                                     monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        before = set(backends._LIVE_THREAD_POOLS)
        refac = TiledRefactorer((8, 8, 8))
        refac.refactor(data, name="rho")
        recon = TiledReconstructor(open_tiled_field(tiled_stored, "rho"))
        for tol in STAIRCASE:
            recon.reconstruct(tolerance=tol, region=ROI)
        assert refac._threads._executor is None
        assert recon._threads._executor is None
        assert set(backends._LIVE_THREAD_POOLS) <= before

    @pytest.mark.parametrize("backend", ["serial", "threads:4"])
    def test_pipelined_step_owns_one_two_wide_executor(self, tiled_stored,
                                                       backend):
        """A pipelined engine's pool is the window's fetch stage and
        nothing else — ``threads:N`` does not widen it — and ``close()``
        joins it; the next step re-creates it."""
        before = set(backends._LIVE_THREAD_POOLS)
        recon = TiledReconstructor(
            open_tiled_field(tiled_stored, "rho"), backend=backend,
            pipelined=True,
        )
        for tol in STAIRCASE[:2]:
            recon.reconstruct(tolerance=tol, region=ROI)
        (executor,) = set(backends._LIVE_THREAD_POOLS) - before
        assert executor is recon._threads._executor
        assert executor._max_workers == FETCH_WORKERS == 2
        workers = list(executor._threads)
        assert workers and all(t.is_alive() for t in workers)
        recon.close()
        assert recon._threads._executor is None
        assert not any(t.is_alive() for t in workers)
        recon.reconstruct(tolerance=STAIRCASE[2], region=ROI)
        assert recon._threads._executor not in (None, executor)
        recon.close()


class TestThreadsRouteDrains:
    def test_failed_step_leaves_no_tile_step_running(self):
        """``threads:2``, tile 0's first group read fails: when the
        failure reaches the caller nothing the step started may still be
        reading the store (the executor's own ``map`` only cancels what
        is queued: 7 reads at the raise, 29 half a second later), and
        the immediate retry matches the serial step."""
        data = gen.gaussian_random_field((32, 32, 32), -2.0, seed=3,
                                         dtype=np.float32)
        tiled = TiledRefactorer((16, 16, 16)).refactor(data, name="rho")
        inner = MemoryStore()
        store_tiled_field(inner, tiled)
        faulty = FaultInjectingStore(
            inner, latency_s=0.004,
            fail_first={segment_key(tiled.fields[0].name, 0, 0): 1},
        )
        recon = TiledReconstructor(
            open_tiled_field(faulty, "rho"), backend="threads:2"
        )
        ref = TiledReconstructor(open_tiled_field(inner, "rho"),
                                 backend="serial")
        try:
            with pytest.raises(StoreError):
                recon.reconstruct(tolerance=1e-2)
            at_raise, touched = faulty.reads, recon.touched_tiles
            time.sleep(0.5)
            assert faulty.reads == at_raise
            assert recon.touched_tiles == touched
            for tol in (1e-2, 1e-3):
                got = recon.reconstruct(tolerance=tol)
                want = ref.reconstruct(tolerance=tol)
                np.testing.assert_array_equal(got.data, want.data)
                assert got.error_bound == want.error_bound
                assert recon.fetched_bytes == ref.fetched_bytes
                assert (recon.counters().groups_decoded
                        == ref.counters().groups_decoded)
        finally:
            recon.close()

    def test_map_cancels_queued_jobs_and_waits_for_running_ones(self):
        pool = ThreadPool()
        started, finished = [], []
        release = threading.Event()

        def job(i):
            started.append(i)
            if i == 0:
                raise ValueError("job 0")
            release.wait(timeout=10)
            time.sleep(0.05)
            finished.append(i)
            return i

        timer = threading.Timer(0.1, release.set)
        timer.start()
        try:
            with pytest.raises(ValueError, match="job 0"):
                pool.map(job, list(range(8)), 2)
            assert sorted(finished) == sorted(set(started) - {0})
            assert len(started) < 8  # the queued tail was cancelled
        finally:
            timer.cancel()
            pool.close()


# -- satellite: atexit teardown of leaked pools -----------------------------

class TestAtexitSafety:
    def test_leaked_pools_do_not_hang_interpreter_exit(self):
        """A process that uses both backends and exits without closing
        anything must still terminate promptly with status 0."""
        script = """
import numpy as np
from repro.core import backends
from repro.core.service import RetrievalService
from repro.core.store import MemoryStore, store_tiled_field
from repro.core.tiling import TiledReconstructor, TiledRefactorer

data = np.linspace(0.0, 1.0, 2520).reshape(18, 14, 10)
tiled = TiledRefactorer(
    (9, 7, 5), num_workers=2, backend="processes:2"
).refactor(data, name="rho")
engine = TiledReconstructor(tiled, backend="threads:2")
engine.reconstruct(tolerance=1e-2)
store = MemoryStore()
store_tiled_field(store, tiled)
service = RetrievalService(store, prefetch=True)
session = service.session("rho", backend="serial", pipelined=True)
session.reconstruct(tolerance=1e-1)
assert service.prefetch_requests > 0
assert len(list(backends._LIVE_THREAD_POOLS)) == 3
assert backends.current_process_backend().alive
print("leaked-ok", len(tiled.fields))
# exit WITHOUT close() on the threads engine, the pipelined session,
# the prefetching service or the shared process backend: the atexit
# registries must reap them all
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "leaked-ok" in result.stdout


# -- untiled engines are serial: no pool, whatever the environment says -----

class TestUntiledEnginesSpawnNoPool:
    def test_forced_process_backend_spawns_nothing(self, data,
                                                   reference_field):
        """Under ``REPRO_BACKEND=processes:2`` an untiled refactor and a
        reconstruction staircase create neither a process backend nor a
        thread pool, and produce the in-process serial bytes."""
        script = """
import hashlib
import numpy as np
from repro.core import backends
from repro.core.backends import current_process_backend
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.data import generators as gen

data = gen.gaussian_random_field((18, 14, 10), -2.0, seed=21,
                                 dtype=np.float64)
field = refactor(data, name="vx")
recon = Reconstructor(field)
for tol in (1e-1, 1e-3, 1e-5):
    out = recon.reconstruct(tolerance=tol)
assert current_process_backend() is None
assert not list(backends._LIVE_THREAD_POOLS)
print("digest", hashlib.sha256(field.to_bytes()).hexdigest(),
      hashlib.sha256(out.data.tobytes()).hexdigest())
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env["REPRO_BACKEND"] = "processes:2"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        recon = Reconstructor(reference_field)
        for tol in (1e-1, 1e-3, 1e-5):
            out = recon.reconstruct(tolerance=tol)
        assert result.stdout.split() == [
            "digest",
            hashlib.sha256(reference_field.to_bytes()).hexdigest(),
            hashlib.sha256(out.data.tobytes()).hexdigest(),
        ]


# -- tentpole: self-healing pool --------------------------------------------

def _task_square(state, x):
    return x * x


def _task_pid(state):
    return os.getpid()


def _is_zombie(pid: int) -> bool:
    """True when *pid* is a terminated-but-unreaped child (state Z)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return False  # reaped: the /proc entry is gone


class TestSelfHealingPool:
    """Worker death is an incident the pool absorbs, not a batch error."""

    @pytest.mark.parametrize("mode", ["exit", "sigkill"])
    def test_worker_kill_heals_batch(self, tmp_path, mode):
        """One seeded kill mid-batch: the dead worker is respawned in
        place, the lost task retried there, and the batch completes
        with every result intact — the kill is visible only in the
        health counters."""
        backend = ProcessBackend(2)
        try:
            chaos = WorkerChaos({3: mode}, tmp_path)
            backend.install_chaos(chaos)
            sq = task_name(_task_square)
            results = backend.map_calls([(sq, (i,), None) for i in range(8)])
            assert results == [i * i for i in range(8)]
            assert chaos.total_fired() == 1
            health = backend.health()
            assert health["respawns"] == 1
            assert health["task_retries"] == 1
            assert health["quarantines"] == 0
            assert health["alive"] is True
        finally:
            backend.close()

    def test_shared_objects_survive_respawn(self, tmp_path):
        """The parent keeps every ``ensure_shared`` object's pickled
        bytes; a respawned worker gets them restored without the owning
        engine doing anything — a respawn is invisible to it."""
        backend = ProcessBackend(2)
        try:
            backend.ensure_shared("cfg", {"answer": 42})
            backend.install_chaos(WorkerChaos({0: "exit"}, tmp_path))
            sq = task_name(_task_square)
            assert backend.map_calls(
                [(sq, (i,), None) for i in range(4)]
            ) == [0, 1, 4, 9]
            assert backend.health()["respawns"] == 1
            got = backend.broadcast(task_name(_read_shared), "cfg")
            assert got == [{"answer": 42}] * backend.num_workers
        finally:
            backend.close()

    def test_sticky_routing_survives_respawn(self, tmp_path):
        """In-place slot replacement keeps ``worker_for`` stable: sticky
        keys keep resolving to the same slot across a respawn."""
        backend = ProcessBackend(2)
        try:
            key = "tile-(0, 1)"
            index = backend.worker_for(key)
            backend.install_chaos(WorkerChaos({0: "exit"}, tmp_path))
            sq = task_name(_task_square)
            results = backend.map_calls([(sq, (i,), key) for i in range(4)])
            assert results == [0, 1, 4, 9]
            assert backend.worker_for(key) == index
            assert backend.health()["respawns"] == 1
        finally:
            backend.close()

    def test_poison_task_quarantined_batch_survives(self, tmp_path):
        """A task that kills every worker it lands on exhausts its retry
        budget and settles as *that call's* failure; its batchmates
        still return correct results."""
        backend = ProcessBackend(2)
        try:
            chaos = WorkerChaos({2: ("exit", 10)}, tmp_path)
            backend.install_chaos(chaos)
            sq = task_name(_task_square)
            outcomes = backend.map_calls(
                [(sq, (i,), None) for i in range(6)], settle=True
            )
            for i, (ok, value) in enumerate(outcomes):
                if i == 2:
                    assert ok is False
                    assert isinstance(value, WorkerCrashedError)
                    assert "quarantined" in str(value)
                else:
                    assert ok is True and value == i * i
            # budget = max_task_retries retries → retries + 1 crashes
            assert chaos.fired(2) == backend.max_task_retries + 1
            health = backend.health()
            assert health["quarantines"] == 1
            assert health["task_retries"] == backend.max_task_retries
            assert health["respawns"] == backend.max_task_retries + 1
        finally:
            backend.close()

    def test_poison_task_raises_typed_and_pool_survives(self, tmp_path):
        """Without ``settle`` the quarantine surfaces as a typed
        :class:`WorkerCrashedError` — and the pool stays usable."""
        backend = ProcessBackend(2)
        try:
            backend.install_chaos(WorkerChaos({1: ("sigkill", 10)}, tmp_path))
            sq = task_name(_task_square)
            with pytest.raises(WorkerCrashedError, match="quarantined"):
                backend.map_calls([(sq, (i,), None) for i in range(4)])
            backend.clear_chaos()
            assert backend.map_calls([(sq, (5,), None)]) == [25]
        finally:
            backend.close()

    def test_deadline_settles_hung_worker(self, tmp_path):
        """A hung-but-alive worker is the failure mode only deadlines
        can bound: on expiry it is killed and respawned and the call
        settles as :class:`WorkerTimeoutError` while its batchmates
        return normally. Run under a watchdog — before deadlines this
        blocked forever."""
        backend = ProcessBackend(2)
        outcome = {}

        def run():
            backend.install_chaos(WorkerChaos({1: "hang"}, tmp_path))
            sq = task_name(_task_square)
            outcome["result"] = backend.map_calls(
                [(sq, (i,), None) for i in range(4)],
                deadline=1.0, settle=True,
            )

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        try:
            assert not worker.is_alive(), \
                "deadline failed to bound a hung worker"
            outcomes = outcome["result"]
            assert [v for ok, v in outcomes if ok] == [0, 4, 9]
            assert isinstance(outcomes[1][1], WorkerTimeoutError)
            assert isinstance(outcomes[1][1], TimeoutError)  # taxonomy
            health = backend.health()
            assert health["deadline_kills"] == 1
            assert health["respawns"] == 1
        finally:
            backend.close()

    def test_pool_default_deadline_applies(self, tmp_path):
        """``default_deadline`` covers calls that pass no per-call
        deadline; without ``settle`` the timeout is raised typed."""
        backend = ProcessBackend(2, default_deadline=1.0)
        outcome = {}

        def run():
            backend.install_chaos(WorkerChaos({0: "hang"}, tmp_path))
            sq = task_name(_task_square)
            try:
                backend.map_calls([(sq, (i,), None) for i in range(4)])
            except BaseException as exc:  # noqa: BLE001 - transported
                outcome["exc"] = exc

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        try:
            assert not worker.is_alive(), \
                "default deadline failed to bound a hung worker"
            assert isinstance(outcome["exc"], WorkerTimeoutError)
            backend.clear_chaos()
            sq = task_name(_task_square)
            assert backend.map_calls([(sq, (7,), None)]) == [49]
        finally:
            backend.close()

    def test_worker_killed_between_batches_heals_on_next_dispatch(self):
        """Death while idle (no task in flight): the next dispatch sees
        the closed pipe or the EOF, replaces the worker, and the batch
        completes — no caller-visible error."""
        backend = ProcessBackend(2)
        try:
            sq = task_name(_task_square)
            assert backend.map_calls(
                [(sq, (i,), None) for i in range(4)]
            ) == [0, 1, 4, 9]
            pids = backend.broadcast(task_name(_task_pid))
            os.kill(pids[0], signal.SIGKILL)
            giveup = time.monotonic() + 10
            while (backend._workers[0].process.is_alive()
                   and time.monotonic() < giveup):
                time.sleep(0.01)
            assert backend.map_calls(
                [(sq, (i,), None) for i in range(4)]
            ) == [0, 1, 4, 9]
            assert backend.health()["respawns"] >= 1
        finally:
            backend.close()

    def test_health_counters_reset_on_close(self, tmp_path):
        """Recovery counters describe the current worker set: close()
        zeroes them (satellite: telemetry lifecycle)."""
        backend = ProcessBackend(2)
        try:
            backend.install_chaos(WorkerChaos({0: "exit"}, tmp_path))
            sq = task_name(_task_square)
            backend.map_calls([(sq, (i,), None) for i in range(4)])
            assert backend.health()["respawns"] == 1
            backend.close()
            health = backend.health()
            assert health["alive"] is False
            assert health["respawns"] == 0
            assert health["task_retries"] == 0
            assert health["quarantines"] == 0
            assert health["deadline_kills"] == 0
        finally:
            backend.close()


# -- satellite: zombie reaping ----------------------------------------------

class TestZombieReaping:
    pytestmark = pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="zombie detection reads /proc",
    )

    def test_abandon_reaps_killed_and_live_workers(self):
        """Regression: ``_abandon()`` used to terminate() without
        join(), leaving every abandoned worker a zombie for the life of
        the parent. It must reap (join) them all — including one that
        already died on its own."""
        backend = ProcessBackend(2)
        backend.ensure_alive()
        procs = [w.process for w in backend._workers]
        os.kill(procs[0].pid, signal.SIGKILL)
        backend._abandon()
        for proc in procs:
            assert not proc.is_alive()
            assert not _is_zombie(proc.pid), \
                f"worker pid {proc.pid} left a zombie after _abandon()"

    def test_close_reaps_all_workers(self):
        backend = ProcessBackend(2)
        backend.ensure_alive()
        pids = [w.process.pid for w in backend._workers]
        backend.close()
        for pid in pids:
            assert not _is_zombie(pid), \
                f"worker pid {pid} left a zombie after close()"


# -- satellite: pool health through the service -----------------------------

class TestPoolHealthTelemetry:
    """``stats()['pool']`` follows the live shared pool, which a tiled
    session reaches by naming the backend on the *session* — the
    service's own ``num_workers`` only sizes its prefetch threads."""

    def test_service_stats_surface_pool_health(self, tiled_stored,
                                               tmp_path):
        """A worker kill inside a service session shows up in
        ``RetrievalService.stats()['pool']`` — the operator-facing
        window into pool recovery."""
        service = RetrievalService(tiled_stored)
        backend = shared_process_backend(2)
        chaos = WorkerChaos({0: "exit"}, tmp_path)
        backend.install_chaos(chaos)
        try:
            with service.session(
                "rho", num_workers=2, backend="processes:2"
            ) as session:
                session.reconstruct(tolerance=1e-2, region=ROI)
            pool = service.stats()["pool"]
            assert pool is not None
            assert pool["uid"] == backend.uid
            assert pool["respawns"] >= 1
            assert pool["task_retries"] >= 1
            assert chaos.total_fired() == 1
        finally:
            backend.clear_chaos()
            service.close()

    def test_no_live_pool_reports_none_and_creates_none(self, tiled_stored):
        shutdown_all_backends()  # whatever earlier tests left running
        service = RetrievalService(tiled_stored)
        with service.session("rho", backend="serial") as session:
            session.reconstruct(tolerance=1e-2, region=ROI)
            assert service.stats()["pool"] is None
        backend = current_process_backend()
        assert backend is None or not backend.alive  # asking spawned none
        service.close()

    def test_stats_track_replacement_pool(self, tiled_stored):
        """Growing the shared backend mid-session replaces the pool;
        stats() must report the *current* pool (fresh uid, counters
        reset), not a snapshot of the dead one."""
        service = RetrievalService(tiled_stored)
        before = shared_process_backend(2)
        with service.session(
            "rho", num_workers=2, backend="processes:2"
        ) as session:
            session.reconstruct(tolerance=1e-1, region=ROI)
            first = service.stats()["pool"]
            assert first["uid"] == before.uid
            grown = shared_process_backend(before.num_workers + 1)
            assert grown is not before
            # the session still works: its field ships to the grown pool
            session.reconstruct(tolerance=1e-2, region=ROI)
            second = service.stats()["pool"]
            assert second["uid"] == grown.uid
            assert second["respawns"] == 0
        service.close()
