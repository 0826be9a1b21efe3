"""Pipelined progressive retrieval: differential + runtime tests.

The pipelined route (``TiledReconstructor(pipelined=True)`` and its
wiring into the service ``Session``) claims *bit-identical* results,
counters, and fault semantics versus the sequential route — only
wall-clock may differ. This suite proves the claim differentially,
`test_backends.py`-style: same inputs through both routes, byte-for-byte
comparison of data and accounting, across decode backends and under
seeded store faults. Runner-level tests cover ``ThreadPool.map``'s job
order, its in-order ``then`` stage, and failure draining directly, and
pin which thread decodes on each route; the fetch-seam tests
pin the one thing every route shares — ``fetch_step`` is the only place
a step reads the store.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.backends import ThreadPool
from repro.core.errors import StoreError, TransientStoreError
from repro.core.faults import FaultInjectingStore, ResilientReader
from repro.core.refactor import refactor
from repro.core.reconstruct import Reconstructor
from repro.core.service import (
    _PREFETCH_WORKERS,
    RetrievalService,
    _store_bears_latency,
)
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    open_field,
    open_tiled_field,
    store_field,
    store_tiled_field,
)
from repro.core.stream import SegmentRef
from repro.core.tiling import (
    FETCH_WORKERS,
    TiledReconstructor,
    TiledRefactorer,
    normalize_region,
)
from repro.data import generators as gen

pytestmark = pytest.mark.backend

STAIRCASE = [1e-1, 3e-2, 1e-2, 3e-3, None]
ROI = (slice(4, 30), slice(2, 26), None)


@pytest.fixture(scope="module")
def data():
    return gen.gaussian_random_field((36, 36, 36), -2.0, seed=17,
                                     dtype=np.float32)


@pytest.fixture(scope="module")
def reference_field(data):
    return refactor(data, name="vx")


@pytest.fixture(scope="module")
def reference_tiled(data):
    return TiledRefactorer((12, 12, 12)).refactor(data, name="rho")


def _fresh_store(reference_field):
    store = MemoryStore()
    store_field(store, reference_field)
    return store


def _fresh_tiled_store(reference_tiled):
    store = MemoryStore()
    store_tiled_field(store, reference_tiled)
    return store


def _result_stats(result):
    return (
        result.fetched_bytes, result.incremental_bytes, result.cold_bytes,
        result.cache_hit_bytes, result.decoded_groups,
        result.decoded_planes, result.error_bound, result.degraded,
        tuple(result.failed_groups or ()),
    )


# -- the batch runner: ThreadPool.map(then=) ---------------------------------

class TestMapThenRunner:
    @pytest.fixture()
    def pool(self):
        pool = ThreadPool()
        yield pool
        pool.close()

    def test_results_keep_job_order(self, pool):
        out = pool.map(lambda i: i * 10, list(range(10)), 3,
                       then=lambda i, f: f + i)
        assert out == [i * 11 for i in range(10)]

    def test_then_return_value_is_the_result(self, pool):
        sink = []
        out = pool.map(lambda i: i * 2, list(range(5)), 3,
                       then=lambda i, v: sink.append(v))
        assert sink == [0, 2, 4, 6, 8]  # then ran in job order
        assert out == [None] * 5  # bulky results retired, not retained

    @pytest.mark.parametrize("stage", ["fn", "then"])
    def test_earliest_failure_wins_and_the_call_drains(self, pool, stage):
        thened, started, finished = [], [], []

        def fn(i):
            started.append(i)
            if i == 2:
                time.sleep(0.02)  # jobs 3 and 4 start meanwhile
                if stage == "fn":
                    raise RuntimeError("fn 2")
            if i == 4:
                raise RuntimeError("fn 4")
            if i > 2:
                time.sleep(0.05)  # still running when job 2 fails
            finished.append(i)
            return i

        def then(i, result):
            if i == 2:
                raise RuntimeError("then 2")
            thened.append(i)
            return result

        with pytest.raises(RuntimeError, match=f"{stage} 2"):
            pool.map(fn, list(range(20)), 3, then=then)
        assert thened == [0, 1]  # strictly in order up to the failure
        assert 3 in started  # ran ahead of the failing job...
        failed = {2, 4} if stage == "fn" else {4}
        assert sorted(finished) == sorted(set(started) - failed)  # drained
        assert len(started) < 20  # ...and the queued tail was cancelled

    def test_pool_is_reusable_across_calls(self, pool):
        assert pool.map(lambda i: i, [1, 2], 2,
                        then=lambda i, f: f) == [1, 2]
        executor = pool._executor
        assert pool.map(lambda i: i, [3, 4], 2,
                        then=lambda i, f: -f) == [-3, -4]
        assert pool._executor is executor

    @pytest.mark.parametrize("jobs,workers", [([7], 4), ([1, 2, 3], 1)])
    def test_one_job_or_one_worker_runs_inline(self, pool, jobs, workers):
        seen = []

        def fn(i):
            seen.append(threading.current_thread())
            return i

        def then(i, f):
            seen.append(threading.current_thread())
            return f + 1

        assert pool.map(fn, jobs, workers, then=then) == [j + 1 for j in jobs]
        assert seen == [threading.current_thread()] * (2 * len(jobs))
        assert pool._executor is None  # no thread was started


class TestDecodeThreadPerRoute:
    @pytest.mark.parametrize("backend,pipelined,on_caller", [
        ("serial", True, True), ("threads:4", True, True),
        ("threads:2", False, False),
    ])
    def test_decode_batch_thread(self, reference_tiled, backend, pipelined,
                                 on_caller):
        """A pipelined step decodes every batch on the thread that called
        ``reconstruct`` (fetch alone goes to its two-wide pool), whatever
        the backend; a ``threads:N`` step decodes on the pool threads."""
        recon = TiledReconstructor(
            open_tiled_field(_fresh_tiled_store(reference_tiled), "rho"),
            backend=backend, pipelined=pipelined,
        )
        threads = []
        decode_batch = recon._decode_batch

        def spy(*args, **kwargs):
            threads.append(threading.current_thread())
            return decode_batch(*args, **kwargs)

        recon._decode_batch = spy
        try:
            recon.reconstruct(tolerance=1e-2, region=ROI)
        finally:
            recon.close()
        caller = threading.current_thread()
        assert len(threads) == 2
        assert all((t is caller) == on_caller for t in threads)


# -- the single fetch seam --------------------------------------------------

class _RecordingStore(MemoryStore):
    """Logs every ``get``; keys in ``faulty`` raise after being logged."""

    def __init__(self):
        super().__init__()
        self.log: list[str] = []
        self.faulty: set[str] = set()

    def get(self, key):
        self.log.append(key)  # list.append is atomic under the GIL
        if key in self.faulty:
            raise TransientStoreError(f"planted fault on {key}")
        return super().get(key)


def _recording_store(reference_field, reference_tiled):
    store = _RecordingStore()
    store_field(store, reference_field)
    store_tiled_field(store, reference_tiled)
    return store


def _chains(log):
    """Per-field store-access chains, in access order."""
    chains: dict[str, list[str]] = {}
    for key in log:
        field = re.fullmatch(r"(.+)\.(?:index|L\d+\.G\d+)", key)
        if field is not None:
            chains.setdefault(field[1], []).append(key)
    return chains


def _planned_keys(recon, step):
    """Keys of ``[committed, planned)``, levels then groups ascending."""
    return [
        lv.refs[g].key
        for lv, have, want in zip(recon.field.levels, recon.fetched_groups,
                                  step.groups)
        for g in range(have, want)
    ]


SEAM_STAIRCASE = [1e-1, 1e-2, 1e-3]
ROUTES = ["untiled", "tiled-sequential", "tiled-pipelined"]


def _route_fields(route, store):
    if route == "untiled":
        return [open_field(store, "vx")]
    tiled = open_tiled_field(store, "rho")
    return [tiled.fields[i] for i in range(tiled.num_tiles)]


def _route_engine(route, store):
    if route == "untiled":
        return Reconstructor(open_field(store, "vx"))
    return TiledReconstructor(
        open_tiled_field(store, "rho"), backend="serial",
        pipelined=route.endswith("pipelined"),
    )


class TestSingleFetchSeam:
    def test_fetch_step_reads_in_order_and_decode_step_reads_nothing(
        self, reference_field, reference_tiled
    ):
        store = _recording_store(reference_field, reference_tiled)
        recon = Reconstructor(open_field(store, "vx"))
        for tol in SEAM_STAIRCASE:
            step = recon.plan_step(tol)
            expected = _planned_keys(recon, step)
            assert expected  # every step of this staircase refines
            mark = len(store.log)
            recon.fetch_step(step)
            assert store.log[mark:] == expected
            mark = len(store.log)
            recon.decode_step(step)
            assert store.log[mark:] == []

    def test_fetch_step_reads_each_key_once_and_resume_pays_only_the_faults(
        self, reference_field, reference_tiled
    ):
        """One batched request reads every planned key even past a
        fault; the first faulted key (in plan order) is raised, every
        key that arrived stays memoized, and the resume reads exactly
        the faulted keys."""
        store = _recording_store(reference_field, reference_tiled)
        recon = Reconstructor(open_field(store, "vx"))
        recon.reconstruct(SEAM_STAIRCASE[0])
        step = recon.plan_step(SEAM_STAIRCASE[-1])
        expected = _planned_keys(recon, step)
        cut = len(expected) // 2
        store.faulty = {expected[cut], expected[-1]}
        mark = len(store.log)
        with pytest.raises(StoreError) as caught:
            recon.fetch_step(step)
        assert store.log[mark:] == expected
        assert expected[cut] in str(caught.value)
        mark = len(store.log)
        with pytest.raises(TransientStoreError):  # "raise": no re-read
            recon.decode_step(step, fetch_error=caught.value)
        degraded = recon.decode_step(step, on_fault="degrade",
                                     fetch_error=caught.value)
        assert degraded.degraded and degraded.failed_groups == step.groups
        assert store.log[mark:] == []
        store.faulty = set()
        recon.reconstruct(SEAM_STAIRCASE[-1])  # arrived keys are kept
        assert store.log[mark:] == [expected[cut], expected[-1]]

    @pytest.mark.parametrize("route", ROUTES)
    def test_every_route_reads_the_stage_by_stage_key_sequence(
        self, reference_field, reference_tiled, route, monkeypatch
    ):
        """``reconstruct()`` on every route touches, per field, exactly
        the keys the three stage calls touch, in the same order, with
        the same planted fault degrading the same step — and its
        ``decode_steps`` calls (every route's decode body) read
        nothing."""
        clean = _recording_store(reference_field, reference_tiled)
        for field in _route_fields(route, clean):
            recon = Reconstructor(field)
            for tol in SEAM_STAIRCASE:
                recon.reconstruct(tol)
        # fault the last key each field's final step fetches
        faulty = {chain[-1] for chain in _chains(clean.log).values()}

        staged = _recording_store(reference_field, reference_tiled)
        staged.faulty = set(faulty)
        for field in _route_fields(route, staged):
            recon = Reconstructor(field)
            for tol in SEAM_STAIRCASE:
                step = recon.plan_step(tol)
                try:
                    recon.fetch_step(step)
                    fault = None
                except StoreError as exc:
                    fault = exc
                mark = len(staged.log)
                recon.decode_step(step, on_fault="degrade",
                                  fetch_error=fault)
                assert staged.log[mark:] == []

        routed = _recording_store(reference_field, reference_tiled)
        routed.faulty = set(faulty)
        decode_reads = []
        real_decode_steps = Reconstructor.decode_steps

        def counting_decode_steps(items, on_fault="raise"):
            prefixes = tuple(recon.field.name + "." for recon, *_ in items)
            before = sum(k.startswith(prefixes) for k in list(routed.log))
            out = real_decode_steps(items, on_fault)
            after = sum(k.startswith(prefixes) for k in list(routed.log))
            decode_reads.append(after - before)
            return out

        monkeypatch.setattr(Reconstructor, "decode_steps",
                            staticmethod(counting_decode_steps))
        engine = _route_engine(route, routed)
        results = [engine.reconstruct(tolerance=tol, on_fault="degrade")
                   for tol in SEAM_STAIRCASE]
        if route != "untiled":
            engine.close()
        assert results[-1].degraded and not results[0].degraded
        assert decode_reads and set(decode_reads) == {0}
        assert _chains(routed.log) == _chains(staged.log)
        for name, chain in _chains(routed.log).items():
            assert chain[0] == name + ".index"  # the open is a fetch too
            assert len(set(chain)) == len(chain)  # nothing is read twice


# -- tiled differential -----------------------------------------------------

class TestTiledPipelinedParity:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 0), ("threads:2", 2), ("processes:2", 2),
    ])
    def test_roi_staircase_bit_identical(self, reference_tiled, backend,
                                         workers):
        def staircase(pipelined):
            recon = TiledReconstructor(
                open_tiled_field(_fresh_tiled_store(reference_tiled),
                                 "rho"),
                num_workers=workers, backend=backend,
                pipelined=pipelined,
            )
            out = [recon.reconstruct(tolerance=t, region=ROI)
                   for t in STAIRCASE]
            stats = recon.counters()
            recon.close()
            return out, stats

        (ref, ref_stats), (got, got_stats) = (staircase(False),
                                              staircase(True))
        for a, b in zip(ref, got):
            assert np.array_equal(a.data, b.data)
            assert a.error_bound == b.error_bound
        assert ref_stats == got_stats

    def test_single_tile_step_stays_sequential(self, reference_tiled):
        # One-tile regions run map's plain loop (nothing to overlap) but
        # must still return the exact sequential answer.
        recon = TiledReconstructor(
            open_tiled_field(_fresh_tiled_store(reference_tiled), "rho"),
            pipelined=True,
        )
        seq = TiledReconstructor(
            open_tiled_field(_fresh_tiled_store(reference_tiled), "rho"),
        )
        one_tile = (slice(0, 8), slice(0, 8), slice(0, 8))
        a = recon.reconstruct(tolerance=1e-2, region=one_tile)
        b = seq.reconstruct(tolerance=1e-2, region=one_tile)
        assert np.array_equal(a.data, b.data)
        recon.close()
        seq.close()

    @pytest.mark.parametrize("seed", [5, 23])
    def test_degrade_parity_identical_failed_tiles(self, reference_tiled,
                                                   seed):
        def staircase(pipelined):
            flaky = FaultInjectingStore(
                _fresh_tiled_store(reference_tiled), transient_rate=0.0,
                seed=seed,
            )
            recon = TiledReconstructor(
                open_tiled_field(flaky, "rho"), pipelined=pipelined,
            )
            flaky.transient_rate = 0.25  # index reads stay clean
            out = []
            for t in STAIRCASE:
                res = recon.reconstruct(tolerance=t, region=ROI,
                                        on_fault="degrade")
                out.append((res.data.copy(), res.error_bound,
                            res.degraded, res.failed_tiles,
                            res.failed_groups))
            flaky.transient_rate = 0.0
            final = recon.reconstruct(region=ROI)
            out.append((final.data.copy(), final.error_bound,
                        final.degraded, final.failed_tiles,
                        final.failed_groups))
            stats = recon.counters()
            recon.close()
            return out, stats

        (ref, ref_stats), (got, got_stats) = (staircase(False),
                                              staircase(True))
        for a, b in zip(ref, got):
            assert np.array_equal(a[0], b[0])
            assert a[1:] == b[1:]  # bound + degraded/failed-tile sets
        assert ref_stats == got_stats


# -- service wiring ---------------------------------------------------------

class TestServicePipelined:
    def test_latency_detection_picks_the_default(self, tmp_path):
        # file_open_latency_s (default 2e-4) is what io_time_estimate
        # accounts, never slept: the on-disk store bears no latency
        assert not _store_bears_latency(DirectoryStore(tmp_path / "s"))
        assert not _store_bears_latency(MemoryStore())
        assert _store_bears_latency(
            FaultInjectingStore(MemoryStore(), latency_s=0.01)
        )
        # wrapper passthrough: a reader over a latency-bearing store
        # still reads as latency-bearing, a fault layer that charges
        # nothing over the on-disk store does not
        assert _store_bears_latency(ResilientReader(
            FaultInjectingStore(MemoryStore(), latency_s=0.01)
        ))
        assert not _store_bears_latency(
            FaultInjectingStore(DirectoryStore(tmp_path / "t"))
        )

    def test_session_defaults_follow_store(self, reference_tiled,
                                           tmp_path):
        store = DirectoryStore(tmp_path / "store")
        store_tiled_field(store, reference_tiled)
        svc = RetrievalService(store)
        assert not svc.session("rho").reconstructor.pipelined
        assert svc.session(
            "rho", pipelined=True).reconstructor.pipelined
        slow_svc = RetrievalService(
            FaultInjectingStore(store, latency_s=1e-4)
        )
        assert slow_svc.session("rho").reconstructor.pipelined
        assert not slow_svc.session(
            "rho", pipelined=False).reconstructor.pipelined
        mem_svc = RetrievalService(_fresh_tiled_store(reference_tiled))
        assert not mem_svc.session("rho").reconstructor.pipelined
        assert mem_svc.session(
            "rho", pipelined=True).reconstructor.pipelined
        svc.close()
        slow_svc.close()
        mem_svc.close()

    def test_prefetch_hits_are_counted(self, reference_field):
        svc = RetrievalService(_fresh_store(reference_field), prefetch=True)
        session = svc.session("vx")
        session.reconstruct(tolerance=STAIRCASE[0])
        svc.drain_prefetch()  # let the next-group warms land
        session.reconstruct(tolerance=STAIRCASE[2])
        stats = svc.stats()
        assert stats["prefetch_hits"] >= 1
        assert stats["prefetch_hits"] <= stats["prefetch_requests"]
        svc.close()

    def test_resident_keys_are_skipped_not_refetched(self,
                                                     reference_field):
        svc = RetrievalService(_fresh_store(reference_field), prefetch=True)
        session = svc.session("vx")
        session.reconstruct(tolerance=STAIRCASE[0])
        svc.drain_prefetch()
        # Re-enqueue a key that is already resident: the warm must
        # skip it without touching the cache hit/miss counters.
        ref = next(r for lv in session.tiled.fields[0].levels
                   for r in lv.refs if r.key in svc.cache)
        before = svc.cache.stats()
        svc._enqueue_prefetch([ref])
        svc.drain_prefetch()
        after = svc.cache.stats()
        assert svc.stats()["prefetch_skipped"] >= 1
        assert (before["hits"], before["misses"]) == (after["hits"],
                                                      after["misses"])
        svc.close()

    def test_cancel_stale_prefetches_pulls_queued_warms(
        self, reference_field
    ):
        svc = RetrievalService(_fresh_store(reference_field), prefetch=True)
        gate = threading.Event()
        # Occupy every prefetch worker so queued warms cannot start.
        pool = svc._prefetch_threads.executor(_PREFETCH_WORKERS)
        blockers = [
            pool.submit(gate.wait) for _ in range(pool._max_workers)
        ]
        svc._enqueue_prefetch([SegmentRef("vx/stale/0", 1, 1, 0),
                               SegmentRef("vx/stale/1", 1, 1, 0)])
        cancelled = svc.cancel_stale_prefetches(
            ["vx/stale/0", "vx/stale/1", "vx/never/queued"]
        )
        gate.set()
        for blocker in blockers:
            blocker.result()
        assert cancelled == 2
        stats = svc.stats()
        assert stats["prefetch_cancelled"] == 2
        assert stats["prefetch_failures"] == 0  # cancelled ≠ failed
        svc.drain_prefetch()  # cancelled futures must not raise here
        svc.close()

    def test_tiled_session_pipelined_parity(self, reference_tiled):
        seq_svc = RetrievalService(_fresh_tiled_store(reference_tiled),
                                   prefetch=True)
        pip_svc = RetrievalService(_fresh_tiled_store(reference_tiled),
                                   prefetch=True)
        seq = seq_svc.session("rho", pipelined=False)
        pip = pip_svc.session("rho", pipelined=True)
        for t in STAIRCASE:
            a = seq.reconstruct(tolerance=t, region=ROI)
            b = pip.reconstruct(tolerance=t, region=ROI)
            assert np.array_equal(a.data, b.data)
            assert a.error_bound == b.error_bound
            # Every warm lands before the next step on both sides, so
            # the steps' cold/cache-hit split cannot race the prefetch.
            seq_svc.drain_prefetch()
            pip_svc.drain_prefetch()
        assert seq.stats() == pip.stats()
        seq_svc.close()
        pip_svc.close()


class TestOneRequestPerTileBatch:
    """A tile batch is one store request: the sequential route sends a
    step's plane groups in one request, the pipelined route in one per
    batch (``min(FETCH_WORKERS, tiles)``), ``threads:N`` in N; a tile's
    first touch adds one request per batch for the index records. A
    latency-charging store charges once per request, so its charges
    count requests exactly."""

    ROUTES = [("serial", False, 1), ("serial", True, FETCH_WORKERS),
              ("threads:3", False, 3)]

    @pytest.mark.parametrize("backend,pipelined,width", ROUTES)
    def test_requests_per_step(self, reference_tiled, backend, pipelined,
                               width):
        store = FaultInjectingStore(_fresh_tiled_store(reference_tiled),
                                    latency_s=1.0, sleep=lambda s: None)
        svc = RetrievalService(store)
        session = svc.session("rho", backend=backend, pipelined=pipelined)
        tiles = len(session.tiled.tiles_overlapping(
            normalize_region(ROI, session.tiled.shape)))
        batches = min(width, tiles)
        for step, tol in enumerate(STAIRCASE):
            before = store.injected_latency_s
            session.reconstruct(tolerance=tol, region=ROI)
            requests = store.injected_latency_s - before
            assert requests == batches * (2 if step == 0 else 1), step
        session.close()
        svc.close()

    def test_one_tile_step_is_one_request(self, reference_tiled):
        store = FaultInjectingStore(_fresh_tiled_store(reference_tiled),
                                    latency_s=1.0, sleep=lambda s: None)
        recon = TiledReconstructor(open_tiled_field(store, "rho"),
                                   backend="serial", pipelined=True)
        one_tile = (slice(0, 12), slice(0, 12), slice(0, 12))
        before = store.injected_latency_s
        recon.reconstruct(STAIRCASE[0], region=one_tile)
        assert store.injected_latency_s - before == 2  # index, groups
        before = store.injected_latency_s
        recon.reconstruct(STAIRCASE[1], region=one_tile)
        assert store.injected_latency_s - before == 1
        recon.close()


class TestInstalledPackageImports:
    def test_real_runtime_imports_without_networkx(self):
        """``setup.cfg`` declares NumPy only: the real runtime must import
        with the simulated layer's undeclared ``networkx`` absent and
        load no ``repro.pipeline`` module at all; the simulated layer
        still imports submodule by submodule (``dag`` to an ImportError
        naming networkx)."""
        script = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now fails
import repro.core.service
loaded = [m for m in sys.modules if m.startswith("repro.pipeline")]
assert not loaded, loaded
import repro.pipeline.scheduler  # needs no networkx
try:
    import repro.pipeline.dag
except ImportError as exc:
    assert "networkx" in str(exc), exc
else:
    raise AssertionError("dag imported without networkx")
print("numpy-only-ok")
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "numpy-only-ok" in result.stdout
