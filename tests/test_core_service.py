"""Tests for the lazy retrieval layer: open_field, SegmentCache, service.

Covers the PR acceptance criteria: a progressive session over a
DirectoryStore at a loose tolerance fetches strictly fewer bytes than
the eager ``load_field`` path; lazy per-step accounting matches the
store's own read counters exactly; the shared cache evicts under a
tight byte budget without corrupting results; and concurrent sessions
are deterministic with the second-session traffic served from cache.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.service import RetrievalService, SegmentCache
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    SegmentReader,
    load_field,
    open_field,
    store_field,
)
from repro.core.stream import LazyRefactoredField
from repro.data import generators as gen
from repro.qoi import v_total


@pytest.fixture(scope="module")
def field_and_data():
    data = gen.gaussian_random_field((16, 16, 16), -2.0, seed=9,
                                     dtype=np.float64)
    return data, refactor(data, name="vel")


@pytest.fixture()
def dir_store(field_and_data, tmp_path):
    _, f = field_and_data
    store = DirectoryStore(tmp_path / "store")
    store_field(store, f)
    store.reads = store.bytes_read = 0
    return store


class TestSegmentReaderProtocol:
    def test_all_backends_satisfy_protocol(self, tmp_path):
        assert isinstance(MemoryStore(), SegmentReader)
        assert isinstance(DirectoryStore(tmp_path / "a"), SegmentReader)

    def test_cache_fronts_any_reader(self):
        class Flaky:
            """Minimal duck-typed reader: only `get` is exercised."""

            def __init__(self):
                self.calls = 0

            def get(self, key):
                self.calls += 1
                return b"payload-" + key.encode()

        cache = SegmentCache(Flaky(), max_bytes=1 << 20)
        a1, cold1 = cache.resolve("k")
        a2, cold2 = cache.resolve("k")
        assert (cold1, cold2) == (True, False)
        assert a1 == a2 == b"payload-k"
        assert cache._reader.calls == 1


class TestManifestBatching:
    def test_put_flushes_immediately_by_default(self, tmp_path):
        s = DirectoryStore(tmp_path / "s")
        s.put("a", b"1")
        s.put("b", b"2")
        assert s.manifest_writes == 2

    def test_batch_flushes_once(self, tmp_path):
        s = DirectoryStore(tmp_path / "s")
        with s.batch():
            for i in range(10):
                s.put(f"seg{i}", b"x" * i)
        assert s.manifest_writes == 1
        # and the single flush persisted everything
        s2 = DirectoryStore(tmp_path / "s")
        assert len(s2.keys()) == 10

    def test_nested_batch_outermost_flushes(self, tmp_path):
        s = DirectoryStore(tmp_path / "s")
        with s.batch():
            s.put("a", b"1")
            with s.batch():
                s.put("b", b"2")
            assert s.manifest_writes == 0  # inner exit does not flush
        assert s.manifest_writes == 1

    def test_empty_batch_does_not_flush(self, tmp_path):
        s = DirectoryStore(tmp_path / "s")
        with s.batch():
            pass
        assert s.manifest_writes == 0

    def test_store_field_uses_batching(self, field_and_data, tmp_path):
        _, f = field_and_data
        s = DirectoryStore(tmp_path / "s")
        store_field(s, f)
        assert s.manifest_writes == 1
        assert len(s.keys()) == sum(lv.num_groups for lv in f.levels) + 1


class TestLazyField:
    def test_open_reads_no_segments(self, dir_store):
        lazy = open_field(dir_store, "vel")
        assert isinstance(lazy, LazyRefactoredField)
        # only the index blob was read; planning metadata is complete
        assert lazy.io_counters.segment_reads == 0
        assert lazy.total_bytes() > 0
        assert lazy.max_groups() == [lv.num_groups for lv in lazy.levels]
        assert lazy.io_counters.segment_reads == 0  # still nothing fetched

    def test_loose_session_fetches_strictly_fewer_bytes_than_load_field(
        self, field_and_data, dir_store
    ):
        """The PR acceptance criterion."""
        data, _ = field_and_data
        full = load_field(dir_store, "vel")
        eager_bytes = dir_store.bytes_read
        dir_store.reads = dir_store.bytes_read = 0

        lazy = open_field(dir_store, "vel")
        dir_store.reads = dir_store.bytes_read = 0
        r = Reconstructor(lazy).reconstruct(tolerance=1e-2)
        assert dir_store.bytes_read < eager_bytes  # strictly fewer
        assert np.max(np.abs(r.data - data)) <= 1e-2
        # and identical output to the eager path
        r_eager = Reconstructor(full).reconstruct(tolerance=1e-2)
        np.testing.assert_array_equal(r.data, r_eager.data)

    def test_incremental_bytes_matches_store_reads(self, dir_store):
        lazy = open_field(dir_store, "vel")
        recon = Reconstructor(lazy)
        dir_store.reads = dir_store.bytes_read = 0
        r1 = recon.reconstruct(tolerance=1e-1)
        assert dir_store.bytes_read == r1.incremental_bytes == r1.cold_bytes
        read_after_first = dir_store.bytes_read
        r2 = recon.reconstruct(tolerance=1e-5)
        # the tighter step reads exactly its increment — nothing refetched
        assert (
            dir_store.bytes_read - read_after_first
            == r2.incremental_bytes
            == r2.cold_bytes
        )
        assert lazy.io_counters.cold_bytes == dir_store.bytes_read

    def test_same_tolerance_refetches_nothing(self, dir_store):
        lazy = open_field(dir_store, "vel")
        recon = Reconstructor(lazy)
        recon.reconstruct(tolerance=1e-3)
        before = dir_store.bytes_read
        r = recon.reconstruct(tolerance=1e-3)
        assert dir_store.bytes_read == before
        assert r.incremental_bytes == 0 and r.cold_bytes == 0

    def test_full_lazy_equals_eager(self, field_and_data, dir_store):
        _, f = field_and_data
        lazy = open_field(dir_store, "vel")
        r_lazy = Reconstructor(lazy).reconstruct()  # near-lossless
        r_eager = Reconstructor(load_field(dir_store, "vel")).reconstruct()
        np.testing.assert_array_equal(r_lazy.data, r_eager.data)

    def test_pre_metadata_index_still_opens(self, field_and_data, tmp_path):
        """Indexes written before the `segments` table stay readable."""
        data, f = field_and_data
        store = DirectoryStore(tmp_path / "old")
        index = store_field(store, f)
        legacy = {"field": index["field"], "groups": index["groups"]}
        store.put("vel.index", json.dumps(legacy).encode())
        lazy = open_field(store, "vel")
        store.reads = store.bytes_read = 0
        r = Reconstructor(lazy).reconstruct(tolerance=1e-3)
        assert np.max(np.abs(r.data - data)) <= 1e-3
        # plane-count discovery fetches during *planning* are still part
        # of the step's cold accounting
        assert r.cold_bytes == store.bytes_read

    def test_eager_results_report_zero_cold_bytes(self, field_and_data):
        _, f = field_and_data
        r = Reconstructor(f).reconstruct(tolerance=1e-3)
        assert r.cold_bytes == 0 and r.cache_hit_bytes == 0


class TestSegmentCache:
    def test_eviction_under_tight_budget(self, field_and_data, dir_store):
        data, f = field_and_data
        sizes = [dir_store.size_of(k) for k in dir_store.keys()
                 if not k.endswith(".index")]
        budget = max(sizes) * 2  # holds ~2 segments at a time
        cache = SegmentCache(dir_store, max_bytes=budget)
        lazy = open_field(dir_store, "vel", cache=cache)
        r = Reconstructor(lazy).reconstruct(tolerance=1e-5)
        assert cache.evictions > 0
        assert cache.current_bytes <= budget
        assert np.max(np.abs(r.data - data)) <= 1e-5  # results unharmed

    def test_lru_order(self):
        store = MemoryStore()
        for key, size in (("a", 4), ("b", 4), ("c", 4)):
            store.put(key, b"x" * size)
        cache = SegmentCache(store, max_bytes=8)
        cache.get("a")
        cache.get("b")
        cache.get("a")  # refresh a; b is now LRU
        cache.get("c")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_oversize_blob_served_not_cached(self):
        store = MemoryStore()
        store.put("big", b"x" * 100)
        cache = SegmentCache(store, max_bytes=10)
        blob, cold = cache.resolve("big")
        assert cold and blob == b"x" * 100
        assert "big" not in cache and cache.oversize == 1

    def test_stats_and_clear(self):
        store = MemoryStore()
        store.put("k", b"abcd")
        cache = SegmentCache(store, max_bytes=1 << 10)
        cache.get("k")
        cache.get("k")
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["hit_bytes"] == s["miss_bytes"] == 4
        assert s["hit_rate"] == 0.5
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.hits == 1  # counters survive clear

    def test_validates_budget(self):
        with pytest.raises(ValueError):
            SegmentCache(MemoryStore(), max_bytes=0)


class TestRetrievalService:
    def test_second_session_served_from_cache(self, dir_store):
        svc = RetrievalService(dir_store, cache_bytes=64 << 20)
        r1 = svc.session("vel").reconstruct(tolerance=1e-3)
        assert r1.cold_bytes > 0 and r1.cache_hit_bytes == 0
        dir_store.reads = 0
        r2 = svc.session("vel").reconstruct(tolerance=1e-3)
        assert r2.cold_bytes == 0  # fully cache-served
        assert r2.cache_hit_bytes == r1.cold_bytes
        np.testing.assert_array_equal(r1.data, r2.data)
        # even the index blob came from the cache: zero store reads
        assert dir_store.reads == 0

    def test_concurrent_sessions_deterministic(self, field_and_data,
                                               dir_store):
        data, f = field_and_data
        tolerances = [1e-1, 1e-3, 1e-5]
        reference = Reconstructor(f).progressive(tolerances)
        svc = RetrievalService(dir_store, cache_bytes=64 << 20)
        results: dict[int, list] = {}
        errors: list[Exception] = []

        def run(i):
            try:
                with svc.session("vel") as session:
                    results[i] = session.progressive(tolerances)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(4):
            assert len(results[i]) == len(tolerances)
            for got, ref in zip(results[i], reference):
                np.testing.assert_array_equal(got.data, ref.data)
                assert got.incremental_bytes == ref.incremental_bytes
        # every session's traffic is accounted as either cold or cached;
        # the cache additionally carried one index resolve per session
        stats = svc.cache.stats()
        index_traffic = 4 * dir_store.size_of("vel.index")
        assert stats["miss_bytes"] + stats["hit_bytes"] == index_traffic + sum(
            r.cold_bytes + r.cache_hit_bytes
            for rs in results.values() for r in rs
        )

    def test_prefetch_warms_next_group(self, dir_store):
        svc = RetrievalService(dir_store, cache_bytes=64 << 20, prefetch=True)
        session = svc.session("vel")
        session.reconstruct(tolerance=1e-1)
        svc.drain_prefetch()
        assert svc.prefetch_requests > 0
        # the next unfetched group of each level is already resident
        for lv, have in zip(session.field.levels, session.fetched_groups):
            if have < len(lv.refs):
                assert lv.refs[have].key in svc.cache
        # so the tighter follow-up step reads less cold than its increment
        r = session.reconstruct(tolerance=1e-4)
        assert r.cache_hit_bytes > 0
        assert r.cold_bytes < r.incremental_bytes
        svc.close()

    def test_retrieve_qoi_through_service(self, tmp_path):
        shape = (12, 12, 12)
        rng = {}
        store = DirectoryStore(tmp_path / "qoi")
        for i, name in enumerate(("Vx", "Vy", "Vz")):
            rng[name] = gen.gaussian_random_field(
                shape, -2.0, seed=20 + i, dtype=np.float64
            )
            store_field(store, refactor(rng[name], name=name))
        svc = RetrievalService(store, cache_bytes=64 << 20)
        tol = 1e-2
        result = svc.retrieve_qoi(v_total(["Vx", "Vy", "Vz"]), tol)
        assert result.estimated_error <= tol
        assert result.cold_bytes > 0
        assert result.history[-1].cold_bytes == result.cold_bytes
        # second identical query is served from the shared cache
        again = svc.retrieve_qoi(v_total(["Vx", "Vy", "Vz"]), tol)
        assert again.cold_bytes == 0
        assert again.cache_hit_bytes > 0
        np.testing.assert_array_equal(result.qoi_values, again.qoi_values)

    def test_stats_shape(self, dir_store):
        svc = RetrievalService(dir_store)
        svc.session("vel").reconstruct(tolerance=1e-2)
        stats = svc.stats()
        assert stats["cache"]["misses"] > 0
        assert stats["store_bytes_read"] == dir_store.bytes_read

    def test_closed_service_answers_but_schedules_nothing(self, dir_store):
        """A step after ``service.close()`` reads through the cache and
        must not re-create the prefetch pool ``close`` tore down."""
        svc = RetrievalService(dir_store, prefetch=True)
        twin = RetrievalService(dir_store, prefetch=True)
        session, reference = svc.session("vel"), twin.session("vel")
        session.reconstruct(tolerance=1e-1)
        reference.reconstruct(tolerance=1e-1)
        svc.close()
        svc.close()  # idempotent
        assert svc._prefetch_threads._executor is None
        requests = svc.prefetch_requests
        got = session.reconstruct(tolerance=1e-4)
        want = reference.reconstruct(tolerance=1e-4)
        np.testing.assert_array_equal(got.data, want.data)
        assert got.error_bound == want.error_bound
        assert svc._prefetch_threads._executor is None
        assert svc.prefetch_requests == requests
        assert twin.prefetch_requests > requests  # the open twin kept going
        twin.close()

    def test_backend_env_does_not_resize_the_prefetch_pool(
        self, dir_store, monkeypatch
    ):
        """``REPRO_BACKEND`` selects where tiled engines run tiles; the
        service's prefetch pool is not an execution backend and keeps
        its fixed width."""
        monkeypatch.setenv("REPRO_BACKEND", "threads:8")
        svc = RetrievalService(dir_store, prefetch=True)
        assert not hasattr(svc, "backend")
        svc.session("vel").reconstruct(tolerance=1e-1)
        assert svc.prefetch_requests > 0
        assert svc._prefetch_threads._executor._max_workers == 2
        svc.close()

    def test_prefetch_failures_are_swallowed_and_counted(self, dir_store):
        svc = RetrievalService(dir_store, prefetch=True)
        pool = svc._prefetch_threads.executor(2)
        with svc._futures_lock:
            svc._prefetch_futures.append(
                pool.submit(svc._safe_warm, "no-such-segment")
            )
        svc.drain_prefetch()  # must not raise
        assert svc.prefetch_failures == 1
        assert svc.stats()["prefetch_failures"] == 1
        svc.close()

    def test_concurrent_same_key_misses_read_store_once(self):
        """The in-flight dedupe: one store read per key under contention."""
        store = MemoryStore()
        store.put("k", b"x" * 64)
        gate = threading.Event()
        original_get = store.get

        def slow_get(key):
            gate.wait(timeout=5.0)
            return original_get(key)

        store.get = slow_get
        cache = SegmentCache(store, max_bytes=1 << 20)
        results = []

        def worker():
            results.append(cache.resolve("k"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert store.reads == 1  # one leader; followers piggybacked
        assert sorted(cold for _, cold in results) == [False] * 3 + [True]
        assert all(blob == b"x" * 64 for blob, _ in results)
