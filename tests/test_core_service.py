"""Tests for the lazy retrieval layer: open_field, SegmentCache, service.

Covers the PR acceptance criteria: a progressive session over a
DirectoryStore at a loose tolerance fetches strictly fewer bytes than
the eager ``load_field`` path; lazy per-step accounting matches the
store's own read counters exactly; the shared cache evicts under a
tight byte budget without corrupting results; and concurrent sessions
are deterministic with the second-session traffic served from cache.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core.errors import SegmentCorruptionError, finish_batch
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.service import RetrievalService, SegmentCache
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    SegmentReader,
    load_field,
    open_field,
    segment_checksum,
    store_field,
    store_tiled_field,
)
from repro.core.stream import LazyRefactoredField, SegmentRef
from repro.core.tiling import TiledRefactorer
from repro.data import generators as gen
from repro.qoi import retrieval, v_total


@pytest.fixture(scope="module")
def field_and_data():
    data = gen.gaussian_random_field((16, 16, 16), -2.0, seed=9,
                                     dtype=np.float64)
    return data, refactor(data, name="vel")


def _resolve(cache, key):
    """``(blob, cold)`` for one key, raising its error."""
    return finish_batch([key], *cache.resolve_settled([key]))[0]


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
        a1, cold1 = _resolve(cache, "k")
        a2, cold2 = _resolve(cache, "k")
        assert (cold1, cold2) == (True, False)
        assert a1 == a2 == b"payload-k"
        assert cache._reader.calls == 1

    def test_get_only_reader_serves_sessions(self, field_and_data):
        """A reader with only ``get`` / ``size_of`` / ``keys`` /
        ``__contains__`` satisfies the protocol and is read key by key:
        a session staircase over it equals one over the store it wraps,
        store reads included."""
        _, f = field_and_data
        inner = MemoryStore()
        store_field(inner, f)

        class GetOnly:
            def __init__(self, inner):
                self._inner = inner

            def get(self, key):
                return self._inner.get(key)

            def size_of(self, key):
                return self._inner.size_of(key)

            def keys(self):
                return self._inner.keys()

            def __contains__(self, key):
                return key in self._inner

        reader = GetOnly(inner)
        assert isinstance(reader, SegmentReader)
        runs, reads = [], []
        for backing in (inner, reader):
            before = inner.reads
            with RetrievalService(backing) as svc, svc.session("vel") as s:
                runs.append([s.reconstruct(tolerance=t, relative=True)
                             for t in (1e-1, 1e-3, 1e-5)])
            reads.append(inner.reads - before)
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got.data, want.data)
            assert got.error_bound == want.error_bound
        assert reads[0] == reads[1] > 1


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

    def test_eager_results_report_zero_cold_bytes(self, field_and_data):
        _, f = field_and_data
        r = Reconstructor(f).reconstruct(tolerance=1e-3)
        assert r.cold_bytes == 0 and r.cache_hit_bytes == 0


@pytest.fixture()
def no_cyclic_gc():
    """Only reference counting frees objects inside the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestFieldLifetime:
    """A dropped lazy field is freed by reference counting, memoized
    segments and all: its group sequences share its read state, not the
    field itself, so no field -> levels -> groups -> field cycle waits
    for the cyclic collector."""

    def test_opened_field_dies_on_del(self, dir_store, no_cyclic_gc):
        lazy = open_field(dir_store, "vel")
        Reconstructor(lazy).reconstruct(tolerance=1e-3)
        assert lazy.levels[-1].groups.resolved_indices
        alive = weakref.ref(lazy)
        del lazy
        assert alive() is None

    def test_closed_session_tile_fields_die_on_del(self, field_and_data,
                                                   no_cyclic_gc):
        data, _ = field_and_data
        store = MemoryStore()
        store_tiled_field(store,
                          TiledRefactorer((8, 8, 8)).refactor(data, "rho"))
        with RetrievalService(store, prefetch=True) as svc:
            session = svc.session("rho")
            session.reconstruct(tolerance=1e-3)
            svc.drain_prefetch()
            tiled = session.tiled
            alive = [weakref.ref(tiled)] + [
                weakref.ref(tiled.fields[i]) for i in tiled.opened_tiles]
            assert len(alive) == 1 + tiled.num_tiles
            session.close()
            del session, tiled
            assert [ref() for ref in alive] == [None] * len(alive)


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
        blob, cold = _resolve(cache, "big")
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


def _step(session, **kwargs):
    """One session step plus its traffic, as deltas of ``stats()``."""
    before = session.stats()
    result = session.reconstruct(**kwargs)
    after = session.stats()
    return result, {
        key: after[key] - before[key]
        for key in ("fetched_bytes", "segment_reads", "cold_bytes",
                    "cache_hit_bytes")
    }


class _FlipOnWire(MemoryStore):
    """Flips one bit of *key* on its first *times* reads; the stored
    bytes stay intact."""

    def __init__(self, key, times=1):
        super().__init__()
        self.key, self.times = key, times

    def get(self, key):
        blob = super().get(key)
        if key != self.key or self.times == 0:
            return blob
        self.times -= 1
        flipped = bytearray(blob)
        flipped[len(flipped) // 2] ^= 0x04
        return bytes(flipped)


def _staircase(service, name):
    """``(data bytes, bound)`` of a three-step session over *name*."""
    session = service.session(name)
    steps = [session.reconstruct(tolerance=t) for t in (1e-1, 1e-3, 1e-6)]
    return [(r.data.tobytes(), r.error_bound) for r in steps]


#: Index records of an untiled field ("vel") and a tiled one ("rho").
RECORD_KEYS = ["vel.index", "rho.tiles", "rho.T1_0_1.index"]


class TestIndexRecordIntegrity:
    @pytest.fixture()
    def fill(self, field_and_data):
        data, f = field_and_data
        tiled = TiledRefactorer((8, 8, 8)).refactor(data, name="rho")

        def fill(store):
            store_field(store, f)
            store_tiled_field(store, tiled)
            return store

        return fill

    @pytest.mark.parametrize("key", RECORD_KEYS)
    def test_record_flipped_on_the_wire_is_refetched(self, fill, key):
        """The first read of the record is flipped: it is re-fetched
        before it is cached, so every open succeeds and steps exactly
        like one over a clean store."""
        name = key.split(".")[0]
        clean = _staircase(RetrievalService(fill(MemoryStore())), name)
        store = fill(_FlipOnWire(key))
        svc = RetrievalService(store)
        assert _staircase(svc, name) == clean
        assert (store.times, svc.cache.corruption_refetches,
                svc.cache.corruption_failures) == (0, 1, 0)
        assert _staircase(svc, name) == clean  # the later open, too

    @pytest.mark.parametrize("key", RECORD_KEYS)
    def test_record_that_fails_twice_is_raised_and_not_cached(
        self, fill, key
    ):
        name = key.split(".")[0]
        clean = _staircase(RetrievalService(fill(MemoryStore())), name)
        store = fill(_FlipOnWire(key, times=2))
        svc = RetrievalService(store)
        with pytest.raises(SegmentCorruptionError, match=key):
            _staircase(svc, name)
        assert key not in svc.cache
        assert (svc.cache.corruption_refetches,
                svc.cache.corruption_failures) == (1, 1)
        assert _staircase(svc, name) == clean  # the wire healed


@pytest.fixture(scope="module")
def qoi_store(tmp_path_factory):
    """Three velocity components in one store, and their data."""
    store = DirectoryStore(tmp_path_factory.mktemp("qoi"))
    data = {}
    for i, name in enumerate(("Vx", "Vy", "Vz")):
        data[name] = gen.gaussian_random_field(
            (12, 12, 12), -2.0, seed=20 + i, dtype=np.float64
        )
        store_field(store, refactor(data[name], name=name))
    return store, data


class TestRetrievalService:
    def test_second_session_served_from_cache(self, dir_store):
        svc = RetrievalService(dir_store, cache_bytes=64 << 20)
        r1, t1 = _step(svc.session("vel"), tolerance=1e-3)
        assert t1["cold_bytes"] > 0 and t1["cache_hit_bytes"] == 0
        dir_store.reads = 0
        r2, t2 = _step(svc.session("vel"), tolerance=1e-3)
        assert t2["cold_bytes"] == 0  # fully cache-served
        assert t2["cache_hit_bytes"] == t1["cold_bytes"]
        np.testing.assert_array_equal(r1.data, r2.data)
        # even the index blob came from the cache: zero store reads
        assert dir_store.reads == 0

    def test_untiled_open_reads_its_index_once(self, dir_store):
        svc = RetrievalService(dir_store)
        session = svc.session("vel")
        assert session.tiled.num_tiles == 1
        assert svc.cache.misses == 1  # <name>.index, and nothing else
        assert dir_store.reads == 1
        session.reconstruct(tolerance=1e-1)
        fetched = sum(session.reconstructor.touched_reconstructors()[0]
                      .fetched_groups)
        assert dir_store.reads == 1 + fetched
        assert svc.cache.misses == 1 + fetched

    def test_concurrent_sessions_deterministic(self, field_and_data,
                                               dir_store):
        data, f = field_and_data
        tolerances = [1e-1, 1e-3, 1e-5]
        recon = Reconstructor(f)
        reference = [recon.reconstruct(tolerance=t) for t in tolerances]
        svc = RetrievalService(dir_store, cache_bytes=64 << 20)
        results: dict[int, list] = {}
        errors: list[Exception] = []

        def run(i):
            try:
                with svc.session("vel") as session:
                    results[i] = [_step(session, tolerance=t)
                                  for t in tolerances]
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
            for (got, traffic), ref in zip(results[i], reference):
                np.testing.assert_array_equal(got.data, ref.data)
                assert got.error_bound == ref.error_bound
                assert traffic["fetched_bytes"] == ref.incremental_bytes
        # every session's traffic is accounted as either cold or cached;
        # the cache additionally carried one index resolve per session
        stats = svc.cache.stats()
        index_traffic = 4 * dir_store.size_of("vel.index")
        assert stats["miss_bytes"] + stats["hit_bytes"] == index_traffic + sum(
            traffic["cold_bytes"] + traffic["cache_hit_bytes"]
            for steps in results.values() for _, traffic in steps
        )

    def test_prefetch_warms_next_group(self, dir_store):
        svc = RetrievalService(dir_store, cache_bytes=64 << 20, prefetch=True)
        session = svc.session("vel")
        session.reconstruct(tolerance=1e-1)
        svc.drain_prefetch()
        assert svc.prefetch_requests > 0
        # the next unfetched group of each level is already resident
        [recon] = session.reconstructor.touched_reconstructors()
        for lv, have in zip(recon.field.levels, recon.fetched_groups):
            if have < len(lv.refs):
                assert lv.refs[have].key in svc.cache
        # so the tighter follow-up step reads less cold than its increment
        _, traffic = _step(session, tolerance=1e-4)
        assert traffic["cache_hit_bytes"] > 0
        assert traffic["cold_bytes"] < traffic["fetched_bytes"]
        svc.close()

    def test_every_step_cancels_its_stale_prefetches(self, dir_store):
        """A sequential session cancels the previous step's queued warms
        too: whichever route runs the step fetches those keys itself."""
        svc = RetrievalService(dir_store, prefetch=True)
        gate = threading.Event()
        pool = svc._prefetch_threads.executor(2)
        blockers = [pool.submit(gate.wait) for _ in range(2)]
        try:
            session = svc.session("vel")
            assert not session.reconstructor.pipelined
            session.reconstruct(tolerance=1e-1)  # its warms cannot start
            queued = svc.prefetch_requests
            assert queued > 0
            session.reconstruct(tolerance=1e-4)
        finally:
            gate.set()
            for blocker in blockers:
                blocker.result()
            svc.close()
        assert svc.prefetch_cancelled == queued

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_session_staircase_equals_reconstructor(self, dtype, tmp_path):
        data = gen.gaussian_random_field((12, 10, 9), -2.0, seed=4,
                                         dtype=dtype)
        store = DirectoryStore(tmp_path / "s")
        store_field(store, refactor(data, name="w"))
        svc = RetrievalService(store)
        plain = Reconstructor(open_field(store, "w"))
        with svc.session("w") as session:
            for tol in (1e-1, 1e-3, 1e-5):
                got, traffic = _step(session, tolerance=tol, relative=True)
                want = plain.reconstruct(tolerance=tol, relative=True)
                np.testing.assert_array_equal(got.data, want.data)
                assert got.error_bound == want.error_bound
                assert traffic["fetched_bytes"] == want.incremental_bytes
                assert traffic["cold_bytes"] == want.cold_bytes
        svc.close()

    def test_retrieve_qoi_through_service(self, qoi_store):
        store, _ = qoi_store
        svc = RetrievalService(store, cache_bytes=64 << 20)
        tol = 1e-2
        result = svc.retrieve_qoi(v_total(["Vx", "Vy", "Vz"]), tol)
        assert result.estimated_error <= tol
        assert result.cold_bytes > 0
        assert result.history[-1].cold_bytes == result.cold_bytes
        # The kept reconstructors already hold every group the second
        # identical query needs: it decodes no group, reads no segment,
        # not even a cached one, and answers the same bits with the
        # same plan bytes.
        decoded = sum(r.counters().groups_decoded
                      for r in svc._qoi_recons.values())
        again = svc.retrieve_qoi(v_total(["Vx", "Vy", "Vz"]), tol)
        assert sum(r.counters().groups_decoded
                   for r in svc._qoi_recons.values()) == decoded
        assert again.cold_bytes == 0 and again.cache_hit_bytes == 0
        assert again.fetched_bytes == result.fetched_bytes
        np.testing.assert_array_equal(result.qoi_values, again.qoi_values)

    def test_close_frees_the_kept_qoi_reconstructors(self, qoi_store,
                                                      no_cyclic_gc):
        store, _ = qoi_store
        svc = RetrievalService(store)
        qoi = v_total(["Vx", "Vy", "Vz"])
        first = svc.retrieve_qoi(qoi, 1e-2)
        kept = [weakref.ref(r) for r in svc._qoi_recons.values()]
        fields = [weakref.ref(r.field) for r in svc._qoi_recons.values()]
        assert len(kept) == 3 and all(ref() is not None for ref in kept)
        svc.close()
        assert not svc._qoi_recons
        assert all(ref() is None for ref in kept + fields)
        # A closed service still answers, from variables opened afresh
        # for the call and kept by nobody.
        again = svc.retrieve_qoi(qoi, 1e-2)
        assert not svc._qoi_recons
        assert again.cold_bytes == 0 and again.cache_hit_bytes > 0
        np.testing.assert_array_equal(first.qoi_values, again.qoi_values)

    def test_threads_sharing_a_service_get_the_serial_results(
            self, qoi_store, monkeypatch):
        store, _ = qoi_store
        qoi = v_total(["Vx", "Vy", "Vz"])
        tolerances = [1e-1, 1e-3, 1e-2, 1e-4] * 2
        serial = RetrievalService(store)
        want = [serial.retrieve_qoi(qoi, t) for t in tolerances]
        serial.close()
        estimates = []
        estimate = retrieval._estimate
        monkeypatch.setattr(retrieval, "_estimate", lambda *args: (
            estimates.append(1), estimate(*args))[1])
        svc = RetrievalService(store)
        got: dict[int, object] = {}

        def client(indices):
            for i in indices:
                got[i] = svc.retrieve_qoi(qoi, tolerances[i])

        # More clients than cores, switching often: every iteration is
        # either estimated or replayed, so a lost update shows.
        threads = [threading.Thread(target=client, args=(idx,))
                   for idx in ([0, 1], [2, 3], [4, 5], [6, 7])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert svc.stats()["qoi"]["memo_hits"] + len(estimates) == sum(
            g.iterations for g in got.values())
        svc.close()
        for i, w in enumerate(want):
            g = got[i]
            assert g.qoi_values.tobytes() == w.qoi_values.tobytes()
            assert (g.estimated_error, g.iterations, g.fetched_bytes) == (
                w.estimated_error, w.iterations, w.fetched_bytes)

    def test_stats_count_the_kept_qoi_state(self, qoi_store):
        store, _ = qoi_store
        svc = RetrievalService(store)
        assert svc.stats()["sessions"]["decode_state_bytes"] == 0
        svc.retrieve_qoi(v_total(["Vx", "Vy", "Vz"]), 1e-3)
        kept = sum(r.decode_state_bytes() for r in svc._qoi_recons.values())
        assert kept > 0
        assert svc.stats()["sessions"]["decode_state_bytes"] == kept
        session = svc.session("Vx")
        session.reconstruct(tolerance=1e-2)
        assert svc.stats()["sessions"]["decode_state_bytes"] == (
            kept + session.decode_state_bytes)
        svc.close()
        session.close()
        assert svc.stats()["sessions"]["decode_state_bytes"] == 0

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

    @staticmethod
    def _three_key_service():
        store = MemoryStore()
        for key in "abc":
            store.put(key, b"x" * 100)
        return RetrievalService(store, cache_bytes=150, prefetch=True)

    @staticmethod
    def _ref(key):
        """A warm target for one of the three 100-byte segments."""
        return SegmentRef(key, 100, 1, segment_checksum(b"x" * 100))

    def test_landed_prefetch_is_credited_once(self):
        svc = self._three_key_service()
        svc._safe_warm(self._ref("a"))
        svc.cache.get("a")
        svc.cache.get("a")
        assert svc.stats()["prefetch_hits"] == 1
        svc.close()

    def test_prefetch_verifies_before_caching(self):
        """A warm checks its ref's CRC32: bytes that do not match are
        re-fetched once, then counted as a failed prefetch and never
        cached."""
        svc = self._three_key_service()
        svc._safe_warm(SegmentRef("a", 100, 1, segment_checksum(b"y" * 100)))
        assert "a" not in svc.cache
        assert svc.stats()["prefetch_failures"] == 1
        assert (svc.cache.corruption_refetches,
                svc.cache.corruption_failures) == (1, 1)
        svc.close()

    def test_evicted_prefetch_is_never_credited(self):
        """A warmed key evicted unread, then read cold and hit, is no
        prefetch hit: the session paid the store for it."""
        svc = self._three_key_service()
        svc._safe_warm(self._ref("a"))
        svc.cache.get("b")  # evicts a
        assert "a" not in svc.cache
        svc.cache.get("a")  # cold
        svc.cache.get("a")  # a hit, but on the session's own read
        assert svc.stats()["prefetch_hits"] == 0
        svc._safe_warm(self._ref("c"))  # evicts a, lands c
        svc.cache.clear()
        svc.cache.get("c")
        svc.cache.get("c")
        assert svc.stats()["prefetch_hits"] == 0
        svc.close()

    def test_follower_of_a_prefetch_read_is_credited(self):
        """A read that piggybacks on a prefetch's in-flight store read
        is the prefetch hiding latency: it is credited, once."""
        entered, gate = threading.Event(), threading.Event()

        class Gated(MemoryStore):
            def settle_many(self, keys):
                entered.set()
                gate.wait(timeout=5.0)
                return super().settle_many(keys)

        store = Gated()
        store.put("a", b"x" * 100)
        cache = SegmentCache(store, max_bytes=1 << 10)
        warm = threading.Thread(
            target=cache.prefetch, args=("a", segment_checksum(b"x" * 100)))
        warm.start()
        assert entered.wait(timeout=5.0)
        threading.Timer(0.05, gate.set).start()
        assert _resolve(cache, "a") == (b"x" * 100, False)
        warm.join(timeout=5.0)
        _resolve(cache, "a")
        assert store.reads == 1
        assert (cache.hits, cache.misses, cache.prefetch_hits) == (2, 1, 1)

    def test_prefetch_failures_are_swallowed_and_counted(self, dir_store):
        svc = RetrievalService(dir_store, prefetch=True)
        pool = svc._prefetch_threads.executor(2)
        with svc._futures_lock:
            svc._prefetch_futures.append(
                pool.submit(svc._safe_warm,
                            SegmentRef("no-such-segment", 1, 1, 0))
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
            results.append(_resolve(cache, "k"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert store.reads == 1  # one leader; followers piggybacked
        assert sorted(cold for _, cold in results) == [False] * 3 + [True]
        assert all(blob == b"x" * 64 for blob, _ in results)

    def test_overlapping_batches_read_each_key_once(self):
        """Stress: threads resolving overlapping batches lose no counter
        update and read every key from the store exactly once."""
        import sys

        keys = [f"k{i}" for i in range(32)]
        store = MemoryStore()
        for i, key in enumerate(keys):
            store.put(key, bytes([i]) * (i + 1))
        cache = SegmentCache(store, max_bytes=1 << 20)
        batches = [keys[i % 7::3] for i in range(16)]
        outs: list = [None] * len(batches)

        def worker(i):
            outs[i] = finish_batch(batches[i],
                                   *cache.resolve_settled(batches[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for batch, out in zip(batches, outs):
            assert [blob for blob, _ in out] == [store._blobs[k] for k in batch]
        requested = sum(len(b) for b in batches)
        distinct = len(set().union(*batches))
        assert store.reads == distinct == cache.misses
        assert cache.hits + cache.misses == requested
        assert sum(cold for out in outs for _, cold in out) == distinct

    def test_leader_and_follower_keep_what_arrived_past_a_fault(
        self, field_and_data
    ):
        """Two sessions fetch the same step through one cache: the
        leader's batch reads every key once and one key faults; the
        follower piggybacks on the in-flight reads. Both raise the
        faulted key, both memoize every other key, and each retry reads
        nothing but that key."""
        from repro.core.errors import TransientStoreError
        from repro.core.faults import FaultInjectingStore

        _, f = field_and_data
        backing = MemoryStore()
        store_field(backing, f)
        step_groups = Reconstructor(open_field(backing, "vel")).plan_step(
            1e-4).groups
        level = max(range(len(step_groups)), key=step_groups.__getitem__)
        probe = open_field(backing, "vel")
        victim = probe.levels[level].refs[step_groups[level] - 1].key
        planned = {
            ref.key for lv, n in zip(probe.levels, step_groups)
            for ref in lv.refs[:n]
        }

        armed, in_store, gate = (threading.Event() for _ in range(3))

        class Gated(MemoryStore):
            def settle_many(self, keys):
                if armed.is_set():
                    in_store.set()
                    gate.wait(timeout=5.0)
                return super().settle_many(keys)

        gated = Gated()
        for key in backing.keys():
            gated.put(key, backing.get(key))
        flaky = FaultInjectingStore(gated, fail_first={victim: 1})
        follower_in = threading.Event()

        class Probe(SegmentCache):
            def resolve_settled(self, keys, expected=None):
                if threading.current_thread().name == "follower":
                    follower_in.set()
                return super().resolve_settled(keys, expected)

        cache = Probe(flaky, max_bytes=1 << 20)
        recons = [Reconstructor(open_field(flaky, "vel", cache=cache))
                  for _ in "ab"]
        steps = [r.plan_step(1e-4) for r in recons]
        caught: dict = {}

        def fetch(i):
            try:
                recons[i].fetch_step(steps[i])
            except TransientStoreError as exc:
                caught[i] = exc

        leader = threading.Thread(target=fetch, args=(0,))
        follower = threading.Thread(target=fetch, args=(1,),
                                    name="follower")
        armed.set()
        leader.start()
        assert in_store.wait(timeout=5.0)
        follower.start()
        assert follower_in.wait(timeout=5.0)
        threading.Event().wait(0.05)  # the follower joins the in-flight reads
        armed.clear()
        gate.set()
        leader.join(timeout=10.0)
        follower.join(timeout=10.0)
        assert sorted(caught) == [0, 1]
        assert all(victim in str(exc) for exc in caught.values())
        assert all(flaky.access_count(k) == 1 for k in planned)
        # one index blob plus the arrived keys: read by the leader,
        # piggybacked by the follower
        assert cache.misses == cache.hits == len(planned)
        for recon in recons:
            resolved = {
                lv.refs[g].key for lv in recon.field.levels
                for g in lv.groups.resolved_indices
            }
            assert resolved == planned - {victim}
        reads = flaky.reads
        outs = [r.reconstruct(1e-4) for r in recons]
        assert flaky.reads == reads + 1  # the victim, once, for both
        np.testing.assert_array_equal(outs[0].data, outs[1].data)
