"""Tests for segment stores and the store-backed load path."""

import os
import sys
import threading

import numpy as np
import pytest

from repro.core.errors import finish_batch
from repro.core.refactor import refactor
from repro.core.reconstruct import Reconstructor, reconstruct
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    load_field,
    open_field,
    segment_checksum,
    segment_key,
    open_tiled_field,
    store_field,
    store_tiled_field,
)
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data import generators as gen


@pytest.fixture(scope="module")
def small_field():
    data = gen.gaussian_random_field((12, 12, 12), -2.0, seed=4,
                                     dtype=np.float64)
    return data, refactor(data, name="vel_x")


class TestSegmentKey:
    def test_format(self):
        assert segment_key("rho", 2, 7) == "rho.L2.G7"

    def test_rejects_slash(self):
        with pytest.raises(ValueError):
            segment_key("a/b", 0, 0)


class TestMemoryStore:
    def test_put_get(self):
        s = MemoryStore()
        s.put("k", b"abc")
        assert s.get("k") == b"abc"
        assert "k" in s
        assert s.reads == 1 and s.writes == 1

    def test_missing_key(self):
        with pytest.raises(KeyError):
            MemoryStore().get("nope")

    def test_total_bytes(self):
        s = MemoryStore()
        s.put("a", b"xx")
        s.put("b", b"yyy")
        assert s.total_bytes() == 5
        assert s.size_of("b") == 3


class TestDirectoryStore:
    def test_put_get_roundtrip(self, tmp_path):
        s = DirectoryStore(tmp_path / "store")
        s.put("seg1", b"hello")
        assert s.get("seg1") == b"hello"
        assert s.bytes_read == 5

    def test_manifest_persists(self, tmp_path):
        root = tmp_path / "store"
        s1 = DirectoryStore(root)
        s1.put("seg", b"data")
        s2 = DirectoryStore(root)
        assert s2.keys() == ["seg"]
        assert s2.size_of("seg") == 4
        assert "seg" in s2 and "ghost" not in s2
        assert s2.get("seg") == b"data"

    def test_missing_key(self, tmp_path):
        with pytest.raises(KeyError):
            DirectoryStore(tmp_path / "s").get("ghost")

    def test_root_holds_pack_and_manifest_only(self, small_field, tmp_path):
        _, f = small_field
        root = tmp_path / "store"
        store = DirectoryStore(root)
        store_field(store, f)
        assert sorted(p.name for p in root.iterdir()) == [
            "manifest.json", "segments.pack",
        ]
        assert (root / "segments.pack").stat().st_size == store.total_bytes()

    def test_overwrite_serves_new_blob_and_counts_live_bytes(self, tmp_path):
        root = tmp_path / "store"
        s = DirectoryStore(root)
        s.put("a", b"xx")
        s.put("b", b"yyy")
        s.put("a", b"zzzz")
        for store in (s, DirectoryStore(root)):
            assert store.get("a") == b"zzzz"
            assert store.size_of("a") == 4
            assert store.total_bytes() == 7  # the dead "xx" is not counted
        assert (root / "segments.pack").stat().st_size == 9

    def test_same_instance_reads_its_unflushed_writes(self, tmp_path):
        s = DirectoryStore(tmp_path / "store")
        with s.batch():
            s.put("a", b"first")
            assert s.get("a") == b"first"  # read descriptor opens here
            s.put("b", b"second")
            assert s.get("b") == b"second"
            assert s.manifest_writes == 0

    def test_io_time_estimate(self, tmp_path):
        s = DirectoryStore(tmp_path / "s", file_open_latency_s=1e-3)
        s.put("a", b"x" * 1000)
        s.get("a")
        t = s.io_time_estimate(bandwidth_gbps=1.0)
        assert t == pytest.approx(1e-3 + 1000 / 1e9)

    def test_validates_latency(self, tmp_path):
        with pytest.raises(ValueError):
            DirectoryStore(tmp_path / "s", file_open_latency_s=-1)

    def test_validates_bandwidth(self, tmp_path):
        s = DirectoryStore(tmp_path / "s")
        with pytest.raises(ValueError):
            s.io_time_estimate(bandwidth_gbps=0)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _fds_under(root) -> int:
    """Descriptors this process holds open on files under *root*."""
    held = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed since the listing
        held += target.startswith(f"{root}{os.sep}")
    return held


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors through /proc")
class TestDescriptorLifecycle:
    @pytest.fixture()
    def written(self, small_field, tmp_path):
        _, f = small_field
        root = tmp_path / "store"
        store = DirectoryStore(root)
        store_field(store, f)
        checksums = {ref.key: ref.crc32
                     for lv in open_field(store, f.name).levels
                     for ref in lv.refs}
        store.close()
        return root, checksums

    def test_metadata_only_instance_holds_no_descriptor(self, written):
        root, checksums = written
        before = _open_fds()
        store = DirectoryStore(root)
        key = next(iter(checksums))
        assert key in store and store.size_of(key) > 0
        assert store.keys() and store.total_bytes() > 0
        assert _open_fds() == before
        store.get(key)
        assert _open_fds() == before + 1

    def test_close_is_idempotent_and_use_reopens(self, written):
        root, checksums = written
        before = _open_fds()
        store = DirectoryStore(root)
        key = next(iter(checksums))
        blob = store.get(key)
        store.put("extra", b"tail")
        assert _open_fds() == before + 2  # one reader, one appender
        store.close()
        store.close()
        assert _open_fds() == before
        assert store.get(key) == blob
        assert store.get("extra") == b"tail"
        store.close()
        assert _open_fds() == before

    def test_open_read_drop_cycles_do_not_leak(self, written):
        root, checksums = written
        key = next(iter(checksums))
        before = _open_fds()
        for cycle in range(500):
            store = DirectoryStore(root)
            store.get(key)
            if cycle % 2:
                store.close()
            del store  # the other half rely on collection
        assert _open_fds() == before

    @pytest.mark.parametrize("backend",
                             ["serial", "threads:2", "processes:2"])
    def test_tiled_read_holds_one_descriptor_under_every_backend(
        self, small_field, tmp_path, backend
    ):
        """A tiled read runs in this process under every backend, so all
        its tiles share the store's one read descriptor (no worker opens
        a copy of the store), and closing the store releases it."""
        data, _ = small_field
        root = tmp_path / "tiled"
        tiled = TiledRefactorer((6, 6, 6), backend="serial").refactor(
            data, name="rho")
        writer = DirectoryStore(root)
        store_tiled_field(writer, tiled)
        writer.close()
        ref = TiledReconstructor(tiled)
        store = DirectoryStore(root)
        with TiledReconstructor(open_tiled_field(store, "rho"),
                                num_workers=2, backend=backend) as recon:
            for tol in (1e-2, 1e-4):
                got = recon.reconstruct(tolerance=tol)
                want = ref.reconstruct(tolerance=tol)
                np.testing.assert_array_equal(got.data, want.data)
                assert got.error_bound == want.error_bound
                assert _fds_under(root) == 1
        store.close()
        assert _fds_under(root) == 0

    def test_concurrent_gets_share_one_descriptor(self, written):
        """Eight threads read disjoint keys through one instance (one
        pread descriptor, no seek state): every blob CRC-verifies and
        the counters lose no update."""
        root, checksums = written
        store = DirectoryStore(root)
        keys = sorted(checksums)
        shares = [keys[i::8] for i in range(8)]
        rounds, bad, errors = 20, [], []
        barrier = threading.Barrier(8)

        def reader(share):
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    for key in share:
                        if segment_checksum(store.get(key)) != checksums[key]:
                            bad.append(key)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(share,))
                       for share in shares]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and bad == []
        assert store.reads == rounds * len(keys)
        assert store.bytes_read == rounds * sum(
            store.size_of(k) for k in keys
        )


class TestStoreField:
    def test_store_creates_one_segment_per_group(self, small_field):
        _, f = small_field
        store = MemoryStore()
        store_field(store, f)
        n_groups = sum(lv.num_groups for lv in f.levels)
        assert len(store.keys()) == n_groups + 1  # + index

    def test_load_full_matches_direct(self, small_field):
        data, f = small_field
        store = MemoryStore()
        store_field(store, f)
        loaded = load_field(store, "vel_x")
        r1 = reconstruct(loaded, tolerance=1e-4)
        assert np.max(np.abs(r1.data - data)) <= 1e-4

    def test_small_files_effect(self, small_field, tmp_path):
        """Modeled I/O latency is charged per request, not per segment:
        the same segments cost one latency each when read one ``get`` at
        a time and one latency in total as a batch. The per-request cost
        is the mechanism behind the paper's Fig. 14 end-to-end gap, and
        what a batched read amortises."""
        _, f = small_field
        latency, gbps = 1e-3, 2.0
        store = DirectoryStore(tmp_path / "s", file_open_latency_s=latency)
        store_field(store, f)
        segments = [k for k in store.keys() if k != "vel_x.index"]

        def reset():
            store.reads = store.bytes_read = store.requests = 0

        def transfer_s():
            return store.bytes_read / (gbps * 1e9)

        reset()
        for key in segments:
            store.get(key)
        assert store.requests == store.reads == len(segments)
        t_each = store.io_time_estimate(gbps)
        assert t_each == pytest.approx(len(segments) * latency + transfer_s())
        reset()
        finish_batch(segments, *store.settle_many(segments))
        assert (store.requests, store.reads) == (1, len(segments))
        t_batch = store.io_time_estimate(gbps)
        assert t_batch == pytest.approx(latency + transfer_s())
        assert t_each - t_batch == pytest.approx(
            (len(segments) - 1) * latency
        )
