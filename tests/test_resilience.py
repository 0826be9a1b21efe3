"""Resilient segment I/O: taxonomy, fault injection, retries, recovery.

Covers the fault-tolerance subsystem end to end:

* the typed error taxonomy and its builtin-exception compatibility;
* store error normalization (missing segments, garbled manifests,
  crash-safe manifest flush);
* :class:`~repro.core.faults.FaultInjectingStore` determinism;
* :class:`~repro.core.faults.RetryPolicy` backoff/deadline/timeout;
* :class:`~repro.core.faults.ResilientReader` retry + verification;
* per-segment CRC32 recording and verify-on-fetch (direct and through
  the service :class:`~repro.core.service.SegmentCache`);
* corrupt persisted state (truncated indexes and segments);
* degraded-mode progressive retrieval (``on_fault="degrade"``) and
  resume, for both plain and tiled sessions.
"""

import json
import os
import re
import struct
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.backends import BACKEND_ENV
from repro.core.errors import (
    RETRYABLE_ERRORS,
    SegmentCorruptionError,
    SegmentNotFoundError,
    StoreError,
    TransientStoreError,
    finish_batch,
)
from repro.core.faults import (
    MAX_DELAY_S,
    FaultInjectingStore,
    ResilientReader,
    RetryPolicy,
)
from repro.core.refactor import refactor
from repro.core.reconstruct import Reconstructor
from repro.core.service import RetrievalService, SegmentCache
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    _read_index,
    load_field,
    open_field,
    open_tiled_field,
    segment_checksum,
    store_field,
    store_tiled_field,
)
from repro.core.stream import parse_group
from repro.core.tiling import (
    TiledReconstructionResult,
    TiledReconstructor,
    TiledRefactorer,
)
from repro.data import generators as gen


def _noop_sleep(_):
    pass


def fast_policy(**kw):
    """A retry policy that never actually sleeps (for tests)."""
    kw.setdefault("max_attempts", 6)
    kw.setdefault("base_delay_s", 0.0)
    kw.setdefault("jitter", 0.0)
    kw.setdefault("sleep", _noop_sleep)
    return RetryPolicy(**kw)


@pytest.fixture(scope="module")
def field():
    data = gen.gaussian_random_field((16, 16, 8), -2.0, seed=3,
                                     dtype=np.float64)
    return data, refactor(data, name="vx")


@pytest.fixture()
def stored(field):
    _, f = field
    store = MemoryStore()
    store_field(store, f)
    return store


class TestTaxonomy:
    def test_not_found_is_keyerror(self):
        assert issubclass(SegmentNotFoundError, KeyError)
        assert issubclass(SegmentNotFoundError, StoreError)

    def test_corruption_is_valueerror(self):
        assert issubclass(SegmentCorruptionError, ValueError)
        assert issubclass(SegmentCorruptionError, StoreError)

    def test_transient_is_store_error(self):
        assert issubclass(TransientStoreError, StoreError)
        assert not issubclass(TransientStoreError, KeyError)

    def test_retryable_classification(self):
        assert TransientStoreError in RETRYABLE_ERRORS
        assert SegmentCorruptionError in RETRYABLE_ERRORS
        assert TimeoutError in RETRYABLE_ERRORS
        assert SegmentNotFoundError not in RETRYABLE_ERRORS


class TestStoreErrorNormalization:
    def test_memory_get_missing(self):
        store = MemoryStore()
        with pytest.raises(SegmentNotFoundError):
            store.get("ghost")
        with pytest.raises(KeyError):  # backward compatible
            store.get("ghost")

    def test_memory_size_of_missing(self):
        with pytest.raises(SegmentNotFoundError):
            MemoryStore().size_of("ghost")

    def test_directory_get_missing(self, tmp_path):
        store = DirectoryStore(tmp_path / "s")
        with pytest.raises(SegmentNotFoundError):
            store.get("ghost")

    def test_directory_size_of_missing(self, tmp_path):
        with pytest.raises(SegmentNotFoundError):
            DirectoryStore(tmp_path / "s").size_of("ghost")

    def test_directory_pack_deleted_behind_manifest(self, tmp_path):
        DirectoryStore(tmp_path / "s").put("seg", b"payload")
        (tmp_path / "s" / "segments.pack").unlink()
        store = DirectoryStore(tmp_path / "s")
        assert "seg" in store  # the manifest still lists it
        with pytest.raises(SegmentNotFoundError, match="seg"):
            store.get("seg")
        assert store.reads == 0

    def test_directory_pack_truncated_behind_manifest(self, tmp_path):
        """A pack that ends inside (or before) a recorded range is
        corruption naming the key — never short bytes for the CRC."""
        store = DirectoryStore(tmp_path / "s")
        store.put("head", b"0123456789")
        store.put("tail", b"abcdefghij")
        with open(tmp_path / "s" / "segments.pack", "r+b") as pack:
            pack.truncate(14)  # mid-"tail"
        for reader in (store, DirectoryStore(tmp_path / "s")):
            assert reader.get("head") == b"0123456789"
            with pytest.raises(SegmentCorruptionError, match="'tail'"):
                reader.get("tail")
            assert reader.bytes_read == 10  # the short read is not charged
        with open(tmp_path / "s" / "segments.pack", "r+b") as pack:
            pack.truncate(5)  # "tail" now starts past EOF
        with pytest.raises(SegmentCorruptionError, match="'tail'"):
            store.get("tail")

    def test_directory_os_error_is_transient(self, tmp_path, monkeypatch):
        import repro.core.store as store_mod

        store = DirectoryStore(tmp_path / "s")
        store.put("seg", b"payload")

        def flaky_pread(fd, length, offset):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(store_mod.os, "pread", flaky_pread)
        with pytest.raises(TransientStoreError, match="seg"):
            store.get("seg")
        monkeypatch.undo()
        assert store.get("seg") == b"payload"


class TestManifestRobustness:
    def test_garbled_manifest_raises_typed_error(self, tmp_path):
        root = tmp_path / "s"
        DirectoryStore(root).put("seg", b"x")
        (root / "manifest.json").write_text("{not json!!")
        with pytest.raises(SegmentCorruptionError):
            DirectoryStore(root)

    def test_non_dict_manifest_raises_typed_error(self, tmp_path):
        root = tmp_path / "s"
        DirectoryStore(root).put("seg", b"x")
        (root / "manifest.json").write_text("[1, 2, 3]")
        with pytest.raises(SegmentCorruptionError):
            DirectoryStore(root)

    @pytest.mark.parametrize("entry", [
        "x", 7, None, [0], [0, 1, 2], [-1, 4], [0, -4], [0.0, 4],
        [0, "4"], [True, 4], {"offset": 0, "length": 4},
    ])
    def test_malformed_entry_raises_typed_error(self, tmp_path, entry):
        """Every entry must be [offset >= 0, length >= 0] integers at
        load — not a TypeError out of total_bytes() much later."""
        root = tmp_path / "s"
        DirectoryStore(root).put("seg", b"data")
        (root / "manifest.json").write_text(json.dumps(
            {"format": 2, "segments": {"seg": [0, 4], "bad": entry}}
        ))
        with pytest.raises(SegmentCorruptionError, match="bad"):
            DirectoryStore(root)

    @pytest.mark.parametrize("table", [None, [], "abc", 3])
    def test_malformed_segment_table_raises_typed_error(
        self, tmp_path, table
    ):
        root = tmp_path / "s"
        root.mkdir()
        manifest = {"format": 2}
        if table is not None:
            manifest["segments"] = table
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SegmentCorruptionError):
            DirectoryStore(root)

    def test_flush_is_atomic_replace(self, tmp_path, monkeypatch):
        """A crash mid-flush must leave the previous manifest intact."""
        root = tmp_path / "s"
        store = DirectoryStore(root)
        store.put("a", b"one")

        import repro.core.store as store_mod

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(store_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.put("b", b"two")
        monkeypatch.undo()

        # The old manifest survived, no temp litter, and a fresh open
        # sees consistent (pre-crash) state.
        leftovers = [p for p in root.iterdir()
                     if p.name.startswith("manifest.json.")]
        assert leftovers == []
        reopened = DirectoryStore(root)
        assert reopened.keys() == ["a"]
        assert reopened.get("a") == b"one"

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_index_is_as_readable_as_the_pack(self, tmp_path, umask, mode):
        """The manifest's temp file must be created under the umask like
        the pack: a 0600 index beside a 0644 pack is a store whose blobs
        everyone can read and nobody but the writer can open."""
        root = tmp_path / "s"
        previous = os.umask(umask)
        try:
            store = DirectoryStore(root)
            store.put("a", b"one")
            with store.batch():  # a second flush replaces the first index
                store.put("b", b"two")
        finally:
            os.umask(previous)
        assert {p.name: p.stat().st_mode & 0o777 for p in root.iterdir()} == {
            "segments.pack": mode, "manifest.json": mode,
        }
        assert DirectoryStore(root).keys() == ["a", "b"]


CRASHING_WRITER = """
import os, sys
import numpy as np
from repro.core.refactor import refactor
from repro.core.store import DirectoryStore, store_field

rng = np.random.default_rng(5)
a, b = (rng.standard_normal((12, 10, 8)).cumsum(axis=0) for _ in "ab")
store = DirectoryStore(sys.argv[1])
store_field(store, refactor(a, name="A"))  # one batch: synced, published
with store.batch():
    store_field(store, refactor(b, name="B"))  # appended, not published
    os._exit(17)  # crash before the manifest flush (no cleanup runs)
"""


class TestCrashConsistency:
    def test_crash_between_append_and_manifest_flush(self, tmp_path):
        """append → fsync → publish: a writer killed after field B's
        appends but before its manifest flush leaves a store that opens
        at field A's manifest, ignores the orphan tail, and takes a
        later write of B after it."""
        root = tmp_path / "s"
        env = dict(os.environ)
        # No worker pool in the writer: os._exit would orphan it, and
        # the orphans would hold this test's capture pipes open.
        env.pop(BACKEND_ENV, None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", CRASHING_WRITER, str(root)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 17, done.stderr

        rng = np.random.default_rng(5)  # the writer's two fields
        a, b = (rng.standard_normal((12, 10, 8)).cumsum(axis=0) for _ in "ab")
        expect = MemoryStore()
        store_field(expect, refactor(a, name="A"))
        refs_a = [ref for lv in open_field(expect, "A").levels
                  for ref in lv.refs]

        store = DirectoryStore(root)
        assert store.keys() == expect.keys()  # exactly A, nothing of B
        assert store.total_bytes() == expect.total_bytes()
        assert len(refs_a) == len(store.keys()) - 1  # every segment of A
        for ref in refs_a:
            assert segment_checksum(store.get(ref.key)) == ref.crc32
        assert store.get("A.index") == expect.get("A.index")
        orphan_end = (root / "segments.pack").stat().st_size
        assert orphan_end > store.total_bytes()  # B's tail is on disk

        store_field(store, refactor(b, name="B"))
        reopened = DirectoryStore(root)
        table = json.loads((root / "manifest.json").read_text())["segments"]
        assert min(
            off for key, (off, _) in table.items() if key.startswith("B.")
        ) >= orphan_end
        for name, data in (("A", a), ("B", b)):
            got = Reconstructor(load_field(reopened, name)).reconstruct(
                tolerance=1e-6
            )
            want = Reconstructor(refactor(data, name=name)).reconstruct(
                tolerance=1e-6
            )
            np.testing.assert_array_equal(got.data, want.data)


class TestFaultInjectingStore:
    def _base(self, **kw):
        inner = MemoryStore()
        inner.put("k", b"hello world")
        inner.put("j", b"other bytes")
        return inner, FaultInjectingStore(inner, sleep=_noop_sleep, **kw)

    def test_validates_rates(self):
        inner = MemoryStore()
        with pytest.raises(ValueError):
            FaultInjectingStore(inner, transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjectingStore(inner, corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            FaultInjectingStore(inner, latency_s=-1.0)

    def test_transparent_at_zero_rates(self):
        _, flaky = self._base(seed=1)
        assert flaky.get("k") == b"hello world"
        assert flaky.reads == 1
        assert flaky.injected_transients == 0

    def test_fail_first_schedule(self):
        _, flaky = self._base(fail_first=2)
        for _ in range(2):
            with pytest.raises(TransientStoreError):
                flaky.get("k")
        assert flaky.get("k") == b"hello world"
        assert flaky.injected_transients == 2
        assert flaky.access_count("k") == 3

    def test_fail_first_per_key_mapping(self):
        _, flaky = self._base(fail_first={"k": 1})
        with pytest.raises(TransientStoreError):
            flaky.get("k")
        assert flaky.get("k") == b"hello world"
        assert flaky.get("j") == b"other bytes"  # unlisted key unaffected

    def test_transient_rate_one_always_fails(self):
        _, flaky = self._base(transient_rate=1.0)
        for _ in range(5):
            with pytest.raises(TransientStoreError):
                flaky.get("k")
        assert flaky.injected_transients == 5

    def test_outage_toggle_mid_run(self):
        _, flaky = self._base()
        assert flaky.get("k") == b"hello world"
        flaky.transient_rate = 1.0
        with pytest.raises(TransientStoreError):
            flaky.get("k")
        flaky.transient_rate = 0.0
        assert flaky.get("k") == b"hello world"

    def test_corruption_flips_exactly_one_bit(self):
        _, flaky = self._base(corrupt_rate=1.0, seed=7)
        blob = flaky.get("k")
        clean = b"hello world"
        assert blob != clean
        diff = int.from_bytes(blob, "big") ^ int.from_bytes(clean, "big")
        assert bin(diff).count("1") == 1
        assert flaky.injected_corruptions == 1

    def test_schedule_is_deterministic(self):
        """Same seed + same per-key access sequence => same faults."""

        def run(seed):
            inner = MemoryStore()
            inner.put("k", b"hello world")
            flaky = FaultInjectingStore(
                inner, seed=seed, transient_rate=0.4, corrupt_rate=0.3,
                sleep=_noop_sleep,
            )
            trace = []
            for _ in range(40):
                try:
                    trace.append(("ok", flaky.get("k")))
                except TransientStoreError:
                    trace.append(("transient", None))
            return trace

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_latency_accounting(self):
        slept = []
        inner = MemoryStore()
        inner.put("k", b"x")
        flaky = FaultInjectingStore(inner, latency_s=0.25,
                                    sleep=slept.append)
        flaky.get("k")
        flaky.get("k")
        assert slept == [0.25, 0.25]
        assert flaky.injected_latency_s == pytest.approx(0.5)

    def test_delegates_reader_surface(self):
        inner, flaky = self._base()
        flaky.put("new", b"written through")
        assert inner.get("new") == b"written through"
        assert "new" in flaky
        assert flaky.size_of("k") == len(b"hello world")
        assert set(flaky.keys()) == {"k", "j", "new"}


class TestRetryPolicy:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=0)

    def test_exponential_backoff_capped_at_max_delay(self):
        assert MAX_DELAY_S == 2.0
        p = RetryPolicy(base_delay_s=0.5, jitter=0.0)
        assert [p.delay_for(k) for k in (1, 2, 3, 4, 5)] == pytest.approx(
            [0.5, 1.0, 2.0, 2.0, 2.0]
        )

    def test_jitter_is_bounded_and_seeded(self):
        a = RetryPolicy(base_delay_s=0.01, jitter=0.5, seed=3)
        b = RetryPolicy(base_delay_s=0.01, jitter=0.5, seed=3)
        da = [a.delay_for(1) for _ in range(20)]
        db = [b.delay_for(1) for _ in range(20)]
        assert da == db  # same seed backs off identically
        assert all(0.01 <= d <= 0.015 + 1e-12 for d in da)

    def test_retries_transient_then_succeeds(self):
        p = fast_policy(max_attempts=5)
        calls = {"n": 0}

        def flaky(keys):
            calls["n"] += 1
            if calls["n"] < 3:
                return {}, dict.fromkeys(keys, TransientStoreError("boom"))
            return dict.fromkeys(keys, "ok"), {}

        assert p.run_many(flaky, ["k"]) == ({"k": "ok"}, {})
        assert p.attempts == 3
        assert p.retries == 2
        assert p.giveups == 0

    def test_non_retryable_settles_immediately(self):
        p = fast_policy()

        def missing(keys):
            return {}, dict.fromkeys(keys, SegmentNotFoundError("gone"))

        values, errors = p.run_many(missing, ["k"])
        assert values == {} and isinstance(errors["k"], SegmentNotFoundError)
        assert p.attempts == 1 and p.retries == 0

    def test_exhaustion_settles_last_error(self):
        p = fast_policy(max_attempts=3)

        def always(keys):
            return {}, dict.fromkeys(keys, TransientStoreError("still down"))

        values, errors = p.run_many(always, ["k"])
        assert values == {} and isinstance(errors["k"], TransientStoreError)
        assert p.attempts == 3
        assert p.giveups == 1

    def test_deadline_stops_before_sleeping_past_it(self):
        now = {"t": 0.0}
        slept = []

        def clock():
            return now["t"]

        def sleep(d):
            slept.append(d)
            now["t"] += d

        p = RetryPolicy(max_attempts=100, base_delay_s=1.0, jitter=0.0,
                        deadline_s=3.5, sleep=sleep, clock=clock)

        def always(keys):
            return {}, dict.fromkeys(keys, TransientStoreError("down"))

        _, errors = p.run_many(always, ["k"])
        assert isinstance(errors["k"], TransientStoreError)
        # 1s then 2s fit the 3.5s budget; the next 2s (capped) would not.
        assert slept == [1.0, 2.0]
        assert p.giveups == 1

    def test_attempt_timeout_classified_transient_and_retried(self):
        release = threading.Event()
        calls = {"n": 0}

        def slow_then_fast(keys):
            calls["n"] += 1
            if calls["n"] == 1:
                release.wait(5.0)  # hangs well past the attempt timeout
            return dict.fromkeys(keys, "ok"), {}

        p = fast_policy(max_attempts=3, attempt_timeout_s=0.05)
        try:
            assert p.run_many(slow_then_fast, ["k"]) == ({"k": "ok"}, {})
            assert p.attempts == 2
            assert p.retries == 1
        finally:
            release.set()  # unblock the abandoned daemon thread

    def test_stats_snapshot(self):
        p = fast_policy()
        p.run_many(lambda keys: (dict.fromkeys(keys, "ok"), {}), ["k"])
        assert p.stats() == {"attempts": 1, "retries": 0, "giveups": 0}


class TestResilientReader:
    def test_rides_through_transients(self):
        inner = MemoryStore()
        inner.put("k", b"payload")
        flaky = FaultInjectingStore(inner, fail_first=2, sleep=_noop_sleep)
        reader = ResilientReader(flaky, fast_policy(max_attempts=4))
        assert reader.get("k") == b"payload"
        assert reader.policy.attempts == 3
        assert reader.policy.retries == 2

    def test_missing_key_not_retried(self):
        reader = ResilientReader(MemoryStore(), fast_policy())
        with pytest.raises(SegmentNotFoundError):
            reader.get("ghost")
        assert reader.policy.attempts == 1

    def test_checksum_mismatch_heals_on_refetch(self):
        clean = b"payload bytes"

        class FlipOnce:
            def __init__(self):
                self.reads = 0

            def get(self, key):
                self.reads += 1
                if self.reads == 1:
                    return b"\x00" + clean[1:]  # wire flip, first read only
                return clean

        reader = ResilientReader(
            FlipOnce(), fast_policy(),
            checksums={"k": segment_checksum(clean)},
        )
        assert reader.get("k") == clean
        assert reader.policy.retries == 1

    def test_persistent_corruption_raises_after_retries(self):
        inner = MemoryStore()
        inner.put("k", b"garbage that never matches")
        reader = ResilientReader(
            inner, fast_policy(max_attempts=3),
            checksums={"k": segment_checksum(b"what was written")},
        )
        with pytest.raises(SegmentCorruptionError):
            reader.get("k")
        assert reader.policy.attempts == 3

    def test_register_checksums_after_construction(self):
        inner = MemoryStore()
        inner.put("k", b"data")
        reader = ResilientReader(inner, fast_policy(max_attempts=2))
        assert reader.get("k") == b"data"  # unverified until registered
        reader.register_checksums({"k": segment_checksum(b"different")})
        with pytest.raises(SegmentCorruptionError):
            reader.get("k")

    def test_delegates_reader_surface(self):
        inner = MemoryStore()
        inner.put("k", b"data")
        reader = ResilientReader(inner, fast_policy())
        assert reader.size_of("k") == 4
        assert reader.keys() == ["k"]
        assert "k" in reader
        reader.put("j", b"through")  # writes pass through
        assert inner.get("j") == b"through"


class TestChecksumRecording:
    def test_store_field_records_crc32(self, field, stored):
        _, level_refs = _read_index(stored.get("vx.index"), "vx.index")
        refs = [ref for refs in level_refs for ref in refs]
        assert len(refs) == sum(lv.num_groups for lv in field[1].levels), \
            "index must carry a segment table"
        for ref in refs:
            assert ref.crc32 == segment_checksum(stored.get(ref.key))

    def test_refs_carry_stored_crc32(self, stored):
        refs = [r for lv in open_field(stored, "vx").levels for r in lv.refs]
        assert refs
        for ref in refs:
            assert ref.crc32 == segment_checksum(stored.get(ref.key))


def _corrupt_one_segment(store, name="vx"):
    """Flip a bit of one payload segment in-place; return its key."""
    key = next(k for k in store.keys() if ".index" not in k)
    blob = bytearray(store._blobs[key])
    blob[len(blob) // 2] ^= 0x10
    store._blobs[key] = bytes(blob)
    return key


class TestVerifiedLoadAndOpen:
    def test_load_field_detects_persistent_corruption(self, field, stored):
        _corrupt_one_segment(stored)
        with pytest.raises(SegmentCorruptionError):
            load_field(stored, "vx")

    def test_open_field_heals_one_time_flip(self, field, stored):
        data, f = field

        class FlipFirstRead:
            """Corrupt each key's first read only (wire flip)."""

            def __init__(self, inner):
                self._inner = inner
                self._seen = set()

            def get(self, key):
                blob = self._inner.get(key)
                if key not in self._seen and ".index" not in key:
                    self._seen.add(key)
                    return bytes([blob[0] ^ 0x01]) + blob[1:]
                return blob

            def __getattr__(self, name):
                return getattr(self._inner, name)

        lazy = open_field(FlipFirstRead(stored), "vx")
        result = Reconstructor(lazy).reconstruct(tolerance=1e-6)
        clean = Reconstructor(f).reconstruct(tolerance=1e-6)
        np.testing.assert_array_equal(result.data, clean.data)

    def test_open_field_raises_on_persistent_corruption(self, field, stored):
        _corrupt_one_segment(stored)
        lazy = open_field(stored, "vx")
        with pytest.raises(SegmentCorruptionError):
            Reconstructor(lazy).reconstruct(tolerance=None)


class TestSegmentCacheIntegrity:
    def test_cache_verifies_cold_fetch(self, field, stored):
        _corrupt_one_segment(stored)
        cache = SegmentCache(stored, max_bytes=1 << 20)
        lazy = open_field(stored, "vx", cache=cache)
        with pytest.raises(SegmentCorruptionError):
            Reconstructor(lazy).reconstruct(tolerance=None)
        assert cache.corruption_refetches >= 1
        assert cache.corruption_failures >= 1
        assert cache.stats()["corruption_failures"] >= 1

    def test_cache_heals_one_time_flip(self, field, stored):
        data, f = field

        class FlipFirstRead:
            def __init__(self, inner):
                self._inner = inner
                self._seen = set()

            def get(self, key):
                blob = self._inner.get(key)
                if key not in self._seen and ".index" not in key:
                    self._seen.add(key)
                    return bytes([blob[0] ^ 0x01]) + blob[1:]
                return blob

            def __getattr__(self, name):
                return getattr(self._inner, name)

        cache = SegmentCache(FlipFirstRead(stored), max_bytes=1 << 20)
        lazy = open_field(stored, "vx", cache=cache)
        result = Reconstructor(lazy).reconstruct(tolerance=1e-6)
        clean = Reconstructor(f).reconstruct(tolerance=1e-6)
        np.testing.assert_array_equal(result.data, clean.data)
        assert cache.corruption_refetches >= 1
        assert cache.corruption_failures == 0

    def test_concurrent_resolve_reads_store_once(self):
        """In-flight dedup: N racing misses on one key, one store read."""
        gate = threading.Event()

        class SlowStore:
            def __init__(self):
                self.reads = 0
                self._lock = threading.Lock()

            def get(self, key):
                with self._lock:
                    self.reads += 1
                gate.wait(5.0)  # hold every would-be reader at the gate
                return b"shared blob"

        store = SlowStore()
        cache = SegmentCache(store, max_bytes=1 << 20)
        results = []
        errors = []

        def worker():
            try:
                results.append(cache.get("k"))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(10.0)
        assert not errors
        assert results == [b"shared blob"] * 8
        assert store.reads == 1
        assert cache.misses == 1 and cache.hits == 7

    def test_verified_concurrent_resolve_single_read(self):
        """Checksum verification must not break the dedup guarantee."""
        blob = b"verified shared blob"

        class CountingStore:
            def __init__(self):
                self.reads = 0
                self._lock = threading.Lock()

            def get(self, key):
                with self._lock:
                    self.reads += 1
                return blob

        store = CountingStore()
        cache = SegmentCache(store, max_bytes=1 << 20)
        expected = {"k": segment_checksum(blob)}

        def read():
            values, _ = cache.resolve_settled(["k"], expected)
            results.append(values["k"][0])

        results = []
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert results == [blob] * 8
        assert store.reads == 1

    def test_mismatched_expected_crc_refetches_once_then_fails(self):
        store = MemoryStore()
        store.put("k", b"stored bytes")
        cache = SegmentCache(store, max_bytes=1 << 20)
        expected = {"k": segment_checksum(b"written bytes")}
        values, errors = cache.resolve_settled(["k"], expected)
        assert values == {}
        assert isinstance(errors["k"], SegmentCorruptionError)
        assert "'k'" in str(errors["k"])
        assert store.reads == 2  # the read and one re-fetch
        assert (cache.corruption_refetches,
                cache.corruption_failures) == (1, 1)
        assert "k" not in cache and cache.current_bytes == 0
        _, errors = cache.resolve_settled(["k"], expected)
        assert isinstance(errors["k"], SegmentCorruptionError)
        assert store.reads == 4  # nothing was cached: read cold again

    def test_closed_sessions_leave_no_per_field_state(self):
        """Opening many fields registers nothing in the shared cache:
        once the sessions close and the cache is cleared, every
        container it holds is empty."""
        rng = np.random.default_rng(11)
        store = MemoryStore()
        names = [f"f{i}" for i in range(6)]
        for name in names:
            store_field(store, refactor(rng.standard_normal((8, 8, 6)),
                                        name=name))
        with RetrievalService(store) as svc:
            for name in names:
                with svc.session(name) as session:
                    session.reconstruct(tolerance=1e-2, relative=True)
            svc.cache.clear()
            held = {attr: value for attr, value in vars(svc.cache).items()
                    if isinstance(value, (dict, set, list))}
            assert held and not any(held.values()), held


class TestCorruptPersistedState:
    def test_missing_index_is_not_found(self):
        with pytest.raises(SegmentNotFoundError):
            open_field(MemoryStore(), "nope")

    def test_truncated_index_is_typed(self, stored):
        raw = stored.get("vx.index")
        stored.put("vx.index", raw[: len(raw) // 2])
        with pytest.raises(SegmentCorruptionError):
            open_field(stored, "vx")

    def test_non_json_index_is_typed(self, stored):
        stored.put("vx.index", b"\x00\x01\x02 not json")
        with pytest.raises(SegmentCorruptionError):
            load_field(stored, "vx")

    def test_non_dict_index_is_typed(self, stored):
        stored.put("vx.index", json.dumps([1, 2]).encode())
        with pytest.raises(SegmentCorruptionError):
            open_field(stored, "vx")

    def test_truncated_segment_is_typed_not_struct_error(self, field,
                                                         stored):
        key = next(k for k in stored.keys() if ".index" not in k)
        stored.put(key, stored.get(key)[:3])
        with pytest.raises(SegmentCorruptionError):
            load_field(stored, "vx")
        # Below the CRC check, the parse layer types a short blob too
        # instead of leaking struct.error/IndexError from the codec.
        with pytest.raises(SegmentCorruptionError, match=re.escape(key)):
            parse_group(key, stored.get(key))

    def test_truncated_segment_lazy_path_is_typed(self, field, stored):
        key = next(k for k in stored.keys() if ".index" not in k)
        stored.put(key, stored.get(key)[:3])
        lazy = open_field(stored, "vx")
        with pytest.raises(SegmentCorruptionError) as lazy_exc:
            Reconstructor(lazy).reconstruct(tolerance=None)
        # One check: the eager open of the same segment says the same.
        with pytest.raises(SegmentCorruptionError) as eager_exc:
            load_field(stored, "vx")
        assert type(eager_exc.value) is type(lazy_exc.value)
        assert str(eager_exc.value) == str(lazy_exc.value)
        assert key in str(lazy_exc.value)

    def test_truncated_tiled_index_is_typed(self, field):
        data, _ = field
        store = MemoryStore()
        tiled = TiledRefactorer((12, 12, 8)).refactor(data, name="rho")
        store_tiled_field(store, tiled)
        raw = store.get("rho.tiles")
        store.put("rho.tiles", raw[: len(raw) // 3])
        with pytest.raises(SegmentCorruptionError):
            open_tiled_field(store, "rho")


class TestDegradedReconstruction:
    def test_on_fault_validated(self, field, stored):
        lazy = open_field(stored, "vx")
        with pytest.raises(ValueError):
            Reconstructor(lazy).reconstruct(tolerance=1e-2,
                                            on_fault="ignore")

    def test_raise_is_default(self, field, stored):
        flaky = FaultInjectingStore(stored, sleep=_noop_sleep)
        lazy = open_field(flaky, "vx")
        flaky.transient_rate = 1.0
        with pytest.raises(TransientStoreError):
            Reconstructor(lazy).reconstruct(tolerance=1e-2)

    def test_degrade_returns_last_committed_then_resumes(self, field,
                                                         stored):
        data, f = field
        clean = Reconstructor(f)
        step1_ref = clean.reconstruct(tolerance=1e-1)
        step2_ref = clean.reconstruct(tolerance=1e-4)

        flaky = FaultInjectingStore(stored, sleep=_noop_sleep)
        lazy = open_field(flaky, "vx")
        recon = Reconstructor(lazy)
        step1 = recon.reconstruct(tolerance=1e-1)
        np.testing.assert_array_equal(step1.data, step1_ref.data)

        flaky.transient_rate = 1.0  # outage
        degraded = recon.reconstruct(tolerance=1e-4, on_fault="degrade")
        assert degraded.degraded is True
        assert degraded.failed_groups is not None
        np.testing.assert_array_equal(degraded.data, step1.data)

        flaky.transient_rate = 0.0  # store recovers
        resumed = recon.reconstruct(tolerance=1e-4)
        assert resumed.degraded is False
        np.testing.assert_array_equal(resumed.data, step2_ref.data)

    def test_degrade_with_nothing_committed(self, field, stored):
        """An outage before any step: degrade yields the coarsest
        possible answer (no groups) instead of raising."""
        flaky = FaultInjectingStore(stored, sleep=_noop_sleep)
        lazy = open_field(flaky, "vx")
        flaky.transient_rate = 1.0  # outage right after open
        result = Reconstructor(lazy).reconstruct(tolerance=1e-3,
                                                 on_fault="degrade")
        assert result.degraded is True
        assert result.data.shape == lazy.shape

    def test_service_session_forwards_on_fault(self, field, stored):
        service = RetrievalService(stored)
        session = service.session("vx")
        step1 = session.reconstruct(tolerance=1e-1)
        assert step1.degraded is False

        # cache has step-1 segments; fail everything else
        broken = FaultInjectingStore(stored, transient_rate=1.0,
                                     sleep=_noop_sleep)
        service.cache._reader = broken
        degraded = session.reconstruct(tolerance=1e-5, on_fault="degrade")
        assert degraded.degraded is True
        np.testing.assert_array_equal(degraded.data, step1.data)

        service.cache._reader = stored  # recovery
        resumed = session.reconstruct(tolerance=1e-5)
        assert resumed.degraded is False
        ref = Reconstructor(field[1]).reconstruct(tolerance=1e-5)
        np.testing.assert_array_equal(resumed.data, ref.data)


class TestTiledDegradedReconstruction:
    @pytest.fixture()
    def tiled_store(self, field):
        data, _ = field
        store = MemoryStore()
        tiled = TiledRefactorer((8, 8, 8)).refactor(data, name="rho")
        store_tiled_field(store, tiled)
        return data, tiled, store

    def test_result_type_unpacks_like_tuple(self):
        arr = np.zeros((2, 2))
        res = TiledReconstructionResult(arr, 0.5, degraded=True,
                                        failed_tiles=[3, 1],
                                        failed_groups={1: None})
        out, bound = res
        assert out is arr and bound == 0.5
        assert res.data is arr and res.error_bound == 0.5
        assert res[0] is arr and res[1] == 0.5
        assert res.degraded is True
        assert res.failed_tiles == [1, 3]
        assert res.failed_groups == {1: None}
        assert isinstance(res, tuple)

    def test_clean_result_not_degraded(self, tiled_store):
        _, tiled, _ = tiled_store
        res = TiledReconstructor(tiled).reconstruct(tolerance=1e-2)
        assert isinstance(res, TiledReconstructionResult)
        assert res.degraded is False and res.failed_tiles == []

    def test_on_fault_validated(self, tiled_store):
        _, tiled, _ = tiled_store
        with pytest.raises(ValueError):
            TiledReconstructor(tiled).reconstruct(tolerance=1e-2,
                                                  on_fault="never")

    def test_unopened_tiles_degrade_to_zeros(self, tiled_store):
        _, _, store = tiled_store
        flaky = FaultInjectingStore(store, sleep=_noop_sleep)
        lazy = open_tiled_field(flaky, "rho")
        recon = TiledReconstructor(lazy)
        flaky.transient_rate = 1.0  # outage before any tile opened
        res = recon.reconstruct(tolerance=1e-2, on_fault="degrade")
        assert res.degraded is True
        assert res.error_bound == np.inf
        assert set(res.failed_tiles) == set(range(lazy.num_tiles))
        assert all(g is None for g in res.failed_groups.values())
        np.testing.assert_array_equal(res.data, np.zeros_like(res.data))

    def test_degrade_then_resume_bit_identical(self, tiled_store):
        data, tiled, store = tiled_store
        ref = TiledReconstructor(tiled)
        ref1 = ref.reconstruct(tolerance=1e-1)
        ref2 = ref.reconstruct(tolerance=1e-4)

        flaky = FaultInjectingStore(store, sleep=_noop_sleep)
        lazy = open_tiled_field(flaky, "rho")
        recon = TiledReconstructor(lazy)
        step1 = recon.reconstruct(tolerance=1e-1)
        np.testing.assert_array_equal(step1.data, ref1.data)

        flaky.transient_rate = 1.0
        degraded = recon.reconstruct(tolerance=1e-4, on_fault="degrade")
        assert degraded.degraded is True
        assert degraded.failed_tiles  # every touched tile fell back
        np.testing.assert_array_equal(degraded.data, step1.data)

        flaky.transient_rate = 0.0
        resumed = recon.reconstruct(tolerance=1e-4)
        assert resumed.degraded is False
        np.testing.assert_array_equal(resumed.data, ref2.data)

    def test_tiled_session_forwards_on_fault(self, tiled_store):
        data, tiled, store = tiled_store
        service = RetrievalService(store)
        session = service.session("rho")
        out1, _ = session.reconstruct(tolerance=1e-1)

        broken = FaultInjectingStore(store, transient_rate=1.0,
                                     sleep=_noop_sleep)
        service.cache._reader = broken
        degraded = session.reconstruct(tolerance=1e-5, on_fault="degrade")
        assert degraded.degraded is True
        np.testing.assert_array_equal(degraded.data, out1)

        service.cache._reader = store
        resumed = session.reconstruct(tolerance=1e-5)
        assert resumed.degraded is False
        ref = TiledReconstructor(tiled)
        ref.reconstruct(tolerance=1e-1)
        ref = ref.reconstruct(tolerance=1e-5)
        np.testing.assert_array_equal(resumed.data, ref.data)


class _LoggingStore(MemoryStore):
    """Logs every request: ``get`` as a key, a batch as a list."""

    def __init__(self):
        super().__init__()
        self.log: list = []

    def get(self, key):
        self.log.append(key)
        return super().get(key)

    def settle_many(self, keys):
        self.log.append(list(keys))
        values = {k: self._blobs[k] for k in keys if k in self._blobs}
        return values, {
            k: SegmentNotFoundError(k) for k in keys if k not in values
        }


def _outcomes(values, errors):
    """``{key: outcome}`` of one read: the blob's CRC, or the error type."""
    return {
        **{k: zlib.crc32(v) for k, v in values.items()},
        **{k: type(e).__name__ for k, e in errors.items()},
    }


def _outcome_one(get, key):
    try:
        return zlib.crc32(get(key))
    except (TransientStoreError, SegmentCorruptionError) as exc:
        return type(exc).__name__


def _read_batch(reader, keys):
    """The blobs of *keys* in key order from one ``settle_many``, raising
    the first failed key's error."""
    return finish_batch(keys, *reader.settle_many(keys))


class TestBatchedReads:
    """``settle_many``: one request per call, the per-key ``get``
    semantics for every key in it, through every reader layer."""

    KEYS = [f"k{i}" for i in range(8)]

    def _inner(self):
        inner = _LoggingStore()
        for i, key in enumerate(self.KEYS):
            inner.put(key, bytes([i]) * (10 + i))
        return inner

    def test_every_wrapper_defines_its_own_settle_many(self, stored):
        """``__getattr__`` forwarding would hand a batch straight to the
        wrapped reader, skipping latency, fault draws, CRC checks and
        retries: each library wrapper must define its batched read
        (``settle_many``; the cache's ``resolve_settled``) itself."""
        flaky = FaultInjectingStore(stored, sleep=_noop_sleep)
        resilient = ResilientReader(flaky, fast_policy())
        service = RetrievalService(resilient)
        wrappers = [(flaky, "settle_many"), (resilient, "settle_many"),
                    (service.cache, "resolve_settled")]
        try:
            for wrapper, name in wrappers:
                assert name in type(wrapper).__dict__, (wrapper, name)
                assert getattr(type(wrapper), name).__qualname__ == (
                    f"{type(wrapper).__name__}.{name}"
                )
        finally:
            service.close()

    def test_forwarding_wrapper_is_read_through_its_own_get(self):
        """A third-party wrapper that forwards attributes but defines
        only ``get`` is read key by key through that ``get``."""
        from repro.core.store import settle_many

        class Counting:
            def __init__(self, inner):
                self._inner, self.gets = inner, 0

            def get(self, key):
                self.gets += 1
                return self._inner.get(key)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        inner = self._inner()
        wrapper = Counting(inner)
        values, errors = settle_many(wrapper, self.KEYS[:3] + ["nope"])
        assert values == {k: inner._blobs[k] for k in self.KEYS[:3]}
        assert list(errors) == ["nope"]
        assert wrapper.gets == 4

    def test_fault_store_charges_one_latency_per_call(self):
        inner = self._inner()
        flaky = FaultInjectingStore(inner, latency_s=0.5, sleep=_noop_sleep)
        assert _read_batch(flaky, self.KEYS) == [
            inner.get(k) for k in self.KEYS
        ]
        assert flaky.injected_latency_s == 0.5
        assert flaky.reads == len(self.KEYS)
        assert inner.log[0] == self.KEYS  # one batched inner request

    def test_batched_fetch_raises_then_retries_exactly_the_failed_key(
        self, stored
    ):
        recon = Reconstructor(open_field(stored, "vx"))
        step = recon.plan_step(1e-3)
        planned = [
            ref.key for lv, have, want in zip(
                recon.field.levels, recon.fetched_groups, step.groups)
            for ref in lv.refs[have:want]
        ]
        assert len(planned) > 2
        victim = planned[len(planned) // 2]
        inner = _LoggingStore()
        for key in stored.keys():
            inner.put(key, stored.get(key))
        flaky = FaultInjectingStore(inner, fail_first={victim: 1},
                                    sleep=_noop_sleep)
        recon = Reconstructor(open_field(flaky, "vx"))
        step = recon.plan_step(1e-3)
        inner.log.clear()
        with pytest.raises(TransientStoreError, match=victim):
            recon.fetch_step(step)
        assert inner.log == [[k for k in planned if k != victim]]
        inner.log.clear()
        recon.fetch_step(step)
        assert inner.log == [[victim]]
        assert flaky.access_count(victim) == 2

    @pytest.mark.parametrize("batched", [True, False])
    def test_failed_step_resumes_bit_identically(self, field, stored,
                                                 batched):
        """A fault mid-batch keeps every verified key memoized; the
        resumed step equals a clean session's, fetched bytes and all."""
        _, f = field
        clean = Reconstructor(open_field(stored, "vx")).reconstruct(1e-4)
        recon = Reconstructor(open_field(stored, "vx"))
        step = recon.plan_step(1e-4)
        level = max(range(len(step.groups)), key=step.groups.__getitem__)
        victim = recon.field.levels[level].refs[step.groups[level] - 1].key
        flaky = FaultInjectingStore(stored, fail_first={victim: 1},
                                    sleep=_noop_sleep)
        reader = ResilientReader(flaky, fast_policy(max_attempts=1))
        cache = SegmentCache(reader) if batched else None
        lazy = open_field(reader, "vx", cache=cache)
        recon = Reconstructor(lazy)
        with pytest.raises(TransientStoreError):
            recon.reconstruct(1e-4)
        resolved = lazy.levels[level].groups.resolved_indices
        assert step.groups[level] - 1 not in resolved
        assert len(resolved) == step.groups[level] - 1  # the rest arrived
        out = recon.reconstruct(1e-4)
        np.testing.assert_array_equal(out.data, clean.data)
        assert out.fetched_bytes == clean.fetched_bytes
        assert flaky.access_count(victim) == 2

    def test_resilient_reader_retries_only_failed_keys_together(self):
        inner = self._inner()
        flaky = FaultInjectingStore(
            inner, fail_first={"k1": 2, "k5": 1}, sleep=_noop_sleep
        )
        policy = fast_policy()
        reader = ResilientReader(flaky, policy)
        assert _read_batch(reader, self.KEYS) == [
            MemoryStore.get(inner, k) for k in self.KEYS
        ]
        # round 1 reads the six clean keys; k5 heals in round 2, k1 in 3
        assert inner.log == [
            [k for k in self.KEYS if k not in ("k1", "k5")], ["k5"], ["k1"],
        ]
        assert policy.retries == 3  # k1 twice, k5 once — per key
        assert policy.attempts == len(self.KEYS) + 3

    def test_resilient_reader_gives_up_per_key(self):
        inner = self._inner()
        flaky = FaultInjectingStore(inner, fail_first={"k2": 99},
                                    sleep=_noop_sleep)
        policy = fast_policy(max_attempts=3)
        reader = ResilientReader(flaky, policy)
        values, errors = reader.settle_many(self.KEYS)
        assert set(values) == set(self.KEYS) - {"k2"}
        assert list(errors) == ["k2"]
        assert policy.giveups == 1 and policy.retries == 2
        with pytest.raises(TransientStoreError, match="k2"):
            _read_batch(reader, self.KEYS)

    def test_missing_key_is_not_retried(self):
        inner = self._inner()
        policy = fast_policy()
        reader = ResilientReader(inner, policy)
        with pytest.raises(SegmentNotFoundError):
            _read_batch(reader, ["k0", "nope", "k1"])
        assert policy.retries == 0
        assert inner.log == [["k0", "nope", "k1"]]

    @pytest.mark.parametrize("corrupt", [0.0, 0.3])
    def test_seeded_schedules_are_equal_batched_or_not(self, corrupt):
        """Hypothesis: the multiset of ``(key, access_n, outcome)``, the
        injected-fault counters and the retry counts are identical for
        ``settle_many`` and a ``get`` loop over the same batches."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        keys = st.lists(st.sampled_from(self.KEYS), min_size=1,
                        max_size=8, unique=True)

        @settings(max_examples=40, deadline=None)
        @given(seed=st.integers(0, 2 ** 16),
               rate=st.floats(0.01, 0.29),
               batches=st.lists(keys, min_size=1, max_size=6))
        def check(seed, rate, batches):
            runs = []
            for batched in (True, False):
                flaky = FaultInjectingStore(
                    self._inner(), seed=seed, transient_rate=rate,
                    corrupt_rate=corrupt, sleep=_noop_sleep,
                )
                policy = fast_policy(max_attempts=3)
                reader = ResilientReader(flaky, policy)
                raw, verified = [], []
                for batch in batches:
                    if batched:
                        got = _outcomes(*flaky.settle_many(batch))
                        kept = _outcomes(*reader.settle_many(batch))
                    else:
                        got = {k: _outcome_one(flaky.get, k) for k in batch}
                        kept = {k: _outcome_one(reader.get, k) for k in batch}
                    raw += [(k, flaky.access_count(k), o)
                            for k, o in got.items()]
                    verified += sorted(kept.items())
                runs.append((
                    sorted(raw), verified, flaky.injected_transients,
                    flaky.injected_corruptions, policy.retries,
                    policy.attempts, policy.giveups,
                ))
            assert runs[0] == runs[1]

        check()

    def test_directory_store_merges_only_adjacent_ranges(self, tmp_path):
        from unittest import mock

        store = DirectoryStore(tmp_path / "s")
        blobs = {k: bytes([i + 1]) * (5 + i) for i, k in enumerate("abcd")}
        with store.batch():
            for key, blob in blobs.items():
                store.put(key, blob)
        real_pread, preads = os.pread, []

        def counting_pread(fd, n, offset):
            preads.append((offset, n))
            return real_pread(fd, n, offset)

        with mock.patch("os.pread", counting_pread):
            assert _read_batch(store, ["d", "a", "b"]) == [
                blobs["d"], blobs["a"], blobs["b"]
            ]
            # a+b are back to back: one read; c is a gap, never read
            assert preads == [(0, 11), (18, 8)]
            assert store.bytes_read == 5 + 6 + 8
            assert (store.requests, store.reads) == (1, 3)
            preads.clear()
            with pytest.raises(SegmentNotFoundError, match="nope"):
                _read_batch(store, ["c", "nope", "d"])
            values, errors = store.settle_many(["c", "nope", "d"])
            assert values == {"c": blobs["c"], "d": blobs["d"]}
            assert list(errors) == ["nope"]
            assert preads == [(11, 15)] * 2  # c and d are adjacent
