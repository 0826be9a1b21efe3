"""Segment stores: where refactored plane groups live.

The paper's end-to-end retrieval study (Fig. 14) observes that HP-MDR
"creates many small files", making I/O overhead significant. Segments
stay small here (one per plane group, what retrieval fetches); files don't:

* :class:`MemoryStore` — dict-backed, for tests and kernels-only runs;
* :class:`DirectoryStore` — every segment appended to one pack file
  plus a JSON offset index, with an accounting model of per-request
  latency so end-to-end timing studies can charge the small-request
  penalty without real disks dominating CI.

Both satisfy the :class:`SegmentReader` protocol that the lazy
retrieval layer (:func:`open_field`, :class:`repro.core.service.RetrievalService`)
is written against, so any object with ``get``/``size_of``/``keys`` —
an object store client, a test double — can back progressive sessions.
A progressive step reads its keys as one batch per tile-step, settled
per key into values and errors (:func:`settle_many`); a reader whose
class does not define ``settle_many`` is read with a ``get`` loop.

Keys are ``(variable, level, group)`` triples flattened to strings.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import threading
import zlib
from contextlib import contextmanager, nullcontext
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.errors import (
    BATCH_ERRORS,
    SegmentCorruptionError,
    SegmentNotFoundError,
    StoreFormatError,
    TransientStoreError,
    finish_batch,
)
from repro.core.stream import (
    LazyRefactoredField,
    LevelStream,
    RefactoredField,
    SegmentRef,
    parse_group,
)


@runtime_checkable
class SegmentReader(Protocol):
    """Read side of a segment store — what retrieval needs.

    ``get(key)`` returns the segment blob (raising ``KeyError`` when
    absent), ``size_of(key)`` its serialized size *without* fetching it
    (manifest lookup), ``keys()`` the sorted stored keys, and membership
    tests route through ``__contains__``. The library reads a batch
    through :func:`settle_many`: a reader whose class defines
    ``settle_many(keys) -> ({key: blob}, {key: error})`` answers it in
    one request, any other is read with a ``get`` loop.
    """

    def get(self, key: str) -> bytes: ...

    def size_of(self, key: str) -> int: ...

    def keys(self) -> list[str]: ...

    def __contains__(self, key: str) -> bool: ...


@runtime_checkable
class SegmentStore(SegmentReader, Protocol):
    """A :class:`SegmentReader` that also accepts writes."""

    def put(self, key: str, blob: bytes) -> None: ...


def segment_key(variable: str, level: int, group: int) -> str:
    """Canonical segment naming: ``<var>.L<level>.G<group>``."""
    if "/" in variable or "\0" in variable:
        raise ValueError(f"invalid variable name {variable!r}")
    return f"{variable}.L{level}.G{group}"


def settle_many(reader, keys: Sequence[str]) -> tuple[dict, dict]:
    """One batched read of *keys*, settled as ``({key: blob}, {key: error})``.

    The library's readers (stores, fault injection, retries, caches)
    define ``settle_many`` and answer the whole batch in one request;
    any other reader is read with a ``get`` loop, every key tried once.
    Only a ``settle_many`` the reader's own class defines counts: a
    wrapper that forwards unknown attributes to the reader it fronts
    (through ``__getattr__``) would otherwise hand the batch straight
    past its own ``get`` — and whatever that ``get`` adds.
    """
    settled = getattr(type(reader), "settle_many", None)
    if settled is not None:
        return settled(reader, keys)
    return _settle_each(reader.get, keys)


def _settle_each(get: Callable[[str], bytes], keys: Sequence[str]):
    """A ``get`` loop, settled: every key is tried once."""
    values, errors = {}, {}
    for key in keys:
        try:
            values[key] = get(key)
        except BATCH_ERRORS as exc:
            errors[key] = exc
    return values, errors


class MemoryStore:
    """In-memory segment store (dict-backed).

    Counts ``reads``/``writes`` so tests can assert exactly how many
    segments an operation touched.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._stats_lock = threading.Lock()
        self.reads = 0
        self.writes = 0

    def put(self, key: str, blob: bytes) -> None:
        """Store *blob* under *key*, overwriting any previous value."""
        self._blobs[key] = bytes(blob)
        self.writes += 1

    def get(self, key: str) -> bytes:
        """Return the blob stored under *key*.

        Raises :class:`~repro.core.errors.SegmentNotFoundError` (a
        ``KeyError`` subclass) when absent, so callers can tell
        "missing" from "transient" without string matching.
        """
        with self._stats_lock:  # concurrent sessions share one store
            self.reads += 1
        try:
            return self._blobs[key]
        except KeyError:
            raise SegmentNotFoundError(
                f"segment {key!r} not in store"
            ) from None

    def settle_many(self, keys: Sequence[str]) -> tuple[dict, dict]:
        """``get`` per key (one counted read each), settled."""
        return _settle_each(self.get, keys)

    def __contains__(self, key: str) -> bool:
        return key in self._blobs

    # Shipped by value to process-backend workers (each gets its own
    # copy of blobs and counters); only the lock cannot travel.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_stats_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    def keys(self) -> list[str]:
        """Sorted list of stored segment keys."""
        return sorted(self._blobs)

    def size_of(self, key: str) -> int:
        """Serialized size of *key*'s blob, without counting as a read."""
        try:
            return len(self._blobs[key])
        except KeyError:
            raise SegmentNotFoundError(
                f"segment {key!r} not in store"
            ) from None

    def total_bytes(self) -> int:
        """Sum of all stored blob sizes."""
        return sum(len(b) for b in self._blobs.values())


class DirectoryStore:
    """Packed append-only segment container plus a JSON offset index.

    The root holds two files: ``segments.pack``, every blob back to back
    in write order, and ``manifest.json``, ``{"format": 2, "segments":
    {key: [offset, length]}}``. Writes go *append → fsync pack →
    atomically replace manifest*, so a crash leaves at most unreferenced
    tail bytes: the store reopens at the last flushed manifest and the
    next append lands after them. Overwriting a key leaves its old bytes
    dead in the pack (no compaction). Reads are ``os.pread`` on a
    lazily opened descriptor — no seek state, so threads and forked
    workers share it without a lock; descriptors do not travel through
    pickling and are released by :meth:`close`. :meth:`settle_many` reads
    each run of back-to-back segments with one ``pread``.

    Parameters
    ----------
    root:
        Directory of the two files (created if missing). A pre-pack
        one-file-per-segment directory, or a ``format`` this code does
        not know, raises :class:`~repro.core.errors.StoreFormatError`.
    file_open_latency_s:
        Modeled per-request cost. It is *accounted*, not slept:
        :meth:`io_time_estimate` returns the modeled wall time of the
        requests performed so far given a bandwidth, which the Fig. 14
        benchmark charges on top of kernel time. ``reads`` counts
        segments read, ``requests`` the calls that read them (a batch
        is one), so the modeled latency is charged per request.

    Bulk writers wrap their puts in :meth:`batch` (as :func:`store_field`
    does): outside one, every put syncs the pack and rewrites the
    O(#segments) manifest. ``manifest_writes`` counts the rewrites.
    """

    PACK = "segments.pack"
    MANIFEST = "manifest.json"
    FORMAT = 2
    _APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT

    def __init__(
        self, root: str | Path, file_open_latency_s: float = 2e-4
    ) -> None:
        self._lock = threading.Lock()
        self._fds: dict[int, int] = {}  # open flags -> pack descriptor
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if file_open_latency_s < 0:
            raise ValueError("file_open_latency_s must be >= 0")
        self.file_open_latency_s = file_open_latency_s
        self.reads = self.writes = self.bytes_read = self.manifest_writes = 0
        self.requests = 0
        self._deferring = self._dirty = False
        self._manifest_path = self.root / self.MANIFEST
        self._segments = self._load_manifest()

    def _load_manifest(self) -> dict[str, tuple[int, int]]:
        """Parse and validate the offset index (empty when absent)."""
        where = f"manifest at {self._manifest_path}"
        try:
            manifest = json.loads(self._manifest_path.read_text())
            if not isinstance(manifest, dict):
                raise ValueError("not a JSON object")
            fmt = manifest.get("format", "1 (one file per segment)")
            if fmt != self.FORMAT:
                raise StoreFormatError(
                    f"{where} has format {fmt}; this code reads only "
                    f"format {self.FORMAT} ({self.PACK} + offset index) "
                    f"— re-run store_field into a new root"
                )
            segments = {}
            for key, entry in manifest["segments"].items():
                if not (isinstance(entry, list) and len(entry) == 2 and all(
                        type(v) is int and v >= 0 for v in entry)):
                    raise ValueError(f"entry {key!r} is {entry!r}, not "
                                     f"[offset >= 0, length >= 0]")
                segments[key] = tuple(entry)
            return segments
        except FileNotFoundError:
            return {}
        except (ValueError, KeyError, AttributeError) as exc:
            raise SegmentCorruptionError(
                f"{where} is corrupt: {exc}"
            ) from exc

    def _fd(self, flags: int) -> int:
        """The pack descriptor for *flags*, opened on first use (lock
        held by the caller)."""
        if flags not in self._fds:
            self._fds[flags] = os.open(self.root / self.PACK, flags, 0o666)
        return self._fds[flags]

    def _flush_manifest(self) -> None:
        # Crash-safe publish (lock held by the caller): sync the pack
        # *before* the index that points into it, then write a sibling
        # temp file, fsync it, and rename it into place. A crash leaves
        # the old manifest or the new one (os.replace is atomic within a
        # directory), never an entry whose bytes are not on disk.
        os.fsync(self._fd(self._APPEND))
        # The temp file is created like the pack — mode 0o666, so the
        # kernel applies the umask and both files carry the same
        # permission bits (mkstemp's 0600 left an index only its writer
        # could open). O_EXCL + a retry makes the name unique.
        for attempt in itertools.count():
            tmp = f"{self._manifest_path}.{os.getpid()}.{attempt}.tmp"
            try:
                fd = os.open(
                    tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666
                )
                break
            except FileExistsError:
                continue
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(
                    {"format": self.FORMAT, "segments": self._segments},
                    separators=(",", ":"),
                ))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._manifest_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.manifest_writes += 1
        self._dirty = False

    @contextmanager
    def batch(self):
        """Defer manifest flushes across a bulk write.

        Within the context, :meth:`put` appends to the pack and updates
        the in-memory index only; the outermost context's exit syncs the
        pack and flushes the manifest once (if anything changed).
        """
        if self._deferring:  # nested: outermost context owns the flush
            yield self
            return
        self._deferring = True
        try:
            yield self
        finally:
            self._deferring = False
            with self._lock:
                if self._dirty:
                    self._flush_manifest()

    def put(self, key: str, blob: bytes) -> None:
        """Append *blob* to the pack and record its offset and length."""
        with self._lock:
            fd = self._fd(self._APPEND)
            view = memoryview(blob)
            while view:  # a write may come back short; append the rest
                view = view[os.write(fd, view):]
            # O_APPEND wrote at the real end of file (past any crashed
            # writer's orphan tail), so take the offset from where the
            # descriptor now stands, not from a cached counter.
            end = os.lseek(fd, 0, os.SEEK_CUR)
            self._segments[key] = (end - len(blob), len(blob))
            self._dirty = True
            self.writes += 1
            if not self._deferring:
                self._flush_manifest()

    def get(self, key: str) -> bytes:
        """Read one segment with a single ``pread`` (see :meth:`settle_many`)."""
        return finish_batch([key], *self.settle_many([key]))[0]

    def settle_many(self, keys: Sequence[str]) -> tuple[dict, dict]:
        """Read *keys* as ``({key: blob}, {key: error})``, one ``pread``
        per adjacent run.

        Ranges are sorted by offset and merged only where one ends
        exactly where the next begins, so no gap is ever read and
        ``bytes_read`` is the sum of the segment lengths. The call is
        one accounted request (``requests``, :meth:`io_time_estimate`).

        Per key: ``SegmentNotFoundError`` when the key (or the pack
        itself) is absent, ``SegmentCorruptionError`` when the pack ends
        inside the recorded range, and ``TransientStoreError`` for other
        OS failures (a flaky read is worth retrying; the rest are not).
        """
        values, errors, spans = {}, {}, []
        with self._lock:
            for key in dict.fromkeys(keys):
                if key in self._segments:
                    spans.append((*self._segments[key], key))
                else:
                    errors[key] = SegmentNotFoundError(
                        f"segment {key!r} not in store"
                    )
            try:
                fd = self._fd(os.O_RDONLY) if spans else -1
            except OSError as exc:
                # No pack at all means nothing was stored: not retryable.
                kind = (SegmentNotFoundError
                        if isinstance(exc, FileNotFoundError)
                        else TransientStoreError)
                for *_, key in spans:
                    errors[key] = kind(
                        f"reading segment {key!r} failed: {exc}"
                    )
                spans = []
        runs: list[list[tuple[int, int, str]]] = []
        end = -1  # where the current run's bytes stop
        for offset, length, key in sorted(spans):
            if offset == end:
                runs[-1].append((offset, length, key))
            else:
                runs.append([(offset, length, key)])
            end = offset + length
        nbytes = 0
        for run in runs:
            start = run[0][0]
            stop = run[-1][0] + run[-1][1]
            try:
                buf = os.pread(fd, stop - start, start)
            except OSError as exc:
                for _, _, key in run:
                    errors[key] = TransientStoreError(
                        f"reading segment {key!r} failed: {exc}"
                    )
                continue
            for offset, length, key in run:
                blob = buf if len(run) == 1 else buf[
                    offset - start:offset - start + length]
                if len(blob) != length:
                    errors[key] = SegmentCorruptionError(
                        f"segment {key!r} is truncated: the pack holds "
                        f"{len(blob)} of {length} bytes at offset {offset}"
                    )
                else:
                    values[key] = blob
                    nbytes += length
        if runs:
            with self._lock:  # concurrent sessions share one store
                self.requests += 1
                self.reads += len(values)
                self.bytes_read += nbytes
        return values, errors

    def close(self) -> None:
        """Release the pack descriptors (idempotent; reopened on use)."""
        with self._lock:
            fds, self._fds = self._fds, {}
        for fd in fds.values():
            os.close(fd)

    __del__ = close

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._segments

    # Shipped by value to process-backend workers: the path travels, the
    # index/counters are copied at ship time, the lock is recreated and
    # the descriptors stay behind (each worker opens its own).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["_fds"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def keys(self) -> list[str]:
        """Sorted list of manifest-recorded segment keys."""
        with self._lock:
            return sorted(self._segments)

    def size_of(self, key: str) -> int:
        """Manifest-recorded size of *key* — no file access."""
        with self._lock:
            entry = self._segments.get(key)
        if entry is None:
            raise SegmentNotFoundError(f"segment {key!r} not in manifest")
        return entry[1]

    def total_bytes(self) -> int:
        """Sum of the live segment lengths, not the pack's file size."""
        with self._lock:
            return sum(n for _, n in self._segments.values())

    def io_time_estimate(self, bandwidth_gbps: float = 2.0) -> float:
        """Modeled read wall-time: per-request latency + transfer time."""
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be > 0")
        with self._lock:
            requests, bytes_read = self.requests, self.bytes_read
        return (
            requests * self.file_open_latency_s
            + bytes_read / (bandwidth_gbps * 1e9)
        )


def segment_checksum(blob: bytes) -> int:
    """CRC32 of a segment blob — the integrity check recorded per
    segment in the index and verified on every cold fetch."""
    return zlib.crc32(blob) & 0xFFFFFFFF


def index_checksums(index: dict) -> dict[str, int]:
    """Per-segment CRC32 map from a :func:`store_field` index record.

    The composition hook for :class:`~repro.core.faults.ResilientReader`
    and :meth:`~repro.core.service.SegmentCache.register_checksums`;
    empty for indexes written before checksums were recorded.
    """
    return {
        key: int(meta["crc32"])
        for key, meta in index.get("segments", {}).items()
        if isinstance(meta, dict) and "crc32" in meta
    }


def verified_many(
    reader, keys: Sequence[str], expected: Mapping[str, int]
) -> tuple[dict, dict, int, int]:
    """One batched read of *keys*, each checked against its CRC32.

    A mismatch is first treated as transient — flips on the read path
    heal on re-fetch — so the mismatched keys are fetched once more, in
    one batched call; a second mismatch fails that key with
    :class:`~repro.core.errors.SegmentCorruptionError` (the stored bytes
    themselves are bad). Keys without an *expected* checksum pass
    unchecked. Returns ``(blobs, errors, refetched, failed)``: the last
    two count the keys read twice and the keys failing twice.
    """
    blobs, errors = settle_many(reader, keys)
    bad = [
        key for key, blob in blobs.items()
        if expected.get(key) is not None
        and segment_checksum(blob) != expected[key]
    ]
    failed = 0
    if bad:
        again, again_errors = settle_many(reader, bad)
        errors.update(again_errors)
        for key in bad:
            del blobs[key]
            if key not in again:
                continue
            blob = again[key]
            if segment_checksum(blob) == expected[key]:
                blobs[key] = blob
                continue
            failed += 1
            errors[key] = SegmentCorruptionError(
                f"segment {key!r} failed CRC32 verification after "
                f"re-fetch (expected {expected[key]:#010x}, got "
                f"{segment_checksum(blob):#010x})"
            )
    return blobs, errors, len(bad), failed


def store_field(store, field: RefactoredField) -> dict:
    """Write every plane group of *field* as its own segment.

    Returns the index record that :func:`load_field` / :func:`open_field`
    need; it is also written to the store under ``<name>.index`` as
    JSON-encoded bytes. Besides the per-level key lists the index carries
    a ``"segments"`` table with each segment's serialized size, plane
    count, and CRC32 checksum — the metadata that lets :func:`open_field`
    plan retrievals without fetching a single group and lets every
    reader verify fetched bytes. Directory-backed stores get their
    manifest flushed once (via :meth:`DirectoryStore.batch`), not per
    segment.
    """
    meta_field = RefactoredField(
        shape=field.shape,
        dtype=field.dtype,
        mode=field.mode,
        num_levels=field.num_levels,
        min_size=field.min_size,
        group_size=field.group_size,
        design=field.design,
        level_weights=field.level_weights,
        levels=[
            LevelStream(
                level=lv.level,
                num_elements=lv.num_elements,
                num_bitplanes=lv.num_bitplanes,
                exponent=lv.exponent,
                max_abs=lv.max_abs,
                layout=lv.layout,
                warp_size=lv.warp_size,
                groups=[],
                signed_encoding=lv.signed_encoding,
            )
            for lv in field.levels
        ],
        value_range=field.value_range,
        name=field.name,
    )
    index = {
        "field": meta_field.to_bytes().hex(),
        "groups": {},
        "segments": {},
    }
    batch = store.batch() if hasattr(store, "batch") else nullcontext()
    with batch:
        for lv in field.levels:
            for g, group in enumerate(lv.groups):
                key = segment_key(field.name, lv.level, g)
                blob = group.to_bytes()
                store.put(key, blob)
                index["groups"].setdefault(str(lv.level), []).append(key)
                index["segments"][key] = {
                    "bytes": len(blob),
                    "planes": group.num_planes,
                    "crc32": segment_checksum(blob),
                }
        store.put(
            f"{field.name}.index", json.dumps(index).encode()
        )
    return index


def _read_index(
    get: Callable[[str], bytes], name: str
) -> tuple[dict, RefactoredField]:
    key = f"{name}.index"
    raw = bytes(get(key))
    try:
        index = json.loads(raw.decode())
        if not isinstance(index, dict) or not isinstance(
            index.get("groups"), dict
        ):
            raise ValueError("index record is not a field index object")
        field = RefactoredField.from_bytes(bytes.fromhex(index["field"]))
    except (ValueError, KeyError, TypeError, struct.error,
            UnicodeDecodeError) as exc:
        raise SegmentCorruptionError(
            f"index record {key!r} is corrupt: {exc}"
        ) from exc
    return index, field


def load_field(
    store,
    name: str,
    groups_per_level: list[int] | None = None,
    verify: bool = True,
):
    """Load a field's metadata and the requested prefix of groups.

    ``groups_per_level=None`` loads everything *eagerly*: one batched
    read of every segment up front. This is the baseline read
    path the end-to-end retrieval benchmarks time; services answering
    tolerance queries should prefer :func:`open_field`, which defers
    each segment fetch until a decode touches it.

    ``verify=True`` (the default) checks every fetched segment against
    its index-recorded CRC32 — a mismatch is re-fetched once (wire
    flips heal), then raised as
    :class:`~repro.core.errors.SegmentCorruptionError`. Indexes written
    before checksums were recorded load unverified either way.
    """
    index, field = _read_index(store.get, name)
    checksums = index_checksums(index) if verify else {}
    level_keys = []
    for li, lv in enumerate(field.levels):
        keys = index["groups"].get(str(lv.level), [])
        want = (
            len(keys) if groups_per_level is None else
            min(groups_per_level[li], len(keys))
        )
        level_keys.append(keys[:want])
    wanted = [key for keys in level_keys for key in keys]
    blobs, errors, _, _ = verified_many(store, wanted, checksums)
    finish_batch(wanted, blobs, errors)
    for lv, keys in zip(field.levels, level_keys):
        lv.groups = [parse_group(key, blobs[key]) for key in keys]
    return field


def tiled_index_key(name: str) -> str:
    """Store key of a tiled field's index record: ``<name>.tiles``."""
    if "/" in name or "\0" in name:
        raise ValueError(f"invalid variable name {name!r}")
    return f"{name}.tiles"


def store_tiled_field(store, tiled) -> dict:
    """Write a :class:`~repro.core.tiling.TiledField` tile by tile.

    Every tile's sub-field goes through :func:`store_field` (per-segment
    keys under the tile's own name, e.g. ``var.T0_1_0.L2.G3``), and one
    tiled index record — domain shape/dtype/value range plus each tile's
    placement, sub-field name, and stored size — lands under
    ``<name>.tiles``. Directory-backed stores get their manifest flushed
    once for the whole write (the per-tile :func:`store_field` batches
    nest inside this one), not per tile or per segment.

    Returns the tiled index record that :func:`open_tiled_field` reads.
    """
    index = {
        "name": tiled.name,
        "shape": [int(s) for s in tiled.shape],
        "dtype": np.dtype(tiled.dtype).name,
        "value_range": float(tiled.value_range),
        "tiles": [],
    }
    batch = store.batch() if hasattr(store, "batch") else nullcontext()
    with batch:
        for tile, field in zip(tiled.tiles, tiled.fields):
            store_field(store, field)
            index["tiles"].append({
                "index": [int(i) for i in tile.index],
                "offset": [int(o) for o in tile.offset],
                "shape": [int(s) for s in tile.shape],
                "field": field.name,
                "bytes": field.total_bytes(),
            })
        store.put(
            tiled_index_key(tiled.name), json.dumps(index).encode()
        )
    return index


def open_tiled_field(store, name: str, cache=None, verify: bool = True):
    """Open a stored field lazily as a tiled field, of either layout.

    A tiled field reads only its ``<name>.tiles`` index record (through
    *cache* when given, exactly like :func:`open_field`); each tile's
    sub-field opens — fetching its own index — on first touch, so a
    region-of-interest reconstruction over the returned
    :class:`~repro.core.tiling.LazyTiledField` pays the backing store
    only for the tiles its hyperslab overlaps. An untiled field (no
    ``<name>.tiles`` key: a manifest lookup, not a read) opens as a
    one-tile field whose tile is the field :func:`open_field` just
    opened; the stored format is the same either way.
    """
    from repro.core.tiling import LazyTiledField, TileSpec, one_tile_field

    tiled_key, index_key = tiled_index_key(name), f"{name}.index"
    if tiled_key not in store:
        if index_key not in store:
            raise SegmentNotFoundError(
                f"no tiled or untiled field {name!r} in store (neither "
                f"{tiled_key!r} nor {index_key!r})"
            )
        field = open_field(store, name, cache=cache, verify=verify)
        return one_tile_field(field, store=store, cache=cache, verify=verify)
    get = cache.get if cache is not None else store.get
    raw = bytes(get(tiled_key))
    try:
        index = json.loads(raw.decode())
        if not isinstance(index, dict):
            raise ValueError("tiled index is not an object")
        tiles = [
            TileSpec(
                index=tuple(t["index"]),
                offset=tuple(t["offset"]),
                shape=tuple(t["shape"]),
            )
            for t in index["tiles"]
        ]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise SegmentCorruptionError(
            f"tiled index record {tiled_key!r} is corrupt: {exc}"
        ) from exc
    return LazyTiledField(
        shape=tuple(index["shape"]),
        dtype=np.dtype(index["dtype"]),
        tiles=tiles,
        tile_field_names=[t["field"] for t in index["tiles"]],
        tile_bytes=[int(t["bytes"]) for t in index["tiles"]],
        value_range=float(index["value_range"]),
        name=index["name"],
        store=store,
        cache=cache,
        verify=verify,
    )


def open_field(
    store,
    name: str,
    cache=None,
    verify: bool = True,
) -> LazyRefactoredField:
    """Open a stored field lazily: fetch segments on first decode touch.

    Parameters
    ----------
    store:
        Any :class:`SegmentReader` holding ``<name>.index`` plus the
        segments :func:`store_field` wrote.
    name:
        Variable name the field was stored under.
    cache:
        Optional shared :class:`repro.core.service.SegmentCache` (or any
        object with ``get(key)`` and ``resolve_settled(keys) -> ({key:
        (blob, cold)}, {key: error})``). When given, all fetches route
        through it, so concurrent sessions opened against the same cache
        share segment bytes; without it every fetch is a cold store
        read.
    verify:
        Check every fetched segment against its index-recorded CRC32
        (default on; indexes written before checksums existed open
        unverified either way). A mismatch is treated as transient
        first — re-fetched once — then raised as
        :class:`~repro.core.errors.SegmentCorruptionError`. With a
        cache, the checksums are registered on it instead, so
        verification happens exactly once per cold fetch and cached
        blobs are known-good.

    Returns a :class:`LazyRefactoredField`: planning runs on index
    metadata alone, and only the plane groups a reconstruction actually
    decodes are fetched — strictly fewer bytes than :func:`load_field`
    whenever the tolerance stops short of near-lossless. With a cache,
    the (immutable) index blob itself is also served from it, so warm
    session opens touch the backing store not at all.
    """
    if cache is not None:
        index, template = _read_index(cache.get, name)
    else:
        index, template = _read_index(store.get, name)
    segments = index.get("segments", {})
    checksums = index_checksums(index) if verify else {}
    level_refs: list[list[SegmentRef]] = []
    for lv in template.levels:
        refs = []
        for key in index["groups"].get(str(lv.level), []):
            meta = segments.get(key)
            if meta is not None:
                refs.append(
                    SegmentRef(
                        key=key,
                        nbytes=int(meta["bytes"]),
                        num_planes=int(meta["planes"]),
                    )
                )
            else:  # pre-metadata index: sizes via manifest, planes lazily
                refs.append(SegmentRef(key=key, nbytes=store.size_of(key)))
        level_refs.append(refs)
    if cache is not None:
        if checksums and hasattr(cache, "register_checksums"):
            cache.register_checksums(checksums)
        resolve_settled = cache.resolve_settled
    else:
        def resolve_settled(keys):
            blobs, errors, _, _ = verified_many(store, keys, checksums)
            return {key: (blob, True) for key, blob in blobs.items()}, errors
    return LazyRefactoredField(template, level_refs, resolve_settled)


__all__ = [
    "SegmentReader",
    "SegmentStore",
    "MemoryStore",
    "DirectoryStore",
    "segment_key",
    "settle_many",
    "segment_checksum",
    "index_checksums",
    "tiled_index_key",
    "store_field",
    "load_field",
    "open_field",
    "store_tiled_field",
    "open_tiled_field",
]
