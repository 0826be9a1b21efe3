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
is written against, so any object with ``get``/``keys`` — an object
store client, a test double — can back progressive sessions.
A progressive step reads its keys as one batch per tile-step, settled
per key into values and errors (:func:`settle_many`); a reader whose
class does not define ``settle_many`` is read with a ``get`` loop.

Keys are ``(variable, level, group)`` triples flattened to strings.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import threading
import zlib
from contextlib import contextmanager, nullcontext
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.bitplane.align import MAX_BITPLANES
from repro.bitplane.encoding import LAYOUTS, SIGNED_ENCODINGS
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
    absent), ``keys()`` the sorted stored keys, and membership tests
    route through ``__contains__``. The library reads a batch
    through :func:`settle_many`: a reader whose class defines
    ``settle_many(keys) -> ({key: blob}, {key: error})`` answers it in
    one request, any other is read with a ``get`` loop.
    """

    def get(self, key: str) -> bytes: ...

    def keys(self) -> list[str]: ...

    def __contains__(self, key: str) -> bool: ...


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

    # Picklable (a copy gets its own blobs and counters); only the lock
    # cannot travel.
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
    lazily opened descriptor — no seek state, so threads share it
    without a lock; descriptors are released by :meth:`close`.
    :meth:`settle_many` reads each run of back-to-back segments with one
    ``pread``.

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


def verified_many(
    reader, keys: Sequence[str], expected: Mapping[str, int]
) -> tuple[dict, dict, int, int]:
    """One batched read of *keys*, each checked before it is returned.

    A segment is checked against its CRC32 in *expected*; an index
    record (``.index``, ``.tiles``) checks itself (:func:`_flaw`).
    A mismatch is first treated as transient — flips on the read path
    heal on re-fetch — so the mismatched keys are fetched once more, in
    one batched call; a second mismatch fails that key with
    :class:`~repro.core.errors.SegmentCorruptionError` (the stored bytes
    themselves are bad), which says what was wrong with an index
    record. Returns ``(blobs, errors, refetched, failed)``: the last
    two count the keys read twice and the keys failing twice.
    """
    blobs, errors = settle_many(reader, keys)
    bad = [key for key, blob in blobs.items()
           if _flaw(key, blob, expected) is not None]
    failed = 0
    if bad:
        again, again_errors = settle_many(reader, bad)
        errors.update(again_errors)
        for key in bad:
            del blobs[key]
            if key not in again:
                continue
            blob = again[key]
            flaw = _flaw(key, blob, expected)
            if flaw is None:
                blobs[key] = blob
                continue
            failed += 1
            if expected.get(key) is None:
                errors[key] = SegmentCorruptionError(
                    f"{flaw} (failed verification after re-fetch)")
                continue
            errors[key] = SegmentCorruptionError(
                f"segment {key!r} failed CRC32 verification after "
                f"re-fetch (expected {expected[key]:#010x}, got "
                f"{segment_checksum(blob):#010x})"
            )
    return blobs, errors, len(bad), failed


def _flaw(key: str, blob, expected: Mapping[str, int]) -> str | None:
    """What keeps *blob* from checking out as *key*, or ``None`` when it
    does: a segment against its expected CRC32; an index record against
    itself (a binary one by its CRC32 trailer, a v2 JSON one by parsing,
    which names the value it rejects); any other key passes."""
    want = expected.get(key)
    if want is not None:
        return None if segment_checksum(blob) == want else (
            f"segment {key!r} failed CRC32 verification")
    if not key.endswith((".index", ".tiles")):
        return None
    if bytes(blob[:4]) in (_INDEX_MAGIC, _TILES_MAGIC):
        return None if _sealed(blob) else (
            f"index record {key!r} failed its CRC32 trailer")
    try:
        (_read_tiled_index if key.endswith(".tiles") else _read_index)(
            blob, key)
    except SegmentCorruptionError as exc:
        return str(exc)
    return None


# -- index records ----------------------------------------------------------
#
# ``<name>.index`` and ``<name>.tiles`` are binary records, version 3
# (little-endian), each ending in the CRC32 of all the bytes before it:
#
#   <4sH        magic (b"MDRI" for .index, b"MDRT" for .tiles), version
#   <B          string count, then per string <H length + UTF-8 bytes
#
# .index:  <4BIIIdB   name, dtype, mode, design (string ids), num_levels,
#                     min_size, group_size, value_range, ndim D
#          <{D}Q      shape;  <B W + <{W}d level_weights;  <B levels
#          per level  <BQHidBHBH level, num_elements, num_bitplanes,
#                     exponent, max_abs, layout id, warp_size,
#                     signed_encoding id, group count G, then the three
#                     columns <{G}I bytes, <{G}B planes, <{G}I crc32
# .tiles:  strings [name, dtype];  <dB value_range, ndim D;  <{D}Q shape;
#          <{D}Q tile shape;  <I tile count T;  <{T}Q per-tile bytes
#
#   <I          CRC32
#
# No record holds a key: group g of level l is segment_key(name, l, g),
# the tiles are plan_tiles(shape, tile shape), and tile i's field is
# tile_field_name(name, tiles[i].index). A record without the magic is
# version 2, JSON, read by the converters below.

_HEADER = struct.Struct("<4sH")
_TRAILER = struct.Struct("<I")
_INDEX_FIELD, _INDEX_LEVEL = "<4BIIIdB", "<BQHidBHBH"
_INDEX_MAGIC, _TILES_MAGIC = b"MDRI", b"MDRT"
_RECORD_VERSION = 3
_RECORD_ERRORS = (ValueError, KeyError, TypeError, IndexError, struct.error)


def _seal(magic: bytes, strings: Sequence[str], *parts: bytes) -> bytes:
    """A record: header, string table, *parts*, CRC32 trailer."""
    encoded = [s.encode() for s in strings]
    body = b"".join([
        _HEADER.pack(magic, _RECORD_VERSION),
        struct.pack("<B", len(encoded)),
        *(struct.pack("<H", len(s)) + s for s in encoded),
        *parts,
    ])
    return body + _TRAILER.pack(zlib.crc32(body))


def _sealed(raw) -> bool:
    """Whether *raw* ends in the CRC32 of the bytes before it."""
    size = len(raw) - _TRAILER.size
    return size >= _HEADER.size and zlib.crc32(
        memoryview(raw)[:size]) == _TRAILER.unpack_from(raw, size)[0]


class _Cursor:
    """Reads a sealed record's fields front to back; reading past the
    last one is a ``struct.error``."""

    def __init__(self, raw, magic: bytes) -> None:
        if not _sealed(raw):
            raise ValueError(f"{len(raw)} bytes that fail the record's "
                             f"CRC32 trailer")
        got, version = _HEADER.unpack_from(raw)
        if got != magic or version != _RECORD_VERSION:
            raise ValueError(f"header {got!r} version {version}, not "
                             f"{magic!r} version {_RECORD_VERSION}")
        self._body = memoryview(raw)[:len(raw) - _TRAILER.size]
        self._at = _HEADER.size
        self.strings = []
        for _ in range(self.take("<B")[0]):
            (size,) = self.take("<H")
            self.strings.append(bytes(self.take(f"<{size}s")[0]).decode())

    def take(self, fmt: str) -> tuple:
        values = struct.unpack_from(fmt, self._body, self._at)
        self._at += struct.calcsize(fmt)
        return values

    def done(self) -> None:
        if self._at != len(self._body):
            raise ValueError(f"{len(self._body) - self._at} bytes past "
                             f"the record's last field")


def _index_record(field: RefactoredField, columns: list) -> bytes:
    """*field*'s ``.index`` record; ``columns[l]`` is level *l*'s
    ``(bytes, planes, crc32)`` lists."""
    dtype = np.dtype(field.dtype).name
    strings = list(dict.fromkeys([
        field.name, dtype, field.mode, field.design,
        *(s for lv in field.levels for s in (lv.layout, lv.signed_encoding)),
    ]))
    sid = {s: i for i, s in enumerate(strings)}
    parts = [
        struct.pack(
            _INDEX_FIELD, sid[field.name], sid[dtype], sid[field.mode],
            sid[field.design], field.num_levels, field.min_size,
            field.group_size, field.value_range, len(field.shape)),
        struct.pack(f"<{len(field.shape)}Q", *field.shape),
        struct.pack(f"<B{len(field.level_weights)}d",
                    len(field.level_weights), *field.level_weights),
        struct.pack("<B", len(field.levels)),
    ]
    for lv, (sizes, planes, crcs) in zip(field.levels, columns):
        n = len(sizes)
        parts.append(struct.pack(
            _INDEX_LEVEL, lv.level, lv.num_elements, lv.num_bitplanes,
            lv.exponent, lv.max_abs, sid[lv.layout], lv.warp_size,
            sid[lv.signed_encoding], n))
        parts.append(struct.pack(f"<{n}I{n}B{n}I", *sizes, *planes, *crcs))
    return _seal(_INDEX_MAGIC, strings, *parts)


def store_field(store, field: RefactoredField) -> bytes:
    """Write every plane group of *field* as its own segment.

    Then writes, and returns, the binary index record that
    :func:`load_field` / :func:`open_field` need, under
    ``<name>.index``: the field's metadata and, per level, each
    segment's serialized size, plane count and CRC32 — what lets
    :func:`open_field` plan retrievals without fetching a single group
    and lets every reader verify fetched bytes. Directory-backed stores
    get their manifest flushed once (via :meth:`DirectoryStore.batch`),
    not per segment.
    """
    columns = []
    batch = store.batch() if hasattr(store, "batch") else nullcontext()
    with batch:
        for lv in field.levels:
            sizes, planes, crcs = [], [], []
            for g, group in enumerate(lv.groups):
                blob = group.to_bytes()
                store.put(segment_key(field.name, lv.level, g), blob)
                sizes.append(len(blob))
                planes.append(group.num_planes)
                crcs.append(segment_checksum(blob))
            columns.append((sizes, planes, crcs))
        try:
            record = _index_record(field, columns)
        except struct.error as exc:
            raise ValueError(
                f"field {field.name!r} does not fit an index record: {exc}"
            ) from exc
        store.put(f"{field.name}.index", record)
    return record


def _read_index(raw, key: str) -> tuple[RefactoredField, list]:
    """Parse index record *key*'s blob into ``(field template,
    per-level SegmentRef lists)``.

    A binary record must pass its CRC32 trailer and parse to its last
    byte; a v2 JSON one must carry its full segment table (see
    :func:`_index_from_json`); either one's level metadata must be what
    an encoder writes (see :func:`_check_levels`). Anything else raises
    :class:`~repro.core.errors.SegmentCorruptionError` naming *key*.
    """
    try:
        parsed = (_index_from_record(raw) if bytes(raw[:4]) == _INDEX_MAGIC
                  else _index_from_json(raw))
        _check_levels(parsed[0])
        return parsed
    except _RECORD_ERRORS as exc:
        raise SegmentCorruptionError(
            f"index record {key!r} is corrupt: {exc}"
        ) from exc


#: Exponents of finite float64 data: 2^-1074 (the least subnormal) has
#: exponent -1073, and every double is below 2^1024.
_EXPONENTS = range(-1073, 1025)


def _check_levels(field: RefactoredField) -> None:
    """Raise ``ValueError`` naming the first level metadata value no
    encoder writes, before any decode kernel or bound meets it."""
    for lv in field.levels:
        for key, ok in (
            ("num_bitplanes", 1 <= lv.num_bitplanes <= MAX_BITPLANES),
            ("warp_size", lv.warp_size >= 1),
            ("layout", lv.layout in LAYOUTS),
            ("signed_encoding", lv.signed_encoding in SIGNED_ENCODINGS),
            ("max_abs", math.isfinite(lv.max_abs) and lv.max_abs >= 0),
            ("exponent", lv.exponent in _EXPONENTS),
        ):
            if not ok:
                raise ValueError(f"level {lv.level} has {key} "
                                 f"{getattr(lv, key)!r}")


def _index_from_record(raw) -> tuple[RefactoredField, list]:
    at = _Cursor(raw, _INDEX_MAGIC)
    s = at.strings
    (name, dtype, mode, design, num_levels, min_size, group_size,
     value_range, ndim) = at.take(_INDEX_FIELD)
    shape = at.take(f"<{ndim}Q")
    weights = list(at.take(f"<{at.take('<B')[0]}d"))
    levels, level_refs = [], []
    for _ in range(at.take("<B")[0]):
        (level, num_elements, num_bitplanes, exponent, max_abs, layout,
         warp_size, signed, n) = at.take(_INDEX_LEVEL)
        columns = at.take(f"<{n}I{n}B{n}I")
        if 0 in columns[n:2 * n]:
            raise ValueError(f"level {level} has a group of 0 planes")
        keys = [segment_key(s[name], level, g) for g in range(n)]
        level_refs.append(list(map(
            SegmentRef, keys, columns[:n], columns[n:2 * n], columns[2 * n:]
        )))
        levels.append(LevelStream(
            level=level, num_elements=num_elements,
            num_bitplanes=num_bitplanes, exponent=exponent,
            max_abs=max_abs, layout=s[layout], warp_size=warp_size,
            signed_encoding=s[signed],
        ))
    at.done()
    field = RefactoredField(
        shape=tuple(shape), dtype=np.dtype(s[dtype]), mode=s[mode],
        num_levels=num_levels, min_size=min_size, group_size=group_size,
        design=s[design], level_weights=weights, levels=levels,
        value_range=value_range, name=s[name],
    )
    return field, level_refs


def _index_from_json(raw) -> tuple[RefactoredField, list]:
    """The v2 converter: ``groups`` maps each level to a list of
    segment keys, and ``segments`` gives every listed key an int
    ``bytes >= 0``, ``planes >= 1`` and ``crc32``; ``field`` is the
    template's ``to_bytes()`` as hex."""
    index = json.loads(bytes(raw).decode())
    groups, segments = index["groups"], index["segments"]
    if not (isinstance(groups, dict) and isinstance(segments, dict)):
        raise ValueError("groups and segments must be objects")
    field = RefactoredField.from_bytes(bytes.fromhex(index["field"]))
    level_refs = []
    for lv in field.levels:
        keys = groups.get(str(lv.level), [])
        if not isinstance(keys, list):
            raise ValueError(f"level {lv.level} lists {keys!r}, not keys")
        refs = []
        for seg in keys:
            meta = segments.get(seg)
            if not (isinstance(meta, dict)
                    and type(meta.get("bytes")) is int
                    and type(meta.get("planes")) is int
                    and type(meta.get("crc32")) is int
                    and meta["bytes"] >= 0 and meta["planes"] >= 1):
                raise ValueError(f"segment {seg!r} has entry {meta!r}, "
                                 f"not {{bytes >= 0, planes >= 1, crc32}}")
            refs.append(SegmentRef(seg, meta["bytes"], meta["planes"],
                                   meta["crc32"]))
        level_refs.append(refs)
    return field, level_refs


def load_field(store, name: str):
    """Load a field's metadata and every segment, *eagerly*.

    One batched read of every segment up front: the baseline read
    path the end-to-end retrieval benchmarks time; services answering
    tolerance queries should prefer :func:`open_field`, which defers
    each segment fetch until a decode touches it.

    The index record and every fetched segment are checked (the record
    against its own trailer, a segment against its index-recorded
    CRC32): a mismatch is re-fetched once (wire flips heal), then
    raised as :class:`~repro.core.errors.SegmentCorruptionError`.
    """
    key = f"{name}.index"
    blobs, errors, _, _ = verified_many(store, [key], {})
    field, level_refs = _read_index(finish_batch([key], blobs, errors)[0],
                                    key)
    wanted = [ref for refs in level_refs for ref in refs]
    keys = [ref.key for ref in wanted]
    blobs, errors, _, _ = verified_many(
        store, keys, {ref.key: ref.crc32 for ref in wanted})
    finish_batch(keys, blobs, errors)
    for lv, refs in zip(field.levels, level_refs):
        lv.groups = [parse_group(ref.key, blobs[ref.key]) for ref in refs]
    return field


def tiled_index_key(name: str) -> str:
    """Store key of a tiled field's index record: ``<name>.tiles``."""
    if "/" in name or "\0" in name:
        raise ValueError(f"invalid variable name {name!r}")
    return f"{name}.tiles"


def tile_field_name(name: str, index: Sequence[int]) -> str:
    """Name of tile *index*'s sub-field of tiled field *name*, e.g.
    ``var.T0_1_0``."""
    return f"{name}.T" + "_".join(map(str, index))


def store_tiled_field(store, tiled) -> bytes:
    """Write a :class:`~repro.core.tiling.TiledField` tile by tile.

    Every tile's sub-field goes through :func:`store_field` (per-segment
    keys under the tile's own name, e.g. ``var.T0_1_0.L2.G3``), and one
    binary tiled index record — domain shape/dtype/value range, the
    tile shape, and each tile's stored size — lands under
    ``<name>.tiles``. The tiles must be the regular grid of
    :class:`~repro.core.tiling.TiledRefactorer` (``plan_tiles`` of the
    first tile's shape, named by :func:`tile_field_name`), which the
    record rebuilds rather than lists. Directory-backed stores get their
    manifest flushed once for the whole write (the per-tile
    :func:`store_field` batches nest inside this one), not per tile or
    per segment.

    Returns the tiled index record that :func:`open_tiled_field` reads.
    """
    from repro.core.tiling import plan_tiles

    ndim = len(tiled.shape)
    tile_shape = tiled.tiles[0].shape if tiled.tiles else (1,) * ndim
    if list(tiled.tiles) != plan_tiles(tiled.shape, tile_shape):
        raise ValueError(
            f"tiled field {tiled.name!r} is not the regular grid of "
            f"{tile_shape} tiles over {tuple(tiled.shape)}"
        )
    tile_bytes = []
    batch = store.batch() if hasattr(store, "batch") else nullcontext()
    with batch:
        for tile, field in zip(tiled.tiles, tiled.fields):
            if field.name != tile_field_name(tiled.name, tile.index):
                raise ValueError(
                    f"tile {tile.index} is named {field.name!r}, not "
                    f"{tile_field_name(tiled.name, tile.index)!r}"
                )
            store_field(store, field)
            tile_bytes.append(field.total_bytes())
        record = _seal(
            _TILES_MAGIC, [tiled.name, np.dtype(tiled.dtype).name],
            struct.pack(f"<dB{ndim}Q{ndim}QI{len(tile_bytes)}Q",
                        tiled.value_range, ndim, *tiled.shape, *tile_shape,
                        len(tile_bytes), *tile_bytes),
        )
        store.put(tiled_index_key(tiled.name), record)
    return record


def _read_tiled_index(raw, key: str) -> dict:
    """Parse tiled index record *key*'s blob into the keywords of a
    :class:`~repro.core.tiling.LazyTiledField` (bar ``store`` /
    ``cache``), checked like :func:`_read_index`."""
    try:
        if bytes(raw[:4]) == _TILES_MAGIC:
            return _tiles_from_record(raw)
        return _tiles_from_json(raw)
    except _RECORD_ERRORS as exc:
        raise SegmentCorruptionError(
            f"tiled index record {key!r} is corrupt: {exc}"
        ) from exc


def _tiles_from_record(raw) -> dict:
    from repro.core.tiling import plan_tiles

    at = _Cursor(raw, _TILES_MAGIC)
    name, dtype = at.strings
    value_range, ndim = at.take("<dB")
    shape, tile_shape = at.take(f"<{ndim}Q"), at.take(f"<{ndim}Q")
    (count,) = at.take("<I")
    tile_bytes = list(at.take(f"<{count}Q"))
    at.done()
    if 0 in tile_shape or count != math.prod(
            -(-s // t) for s, t in zip(shape, tile_shape)):
        raise ValueError(f"{count} tiles do not cover {shape} in "
                         f"{tile_shape} tiles")
    tiles = plan_tiles(shape, tile_shape)
    return dict(
        shape=tuple(shape), dtype=np.dtype(dtype), tiles=tiles,
        tile_field_names=[tile_field_name(name, t.index) for t in tiles],
        tile_bytes=tile_bytes, value_range=value_range, name=name,
    )


def _tiles_from_json(raw) -> dict:
    """The v2 converter: every tile's placement and field name listed."""
    from repro.core.tiling import TileSpec

    index = json.loads(bytes(raw).decode())
    tiles = index["tiles"]
    names = [t["field"] for t in tiles]
    if not all(isinstance(n, str) for n in [index["name"], *names]):
        raise ValueError("field names must be strings")
    return dict(
        shape=tuple(int(s) for s in index["shape"]),
        dtype=np.dtype(index["dtype"]),
        tiles=[TileSpec(index=tuple(t["index"]), offset=tuple(t["offset"]),
                        shape=tuple(t["shape"])) for t in tiles],
        tile_field_names=names,
        tile_bytes=[int(t["bytes"]) for t in tiles],
        value_range=float(index["value_range"]),
        name=index["name"],
    )


def open_tiled_field(store, name: str, cache=None):
    """Open a stored field lazily as a tiled field, of either layout.

    A tiled field reads only its ``<name>.tiles`` index record (through
    *cache* when given, exactly like :func:`open_field`, and checked
    before it is cached); each tile's sub-field opens — fetching its
    own index — on first touch, so a region-of-interest reconstruction
    over the returned :class:`~repro.core.tiling.LazyTiledField` pays
    the backing store only for the tiles its hyperslab overlaps. An
    untiled field (no ``<name>.tiles`` key: a manifest lookup, not a
    read) opens as a one-tile field whose tile is the field
    :func:`open_field` just opened; the stored format is the same
    either way.
    """
    from repro.core.tiling import LazyTiledField, one_tile_field

    tiled_key, index_key = tiled_index_key(name), f"{name}.index"
    if tiled_key not in store:
        if index_key not in store:
            raise SegmentNotFoundError(
                f"no tiled or untiled field {name!r} in store (neither "
                f"{tiled_key!r} nor {index_key!r})"
            )
        field = open_field(store, name, cache=cache)
        return one_tile_field(field, store=store, cache=cache)
    resolver = cache if cache is not None else _ColdResolver(store)
    raw = finish_batch([tiled_key], *resolver.resolve_settled([tiled_key]))
    return LazyTiledField(**_read_tiled_index(raw[0][0], tiled_key),
                          store=store, cache=cache)


def open_field(store, name: str, cache=None) -> LazyRefactoredField:
    """Open a stored field lazily: fetch segments on first decode touch.

    *store* holds ``<name>.index`` plus the segments :func:`store_field`
    wrote. With a *cache* (a shared :class:`repro.core.service
    .SegmentCache`, or anything with ``resolve_settled(keys,
    expected=None) -> ({key: (blob, cold)}, {key: error})``) every read,
    the index record's too, routes through it, so sessions share segment
    bytes and warm opens skip the store; without one every read is cold.
    A segment read passes *expected*, ``{key: crc32}`` from its
    :class:`SegmentRef` s, and the resolver checks each blob it reads
    from the store (re-fetched once on a mismatch, then
    :class:`~repro.core.errors.SegmentCorruptionError`); an index
    record names no CRC but is checked against its own (a v2 JSON one
    by parsing), before a cache keeps it. Planning runs on index
    metadata alone, and only the plane groups a reconstruction decodes
    are fetched.
    """
    return finish_batch([name], *open_fields(store, [name], cache))[0]


def open_fields(
    store, names: Sequence[str], cache=None
) -> tuple[dict, dict]:
    """:func:`open_field` of every name, reading their index records in
    one request; settled as ``({name: field}, {name: error})``.

    The fields share one resolver (*cache*, or a cold verifying reader
    of *store*), so their plane groups can be fetched together too
    (:func:`~repro.core.stream.fetch_fields`).
    """
    resolver = cache if cache is not None else _ColdResolver(store)
    keys = [f"{name}.index" for name in names]
    blobs, failed = resolver.resolve_settled(keys)
    fields = {}
    for name, key in zip(names, keys):
        if key in failed:
            failed[name] = failed.pop(key)
            continue
        try:
            template, level_refs = _read_index(blobs[key][0], key)
        except SegmentCorruptionError as exc:
            failed[name] = exc
            continue
        fields[name] = LazyRefactoredField(
            template, level_refs, resolver.resolve_settled)
    return fields, failed


class _ColdResolver:
    """The cache-less resolver of :func:`open_fields`: every read goes
    to *store*, CRC-verified against *expected* (``{key: crc32}``)."""

    def __init__(self, store) -> None:
        self._store = store

    def resolve_settled(
        self, keys: Sequence[str], expected: Mapping[str, int] | None = None
    ) -> tuple[dict, dict]:
        blobs, errors, _, _ = verified_many(self._store, keys, expected or {})
        return {key: (blob, True) for key, blob in blobs.items()}, errors


__all__ = [
    "SegmentReader",
    "MemoryStore",
    "DirectoryStore",
    "segment_key",
    "settle_many",
    "segment_checksum",
    "tiled_index_key",
    "tile_field_name",
    "store_field",
    "load_field",
    "open_field",
    "open_fields",
    "store_tiled_field",
    "open_tiled_field",
]
