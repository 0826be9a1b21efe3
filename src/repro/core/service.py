"""Store-backed retrieval service: many sessions, one segment cache.

The paper's progressive-retrieval economics assume each tolerance query
fetches only the bitplane increments it needs. A server answering many
tolerance queries over many variables additionally wants those fetches
*shared*: two analysts asking for the same variable at the same
tolerance should pay the backing store once. This module provides that
layer:

* :class:`SegmentCache` — a byte-budgeted, thread-safe LRU over raw
  segment blobs, fronting any :class:`~repro.core.store.SegmentReader`;
* :class:`RetrievalService` — multiplexes concurrent progressive
  sessions and :func:`~repro.qoi.retrieval.retrieve_qoi` calls over one
  shared cache, with optional background prefetch of each session's next
  planned plane group, on a small
  :class:`~repro.core.backends.ThreadPool` it owns. For QoI calls it
  keeps one :class:`~repro.core.reconstruct.Reconstructor` per variable
  until :meth:`~RetrievalService.close`: each call still plans as a
  fresh call would and gets exactly a fresh call's answer, but decodes
  only the plane groups no earlier call has, and replays, rather than
  recomputes, an iteration an earlier call already answered;
* :class:`Session` — one client's stateful progressive session over a
  variable, run by a :class:`~repro.core.tiling.TiledReconstructor`. An
  untiled variable opens as a one-tile field, so every variable is
  served by the same engine; the tile is the unit of overlap.

Everything decodes from zero-copy views of the cached blobs. The cache
budget bounds the bytes the *shared* cache itself keeps resident; each
live session additionally memoizes the segments it has touched (so its
own refinement steps never refetch), releasing them when the session's
field is dropped.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from concurrent.futures import CancelledError, Future

from collections.abc import Mapping, Sequence

from repro.core.backends import ClosesOnExit, ThreadPool
from repro.core.errors import BATCH_ERRORS, finish_batch
from repro.core.reconstruct import Reconstructor
from repro.core.store import open_field, open_tiled_field, verified_many
from repro.core.stream import SegmentRef
from repro.core.tiling import (
    LazyTiledField,
    TiledReconstructionResult,
    TiledReconstructor,
)


class SegmentCache:
    """Byte-budgeted LRU cache of raw segment blobs.

    Parameters
    ----------
    reader:
        Backing :class:`~repro.core.store.SegmentReader`; misses read
        through it.
    max_bytes:
        Resident-byte budget. Inserting past it evicts least-recently-used
        entries until the budget holds again; a single blob larger than
        the whole budget is served but never cached (counted in
        ``oversize``).

    Cache state is guarded by an internal lock, but backing-store reads
    happen *outside* it: concurrent misses on different keys fetch in
    parallel, cache hits never wait on an in-flight disk read, and
    concurrent misses on the *same* key are deduplicated through a
    shared in-flight future (the store is read once; the followers count
    as hits because they cost no extra store read). :meth:`resolve_settled`
    sends all of a batch's misses to the store in one batched read.

    A key :meth:`prefetch` read cold is marked until it is evicted: the
    first later hit on it, an entry hit or a follower of the prefetch's
    own in-flight read, counts in ``prefetch_hits``.
    """

    def __init__(self, reader, max_bytes: int = 256 << 20) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        self._reader = reader
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._inflight: dict[str, Future] = {}
        self._prefetched: set[str] = set()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0
        self.evictions = 0
        self.oversize = 0
        self.corruption_refetches = 0
        self.corruption_failures = 0
        self.prefetch_hits = 0

    def resolve_settled(
        self, keys: Sequence[str], expected: Mapping[str, int] | None = None
    ) -> tuple[dict, dict]:
        """Resolve *keys* as ``({key: (blob, cold)}, {key: error})``.

        Hits refresh their recency and reuse the already-verified bytes
        without re-hashing. The misses this call leads go to the backing
        store in one batched read (without holding the cache lock), are
        checked against their CRC32 in *expected* (``{key: crc32}``;
        an index record checks itself) — a mismatch is re-fetched once
        (``corruption_refetches``), a second one fails the key
        (``corruption_failures``) and is not cached — and are inserted,
        evicting LRU entries past the budget. Misses another call is
        already reading piggyback on its in-flight future, which carries
        only that key's outcome. The keys that arrive are cached whether
        or not others failed.
        """
        return self._resolve(keys, expected or {}, prefetch=False)

    def prefetch(self, key: str, crc32: int) -> None:
        """Make *key* resident ahead of need, verified against *crc32*,
        raising its read error.

        When this call reads the key cold, it is marked: the first later
        hit on it counts in ``prefetch_hits``. A prefetch's own hit does
        not.
        """
        _, errors = self._resolve([key], {key: crc32}, prefetch=True)
        if errors:
            raise errors[key]

    def get(self, key: str) -> bytes:
        """The blob alone, read with no expected CRC (an index record
        still checks itself): a batch of one, raising its error."""
        return finish_batch([key], *self.resolve_settled([key]))[0][0]

    def _resolve(
        self, keys: Sequence[str], expected: Mapping[str, int],
        prefetch: bool,
    ) -> tuple[dict, dict]:
        # A prefetch marks the keys it reads cold and credits no hit.
        out: dict = {}
        lead: list[str] = []
        follow: list[tuple[str, Future]] = []
        with self._lock:
            for key in dict.fromkeys(keys):
                blob = self._entries.get(key)
                if blob is not None:
                    self._entries.move_to_end(key)
                    self._hit(key, blob, prefetch)
                    out[key] = (blob, False)
                elif key in self._inflight:
                    follow.append((key, self._inflight[key]))
                else:
                    self._inflight[key] = Future()
                    lead.append(key)
        errors: dict = {}
        if lead:
            try:
                blobs, errors, refetched, failed = verified_many(
                    self._reader, lead, expected
                )
            except BaseException as exc:
                with self._lock:
                    futures = [self._inflight.pop(key) for key in lead]
                for future in futures:
                    future.set_exception(exc)
                raise
            with self._lock:
                self.corruption_refetches += refetched
                self.corruption_failures += failed
                futures = [self._inflight.pop(key) for key in lead]
                for key, blob in blobs.items():
                    self.misses += 1
                    self.miss_bytes += len(blob)
                    self._insert(key, blob)
                    if prefetch and key in self._entries:
                        self._prefetched.add(key)
                    out[key] = (blob, True)
            for key, future in zip(lead, futures):
                if key in blobs:
                    future.set_result(blobs[key])
                else:
                    future.set_exception(errors[key])
        for key, pending in follow:
            try:
                blob = pending.result()  # piggyback on the in-flight read
            except BATCH_ERRORS as exc:
                errors[key] = exc
                continue
            with self._lock:
                self._hit(key, blob, prefetch)
            out[key] = (blob, False)
        return out, errors

    def _hit(self, key: str, blob: bytes, prefetch: bool) -> None:
        self.hits += 1
        self.hit_bytes += len(blob)
        if not prefetch and key in self._prefetched:
            self._prefetched.discard(key)
            self.prefetch_hits += 1

    def _insert(self, key: str, blob: bytes) -> None:
        if len(blob) > self.max_bytes:
            self.oversize += 1
            return
        self._entries[key] = blob
        self.current_bytes += len(blob)
        while self.current_bytes > self.max_bytes:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._prefetched.discard(evicted_key)
            self.current_bytes -= len(evicted)
            self.evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of key lookups served without a store read."""
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._prefetched.clear()
            self.current_bytes = 0

    def stats(self) -> dict:
        """Counter snapshot, JSON-ready."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_bytes": self.hit_bytes,
                "miss_bytes": self.miss_bytes,
                "hit_rate": self.hit_rate,
                "evictions": self.evictions,
                "oversize": self.oversize,
                "corruption_refetches": self.corruption_refetches,
                "corruption_failures": self.corruption_failures,
            }


class Session(ClosesOnExit):
    """One client's progressive session over a variable.

    Wraps a :class:`~repro.core.tiling.TiledReconstructor` on a lazily
    opened :class:`~repro.core.tiling.LazyTiledField` whose per-tile
    segment fetches all route through the service's shared
    :class:`SegmentCache`; an untiled variable is a one-tile field.
    Region-of-interest steps touch (open, fetch, decode) only the tiles
    the hyperslab overlaps, and each touched tile keeps its incremental
    decode state across staircase steps. After each step the service
    may prefetch every touched tile's next planned plane group in the
    background. Per-step traffic is the delta of :meth:`stats` across
    the step.
    """

    def __init__(
        self,
        service: "RetrievalService",
        tiled: LazyTiledField,
        num_workers: int = 0,
        backend: str | None = None,
        pipelined: bool = False,
    ) -> None:
        self.service = service
        self.tiled = tiled
        self.reconstructor = TiledReconstructor(
            tiled, num_workers=num_workers, backend=backend,
            pipelined=pipelined,
        )
        self._last_prefetch_keys: list[str] = []

    def reconstruct(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        region: Sequence | None = None,
        on_fault: str = "raise",
    ) -> TiledReconstructionResult:
        """One progressive step — see
        :meth:`~repro.core.tiling.TiledReconstructor.reconstruct`.

        ``on_fault="degrade"`` answers faulted tiles from their last
        committed refinement (zeros if never opened); the result's
        ``degraded``/``failed_tiles`` report what fell back, and a later
        call at the same tolerance retries only the failed increments.

        Every step first cancels the previous step's still-queued
        prefetches: whichever route runs the step fetches those keys
        itself (prefetches that already landed still pay off as cache
        hits).
        """
        self.service.cancel_stale_prefetches(self._last_prefetch_keys)
        out = self.reconstructor.reconstruct(
            tolerance=tolerance, relative=relative, region=region,
            on_fault=on_fault,
        )
        self._last_prefetch_keys = self.service._schedule_prefetch(
            self.reconstructor.touched_reconstructors()
        )
        return out

    @property
    def fetched_bytes(self) -> int:
        """Cumulative payload bytes fetched across touched tiles."""
        return self.reconstructor.fetched_bytes

    @property
    def tiles_touched(self) -> int:
        """Tiles whose reconstructors (decode state) exist so far."""
        return len(self.reconstructor.touched_tiles)

    @property
    def decode_state_bytes(self) -> int:
        """Resident bytes of retained incremental decode state across
        this session's touched tiles."""
        return self.reconstructor.decode_state_bytes()

    def stats(self) -> dict:
        """This session's progressive-state accounting, JSON-ready:
        its reconstructor's counters, every read through the shared
        cache."""
        c = self.reconstructor.counters()
        return {
            "tiles": self.tiled.num_tiles,
            "tiles_touched": self.tiles_touched,
            "fetched_bytes": c.fetched_bytes,
            "decode_state_bytes": c.decode_state_bytes,
            "segment_reads": c.segment_reads,
            "cold_bytes": c.cold_bytes,
            "cache_hit_bytes": c.cache_hit_bytes,
        }

    def close(self) -> None:
        """Tear down the session's decode thread pool (idempotent)."""
        with self.service._sessions_lock:
            self.service._sessions.discard(self)
        self.reconstructor.close()


#: Width of the service's background prefetch pool.
_PREFETCH_WORKERS = 2


def _store_bears_latency(store) -> bool:
    """True when *store* really charges per-access latency.

    That is a ``latency_s > 0`` it sleeps — its own or, through wrapper
    ``__getattr__`` passthrough (:class:`~repro.core.faults
    .FaultInjectingStore`, :class:`~repro.core.faults.ResilientReader`),
    the one it fronts. A :class:`~repro.core.store.DirectoryStore`'s
    ``file_open_latency_s`` only feeds ``io_time_estimate`` and is never
    slept, so it does not count: over a zero-latency store a pipelined
    session pays two-batch bookkeeping for nothing.
    """
    value = getattr(store, "latency_s", None)
    return isinstance(value, (int, float)) and value > 0


class RetrievalService(ClosesOnExit):
    """Multiplex progressive retrieval sessions over one segment cache.

    Parameters
    ----------
    store:
        Backing :class:`~repro.core.store.SegmentReader` holding fields
        written by :func:`~repro.core.store.store_field`.
    cache_bytes:
        Byte budget of the shared :class:`SegmentCache`.
    prefetch:
        When true, each session step schedules a background warm of the
        next unfetched plane group per level — the segments a tighter
        follow-up tolerance would need first — hiding store latency
        behind client compute.

    The service object is safe to share across threads: sessions are
    independent, and the cache serializes its own state.
    """

    def __init__(
        self,
        store,
        cache_bytes: int = 256 << 20,
        prefetch: bool = False,
    ) -> None:
        self.store = store
        self.cache = SegmentCache(store, max_bytes=cache_bytes)
        self.prefetch = bool(prefetch)
        self._closed = False  # guarded by the futures lock
        self.prefetch_requests = 0
        self.prefetch_failures = 0
        self.prefetch_cancelled = 0
        self.prefetch_skipped = 0
        self._prefetch_futures: list = []
        # Queued-but-unfinished warms by key (cancellation targets),
        # guarded, with the counters above, by the futures lock.
        self._prefetch_pending: dict[str, Future] = {}
        self._futures_lock = threading.Lock()
        # Runs the prefetch warms and nothing else; it is no execution
        # backend, so neither ``REPRO_BACKEND`` nor a session's
        # ``num_workers`` sizes it.
        self._prefetch_threads = ThreadPool()
        # Live sessions, tracked weakly so abandoned sessions (never
        # close()d) don't leak; stats() reports their retained
        # decode-state residency. The lock covers add/discard/iteration
        # (WeakSet defers GC removals during iteration, but not
        # concurrent adds from other threads).
        self._sessions: "weakref.WeakSet[Session]" = weakref.WeakSet()
        self._sessions_lock = threading.Lock()
        # One opened field and Reconstructor per QoI variable, kept for
        # the service's life: a QoI call decodes only the plane groups
        # no earlier call has. Beside them, the outcomes of the Algorithm
        # 3 iterations they answered, so a call that plans what an
        # earlier one did replays it. The lock runs one call at a time
        # on both.
        self._qoi_recons: dict[str, Reconstructor] = {}
        self._qoi_memo = None  # a qoi.retrieval._IterationMemo, made on use
        self._qoi_lock = threading.Lock()

    def open(self, name: str) -> LazyTiledField:
        """Open variable *name*, tiled or not, through the shared cache.

        An untiled variable comes back as a one-tile field (see
        :func:`~repro.core.store.open_tiled_field`). Each call returns a
        fresh field (sessions must not share progressive state); the
        segment bytes behind every tile are shared through the service
        cache — two sessions touching the same tile pay the backing
        store once.
        """
        return open_tiled_field(self.store, name, cache=self.cache)

    def session(
        self,
        name: str,
        num_workers: int = 0,
        backend: str | None = None,
        pipelined: bool | None = None,
    ) -> Session:
        """Start a progressive session over variable *name*.

        ``num_workers``/``backend`` are forwarded to the session's
        :class:`~repro.core.tiling.TiledReconstructor` for concurrent
        per-tile decoding; they are independent of the service's
        prefetch pool. The session supports region-of-interest steps
        (``reconstruct(region=...)``). Reads run in this process,
        through the shared cache, under every backend: ``processes``
        steps like ``serial``.

        ``pipelined=None`` (the default) turns the per-tile pipelined
        fetch/decode overlap on exactly when the backing store bears
        per-access latency; pass ``True``/``False`` to force it.
        """
        if pipelined is None:
            pipelined = _store_bears_latency(self.store)
        session = Session(
            self, self.open(name), num_workers=num_workers,
            backend=backend, pipelined=pipelined,
        )
        with self._sessions_lock:
            self._sessions.add(session)
        return session

    # The frozen end-to-end benchmark harness still opens sessions
    # under this name.
    tiled_session = session

    def retrieve_qoi(self, qoi, tolerance: float, **kwargs):
        """QoI-controlled retrieval over lazily-opened variables.

        Runs Algorithm 3 (:func:`repro.qoi.retrieval.retrieve_qoi`;
        ``kwargs`` are forwarded: ``method``, ``initial_bounds``, ...)
        on one :class:`~repro.core.reconstruct.Reconstructor` per
        variable, opened through the shared cache on first use and kept
        until :meth:`close`. A call plans as a fresh call would and
        gets exactly its answer, bit for bit; the kept decode state only
        spares it the plane groups an earlier call already decoded, and
        an iteration that plans what an earlier call's did, and cannot
        end this call, replays that iteration's recorded outcome without
        fetching, recomposing or estimating (``stats()["qoi"]``). The
        result's ``cold_bytes``/``cache_hit_bytes`` report the segment
        traffic the call really caused (none when earlier calls decoded
        everything it needs). A bad argument raises ``ValueError``
        before any segment is read. Calls run one at a time; after
        :meth:`close` each call opens its variables afresh and replays
        only its own iterations.
        """
        from repro.qoi.retrieval import _IterationMemo, _retrieve

        with self._futures_lock:
            closed = self._closed
        with self._qoi_lock:
            if closed:
                kept, memo = {}, _IterationMemo()
            else:
                kept = self._qoi_recons
                if self._qoi_memo is None:
                    self._qoi_memo = _IterationMemo()
                memo = self._qoi_memo
            recons = {}
            for name in sorted(qoi.variables()):
                if name not in kept:
                    kept[name] = Reconstructor(
                        open_field(self.store, name, cache=self.cache))
                recons[name] = kept[name]
            return _retrieve(recons, memo, qoi, tolerance, **kwargs)

    # -- prefetch ---------------------------------------------------------
    def _schedule_prefetch(self, recons: Sequence[Reconstructor]) -> list[str]:
        """Warm each reconstructor's next unfetched, uncached group per
        level in the background; returns the store keys queued. One
        scheduling round however many tiles a step touched — the
        futures lock is shared across sessions."""
        if not self.prefetch:
            return []
        refs = [
            lv.refs[have]
            for recon in recons
            for lv, have in zip(recon.field.levels, recon.fetched_groups)
            if have < len(lv.refs) and lv.refs[have].key not in self.cache
        ]
        self._enqueue_prefetch(refs)
        return [ref.key for ref in refs]

    def _enqueue_prefetch(self, refs: list[SegmentRef]) -> None:
        """Submit background warms for *refs* under one lock round."""
        if not refs:
            return
        with self._futures_lock:
            if self._closed:
                # The asking step still answers through the cache; a
                # closed service must not re-create the pool it closed.
                return
            pool = self._prefetch_threads.executor(_PREFETCH_WORKERS)
            self._prefetch_futures = [
                f for f in self._prefetch_futures if not f.done()
            ]
            for ref in refs:
                self.prefetch_requests += 1
                future = pool.submit(self._safe_warm, ref)
                self._prefetch_pending[ref.key] = future
                self._prefetch_futures.append(future)

    def _safe_warm(self, ref: SegmentRef) -> None:
        """Speculative cache warm of *ref*'s segment, verified against
        its CRC32: failures are counted, never raised.

        A prefetched segment the client never asked for must not crash
        anything; if the client *does* ask for it later, the resolve
        retries the store and surfaces the real error then. A key that
        became resident since it was queued (a session's own fetch beat
        the prefetch pool to it) is skipped without touching the cache
        counters, so a warm never credits itself; the cache credits a
        later read of a key this warm pulled cold as a prefetch hit.
        """
        with self._futures_lock:
            self._prefetch_pending.pop(ref.key, None)
        try:
            if ref.key in self.cache:
                with self._futures_lock:
                    self.prefetch_skipped += 1
                return
            self.cache.prefetch(ref.key, ref.crc32)
        except Exception:  # reprolint: disable=R2 -- speculative warm: the resolve path retries and surfaces the real error
            with self._futures_lock:
                self.prefetch_failures += 1

    def cancel_stale_prefetches(self, keys) -> int:
        """Cancel still-queued prefetch warms for *keys*; return count.

        Every session step calls this with the previous step's warms,
        which the step is about to fetch anyway: a warm that has not
        started yet would only duplicate scheduling work, so it is
        pulled from the queue (``prefetch_cancelled``). Warms already
        running — or already landed — are left alone; landed ones still
        pay off as cache hits.
        """
        cancelled = 0
        with self._futures_lock:
            for key in keys:
                future = self._prefetch_pending.pop(key, None)
                if future is not None and future.cancel():
                    cancelled += 1
                    self.prefetch_cancelled += 1
        return cancelled

    def drain_prefetch(self) -> None:
        """Block until every scheduled prefetch has settled.

        Prefetch failures never raise here (they are speculative), and
        warms cancelled by :meth:`cancel_stale_prefetches` are simply
        skipped; see ``prefetch_failures``/``prefetch_cancelled``.
        """
        with self._futures_lock:
            futures, self._prefetch_futures = self._prefetch_futures, []
        for f in futures:
            try:
                f.result()
            except CancelledError:
                pass

    def stats(self) -> dict:
        """Cache counters plus backing-store read accounting, JSON-ready.

        ``sessions`` reports the live progressive sessions and the bytes
        their incremental decode engines keep resident (integer partials
        plus cached level values) — the memory the service trades for
        refinement steps that decode only the increment.
        """
        with self._sessions_lock:
            sessions = list(self._sessions)
        with self._qoi_lock:
            qoi_state = sum(
                r.decode_state_bytes() for r in self._qoi_recons.values())
            memo = self._qoi_memo
            qoi = {"memo_entries": 0 if memo is None else len(memo),
                   "memo_hits": 0 if memo is None else memo.hits}
        with self._futures_lock:
            prefetch_requests = self.prefetch_requests
            prefetch_failures = self.prefetch_failures
            prefetch_cancelled = self.prefetch_cancelled
            prefetch_skipped = self.prefetch_skipped
        return {
            "cache": self.cache.stats(),
            "prefetch_requests": prefetch_requests,
            "prefetch_failures": prefetch_failures,
            "prefetch_hits": self.cache.prefetch_hits,
            "prefetch_cancelled": prefetch_cancelled,
            "prefetch_skipped": prefetch_skipped,
            "store_reads": getattr(self.store, "reads", None),
            "store_bytes_read": getattr(self.store, "bytes_read", None),
            "sessions": {
                "open": len(sessions),
                "decode_state_bytes": qoi_state + sum(
                    s.decode_state_bytes for s in sessions
                ),
                # Decode state exists only for tiles a reconstruction
                # touched.
                "tiles_touched": sum(s.tiles_touched for s in sessions),
            },
            # The kept QoI iteration outcomes, and the iterations they
            # answered without a fetch, recompose or estimate.
            "qoi": qoi,
        }

    def close(self) -> None:
        """Stop scheduling, drain prefetches, stop the pool, drop the
        kept QoI reconstructors and iteration outcomes (idempotent)."""
        with self._futures_lock:
            self._closed = True
        with self._qoi_lock:
            self._qoi_recons.clear()
            self._qoi_memo = None
        try:
            self.drain_prefetch()
        finally:
            self._prefetch_threads.close()


__all__ = [
    "SegmentCache",
    "RetrievalService",
    "Session",
]
