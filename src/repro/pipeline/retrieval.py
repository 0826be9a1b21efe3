"""Staged pipeline runtime for real progressive retrieval (Fig. 4).

The seed :mod:`repro.pipeline.dag`/:mod:`~repro.pipeline.scheduler`
modules model the paper's reconstruction pipeline — per sub-domain
``I_i → X_i → R_i → O_i`` with the pipelined dependencies
``X_{i-1} → I_i`` (prefetch delayed past the exclusive lossless stage)
and ``X_{i+1} → O_i`` — on simulated HDEM engines. This module runs the
same discipline on the *actual* retrieval stack, where the stages map
onto host-side resources instead of DMA engines:

=================  ====================================================
Fig. 4 stage       Retrieval runtime stage
=================  ====================================================
``I`` (input)      segment fetch: store I/O through the lazy field's
                   resolver (:class:`~repro.core.service.SegmentCache`,
                   :class:`~repro.core.faults.ResilientReader`), run on
                   this pipeline's small fetch thread pool
``X`` (lossless)   plane-group decompress + bitplane injection, on the
                   caller thread
``R``/``O``        recompose + commit of the decoded block into the
                   stitched output, on the caller thread
=================  ====================================================

The window rules implement the DAG edges: a work item's fetch may start
while earlier items decode (``X_{i-1} → I_i`` — the fetch stage runs at
most ``window`` items ahead, bounding resident fetched-but-undecoded
data at O(window)), and commits retire in order as decodes complete
(``X_{i+1} → O_i``). The runtime never reorders *store accesses* within
a work item: each item's fetch is one sequential chain in the
sequential path's exact key order, so seeded fault schedules
(:class:`~repro.core.faults.FaultInjectingStore` draws are keyed on
per-key access counts) replay identically pipelined or not — the
foundation of the chaos-parity guarantee. A stage failure drains the
in-flight window and then surfaces on the earliest item, exactly where
the sequential route would have raised it.

The work item is a tile: :class:`~repro.core.tiling.TiledReconstructor`
hands :meth:`RetrievalPipeline.run` its two per-tile stage functions,
the same two its sequential route composes as ``decode(job,
fetch(job))``. The window and fetch-pool sizes live here and nowhere
else, as :class:`RetrievalPipeline`'s constructor defaults.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.core._pool import track_thread_pool


class RetrievalPipeline:
    """Bounded-window fetch/decode/commit driver for retrieval steps.

    Owns a small dedicated fetch thread pool (store I/O blocks on the
    network/disk and releases the GIL, so a couple of fetch workers
    overlap many tiles' latency) and the in-flight window bound.
    Decode and commit run on the caller thread, whatever the host's
    execution backend; the process backend keeps its own
    worker-resident overlap and does not route through this class.

    One instance is reusable across steps and sessions;
    :meth:`close` tears the fetch pool down (idempotent). Thread
    safety: the fetch pool handle is guarded by the instance lock;
    ``window``/``fetch_workers`` are immutable after construction.
    """

    def __init__(self, window: int = 4, fetch_workers: int = 2) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if fetch_workers < 1:
            raise ValueError("fetch_workers must be >= 1")
        self.window = int(window)
        self.fetch_workers = int(fetch_workers)
        self._lock = threading.Lock()
        self._fetch_pool: ThreadPoolExecutor | None = None

    def _fetch_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._fetch_pool is None:
                pool = ThreadPoolExecutor(max_workers=self.fetch_workers)
                track_thread_pool(pool)
                self._fetch_pool = pool
            return self._fetch_pool

    def run(self, items, fetch, decode, commit=None) -> list:
        """Stream *items* through ``fetch → decode → commit``.

        ``fetch(item)`` runs on this pipeline's fetch pool, at most
        ``window`` items in flight (fetched or decoding, not yet
        committed) — stage contract: capture expected store faults in
        the returned outcome rather than raising, so they surface in
        item order at decode time. ``decode(item, fetched)`` and
        ``commit(item, decoded)`` run on the caller thread (decode state
        and output writes stay single-threaded); commit's return value,
        when a commit hook is given, replaces the stored result —
        letting the caller retire bulky decoded blocks immediately
        instead of retaining them.

        Results keep item order. An exception from any stage stops new
        work, drains the in-flight window, and propagates — because
        items are retired strictly in item order, the first exception
        raised is the earliest item's failure, matching the sequential
        fan-out's failure choice.
        """
        items = list(items)
        results: list = [None] * len(items)
        pool = self._fetch_executor()
        fetches: deque = deque()  # (index, future), item order
        cursor = 0
        held = 0  # head popped off `fetches`, decoding on this thread

        def refill() -> None:
            nonlocal cursor
            while cursor < len(items) and len(fetches) + held < self.window:
                fetches.append((cursor, pool.submit(fetch, items[cursor])))
                cursor += 1

        try:
            refill()
            while fetches:
                index, fut = fetches.popleft()
                fetched = fut.result()
                held = 1
                refill()  # fetch ahead while this item decodes
                value = decode(items[index], fetched)
                if commit is not None:
                    value = commit(items[index], value)
                results[index] = value
                held = 0
                refill()  # window == 1: no fetch-ahead slot existed
        except BaseException:
            # Drain the window before propagating: no stage may outlive
            # the step (a fetch landing after the caller moved on would
            # race the session's next step).
            for _, fut in fetches:
                fut.cancel()
            for _, fut in fetches:
                try:
                    fut.result()
                except BaseException:
                    pass  # drained failures surface via the primary error
            raise
        return results

    def close(self) -> None:
        """Shut down the fetch pool (idempotent)."""
        with self._lock:
            pool, self._fetch_pool = self._fetch_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "RetrievalPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["RetrievalPipeline"]
