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
``I`` (input)      segment fetch, one request per tile batch, through
                   the lazy fields' resolver (:class:`~repro.core
                   .service.SegmentCache`, :class:`~repro.core.faults
                   .ResilientReader`), on the two-wide fetch stage
``X`` (lossless)   plane-group decompress + bitplane injection over the
                   batch, on the caller thread
``R``/``O``        one recompose of the batch + commit of its blocks
                   into the stitched output, on the caller thread
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

The work item is a tile batch: :class:`~repro.core.tiling
.TiledReconstructor` splits a step's tiles into :data:`FETCH_WORKERS`
batches and hands :func:`run_window` its two batch stage functions —
the same two its sequential route composes as ``decode(batch,
fetch(batch))`` — and the executor of the thread pool it owns, which on
a pipelined engine runs nothing but this fetch stage. The window and
fetch-stage widths live here and nowhere else, as :data:`WINDOW` and
:data:`FETCH_WORKERS`.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import wait

#: Items (tile batches) in flight at once: fetched or decoding, not yet
#: committed.
WINDOW = 4
#: Width of the fetch stage, and the tile batches a pipelined step is
#: split into. Store I/O blocks on the network/disk and releases the
#: GIL, so a couple of fetch threads overlap many tiles' latency.
FETCH_WORKERS = 2


def run_window(executor, items, fetch, decode, commit=None, window=WINDOW):
    """Stream *items* through ``fetch → decode → commit``.

    ``fetch(item)`` runs on *executor*, at most *window* items in
    flight (fetched or decoding, not yet committed) — stage contract:
    capture expected store faults in the returned outcome rather than
    raising, so they surface in item order at decode time.
    ``decode(item, fetched)`` and ``commit(item, decoded)`` run on the
    caller thread, whatever the engine's execution backend (decode
    state and output writes stay single-threaded; the process backend
    keeps its own worker-resident overlap and does not come through
    here). Commit's return value, when a commit hook is given, replaces
    the stored result — letting the caller retire bulky decoded blocks
    immediately instead of retaining them.

    Results keep item order. An exception from any stage stops new
    work, drains the in-flight window, and propagates — because items
    are retired strictly in item order, the first exception raised is
    the earliest item's failure, matching the sequential fan-out's
    failure choice.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    items = list(items)
    results: list = [None] * len(items)
    fetches: deque = deque()  # (index, future), item order
    cursor = 0
    held = 0  # head popped off `fetches`, decoding on this thread

    def refill() -> None:
        nonlocal cursor
        while cursor < len(items) and len(fetches) + held < window:
            fetches.append((cursor, executor.submit(fetch, items[cursor])))
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
        wait([fut for _, fut in fetches])  # their failures stay unread
        raise
    return results


__all__ = ["WINDOW", "FETCH_WORKERS", "run_window"]
