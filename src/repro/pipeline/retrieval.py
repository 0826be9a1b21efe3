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

The runtime implements the DAG edges: every item's fetch is submitted
up front, so later items fetch while earlier ones decode (``X_{i-1} →
I_i``), and commits retire in item order as decodes complete
(``X_{i+1} → O_i``). Resident fetched-but-undecoded data is bounded by
the item count, which the caller keeps small — a pipelined step hands
over :data:`FETCH_WORKERS` tile batches. The runtime never reorders
*store accesses* within a work item: each item's fetch is one
sequential chain in the sequential path's exact key order, so seeded
fault schedules (:class:`~repro.core.faults.FaultInjectingStore` draws
are keyed on per-key access counts) replay identically pipelined or
not — the foundation of the chaos-parity guarantee. A stage failure
drains the in-flight fetches and then surfaces on the earliest item,
exactly where the sequential route would have raised it.

The work item is a tile batch: :class:`~repro.core.tiling
.TiledReconstructor` splits a step's tiles into :data:`FETCH_WORKERS`
batches and hands :func:`run_window` its two batch stage functions —
the same two its sequential route composes as ``decode(batch,
fetch(batch))`` — and the executor of the thread pool it owns, which on
a pipelined engine runs nothing but this fetch stage. The fetch-stage
width lives here and nowhere else, as :data:`FETCH_WORKERS`.
"""

from __future__ import annotations

from concurrent.futures import wait

#: Width of the fetch stage, and the tile batches a pipelined step is
#: split into. Store I/O blocks on the network/disk and releases the
#: GIL, so a couple of fetch threads overlap many tiles' latency.
FETCH_WORKERS = 2


def run_window(executor, items, fetch, decode, commit=None):
    """Stream *items* through ``fetch → decode → commit``.

    Every item's ``fetch(item)`` is submitted to *executor* at once —
    stage contract: capture expected store faults in the returned
    outcome rather than raising, so they surface in item order at
    decode time. ``decode(item, fetched)`` and ``commit(item,
    decoded)`` run on the caller thread, in item order, whatever the
    engine's execution backend (decode state and output writes stay
    single-threaded). Commit's return value,
    when a commit hook is given, replaces the stored result — letting
    the caller retire bulky decoded blocks immediately instead of
    retaining them.

    Results keep item order. An exception from any stage cancels the
    fetches not yet started, waits for the running ones, and propagates
    — because items are retired strictly in item order, the first
    exception raised is the earliest item's failure, matching the
    sequential fan-out's failure choice.
    """
    items = list(items)
    fetches: list = []
    results: list = []
    try:
        for item in items:
            fetches.append(executor.submit(fetch, item))
        for item, fut in zip(items, fetches):
            value = decode(item, fut.result())
            if commit is not None:
                value = commit(item, value)
            results.append(value)
    except BaseException:
        # Drain before propagating: no stage may outlive the step (a
        # fetch landing after the caller moved on would race the
        # session's next step).
        for fut in fetches:
            fut.cancel()
        wait(fetches)  # their failures stay unread
        raise
    return results


__all__ = ["FETCH_WORKERS", "run_window"]
