"""Typed error taxonomy for the segment I/O and compute paths.

Real storage tiers fail in qualitatively different ways, and a caller's
correct reaction differs per way:

* the segment does not exist (:class:`SegmentNotFoundError`) — retrying
  is pointless, the request itself is wrong or the campaign incomplete;
* the store hiccuped (:class:`TransientStoreError`) — a timeout, a
  dropped connection, a flaky filesystem read; retrying with backoff is
  exactly right (:class:`~repro.core.faults.RetryPolicy`);
* the bytes came back wrong (:class:`SegmentCorruptionError`) — a
  checksum mismatch or an unparseable record; one re-fetch may heal a
  path-level flip, but persistent corruption must surface loudly rather
  than crash decoders with ``struct.error`` three layers down.

Every store-facing component raises from this taxonomy. For backward
compatibility the classes also subclass the builtin exceptions the
pre-taxonomy code leaked (``KeyError`` for missing segments,
``ValueError`` for malformed streams), so existing ``except`` clauses
keep working while new callers can classify precisely.

The *compute* tier has its own branch rooted at :class:`ComputeError`:
the process backend's workers (a tiled refactor's pool) can crash or
hang past a deadline. Those failures are not storage faults: reads run
in the caller's process and degrade on store faults alone.
"""

from __future__ import annotations


class StoreError(Exception):
    """Base of every segment-store failure this package raises.

    ``except StoreError`` is the catch-all for "the storage tier, not
    the math, went wrong" — the class the degraded-mode retrieval path
    (``reconstruct(..., on_fault="degrade")``) treats as a fault.
    """


class SegmentNotFoundError(StoreError, KeyError):
    """A requested segment key is not in the store.

    Subclasses ``KeyError`` so pre-taxonomy callers (and dict-like
    idioms) keep working; *not* retryable — the key will not appear by
    asking again.
    """


class TransientStoreError(StoreError):
    """The store failed in a way a retry may heal.

    Timeouts, interrupted reads, throttling, flaky filesystem errors.
    The default :class:`~repro.core.faults.RetryPolicy` classification
    retries exactly these (plus corruption, which one re-fetch can heal
    when the flip happened on the wire).
    """


class SegmentCorruptionError(StoreError, ValueError):
    """A fetched blob failed verification or cannot be parsed.

    Raised on CRC32 mismatches against the index-recorded checksum and
    on structurally-invalid persisted records (truncated indexes,
    garbled manifests, segments shorter than their recorded byte
    count). Subclasses ``ValueError`` because the pre-taxonomy parsers
    raised that for malformed streams.
    """


class StoreFormatError(StoreError):
    """A store root is in an on-disk layout this code does not read.

    Raised when a :class:`~repro.core.store.DirectoryStore` root holds
    the pre-pack one-file-per-segment layout or a manifest ``format``
    newer than this code. The bytes are intact, so this is neither
    corruption nor retryable: the message names the layout and the
    remedy (re-run ``store_field`` into a new root).
    """


class ComputeError(Exception):
    """Base of every execution-backend failure this package raises.

    The compute-tier sibling of :class:`StoreError`: "the machinery
    running the work, not the math or the storage, went wrong".
    """


class WorkerCrashedError(ComputeError, RuntimeError):
    """A pool worker died before returning its pending results.

    Raised by :class:`~repro.core.backends.ProcessBackend` when a
    worker's death could not be healed: the replacement worker(s) also
    died running the same task (poison-task quarantine), or a
    replacement could not be brought up at all. Subclasses
    ``RuntimeError`` because the pre-taxonomy backend raised that.
    """


class WorkerTimeoutError(WorkerCrashedError, TimeoutError):
    """A task exceeded its deadline and its worker was killed.

    The deadline path (``map_calls(..., deadline=)`` or the pool-level
    default) kills the hung worker, respawns its slot, and settles the
    call with this error instead of blocking the dispatching thread
    forever. Subclasses ``TimeoutError`` for callers that classify
    timeouts generically.
    """


#: Errors a retry may heal: transient faults, and corruption (one
#: re-fetch heals a wire-level flip). ``SegmentNotFoundError`` is
#: deliberately absent. ``TimeoutError`` covers per-attempt timeouts
#: raised below this package (e.g. a socket layer).
RETRYABLE_ERRORS: tuple[type[BaseException], ...] = (
    TransientStoreError,
    SegmentCorruptionError,
    TimeoutError,
)

#: What a batched read (``settle_many``) settles per key instead of raising
#: at once: the store taxonomy plus the builtins third-party readers
#: raise (a bare ``KeyError`` for a missing key, ``TimeoutError``).
BATCH_ERRORS: tuple[type[BaseException], ...] = (
    StoreError,
    KeyError,
    TimeoutError,
)


def finish_batch(keys, values: dict, errors: dict) -> list:
    """Close a settled batched read: *values* in *keys* order, or raise.

    Library layers pass batches between each other settled, as
    ``({key: value}, {key: error})``; a reader's or the cache's ``get``
    (a batch of one) and :func:`~repro.core.store.load_field` close one
    here. When any
    key failed, the error of the first failed key in *keys* order (the
    key a per-key loop would have raised on) is raised.
    """
    for key in keys:
        if key in errors:
            raise errors[key]
    return [values[key] for key in keys]


__all__ = [
    "StoreError",
    "SegmentNotFoundError",
    "TransientStoreError",
    "SegmentCorruptionError",
    "StoreFormatError",
    "ComputeError",
    "WorkerCrashedError",
    "WorkerTimeoutError",
    "RETRYABLE_ERRORS",
    "BATCH_ERRORS",
    "finish_batch",
]
