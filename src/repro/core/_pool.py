"""Shared worker-pool lifecycle for the pipeline classes.

:class:`WorkerPoolMixin` gives a class one lazily-created worker pool
reused across calls, an idempotent :meth:`close`, context-manager
support, and best-effort teardown on garbage collection. Hosts define
:meth:`_pool_size` (their ``num_workers``) and fan independent jobs out
with :meth:`map_jobs`. The hosts are the two tiled engines (a worker
count means *tiles at a time*) and the retrieval service (its prefetch
pool); an untiled ``Refactorer`` or ``Reconstructor`` is serial and is
not one.

Which pool that is comes from :mod:`repro.core.backends`: an explicit
``backend`` attribute on the host, the ``REPRO_BACKEND`` environment
override, or the historical ``num_workers`` rule (``> 1`` means a
thread pool, else a serial loop). The ``processes`` kind routes through
the shared :class:`~repro.core.backends.ProcessBackend` — picklable
jobs run truly parallel, closures fall back to the serial loop (the
engines' hot paths use dedicated process task functions instead of
this generic path).

Two hardening guarantees hold for every host:

* **Nested submission cannot deadlock.** A job running *on* the host's
  own thread pool that calls :meth:`map_jobs` again is detected (worker
  thread idents are recorded at pool spin-up) and runs its jobs
  serially in place — a saturated ``ThreadPoolExecutor`` does not steal
  work, so the old behaviour was a hang.
* **Leaked pools cannot hang interpreter shutdown.** Thread pools
  register in a module-level ``atexit`` registry that shuts them down
  without waiting; process backends carry their own registry (plus
  daemonic workers) in :mod:`repro.core.backends`.
"""

from __future__ import annotations

import atexit
import threading
import weakref
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

from repro.core.backends import (
    BackendSpec,
    resolve_backend,
    shared_process_backend,
)

_Job = TypeVar("_Job")
_Out = TypeVar("_Out")

#: Guards lazy pool creation. A host can be shared across threads (a
#: service's sessions step concurrently and all schedule prefetches),
#: so first touches can race; unsynchronized double-creation would leak
#: an executor whose threads close() never reaches. Creation is rare —
#: one process-wide lock costs nothing.
_POOL_CREATE_LOCK = threading.Lock()

#: Live thread pools, shut down (without waiting) at interpreter exit so
#: a host that was never close()d cannot stall shutdown on idle workers.
_LIVE_THREAD_POOLS: "weakref.WeakSet[ThreadPoolExecutor]" = weakref.WeakSet()


def _shutdown_thread_pools() -> None:
    for pool in list(_LIVE_THREAD_POOLS):
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # reprolint: disable=R2 -- atexit hook: executor state is arbitrary at interpreter shutdown and raising would mask other exit handlers
            pass


atexit.register(_shutdown_thread_pools)


def track_thread_pool(pool: ThreadPoolExecutor) -> None:
    """Register an externally-owned pool for exit-time shutdown.

    Hosts outside this module (the pipelined-retrieval fetch pool)
    get the same leaked-pool guarantee as :class:`WorkerPoolMixin`
    pools: interpreter exit shuts them down without waiting.
    """
    _LIVE_THREAD_POOLS.add(pool)


class WorkerPoolMixin:
    """Lazy, instance-shared worker pool with deterministic teardown."""

    _pool: ThreadPoolExecutor | None = None
    #: Explicit backend override (``"serial"``/``"threads"``/
    #: ``"processes"``, optionally ``":N"``); ``None`` defers to the
    #: ``REPRO_BACKEND`` environment variable and then ``num_workers``.
    backend: str | None = None

    def _pool_size(self) -> int:
        raise NotImplementedError

    def _backend_spec(self) -> BackendSpec:
        """The host's resolved execution backend (kind, workers)."""
        return resolve_backend(
            getattr(self, "backend", None), self._pool_size()
        )

    def _process_backend(self):
        """The shared process pool sized for this host's spec."""
        return shared_process_backend(self._backend_spec().workers)

    def _worker_pool(self) -> ThreadPoolExecutor:
        """The host's thread pool (prefetch, thread-backend fan-out)."""
        if self._pool is None:
            with _POOL_CREATE_LOCK:
                if self._pool is None:
                    spec = self._backend_spec()
                    size = (
                        spec.workers
                        if spec.kind == "threads" and spec.workers > 1
                        else max(1, self._pool_size())
                    )
                    idents: set[int] = set()
                    pool = ThreadPoolExecutor(
                        max_workers=size,
                        initializer=lambda: idents.add(
                            threading.get_ident()
                        ),
                    )
                    self._pool_thread_idents = idents
                    _LIVE_THREAD_POOLS.add(pool)
                    self._pool = pool
        return self._pool

    def _in_own_pool(self) -> bool:
        """True when the calling thread is one of this host's workers."""
        return threading.get_ident() in getattr(
            self, "_pool_thread_idents", ()
        )

    def map_jobs(
        self, fn: Callable[[_Job], _Out], jobs: Sequence[_Job]
    ) -> list[_Out]:
        """``[fn(j) for j in jobs]``, through the backend when it helps.

        Results keep job order. A serial backend, a single job, or a
        single worker runs the plain loop — a default (serial) host
        never pays pool overhead. Re-entrant submission from one of the
        host's own worker threads also runs serially in place instead
        of deadlocking the saturated pool. Under the process backend,
        unpicklable *fn*/jobs (closures) fall back to the serial loop —
        the engines route their hot paths through dedicated process
        tasks rather than this generic method.
        """
        spec = self._backend_spec()
        if spec.kind == "serial" or spec.workers <= 1 or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        if spec.kind == "processes":
            return self._process_backend().map_jobs(fn, jobs)
        if self._in_own_pool():
            return [fn(job) for job in jobs]
        return list(self._worker_pool().map(fn, jobs))

    def close(self) -> None:
        """Shut down the instance's worker pool (idempotent).

        The shared process backend is deliberately *not* closed here —
        it is process-wide and torn down by its own ``atexit`` registry
        (hosts with worker-resident sessions drop them in their own
        ``close`` overrides).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # reprolint: disable=R2 -- GC-time teardown: an exception in __del__ is unactionable and would only print noise
            pass
