"""Execution backends: serial, threads, and true-parallel processes.

Everything that decides *where* a tiled engine's tiles run lives here:
the selection rule (:func:`resolve_backend`) and the two mechanisms it
selects between — :class:`ThreadPool`, a handle its owner holds, and
:class:`ProcessBackend`, one pool shared process-wide. Untiled engines
are serial and use neither. Each side takes the route that pays:
a tiled refactor fans out only on ``processes`` (threads measured
0.87–0.95x of the serial loop — the NumPy kernels release the GIL but
the Python glue between them does not), so ``threads`` refactors run
the serial loop; reads run in the caller's process, fan tiles out on
``threads``, and a ``processes`` read steps like a serial one.

Backend selection (:func:`resolve_backend`) has three tiers, strongest
first:

1. an explicit ``backend=`` argument on the tiled engine;
2. the ``REPRO_BACKEND`` environment variable (``serial``, ``threads``,
   ``processes``, optionally ``kind:N`` to pin the worker count) — the
   switch that re-runs an entire existing test suite under a different
   backend without touching a line of it;
3. the engine's ``num_workers``: ``> 1`` means threads (the historical
   behaviour), else serial.

Inside a worker process every engine resolves to serial regardless of
the above — process pools never nest.

:class:`ThreadPool` is owned, never inherited, and each owner uses its
pool for one purpose: a ``pipelined=False`` tiled reconstructor for the
``threads:N`` tile fan-out, a ``pipelined=True`` one for the fetch stage
of its steps (decode runs on the caller, ``map``'s ``then=``), the
retrieval service for its prefetch warms. :meth:`ThreadPool.map` is the
one batch runner of a tiled step. A serial owner never starts a thread.

:class:`ProcessBackend` keeps long-lived daemon workers connected over
pipes. Tasks are addressed by ``"module:function"`` name (never by
pickling code objects). A task message carries its call — a write
task's tile block and refactor config — and the installed fault
schedule (:meth:`ProcessBackend.install_chaos`), if any; nothing
reaches a worker out of band. Typed exceptions
(:mod:`repro.core.errors`) pickle cleanly and are re-raised in the
parent with their class and arguments intact, so retry/degrade
classification works identically across the process boundary.

Every live process pool is registered for ``atexit`` teardown (workers
are additionally daemonic), and the interpreter joins idle thread-pool
workers itself before any ``atexit`` handler runs, so a leaked pool can
never hang interpreter shutdown.

The process pool is *self-healing*: a worker that dies mid-task is
replaced in place and the in-flight message is requeued under a
bounded per-task budget — it carries everything the task needs, so the
replacement is sent nothing else. A task that keeps killing its
workers is quarantined — settled as *that call's*
:class:`~repro.core.errors.WorkerCrashedError` while the rest of the
batch completes. A hung-but-alive worker is bounded by per-call
deadlines (``map_calls(..., deadline=)``): on expiry the worker is
killed and respawned and the call settles as a
:class:`~repro.core.errors.WorkerTimeoutError`. Respawns, retries,
quarantines, and deadline kills are counted on the backend
(:meth:`ProcessBackend.health`).
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time
import traceback
import uuid
import weakref
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait

from repro.core.errors import (
    ComputeError,
    WorkerCrashedError,
    WorkerTimeoutError,
)

#: Environment override: ``serial`` / ``threads`` / ``processes``,
#: optionally suffixed ``:N`` to pin the worker count (``processes:4``).
BACKEND_ENV = "REPRO_BACKEND"
#: Optional multiprocessing start-method override (``fork`` / ``spawn`` /
#: ``forkserver``); the platform default is used when unset.
START_METHOD_ENV = "REPRO_MP_START"

BACKEND_KINDS = ("serial", "threads", "processes")

_JOIN_TIMEOUT_S = 5.0
_POLL_INTERVAL_S = 0.05
#: terminate → join budget before escalating to SIGKILL when reaping a
#: dead or condemned worker (and again after the kill).
_REAP_TIMEOUT_S = 1.0
#: Per-task crash-retry budget: a task may kill this many workers and
#: still be retried; one more death quarantines it.
_MAX_TASK_RETRIES = 2

# Set in worker processes only: the nested-pool guard resolve_backend
# consults so an engine configured with num_workers=4 stays serial when
# it is *itself* running inside a pool worker.
_IN_WORKER = False


def default_process_workers() -> int:
    """Worker count when a parallel backend is forced without one."""
    return max(1, min(4, os.cpu_count() or 1))


class BackendSpec(tuple):
    """Resolved execution backend: ``(kind, workers)``.

    A tuple subclass so call sites can unpack it; ``workers`` is the
    effective fan-out width (0 for serial).
    """

    def __new__(cls, kind: str, workers: int) -> "BackendSpec":
        return super().__new__(cls, (kind, int(workers)))

    @property
    def kind(self) -> str:
        return self[0]

    @property
    def workers(self) -> int:
        return self[1]

    @property
    def threads(self) -> int:
        """Width of the thread fan-out: 0 unless the kind is ``threads``."""
        return self.workers if self.kind == "threads" else 0


def parse_backend_spec(spec: str) -> tuple[str, int | None]:
    """Parse ``"kind"`` or ``"kind:N"`` into ``(kind, workers | None)``."""
    text = str(spec).strip().lower()
    workers: int | None = None
    if ":" in text:
        text, _, count = text.partition(":")
        try:
            workers = int(count)
        except ValueError:
            raise ValueError(
                f"invalid backend worker count in {spec!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"backend worker count must be >= 1: {spec!r}")
    if text not in BACKEND_KINDS:
        raise ValueError(
            f"backend must be one of {BACKEND_KINDS}, got {spec!r}"
        )
    return text, workers


def resolve_backend(
    explicit: str | None = None, num_workers: int = 0
) -> BackendSpec:
    """Resolve the effective execution backend for one engine.

    Precedence: the in-worker guard (always serial — pools never nest),
    then an explicit ``backend=`` argument, then the ``REPRO_BACKEND``
    environment variable, then the historical ``num_workers`` rule
    (``> 1`` means threads, else serial). A forced parallel kind whose
    caller did not size the pool (``num_workers <= 1`` and no ``:N``
    suffix) defaults to :func:`default_process_workers`.
    """
    if _IN_WORKER:
        return BackendSpec("serial", 0)
    kind: str
    workers: int | None
    if explicit is not None:
        kind, workers = parse_backend_spec(explicit)
    else:
        env = os.environ.get(BACKEND_ENV)
        if env:
            kind, workers = parse_backend_spec(env)
        else:
            kind = "threads" if num_workers and num_workers > 1 else "serial"
            workers = None
    if kind == "serial":
        return BackendSpec("serial", 0)
    if workers is None:
        workers = (
            int(num_workers)
            if num_workers and num_workers > 1
            else default_process_workers()
        )
    return BackendSpec(kind, workers)


# -- thread pools ----------------------------------------------------------

class ClosesOnExit:
    """``with owner:`` calls ``owner.close()`` on exit (stateless)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _result_only(job, result):
    return result


class ThreadPool:
    """A thread pool its owner holds: lazy, and usable again after close."""

    def __init__(self) -> None:
        # First touches race (a service's sessions all schedule
        # prefetches); an unlocked double creation would leak an
        # executor that close() never reaches.
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None

    def executor(self, workers: int) -> ThreadPoolExecutor:
        """The executor, created *workers* wide on first use."""
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=workers)
            return self._executor

    def map(
        self, fn: Callable, jobs: Sequence, workers: int,
        then: Callable | None = None,
    ) -> list:
        """``[fn(j) for j in jobs]``, up to *workers* jobs at a time.

        With *then*, each result is ``then(job, fn(job))``: *then* runs
        on the calling thread, in job order, as each ``fn`` lands, while
        later jobs keep running on the pool — the in-order stage of a
        pipelined step. ``workers <= 1`` or a single job is the plain
        loop: a serial owner never starts a thread. When ``fn`` or
        *then* raises, the queued jobs are cancelled and the running
        ones waited for before the earliest failure (in job order)
        propagates — no job outlives the call.
        """
        if then is None:
            then = _result_only
        if workers <= 1 or len(jobs) <= 1:
            return [then(job, fn(job)) for job in jobs]
        executor = self.executor(workers)
        futures = [executor.submit(fn, job) for job in jobs]
        try:
            return [then(job, future.result())
                    for job, future in zip(jobs, futures)]
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise

    def close(self) -> None:
        """Join and drop the executor (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


def task_name(fn: Callable) -> str:
    """Stable ``"module:function"`` address of a module-level function.

    Process workers resolve tasks by this name through a normal import,
    so no code object ever crosses the pipe — the same mechanism under
    ``fork`` and ``spawn`` start methods.
    """
    qualname = fn.__qualname__
    if "." in qualname or "<" in qualname:
        raise ValueError(
            f"process tasks must be module-level functions, got {qualname!r}"
        )
    return f"{fn.__module__}:{qualname}"


_RESOLVED_TASKS: dict[str, Callable] = {}


def _resolve_task(name: str) -> Callable:
    fn = _RESOLVED_TASKS.get(name)
    if fn is None:
        module, _, attr = name.partition(":")
        fn = getattr(importlib.import_module(module), attr)
        _RESOLVED_TASKS[name] = fn
    return fn


# -- exception transport ---------------------------------------------------

def _encode_exc(exc: BaseException) -> tuple:
    """Encode an exception for the pipe, preserving its type when possible.

    Typed store errors (no custom ``__init__``) round-trip through
    pickle with class and args intact; anything unpicklable degrades to
    a ``RuntimeError`` carrying the original repr and traceback text.
    """
    tb = traceback.format_exc()
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
        return ("pickle", payload, tb)
    except Exception:  # reprolint: disable=R2 -- exception transport: an unpicklable exception degrades to its repr by design
        return ("repr", f"{type(exc).__name__}: {exc}", tb)


def _decode_exc(encoded: tuple) -> BaseException:
    if encoded[0] == "pickle":
        exc = pickle.loads(encoded[1])
        exc.remote_traceback = encoded[2]
        return exc
    exc = RuntimeError(
        f"process worker raised an unpicklable exception: {encoded[1]}"
    )
    exc.remote_traceback = encoded[2]
    return exc


# -- worker main loop ------------------------------------------------------

def _worker_main(task_conn, result_conn) -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # A forked worker inherits the parent's backend registry (and, with
    # it, pipe fds of sibling pools). Neutralize the copies so a clean
    # worker exit never runs teardown against the parent's pools.
    _LIVE_BACKENDS.clear()
    global _SHARED_BACKEND
    _SHARED_BACKEND = None
    state: dict = {}
    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        seq, name, args, chaos = message
        try:
            # The installed fault schedule, if any: kill modes never
            # return, "raise" settles as an ordinary task failure.
            if chaos is not None:
                pickle.loads(chaos).before_task(seq, name)
            result = _resolve_task(name)(state, *args)
            out = (seq, True, result)
        except BaseException as exc:  # reprolint: disable=R2 -- worker loop: every failure is encoded and shipped; the host re-raises it typed
            out = (seq, False, _encode_exc(exc))
        try:
            result_conn.send(out)
        except Exception as exc:  # reprolint: disable=R2 -- converted to a transportable RuntimeError below
            try:
                result_conn.send((
                    seq, False,
                    _encode_exc(RuntimeError(
                        f"task {name!r} produced an unpicklable result: "
                        f"{exc}"
                    )),
                ))
            except Exception:  # reprolint: disable=R2 -- pipe is gone: exit the loop so the host's crash detection takes over
                break
    try:
        result_conn.close()
        task_conn.close()
    except Exception:  # reprolint: disable=R2 -- worker exit path; the host only observes the process ending
        pass


# -- built-in tasks --------------------------------------------------------

def _task_apply(state, fn, job):
    """Generic ``map_jobs`` task: apply a picklable function to a job."""
    return fn(job)


def _task_ping(state):
    return os.getpid()


class _Worker:
    __slots__ = ("process", "task_conn", "result_conn")

    def __init__(self, process, task_conn, result_conn) -> None:
        self.process = process
        self.task_conn = task_conn
        self.result_conn = result_conn


class ProcessBackend(ClosesOnExit):
    """A pool of persistent worker processes addressed by task name.

    Workers are daemonic, started lazily on first dispatch, and reused
    across calls — warm per-shape refactorers survive between
    :meth:`map_calls` rounds. ``generation`` increments every time the
    worker set is (re)created or a slot respawned and ``uid`` names the
    pool instance itself; both are telemetry (:meth:`health`) that
    nothing keys on.

    Dispatch is a barrier: one thread at a time feeds tasks
    (round-robin, at most one in flight per worker) while draining
    results, returning only when every call settled. A task failure is
    re-raised in the parent *after* the drain, with the
    earliest-submitted failure winning — mirroring the serial loop's
    first-failure semantics while keeping the pipes consistent.

    The pool heals itself instead of dying with its workers. A worker
    that crashes mid-task is respawned *in place* and its message, fault
    schedule included, is retried on the replacement under the
    ``_MAX_TASK_RETRIES`` budget; a task that outlives it is
    quarantined as that call's :class:`WorkerCrashedError` while the
    rest of the batch completes (the same local-settlement contract as
    unpicklable jobs). Per-call deadlines (``map_calls(deadline=)``)
    bound hung-but-alive workers: on expiry the worker is killed and
    respawned and the call settles as :class:`WorkerTimeoutError`. ``respawns`` / ``task_retries`` /
    ``quarantines`` / ``deadline_kills`` count every recovery action
    (snapshot via :meth:`health`; reset by :meth:`close`).
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self._workers: list[_Worker] | None = None
        self._lock = threading.RLock()
        # The installed fault schedule, pickled once; every task message
        # carries it (None when no schedule is installed).
        self._chaos: bytes | None = None
        self.uid = uuid.uuid4().hex
        self.generation = 0
        self.tasks_dispatched = 0
        self.respawns = 0
        self.task_retries = 0
        self.quarantines = 0
        self.deadline_kills = 0
        # Teardown is fenced to the creating process: a forked child
        # inherits this object (and dup'd pipe fds), and its GC/atexit
        # must never send shutdown sentinels to the owner's workers.
        self._owner_pid = os.getpid()
        _LIVE_BACKENDS.add(self)

    # -- lifecycle --------------------------------------------------------
    @property
    def alive(self) -> bool:
        with self._lock:
            return self._workers is not None and all(
                w.process.is_alive() for w in self._workers
            )

    def _context(self):
        method = os.environ.get(START_METHOD_ENV)
        if method:
            return multiprocessing.get_context(method)
        return multiprocessing.get_context()

    def _spawn_worker(self, ctx) -> _Worker:
        task_r, task_w = ctx.Pipe(duplex=False)
        result_r, result_w = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(task_r, result_w),
            daemon=True,
        )
        process.start()
        # The parent keeps only its ends of each pipe.
        task_r.close()
        result_w.close()
        return _Worker(process, task_w, result_r)

    def _ensure(self) -> list[_Worker]:
        if self._workers is not None:
            return self._workers
        ctx = self._context()
        self.generation += 1
        workers = [self._spawn_worker(ctx) for _ in range(self.num_workers)]
        self._workers = workers
        return workers

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Retire one worker without leaving a zombie behind.

        ``join`` is what actually reaps a dead child — terminating
        without joining accumulates defunct processes for the life of
        the parent. Escalate to ``kill`` for a worker that ignores
        SIGTERM (e.g. hung in uninterruptible state) and join again.
        """
        process = worker.process
        if process.is_alive():
            process.terminate()
        process.join(timeout=_REAP_TIMEOUT_S)
        if process.is_alive():
            process.kill()
            process.join(timeout=_REAP_TIMEOUT_S)
        for conn in (worker.task_conn, worker.result_conn):
            try:
                conn.close()
            except Exception:  # reprolint: disable=R2 -- reaping a dead worker; a half-closed pipe is expected here
                pass

    def _respawn(self, index: int) -> None:
        """Replace the worker in *index*'s slot (call holding the lock).

        Nothing is said to the other workers, whose resident state stays
        warm, and nothing is sent to the replacement: every message
        carries its whole input, fault schedule included.
        """
        workers = self._workers
        assert workers is not None
        self._reap(workers[index])
        self.generation += 1
        workers[index] = self._spawn_worker(self._context())
        self.respawns += 1

    def close(self, timeout: float = _JOIN_TIMEOUT_S) -> None:
        """Stop the workers (idempotent). The pool restarts on next use.

        No-op in any process other than the one that created the pool:
        when a *different* backend forks workers, those children hold
        inherited references to this object, and releasing the last one
        (``_worker_main`` clears the shared-singleton global) would
        otherwise run ``__del__`` -> ``close()`` in the child and kill
        this pool's workers out from under the owning process.
        """
        if os.getpid() != self._owner_pid:
            return
        if not self._lock.acquire(timeout=timeout):
            # Another thread is mid-dispatch (map_calls holds the lock
            # for its whole feed+drain barrier). Tearing the workers
            # down underneath it would turn the in-flight batch into a
            # spurious WorkerCrashedError and race the unlocked
            # mutation of ``_workers`` — leave teardown to the atexit
            # registry / daemonic reaping instead.
            return
        try:
            workers, self._workers = self._workers, None
            self._chaos = None
            # A closed pool starts its next life with clean health
            # telemetry: the counters describe the current worker set's
            # recovery history, not the process's.
            self.respawns = 0
            self.task_retries = 0
            self.quarantines = 0
            self.deadline_kills = 0
        finally:
            self._lock.release()
        if not workers:
            return
        for worker in workers:
            try:
                worker.task_conn.send(None)
            except Exception:  # reprolint: disable=R2 -- a crashed worker cannot take the shutdown sentinel; the join + reap below still runs
                pass
        for worker in workers:
            worker.process.join(timeout=timeout)
        for worker in workers:
            self._reap(worker)

    def __del__(self) -> None:
        try:
            self.close(timeout=1.0)
        except Exception:  # reprolint: disable=R2 -- GC-time teardown; atexit + daemon workers are the real safety net
            pass

    def ensure_alive(self) -> int:
        """Spin the worker set up if needed; returns the generation."""
        with self._lock:
            self._ensure()
            return self.generation

    # -- dispatch ---------------------------------------------------------
    def map_calls(
        self,
        calls: Sequence[tuple[str, tuple]],
        *,
        deadline: float | None = None,
    ) -> list:
        """Run ``(task_name, args)`` calls; results in order.

        Call *i* goes to worker ``i % num_workers``. Dispatch
        interleaves feeding and draining with at most one task in
        flight per worker: a worker only ever receives a task while it
        is idle in ``recv`` with an empty result pipe, so neither side
        can block writing a large payload while the other is blocked
        writing its own (OS pipe buffers are ~64KB — sending a whole
        batch before draining deadlocks as soon as tasks and results
        together exceed them).

        A worker that dies mid-task is respawned in place and the task
        retried there under the per-task ``_MAX_TASK_RETRIES`` budget;
        past the budget the call is quarantined as a
        :class:`WorkerCrashedError` and the batch keeps going.
        *deadline* (seconds per task attempt) bounds hung-but-alive
        workers: on expiry the worker is killed and respawned and the
        call settles as :class:`WorkerTimeoutError`.

        Blocks until every call settled, then re-raises the
        earliest-submitted failure (typed exceptions survive the
        boundary intact).
        """
        if not calls:
            return []
        with self._lock:
            workers = self._ensure()
            queues: list[deque] = [deque() for _ in workers]
            for seq, (name, args) in enumerate(calls):
                queues[seq % len(workers)].append(
                    (seq, name, tuple(args), self._chaos)
                )
            self.tasks_dispatched += len(calls)
            results: list = [None] * len(calls)
            failures: list[tuple[int, BaseException]] = []
            # The exact message each worker is busy with (None = idle):
            # crash recovery needs the payload back to requeue it.
            inflight: list[tuple | None] = [None] * len(workers)
            sent_at = [0.0] * len(workers)
            crashes: dict[int, int] = {}
            settled = 0

            def feed(index: int) -> None:
                nonlocal settled
                while queues[index] and inflight[index] is None:
                    message = queues[index][0]
                    try:
                        workers[index].task_conn.send(message)
                    except (OSError, EOFError):
                        # The worker died while idle (nothing of this
                        # batch was on it): replace it and resend the
                        # same message on the fresh pipe.
                        self._respawn(index)
                        continue
                    except Exception as exc:  # reprolint: disable=R2 -- settled as this call's failure; map_calls raises it typed after the batch drains
                        # Unpicklable task arguments: the message never
                        # reached the worker, so settle it locally and
                        # keep the pipes consistent.
                        queues[index].popleft()
                        failures.append((message[0], exc))
                        settled += 1
                        continue
                    queues[index].popleft()
                    inflight[index] = message
                    sent_at[index] = time.monotonic()

            def crashed(index: int) -> None:
                """Worker *index* died with a task on it: heal or settle."""
                nonlocal settled
                message = inflight[index]
                inflight[index] = None
                process = workers[index].process
                pid, code = process.pid, process.exitcode
                self._respawn(index)
                if message is not None:
                    seq = message[0]
                    count = crashes[seq] = crashes.get(seq, 0) + 1
                    if count > _MAX_TASK_RETRIES:
                        self.quarantines += 1
                        failures.append((seq, WorkerCrashedError(
                            f"task {message[1]!r} (call #{seq}) killed "
                            f"{count} consecutive workers (last pid "
                            f"{pid}, exit code {code}); quarantined"
                        )))
                        settled += 1
                    else:
                        self.task_retries += 1
                        queues[index].appendleft(message)
                feed(index)

            def timed_out(index: int) -> None:
                nonlocal settled
                message = inflight[index]
                inflight[index] = None
                process = workers[index].process
                pid = process.pid
                self.deadline_kills += 1
                try:
                    process.kill()
                except Exception:  # reprolint: disable=R2 -- the process may already be gone; the respawn below restores the slot either way
                    pass
                self._respawn(index)
                failures.append((message[0], WorkerTimeoutError(
                    f"task {message[1]!r} (call #{message[0]}) exceeded "
                    f"the {deadline:.3g}s deadline on worker pid {pid}; "
                    "worker killed and respawned"
                )))
                settled += 1
                feed(index)

            for index in range(len(workers)):
                feed(index)
            while settled < len(calls):
                pending = {
                    workers[i].result_conn: i
                    for i in range(len(workers))
                    if inflight[i] is not None
                }
                if not pending:
                    if not any(queues):
                        break  # every remaining call settled locally
                    # A respawn emptied the in-flight set with work
                    # still queued (e.g. a quarantine freed the slot):
                    # feed sends or settles until something is pending.
                    for index in range(len(workers)):
                        feed(index)
                    continue
                ready = multiprocessing.connection.wait(
                    list(pending), timeout=_POLL_INTERVAL_S
                )
                for conn in ready:
                    index = pending[conn]
                    if inflight[index] is None:
                        continue
                    try:
                        seq, ok, payload = conn.recv()
                    except (EOFError, OSError):
                        crashed(index)
                        continue
                    inflight[index] = None
                    settled += 1
                    if ok:
                        results[seq] = payload
                    else:
                        failures.append((seq, _decode_exc(payload)))
                    feed(index)
                if ready:
                    continue
                now = time.monotonic()
                for i in range(len(workers)):
                    if inflight[i] is None:
                        continue
                    worker = workers[i]
                    if not worker.process.is_alive():
                        if worker.result_conn.poll(0):
                            continue  # flushed before death; drain next
                        crashed(i)
                    elif (
                        deadline is not None
                        and now - sent_at[i] >= deadline
                    ):
                        timed_out(i)
        if failures:
            failures.sort(key=lambda item: item[0])
            raise failures[0][1]
        return results

    def install_chaos(self, chaos) -> None:
        """Install a process-level fault injector for every later task.

        *chaos* (typically :class:`~repro.core.faults.WorkerChaos`) is
        pickled once, here — an unpicklable one raises now — and no
        worker is started. Every task message carries the bytes and the
        worker calls ``before_task`` before running the task, so a
        requeued message brings the schedule to the replacement of the
        worker it killed. Installing replaces any previous injector.
        """
        payload = pickle.dumps(chaos, pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._chaos = payload

    def clear_chaos(self) -> None:
        """Remove the installed fault injector (later tasks run clean)."""
        with self._lock:
            self._chaos = None

    def health(self) -> dict:
        """Pool-health counter snapshot, JSON-ready.

        Recovery counters (``respawns``, ``task_retries``,
        ``quarantines``, ``deadline_kills``) describe the current
        worker set's lifetime and reset on :meth:`close`;
        ``tasks_dispatched`` is cumulative for the backend instance.
        """
        with self._lock:
            return {
                "workers": self.num_workers,
                "alive": self._workers is not None and all(
                    w.process.is_alive() for w in self._workers
                ),
                "uid": self.uid,
                "generation": self.generation,
                "tasks_dispatched": self.tasks_dispatched,
                "respawns": self.respawns,
                "task_retries": self.task_retries,
                "quarantines": self.quarantines,
                "deadline_kills": self.deadline_kills,
            }

    def map_jobs(self, fn: Callable, jobs: Sequence) -> list:
        """Order-preserving ``[fn(j) for j in jobs]`` across the workers.

        The generic entry point for callers without a task function of
        their own (the engines ship ``_task_*`` functions by name through
        :meth:`map_calls` and do not come through here). *fn* and every
        job cross the pipe pickled — module-level functions, plain data
        — and nothing runs host-side instead: a lambda, closure or job
        that cannot pickle raises at dispatch, with the rest of the
        batch still settled and the pool intact.
        """
        apply_name = task_name(_task_apply)
        return self.map_calls([(apply_name, (fn, job)) for job in jobs])


# -- shared pool + atexit safety net ---------------------------------------

_LIVE_BACKENDS: "weakref.WeakSet[ProcessBackend]" = weakref.WeakSet()
_SHARED_BACKEND: ProcessBackend | None = None
_SHARED_BACKEND_LOCK = threading.Lock()


def shared_process_backend(num_workers: int | None = None) -> ProcessBackend:
    """The process-wide shared :class:`ProcessBackend`.

    Engines resolved to the ``processes`` kind share one pool instead of
    forking per engine (a test suite under ``REPRO_BACKEND=processes``
    builds hundreds of engines). The pool is created at the first
    caller's width and *grows* when a later caller asks for more
    workers — growth replaces the pool with a fresh one (no worker-
    resident state, no installed fault schedule). It never shrinks.
    """
    global _SHARED_BACKEND
    want = num_workers or default_process_workers()
    with _SHARED_BACKEND_LOCK:
        backend = _SHARED_BACKEND
        if backend is None:
            backend = _SHARED_BACKEND = ProcessBackend(want)
        elif want > backend.num_workers:
            backend.close()
            backend = _SHARED_BACKEND = ProcessBackend(want)
        return backend


def shutdown_all_backends(timeout: float = 1.0) -> None:
    """Stop every live process backend (the ``atexit`` safety net).

    Idempotent and exception-free: leaked pools (never ``close()``\\ d)
    must not hang or crash interpreter shutdown. Workers are daemonic
    as a second line of defense, but an orderly sentinel + join here
    lets them flush and exit cleanly.
    """
    for backend in list(_LIVE_BACKENDS):
        try:
            backend.close(timeout=timeout)
        except Exception:  # reprolint: disable=R2 -- atexit hook: daemon workers die with the interpreter; raising would mask other exit handlers
            pass


atexit.register(shutdown_all_backends)


__all__ = [
    "BACKEND_ENV",
    "START_METHOD_ENV",
    "BACKEND_KINDS",
    "BackendSpec",
    "parse_backend_spec",
    "resolve_backend",
    "default_process_workers",
    "ClosesOnExit",
    "ThreadPool",
    "task_name",
    "ProcessBackend",
    # Re-exported from repro.core.errors for backward compatibility
    # (the taxonomy is their home since the self-healing pool).
    "ComputeError",
    "WorkerCrashedError",
    "WorkerTimeoutError",
    "shared_process_backend",
    "shutdown_all_backends",
]
