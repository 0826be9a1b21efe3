"""Fault injection, retry policy, and resilient segment reading.

ROADMAP item 4 points the service layer at remote object stores — which
time out, throttle, and occasionally hand back flipped bits. This module
is the resilience toolkit around the :class:`~repro.core.store.SegmentReader`
protocol:

* :class:`FaultInjectingStore` — a deterministic, seed-driven wrapper
  that injects transient failures, latency, bit-flip corruption, and
  fail-N-then-succeed schedules into any reader. Every decision derives
  from ``(seed, key, nth access of that key)``, so a fixed access
  pattern replays the exact same fault schedule regardless of thread
  interleaving — the property the chaos test harness builds on.
* :class:`RetryPolicy` — exponential backoff with deterministic jitter,
  optional per-attempt timeout and overall deadline, and a retryable-
  error classification (:data:`~repro.core.errors.RETRYABLE_ERRORS` by
  default: transient faults and corruption retry, missing keys do not).
* :class:`ResilientReader` — wraps any reader with the policy's retries
  plus optional CRC32 verification against index-recorded checksums
  (see :func:`~repro.core.store.index_checksums`), so one composable
  object turns a flaky store into one that either answers correctly or
  raises a classified error after a bounded effort.
* :class:`WorkerChaos` — the *compute*-tier sibling of
  :class:`FaultInjectingStore`: a schedule of process-level faults
  (``os._exit``, SIGKILL, hang, raise) fired inside backend workers by
  task index, with firing counts persisted to a scratch directory so a
  schedule survives the worker kills it causes. Installed with
  :meth:`~repro.core.backends.ProcessBackend.install_chaos`, it drives
  the differential tests proving staircase results under worker-kill
  chaos stay bit-identical to the serial backend.

The layers compose: ``RetrievalService(ResilientReader(flaky, policy))``
gives every session retried, verified fetches, and the service's
:class:`~repro.core.service.SegmentCache` adds its own checksum gate on
cold fetches.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
import zlib
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.core.errors import (
    RETRYABLE_ERRORS,
    SegmentCorruptionError,
    TransientStoreError,
    finish_batch,
)
from repro.core.store import settle_many

#: Exit status a :class:`WorkerChaos` ``"exit"`` schedule dies with —
#: recognizable in ``WorkerCrashedError`` messages and test asserts.
CHAOS_EXIT_CODE = 23


class FaultInjectingStore:
    """Deterministic fault-injecting view of a segment reader.

    Parameters
    ----------
    inner:
        The wrapped :class:`~repro.core.store.SegmentReader` (or full
        store — writes and every other attribute pass through).
    seed:
        Root of the deterministic fault schedule. Each key's decision
        draws from ``random.Random(f"{seed}:{key}:{n}")`` where *n* is
        that key's access count, so runs with identical per-key access
        sequences see identical faults even under concurrency — and
        whether the keys were read one ``get`` at a time or batched in
        ``get_many``.
    transient_rate:
        Probability in ``[0, 1]`` that a ``get`` raises
        :class:`~repro.core.errors.TransientStoreError` (drawn before
        the read; the attribute is mutable, so tests can switch an
        "outage" on and off mid-run).
    corrupt_rate:
        Probability in ``[0, 1]`` that a successful ``get`` returns the
        blob with exactly one deterministically-chosen bit flipped.
    latency_s:
        Injected sleep per request (via *sleep*), modeling a slow tier:
        once per ``get`` and once per ``get_many``, however many keys.
    fail_first:
        Fail-N-then-succeed schedule: an ``int`` applies to every key,
        a mapping gives per-key counts; the first N accesses of a key
        raise :class:`~repro.core.errors.TransientStoreError` before
        any rate is drawn. Use a huge N for a permanently-failing key.
    sleep:
        Injected sleep function (tests pass a no-op and read
        ``injected_latency_s`` instead of waiting).

    Counters — ``reads`` (key accesses), ``injected_transients``,
    ``injected_corruptions``, ``injected_latency_s`` — let harnesses
    assert that a chaos run actually exercised faults.
    """

    def __init__(
        self,
        inner,
        *,
        seed: int = 0,
        transient_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        latency_s: float = 0.0,
        fail_first: int | Mapping[str, int] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        for name, rate in (("transient_rate", transient_rate),
                           ("corrupt_rate", corrupt_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        self._inner = inner
        self.seed = seed
        self.transient_rate = float(transient_rate)
        self.corrupt_rate = float(corrupt_rate)
        self.latency_s = float(latency_s)
        self.fail_first = fail_first
        self._sleep = sleep
        self._lock = threading.Lock()
        self._access_counts: dict[str, int] = {}
        self.reads = 0
        self.injected_transients = 0
        self.injected_corruptions = 0
        self.injected_latency_s = 0.0

    def _fail_budget(self, key: str) -> int:
        schedule = self.fail_first
        if schedule is None:
            return 0
        if isinstance(schedule, Mapping):
            return int(schedule.get(key, 0))
        return int(schedule)

    def get(self, key: str) -> bytes:
        """One key: :meth:`get_many` of one."""
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[str]) -> list[bytes]:
        """The blobs of *keys* in key order (see :meth:`settle_many`)."""
        return finish_batch(keys, *self.settle_many(keys))

    def settle_many(self, keys: Sequence[str]) -> tuple[dict, dict]:
        """Read *keys* as one request, settled as ``({key: blob}, {key:
        error})``: one latency charge, then every key's own draws,
        exactly as ``get`` would make them.

        Keys that survive their transient draws are read from the
        wrapped reader in one batched call; corruption is drawn after.
        """
        if not keys:
            return {}, {}
        with self._lock:
            counts = []
            for key in keys:
                n = self._access_counts.get(key, 0) + 1
                self._access_counts[key] = n
                counts.append(n)
            self.reads += len(keys)
            if self.latency_s:
                self.injected_latency_s += self.latency_s
        if self.latency_s:
            self._sleep(self.latency_s)
        errors, live, transients = {}, [], 0
        for key, n in zip(keys, counts):
            budget = self._fail_budget(key)
            rng = random.Random(f"{self.seed}:{key}:{n}")
            if n <= budget:
                errors[key] = TransientStoreError(
                    f"injected failure {n}/{budget} for segment {key!r}"
                )
            elif self.transient_rate and rng.random() < self.transient_rate:
                errors[key] = TransientStoreError(
                    f"injected transient failure for segment {key!r} "
                    f"(access {n})"
                )
            else:
                live.append((key, rng))
                continue
            transients += 1
        values, inner_errors = settle_many(self._inner, [k for k, _ in live])
        errors.update(inner_errors)
        corruptions = 0
        for key, rng in live:
            blob = values.get(key)
            if self.corrupt_rate and blob and rng.random() < self.corrupt_rate:
                flipped = bytearray(blob)
                bit = rng.randrange(len(flipped) * 8)
                flipped[bit >> 3] ^= 1 << (bit & 7)
                values[key] = bytes(flipped)
                corruptions += 1
        with self._lock:
            self.injected_transients += transients
            self.injected_corruptions += corruptions
        return values, errors

    def access_count(self, key: str) -> int:
        """How many times *key* has been ``get`` so far."""
        with self._lock:
            return self._access_counts.get(key, 0)

    # Shipped by value to process-backend workers. Fault decisions are
    # pure functions of (seed, key, nth-access-of-key) and the access
    # counters travel with the copy, so a worker that takes over a key's
    # accesses replays exactly the schedule the parent would have seen.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # Membership goes through the type slot, so it cannot be delegated
    # via __getattr__ like the remaining reader/store surface is.
    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class WorkerChaos:
    """Deterministic process-level fault schedule for backend workers.

    Ships to every worker through
    :meth:`~repro.core.backends.ProcessBackend.install_chaos`; the
    worker main loop calls :meth:`before_task` with each engine task's
    call index (its ``seq`` within the batch) right before executing
    it. The *plan* maps task indexes to fault modes:

    * ``"exit"`` — die hard via ``os._exit(CHAOS_EXIT_CODE)`` (no
      cleanup, no exception transport — the parent sees only the
      closed pipe);
    * ``"sigkill"`` — ``SIGKILL`` to self (not even ``os._exit`` runs);
    * ``"hang"`` — sleep ``hang_s`` while staying alive, the failure
      mode only deadlines can bound;
    * ``"raise"`` — raise a
      :class:`~repro.core.errors.TransientStoreError` (an ordinary
      task failure: settles immediately, no worker is harmed).

    A plan entry is either a mode string (fires once) or a
    ``(mode, times)`` pair — the fail-first-N schedule: the first
    *times* executions of that task index fire, later ones succeed.
    Firing counts persist as marker files under *scratch_dir*, which is
    what makes kill schedules converge: the respawned worker receives a
    pickled copy of this object whose in-memory counters would be
    fresh, but the on-disk count survives the kill, so the retried task
    runs clean instead of re-killing every replacement. *seed* is
    recorded for schedule derivation (:meth:`single_kill`) and salts
    nothing at fire time — every decision is a pure function of the
    plan and the persisted counts, the property the differential
    (serial vs processes) chaos tests build on.
    """

    MODES = ("exit", "sigkill", "hang", "raise")

    def __init__(
        self,
        plan: Mapping[int, str | tuple[str, int]],
        scratch_dir: str,
        *,
        seed: int = 0,
        hang_s: float = 3600.0,
    ) -> None:
        normalized: dict[int, tuple[str, int]] = {}
        for index, entry in dict(plan).items():
            if isinstance(entry, str):
                mode, times = entry, 1
            else:
                mode, times = entry
            if mode not in self.MODES:
                raise ValueError(
                    f"chaos mode must be one of {self.MODES}, got "
                    f"{mode!r}"
                )
            if int(times) < 1:
                raise ValueError(f"chaos fire count must be >= 1: {entry!r}")
            normalized[int(index)] = (mode, int(times))
        self.plan = normalized
        self.scratch_dir = str(scratch_dir)
        self.seed = seed
        self.hang_s = float(hang_s)

    @classmethod
    def single_kill(
        cls,
        seed: int,
        num_tasks: int,
        scratch_dir: str,
        mode: str = "exit",
    ) -> "WorkerChaos":
        """One seeded kill: a deterministic task index in ``[0, num_tasks)``.

        The canonical "one mid-run worker kill" schedule the chaos
        differential tests and the crash-recovery benchmark use — same
        seed, same victim.
        """
        index = random.Random(seed).randrange(int(num_tasks))
        return cls({index: mode}, scratch_dir, seed=seed)

    def _marker(self, index: int) -> str:
        return os.path.join(self.scratch_dir, f"chaos-fired-{index}")

    def fired(self, index: int) -> int:
        """How many times *index*'s schedule has fired so far."""
        try:
            return os.path.getsize(self._marker(index))
        except OSError:
            return 0

    def total_fired(self) -> int:
        """Total firings across the whole plan (for harness asserts)."""
        return sum(self.fired(index) for index in self.plan)

    def before_task(self, index: int, name: str | None = None) -> None:
        """Fire *index*'s scheduled fault, if any remain (worker side)."""
        entry = self.plan.get(int(index))
        if entry is None:
            return
        mode, times = entry
        if self.fired(index) >= times:
            return
        # Record the firing *before* acting: a kill mode never returns,
        # and an unrecorded kill would fire again on every retry.
        with open(self._marker(index), "ab") as fh:
            fh.write(b"x")
            fh.flush()
            os.fsync(fh.fileno())
        if mode == "exit":
            os._exit(CHAOS_EXIT_CODE)
        if mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == "hang":
            time.sleep(self.hang_s)
            return
        raise TransientStoreError(
            f"chaos: injected failure for task index {index}"
            + (f" ({name})" if name else "")
        )


class RetryPolicy:
    """Bounded, classified retries with exponential backoff and jitter.

    Parameters
    ----------
    max_attempts:
        Total tries per call (first attempt included); ``1`` disables
        retries.
    base_delay_s / max_delay_s:
        Backoff before retry *k* (1-based) sleeps
        ``min(max_delay_s, base_delay_s * 2**(k-1))`` scaled by jitter.
    jitter:
        Fractional jitter: each delay is multiplied by a deterministic
        draw from ``[1, 1 + jitter]`` (seeded — two policies built with
        the same seed back off identically).
    deadline_s:
        Overall budget per :meth:`run` call: when the elapsed time plus
        the next planned delay would exceed it, the last error is
        raised instead of sleeping.
    attempt_timeout_s:
        Per-attempt wall limit. The attempt runs in a daemon thread and
        is abandoned on timeout (a blocking store call cannot be
        cancelled from outside), surfacing as a retryable
        :class:`~repro.core.errors.TransientStoreError`.
    retryable:
        Exception classes worth retrying
        (:data:`~repro.core.errors.RETRYABLE_ERRORS` by default).
    sleep / clock:
        Injectable for tests (defaults ``time.sleep`` /
        ``time.monotonic``).

    Counters: ``attempts`` (calls into the wrapped function),
    ``retries`` (sleeps taken), ``giveups`` (calls that raised).
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_s: float = 0.01,
        max_delay_s: float = 2.0,
        jitter: float = 0.1,
        deadline_s: float | None = None,
        attempt_timeout_s: float | None = None,
        retryable: tuple[type[BaseException], ...] = RETRYABLE_ERRORS,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay_s < 0 or max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if attempt_timeout_s is not None and attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be > 0")
        self.max_attempts = int(max_attempts)
        self.base_delay_s = float(base_delay_s)
        self.max_delay_s = float(max_delay_s)
        self.jitter = float(jitter)
        self.deadline_s = deadline_s
        self.attempt_timeout_s = attempt_timeout_s
        self.retryable = tuple(retryable)
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self.attempts = 0
        self.retries = 0
        self.giveups = 0

    def delay_for(self, retry_number: int) -> float:
        """Backoff before 1-based *retry_number* (jitter applied)."""
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        base = min(
            self.max_delay_s, self.base_delay_s * 2.0 ** (retry_number - 1)
        )
        if not self.jitter:
            return base
        with self._rng_lock:
            scale = 1.0 + self.jitter * self._rng.random()
        return base * scale

    def _attempt(self, fn: Callable, args: tuple):
        if self.attempt_timeout_s is None:
            return fn(*args)
        outcome: Future = Future()

        def runner() -> None:
            try:
                outcome.set_result(fn(*args))
            except BaseException as exc:  # reprolint: disable=R2 -- delivered via the outcome future; the waiter re-raises it
                outcome.set_exception(exc)

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        try:
            return outcome.result(timeout=self.attempt_timeout_s)
        except FutureTimeoutError:
            # The blocking call cannot be cancelled; abandon the thread
            # and classify the attempt as transient so it is retried.
            raise TransientStoreError(
                f"attempt exceeded {self.attempt_timeout_s}s timeout"
            ) from None

    def run(self, fn: Callable, *args):
        """Call ``fn(*args)``, retrying classified failures per policy:
        :meth:`run_many` over a single key."""
        values, errors = self.run_many(lambda _: ({0: fn(*args)}, {}), [0])
        if errors:
            raise errors[0]
        return values[0]

    def run_many(
        self, fn: Callable, keys: Sequence[str]
    ) -> tuple[dict, dict]:
        """Retry only the keys that failed, together.

        ``fn(keys)`` settles every key into ``({key: value}, {key:
        error})``. Failed keys with a retryable error are retried
        together, one ``fn`` call per round, after one backoff; each
        key gets the same budget, deadline and classification whatever
        batch it rides in, and the counters count keys
        (``attempts`` per key tried, ``retries`` per key retried,
        ``giveups`` per key given up). Returns the final ``(values,
        errors)``; a whole-call failure (an attempt timeout) fails
        every key of its round.
        """
        start = self._clock()
        values: dict = {}
        errors: dict = {}
        pending = list(dict.fromkeys(keys))
        retry_number = 0
        while pending:
            self.attempts += len(pending)
            try:
                got, failed = self._attempt(fn, (pending,))
            except self.retryable as exc:
                got, failed = {}, dict.fromkeys(pending, exc)
            values.update(got)
            errors.update(failed)
            pending = [
                key for key in pending
                if isinstance(failed.get(key), self.retryable)
            ]
            if not pending:
                break
            retry_number += 1
            if retry_number >= self.max_attempts:
                self.giveups += len(pending)
                break
            delay = self.delay_for(retry_number)
            if (
                self.deadline_s is not None
                and self._clock() - start + delay > self.deadline_s
            ):
                self.giveups += len(pending)
                break
            self.retries += len(pending)
            for key in pending:
                del errors[key]
            if delay:
                self._sleep(delay)
        return values, errors

    def stats(self) -> dict:
        """Counter snapshot, JSON-ready."""
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "giveups": self.giveups,
        }

    # Process-backend transport: the seeded RNG state and counters copy
    # over; only the lock is recreated. ``sleep``/``clock`` must be
    # module-level callables (the defaults are) to cross the boundary.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_rng_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rng_lock = threading.Lock()


class ResilientReader:
    """Retrying, verifying view of a :class:`~repro.core.store.SegmentReader`.

    ``get`` and ``get_many`` run through *policy* (so transient faults
    and heal-able corruption are retried with backoff — a batch retries
    only its failed keys, together); when *checksums* maps a key to
    its CRC32 (as recorded by :func:`~repro.core.store.store_field` —
    see :func:`~repro.core.store.index_checksums`), every fetched blob
    is verified and mismatches raise
    :class:`~repro.core.errors.SegmentCorruptionError` — which the
    default policy classification also retries, since a flip on the
    read path heals on re-fetch. Everything else (writes, counters,
    ``batch``) passes through to the wrapped reader.
    """

    def __init__(
        self,
        reader,
        policy: RetryPolicy | None = None,
        checksums: Mapping[str, int] | None = None,
    ) -> None:
        self._reader = reader
        self.policy = policy if policy is not None else RetryPolicy()
        self._checksums: dict[str, int] = dict(checksums or {})
        self._checksums_lock = threading.Lock()

    def register_checksums(self, checksums: Mapping[str, int]) -> None:
        """Add expected CRC32s (e.g. from a freshly-read index)."""
        with self._checksums_lock:
            self._checksums.update(
                {k: int(v) for k, v in checksums.items()}
            )

    # Process-backend transport: wrapped reader, policy, and registered
    # checksums copy over; the lock is recreated worker-side.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_checksums_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._checksums_lock = threading.Lock()

    def _get_many_once(self, keys: list[str]) -> tuple[dict, dict]:
        values, errors = settle_many(self._reader, keys)
        with self._checksums_lock:
            expected = {key: self._checksums.get(key) for key in values}
        for key, want in expected.items():
            if want is not None and zlib.crc32(values[key]) != want:
                del values[key]
                errors[key] = SegmentCorruptionError(
                    f"segment {key!r} failed CRC32 verification"
                )
        return values, errors

    def get(self, key: str) -> bytes:
        """Fetch *key* with retries and (when known) CRC verification."""
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[str]) -> list[bytes]:
        """The blobs of *keys* in key order (see :meth:`settle_many`)."""
        return finish_batch(keys, *self.settle_many(keys))

    def settle_many(self, keys: Sequence[str]) -> tuple[dict, dict]:
        """Fetch *keys* in one request per retry round, each verified,
        settled as ``({key: blob}, {key: error})``."""
        return self.policy.run_many(self._get_many_once, keys)

    def size_of(self, key: str) -> int:
        """Manifest-size lookup, retried under the same policy."""
        return self.policy.run(self._reader.size_of, key)

    def keys(self) -> list[str]:
        return self._reader.keys()

    def __contains__(self, key: str) -> bool:
        return key in self._reader

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._reader, name)


__all__ = [
    "FaultInjectingStore",
    "WorkerChaos",
    "CHAOS_EXIT_CODE",
    "RetryPolicy",
    "ResilientReader",
]
