"""Measurement plumbing of the end-to-end benchmark.

Everything here observes the library from outside: a calibration kernel
that turns noisy wall seconds into calibration-kernel units (``cku``),
a span tracer, a correctness oracle that counts every checked public
call as an op, and a timing wrapper around a segment reader. Nothing in
this file imports or patches library internals.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np


class Calibrator:
    """Fixed-seed NumPy kernel run immediately before and after a pass.

    The box this runs on shares its cores, so the same pass reads 30-40%
    apart in raw seconds a minute later. The kernel mixes what the
    library's hot paths do — shift/and/or sweeps over a buffer larger
    than L2, gathers, prefix sums, histograms, and many small
    ``unpackbits`` calls — so it slows down and speeds up with them, and
    ``wall / calib`` stays put when the machine drifts.
    """

    #: What one call takes on the box the workload sizes were chosen on;
    #: ``seconds * REFERENCE_S / calib`` is a time at that box's speed.
    REFERENCE_S = 0.045
    WORDS = 1 << 19
    SWEEPS = 16
    GATHERS = 4
    SMALL_CALLS = 384

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._buf = rng.integers(0, 2**63, size=self.WORDS, dtype=np.uint64)
        self._tmp = np.empty_like(self._buf)
        self._out = np.empty_like(self._buf)
        self._idx = rng.permutation(self.WORDS)
        self._bytes = rng.integers(0, 256, size=self.WORDS, dtype=np.uint8)
        self._small = rng.integers(0, 256, size=512, dtype=np.uint8)
        self()  # the first call pays for page faults; keep it out of use

    def __call__(self) -> float:
        """Run the kernel once; returns its wall seconds."""
        t0 = time.perf_counter()
        buf, tmp = self._buf, self._tmp
        mask = np.uint64(0x00FF00FF00FF00FF)
        for k in range(self.SWEEPS):
            np.right_shift(buf, np.uint64(k + 1), out=tmp)
            np.bitwise_and(tmp, mask, out=tmp)
            np.bitwise_or(tmp, buf, out=tmp)
        for _ in range(self.GATHERS):
            np.cumsum(buf[self._idx], out=self._out)
            np.copyto(tmp, self._out)
            np.bincount(self._bytes, minlength=256)
        for _ in range(self.SMALL_CALLS):
            np.unpackbits(self._small)
        return time.perf_counter() - t0


@dataclass
class Span:
    """One timed call into a layer; ``parent`` is the enclosing span's id."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    thread: int


class Tracer:
    """In-memory span recorder; written out once, when the run ends.

    Span names are layer-metric stems (``core.store.open`` feeds
    ``core.store.open_s``). A span opened on a helper thread (the
    library's fetch pool calling into :class:`TimedReader`) has no
    enclosing span on its own thread, so it hangs off the pass root.
    """

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._pass_id = -1
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span = Span(
                id=len(self.spans), name=name, start=0.0, end=0.0,
                parent=stack[-1] if stack else self._root,
                pass_id=self._pass_id, thread=threading.get_ident(),
            )
            self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Root span of one pass; helper-thread spans attach to it."""
        self._pass_id = pass_id
        with self.span("harness.pass") as root:
            self._root = root.id
            try:
                yield root
            finally:
                self._root = None

    def finished_spans(self) -> list[Span]:
        """Snapshot for reporting; call between passes, never during one."""
        with self._lock:
            return list(self.spans)

    def seconds_by_name(self, pass_id: int) -> dict[str, float]:
        """Summed span durations of one pass, keyed by span name."""
        totals: dict[str, float] = {}
        for s in self.finished_spans():
            if s.pass_id == pass_id:
                totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
        return totals

    def self_seconds(self) -> dict[int, float]:
        """Per span: its duration minus what its child spans cover."""
        spans = self.finished_spans()
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in spans:
            covered, edge = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def self_time_table(self) -> dict[str, dict]:
        """Self time and call count per layer, over the whole run."""
        table: dict[str, dict] = {}
        selfs = self.self_seconds()
        for s in self.finished_spans():
            row = table.setdefault(
                s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += selfs[s.id]
        return table

    def write(self, path) -> None:
        """Chrome trace-event JSON plus the self-time table."""
        threads = {}
        events = []
        for s in self.finished_spans():
            tid = threads.setdefault(s.thread, len(threads))
            events.append({
                "name": s.name, "cat": self.workload, "ph": "X",
                "ts": (s.start - self._t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1, "tid": tid,
                "args": {"id": s.id, "parent": s.parent, "pass": s.pass_id},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "workload": self.workload,
            "selfTime": self.self_time_table(),
        }))


class NullTracer:
    """Tracing off: the timed passes run through this."""

    enabled = False
    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL


NULL_TRACER = NullTracer()


class TimedReader:
    """Counts and times ``get`` on a segment reader; changes nothing else.

    The service decides whether to pipeline by reading ``latency_s`` /
    ``file_open_latency_s`` off the store with ``getattr``, and
    ``open_field`` probes ``hasattr`` for optional methods, so every
    attribute this class does not define is forwarded: a wrapped store
    looks to the library exactly like the store itself. Workers of the
    process backend get a pickled copy without the tracer; what they
    count stays in the worker.
    """

    def __init__(self, reader, tracer=NULL_TRACER) -> None:
        self._reader = reader
        self._tracer = tracer
        self._lock = threading.Lock()
        self.get_count = 0
        self.get_bytes = 0

    def get(self, key: str) -> bytes:
        with self._tracer.span("core.store.get_busy"):
            blob = self._reader.get(key)
        with self._lock:
            self.get_count += 1
            self.get_bytes += len(blob)
        return blob

    def size_of(self, key: str) -> int:
        return self._reader.size_of(key)

    def keys(self) -> list[str]:
        return self._reader.keys()

    def __contains__(self, key: str) -> bool:
        return key in self._reader

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._reader, name)

    def __getstate__(self) -> dict:
        return {"_reader": self._reader, "get_count": self.get_count,
                "get_bytes": self.get_bytes}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tracer = NULL_TRACER
        self._lock = threading.Lock()


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def max_abs_error(out: np.ndarray, truth: np.ndarray) -> float:
    return float(np.max(np.abs(
        out.astype(np.float64) - truth.astype(np.float64)
    )))


class Oracle:
    """Counts checked public calls (ops) and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def step(self, what: str, *, bound: float, tolerance: float,
             out: np.ndarray, truth: np.ndarray,
             digest: str | None = None) -> None:
        """One reconstruct/QoI step: bound ≤ tolerance, true error ≤
        bound, and — where a reference digest exists — bit-identity."""
        err = max_abs_error(out, truth)
        problems = []
        if not bound <= tolerance:
            problems.append(f"bound {bound:.6g} > tolerance {tolerance:.6g}")
        if not err <= bound:
            problems.append(f"true error {err:.6g} > bound {bound:.6g}")
        if digest is not None and sha256(out) != digest:
            problems.append("output differs from the serial reference digest")
        self.check(not problems, f"{what}: {'; '.join(problems)}")

    def crashed(self, what: str) -> None:
        """A pass raised: one failed op, traceback kept for the report."""
        self.check(False, f"{what} raised:\n{traceback.format_exc()}")


@dataclass
class PassResult:
    """What one pass hands back for timing, accounting and verification."""

    first_result_s: float
    bytes_moved: int
    raw_bytes: int
    checks: list = field(default_factory=list)  # workload-specific records
    counts: dict = field(default_factory=dict)  # layer counts (traced)
    scratch: list = field(default_factory=list)  # dirs to remove after verify


def timed_pass(workload, calib: Calibrator, oracle: Oracle, tracer=NULL_TRACER,
               pass_id: int = -1, after=None) -> dict | None:
    """Calibrate, run one pass, calibrate, then verify outside the timers.

    ``after(result)`` runs once the pass is verified and before its
    scratch files go: the hook for replaying a traced pass. Returns the
    pass's measurements, or ``None`` when the pass raised (counted as a
    failed op).
    """
    c0 = calib()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer.enabled:
            with tracer.traced_pass(pass_id):
                result = workload.run_pass(tracer)
        else:
            result = workload.run_pass(tracer)
    except Exception:  # pass boundary: count the failure and keep measuring
        oracle.crashed(f"{workload.name} pass {pass_id}")
        return None
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    calib_s = 0.5 * (c0 + calib())
    try:
        workload.verify(result, oracle)
        extras = after(result) if after is not None else {}
    finally:
        workload.cleanup(result)
    gc.collect()
    return {
        "extras": extras,
        "wall_s": wall, "cpu_s": cpu, "calib_s": calib_s,
        "first_result_s": result.first_result_s,
        "bytes_moved": result.bytes_moved, "raw_bytes": result.raw_bytes,
        "counts": result.counts,
    }


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])
