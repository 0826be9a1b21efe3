"""The five workloads: what each pass does and how it is checked.

Every workload drives the library through its public entry points only.
``run_pass`` is the timed operation sequence; the same code runs traced
and untraced (the tracer is a no-op when tracing is off). ``layer_extras``
runs after a traced pass, outside its wall: it replays the pass's kernel
work on the same inputs through the public kernel functions, and runs
the twin configurations (sequential, zero-latency, serial, threads) that
isolate one layer's contribution.

Why these five, and which layer each one leans on, is in README.md.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from harness import NULL_TRACER, PassResult, TimedReader, sha256
from repro.bitplane.encoding import (
    apply_planes,
    encode_bitplanes,
    finalize_decode,
)
from repro.core.backends import shared_process_backend, shutdown_all_backends
from repro.core.errors import StoreError
from repro.core.faults import FaultInjectingStore, ResilientReader, RetryPolicy
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import Refactorer, default_bitplanes
from repro.core.service import RetrievalService
from repro.core.store import (
    DirectoryStore,
    load_field,
    open_field,
    open_tiled_field,
    store_field,
    store_tiled_field,
)
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data import generators as gen
from repro.lossless.hybrid import METHODS, compress_planes
from repro.qoi import retrieve_qoi, v_total

#: Field sizes. ``full`` is what BENCHMARK.json's numbers are measured
#: on; ``smoke`` only proves the harness end to end in seconds. Tiles
#: are 16^3 because below ~12^3 a plane group falls under the hybrid
#: coder's size threshold and Huffman never runs — a different regime.
SIZES = {
    "full": {
        "nyx": (80, 80, 80), "miranda": (64, 64, 64),
        "tiled": (64, 64, 32), "written_tiled": (64, 32, 32),
        "tile": (16, 16, 16),
        "roi": (slice(4, 44), slice(4, 44), slice(0, 32)),
        "velocity": (48, 48, 48),
    },
    "smoke": {
        "nyx": (24, 24, 24), "miranda": (16, 16, 16),
        "tiled": (24, 24, 16), "written_tiled": (16, 16, 16),
        "tile": (8, 8, 8),
        "roi": (slice(2, 14), slice(2, 14), slice(0, 16)),
        "velocity": (16, 16, 16),
    },
}

#: Generator seed of every base field. ``--seed`` then shifts each
#: field circularly (the generators are periodic along the shifted
#: axes) and seeds the fault schedule: every seed is a different input
#: with the same value distribution, so all seeds do the same amount of
#: work to within a few percent and what spread remains is the
#: machine's. Freshly generated fields differ by 12% in ROI bytes.
BASE_SEED = 7

#: Bytes per element of each sized field (NYX and the velocities are
#: f32, Miranda f64), for the raw sizes in the results header.
FIELD_ITEMSIZE = {"nyx": 4, "miranda": 8, "tiled": 4, "written_tiled": 4,
                  "velocity": 4}

READ_STAIRCASE = [10.0 ** -k for k in range(1, 8)]  # relative
ROI_STAIRCASE = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]  # relative
FULL_DOMAIN_TOLERANCE = 1e-4  # relative
QOI_TOLERANCES = [10.0 ** -k for k in range(1, 6)]  # absolute


def shifted(field: np.ndarray, rng, axes=(0, 1, 2)) -> np.ndarray:
    """*field* rolled by a random offset along its periodic *axes*."""
    offsets = [int(rng.integers(0, field.shape[a])) for a in axes]
    return np.ascontiguousarray(np.roll(field, offsets, axis=axes))


def nyx_density(shape, rng) -> np.ndarray:
    return shifted(gen.lognormal_density(shape, seed=BASE_SEED), rng)


def miranda_density(shape, rng) -> np.ndarray:
    # The interface layers stack along axis 0; only 1 and 2 are periodic.
    return shifted(gen.interface_field(shape, seed=BASE_SEED), rng, (1, 2))


def fast_store(root) -> DirectoryStore:
    """A directory store that models no per-file open latency, so the
    service's default does not pipeline over it: the only latency in
    this benchmark is what ``roi_latency`` injects and really sleeps."""
    return DirectoryStore(root, file_open_latency_s=0.0)


def lossless_mix(fields) -> dict:
    """Compression ratio and byte share per lossless method."""
    original = dict.fromkeys(METHODS, 0)
    compressed = 0
    for f in fields:
        for lv in f.levels:
            for group in lv.groups:
                original[group.method] += group.original_size
                compressed += group.compressed_size
    total = sum(original.values())
    mix = {f"lossless.frac_{m}": original[m] / total for m in METHODS}
    mix["lossless.ratio"] = total / compressed
    return mix


def cache_counts(service) -> dict:
    stats = service.stats()
    cache = stats["cache"]
    served = cache["hit_bytes"] + cache["miss_bytes"]
    return {
        "core.service.cache_hit_rate_bytes":
            cache["hit_bytes"] / served if served else 0.0,
        "core.service.cache_misses": cache["misses"],
        "core.service.prefetch_requests": stats["prefetch_requests"],
        "core.service.prefetch_hits": stats["prefetch_hits"],
        "core.service.prefetch_cancelled": stats["prefetch_cancelled"],
    }


def reader_counts(reader) -> dict:
    if not isinstance(reader, TimedReader):
        return {}
    return {"core.store.get_count": reader.get_count,
            "core.store.get_bytes": reader.get_bytes}


class Workload:
    """One workload: ``setup`` once, then any number of passes."""

    name = ""
    #: call span -> the replay spans that decompose it; the harness
    #: reports ``<layer>.unaccounted_s`` = call - sum(replay).
    replays: dict[str, tuple[str, ...]] = {}

    def __init__(self, seed: int, sizes: dict, workdir: Path,
                 cpus: list[int]) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes
        self.cpus = cpus  # cpus[0] is where this process is pinned
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=workdir))
        self.mix: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tr) -> PassResult:
        raise NotImplementedError

    def verify(self, result: PassResult, oracle) -> None:
        raise NotImplementedError

    def layer_extras(self, tr, result: PassResult, untraced: dict) -> dict:
        """Replay and twin measurements; ``untraced`` is the preceding
        untraced pass's timing, the base the twins are compared with."""
        return {}

    def cleanup(self, result: PassResult) -> None:
        for path in result.scratch:
            shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class WritePath(Workload):
    """Refactor and store two untiled fields and one tiled field."""

    name = "write_path"
    replays = {"core.refactor.call": (
        "decompose.forward", "bitplane.encode", "lossless.encode",
    )}

    def setup(self) -> None:
        s = self.sizes
        self.untiled = [
            ("rho", nyx_density(s["nyx"], self.rng)),
            ("mix", miranda_density(s["miranda"], self.rng)),
        ]
        self.refactorers = [Refactorer(d.shape) for _, d in self.untiled]
        self.tiled_data = nyx_density(s["written_tiled"], self.rng)
        self.tiled_refactorer = TiledRefactorer(s["tile"])
        fields = [
            r.refactor(d, name=n)
            for r, (n, d) in zip(self.refactorers, self.untiled)
        ]
        tiled = self.tiled_refactorer.refactor(self.tiled_data, name="rho_t")
        self.expected_bytes = [f.total_bytes() for f in fields]
        self.expected_tiled_bytes = tiled.total_bytes()
        self.mix = lossless_mix(fields + list(tiled.fields))
        self.raw_bytes = self.tiled_data.nbytes + sum(
            d.nbytes for _, d in self.untiled
        )

    def run_pass(self, tr) -> PassResult:
        root = Path(tempfile.mkdtemp(prefix="pass-", dir=self.dir))
        store = fast_store(root)
        t0 = time.perf_counter()
        first = None
        for refactorer, (name, data) in zip(self.refactorers, self.untiled):
            with tr.span("core.refactor.call"):
                field = refactorer.refactor(data, name=name)
            if first is None:  # first refactored field, before any write
                first = time.perf_counter() - t0
            with tr.span("core.store.write"):
                store_field(store, field)
        with tr.span("core.tiling.refactor") as span:
            tiled = self.tiled_refactorer.refactor(
                self.tiled_data, name="rho_t"
            )
        with tr.span("core.store.write"):
            store_tiled_field(store, tiled)
        written = store.total_bytes()
        counts = {"core.store.segments_written": store.writes,
                  "core.store.bytes_written": written}
        if tr.enabled:
            counts["core.tiling.refactor_us_per_tile"] = (
                (span.end - span.start) / tiled.num_tiles * 1e6
            )
        return PassResult(first, written, self.raw_bytes, checks=[root],
                          counts=counts, scratch=[root])

    def verify(self, result, oracle) -> None:
        store = fast_store(result.checks[0])
        written = [(open_field, n, b) for (n, _), b in
                   zip(self.untiled, self.expected_bytes)]
        written.append((open_tiled_field, "rho_t", self.expected_tiled_bytes))
        for opener, name, expected in written:
            try:
                got = opener(store, name).total_bytes()
            except StoreError as exc:
                got = repr(exc)
            oracle.check(
                got == expected,
                f"write {name}: reopened store holds {got}, "
                f"expected {expected} bytes",
            )

    def layer_extras(self, tr, result, untraced) -> dict:
        for refactorer, (_, data) in zip(self.refactorers, self.untiled):
            cfg, transform = refactorer.config, refactorer.transform
            planes = cfg.num_bitplanes or default_bitplanes(data.dtype)
            with tr.span("decompose.forward"):
                levels = transform.extract_levels(transform.decompose(data))
            for coeff in levels:
                with tr.span("bitplane.encode"):
                    stream = encode_bitplanes(
                        coeff, num_bitplanes=planes, design=cfg.design,
                        warp_size=cfg.warp_size,
                        signed_encoding=cfg.signed_encoding,
                    )
                with tr.span("lossless.encode"):
                    compress_planes(stream.planes, cfg.hybrid)
        return {}


class ReadStaircase(Workload):
    """Open each untiled field and walk a 7-step relative staircase."""

    name = "read_staircase"
    replays = {"core.reconstruct.decode": (
        "lossless.decode", "bitplane.inject", "bitplane.finalize",
        "decompose.inverse",
    )}

    def setup(self) -> None:
        s = self.sizes
        self.fields = [
            ("rho", nyx_density(s["nyx"], self.rng)),
            ("mix", miranda_density(s["miranda"], self.rng)),
        ]
        self.store_root = self.dir / "store"
        store = fast_store(self.store_root)
        built = []
        for name, data in self.fields:
            built.append(Refactorer(data.shape).refactor(data, name=name))
            store_field(store, built[-1])
        self.mix = lossless_mix(built)
        self.raw_bytes = sum(d.nbytes for _, d in self.fields)
        self._eager: dict = {}
        # This path is itself serial, sequential and fault-free: its
        # first run is the reference the timed passes must reproduce.
        self.digests = [
            sha256(results[-1].data)
            for results in self.run_pass(NULL_TRACER).checks
        ]

    def run_pass(self, tr) -> PassResult:
        t0 = time.perf_counter()
        first = None
        moved = 0
        checks = []
        counts = {"core.store.get_count": 0, "core.store.get_bytes": 0,
                  "core.reconstruct.groups_decoded": 0,
                  "bitplane.planes_decoded": 0,
                  "core.reconstruct.state_bytes": 0}
        for name, _ in self.fields:
            with tr.span("core.store.open"):
                store = fast_store(self.store_root)
                reader = TimedReader(store, tr) if tr.enabled else store
                recon = Reconstructor(open_field(reader, name))
            results = []
            for tol in READ_STAIRCASE:
                if tr.enabled:  # reconstruct() is exactly these three
                    with tr.span("core.planner.plan"):
                        step = recon.plan_step(tol, relative=True)
                    with tr.span("core.reconstruct.fetch"):
                        recon.fetch_step(step)
                    with tr.span("core.reconstruct.decode"):
                        results.append(recon.decode_step(step))
                else:
                    results.append(recon.reconstruct(tol, relative=True))
                if first is None:
                    first = time.perf_counter() - t0
            moved += store.bytes_read
            checks.append(results)
            for key, value in reader_counts(reader).items():
                counts[key] += value
            counts["core.reconstruct.groups_decoded"] += sum(
                r.decoded_groups for r in results)
            counts["bitplane.planes_decoded"] += sum(
                r.decoded_planes for r in results)
            counts["core.reconstruct.state_bytes"] = max(
                counts["core.reconstruct.state_bytes"],
                recon.decode_state_bytes())
        return PassResult(first, moved, self.raw_bytes, checks=checks,
                          counts=counts)

    def verify(self, result, oracle) -> None:
        for (name, truth), results, digest in zip(
            self.fields, result.checks, self.digests
        ):
            for i, r in enumerate(results):
                last = i == len(results) - 1
                oracle.step(
                    f"{name} step {i}", bound=r.error_bound,
                    tolerance=r.tolerance, out=r.data, truth=truth,
                    digest=digest if last else None,
                )

    def layer_extras(self, tr, result, untraced) -> dict:
        for (name, _), results, digest in zip(
            self.fields, result.checks, self.digests
        ):
            if name not in self._eager:
                self._eager[name] = load_field(
                    fast_store(self.store_root), name
                )
            eager = self._eager[name]
            transform = Reconstructor(eager).transform
            states = [lv.empty_decode_state(np.dtype(np.float64))
                      for lv in eager.levels]
            values = [None] * len(eager.levels)
            have = [0] * len(eager.levels)
            for r in results:
                for idx, (lv, want) in enumerate(
                    zip(eager.levels, r.plan.groups_per_level)
                ):
                    if want > have[idx]:
                        with tr.span("lossless.decode"):
                            planes = lv.decompress_group_range(have[idx], want)
                        with tr.span("bitplane.inject"):
                            states[idx] = apply_planes(
                                states[idx], planes,
                                states[idx].planes_applied,
                            )
                        have[idx] = want
                        values[idx] = None
                    if values[idx] is None:
                        with tr.span("bitplane.finalize"):
                            values[idx] = finalize_decode(states[idx])
                with tr.span("decompose.inverse"):
                    out = transform.recompose(
                        transform.assemble_levels(values), overwrite=True
                    ).astype(eager.dtype, copy=False)
            if sha256(out) != digest:
                raise RuntimeError(
                    f"replay of {name} diverged from the pass it replays; "
                    "its layer times describe different work"
                )
        return {}


class TiledStoreWorkload(Workload):
    """Shared setup of the ROI workloads: one tiled field in a store,
    plus the serial, sequential, fault-free reference of the ROI
    staircase every configuration must reproduce bit for bit."""

    def setup(self) -> None:
        s = self.sizes
        self.data = nyx_density(s["tiled"], self.rng)
        tiled = TiledRefactorer(s["tile"]).refactor(self.data, name="rho")
        self.store_root = self.dir / "store"
        store_tiled_field(fast_store(self.store_root), tiled)
        self.mix = lossless_mix(tiled.fields)
        self.value_range = tiled.value_range
        self.region = s["roi"]
        self.roi_truth = self.data[self.region]
        with self.reference_reconstructor() as recon:
            for tol in ROI_STAIRCASE:
                out = recon.reconstruct(tol, relative=True, region=self.region)
        self.roi_digest = sha256(out.data)

    def reference_reconstructor(self) -> TiledReconstructor:
        return TiledReconstructor(
            open_tiled_field(fast_store(self.store_root), "rho")
        )

    def roi_staircase(self, tr, session, t0):
        outs = []
        first = None
        for tol in ROI_STAIRCASE:
            with tr.span("core.tiling.roi_step"):
                outs.append(session.reconstruct(
                    tol, relative=True, region=self.region
                ))
            if first is None:
                first = time.perf_counter() - t0
        return outs, first

    def verify_roi(self, outs, oracle) -> None:
        for i, (tol, out) in enumerate(zip(ROI_STAIRCASE, outs)):
            last = i == len(outs) - 1
            oracle.step(
                f"roi step {i}", bound=out.error_bound,
                tolerance=tol * self.value_range, out=out.data,
                truth=self.roi_truth,
                digest=self.roi_digest if last else None,
            )

    @staticmethod
    def decode_counts(*sessions) -> dict:
        counters = [s.reconstructor.aggregate_decode_counters()
                    for s in sessions]
        return {
            "core.reconstruct.groups_decoded":
                sum(c.groups_decoded for c in counters),
            "bitplane.planes_decoded":
                sum(c.planes_decoded for c in counters),
            "core.reconstruct.state_bytes":
                sum(s.decode_state_bytes for s in sessions),
            "core.tiling.tiles_touched":
                sum(s.tiles_touched for s in sessions),
        }


class RoiLatency(TiledStoreWorkload):
    """ROI staircase through the service over a slow, flaky store."""

    name = "roi_latency"

    def run_pass(self, tr, pipelined=None, latency_s=1e-3) -> PassResult:
        base = fast_store(self.store_root)
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.002, jitter=0)
        faulty = FaultInjectingStore(
            base, latency_s=latency_s, transient_rate=0.02,
            sleep=time.sleep, seed=self.seed,
        )
        reader = ResilientReader(faulty, policy)
        if tr.enabled:
            reader = TimedReader(reader, tr)
        t0 = time.perf_counter()
        service = RetrievalService(reader)
        try:
            # All defaults: whether to pipeline is the library's call.
            session = service.tiled_session("rho", pipelined=pipelined)
            outs, first = self.roi_staircase(tr, session, t0)
            counts = {
                **reader_counts(reader), **cache_counts(service),
                **self.decode_counts(session),
                "core.faults.retries": policy.stats()["retries"],
                "core.faults.injected_sleep_s": faulty.injected_latency_s,
            }
            session.close()
        finally:
            service.close()
        return PassResult(first, base.bytes_read, self.roi_truth.nbytes,
                          checks=outs, counts=counts)

    def verify(self, result, oracle) -> None:
        self.verify_roi(result.checks, oracle)

    def layer_extras(self, tr, result, untraced) -> dict:
        with tr.span("pipeline.retrieval.sequential_pass") as span:
            self.run_pass(NULL_TRACER, pipelined=False)
        t0 = time.perf_counter()
        self.run_pass(NULL_TRACER, latency_s=0.0)
        zero_latency = time.perf_counter() - t0
        return {
            "pipeline.retrieval.overlap_gain":
                (span.end - span.start) / untraced["wall_s"],
            "pipeline.retrieval.fetch_exposed_s":
                untraced["wall_s"] - zero_latency,
        }


class RoiProcesses(TiledStoreWorkload):
    """ROI staircase plus a full-domain step on two worker processes."""

    name = "roi_processes"

    def setup(self) -> None:
        super().setup()
        with self.reference_reconstructor() as recon:
            full = recon.reconstruct(FULL_DOMAIN_TOLERANCE, relative=True)
        self.full_digest = sha256(full.data)
        # Spawned here, warm across passes: a pass measures dispatch,
        # not process start-up. Workers inherit this process's single
        # CPU; give each its own.
        shared_process_backend(2).ensure_alive()
        for k, worker in enumerate(multiprocessing.active_children()):
            os.sched_setaffinity(
                worker.pid, {self.cpus[k % len(self.cpus)]})

    def run_pass(self, tr, backend="processes:2") -> PassResult:
        base = fast_store(self.store_root)
        reader = TimedReader(base, tr) if tr.enabled else base
        options = {} if backend == "serial" else {
            "num_workers": 2, "backend": backend}
        t0 = time.perf_counter()
        service = RetrievalService(reader)
        try:
            roi = service.tiled_session("rho", **options)
            outs, first = self.roi_staircase(tr, roi, t0)
            full = service.tiled_session("rho", **options)
            with tr.span("core.tiling.roi_step"):  # region = whole domain
                outs.append(full.reconstruct(
                    FULL_DOMAIN_TOLERANCE, relative=True
                ))
            # Workers read the store themselves, so the parent's store
            # object sees nothing: the sessions' own accounting is the
            # byte count that crossed the store boundary.
            moved = roi.fetched_bytes + full.fetched_bytes
            counts = {**reader_counts(reader), **cache_counts(service),
                      **self.decode_counts(roi, full)}
            roi.close()
            full.close()
        finally:
            service.close()
        return PassResult(first, moved,
                          self.roi_truth.nbytes + self.data.nbytes,
                          checks=outs, counts=counts)

    def verify(self, result, oracle) -> None:
        *roi_outs, full = result.checks
        self.verify_roi(roi_outs, oracle)
        oracle.step(
            "full-domain step", bound=full.error_bound,
            tolerance=FULL_DOMAIN_TOLERANCE * self.value_range,
            out=full.data, truth=self.data, digest=self.full_digest,
        )

    def layer_extras(self, tr, result, untraced) -> dict:
        with tr.span("core.backends.serial_pass") as serial:
            self.run_pass(NULL_TRACER, backend="serial")
        # Two threads pinned to one CPU is not the configuration this
        # twin stands for: it alone runs on every CPU.
        os.sched_setaffinity(0, self.cpus)
        try:
            with tr.span("core.backends.threads_pass"):
                self.run_pass(NULL_TRACER, backend="threads:2")
        finally:
            os.sched_setaffinity(0, self.cpus[:1])
        pool = shared_process_backend(2)
        t0 = time.perf_counter()
        pool.map_jobs(abs, list(range(256)))
        dispatch = time.perf_counter() - t0
        health = pool.health()
        return {
            "core.backends.parallel_efficiency":
                (serial.end - serial.start) / (2 * untraced["wall_s"]),
            "core.backends.dispatch_us_per_task": dispatch / 256 * 1e6,
            "core.backends.respawns": health["respawns"],
            "core.backends.task_retries": health["task_retries"],
            "core.backends.parent_cpu_s": untraced["cpu_s"],
        }

    def close(self) -> None:
        shutdown_all_backends()
        super().close()


class ServiceQoI(Workload):
    """Five QoI-controlled retrievals of V_total from a fresh service."""

    name = "service_qoi"
    NAMES = ("Vx", "Vy", "Vz")

    def setup(self) -> None:
        components = [
            shifted(v, self.rng) for v in gen.turbulence_velocity(
                self.sizes["velocity"], seed=BASE_SEED)
        ]
        self.store_root = self.dir / "store"
        store = fast_store(self.store_root)
        built = []
        for name, data in zip(self.NAMES, components):
            built.append(Refactorer(data.shape).refactor(data, name=name))
            store_field(store, built[-1])
        self.mix = lossless_mix(built)
        self.raw_bytes = sum(d.nbytes for d in components)
        self.qoi = v_total(self.NAMES)
        self.truth = self.qoi.evaluate({
            n: d.astype(np.float64) for n, d in zip(self.NAMES, components)
        })
        # Reference: the plain driver on eagerly loaded fields — no
        # service, no cache, no lazy fetch. Every call starts from
        # freshly opened variables, so the last one stands alone.
        eager = {n: load_field(store, n) for n in self.NAMES}
        reference = retrieve_qoi(eager, self.qoi, QOI_TOLERANCES[-1])
        self.digest = sha256(reference.qoi_values)

    def run_pass(self, tr) -> PassResult:
        store = fast_store(self.store_root)
        reader = TimedReader(store, tr) if tr.enabled else store
        t0 = time.perf_counter()
        first = None
        service = RetrievalService(reader)
        try:
            results = []
            for tol in QOI_TOLERANCES:
                with tr.span("qoi.retrieve"):
                    results.append(service.retrieve_qoi(
                        self.qoi, tolerance=tol
                    ))
                if first is None:
                    first = time.perf_counter() - t0
            counts = {
                **reader_counts(reader), **cache_counts(service),
                "qoi.iterations": sum(r.iterations for r in results),
                "qoi.fetched_bytes": sum(r.fetched_bytes for r in results),
            }
        finally:
            service.close()
        return PassResult(first, store.bytes_read, self.raw_bytes,
                          checks=results, counts=counts)

    def verify(self, result, oracle) -> None:
        for i, r in enumerate(result.checks):
            last = i == len(result.checks) - 1
            oracle.step(
                f"qoi call {i}", bound=r.estimated_error,
                tolerance=r.tolerance, out=r.qoi_values, truth=self.truth,
                digest=self.digest if last else None,
            )


WORKLOADS = {w.name: w for w in (
    WritePath, ReadStaircase, RoiLatency, RoiProcesses, ServiceQoI,
)}
