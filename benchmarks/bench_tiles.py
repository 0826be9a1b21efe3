"""Tiled streaming benchmark: parallel fan-out + region-of-interest I/O.

Two sections, both on the tiled engine (``repro.core.tiling``):

* **parallel vs sequential tiled refactor** — the same multi-tile field
  refactored by one :class:`~repro.core.tiling.TiledRefactorer` on the
  process pool (tiles fan out across worker processes, the one parallel
  write route: a ``threads`` refactor is the serial loop) and one
  without, asserted byte-identical stream for stream. The recorded
  ``speedup_parallel_refactor`` is wall-clock, so it only expresses
  real parallelism: the ≥2× acceptance floor is enforced on machines
  with at least 2 CPUs, while on a single-core machine the floor
  degrades to "the pool must not badly regress the sequential path"
  (the measurement is recorded either way and guarded by
  ``check_regression.py``).
* **region-of-interest vs full-domain retrieval** — a tiled field
  stored via :func:`~repro.core.store.store_tiled_field` on a
  :class:`~repro.core.store.DirectoryStore`, walked down a tolerance
  staircase twice through :func:`~repro.core.store.open_tiled_field`:
  once full-domain, once restricted to a small hyperslab. The region
  walk must read at most ``MAX_ROI_BYTES_FRACTION`` of the full walk's
  backing-store bytes while matching the full reconstruction on that
  slab bit for bit at every step (``speedup_roi_fetch_bytes`` is the
  guarded bytes ratio).
* **parallel vs serial ROI decode** — the same store-backed ROI
  staircase decoded serially and under ``threads`` (reads run in the
  caller's process; ``processes`` names the write side's pool, so a
  ``processes`` read is a serial one), asserted bit-identical step for
  step.

The refactor section measures the ``processes`` backend, the decode
section ``threads`` (see ``repro.core.backends``): each side's one
parallel route. The per-backend ``ratio_vs_serial_*`` entries record
each engine without being regression-guarded.

Writes ``BENCH_tiles.json`` at the repo root.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_tiles.py

``--smoke`` runs tiny sizes, keeps every correctness assertion, skips
the timing floors, and writes nothing — the CI path that exercises the
benchmark code on every PR. Or through pytest (the ``bench`` marker
keeps it out of the default test run; ``benchmarks/run_all.sh`` clears
the marker filter):

    PYTHONPATH=src python -m pytest benchmarks/bench_tiles.py -o addopts= -s
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.store import (
    DirectoryStore,
    open_tiled_field,
    store_tiled_field,
)
from repro.core.tiling import (
    TiledReconstructor,
    TiledRefactorer,
    normalize_region,
)
from repro.data import generators as gen

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_tiles.json"

# -- parallel-refactor section ----------------------------------------
DIMS = (96, 96, 96)
TILE = (48, 48, 48)  # 8 tiles
PAR_WORKERS = 4
REPS = 3
#: Parallel execution backends measured against the serial engine; the
#: best of them backs the guarded headline speedups. Bare kinds are
#: sized with the section's worker count. Refactors measure
#: ``processes`` alone (a ``threads`` refactor is the serial loop), reads
#: ``threads`` alone (they run in the caller's process under every
#: backend).
BACKENDS = ("threads", "processes")
WRITE_BACKENDS = ("processes",)
READ_BACKENDS = ("threads",)

# -- region-of-interest section ---------------------------------------
ROI_DIMS = (64, 64, 64)
ROI_TILE = (16, 16, 16)  # 64 tiles
#: A 16³ hyperslab (1/64 of the domain) deliberately straddling tile
#: boundaries on every axis, so it overlaps 8 of the 64 tiles.
ROI_REGION = ((8, 24), (8, 24), (8, 24))
ROI_TOLERANCES = [1e-1, 1e-2, 1e-3]  # relative staircase

#: Acceptance floors. The parallel floor applies on machines where a
#: parallel route *can* help (>= 2 CPUs); single-core machines instead
#: require that the refactor's process pool does not badly regress the
#: sequential path.
MIN_PARALLEL_SPEEDUP = 2.0
MIN_SINGLE_CORE_RATIO = 0.7
MAX_ROI_BYTES_FRACTION = 0.25


def _best_time(fn, reps: int):
    """Best-of-reps wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _sized_specs(backends, workers: int) -> list[str]:
    """Size bare backend kinds with the section's worker count."""
    return [b if ":" in b else f"{b}:{workers}" for b in backends]


def _bench_parallel_refactor(
    dims: tuple[int, ...], tile: tuple[int, ...], reps: int,
    par_workers: int, backends,
) -> dict:
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=21,
                                     dtype=np.float32)
    seq = TiledRefactorer(tile)
    # One untimed pass warms the shared per-shape refactorers and
    # permutation caches, so the timed reps compare engines rather
    # than first-touch costs; each backend gets the same warm pass
    # (pool spin-up, worker-side config shipping) below.
    tiled_seq = seq.refactor(data, name="par")
    t_seq, tiled_seq = _best_time(
        lambda: seq.refactor(data, name="par"), reps
    )
    out = {
        "num_tiles": tiled_seq.num_tiles,
        "tile_shape": list(tile),
        "workers": par_workers,
        "backends": _sized_specs(backends, par_workers),
        "sequential_ms": t_seq * 1e3,
        "stored_bytes": tiled_seq.total_bytes(),
    }
    identical = True
    best_kind, best_t = None, float("inf")
    for spec in _sized_specs(backends, par_workers):
        kind = spec.split(":")[0]
        par = TiledRefactorer(tile, num_workers=par_workers, backend=spec)
        tiled_par = par.refactor(data, name="par")  # warm pass
        identical = identical and all(
            a.to_bytes() == b.to_bytes()
            for a, b in zip(tiled_seq.fields, tiled_par.fields)
        )
        t_par, _ = _best_time(
            lambda: par.refactor(data, name="par"), reps
        )
        out[f"parallel_ms_{kind}"] = t_par * 1e3
        out[f"ratio_vs_serial_{kind}"] = t_seq / t_par
        if t_par < best_t:
            best_kind, best_t = kind, t_par
    out["parallel_ms"] = best_t * 1e3
    out["parallel_backend"] = best_kind
    out["speedup_parallel_refactor"] = t_seq / best_t
    out["parallel_matches_sequential"] = identical
    return out


def _bench_parallel_roi_decode(
    dims: tuple[int, ...], tile: tuple[int, ...], region,
    tolerances: list[float], reps: int, par_workers: int, backends,
) -> dict:
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=23,
                                     dtype=np.float32)
    tiled = TiledRefactorer(tile).refactor(data, name="pardec")
    tmp = Path(tempfile.mkdtemp(prefix="bench_tiles_pardec_"))
    try:
        store = DirectoryStore(tmp / "campaign", file_open_latency_s=2e-4)
        store_tiled_field(store, tiled)

        def walk(num_workers=0, backend=None):
            recon = TiledReconstructor(
                open_tiled_field(store, "pardec"),
                num_workers=num_workers, backend=backend,
            )
            try:
                return [
                    recon.reconstruct(tolerance=t, relative=True,
                                      region=region)
                    for t in tolerances
                ], len(recon.touched_tiles)
            finally:
                recon.close()

        walk()  # warm the OS page cache before timing anything
        t_serial, (serial_steps, tiles_touched) = _best_time(
            lambda: walk(), reps
        )
        out = {
            "num_tiles": tiled.num_tiles,
            "tile_shape": list(tile),
            "tiles_touched": tiles_touched,
            "workers": par_workers,
            "backends": _sized_specs(backends, par_workers),
            "tolerances_relative": tolerances,
            "serial_ms": t_serial * 1e3,
        }
        identical = True
        best_kind, best_t = None, float("inf")
        for spec in _sized_specs(backends, par_workers):
            kind = spec.split(":")[0]
            walk(num_workers=par_workers, backend=spec)  # warm pass
            t_par, (par_steps, _) = _best_time(
                lambda: walk(num_workers=par_workers, backend=spec), reps
            )
            identical = identical and all(
                np.array_equal(s_out, p_out) and s_bound == p_bound
                for (s_out, s_bound), (p_out, p_bound)
                in zip(serial_steps, par_steps)
            )
            out[f"parallel_ms_{kind}"] = t_par * 1e3
            out[f"ratio_vs_serial_{kind}"] = t_serial / t_par
            if t_par < best_t:
                best_kind, best_t = kind, t_par
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out["parallel_ms"] = best_t * 1e3
    out["parallel_backend"] = best_kind
    out["speedup_parallel_roi_decode"] = t_serial / best_t
    out["parallel_matches_serial"] = identical
    return out


def _bench_roi_retrieval(
    dims: tuple[int, ...], tile: tuple[int, ...], region,
    tolerances: list[float],
) -> dict:
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=22,
                                     dtype=np.float32)
    tiled = TiledRefactorer(tile).refactor(data, name="roi")
    region_slices = normalize_region(region, tiled.shape)
    region_elems = int(np.prod([s.stop - s.start for s in region_slices]))
    tmp = Path(tempfile.mkdtemp(prefix="bench_tiles_"))
    try:
        store = DirectoryStore(tmp / "campaign", file_open_latency_s=2e-4)
        store_tiled_field(store, tiled)

        def walk(recon, use_region):
            outs = []
            for tol in tolerances:
                outs.append(recon.reconstruct(
                    tolerance=tol, relative=True,
                    region=region if use_region else None,
                ))
            return outs

        full_recon = TiledReconstructor(open_tiled_field(store, "roi"))
        reads0, bytes0 = store.reads, store.bytes_read
        t0 = time.perf_counter()
        full_steps = walk(full_recon, use_region=False)
        wall_full = time.perf_counter() - t0
        full_reads = store.reads - reads0
        full_bytes = store.bytes_read - bytes0

        roi_recon = TiledReconstructor(open_tiled_field(store, "roi"))
        reads0, bytes0 = store.reads, store.bytes_read
        t0 = time.perf_counter()
        roi_steps = walk(roi_recon, use_region=True)
        wall_roi = time.perf_counter() - t0
        roi_reads = store.reads - reads0
        roi_bytes = store.bytes_read - bytes0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    identical = all(
        np.array_equal(r_out, f_out[region_slices])
        and r_bound <= f_bound
        for (r_out, r_bound), (f_out, f_bound)
        in zip(roi_steps, full_steps)
    )
    final_err = float(np.max(np.abs(
        roi_steps[-1][0] - data[region_slices]
    )))
    return {
        "num_tiles": tiled.num_tiles,
        "tile_shape": list(tile),
        "region": [[s.start, s.stop] for s in region_slices],
        "region_fraction_of_domain": region_elems / data.size,
        "tiles_touched": len(roi_recon.touched_tiles),
        "tolerances_relative": tolerances,
        "full_store_reads": full_reads,
        "full_store_bytes": full_bytes,
        "full_wall_ms": wall_full * 1e3,
        "roi_store_reads": roi_reads,
        "roi_store_bytes": roi_bytes,
        "roi_wall_ms": wall_roi * 1e3,
        "roi_bytes_fraction": roi_bytes / full_bytes,
        "speedup_roi_fetch_bytes": full_bytes / roi_bytes,
        "roi_bit_identical_every_step": identical,
        "final_roi_error": final_err,
        "final_roi_error_bound": roi_steps[-1][1],
    }


def run(
    dims: tuple[int, ...] = DIMS,
    tile: tuple[int, ...] = TILE,
    reps: int = REPS,
    par_workers: int = PAR_WORKERS,
    roi_dims: tuple[int, ...] = ROI_DIMS,
    roi_tile: tuple[int, ...] = ROI_TILE,
    roi_region=ROI_REGION,
    roi_tolerances: list[float] = ROI_TOLERANCES,
    backends=BACKENDS,
) -> dict:
    return {
        "benchmark": "tiles",
        "generated_unix": time.time(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "dims": list(dims),
            "roi_dims": list(roi_dims),
            "dtype": "float32",
            "reps": reps,
            "cpu_count": os.cpu_count() or 1,
            "backends": list(backends),
        },
        "parallel_refactor": _bench_parallel_refactor(
            dims, tile, reps, par_workers,
            [b for b in backends if b.startswith("processes")]
            or WRITE_BACKENDS,
        ),
        "roi_retrieval": _bench_roi_retrieval(
            roi_dims, roi_tile, roi_region, roi_tolerances
        ),
        "parallel_roi_decode": _bench_parallel_roi_decode(
            roi_dims, roi_tile, roi_region, roi_tolerances, reps,
            par_workers,
            [b for b in backends if b.startswith("threads")]
            or READ_BACKENDS,
        ),
    }


SMOKE_KWARGS = dict(
    dims=(24, 24, 24), tile=(12, 12, 12), reps=1, par_workers=2,
    roi_dims=(16, 16, 16), roi_tile=(8, 8, 8),
    roi_region=((0, 8), (0, 8), (4, 12)), roi_tolerances=[1e-1, 1e-2],
)


def _check_correctness(results: dict) -> None:
    """Gates that hold on any machine, smoke or full size."""
    par = results["parallel_refactor"]
    roi = results["roi_retrieval"]
    dec = results["parallel_roi_decode"]
    assert par["parallel_matches_sequential"], \
        "parallel tiled refactor diverged from the sequential streams"
    assert roi["roi_bit_identical_every_step"], \
        "ROI reconstruction diverged from the full-domain slice"
    assert dec["parallel_matches_serial"], \
        "parallel ROI decode diverged from the serial staircase"
    assert roi["final_roi_error"] <= roi["final_roi_error_bound"]
    assert roi["region_fraction_of_domain"] <= 1.0 / 8.0


def _check_floors(results: dict) -> None:
    """The ISSUE 5/7 acceptance floors (full-size runs only)."""
    par = results["parallel_refactor"]
    roi = results["roi_retrieval"]
    dec = results["parallel_roi_decode"]
    assert roi["roi_bytes_fraction"] <= MAX_ROI_BYTES_FRACTION, roi
    if results["config"]["cpu_count"] >= 2:
        # With >= 2 CPUs each side's parallel route (the process pool
        # for the refactor, threads for the decode) must buy real
        # wall-clock parallelism.
        assert (par["speedup_parallel_refactor"]
                >= MIN_PARALLEL_SPEEDUP), par
        assert (dec["speedup_parallel_roi_decode"]
                >= MIN_PARALLEL_SPEEDUP), dec
    else:
        # No backend can beat wall clock on one core; require the
        # refactor pool not to badly regress the sequential path, and
        # record the decode ratios honestly without failing.
        assert (par["speedup_parallel_refactor"]
                >= MIN_SINGLE_CORE_RATIO), par


def _report(results: dict) -> None:
    par = results["parallel_refactor"]
    roi = results["roi_retrieval"]
    print(f"\n== tiled refactor: {par['num_tiles']} tiles, "
          f"{par['workers']} workers (cpu_count="
          f"{results['config']['cpu_count']}) ==")
    print(f"sequential {par['sequential_ms']:.1f}ms, parallel "
          f"{par['parallel_ms']:.1f}ms "
          f"({par['speedup_parallel_refactor']:.2f}x)")
    print(f"\n== ROI retrieval: region {roi['region']} "
          f"({roi['region_fraction_of_domain']:.1%} of domain, "
          f"{roi['tiles_touched']}/{roi['num_tiles']} tiles) ==")
    print(f"full walk {roi['full_store_bytes']} B "
          f"({roi['full_wall_ms']:.1f}ms), ROI walk "
          f"{roi['roi_store_bytes']} B ({roi['roi_wall_ms']:.1f}ms): "
          f"{roi['roi_bytes_fraction']:.1%} of full-domain bytes")
    dec = results["parallel_roi_decode"]
    ratios = ", ".join(
        f"{key.removeprefix('ratio_vs_serial_')} "
        f"{dec[key]:.2f}x"
        for key in sorted(dec) if key.startswith("ratio_vs_serial_")
    )
    print(f"\n== parallel ROI decode: {dec['tiles_touched']}/"
          f"{dec['num_tiles']} tiles, {dec['workers']} workers ==")
    print(f"serial {dec['serial_ms']:.1f}ms; {ratios}; best "
          f"{dec['parallel_backend']} "
          f"({dec['speedup_parallel_roi_decode']:.2f}x)")


def _full_run() -> dict:
    """Full-size run: record the baseline and enforce every gate."""
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    _check_correctness(results)
    _check_floors(results)
    return results


def test_tiles_benchmark() -> None:
    """Pytest entry point — also enforces the acceptance floors."""
    _full_run()


def _parse_backends(args: list[str]):
    """``--backend KIND[:N]`` (repeatable) restricts the measured
    parallel backends; default is every kind in ``BACKENDS``. The
    refactor section measures the ``processes`` ones (``processes``
    alone when none is named), the read section the ``threads`` ones
    (``threads`` alone when none is named)."""
    picked = []
    skip = False
    for i, arg in enumerate(args):
        if skip:
            skip = False
            continue
        if arg == "--backend":
            if i + 1 >= len(args):
                raise SystemExit("--backend needs a value, e.g. "
                                 "--backend processes:2")
            picked.append(args[i + 1])
            skip = True
        elif arg.startswith("--backend="):
            picked.append(arg.split("=", 1)[1])
    return tuple(picked) or BACKENDS


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    backends = _parse_backends(args)
    if "--smoke" in args:
        results = run(**SMOKE_KWARGS, backends=backends)
        _check_correctness(results)
        print(f"bench_tiles smoke ok (tiny sizes, backends "
              f"{list(results['config']['backends'])}, no timing "
              f"floors, nothing written)")
        return
    results = run(backends=backends)
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    _check_correctness(results)
    _check_floors(results)
    print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
