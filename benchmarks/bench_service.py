"""Retrieval-service benchmark: N concurrent sessions vs. eager loading.

Measures bytes fetched from the backing store and wall-clock latency for
N concurrent progressive sessions walking a staircase of tolerances,
comparing:

* **eager** — each session calls ``load_field`` (every segment of every
  level up front) and reconstructs, the seed read path;
* **service cold** — sessions run through a fresh
  :class:`~repro.core.service.RetrievalService`: lazy per-segment
  fetches through one shared byte-budgeted cache;
* **service warm** — a second wave of sessions at the same tolerances
  against the now-populated cache, reporting the cache hit rate (the PR
  acceptance criterion: ≥ 90 % of warm traffic served from cache).

Writes ``BENCH_service.json`` at the repo root.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_service.py

``--smoke`` runs a tiny grid with two sessions, keeps the lazy-beats-
eager byte assertion, and writes nothing — the CI mode. Or through
pytest (the ``bench`` marker keeps it out of the default
test run; ``benchmarks/run_all.sh`` clears the marker filter):

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -o addopts= -s
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.service import RetrievalService
from repro.core.store import DirectoryStore, load_field, store_field
from repro.data import generators as gen

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_service.json"

DIMS = (48, 48, 48)
N_SESSIONS = 6
TOLERANCES = [1e-1, 1e-2, 1e-3]  # relative staircase
CACHE_BYTES = 64 << 20

#: Acceptance floor for this PR (ISSUE 2): fraction of second-wave
#: traffic served from the shared segment cache.
MIN_WARM_HIT_RATE = 0.90


def _build_store(
    root: Path, dims: tuple[int, ...]
) -> tuple[DirectoryStore, np.ndarray]:
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=13,
                                     dtype=np.float32)
    store = DirectoryStore(root, file_open_latency_s=2e-4)
    field = refactor(data, name="vel")
    store_field(store, field)
    return store, data


def _staircase_eager(store: DirectoryStore, tolerances) -> None:
    """Seed read path: materialize everything, then reconstruct."""
    field = load_field(store, "vel")
    recon = Reconstructor(field)
    for tol in tolerances:
        recon.reconstruct(tolerance=tol, relative=True)


def _run_eager(store: DirectoryStore, n_sessions, tolerances) -> dict:
    store.reads = store.bytes_read = store.requests = 0
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_sessions) as pool:
        list(pool.map(lambda _: _staircase_eager(store, tolerances),
                      range(n_sessions)))
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "store_reads": store.reads,
        "store_bytes_read": store.bytes_read,
        "modeled_io_s": store.io_time_estimate(),
    }


def _staircase_service(service: RetrievalService, tolerances) -> None:
    # An untiled variable: the session runs it as a one-tile field.
    with service.session("vel") as session:
        for tol in tolerances:
            session.reconstruct(tolerance=tol, relative=True)


def _run_service_wave(service: RetrievalService, store: DirectoryStore,
                      n_sessions, tolerances) -> dict:
    reads0, bytes0 = store.reads, store.bytes_read
    hits0, misses0 = service.cache.hits, service.cache.misses
    hit_b0, miss_b0 = service.cache.hit_bytes, service.cache.miss_bytes
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_sessions) as pool:
        list(pool.map(lambda _: _staircase_service(service, tolerances),
                      range(n_sessions)))
    wall = time.perf_counter() - t0
    hit_bytes = service.cache.hit_bytes - hit_b0
    miss_bytes = service.cache.miss_bytes - miss_b0
    hits = service.cache.hits - hits0
    misses = service.cache.misses - misses0
    total = hit_bytes + miss_bytes
    return {
        "wall_s": wall,
        "store_reads": store.reads - reads0,
        "store_bytes_read": store.bytes_read - bytes0,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_bytes": hit_bytes,
        "cold_bytes": miss_bytes,
        "hit_rate_bytes": hit_bytes / total if total else 0.0,
        "hit_rate_requests": hits / (hits + misses) if hits + misses else 0.0,
    }


def run(
    dims: tuple[int, ...] = DIMS,
    n_sessions: int = N_SESSIONS,
    tolerances: list[float] = TOLERANCES,
    cache_bytes: int = CACHE_BYTES,
) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        store, _ = _build_store(Path(tmp) / "campaign", dims)
        total_stored = store.total_bytes()

        eager = _run_eager(store, n_sessions, tolerances)

        service = RetrievalService(store, cache_bytes=cache_bytes)
        cold = _run_service_wave(service, store, n_sessions, tolerances)
        warm = _run_service_wave(service, store, n_sessions, tolerances)
        service.close()

        results = {
            "config": {
                "dims": list(dims),
                "dtype": "float32",
                "n_sessions": n_sessions,
                "tolerances_relative": tolerances,
                "cache_bytes": cache_bytes,
                "stored_bytes": total_stored,
                "platform": platform.platform(),
                "numpy": np.__version__,
            },
            "eager_load_field": eager,
            "service_cold_wave": cold,
            "service_warm_wave": warm,
            "derived": {
                "bytes_saved_vs_eager": (
                    eager["store_bytes_read"] - cold["store_bytes_read"]
                ),
                "cold_bytes_fraction_of_eager": (
                    cold["store_bytes_read"] / eager["store_bytes_read"]
                    if eager["store_bytes_read"] else 0.0
                ),
                "warm_hit_rate": warm["hit_rate_bytes"],
                "speedup_cold_vs_eager": (
                    eager["wall_s"] / cold["wall_s"]
                    if cold["wall_s"] else 0.0
                ),
            },
        }
    return results


def _report(results: dict) -> None:
    eager = results["eager_load_field"]
    cold = results["service_cold_wave"]
    warm = results["service_warm_wave"]
    d = results["derived"]
    print(f"\n== retrieval service vs eager load_field "
          f"({results['config']['n_sessions']} concurrent sessions, "
          f"tolerances {results['config']['tolerances_relative']}) ==")
    print(f"{'path':>16} {'store reads':>12} {'store bytes':>12} "
          f"{'wall':>9}")
    for label, row in (("eager", eager), ("service cold", cold),
                       ("service warm", warm)):
        print(f"{label:>16} {row['store_reads']:>12} "
              f"{row['store_bytes_read']:>12} {row['wall_s']*1e3:>7.1f}ms")
    print(f"cold wave reads {d['cold_bytes_fraction_of_eager']:.1%} of the "
          f"bytes the eager path pays; warm wave hit rate "
          f"{d['warm_hit_rate']:.1%}")


def test_service_benchmark() -> None:
    """Pytest entry point — also enforces the warm hit-rate floor."""
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    assert (results["service_cold_wave"]["store_bytes_read"]
            < results["eager_load_field"]["store_bytes_read"])
    assert results["derived"]["warm_hit_rate"] >= MIN_WARM_HIT_RATE


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    if "--smoke" in args:
        results = run(dims=(16, 16, 16), n_sessions=2,
                      tolerances=[1e-1, 1e-2], cache_bytes=4 << 20)
        assert (results["service_cold_wave"]["store_bytes_read"]
                < results["eager_load_field"]["store_bytes_read"])
        print("bench_service smoke ok (tiny sizes, no hit-rate floor, "
              "nothing written)")
        return
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
