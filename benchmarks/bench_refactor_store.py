"""End-to-end write/read path benchmark: refactor → store → open → reconstruct.

PR 1 and PR 3 measured the kernels (``BENCH_hotpaths.json``); this suite
measures the pipeline those kernels serve, at a production-shaped grain:

* **refactor** — ``Refactorer.refactor`` wall time (decompose + bitplane
  encode + hybrid lossless compression), the write path the word-packed
  Huffman encode engine accelerates;
* **store** — ``store_field`` into a :class:`DirectoryStore` (one
  plane-group segment per append to the pack file, then a single pack
  sync + manifest flush);
* **open + reconstruct** — ``open_field`` then a near-lossless
  :class:`Reconstructor` pass, the read path.

Writes ``BENCH_refactor.json`` at the repo root. ``benchmarks/run_all.sh``
runs it alongside the other suites; note the >20% regression guard
(``benchmarks/check_regression.py``) only compares same-run *speedup*
ratios, and this suite records absolute wall times and MB/s — those are
machine-dependent, so they are tracked for trajectory, not gated.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_refactor_store.py

``--smoke`` runs a tiny grid, keeps the round-trip bound assertion,
and writes nothing — the CI mode. Or through pytest (the ``bench``
marker keeps it out of the default test run; ``benchmarks/run_all.sh``
clears the marker filter):

    PYTHONPATH=src python -m pytest benchmarks/bench_refactor_store.py -o addopts= -s
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.reconstruct import Reconstructor
from repro.core.refactor import Refactorer
from repro.core.store import DirectoryStore, open_field, store_field
from repro.data import generators as gen

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_refactor.json"

DIMS = (96, 96, 96)
TOLERANCE = 1e-6  # near-lossless: the read path touches every group
REPS = 5


def _best_time(fn, reps: int = REPS):
    """Best-of-reps wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_benchmarks(
    dims: tuple[int, ...] = DIMS, reps: int = REPS
) -> dict:
    """Measure the full refactor/store/retrieve path; returns the payload."""
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=13,
                                     dtype=np.float32)
    mb = data.nbytes / 1e6
    refactorer = Refactorer(data.shape)

    t_refactor, field = _best_time(lambda: refactorer.refactor(data, "vel"),
                                   reps)

    tmp = Path(tempfile.mkdtemp(prefix="bench_refactor_"))
    try:
        def do_store():
            # A fresh directory per rep: re-writing over warm files would
            # understate the many-small-files effect the paper measures.
            root = tmp / f"store_{time.monotonic_ns()}"
            store = DirectoryStore(root, file_open_latency_s=0.0)
            store_field(store, field)
            return store

        t_store, store = _best_time(do_store, reps)
        n_segments = len(store.keys())
        stored_bytes = store.total_bytes()

        def do_read():
            lazy = open_field(store, "vel")
            recon = Reconstructor(lazy)
            return recon.reconstruct(tolerance=TOLERANCE, relative=True)

        t_read, result = _best_time(do_read, reps)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    err = float(np.max(np.abs(result.data - data)))
    assert err <= result.error_bound, \
        "round-trip error exceeded the reported bound"

    t_roundtrip = t_refactor + t_store + t_read
    return {
        "benchmark": "refactor_store",
        "generated_unix": time.time(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "dims": list(dims),
            "dtype": "float32",
            "tolerance": TOLERANCE,
            "reps": reps,
        },
        "write_path": {
            "refactor_ms": t_refactor * 1e3,
            "store_ms": t_store * 1e3,
            "refactor_throughput_mbps": mb / t_refactor,
            "num_segments": n_segments,
            "stored_bytes": stored_bytes,
            "compression_ratio": data.nbytes / stored_bytes,
        },
        "read_path": {
            "open_reconstruct_ms": t_read * 1e3,
            "read_throughput_mbps": mb / t_read,
            "fetched_bytes": result.fetched_bytes,
            "max_abs_error": err,
            "error_bound": result.error_bound,
        },
        "roundtrip": {
            "total_ms": t_roundtrip * 1e3,
            "throughput_mbps": mb / t_roundtrip,
        },
    }


def write_results(results: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------
# pytest entry point (opt-in via the `bench` marker)
# ---------------------------------------------------------------------
def test_refactor_store_roundtrip():
    """The full pipeline round-trips within its bound and is recorded."""
    results = run_benchmarks()
    write_results(results)
    read = results["read_path"]
    assert read["max_abs_error"] <= read["error_bound"]
    assert results["write_path"]["compression_ratio"] > 1.0


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    if "--smoke" in args:
        # The round-trip bound assertion inside run_benchmarks still
        # runs; no baseline overwrite at smoke sizes.
        run_benchmarks(dims=(16, 16, 16), reps=1)
        print("bench_refactor_store smoke ok (tiny sizes, "
              "nothing written)")
        return
    results = run_benchmarks()
    path = write_results(results)
    print(f"wrote {path}")
    w, r, rt = (results["write_path"], results["read_path"],
                results["roundtrip"])
    print(
        f"refactor {w['refactor_ms']:.1f} ms "
        f"({w['refactor_throughput_mbps']:.1f} MB/s), "
        f"store {w['store_ms']:.1f} ms ({w['num_segments']} segments, "
        f"CR {w['compression_ratio']:.2f})"
    )
    print(
        f"open+reconstruct {r['open_reconstruct_ms']:.1f} ms "
        f"({r['read_throughput_mbps']:.1f} MB/s)"
    )
    print(
        f"roundtrip {rt['total_ms']:.1f} ms "
        f"({rt['throughput_mbps']:.1f} MB/s)"
    )


if __name__ == "__main__":
    main()
