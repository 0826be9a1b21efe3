"""Resilience benchmark: checksum overhead and faulty-store recovery.

Three questions the fault-tolerance subsystem must answer with numbers:

* **What does integrity cost when nothing is wrong?** The clean
  cold-read path — open a directory-backed field, fetch every segment,
  decode to the tightest staircase tolerance — always verifies each
  segment's CRC32, so the verification work is timed on its own: the
  best-of-N time of ``segment_checksum`` over exactly the blobs one
  cold read fetches, against the best-of-N read+decode wall. The
  acceptance criterion is overhead ≤ 5 % of that wall; the recorded
  ``speedup_verified_vs_unverified`` ratio (wall without the CRC time
  over the wall) is guarded by ``check_regression.py`` like every
  other speedup.
* **What does recovery cost when things go wrong?** A progressive
  tolerance staircase through a 10 %-transient store behind
  :class:`~repro.core.faults.ResilientReader` (zero-backoff policy, so
  the wall measures retry machinery, not sleeps), compared with the
  same staircase on the clean store — plus the injected-fault and
  retry counts, and a bit-identity check that recovery never changed
  an answer.
* **What does losing a worker cost?** A tiled refactor on the process
  backend (the pool's one route: reads run in the caller's process)
  with one seeded mid-run worker kill
  (:class:`~repro.core.faults.WorkerChaos`) vs the clean parallel run.
  The self-healing pool respawns the dead worker and retries its task;
  the acceptance criterion is a recovered wall within 1.5× of the
  clean wall, and the recorded ``speedup_crash_recovery`` ratio joins
  the regression gate.

Writes ``BENCH_resilience.json`` at the repo root.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_resilience.py

``--smoke`` runs tiny sizes, keeps the bit-identity assertions, and
writes nothing — the CI mode. Or through pytest (the ``bench`` marker
keeps it out of the default test run):

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -o addopts= -s
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.backends import shared_process_backend
from repro.core.faults import (
    FaultInjectingStore,
    ResilientReader,
    RetryPolicy,
    WorkerChaos,
)
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.store import (
    DirectoryStore,
    open_field,
    segment_checksum,
    store_field,
)
from repro.core.tiling import TiledRefactorer
from repro.data import generators as gen

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_resilience.json"

DIMS = (48, 48, 48)
REPEATS = 5
TOLERANCES = [1e-1, 1e-2, 1e-3]  # relative staircase
#: Crash-recovery refactor: 64 tiles of 24³, long enough (~130 ms on
#: 2 vCPUs) that one kill's fixed respawn cost is measured against a
#: realistic write rather than dominating it, with enough tiles per
#: worker that the retried tile balances out across the pool.
CRASH_DIMS = (96, 96, 96)
CRASH_TILE = (24, 24, 24)
TRANSIENT_RATE = 0.10
CHAOS_SEED = 7

#: Acceptance ceiling: verification may cost at most this fraction of
#: the (verified) clean cold read+decode wall.
MAX_CHECKSUM_OVERHEAD = 0.05

#: Acceptance ceiling: one worker kill (respawn + task retry) may cost
#: at most this fraction of the clean parallel wall — i.e. the
#: recovered refactor stays within 1.5x.
MAX_CRASH_OVERHEAD = 0.5


def _build_store(root: Path, dims: tuple[int, ...]) -> DirectoryStore:
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=13,
                                     dtype=np.float32)
    store = DirectoryStore(root)
    store_field(store, refactor(data, name="vel"))
    return store


def _best_wall(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cold_read(store, tight_tol: float):
    """One clean cold read: open, fetch (and CRC-verify) every needed
    segment, decode. Returns the opened field."""
    field = open_field(store, "vel")
    Reconstructor(field).reconstruct(tolerance=tight_tol, relative=True)
    return field


def _bench_checksum_overhead(store: DirectoryStore, tight_tol: float,
                             repeats: int) -> dict:
    """Cold read+decode wall and the CRC32 work inside it: the checksum
    of every blob one cold read fetches (best-of-*repeats* each)."""
    wall_verified = _best_wall(lambda: _cold_read(store, tight_tol), repeats)
    field = _cold_read(store, tight_tol)
    blobs = [store.get(lv.refs[i].key) for lv in field.levels
             for i in lv.groups.resolved_indices]
    crc_s = _best_wall(lambda: [segment_checksum(b) for b in blobs], repeats)
    wall_plain = wall_verified - crc_s
    return {
        "wall_unverified_s": wall_plain,
        "wall_verified_s": wall_verified,
        "checksum_overhead_fraction": (
            crc_s / wall_verified if wall_verified else 0.0
        ),
        # Guarded ratio: ~1.0 when verification is effectively free;
        # a drop below 0.8x the recorded value fails check_regression.
        "speedup_verified_vs_unverified": (
            wall_plain / wall_verified if wall_verified else 0.0
        ),
    }


def _staircase(reader, tolerances) -> np.ndarray:
    recon = Reconstructor(open_field(reader, "vel"))
    out = None
    for tol in tolerances:
        out = recon.reconstruct(tolerance=tol, relative=True).data
    return out


def _bench_recovery(store: MemoryStore, tolerances, repeats: int) -> dict:
    """Staircase walls: clean store vs 10%-transient store with retries."""
    wall_clean = _best_wall(lambda: _staircase(store, tolerances), repeats)
    reference = _staircase(store, tolerances)

    flaky = FaultInjectingStore(store, seed=CHAOS_SEED,
                                transient_rate=TRANSIENT_RATE,
                                sleep=lambda _: None)
    policy = RetryPolicy(max_attempts=8, base_delay_s=0.0, jitter=0.0,
                         sleep=lambda _: None)
    reader = ResilientReader(flaky, policy)
    t0 = time.perf_counter()
    recovered = _staircase(reader, tolerances)
    wall_faulty = time.perf_counter() - t0

    bit_identical = bool(np.array_equal(recovered, reference))
    return {
        "wall_clean_s": wall_clean,
        "wall_faulty_s": wall_faulty,
        "recovery_overhead_fraction": (
            (wall_faulty - wall_clean) / wall_clean if wall_clean else 0.0
        ),
        "transient_rate": TRANSIENT_RATE,
        "injected_transients": flaky.injected_transients,
        "store_reads": flaky.reads,
        "retry_attempts": policy.attempts,
        "retries": policy.retries,
        "giveups": policy.giveups,
        "recovered_bit_identical": bit_identical,
    }


def _tiled_refactor(data, tile, backend=None):
    refactorer = TiledRefactorer(tile, num_workers=2, backend=backend)
    return [f.to_bytes() for f in refactorer.refactor(data, name="rho").fields]


def _bench_crash_recovery(tmp: Path, dims: tuple[int, ...],
                          tile: tuple[int, ...], repeats: int) -> dict:
    """Tiled refactor on the process backend, one seeded worker kill.

    Reads run in the caller's process, so the pool's one route is the
    write side. Clean ``processes:2`` refactor wall vs the wall with a
    mid-run ``WorkerChaos.single_kill`` (``os._exit``, no cleanup): the
    pool respawns the dead worker and retries its tile, whose call
    carries its whole input. Each crashed repeat gets a fresh marker
    directory so the kill fires every time, and every recovered
    refactor is checked byte-identical, stream for stream, against the
    serial refactor.
    """
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=29,
                                     dtype=np.float32)
    reference = _tiled_refactor(data, tile, backend="serial")
    num_tiles = len(reference)

    _tiled_refactor(data, tile, backend="processes:2")  # warm the pool
    wall_clean = _best_wall(
        lambda: _tiled_refactor(data, tile, backend="processes:2"), repeats
    )

    backend = shared_process_backend(2)
    respawns_before = backend.health()["respawns"]
    wall_crashed = float("inf")
    kills_fired = 0
    bit_identical = True
    for i in range(repeats):
        scratch = tmp / f"chaos-{i}"
        scratch.mkdir()
        chaos = WorkerChaos.single_kill(CHAOS_SEED, num_tiles, scratch)
        backend.install_chaos(chaos)
        try:
            t0 = time.perf_counter()
            recovered = _tiled_refactor(data, tile, backend="processes:2")
            wall_crashed = min(wall_crashed, time.perf_counter() - t0)
        finally:
            backend.clear_chaos()
        kills_fired += chaos.total_fired()
        bit_identical = bit_identical and recovered == reference
    respawns = backend.health()["respawns"] - respawns_before

    return {
        "route": "tiled refactor, processes:2",
        "dims": list(dims),
        "num_tiles": num_tiles,
        "tile_shape": list(tile),
        "wall_clean_s": wall_clean,
        "wall_crashed_s": wall_crashed,
        "crash_overhead_fraction": (
            (wall_crashed - wall_clean) / wall_clean if wall_clean else 0.0
        ),
        # Guarded ratio: ~1.0 when recovery is effectively free; a drop
        # below 0.8x the recorded value fails check_regression.
        "speedup_crash_recovery": (
            wall_clean / wall_crashed if wall_crashed else 0.0
        ),
        "kills_fired": kills_fired,
        "worker_respawns": respawns,
        "recovered_bit_identical": bit_identical,
    }


def run(dims: tuple[int, ...] = DIMS,
        tolerances: list[float] = TOLERANCES,
        repeats: int = REPEATS,
        crash_dims: tuple[int, ...] = CRASH_DIMS,
        crash_tile: tuple[int, ...] = CRASH_TILE) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        store = _build_store(Path(tmp) / "campaign", dims)
        overhead = _bench_checksum_overhead(store, tolerances[-1], repeats)
        recovery = _bench_recovery(store, tolerances, repeats)
        crash = _bench_crash_recovery(Path(tmp), crash_dims, crash_tile,
                                      repeats)
        return {
            "config": {
                "dims": list(dims),
                "dtype": "float32",
                "tolerances_relative": tolerances,
                "repeats_best_of": repeats,
                "stored_bytes": store.total_bytes(),
                "platform": platform.platform(),
                "numpy": np.__version__,
            },
            "checksum_overhead": overhead,
            "recovery": recovery,
            "crash_recovery": crash,
        }


def _report(results: dict) -> None:
    o = results["checksum_overhead"]
    r = results["recovery"]
    print("\n== checksum overhead (clean cold read+decode, best-of-"
          f"{results['config']['repeats_best_of']}) ==")
    crc_s = o["wall_verified_s"] - o["wall_unverified_s"]
    print(f"read+decode {o['wall_verified_s']*1e3:8.1f}ms   "
          f"CRC32 of its segments {crc_s*1e3:6.2f}ms   "
          f"overhead {o['checksum_overhead_fraction']:.2%}")
    print(f"\n== recovery under {r['transient_rate']:.0%}-transient store "
          "(staircase, zero-backoff retries) ==")
    print(f"clean {r['wall_clean_s']*1e3:8.1f}ms   "
          f"faulty {r['wall_faulty_s']*1e3:8.1f}ms   "
          f"overhead {r['recovery_overhead_fraction']:+.1%}")
    print(f"injected transients {r['injected_transients']}, "
          f"retries {r['retries']}, giveups {r['giveups']}, "
          f"bit-identical {r['recovered_bit_identical']}")
    c = results["crash_recovery"]
    print(f"\n== crash recovery (tiled refactor, {c['num_tiles']} tiles "
          "on processes:2, one seeded worker kill per run) ==")
    print(f"clean {c['wall_clean_s']*1e3:8.1f}ms   "
          f"crashed {c['wall_crashed_s']*1e3:8.1f}ms   "
          f"overhead {c['crash_overhead_fraction']:+.1%}")
    print(f"kills fired {c['kills_fired']}, "
          f"worker respawns {c['worker_respawns']}, "
          f"bit-identical {c['recovered_bit_identical']}")


def test_resilience_benchmark() -> None:
    """Pytest entry point — enforces the overhead ceilings."""
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    assert results["recovery"]["recovered_bit_identical"]
    assert results["recovery"]["giveups"] == 0
    assert (results["checksum_overhead"]["checksum_overhead_fraction"]
            <= MAX_CHECKSUM_OVERHEAD)
    crash = results["crash_recovery"]
    assert crash["recovered_bit_identical"]
    assert crash["kills_fired"] >= 1
    assert crash["worker_respawns"] >= 1
    assert crash["crash_overhead_fraction"] <= MAX_CRASH_OVERHEAD


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    if "--smoke" in args:
        results = run(dims=(16, 16, 16), tolerances=[1e-1, 1e-2],
                      repeats=2, crash_dims=(16, 16, 16),
                      crash_tile=(8, 8, 8))
        assert results["recovery"]["recovered_bit_identical"]
        assert results["recovery"]["injected_transients"] > 0
        assert results["recovery"]["giveups"] == 0
        assert results["crash_recovery"]["recovered_bit_identical"]
        assert results["crash_recovery"]["kills_fired"] > 0
        print("bench_resilience smoke ok (tiny sizes, no overhead "
              "ceiling, nothing written)")
        return
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
