"""Pipelined retrieval benchmark: fetch/decode/recompose overlap.

The paper's pipelining claim (Fig. 4/9) is that sub-domain stages
overlap until end-to-end time approaches the slowest stage, not the
stage sum. A pipelined :class:`~repro.core.tiling.TiledReconstructor`
runs that discipline on the real tiled retrieval stack (batch fetches
on a ``FETCH_WORKERS``-wide pool, decode on the caller thread); this
benchmark measures the claim on a latency-injected store and checks the
overhead on a fast one:

* **Latency-bound ROI staircase.** A progressive tolerance staircase
  over a 36-tile region, sequential vs pipelined, on a
  :class:`~repro.core.faults.FaultInjectingStore` whose per-request
  sleep is calibrated so the staircase's total injected fetch latency
  ≈ its decode wall (fetch ≈ decode — the regime the paper pipelines
  for). The recorded ``speedup_pipelined_roi`` must stay ≥ 1.4× and is
  guarded by ``check_regression.py`` like every other speedup.
* **Fast-store overhead.** The same staircase on the plain directory
  store: the pipeline must cost ≈ nothing when there is no latency to
  hide (overhead ≤ 5 %; ``speedup_pipelined_fast_store`` ≈ 1.0 joins
  the regression gate).
* **Overlap quality.** An instrumented pipelined run records the stage
  walls of each tile batch (decode includes stitching the batch into
  the output); ``pipeline_efficiency`` is the ratio of that run's ideal
  pipelined wall — ``max(fetch_sum / fetch_workers, decode_sum)``, the
  bottleneck stage at perfect overlap — to the same run's measured
  wall, so the ratio lands in (0, 1] by construction (1.0 = the runtime
  hid everything it could).
* **Model vs measured.** The same per-batch stage walls feed
  :func:`repro.pipeline.scheduler.pipeline_speedup` as
  :class:`~repro.pipeline.scheduler.StageCosts` (fetch → input,
  decode → kernel, no output stage), so the seed Fig. 9 scheduler
  predicts a pipelined-vs-serial ratio for *this* workload from its
  DAG; ``model_predicted_ratio`` and ``model_vs_measured_delta`` are
  recorded (not "speedup"-named — the delta is diagnostic, not a
  guarded ratio).

Every timed run is bit-identity-checked against the sequential
fast-store reference — the benchmark refuses to report a speedup for
wrong answers.

Writes ``BENCH_pipeline.json`` at the repo root.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_pipeline.py

``--smoke`` runs tiny sizes, keeps the bit-identity assertions, and
writes nothing — the CI mode. Or through pytest (the ``bench`` marker
keeps it out of the default test run):

    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline.py -o addopts= -s
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

from repro.core.faults import FaultInjectingStore
from repro.core.store import DirectoryStore, open_tiled_field, store_tiled_field
from repro.core.tiling import (
    FETCH_WORKERS,
    TiledReconstructor,
    TiledRefactorer,
    normalize_region,
)
from repro.data import generators as gen
from repro.gpu.device import H100
from repro.gpu.hdem import HostDeviceModel
from repro.pipeline.scheduler import StageCosts, pipeline_speedup

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_pipeline.json"

DIMS = (64, 64, 64)
TILE = (16, 16, 16)
#: ROI hyperslab: tiles 0–2 on the first two axes, all of the third —
#: 36 of the 64 tiles, so the staircase exercises region selection too.
ROI = (slice(4, 44), slice(4, 44), None)
TOLERANCES = [1e-1, 3e-2, 1e-2, 3e-3]  # relative staircase
REPEATS = 5

#: Calibrated per-request sleep is clamped to this range: the floor
#: keeps the overlap measurable when decode is very fast, the ceiling
#: bounds the benchmark's wall time.
LATENCY_FLOOR_S = 2e-4
LATENCY_CEIL_S = 5e-3

#: Acceptance floor for the latency-bound staircase (ISSUE 10:
#: pipelined wall ≤ 0.7x sequential).
MIN_LATENCY_SPEEDUP = 1.4
#: Acceptance ceiling for pipeline overhead on a fast store.
MAX_FAST_STORE_OVERHEAD = 0.05


def _build_store(root: Path, dims: tuple[int, ...], tile) -> DirectoryStore:
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=13,
                                     dtype=np.float32)
    store = DirectoryStore(root)
    store_tiled_field(store, TiledRefactorer(tile).refactor(data, name="rho"))
    return store


def _best_walls(fns, repeats: int) -> list[float]:
    """Best-of-*repeats* wall for each callable, rounds interleaved.

    Interleaving (A, B, A, B, ...) instead of blocking (A×N then B×N)
    cancels slow machine-state drift — CPU frequency, page cache,
    background load — out of A-vs-B ratios: both variants sample the
    same drift profile.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _instrument(recon: TiledReconstructor, stage_seconds: dict) -> None:
    """Wrap the tile-batch stage functions with wall-clock probes.

    ``reconstruct`` binds the stage callables off the instance on every
    route, so instance-attribute wrappers installed before it see every
    call. The fetch probe fires on the fetch
    pool's threads — ``list.append`` is atomic, and the per-stage lists
    are only read after the run completes.
    """
    for stage, name in (("fetch", "_fetch_batch"),
                        ("decode", "_decode_batch")):
        inner = getattr(recon, name)

        def timed(*args, _inner=inner, _sink=stage_seconds[stage], **kwargs):
            t0 = time.perf_counter()
            out = _inner(*args, **kwargs)
            _sink.append(time.perf_counter() - t0)
            return out

        setattr(recon, name, timed)


def _staircase(store, tolerances, region, pipelined: bool,
               stage_seconds: dict | None = None) -> np.ndarray:
    recon = TiledReconstructor(
        open_tiled_field(store, "rho"), pipelined=pipelined
    )
    if stage_seconds is not None:
        _instrument(recon, stage_seconds)
    try:
        out = None
        for tol in tolerances:
            out = recon.reconstruct(tolerance=tol, relative=True,
                                    region=region).data
        return out
    finally:
        recon.close()


def _calibrate_latency(store, tolerances, region,
                       wall_decode_s: float) -> tuple[float, int]:
    """Per-request sleep so total injected latency ≈ the decode wall.

    The store charges its latency once per request (a batched read is
    one request however many keys it carries), so the meter counts the
    sequential staircase's requests: at ``latency_s=1.0`` with a no-op
    sleep, its ``injected_latency_s`` is the request count. The
    sequential decode wall is split evenly across them — the fetch ≈
    decode regime where pipelining's win is ≈ 2x and anything
    sequential pays the sum.
    """
    meter = FaultInjectingStore(store, seed=0, latency_s=1.0,
                                sleep=lambda s: None)
    _staircase(meter, tolerances, region, pipelined=False)
    requests = round(meter.injected_latency_s)
    latency = wall_decode_s / requests if requests else LATENCY_FLOOR_S
    return min(max(latency, LATENCY_FLOOR_S), LATENCY_CEIL_S), requests


def _model_prediction(stage_seconds: dict) -> dict:
    """Seed Fig. 9 scheduler's pipelined-vs-serial ratio for this run.

    Each tile batch's step becomes a sub-domain whose measured fetch/
    decode walls map onto ``StageCosts`` input/kernel — decode is
    bitplane decode + recomposition + stitching, Fig. 4's ``R`` (no
    separate output stage: ``O`` costs 0); there is no exclusive
    host-side lossless stage (``X`` costs 0, so the model's
    ``X_{i-1} → I_i`` rule degenerates to back-to-back prefetch, the
    window the real runtime schedules). The HDEM DAG schedule then
    predicts the overlap the dependency rules allow for exactly this
    stage profile.
    """
    stages = [
        StageCosts(input_s=f, kernel_s=d, lossless_s=0.0,
                   serialize_s=0.0, output_s=0.0)
        for f, d in zip(sorted(stage_seconds["fetch"], reverse=True),
                        sorted(stage_seconds["decode"], reverse=True))
    ]
    serial_s, pipelined_s, ratio = pipeline_speedup(
        HostDeviceModel(H100), stages, "reconstruct")
    return {
        "model_serial_s": serial_s,
        "model_pipelined_s": pipelined_s,
        "model_predicted_ratio": ratio,
    }


def _bench_roi_staircase(store, tolerances, region, repeats: int) -> dict:
    """Sequential vs pipelined staircase, fast store and latency store."""
    reference = _staircase(store, tolerances, region, pipelined=False)

    wall_seq_fast, wall_pip_fast = _best_walls(
        [lambda: _staircase(store, tolerances, region, pipelined=False),
         lambda: _staircase(store, tolerances, region, pipelined=True)],
        repeats)
    fast_identical = bool(np.array_equal(
        _staircase(store, tolerances, region, pipelined=True), reference))

    latency_s, requests = _calibrate_latency(store, tolerances, region,
                                             wall_seq_fast)

    def slow_store():
        return FaultInjectingStore(store, seed=0, latency_s=latency_s,
                                   sleep=time.sleep)

    wall_seq_slow, wall_pip_slow = _best_walls(
        [lambda: _staircase(slow_store(), tolerances, region,
                            pipelined=False),
         lambda: _staircase(slow_store(), tolerances, region,
                            pipelined=True)],
        repeats)
    slow_identical = bool(np.array_equal(
        _staircase(slow_store(), tolerances, region, pipelined=True),
        reference))

    stage_seconds: dict = {"fetch": [], "decode": []}
    t0 = time.perf_counter()
    instrumented = _staircase(slow_store(), tolerances, region,
                              pipelined=True, stage_seconds=stage_seconds)
    wall_instrumented = time.perf_counter() - t0
    slow_identical = slow_identical and bool(
        np.array_equal(instrumented, reference))

    fetch_sum = float(sum(stage_seconds["fetch"]))
    decode_sum = float(sum(stage_seconds["decode"]))
    # Efficiency compares the instrumented run against its OWN ideal:
    # at most ``fetch_workers`` fetches overlap and every decode runs
    # on the caller thread, so ideal <= wall structurally and the ratio
    # lands in (0, 1] regardless of machine noise between runs. The
    # fetch width recorded is the engine's constant, the one place it
    # is written and the only width an engine can run with.
    ideal_wall = max(fetch_sum / FETCH_WORKERS, decode_sum)

    measured = wall_seq_slow / wall_pip_slow if wall_pip_slow else 0.0
    model = _model_prediction(stage_seconds)
    field = open_tiled_field(store, "rho")
    return {
        "tiles_in_region": len(field.tiles_overlapping(
            normalize_region(region, field.shape))),
        "batches_per_step": len(stage_seconds["fetch"]) // len(tolerances),
        "tolerances_relative": list(tolerances),
        "fetch_workers": FETCH_WORKERS,
        "store_requests_per_staircase": requests,
        "injected_latency_per_request_s": latency_s,
        "wall_sequential_fast_s": wall_seq_fast,
        "wall_pipelined_fast_s": wall_pip_fast,
        "fast_store_overhead_fraction": (
            (wall_pip_fast - wall_seq_fast) / wall_seq_fast
            if wall_seq_fast else 0.0
        ),
        # Guarded ratio: ~1.0 when the pipeline is free on a fast
        # store; a drop below 0.8x the recorded value fails
        # check_regression.
        "speedup_pipelined_fast_store": (
            wall_seq_fast / wall_pip_fast if wall_pip_fast else 0.0
        ),
        "wall_sequential_latency_s": wall_seq_slow,
        "wall_pipelined_latency_s": wall_pip_slow,
        # The headline guarded ratio (acceptance: >= 1.4).
        "speedup_pipelined_roi": measured,
        "stage_sums_s": {
            "fetch": fetch_sum,
            "decode": decode_sum,
        },
        "wall_instrumented_s": wall_instrumented,
        "ideal_pipelined_wall_s": ideal_wall,
        "pipeline_efficiency": (
            ideal_wall / wall_instrumented if wall_instrumented else 0.0
        ),
        **model,
        "model_vs_measured_delta": model["model_predicted_ratio"] - measured,
        "bit_identical_fast": fast_identical,
        "bit_identical_latency": slow_identical,
    }


def run(dims: tuple[int, ...] = DIMS,
        tile=TILE,
        tolerances: list[float] = TOLERANCES,
        region=ROI,
        repeats: int = REPEATS) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        store = _build_store(Path(tmp) / "campaign", dims, tile)
        roi = _bench_roi_staircase(store, tolerances, region, repeats)
        return {
            "config": {
                "dims": list(dims),
                "tile": list(tile),
                "dtype": "float32",
                "repeats_best_of": repeats,
                "stored_bytes": store.total_bytes(),
                "platform": platform.platform(),
                "numpy": np.__version__,
            },
            "roi_staircase": roi,
        }


def _report(results: dict) -> None:
    r = results["roi_staircase"]
    print(f"\n== pipelined ROI staircase ({r['tiles_in_region']} tiles, "
          f"{r['fetch_workers']} fetch workers, "
          f"best-of-{results['config']['repeats_best_of']}) ==")
    print(f"fast store : sequential {r['wall_sequential_fast_s']*1e3:8.1f}ms"
          f"   pipelined {r['wall_pipelined_fast_s']*1e3:8.1f}ms   "
          f"overhead {r['fast_store_overhead_fraction']:+.1%}")
    print(f"slow store : sequential "
          f"{r['wall_sequential_latency_s']*1e3:8.1f}ms   pipelined "
          f"{r['wall_pipelined_latency_s']*1e3:8.1f}ms   speedup "
          f"{r['speedup_pipelined_roi']:.2f}x "
          f"({r['injected_latency_per_request_s']*1e3:.2f}ms/request x "
          f"{r['store_requests_per_staircase']} requests)")
    s = r["stage_sums_s"]
    print(f"stage sums : fetch {s['fetch']*1e3:8.1f}ms   "
          f"decode {s['decode']*1e3:8.1f}ms   "
          f"efficiency {r['pipeline_efficiency']:.2f}")
    print(f"Fig.9 model: predicted {r['model_predicted_ratio']:.2f}x   "
          f"measured {r['speedup_pipelined_roi']:.2f}x   "
          f"delta {r['model_vs_measured_delta']:+.2f}")
    print(f"bit-identical: fast {r['bit_identical_fast']}, "
          f"latency {r['bit_identical_latency']}")


def test_pipeline_benchmark() -> None:
    """Pytest entry point — enforces the overlap floor and overhead
    ceiling."""
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    r = results["roi_staircase"]
    assert r["bit_identical_fast"]
    assert r["bit_identical_latency"]
    assert r["speedup_pipelined_roi"] >= MIN_LATENCY_SPEEDUP
    assert r["fast_store_overhead_fraction"] <= MAX_FAST_STORE_OVERHEAD
    assert r["model_predicted_ratio"] > 1.0


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    if "--smoke" in args:
        results = run(dims=(24, 24, 24), tile=(12, 12, 12),
                      tolerances=[1e-1, 1e-2],
                      region=(slice(2, 22), None, None),
                      repeats=1)
        r = results["roi_staircase"]
        assert r["bit_identical_fast"]
        assert r["bit_identical_latency"]
        assert r["speedup_pipelined_roi"] > 0
        assert r["stage_sums_s"]["fetch"] > 0
        print("bench_pipeline smoke ok (tiny sizes, no speedup floor, "
              "nothing written)")
        return
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
