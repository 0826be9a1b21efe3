"""Progressive-refinement benchmark: incremental vs full re-decode.

Walks one warm progressive session down a staircase of relative
tolerances at 1M elements and measures each step's wall time for:

* **full** — the from-scratch decode of ``tests/oracles/full_decode.py``,
  which re-decodes every fetched plane group of every level from plane
  0 on every step (at the plans the incremental walk chose, so planning
  is not part of its time);
* **incremental** — :class:`~repro.core.reconstruct.Reconstructor`,
  which retains per-level integer partials and decodes only the plane
  groups newly planned since the previous step.

Both paths run in the same process on the same field; their outputs are
asserted bit-identical at every step, and the instrumented decode
counters are asserted to show that each incremental refinement step
decompressed exactly the newly planned groups. The headline number is
``speedup_refinement_total`` — total refinement wall (all steps after
the first) of the full path over the incremental path — with the
acceptance floor ``MIN_REFINEMENT_SPEEDUP``.

Writes ``BENCH_progressive.json`` at the repo root.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_progressive.py

``--smoke`` runs a tiny staircase, keeps the bit-identity and
only-the-increment assertions, skips the refinement-speedup floor, and
writes nothing — the CI mode. Or through pytest (the ``bench`` marker keeps it out of the default
test run; ``benchmarks/run_all.sh`` clears the marker filter):

    PYTHONPATH=src python -m pytest benchmarks/bench_progressive.py -o addopts= -s
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.data import generators as gen

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_progressive.json"

sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles.full_decode import full_decode  # noqa: E402

DIMS = (100, 100, 100)  # 1M elements
TOLERANCES = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4]  # relative
REPEATS = 3

#: Acceptance floor for this PR (ISSUE 4): refinement-step wall time
#: (everything after the cold first step) must improve at least this
#: much over the pre-PR full re-decode path measured in the same run.
MIN_REFINEMENT_SPEEDUP = 2.0


def _build_field(dims):
    data = gen.gaussian_random_field(dims, -5.0 / 3.0, seed=7,
                                     dtype=np.float64)
    return refactor(data, name="vel"), data


def _walk_verify(field, data, tolerances):
    """One staircase, incremental vs the oracle, checking the gates."""
    inc = Reconstructor(field)
    prev_groups = [0] * len(field.levels)
    identical = only_increment = True
    inc_results = []
    err = float("inf")
    for tol in tolerances:
        ri = inc.reconstruct(tolerance=tol, relative=True)
        rf = full_decode(field, ri.plan.groups_per_level)
        identical &= bool(np.array_equal(ri.data, rf))
        new_groups = sum(
            g - p for g, p in zip(ri.plan.groups_per_level, prev_groups)
        )
        only_increment &= ri.decoded_groups == new_groups
        prev_groups = ri.plan.groups_per_level
        err = float(np.max(np.abs(ri.data - data)))
        ri.data = rf = None  # keep metadata, release the arrays
        inc_results.append(ri)
    return identical, only_increment, err, inc_results, inc


def _walk_timed(field, tolerances, plans=None) -> list[float]:
    """One cold walk down the staircase; per-step wall times.

    ``plans=None`` walks an incremental session; otherwise each step is
    a from-scratch decode of ``plans[i]`` (per-level group counts).
    Results are dropped step by step (and the allocator settled with a
    collect up front) so the timings measure the engines, not garbage
    from earlier walks.
    """
    gc.collect()
    recon = Reconstructor(field)
    walls = []
    for i, tol in enumerate(tolerances):
        t0 = time.perf_counter()
        if plans is None:
            recon.reconstruct(tolerance=tol, relative=True)
        else:
            full_decode(field, plans[i])
        walls.append(time.perf_counter() - t0)
    return walls


def run(
    dims: tuple[int, ...] = DIMS,
    tolerances: list[float] = TOLERANCES,
    repeats: int = REPEATS,
) -> dict:
    field, data = _build_field(dims)

    # Correctness gates first (bit-identity + counters), then timing.
    identical, only_increment, err, inc_results, recon = _walk_verify(
        field, data, tolerances
    )
    plans = [r.plan.groups_per_level for r in inc_results]
    best_full = [float("inf")] * len(tolerances)
    best_inc = [float("inf")] * len(tolerances)
    for _ in range(repeats):
        walls_f = _walk_timed(field, tolerances, plans)
        walls_i = _walk_timed(field, tolerances)
        best_full = [min(a, b) for a, b in zip(best_full, walls_f)]
        best_inc = [min(a, b) for a, b in zip(best_inc, walls_i)]

    full_refine = sum(best_full[1:])
    inc_refine = sum(best_inc[1:])
    steps = []
    for i, tol in enumerate(tolerances):
        steps.append({
            "relative_tolerance": tol,
            "full_ms": best_full[i] * 1e3,
            "incremental_ms": best_inc[i] * 1e3,
            "step_ratio": best_full[i] / best_inc[i],
            "decoded_groups": inc_results[i].decoded_groups,
            "decoded_planes": inc_results[i].decoded_planes,
            "incremental_bytes": inc_results[i].incremental_bytes,
        })
    return {
        "config": {
            "dims": list(dims),
            "dtype": "float64",
            "elements": int(np.prod(dims)),
            "tolerances_relative": tolerances,
            "repeats": repeats,
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "steps": steps,
        "checks": {
            "bit_identical_every_step": identical,
            "refinements_decode_only_increment": only_increment,
            "final_error": err,
            "final_error_bound": inc_results[-1].error_bound,
            "decode_state_bytes": recon.decode_state_bytes(),
            "final_error_within_bound": (
                err <= inc_results[-1].error_bound
            ),
        },
        "derived": {
            "first_step_full_ms": best_full[0] * 1e3,
            "first_step_incremental_ms": best_inc[0] * 1e3,
            "refinement_total_full_ms": full_refine * 1e3,
            "refinement_total_incremental_ms": inc_refine * 1e3,
            "speedup_refinement_total": full_refine / inc_refine,
        },
    }


def _report(results: dict) -> None:
    cfg = results["config"]
    print(f"\n== progressive refinement: incremental vs full re-decode "
          f"({cfg['elements']} elements, staircase "
          f"{cfg['tolerances_relative']}) ==")
    print(f"{'rel tol':>9} {'full':>9} {'incremental':>12} {'ratio':>7} "
          f"{'new groups':>11}")
    for s in results["steps"]:
        print(f"{s['relative_tolerance']:>9g} {s['full_ms']:>7.1f}ms "
              f"{s['incremental_ms']:>10.1f}ms {s['step_ratio']:>6.2f}x "
              f"{s['decoded_groups']:>11}")
    d = results["derived"]
    print(f"refinement total: {d['refinement_total_full_ms']:.1f}ms full vs "
          f"{d['refinement_total_incremental_ms']:.1f}ms incremental "
          f"({d['speedup_refinement_total']:.2f}x)")


def test_progressive_benchmark() -> None:
    """Pytest entry point — also enforces the acceptance criteria."""
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    assert results["checks"]["bit_identical_every_step"]
    assert results["checks"]["refinements_decode_only_increment"]
    assert (results["checks"]["final_error"]
            <= results["checks"]["final_error_bound"])
    assert (results["derived"]["speedup_refinement_total"]
            >= MIN_REFINEMENT_SPEEDUP)


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    if "--smoke" in args:
        results = run(dims=(16, 16, 16), tolerances=[1e-1, 1e-3],
                      repeats=1)
        assert results["checks"]["bit_identical_every_step"]
        assert results["checks"]["refinements_decode_only_increment"]
        assert (results["checks"]["final_error"]
                <= results["checks"]["final_error_bound"])
        print("bench_progressive smoke ok (tiny sizes, no speedup "
              "floor, nothing written)")
        return
    results = run()
    RESULT_PATH.write_text(json.dumps(results, indent=2))
    _report(results)
    print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
