#!/usr/bin/env sh
# Run the benchmark suites and refresh the repo-root perf baselines.
#
#   benchmarks/run_all.sh            # hot-path + refactor + service +
#                                    # progressive + tiles + resilience +
#                                    # pipeline suites (refresh
#                                    #  BENCH_hotpaths.json, BENCH_refactor.json,
#                                    #  BENCH_service.json, BENCH_progressive.json,
#                                    #  BENCH_tiles.json, BENCH_resilience.json,
#                                    #  BENCH_pipeline.json)
#   benchmarks/run_all.sh --figures  # additionally re-run the per-figure paper harnesses
#   benchmarks/run_all.sh --smoke    # every suite in --smoke mode plus the
#                                    # Fig. 8 plane-group table and the
#                                    # Fig. 9 pipeline-model harness — the CI
#                                    # pass (tiny sizes, correctness
#                                    # assertions only, nothing written)
#
# Each bench script also takes --smoke (tiny sizes, correctness
# assertions only, nothing written) — CI runs that mode on every PR so
# the benchmark code paths stay exercised.
#
# The hot-path, refactor/store, and service suites are the perf
# trajectories every performance PR checks against; the figure harnesses
# regenerate benchmarks/results/*.txt. After each suite the recorded
# *speedups* (same-run fast-vs-reference ratios, so machine-portable —
# currently in the hot-path and service JSONs; BENCH_refactor.json
# records absolute wall times only and has none yet) are compared
# against the pre-run baseline JSON (benchmarks/check_regression.py):
# any speedup that regresses by more than 20% fails the run loudly.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$REPO_ROOT"
PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

if [ "${1:-}" = "--smoke" ]; then
    for suite in hotpaths refactor_store service progressive tiles \
                 resilience pipeline; do
        echo "== bench_$suite --smoke =="
        python "benchmarks/bench_$suite.py" --smoke
    done
    echo "== Fig. 8 per-plane-group table (Algorithm 2 selector) =="
    python benchmarks/bench_fig8_lossless.py --smoke
    echo "== Fig. 9 pipeline-model harness =="
    # `-o addopts=` clears the default `-m "not bench"` filter; the
    # harness's speedup-band assertions are the smoke check.
    python -m pytest benchmarks/bench_fig9_pipeline.py -o addopts= -q
    exit 0
fi

SNAPSHOT_DIR=$(mktemp -d)
trap 'rm -rf "$SNAPSHOT_DIR"' EXIT

snapshot() {
    # Keep the pre-run baseline so regressions are caught after regen.
    if [ -f "$1" ]; then
        cp "$1" "$SNAPSHOT_DIR/$1"
    fi
}

check() {
    python benchmarks/check_regression.py "$SNAPSHOT_DIR/$1" "$1"
}

snapshot BENCH_hotpaths.json
snapshot BENCH_refactor.json
snapshot BENCH_service.json
snapshot BENCH_progressive.json
snapshot BENCH_tiles.json
snapshot BENCH_resilience.json
snapshot BENCH_pipeline.json

echo "== hot-path suite (writes BENCH_hotpaths.json) =="
python benchmarks/bench_hotpaths.py
check BENCH_hotpaths.json

echo "== refactor/store round-trip suite (writes BENCH_refactor.json) =="
python benchmarks/bench_refactor_store.py
check BENCH_refactor.json

echo "== retrieval-service suite (writes BENCH_service.json) =="
python benchmarks/bench_service.py
check BENCH_service.json

echo "== progressive-refinement suite (writes BENCH_progressive.json) =="
python benchmarks/bench_progressive.py
check BENCH_progressive.json

echo "== tiled streaming / ROI suite (writes BENCH_tiles.json) =="
python benchmarks/bench_tiles.py
check BENCH_tiles.json

echo "== resilience suite (writes BENCH_resilience.json) =="
python benchmarks/bench_resilience.py
check BENCH_resilience.json

echo "== pipelined-retrieval suite (writes BENCH_pipeline.json) =="
python benchmarks/bench_pipeline.py
check BENCH_pipeline.json

if [ "${1:-}" = "--figures" ]; then
    echo "== per-figure harnesses =="
    # `-o addopts=` clears the default `-m "not bench"` filter.
    python -m pytest benchmarks -o addopts= -q -s
fi
