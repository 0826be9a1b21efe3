#!/usr/bin/env python3
"""Compare two result sets of ``run.py`` on every end-to-end metric.

    python benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, quartiles and
run counts, how much worse B's median is than A's (negative = better),
the metric's bound from BENCHMARK.json, and a verdict:

``within``      B's median is no worse than A's by more than the bound.
``worse``       it is worse by more than the bound.
``unresolved``  it is within the bound, but the run-to-run spread (the
                wider of the two quartile ranges, as a share of A's
                median) exceeds the bound, so "unchanged" cannot be
                told from a regression of the bound's size — unless
                every run of B reads better than every run of A.

Exits non-zero when any row is ``worse``. Give each set at least ten
runs (``run.py --repeats 10``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from harness import quartiles

ROOT = Path(__file__).resolve().parents[2]


def samples(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the end-to-end (untraced) runs."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"] == 0:
            for name, metric in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(
                    metric["value"])
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(share by which B's median is worse than A's, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if worse_by > bound:
        return worse_by, "worse"
    spread = max(q3 - q1 for q1, q3 in (quartiles(a), quartiles(b)))
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread / abs(med_a) > bound and not all_better:
        return worse_by, "unresolved"
    return worse_by, "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = samples(argv[0]), samples(argv[1])
    print(f"{'workload':15s} {'metric':21s} {'median A':>10s} "
          f"{'Q1..Q3 A':>21s} {'n':>3s} {'median B':>10s} "
          f"{'Q1..Q3 B':>21s} {'n':>3s} {'B worse by':>10s} {'bound':>6s}  "
          "verdict")
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            delta, word = verdict(a[key], b[key], m["better"], m["bound"])
            worst |= word == "worse"
            (a1, a3), (b1, b3) = quartiles(a[key]), quartiles(b[key])
            print(f"{workload:15s} {m['name']:21s} "
                  f"{statistics.median(a[key]):10.4f} "
                  f"{a1:10.4f}..{a3:<9.4f} {len(a[key]):3d} "
                  f"{statistics.median(b[key]):10.4f} "
                  f"{b1:10.4f}..{b3:<9.4f} {len(b[key]):3d} "
                  f"{delta:+10.2%} {m['bound']:6.1%}  {word}")
    return int(worst)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
