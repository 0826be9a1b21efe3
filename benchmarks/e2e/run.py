#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the refactor/retrieve pipeline.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    Measure one workload in this process and print, as the last line of
    stdout, one JSON object ``{correct, attempted, failed, metrics}``.
    ``--trace 0`` times untraced passes and reports the end-to-end
    metrics; ``--trace 1`` records spans around every call into a layer
    and reports the per-layer metrics (and writes
    ``out/trace_<workload>.json``). This is what BENCHMARK.json's
    ``command`` runs.

``run.py [--seed N] [--workload NAME] [--repeats R] [--smoke] [--out F]``
    Run every workload (or one) that way, each in a fresh subprocess,
    print every metric by name with unit, direction and bound, and write
    the runs plus one environment header to a results file that
    ``compare.py`` reads.

Exits non-zero when any checked operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Timed passes per run never drop below this, however short ``--seconds``.
MIN_PASSES = 5
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Traced passes per ``--trace 1`` run (more if ``--seconds`` allows).
MIN_TRACED = 3


def pin_environment(env) -> None:
    """One BLAS/OpenMP thread, and no backend override from outside."""
    env.pop("REPRO_BACKEND", None)
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env[var] = "1"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


# -- one workload, in this process -----------------------------------------

def prepare(cls, args, workdir):
    """Build a workload up to its first timed pass; returns it and the
    seconds that took (generation, store build, reference, warm-up)."""
    from harness import NULL_TRACER
    from workloads import SIZES

    t0 = time.perf_counter()
    workload = cls(args.seed, SIZES["smoke" if args.smoke else "full"],
                   workdir, args.cpus)
    workload.setup()
    workload.cleanup(workload.run_pass(NULL_TRACER))  # warm-up
    return workload, time.perf_counter() - t0


def measure_end_to_end(cls, args, workdir, oracle) -> dict:
    from harness import Calibrator, median, quartiles, timed_pass

    calib = Calibrator()
    setups = []
    for i in range(1 if args.smoke else SETUPS):
        if i:
            workload.close()
        c0 = calib()
        workload, seconds = prepare(cls, args, workdir)
        # Raw seconds drift by a third on this box from one hour to the
        # next, more than any bound could allow, so set-up time is
        # reported at the calibration kernel's reference speed.
        setups.append(seconds * calib.REFERENCE_S / (0.5 * (c0 + calib())))
    passes = []
    attempts = 0
    deadline = time.perf_counter() + args.seconds
    while (attempts < 2 if args.smoke else
           attempts < MIN_PASSES or time.perf_counter() < deadline):
        attempts += 1
        measured = timed_pass(workload, calib, oracle, pass_id=attempts)
        if measured is not None:
            passes.append(measured)
    workload.close()  # reaps pool workers, so their rusage is final
    if not passes:
        return {}
    cku = [p["wall_s"] / p["calib_s"] for p in passes]
    moved = [p["bytes_moved"] / p["raw_bytes"] for p in passes]
    if len(set(moved)) > 1:
        log(f"warning: bytes_moved_fraction varied between passes: {moved}")
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    walls = [p["wall_s"] for p in passes]
    q1, q3 = quartiles(cku)
    log(f"{cls.name}: n={len(passes)} passes, harness.pass_s median "
        f"{median(walls):.4f} s, harness.throughput_mbps "
        f"{passes[0]['raw_bytes'] / 1e6 / median(walls):.2f} MB/s, "
        f"calib median {median([p['calib_s'] for p in passes]):.4f} s, "
        f"pass_cku quartiles {q1:.3f}..{q3:.3f}, setups "
        f"{[round(s, 3) for s in setups]}")
    return {
        "setup_s": median(setups),
        "pass_cku": median(cku),
        "first_result_cku": median(
            [p["first_result_s"] / p["calib_s"] for p in passes]),
        "bytes_moved_fraction": median(moved),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def measure_layers(cls, args, workdir, oracle, spec) -> dict:
    from harness import Calibrator, Tracer, median, timed_pass

    calib = Calibrator()
    tracer = Tracer(cls.name)
    workload, _ = prepare(cls, args, workdir)
    rows, untraced_walls, traced_walls = [], [], []
    deadline = time.perf_counter() + args.seconds
    while (not rows if args.smoke else
           len(rows) < MIN_TRACED or time.perf_counter() < deadline):
        if len(untraced_walls) > len(rows) + MIN_PASSES:
            break  # traced passes keep failing; the oracle has the reasons
        pass_id = len(rows)
        untraced = timed_pass(workload, calib, oracle)
        if untraced is None:
            untraced_walls.append(float("nan"))
            continue
        untraced_walls.append(untraced["wall_s"])
        traced = timed_pass(
            workload, calib, oracle, tracer, pass_id,
            after=lambda result: workload.layer_extras(
                tracer, result, untraced),
        )
        if traced is None:
            continue
        traced_walls.append(traced["wall_s"])
        seconds = tracer.seconds_by_name(pass_id)
        row = {f"{name}_s": value for name, value in seconds.items()}
        row.update(traced["counts"])
        row.update(traced["extras"])
        unaccounted = 0.0
        for call, parts in workload.replays.items():
            gap = seconds[call] - sum(seconds[p] for p in parts)
            row[call.rsplit(".", 1)[0] + ".unaccounted_s"] = gap
            unaccounted += max(gap, 0.0)
        root = next(s for s in tracer.finished_spans()
                    if s.pass_id == pass_id and s.name == "harness.pass")
        wall = root.end - root.start
        row["harness.layer_coverage"] = (
            wall - tracer.self_seconds()[root.id] - unaccounted) / wall
        row["harness.calib_s"] = traced["calib_s"]
        row["harness.cpu_s"] = traced["cpu_s"]
        row["harness.throughput_mbps"] = traced["raw_bytes"] / 1e6 / wall
        rows.append(row)
    mix = workload.mix
    workload.close()
    if not rows:
        return {}
    metrics = {name: median([r[name] for r in rows]) for name in rows[0]}
    metrics.update(mix)
    metrics["harness.trace_overhead_frac"] = (
        median(traced_walls)
        / median([w for w in untraced_walls if w == w]) - 1.0)
    unknown = sorted(set(metrics) - {m["name"] for m in spec["per_layer"]})
    if unknown:
        raise RuntimeError(f"layer metrics not in BENCHMARK.json: {unknown}")
    # A layer this workload never calls: a count reads 0, a time reads
    # what an empty span measures (the tracer's floor, ~1e-7 s) — kept
    # out of the written trace.
    floor = Tracer("floor")
    for m in spec["per_layer"]:
        if m["name"] not in metrics:
            with floor.span("empty") as span:
                pass
            metrics[m["name"]] = (
                span.end - span.start if m["unit"] == "s" else 0)
    tracer.write(OUT / f"trace_{cls.name}.json")
    log(f"{cls.name}: {len(rows)} traced passes; self time per layer")
    for name, r in sorted(tracer.self_time_table().items(),
                          key=lambda item: -item[1]["self_s"]):
        log(f"  {name:40s} calls {r['calls']:6d}  total "
            f"{r['total_s']:9.4f} s  self {r['self_s']:9.4f} s")
    return metrics


def run_child(args) -> int:
    pin_environment(os.environ)  # before NumPy loads
    # One CPU for this process and its threads. With two, whether the
    # library's fetch threads and the decoding thread pass the GIL back
    # and forth on every NumPy call or not flips with how the host
    # places the two vCPUs, for minutes at a time: the same pipelined
    # pass reads 0.33 s or 0.80 s. On one CPU it reads 0.33 s throughout.
    args.cpus = sorted(os.sched_getaffinity(0))
    if not args.smoke:  # smoke runs share the machine and time nothing
        os.sched_setaffinity(0, args.cpus[:1])
    if not (ROOT / "src" / "repro").is_dir():
        log(f"run.py: the library sources are not at {ROOT / 'src'}")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = load_spec()
    from harness import Oracle
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    oracle = Oracle()
    # A scratch directory of this run's own: smoke runs share ``out/``.
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as scratch:
        if args.trace:
            values = measure_layers(cls, args, Path(scratch), oracle, spec)
            declared = spec["per_layer"]
        else:
            values = measure_end_to_end(cls, args, Path(scratch), oracle)
            declared = spec["end_to_end"]
    for failure in oracle.failures:
        log(f"FAILED {failure}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared if m["name"] in values
    }
    correct = oracle.failed == 0 and len(metrics) == len(declared)
    print(json.dumps({
        "correct": correct,
        "attempted": max(oracle.attempted, 1),
        "failed": oracle.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- every workload, each in a fresh subprocess ----------------------------

def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def header(args) -> dict:
    import numpy as np
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import FIELD_ITEMSIZE, SIZES

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    sizes = SIZES["smoke" if args.smoke else "full"]
    return {
        "git_sha": sha, "seed": args.seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "caches": cache_sizes(),
        "raw_field_bytes": {
            name: int(np.prod(sizes[name])) * width
            for name, width in FIELD_ITEMSIZE.items()
        },
        "seconds": args.seconds, "smoke": args.smoke,
    }


def spawn(args, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    pin_environment(env)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_code": done.returncode, **result}


def run_all(args) -> int:
    spec = load_spec()
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    jobs = [(name, args.seed + r, 0)
            for name in names for r in range(args.repeats)]
    jobs += [(name, args.seed, 1) for name in names]
    # Timings need the machine to themselves; a smoke run only checks.
    with ThreadPoolExecutor(max_workers=4 if args.smoke else 1) as pool:
        runs = list(pool.map(lambda job: spawn(args, *job), jobs))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for run in runs:
        print(f"\n{run['workload']}  seed {run['seed']}  trace {run['trace']}"
              f"  ops {run['attempted']} attempted, {run['failed']} failed")
        for name, m in run["metrics"].items():
            d = declared[name]
            bound = f"  bound {d['bound']:.0%}" if "bound" in d else ""
            print(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} "
                  f"{d['better']} is better{bound}")
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"header": header(args), "runs": runs},
                              indent=1))
    print(f"\nwrote {out}")
    bad = [r for r in runs if r["exit_code"] or not r["correct"]]
    for run in bad:
        print(f"NOT CORRECT: {run['workload']} seed {run['seed']} "
              f"trace {run['trace']} (exit {run['exit_code']})")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK."
                             "json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure in this process: 0 end-to-end, "
                             "1 per-layer")
    parser.add_argument("--repeats", type=int, default=1,
                        help="end-to-end runs per workload, seeds "
                             "seed..seed+R-1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fields, two passes: checks, no timings")
    parser.add_argument("--out", help="results file (default out/results.json)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.trace is None:
        return run_all(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_child(args)


if __name__ == "__main__":
    sys.exit(main())
