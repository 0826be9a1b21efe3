"""Tier-1 checks of the end-to-end benchmark: the declaration is well
formed, a smoke run of every workload verifies and emits every declared
metric, the trace nests, and the timing wrapper is invisible to the
library."""

from __future__ import annotations

import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One ``run.py --smoke``: every workload untraced on two seeds and
    traced on one, each in its own subprocess."""
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeats", "2",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_smoke_verifies_every_workload_on_two_seeds(smoke_runs):
    assert smoke_runs["header"]["nproc"] >= 1
    seen = {(r["workload"], r["seed"], r["trace"]) for r in smoke_runs["runs"]}
    seed = smoke_runs["header"]["seed"]
    for w in SPEC["workloads"]:
        assert {(w["name"], seed, 0), (w["name"], seed + 1, 0),
                (w["name"], seed, 1)} <= seen
    for run in smoke_runs["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1


def test_smoke_emits_every_declared_metric(smoke_runs):
    for run in smoke_runs["runs"]:
        declared = SPEC["per_layer"] if run["trace"] else SPEC["end_to_end"]
        assert set(run["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            got = run["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert np.isfinite(got["value"])
            if "bound" in m:  # end-to-end values divide a delta: never 0
                assert got["value"] > 0


def test_trace_loads_and_children_nest_inside_parents(smoke_runs):
    for w in SPEC["workloads"]:
        trace = json.loads(
            (HERE / "out" / f"trace_{w['name']}.json").read_text())
        events = {e["args"]["id"]: e for e in trace["traceEvents"]}
        assert events and trace["selfTime"]["harness.pass"]["calls"] >= 1
        slack = 1.0  # us; ts and dur are rounded separately
        for e in events.values():
            parent = events.get(e["args"]["parent"])
            if parent is not None:
                assert e["ts"] >= parent["ts"] - slack
                assert (e["ts"] + e["dur"]
                        <= parent["ts"] + parent["dur"] + slack)


def test_timed_reader_does_not_change_the_program(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    from harness import TimedReader
    from repro.core.faults import FaultInjectingStore
    from repro.core.service import RetrievalService
    from repro.core.store import MemoryStore, store_tiled_field
    from repro.core.tiling import TiledRefactorer
    from repro.data import generators as gen

    class Recording(MemoryStore):
        def __init__(self):
            super().__init__()
            self.log = []

        def get(self, key):
            self.log.append(key)
            return super().get(key)

    def per_tile(log):
        chains = {}
        for key in log:  # tiles fetch concurrently; each tile's chain is ordered
            chains.setdefault(key.split(".")[1], []).append(key)
        return chains

    data = gen.lognormal_density((16, 16, 16), seed=3)
    tiled = TiledRefactorer((8, 8, 8)).refactor(data, name="rho")
    region = (slice(0, 12), slice(0, 12), None)
    observed = []
    for wrap in (False, True):
        inner = Recording()
        store_tiled_field(inner, tiled)
        slow = FaultInjectingStore(inner, latency_s=1e-4,
                                   sleep=lambda seconds: None)
        reader = TimedReader(slow) if wrap else slow
        with RetrievalService(reader) as service:
            with service.tiled_session("rho") as session:
                for tol in (1e-1, 1e-3):
                    out = session.reconstruct(tol, relative=True,
                                              region=region)
                observed.append((session.reconstructor.pipelined,
                                 per_tile(inner.log), out.data.tobytes()))
    assert observed[0] == observed[1]
    assert observed[0][0] is True  # the latency attribute was seen through
    assert reader.get_count == len(inner.log) and reader.get_bytes > 0

    plain = TimedReader(MemoryStore())
    assert not hasattr(plain, "latency_s")  # nothing invented either
    assert not hasattr(plain, "register_checksums")
    inner = MemoryStore()  # workers of the process backend get a copy
    store_tiled_field(inner, tiled)
    clone = pickle.loads(pickle.dumps(TimedReader(inner)))
    assert clone.keys() == inner.keys()
    assert clone.size_of("rho.tiles") == inner.size_of("rho.tiles")
    assert "rho.tiles" in clone and clone.get("rho.tiles")
