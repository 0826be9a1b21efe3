"""Fixture-driven tests for the reprolint static-analysis suite.

Each rule gets at least one true positive and one true negative on
synthetic snippets, plus pragma suppression and baseline round-trip
coverage.  The final test lints the real ``src/repro`` tree — the same
gate the CI lint job enforces — so a regression that reintroduces a
violation fails tier-1 directly.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import all_rules, fingerprints, lint_paths, lint_source
from tools.reprolint import baseline as baseline_mod
from tools.reprolint.__main__ import main as reprolint_main

CORE_PATH = "src/repro/core/fixture.py"


def run(source: str, rule_id: str, path: str = CORE_PATH):
    rules = [all_rules()[rule_id]]
    return lint_source(textwrap.dedent(source), path, rules=rules)


# -- R1 lock-discipline ----------------------------------------------------


R1_CLASS_HEADER = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0
"""


def test_r1_flags_unlocked_read_of_guarded_attr():
    result = run(R1_CLASS_HEADER + """
        def bump(self):
            with self._lock:
                self.count += 1

        def peek(self):
            return self.count
    """, "R1")
    assert len(result.findings) == 1
    assert result.findings[0].rule == "R1"
    assert "count" in result.findings[0].message
    assert "peek" not in result.findings[0].message  # message names the attr


def test_r1_accepts_locked_access_and_init_writes():
    result = run(R1_CLASS_HEADER + """
        def bump(self):
            with self._lock:
                self.count += 1

        def peek(self):
            with self._lock:
                return self.count
    """, "R1")
    assert result.findings == []


def test_r1_flags_unlocked_mutator_call():
    result = run("""
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = set()

            def register(self, item):
                with self._lock:
                    self._items.add(item)

            def forget(self, item):
                self._items.discard(item)
    """, "R1")
    assert len(result.findings) == 1
    assert "_items" in result.findings[0].message


def test_r1_caller_holds_lock_inference():
    # _insert is only ever called with the lock held, so its writes are
    # guarded and must not be flagged; the unlocked public caller is.
    result = run("""
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def put(self, key, value):
                with self._lock:
                    self._insert(key, value)

            def _insert(self, key, value):
                self._entries[key] = value

            def sneak(self, key, value):
                self._entries[key] = value
    """, "R1")
    assert len(result.findings) == 1
    assert result.findings[0].snippet == "self._entries[key] = value"
    assert "sneak" not in {f.message for f in result.findings}  # one site


def test_r1_manual_acquire_counts_as_held():
    result = run(R1_CLASS_HEADER + """
        def bump(self):
            with self._lock:
                self.count += 1

        def drain(self):
            self._lock.acquire()
            try:
                return self.count
            finally:
                self._lock.release()
    """, "R1")
    assert result.findings == []


def test_r1_deferred_bound_method_is_not_a_call_site():
    # pool.submit(self._work) inside the lock must NOT make _work
    # lock-held: it executes later on another thread.
    result = run("""
        import threading

        class Service:
            def __init__(self, pool):
                self._lock = threading.Lock()
                self._pool = pool
                self.failures = 0
                self.requests = 0

            def kick(self):
                with self._lock:
                    self.requests += 1
                    self._pool.submit(self._work)

            def _work(self):
                self.failures += 1

            def stats(self):
                return self.failures
    """, "R1")
    assert result.findings == []


# -- R2 error-taxonomy -----------------------------------------------------


def test_r2_flags_swallowing_broad_handler_in_core():
    result = run("""
        def fetch(store, key):
            try:
                return store[key]
            except Exception:
                return None
    """, "R2")
    assert len(result.findings) == 1
    assert "swallows" in result.findings[0].message


def test_r2_accepts_converting_handler():
    result = run("""
        from repro.core.errors import TransientStoreError

        def fetch(store, key):
            try:
                return store[key]
            except Exception as exc:
                raise TransientStoreError(str(exc)) from exc
    """, "R2")
    assert result.findings == []


def test_r2_is_scoped_to_core():
    result = run("""
        def fetch(store, key):
            try:
                return store[key]
            except Exception:
                return None
    """, "R2", path="src/repro/util/fixture.py")
    assert result.findings == []


def test_r2_flags_untyped_raise_in_worker_task():
    result = run("""
        def _task_decode(state, key):
            raise RuntimeError("boom")
    """, "R2")
    assert len(result.findings) == 1
    assert "RuntimeError" in result.findings[0].message


def test_r2_accepts_taxonomy_raise_and_locally_converted_raise():
    result = run("""
        from repro.core.errors import (
            SegmentCorruptionError,
            WorkerCrashedError,
        )

        def _task_decode(state, key):
            if key not in state:
                raise WorkerCrashedError("no session")
            try:
                value = state[key]
                if not isinstance(value, dict):
                    raise ValueError("not an object")
            except ValueError as exc:
                raise SegmentCorruptionError(str(exc)) from exc
            return value
    """, "R2")
    assert result.findings == []


# -- R3 pickle-boundary ----------------------------------------------------


def test_r3_flags_lambda_and_nested_function_args():
    result = run("""
        def fan_out(backend, jobs):
            def decode(job):
                return job * 2
            a = backend.map_jobs(decode, jobs)
            b = backend.map_calls(lambda j: j, jobs)
            backend.install_chaos(lambda: None)
            return a, b
    """, "R3")
    assert len(result.findings) == 3
    messages = " ".join(f.message for f in result.findings)
    assert "nested function 'decode'" in messages
    assert "lambda" in messages
    assert "install_chaos()" in messages


def test_r3_accepts_module_level_and_bound_callables():
    result = run("""
        def decode(job):
            return job * 2

        class Engine:
            def run(self, backend, jobs):
                a = backend.map_jobs(decode, jobs)
                b = backend.submit(self.step, jobs)
                return a, b

            def step(self, job):
                return job
    """, "R3")
    assert result.findings == []


# -- tiled batch-runner fixtures (R1 + R3) ----------------------------------
#
# A pipelined tiled step shares state between its fetch pool and the
# caller thread that decodes, so the batch runner (`ThreadPool.map` in
# `core/backends.py`) and its caller (`core/tiling.py`) are exactly the
# shape R1 and R3 exist for. These fixtures model their hazards; the
# final test holds both real modules to both rules with an empty
# baseline.

PIPELINE_PATH = "src/repro/core/tiling_fixture.py"


def test_r1_flags_pipeline_pool_handle_touched_unguarded():
    result = run("""
        import threading

        class Window:
            def __init__(self):
                self._lock = threading.Lock()
                self._pool = None

            def executor(self):
                with self._lock:
                    if self._pool is None:
                        self._pool = object()
                    return self._pool

            def close(self):
                self._pool = None  # races a fetch thread in executor()
    """, "R1", path=PIPELINE_PATH)
    assert len(result.findings) == 1
    assert "_pool" in result.findings[0].message


def test_r1_accepts_pipeline_pool_handle_guarded_everywhere():
    result = run("""
        import threading

        class Window:
            def __init__(self):
                self._lock = threading.Lock()
                self._pool = None

            def executor(self):
                with self._lock:
                    if self._pool is None:
                        self._pool = object()
                    return self._pool

            def close(self):
                with self._lock:
                    pool, self._pool = self._pool, None
                return pool
    """, "R1", path=PIPELINE_PATH)
    assert result.findings == []


def test_r3_flags_closure_submitted_to_fetch_pool():
    result = run("""
        class Window:
            def run(self, pool, reconstructor, jobs):
                def chain():
                    for job in jobs:
                        reconstructor.fetch_step(job)
                return pool.submit(chain)
    """, "R3", path=PIPELINE_PATH)
    assert len(result.findings) == 1
    assert "chain" in result.findings[0].message


def test_r3_accepts_module_chain_function_and_partial():
    result = run("""
        import functools

        def _fetch_chain(reconstructor, jobs, ready):
            for job in jobs:
                reconstructor.fetch_step(job)
                ready.put(job[0])

        class Window:
            def run(self, pool, reconstructor, jobs, ready):
                fetch = functools.partial(self.fetch_tile, jobs)
                pool.submit(_fetch_chain, reconstructor, jobs, ready)
                return pool.submit(fetch, 0)

            def fetch_tile(self, jobs, index):
                return jobs[index]
    """, "R3", path=PIPELINE_PATH)
    assert result.findings == []


@pytest.mark.parametrize("path", ["src/repro/core/backends.py",
                                  "src/repro/core/tiling.py"])
def test_real_batch_runner_modules_are_r1_r3_clean(path):
    source = (REPO_ROOT / path).read_text()
    rules = [all_rules()["R1"], all_rules()["R3"]]
    result = lint_source(source, path, rules=rules)
    assert result.findings == []
    assert result.suppressed == []  # clean outright, not via pragmas


# -- R4 determinism --------------------------------------------------------


def test_r4_flags_unseeded_rng_and_wall_clock():
    result = run("""
        import random
        import time
        import numpy as np

        def schedule():
            rng = random.Random()
            jitter = random.random()
            gen = np.random.default_rng()
            return rng, jitter, gen, time.time()
    """, "R4", path="src/repro/core/faults.py")
    assert {f.line for f in result.findings} == {7, 8, 9, 10}


def test_r4_accepts_seeded_rng_and_monotonic_clock():
    result = run("""
        import random
        import time
        import numpy as np

        def schedule(seed):
            rng = random.Random(f"{seed}:fetch:0")
            gen = np.random.default_rng(seed)
            return rng, gen, time.monotonic()
    """, "R4", path="src/repro/core/faults.py")
    assert result.findings == []


def test_r4_is_scoped_to_codec_chaos_decode_modules():
    result = run("""
        import random

        def sample():
            return random.random()
    """, "R4", path="src/repro/core/backends.py")
    assert result.findings == []


# -- R5 api-validation -----------------------------------------------------


def test_r5_flags_inline_tolerance_checks():
    result = run("""
        import math

        def plan(field, tolerance):
            tol = float(tolerance)
            if not math.isfinite(tol):
                raise ValueError("bad")
            return tol
    """, "R5", path="src/repro/core/planner.py")
    assert len(result.findings) == 1
    assert "check_tolerance" in result.findings[0].message


def test_r5_accepts_validator_call_and_delegation():
    result = run("""
        from repro.util.validation import check_tolerance

        def plan(field, tolerance):
            tolerance = check_tolerance(tolerance)
            return tolerance

        def retrieve(field, tolerance):
            return plan(field, tolerance)
    """, "R5", path="src/repro/core/planner.py")
    assert result.findings == []


def test_r5_ignores_private_helpers():
    result = run("""
        def _plan(field, tolerance):
            return float(tolerance)
    """, "R5", path="src/repro/core/planner.py")
    assert result.findings == []


# -- pragma suppression ----------------------------------------------------


PRAGMA_VIOLATION = """
    def fetch(store, key):
        try:
            return store[key]
        except Exception:{pragma}
            return None
"""


def test_pragma_on_flagged_line_suppresses():
    src = PRAGMA_VIOLATION.format(
        pragma="  # reprolint: disable=R2 -- probe, result unused"
    )
    result = run(src, "R2")
    assert result.findings == []
    assert len(result.suppressed) == 1


def test_pragma_on_preceding_comment_line_suppresses():
    result = run("""
        def fetch(store, key):
            try:
                return store[key]
            # reprolint: disable=R2 -- probe, result unused
            except Exception:
                return None
    """, "R2")
    assert result.findings == []
    assert len(result.suppressed) == 1


def test_pragma_on_def_line_suppresses_whole_function():
    result = run("""
        def fetch(store, key):  # reprolint: disable=R2 -- best-effort probe
            try:
                one = store[key]
            except Exception:
                one = None
            try:
                two = store[key]
            except Exception:
                two = None
            return one, two
    """, "R2")
    assert result.findings == []
    assert len(result.suppressed) == 2


def test_pragma_for_other_rule_does_not_suppress():
    src = PRAGMA_VIOLATION.format(pragma="  # reprolint: disable=R4")
    result = run(src, "R2")
    assert len(result.findings) == 1


def test_bare_disable_pragma_suppresses_every_rule():
    src = PRAGMA_VIOLATION.format(pragma="  # reprolint: disable")
    result = run(src, "R2")
    assert result.findings == []


# -- baseline round-trip ---------------------------------------------------


def _violation_findings(extra_lines: int = 0):
    src = ("\n" * extra_lines) + textwrap.dedent("""
        def fetch(store, key):
            try:
                return store[key]
            except Exception:
                return None
    """)
    return lint_source(src, CORE_PATH, rules=[all_rules()["R2"]]).findings


def test_baseline_round_trip_and_line_shift_stability(tmp_path):
    findings = _violation_findings()
    path = tmp_path / "baseline.json"
    baseline_mod.save(path, findings)
    known = baseline_mod.load(path)
    assert known == set(fingerprints(findings))

    # The same violation shifted 7 lines down still matches.
    shifted = _violation_findings(extra_lines=7)
    assert shifted[0].line != findings[0].line
    split = baseline_mod.apply(shifted, known)
    assert split.new == []
    assert split.baselined == shifted
    assert split.stale == []


def test_baseline_separates_new_findings_and_stale_entries(tmp_path):
    path = tmp_path / "baseline.json"
    baseline_mod.save(path, _violation_findings())
    known = baseline_mod.load(path)
    split = baseline_mod.apply([], known)
    assert split.new == []
    assert len(split.stale) == 1

    fresh = _violation_findings()
    split = baseline_mod.apply(fresh, set())
    assert split.new == fresh


def test_malformed_baseline_is_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99}')
    with pytest.raises(baseline_mod.BaselineError):
        baseline_mod.load(path)


# -- CLI exit-code semantics ----------------------------------------------


def _write_violation(tmp_path) -> Path:
    target = tmp_path / "sample.py"
    target.write_text(textwrap.dedent("""
        def fan_out(backend, jobs):
            return backend.map_jobs(lambda j: j, jobs)
    """))
    return target


def test_cli_exit_codes(tmp_path, capsys):
    dirty = _write_violation(tmp_path)
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")

    assert reprolint_main([str(clean), "--baseline", "none"]) == 0
    assert reprolint_main([str(dirty), "--baseline", "none"]) == 1
    assert reprolint_main([str(tmp_path / "missing.py")]) == 2
    assert reprolint_main(["--rules", "R9", str(clean)]) == 2
    capsys.readouterr()


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    dirty = _write_violation(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert reprolint_main(
        [str(dirty), "--baseline", str(baseline), "--update-baseline"]
    ) == 0
    assert reprolint_main([str(dirty), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_json_output(tmp_path, capsys):
    import json

    dirty = _write_violation(tmp_path)
    assert reprolint_main([str(dirty), "--baseline", "none", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["new"] == 1
    assert payload["findings"][0]["rule"] == "R3"


def test_cli_reports_syntax_errors(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert reprolint_main([str(bad), "--baseline", "none"]) == 1
    assert "syntax error" in capsys.readouterr().out


# -- the real tree is clean (the tier-1 lint gate) -------------------------


def test_src_repro_is_reprolint_clean():
    result = lint_paths(["src/repro"], REPO_ROOT)
    known = baseline_mod.load(baseline_mod.DEFAULT_BASELINE)
    split = baseline_mod.apply(result.findings, known)
    assert result.errors == []
    assert split.new == [], "\n".join(
        f"{f.location()}: {f.rule}: {f.message}" for f in split.new
    )
    # The core tree must be clean even of baselined findings.
    core = [f for f in split.baselined if f.path.startswith("src/repro/core")]
    assert core == []
