"""Chaos harness: progressive retrieval through seeded fault schedules.

The property under test is the one the resilience layer exists for:
**a progressive session whose retries succeed is bit-identical to a
clean run** — the fault schedule may cost extra reads, never accuracy.
And when retries are disabled so faults *do* land, degraded mode must
return exactly the last committed refinement and a later resume must be
bit-identical to the clean staircase.

Every schedule is deterministic (seed-driven, per-key access counts),
so failures replay exactly; the retry policies here never sleep.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.core.backends import (
    _MAX_TASK_RETRIES,
    shared_process_backend,
    task_name,
)
from repro.core.errors import (
    SegmentCorruptionError,
    StoreError,
    TransientStoreError,
    WorkerCrashedError,
)
from repro.core.faults import (
    FaultInjectingStore,
    ResilientReader,
    RetryPolicy,
    WorkerChaos,
)
from repro.core.refactor import RefactorConfig, refactor
from repro.core.reconstruct import Reconstructor
from repro.core.service import RetrievalService
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    load_field,
    open_field,
    open_tiled_field,
    store_field,
    store_tiled_field,
)
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data import generators as gen
from repro.qoi import retrieval, retrieve_qoi, v_total

STAIRCASE = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
CHAOS_SEEDS = [1, 2, 3, 4, 5]
ROI = (slice(4, 14), slice(2, 12), None)


def _noop_sleep(_):
    pass


def chaos_policy(max_attempts=8):
    """Aggressive retries with zero wall-clock cost."""
    return RetryPolicy(max_attempts=max_attempts, base_delay_s=0.0,
                       jitter=0.0, sleep=_noop_sleep)


@pytest.fixture(scope="module")
def data():
    return gen.gaussian_random_field((18, 14, 10), -2.0, seed=21,
                                     dtype=np.float64)


@pytest.fixture(scope="module")
def stored(data):
    store = MemoryStore()
    store_field(store, refactor(data, name="vx"))
    return store


@pytest.fixture(scope="module")
def tiled_stored(data):
    store = MemoryStore()
    tiled = TiledRefactorer((8, 8, 8)).refactor(data, name="rho")
    store_tiled_field(store, tiled)
    return store, tiled


@pytest.fixture(scope="module")
def clean_staircase(stored):
    recon = Reconstructor(open_field(stored, "vx"))
    return [recon.reconstruct(tolerance=t).data.copy() for t in STAIRCASE]


def _resilient(store, seed, transient_rate=0.10, corrupt_rate=0.0,
               max_attempts=8):
    flaky = FaultInjectingStore(store, seed=seed,
                                transient_rate=transient_rate,
                                corrupt_rate=corrupt_rate,
                                sleep=_noop_sleep)
    return flaky, ResilientReader(flaky, chaos_policy(max_attempts))


def _processes_refactor(data):
    """A ``processes:2`` tiled refactor of *data* on the shared pool."""
    return TiledRefactorer((8, 8, 8), num_workers=2,
                           backend="processes:2").refactor(data, name="rho")


def _streams(tiled):
    return [f.to_bytes() for f in tiled.fields]


def _assert_roi_staircase(recon, ref, steps=STAIRCASE):
    """Each ROI step of *recon* is bit-identical to the clean *ref*."""
    for tol in steps:
        expected = ref.reconstruct(tolerance=tol, region=ROI)
        got = recon.reconstruct(tolerance=tol, region=ROI)
        assert got.degraded is False
        assert got.failed_tiles == []
        np.testing.assert_array_equal(got.data, expected.data)
        assert got.error_bound == expected.error_bound


class TestEagerChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_eager_load_bit_identical_under_transients(self, data, stored,
                                                       seed):
        flaky, reader = _resilient(stored, seed)
        chaotic = load_field(reader, "vx")
        clean = load_field(stored, "vx")
        r1 = Reconstructor(chaotic).reconstruct(tolerance=1e-3)
        r2 = Reconstructor(clean).reconstruct(tolerance=1e-3)
        np.testing.assert_array_equal(r1.data, r2.data)
        assert r1.error_bound == r2.error_bound

    def test_chaos_actually_injected(self, stored):
        """Guard against a vacuous harness: across the seeds, faults
        must actually fire (10% of dozens of reads)."""
        total = 0
        for seed in CHAOS_SEEDS:
            flaky, reader = _resilient(stored, seed)
            load_field(reader, "vx")
            total += flaky.injected_transients
        assert total > 0


class TestLazyStaircaseChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_lazy_staircase_bit_identical(self, stored, clean_staircase,
                                          seed):
        flaky, reader = _resilient(stored, seed)
        recon = Reconstructor(open_field(reader, "vx"))
        for tol, ref in zip(STAIRCASE, clean_staircase):
            result = recon.reconstruct(tolerance=tol)
            assert result.degraded is False
            np.testing.assert_array_equal(result.data, ref)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_staircase_batched_and_per_key_bit_identical(
        self, stored, clean_staircase, seed, monkeypatch
    ):
        """The seeded staircase once with each step's fetch batched
        (one ``settle_many``) and once key by key: both bit-identical to
        the clean run and to each other, fetched bytes included."""

        def per_key_fetch_step(recon, step):
            for lv, have, want in zip(
                recon.field.levels, recon.fetched_groups, step.groups
            ):
                for g in range(have, want):
                    lv.groups[g]

        runs = []
        for per_key in (False, True):
            if per_key:
                monkeypatch.setattr(Reconstructor, "fetch_step",
                                    per_key_fetch_step)
            flaky, reader = _resilient(stored, seed)
            recon = Reconstructor(open_field(reader, "vx"))
            results = [recon.reconstruct(tolerance=t) for t in STAIRCASE]
            for result, ref in zip(results, clean_staircase):
                assert result.degraded is False
                np.testing.assert_array_equal(result.data, ref)
            assert flaky.injected_transients > 0
            runs.append([(r.data.tobytes(), r.fetched_bytes, r.error_bound)
                         for r in results])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_staircase_with_corruption_heals(self, stored,
                                             clean_staircase, seed):
        """Bit-flips on the wire: CRC verification + retry heal them.

        The checksums live in the *retry* layer here, so a segment
        corrupted several accesses in a row still heals (the resolver
        above re-fetches only once on mismatch). Opening reads only the
        index, so the opened field's refs can arm the retry layer
        before any segment is read."""
        flaky, reader = _resilient(stored, seed, transient_rate=0.05,
                                   corrupt_rate=0.25)
        field = open_field(reader, "vx")
        reader.register_checksums(
            {r.key: r.crc32 for lv in field.levels for r in lv.refs}
        )
        recon = Reconstructor(field)
        for tol, ref in zip(STAIRCASE, clean_staircase):
            np.testing.assert_array_equal(
                recon.reconstruct(tolerance=tol).data, ref
            )

    def test_service_staircase_under_chaos(self, stored, clean_staircase):
        """The full service stack (cache + sessions) over a flaky
        store, retried below the cache."""
        flaky, reader = _resilient(stored, seed=9)
        service = RetrievalService(reader)
        with service.session("vx") as session:
            for tol, ref in zip(STAIRCASE, clean_staircase):
                np.testing.assert_array_equal(
                    session.reconstruct(tolerance=tol).data, ref
                )
        assert flaky.injected_transients > 0


class TestTiledRoiChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_roi_staircase_bit_identical(self, tiled_stored, seed):
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        flaky, reader = _resilient(store, seed)
        chaotic = TiledReconstructor(open_tiled_field(reader, "rho"))
        for tol in STAIRCASE:
            expected = ref.reconstruct(tolerance=tol, region=ROI)
            got = chaotic.reconstruct(tolerance=tol, region=ROI)
            assert got.degraded is False
            np.testing.assert_array_equal(got.data, expected.data)
            assert got.error_bound == expected.error_bound


class TestDegradeAndResume:
    def test_mid_staircase_outage_degrades_then_resumes(
        self, stored, clean_staircase
    ):
        """Retries disabled, outage at step 3: degrade returns step 2's
        committed answer; after recovery the staircase resumes
        bit-identically."""
        flaky = FaultInjectingStore(stored, sleep=_noop_sleep)
        recon = Reconstructor(open_field(flaky, "vx"))
        for tol, ref in zip(STAIRCASE[:2], clean_staircase[:2]):
            np.testing.assert_array_equal(
                recon.reconstruct(tolerance=tol).data, ref
            )

        flaky.transient_rate = 1.0  # total outage, no retry layer
        degraded = recon.reconstruct(tolerance=STAIRCASE[2],
                                     on_fault="degrade")
        assert degraded.degraded is True
        assert degraded.failed_groups is not None
        np.testing.assert_array_equal(degraded.data, clean_staircase[1])

        flaky.transient_rate = 0.0  # store recovers
        for tol, ref in zip(STAIRCASE[2:], clean_staircase[2:]):
            resumed = recon.reconstruct(tolerance=tol)
            assert resumed.degraded is False
            np.testing.assert_array_equal(resumed.data, ref)

    def test_repeated_degrade_is_stable(self, stored, clean_staircase):
        """Asking again during the outage keeps returning the same
        committed answer — degrade is idempotent, not compounding."""
        flaky = FaultInjectingStore(stored, sleep=_noop_sleep)
        recon = Reconstructor(open_field(flaky, "vx"))
        recon.reconstruct(tolerance=STAIRCASE[0])
        flaky.transient_rate = 1.0
        first = recon.reconstruct(tolerance=1e-3, on_fault="degrade")
        second = recon.reconstruct(tolerance=1e-3, on_fault="degrade")
        assert first.degraded and second.degraded
        np.testing.assert_array_equal(first.data, second.data)
        np.testing.assert_array_equal(first.data, clean_staircase[0])

    def test_tiled_roi_outage_degrades_then_resumes(self, tiled_stored):
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        ref_steps = [ref.reconstruct(tolerance=t, region=ROI)
                     for t in STAIRCASE[:3]]

        flaky = FaultInjectingStore(store, sleep=_noop_sleep)
        recon = TiledReconstructor(open_tiled_field(flaky, "rho"))
        step1 = recon.reconstruct(tolerance=STAIRCASE[0], region=ROI)
        np.testing.assert_array_equal(step1.data, ref_steps[0].data)

        flaky.transient_rate = 1.0
        degraded = recon.reconstruct(tolerance=STAIRCASE[1], region=ROI,
                                     on_fault="degrade")
        assert degraded.degraded is True
        assert degraded.failed_tiles
        np.testing.assert_array_equal(degraded.data, step1.data)

        flaky.transient_rate = 0.0
        for tol, expected in zip(STAIRCASE[1:3], ref_steps[1:3]):
            resumed = recon.reconstruct(tolerance=tol, region=ROI)
            assert resumed.degraded is False
            np.testing.assert_array_equal(resumed.data, expected.data)


class TestServiceQoIChaos:
    """A service QoI call whose store fails a segment mid-call raises,
    records no outcome for the iteration that failed, and a retry
    equals a fresh call bit for bit."""

    NAMES = ("Vx", "Vy", "Vz")

    @pytest.fixture(scope="class")
    def velocity(self):
        store = MemoryStore()
        for name, values in zip(self.NAMES, gen.turbulence_velocity(
                (12, 12, 12), seed=5, dtype=np.float64)):
            store_field(store, refactor(values, name=name))
        return store

    def _late_key(self, store, qoi, tol) -> str:
        """A segment the call first plans after its first iteration."""
        groups = []
        for cap in (1, 200):
            with RetrievalService(store) as clean:
                clean.retrieve_qoi(qoi, tol, max_iterations=cap)
                groups.append({name: recon.fetched_groups for name, recon
                               in clean._qoi_recons.items()})
        first, final = groups
        field = open_field(store, "Vx")
        for level, (g1, g) in enumerate(zip(first["Vx"], final["Vx"])):
            if g > g1:
                return field.levels[level].refs[g - 1].key
        raise AssertionError("the call's later iterations plan no new Vx group")

    def test_failed_iteration_records_nothing_and_retry_is_fresh(
            self, velocity, monkeypatch):
        qoi, tol = v_total(self.NAMES), 1e-4
        want = retrieve_qoi({n: load_field(velocity, n) for n in self.NAMES},
                            qoi, tol)
        key = self._late_key(velocity, qoi, tol)
        flaky = FaultInjectingStore(velocity, fail_first={key: 1})
        estimates = []
        estimate = retrieval._estimate
        monkeypatch.setattr(retrieval, "_estimate", lambda *args: (
            estimates.append(1), estimate(*args))[1])
        with RetrievalService(flaky) as service:
            with pytest.raises(StoreError, match=key):
                service.retrieve_qoi(qoi, tol)
            assert flaky.injected_transients == 1
            # Only the iterations that completed were recorded; the
            # retry replays them.
            completed = len(estimates)
            assert 1 <= completed < want.iterations
            assert service.stats()["qoi"] == {
                "memo_entries": completed, "memo_hits": 0}
            got = service.retrieve_qoi(qoi, tol)
            assert service.stats()["qoi"]["memo_hits"] == completed
        assert got.qoi_values.tobytes() == want.qoi_values.tobytes()
        for name in self.NAMES:
            assert got.values[name].tobytes() == want.values[name].tobytes()
        assert (got.estimated_error, got.iterations, got.fetched_bytes) == (
            want.estimated_error, want.iterations, want.fetched_bytes)
        assert [dataclasses.replace(h, cold_bytes=0) for h in got.history] \
            == [dataclasses.replace(h, cold_bytes=0) for h in want.history]


class TestOnDiskCorruptionRecovery:
    def test_directory_store_corruption_degrade_restore_resume(
        self, data, tmp_path
    ):
        """End-to-end repair story on a real directory store: flip a
        byte of every unfetched segment inside the pack, watch the typed
        error, degrade through the outage, repair by re-putting the good
        blobs (an append at a new offset), resume bit-identically."""
        root = tmp_path / "s"
        store = DirectoryStore(root)
        store_field(store, refactor(data, name="vx"))
        ref = Reconstructor(open_field(store, "vx"))
        ref1 = ref.reconstruct(tolerance=STAIRCASE[0])
        ref2 = ref.reconstruct(tolerance=STAIRCASE[3])

        recon = Reconstructor(open_field(store, "vx"))
        step1 = recon.reconstruct(tolerance=STAIRCASE[0])
        np.testing.assert_array_equal(step1.data, ref1.data)

        # Garble every payload segment where the manifest says it lives.
        table = json.loads((root / "manifest.json").read_text())["segments"]
        originals = {}
        with open(root / "segments.pack", "r+b") as pack:
            for key, (offset, length) in table.items():
                if ".index" in key:
                    continue
                originals[key] = store.get(key)
                assert len(originals[key]) == length
                pack.seek(offset)
                pack.write(bytes([originals[key][0] ^ 0xFF]))

        with pytest.raises(SegmentCorruptionError):
            recon.reconstruct(tolerance=STAIRCASE[3])
        degraded = recon.reconstruct(tolerance=STAIRCASE[3],
                                     on_fault="degrade")
        assert degraded.degraded is True
        np.testing.assert_array_equal(degraded.data, step1.data)

        live = store.total_bytes()
        with store.batch():  # the operator repairs
            for key, blob in originals.items():
                store.put(key, blob)
        assert store.total_bytes() == live  # bad copies are dead bytes
        assert (root / "segments.pack").stat().st_size > live
        resumed = recon.reconstruct(tolerance=STAIRCASE[3])
        assert resumed.degraded is False
        np.testing.assert_array_equal(resumed.data, ref2.data)

    def test_permanent_single_segment_failure_gives_up_typed(
        self, stored
    ):
        """One permanently-failing key: retries exhaust and the typed
        transient error (not a decode crash) reaches the caller."""
        key = next(k for k in stored.keys()
                   if ".index" not in k and ".L0." in k)
        flaky = FaultInjectingStore(stored, fail_first={key: 10 ** 9},
                                    sleep=_noop_sleep)
        reader = ResilientReader(flaky, chaos_policy(max_attempts=3))
        recon = Reconstructor(open_field(reader, "vx"))
        with pytest.raises(TransientStoreError):
            recon.reconstruct(tolerance=1e-3)
        assert reader.policy.giveups >= 1


class TestProcessBackendChaosParity:
    """Seeded chaos schedules replay bit-identically across backends.

    Fault decisions are pure functions of ``(seed, key, nth-access)``,
    and a ``processes`` read runs in this process against the same
    injector, so it sees the *same* schedule the serial engine does.
    Retried transients must therefore cost identical extra reads and
    zero accuracy under every backend. (Untiled reconstructors are
    serial and have no backend axis.)
    """

    @pytest.mark.backend
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tiled_roi_transient_staircase_parity(self, tiled_stored,
                                                  seed):
        store, _ = tiled_stored

        def run(backend):
            flaky, reader = _resilient(store, seed)
            recon = TiledReconstructor(open_tiled_field(reader, "rho"),
                                       num_workers=2, backend=backend)
            steps = [recon.reconstruct(tolerance=t, region=ROI)
                     for t in STAIRCASE]
            counters = recon.counters()
            recon.close()
            return steps, counters

        (s_steps, s_counters) = run(None)
        (p_steps, p_counters) = run("processes:2")
        # stream-level traffic sits above the retry layer, so the
        # healed schedules cost the same successful reads everywhere
        assert s_counters == p_counters
        for a, b in zip(s_steps, p_steps):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.error_bound == b.error_bound
            assert a.degraded is b.degraded is False
            assert a.failed_tiles == b.failed_tiles == []

    @pytest.mark.backend
    def test_tiled_fail_first_degrade_schedule_parity(self, tiled_stored):
        """Pre-programmed hard faults (no retry headroom) must produce
        the *same* degraded steps and the same clean resume."""
        store, _ = tiled_stored
        schedule = {
            "rho.T0_0_0.index": 1,
            "rho.T0_1_0.L0.G0": 1,
        }

        def run(backend):
            flaky = FaultInjectingStore(store, fail_first=dict(schedule),
                                        sleep=_noop_sleep)
            recon = TiledReconstructor(open_tiled_field(flaky, "rho"),
                                       num_workers=2, backend=backend)
            steps = [recon.reconstruct(tolerance=t, region=ROI,
                                       on_fault="degrade")
                     for t in STAIRCASE[:3]]
            recon.close()
            return steps

        serial, procs = run(None), run("processes:2")
        assert any(s.degraded for s in serial)
        for a, b in zip(serial, procs):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.degraded == b.degraded
            assert a.failed_tiles == b.failed_tiles
            assert a.failed_groups == b.failed_groups
        assert serial[-1].degraded is False


class TestPipelinedChaos:
    """The pipelined tiled route under the same chaos schedules.

    Fault decisions are pure functions of ``(seed, key, nth-access)``
    and the pipelined runtime keeps each work item's store accesses in
    the sequential path's exact key order, so every schedule here must
    replay *identically* with ``pipelined=True``: same healed data,
    same injected-fault counts, same degraded/failed-tile sets.
    """

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tiled_roi_transient_staircase_parity(self, tiled_stored,
                                                  seed):
        store, _ = tiled_stored

        def run(pipelined):
            flaky, reader = _resilient(store, seed)
            recon = TiledReconstructor(
                open_tiled_field(reader, "rho"), num_workers=2,
                backend="threads:2", pipelined=pipelined,
            )
            steps = [recon.reconstruct(tolerance=t, region=ROI)
                     for t in STAIRCASE]
            counters = recon.counters()
            recon.close()
            return steps, flaky.injected_transients, counters

        (s_steps, s_faults, s_counters) = run(False)
        (p_steps, p_faults, p_counters) = run(True)
        assert s_faults == p_faults
        assert s_counters == p_counters
        for a, b in zip(s_steps, p_steps):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.error_bound == b.error_bound
            assert a.degraded is b.degraded is False
            assert a.failed_tiles == b.failed_tiles == []

    def test_tiled_fail_first_degrade_schedule_parity(self, tiled_stored):
        """Pre-programmed hard faults (no retry headroom): the pipelined
        staircase must produce the *same* degraded steps — identical
        ``failed_tiles``/``failed_groups`` — and the same clean
        resume."""
        store, _ = tiled_stored
        schedule = {
            "rho.T0_0_0.index": 1,
            "rho.T0_1_0.L0.G0": 1,
        }

        def run(pipelined):
            flaky = FaultInjectingStore(store, fail_first=dict(schedule),
                                        sleep=_noop_sleep)
            recon = TiledReconstructor(
                open_tiled_field(flaky, "rho"), backend="serial",
                pipelined=pipelined,
            )
            steps = [recon.reconstruct(tolerance=t, region=ROI,
                                       on_fault="degrade")
                     for t in STAIRCASE[:3]]
            recon.close()
            return steps

        serial, piped = run(False), run(True)
        assert any(s.degraded for s in serial)
        for a, b in zip(serial, piped):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.degraded == b.degraded
            assert a.failed_tiles == b.failed_tiles
            assert a.failed_groups == b.failed_groups
        assert serial[-1].degraded is False

    @pytest.mark.backend
    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_tiled_worker_kill_with_pipelined_flag(self, data, tiled_stored,
                                                   tmp_path, seed):
        """A pipelined ``processes:2`` read runs in this process, so a
        seeded kill schedule installed on the pool cannot reach it: the
        staircase is bit-identical to the clean reference, the pool is
        sent no task and the schedule stays unfired — until a
        ``processes:2`` refactor runs on the pool, where it fires once
        and heals byte-identically."""
        store, tiled = tiled_stored
        backend = shared_process_backend(2)
        chaos = WorkerChaos.single_kill(seed, num_tasks=tiled.num_tiles,
                                        scratch_dir=tmp_path)
        backend.install_chaos(chaos)
        before = backend.health()
        try:
            with TiledReconstructor(
                open_tiled_field(store, "rho"), num_workers=2,
                backend="processes:2", pipelined=True,
            ) as recon:
                _assert_roi_staircase(recon, TiledReconstructor(tiled))
            assert chaos.total_fired() == 0
            assert (backend.health()["tasks_dispatched"]
                    == before["tasks_dispatched"])
            built = _processes_refactor(data)
        finally:
            backend.clear_chaos()
        assert chaos.total_fired() == 1
        assert backend.health()["respawns"] == before["respawns"] + 1
        assert _streams(built) == _streams(tiled)


class TestWorkerKillChaos:
    """Process-*level* chaos: seeded worker kills during the write that
    a staircase later reads.

    Where :class:`TestProcessBackendChaosParity` injects store faults,
    these schedules kill the pool's workers themselves (``os._exit``,
    no cleanup) via :class:`WorkerChaos` while a ``processes:2``
    refactor runs on them. The self-healing pool must make every kill
    invisible in the written streams and in every staircase read back
    from them — bit-identical to the serial reference — and visible
    *only* in the pool's health counters. Marker files under
    ``tmp_path`` persist each schedule's fire counts across the kills
    it causes, so every test also asserts the chaos actually fired (no
    vacuous pass).
    """

    pytestmark = pytest.mark.backend

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tiled_roi_staircase_bit_identical_under_worker_kill(
        self, data, tiled_stored, tmp_path, seed
    ):
        """One seeded kill among the refactor's tile tasks; the field it
        writes reads back through a ``processes:2`` ROI staircase
        bit-identical to the serial reference, and the read sends the
        pool no task."""
        _, tiled = tiled_stored
        backend = shared_process_backend(2)
        chaos = WorkerChaos.single_kill(seed, num_tasks=tiled.num_tiles,
                                        scratch_dir=tmp_path)
        backend.install_chaos(chaos)
        before = backend.health()
        try:
            built = _processes_refactor(data)
        finally:
            backend.clear_chaos()
        assert chaos.total_fired() == 1
        assert backend.health()["respawns"] == before["respawns"] + 1
        assert _streams(built) == _streams(tiled)
        store = MemoryStore()
        store_tiled_field(store, built)
        dispatched = backend.health()["tasks_dispatched"]
        with TiledReconstructor(open_tiled_field(store, "rho"),
                                num_workers=2,
                                backend="processes:2") as recon:
            _assert_roi_staircase(recon, TiledReconstructor(tiled))
        assert backend.health()["tasks_dispatched"] == dispatched

    def test_repeat_kill_rebuilds_worker_resident_state(
        self, data, tiled_stored, tmp_path
    ):
        """Fail-first-budget: the same call dies on its first try *and*
        on every in-batch retry the budget allows, so its slot's
        per-shape refactorer cache is lost that many times and rebuilt
        from scratch on the last worker, which succeeds. The next
        refactor, on the healed pool, runs clean. Both are
        byte-identical to the serial refactor."""
        _, tiled = tiled_stored
        backend = shared_process_backend(2)
        kills = _MAX_TASK_RETRIES
        chaos = WorkerChaos({1: ("exit", kills)}, tmp_path)
        backend.install_chaos(chaos)
        before = backend.health()
        try:
            first = _processes_refactor(data)
            assert chaos.fired(1) == kills
            second = _processes_refactor(data)
        finally:
            backend.clear_chaos()
        assert chaos.fired(1) == kills
        health = backend.health()
        assert health["respawns"] == before["respawns"] + kills
        assert health["task_retries"] == before["task_retries"] + kills
        assert health["quarantines"] == before["quarantines"]
        assert _streams(first) == _streams(second) == _streams(tiled)
        # the last worker on slot 1 ran every call dealt to that slot
        _, cache, shapes = backend.map_calls(
            [(task_name(_task_resident_refactorers), (RefactorConfig(),))]
            * backend.num_workers
        )[1]
        assert cache is not None
        assert shapes == _slot_shapes(tiled, 1, backend.num_workers)

    def test_service_session_staircase_under_worker_kill(
        self, data, tiled_stored, tmp_path
    ):
        """A ``processes:2`` service session stays open while the pool
        loses a worker to a refactor running between its steps: the
        session reads in this process and never touches the pool, so
        its staircase is bit-identical on both sides of the kill."""
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        backend = shared_process_backend(2)
        chaos = WorkerChaos({0: "exit"}, tmp_path)
        backend.install_chaos(chaos)
        before = backend.health()
        service = RetrievalService(store)
        try:
            with service.session(
                "rho", num_workers=2, backend="processes:2"
            ) as session:
                for i, tol in enumerate(STAIRCASE):
                    if i == 2:
                        built = _processes_refactor(data)
                    expected = ref.reconstruct(tolerance=tol, region=ROI)
                    step = session.reconstruct(tolerance=tol, region=ROI)
                    assert step.degraded is False
                    np.testing.assert_array_equal(step.data, expected.data)
                    assert step.error_bound == expected.error_bound
            # the refactor's tiles are all the pool was sent
            assert (backend.health()["tasks_dispatched"]
                    == before["tasks_dispatched"] + tiled.num_tiles)
        finally:
            backend.clear_chaos()
            service.close()
        assert chaos.total_fired() == 1
        assert backend.health()["respawns"] == before["respawns"] + 1
        assert _streams(built) == _streams(tiled)

    def test_poison_tile_quarantined_then_refactor_resumes_byte_identical(
        self, data, tiled_stored, tmp_path
    ):
        """A tile whose refactor kills every worker it lands on exhausts
        its retry budget and is quarantined: the refactor raises a typed
        :class:`WorkerCrashedError` instead of returning a field with a
        hole. Once the poison clears, the same refactor is
        byte-identical to the serial one — crash loss heals."""
        _, tiled = tiled_stored
        backend = shared_process_backend(2)
        before = backend.health()["quarantines"]
        chaos = WorkerChaos({1: ("exit", 10)}, tmp_path)
        backend.install_chaos(chaos)
        try:
            with pytest.raises(WorkerCrashedError, match="quarantined"):
                _processes_refactor(data)
            assert backend.health()["quarantines"] == before + 1
            # the poison fired through its whole budget: initial try
            # plus _MAX_TASK_RETRIES consecutive fresh workers
            assert chaos.fired(1) == _MAX_TASK_RETRIES + 1
            backend.clear_chaos()  # the poison clears
            resumed = _processes_refactor(data)
        finally:
            backend.clear_chaos()
        assert _streams(resumed) == _streams(tiled)


class TestWriteSurvivesWorkerKill:
    """Process-level chaos on the pool's one route, the tiled refactor:
    a worker killed in the middle of a ``processes:2`` refactor is
    respawned, its tile retried, and every tile's stream comes back
    byte-identical to the serial refactor — the kill shows only in the
    health counters. Marker files under ``tmp_path`` persist the
    schedule's fire counts across the kills it causes, so the test
    asserts the chaos actually fired (no vacuous pass)."""

    pytestmark = pytest.mark.backend

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_tiled_refactor_byte_identical_under_worker_kill(
        self, data, tiled_stored, tmp_path, seed
    ):
        _, reference = tiled_stored
        backend = shared_process_backend(2)
        chaos = WorkerChaos.single_kill(
            seed, num_tasks=len(reference.fields), scratch_dir=tmp_path
        )
        backend.install_chaos(chaos)
        before = backend.health()["respawns"]
        try:
            built = _processes_refactor(data)
        finally:
            backend.clear_chaos()
        assert chaos.total_fired() == 1
        assert backend.health()["respawns"] == before + 1
        assert [f.to_bytes() for f in built.fields] == [
            f.to_bytes() for f in reference.fields
        ]
        assert built.value_range == reference.value_range


def _task_resident_refactorers(state, config):
    """Worker-side probe: this worker's refactorer cache for *config*."""
    cache = state.get(("tiled-refactorer", config))
    if cache is None:
        return os.getpid(), None, []
    return os.getpid(), id(cache), sorted(cache)


def _slot_shapes(tiled, slot, num_workers):
    """The tile shapes of the refactor calls dealt to *slot*."""
    return sorted({tile.shape for i, tile in enumerate(tiled.tiles)
                   if i % num_workers == slot})


class TestSurvivorsStayWarm:
    """Nothing tells a surviving worker that its neighbour died.

    A worker keeps its per-shape refactorer cache for its whole life,
    so a kill costs exactly the dead slot's cache: every survivor keeps
    its process and the very same cache across the kill, and only the
    replaced slot rebuilds its cache, from the calls it then runs.
    """

    pytestmark = pytest.mark.backend

    def test_kill_rebuilds_only_the_dead_slot(self, data, tiled_stored,
                                              tmp_path):
        _, tiled = tiled_stored
        backend = shared_process_backend(2)
        per_worker = [(task_name(_task_resident_refactorers),
                       (RefactorConfig(),))] * backend.num_workers

        def step():
            assert _streams(_processes_refactor(data)) == _streams(tiled)
            return backend.map_calls(per_worker)

        before = step()  # every slot warm
        assert all(cache is not None for _, cache, _ in before)
        # call #victim is the first call dealt to the last slot, so the
        # replacement runs every call of that slot
        victim = backend.num_workers - 1
        chaos = WorkerChaos({victim: "exit"}, tmp_path)
        backend.install_chaos(chaos)
        try:
            after = step()
        finally:
            backend.clear_chaos()
        assert chaos.total_fired() == 1
        for slot, (was, now) in enumerate(zip(before, after)):
            if slot == victim:
                assert now[0] != was[0]  # a replacement process
                assert now[1] is not None
                assert now[2] == _slot_shapes(tiled, victim,
                                              backend.num_workers)
            else:
                assert now == was  # same pid, same cache, same shapes
        assert step() == after  # nothing rebuilt once healed
