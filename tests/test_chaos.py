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

import json
import os

import numpy as np
import pytest

from repro.core.backends import shared_process_backend, task_name
from repro.core.errors import SegmentCorruptionError, TransientStoreError
from repro.core.faults import (
    FaultInjectingStore,
    ResilientReader,
    RetryPolicy,
    WorkerChaos,
)
from repro.core.refactor import refactor
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
        above re-fetches only once on mismatch)."""
        import json

        from repro.core.store import index_checksums

        flaky, reader = _resilient(stored, seed, transient_rate=0.05,
                                   corrupt_rate=0.25)
        reader.register_checksums(
            index_checksums(json.loads(stored.get("vx.index").decode()))
        )
        recon = Reconstructor(open_field(reader, "vx"))
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

    @pytest.mark.parent_store_mutation
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

    Fault decisions are pure functions of ``(seed, key, nth-access)``
    and the injector's per-key access counters travel with its pickled
    copy, so the process backend sees the *same* schedule the serial
    engine does: tiled fetches are pinned one-tile-per-worker. Retried
    transients must therefore cost identical extra reads and zero
    accuracy under every backend. (Untiled reconstructors are serial
    and have no backend axis.)
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
    def test_tiled_worker_kill_with_pipelined_flag(self, tiled_stored,
                                                   tmp_path, seed):
        """Under ``processes:2`` the pipelined flag is inert (workers
        already overlap their own store I/O) — but it must stay
        *harmlessly* inert through seeded worker kills: the healed
        staircase is still bit-identical to the clean reference."""
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        backend = shared_process_backend(2)
        chaos = WorkerChaos.single_kill(seed, num_tasks=8,
                                        scratch_dir=tmp_path)
        backend.install_chaos(chaos)
        before = backend.health()["respawns"]
        recon = TiledReconstructor(
            open_tiled_field(store, "rho"), num_workers=2,
            backend="processes:2", pipelined=True,
        )
        try:
            for tol in STAIRCASE:
                expected = ref.reconstruct(tolerance=tol, region=ROI)
                got = recon.reconstruct(tolerance=tol, region=ROI)
                assert got.degraded is False
                assert got.failed_tiles == []
                np.testing.assert_array_equal(got.data, expected.data)
                assert got.error_bound == expected.error_bound
        finally:
            backend.clear_chaos()
            recon.close()
        assert chaos.total_fired() == 1
        assert backend.health()["respawns"] >= before + 1


class TestWorkerKillChaos:
    """Process-*level* chaos: seeded worker kills mid-staircase.

    Where :class:`TestProcessBackendChaosParity` injects store faults,
    these schedules kill the workers themselves (``os._exit``, no
    cleanup) via :class:`WorkerChaos`. The self-healing pool must make
    every kill invisible in the data — bit-identical to the serial
    staircase — and visible *only* in the pool's health counters.
    Marker files under ``tmp_path`` persist each schedule's fire counts
    across the kills it causes, so every test also asserts the chaos
    actually fired (no vacuous pass).
    """

    pytestmark = pytest.mark.backend

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tiled_roi_staircase_bit_identical_under_worker_kill(
        self, tiled_stored, tmp_path, seed
    ):
        """One seeded kill during the tiled ROI staircase (8 tiles per
        step); the killed worker's resident tile engine is rebuilt
        transparently."""
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        backend = shared_process_backend(2)
        chaos = WorkerChaos.single_kill(seed, num_tasks=8,
                                        scratch_dir=tmp_path)
        backend.install_chaos(chaos)
        before = backend.health()["respawns"]
        recon = TiledReconstructor(open_tiled_field(store, "rho"),
                                   num_workers=2, backend="processes:2")
        try:
            for tol in STAIRCASE:
                expected = ref.reconstruct(tolerance=tol, region=ROI)
                got = recon.reconstruct(tolerance=tol, region=ROI)
                assert got.degraded is False
                assert got.failed_tiles == []
                np.testing.assert_array_equal(got.data, expected.data)
                assert got.error_bound == expected.error_bound
        finally:
            backend.clear_chaos()
            recon.close()
        assert chaos.total_fired() == 1
        assert backend.health()["respawns"] >= before + 1

    def test_repeat_kill_rebuilds_worker_resident_state(
        self, tiled_stored, tmp_path
    ):
        """Fail-first-2: the same call index dies in step 1 (nothing
        resident yet — the in-batch retry builds the engine on the
        replacement) *and* in step 2 (the slot's warm tiles died with
        the worker — the retried task rebuilds them from the shared
        field, from scratch). Both heals must stay bit-identical."""
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        backend = shared_process_backend(2)
        chaos = WorkerChaos({1: ("exit", 2)}, tmp_path)
        backend.install_chaos(chaos)
        recon = TiledReconstructor(open_tiled_field(store, "rho"),
                                   num_workers=2, backend="processes:2")
        try:
            for tol in STAIRCASE[:3]:
                expected = ref.reconstruct(tolerance=tol, region=ROI)
                got = recon.reconstruct(tolerance=tol, region=ROI)
                assert got.degraded is False
                np.testing.assert_array_equal(got.data, expected.data)
        finally:
            backend.clear_chaos()
            recon.close()
        assert chaos.fired(1) == 2

    def test_service_session_staircase_under_worker_kill(
        self, tiled_stored, tmp_path
    ):
        """The full service stack over a pool that loses a worker: the
        tiled session's staircase stays bit-identical and the recovery
        is visible through ``RetrievalService.stats()['pool']`` — with
        the backend named only on the session, where it applies."""
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        backend = shared_process_backend(2)
        before = backend.health()["respawns"]
        chaos = WorkerChaos({0: "exit"}, tmp_path)
        backend.install_chaos(chaos)
        service = RetrievalService(store)
        try:
            with service.session(
                "rho", num_workers=2, backend="processes:2"
            ) as session:
                for tol in STAIRCASE:
                    expected = ref.reconstruct(tolerance=tol, region=ROI)
                    step = session.reconstruct(tolerance=tol, region=ROI)
                    assert step.degraded is False
                    np.testing.assert_array_equal(step.data, expected.data)
            pool = service.stats()["pool"]
            assert pool is not None
            assert pool["respawns"] >= before + 1
        finally:
            backend.clear_chaos()
            service.close()
        assert chaos.total_fired() == 1

    def test_poison_tile_degrades_alone_then_resumes_bit_identical(
        self, tiled_stored, tmp_path
    ):
        """A tile whose decode kills every worker it lands on exhausts
        its retry budget and is quarantined; ``on_fault="degrade"``
        reports exactly that tile in ``failed_tiles`` while the other
        seven return real data. Once the poison clears, the same
        staircase resumes bit-identically — crash loss heals like
        store loss."""
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        ref_steps = [ref.reconstruct(tolerance=t, region=ROI)
                     for t in STAIRCASE[:2]]
        backend = shared_process_backend(2)
        before = backend.health()["quarantines"]
        chaos = WorkerChaos({1: ("exit", 10)}, tmp_path)
        backend.install_chaos(chaos)
        recon = TiledReconstructor(open_tiled_field(store, "rho"),
                                   num_workers=2, backend="processes:2")
        try:
            degraded = recon.reconstruct(tolerance=STAIRCASE[0],
                                         region=ROI, on_fault="degrade")
            assert degraded.degraded is True
            assert len(degraded.failed_tiles) == 1
            assert backend.health()["quarantines"] == before + 1
            # the poison fired through its whole budget: initial try
            # plus max_task_retries consecutive fresh workers
            assert chaos.fired(1) == backend.max_task_retries + 1

            backend.clear_chaos()  # the poison clears
            resumed = recon.reconstruct(tolerance=STAIRCASE[0],
                                        region=ROI)
            assert resumed.degraded is False
            assert resumed.failed_tiles == []
            np.testing.assert_array_equal(resumed.data, ref_steps[0].data)
            nxt = recon.reconstruct(tolerance=STAIRCASE[1], region=ROI)
            np.testing.assert_array_equal(nxt.data, ref_steps[1].data)
            assert nxt.error_bound == ref_steps[1].error_bound
        finally:
            backend.clear_chaos()
            recon.close()


def _task_resident_engine(state, session):
    """Worker-side probe: this worker's resident engine for *session*."""
    engine = state.get(("tiled-session", session))
    if engine is None:
        return os.getpid(), None, []
    return os.getpid(), id(engine), sorted(engine._recons)


class TestSurvivorsStayWarm:
    """Nothing tells a surviving worker that its neighbour died.

    The parent keeps no record of which worker holds which tile, so a
    kill costs exactly the dead slot's tiles: the survivor's resident
    engine — the same object, the same warm reconstructors — carries on
    across the kill, and only the replaced slot rebuilds from the
    shared field.
    """

    pytestmark = pytest.mark.backend

    def test_kill_rebuilds_only_the_dead_slot(self, tiled_stored, tmp_path):
        store, tiled = tiled_stored
        ref = TiledReconstructor(tiled)
        backend = shared_process_backend(2)
        recon = TiledReconstructor(open_tiled_field(store, "rho"),
                                   num_workers=2, backend="processes:2")
        probe = task_name(_task_resident_engine)

        def step(tol):
            expected = ref.reconstruct(tolerance=tol, region=ROI)
            got = recon.reconstruct(tolerance=tol, region=ROI)
            assert got.degraded is False
            np.testing.assert_array_equal(got.data, expected.data)
            assert got.error_bound == expected.error_bound

        try:
            step(STAIRCASE[0])
            before = backend.broadcast(probe, recon._session_token)
            # (the shared pool may be wider than 2: it only ever grows)
            slots = [backend.worker_for(pos) for pos in recon.touched_tiles]
            assert len(set(slots)) > 1  # more than one worker holds tiles
            for slot, (_, engine, held) in enumerate(before):
                assert held == [pos for pos, s in
                                zip(recon.touched_tiles, slots) if s == slot]
                assert (engine is not None) == bool(held)
            victim = slots[-1]
            chaos = WorkerChaos({slots.index(victim): "exit"}, tmp_path)
            backend.install_chaos(chaos)  # dies on its first tile
            step(STAIRCASE[1])
            backend.clear_chaos()
            assert chaos.total_fired() == 1
            after = backend.broadcast(probe, recon._session_token)
            for slot, (was, now) in enumerate(zip(before, after)):
                if slot == victim:
                    assert now[0] != was[0]  # a replacement process
                    assert now[2] == was[2]  # rebuilt from the field
                else:
                    assert now == was  # same pid, engine, warm tiles
            step(STAIRCASE[2])
            final = backend.broadcast(probe, recon._session_token)
            assert [f for i, f in enumerate(final) if i != victim] == [
                b for i, b in enumerate(before) if i != victim]
        finally:
            backend.clear_chaos()
            recon.close()

