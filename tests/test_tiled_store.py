"""Property tests for store-backed tiled fields and ROI retrieval.

The guarantees under test (ISSUE 5):

* the tiled refactor → store → open → reconstruct path stitches
  bit-identically to the in-memory tiled path;
* the global L∞ bound a tiled reconstruction reports equals the max of
  the per-tile bounds;
* ``reconstruct(region=...)`` equals the same slice of a full-domain
  reconstruction at every staircase step, while touching (opening,
  fetching) only the tiles the region overlaps;
* the service's sessions share segment bytes through the cache and
  report residency through ``stats()``;
* a field written untiled opens as a one-tile field whose staircase
  equals the untiled engine's.
"""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SegmentNotFoundError
from repro.core.faults import FaultInjectingStore
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.service import RetrievalService
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    open_field,
    open_tiled_field,
    segment_key,
    store_field,
    store_tiled_field,
    tiled_index_key,
)
from repro.core.tiling import (
    TiledReconstructor,
    TiledRefactorer,
    normalize_region,
)
from repro.data import generators as gen

STAIRCASE = [1e-1, 1e-3, 1e-5]


@pytest.fixture(scope="module")
def field():
    return gen.gaussian_random_field((20, 24, 16), -2.0, seed=11,
                                     dtype=np.float64)


@pytest.fixture(scope="module")
def tiled(field):
    return TiledRefactorer((12, 12, 12)).refactor(field, name="rho")


class TestStoreRoundtrip:
    @pytest.mark.parametrize("store_cls", [MemoryStore, DirectoryStore])
    def test_store_open_matches_in_memory_bitwise(
        self, field, tiled, store_cls, tmp_path
    ):
        """Property (a): the store round-trip stitches bit-identically
        to the in-memory tiled path at every staircase step."""
        store = (store_cls() if store_cls is MemoryStore
                 else store_cls(tmp_path / "s"))
        store_tiled_field(store, tiled)
        mem = TiledReconstructor(tiled)
        lazy = TiledReconstructor(open_tiled_field(store, "rho"))
        for tol in STAIRCASE:
            data_m, bound_m = mem.reconstruct(tolerance=tol)
            data_l, bound_l = lazy.reconstruct(tolerance=tol)
            assert np.array_equal(data_m, data_l)
            assert bound_m == bound_l
            assert float(np.max(np.abs(data_l - field))) <= tol

    def test_single_manifest_flush(self, tiled, tmp_path):
        store = DirectoryStore(tmp_path / "s")
        store_tiled_field(store, tiled)
        assert store.manifest_writes == 1

    def test_open_is_lazy(self, tiled, tmp_path):
        """Opening fetches only the tiled index; tiles open on touch."""
        store = DirectoryStore(tmp_path / "s")
        store_tiled_field(store, tiled)
        store.reads = store.bytes_read = 0
        lazy = open_tiled_field(store, "rho")
        assert store.reads == 1  # the <name>.tiles record alone
        assert lazy.opened_tiles == []
        assert lazy.total_bytes() == tiled.total_bytes()  # from the index
        assert store.reads == 1
        lazy.fields[2]
        assert lazy.opened_tiles == [2]

    def test_reconstructor_construction_is_free(self, tiled, tmp_path):
        """Wrapping a stored field builds no per-tile state until a
        reconstruction touches tiles (the 1000-tile-field guarantee)."""
        store = MemoryStore()
        store_tiled_field(store, tiled)
        store.reads = 0
        lazy = open_tiled_field(store, "rho")
        recon = TiledReconstructor(lazy)
        assert store.reads == 1
        assert recon.touched_tiles == []
        assert recon.decode_state_bytes() == 0
        assert recon.fetched_bytes == 0

    def test_missing_tiled_field_raises_key_error(self, tmp_path):
        store = DirectoryStore(tmp_path / "s")
        with pytest.raises(KeyError, match="tiled"):
            open_tiled_field(store, "nope")

    def test_missing_field_error_names_both_keys(self, tmp_path):
        store = FaultInjectingStore(DirectoryStore(tmp_path / "s"),
                                    transient_rate=1.0)
        with pytest.raises(SegmentNotFoundError) as info:
            open_tiled_field(store, "nope")
        assert "'nope.tiles'" in str(info.value)
        assert "'nope.index'" in str(info.value)
        assert store.reads == 0  # membership only: nothing was read

    def test_store_preserves_metadata(self, tiled, tmp_path):
        store = DirectoryStore(tmp_path / "s")
        store_tiled_field(store, tiled)
        lazy = open_tiled_field(store, "rho")
        assert lazy.shape == tiled.shape
        assert lazy.dtype == tiled.dtype
        assert lazy.value_range == tiled.value_range
        assert lazy.name == "rho"
        assert [t.offset for t in lazy.tiles] == \
            [t.offset for t in tiled.tiles]


class TestUntiledAsOneTile:
    """A field written by ``store_field`` opens as a one-tile field."""

    @pytest.fixture()
    def stored(self, field):
        store = MemoryStore()
        store_field(store, refactor(field, name="u"))
        store.reads = 0
        return store

    def test_one_tile_covers_the_domain(self, field, stored):
        lazy = open_tiled_field(stored, "u")
        assert stored.reads == 1  # u.index, once
        assert lazy.num_tiles == 1
        assert lazy.tiles[0].offset == (0, 0, 0)
        assert lazy.tiles[0].shape == field.shape
        assert lazy.opened_tiles == [0]  # the field just opened
        assert lazy.total_bytes() == open_field(stored, "u").total_bytes()
        lazy.fields[0]
        assert stored.reads == 2  # the probe open above, nothing more

    def test_staircase_matches_the_untiled_engine(self, stored):
        tiled = TiledReconstructor(open_tiled_field(stored, "u"))
        plain = Reconstructor(open_field(stored, "u"))
        for tol in STAIRCASE:
            got = tiled.reconstruct(tolerance=tol, relative=True)
            want = plain.reconstruct(tolerance=tol, relative=True)
            assert np.array_equal(got.data, want.data)
            assert got.error_bound == want.error_bound
        assert tiled.fetched_bytes == plain.fetched_bytes

    def test_processes_staircase_reads_what_the_untiled_engine_reads(
        self, stored
    ):
        """A ``processes:2`` read of the one tile runs in this process
        on the tile the probe open already parsed: the untiled engine's
        staircase, from exactly as many store reads."""
        tiled = TiledReconstructor(open_tiled_field(stored, "u"),
                                   num_workers=2, backend="processes:2")
        plain = Reconstructor(open_field(stored, "u"))
        runs = []
        for engine in (tiled, plain):
            start = stored.reads
            steps = [engine.reconstruct(tolerance=tol, relative=True)
                     for tol in STAIRCASE]
            runs.append((steps, stored.reads - start))
        tiled.close()
        (got, got_reads), (want, want_reads) = runs
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)
            assert a.error_bound == b.error_bound
        assert got_reads == want_reads > 0


class _KeyLog(MemoryStore):
    """Records the key of every read."""

    def __init__(self):
        super().__init__()
        self.log = []

    def get(self, key):
        self.log.append(key)
        return super().get(key)


class TestReadsOpenTilesInTheCallersField:
    """A read runs in the caller's process under every backend, so what
    it opens and fetches lands in the caller's own field: a later
    reconstructor over the same field and region reads nothing from the
    store."""

    @pytest.mark.parametrize("backend",
                             ["serial", "threads:2", "processes:2"])
    def test_second_reader_reuses_the_opened_tiles(self, tiled, backend):
        store = _KeyLog()
        store_tiled_field(store, tiled)
        lazy = open_tiled_field(store, "rho")
        region = (slice(0, 10), slice(0, 14), None)
        with TiledReconstructor(lazy, num_workers=2,
                                backend=backend) as first:
            got = first.reconstruct(tolerance=1e-3, region=region)
            touched = first.touched_tiles
        assert 1 < len(touched) < lazy.num_tiles
        assert sorted(lazy.opened_tiles) == sorted(touched)
        store.log.clear()
        with TiledReconstructor(lazy) as again:
            want = again.reconstruct(tolerance=1e-3, region=region)
        assert store.log == []
        assert np.array_equal(got.data, want.data)
        assert got.error_bound == want.error_bound


@st.composite
def _field_and_tiling(draw):
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(3, 11)) for _ in range(rank))
    tile = draw(st.none() | st.tuples(*[st.integers(3, 8)] * rank))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return rng.standard_normal(shape).astype(dtype), tile


class TestPackLayout:
    @given(case=_field_and_tiling())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_refinement_steps_are_prefix_extensions(self, case):
        """In a fresh root each level's groups ``[0, g)`` are one
        contiguous ascending byte range of the pack, a (tile) field's
        levels follow each other and its ``.index`` record follows them,
        tile after tile — so a refinement step is a prefix extension
        that one ranged read can serve."""
        data, tile = case
        with tempfile.TemporaryDirectory() as root:
            store = DirectoryStore(root)
            if tile is None:
                fields = [refactor(data, name="v")]
                store_field(store, fields[0])
            else:
                tiled = TiledRefactorer(tile).refactor(data, name="v")
                fields = tiled.fields
                store_tiled_field(store, tiled)
            store.close()
            with open(f"{root}/manifest.json") as handle:
                table = json.load(handle)["segments"]
            cursor = 0
            for field in fields:
                keys = [
                    segment_key(field.name, lv.level, g)
                    for lv in field.levels for g in range(lv.num_groups)
                ]
                for key in [*keys, f"{field.name}.index"]:
                    offset, length = table.pop(key)
                    assert offset == cursor, key
                    cursor += length
            if tile is not None:
                assert table.pop(tiled_index_key("v"))[0] == cursor
            assert table == {}  # nothing else was written

    @given(case=_field_and_tiling())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tile_step_reads_one_pread_per_level_range(self, case):
        """In a fresh root every tile-step of a staircase is one
        ``settle_many`` whose merged reads issue at most one ``pread`` per
        level range and read exactly the segments' bytes — no gap."""
        data, tile = case
        with tempfile.TemporaryDirectory() as root:
            store = DirectoryStore(root)
            if tile is None:
                store_field(store, refactor(data, name="v"))
                names = ["v"]
            else:
                tiled = TiledRefactorer(tile).refactor(data, name="v")
                store_tiled_field(store, tiled)
                names = [f.name for f in tiled.fields]
            real_pread = os.pread
            for name in names:
                recon = Reconstructor(open_field(store, name))
                for tol in STAIRCASE:
                    step = recon.plan_step(tol)
                    ranges = [
                        lv.refs[have:want] for lv, have, want in zip(
                            recon.field.levels, recon.fetched_groups,
                            step.groups)
                    ]
                    preads = []

                    def counting_pread(fd, n, offset):
                        preads.append((offset, n))
                        return real_pread(fd, n, offset)

                    requests, nbytes = store.requests, store.bytes_read
                    with mock.patch("os.pread", counting_pread):
                        recon.fetch_step(step)
                    level_ranges = sum(1 for refs in ranges if refs)
                    assert len(preads) <= level_ranges
                    assert store.requests - requests == min(level_ranges, 1)
                    assert store.bytes_read - nbytes == sum(
                        ref.nbytes for refs in ranges for ref in refs
                    )
                    recon.decode_step(step)
            store.close()


class TestGlobalBound:
    def test_global_bound_is_max_of_per_tile_bounds(self, tiled):
        """Property (b): tiles partition the domain, so the reported
        global bound must equal the max of the per-tile bounds."""
        for tol in STAIRCASE:
            _, bound = TiledReconstructor(tiled).reconstruct(tolerance=tol)
            per_tile = [
                Reconstructor(f).reconstruct(tolerance=tol).error_bound
                for f in tiled.fields
            ]
            assert bound == max(per_tile)

    def test_region_bound_is_max_over_touched_tiles(self, tiled):
        region = (slice(0, 12), slice(12, 24), slice(4, 16))
        recon = TiledReconstructor(tiled)
        _, bound = recon.reconstruct(tolerance=1e-3, region=region)
        touched = recon.touched_tiles
        per_tile = [
            Reconstructor(tiled.fields[i]).reconstruct(1e-3).error_bound
            for i in touched
        ]
        assert bound == max(per_tile)


class TestRegionRetrieval:
    @given(
        lo=st.tuples(st.integers(0, 19), st.integers(0, 23),
                     st.integers(0, 15)),
        extent=st.tuples(st.integers(1, 12), st.integers(1, 12),
                         st.integers(1, 8)),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_region_equals_full_slice_every_step(
        self, field, tiled, lo, extent
    ):
        """Property (c): at every staircase step the ROI result is the
        same slice of the full-domain reconstruction, bit for bit."""
        region = tuple(
            (o, min(o + e, s))
            for o, e, s in zip(lo, extent, field.shape)
        )
        slices = tuple(slice(a, b) for a, b in region)
        full = TiledReconstructor(tiled)
        roi = TiledReconstructor(tiled)
        for tol in STAIRCASE:
            data_f, _ = full.reconstruct(tolerance=tol)
            data_r, bound_r = roi.reconstruct(tolerance=tol, region=region)
            assert data_r.shape == tuple(b - a for a, b in region)
            assert np.array_equal(data_r, data_f[slices])
            if data_r.size:
                assert float(np.max(np.abs(
                    data_r - field[slices]
                ))) <= tol
                assert bound_r <= tol

    def test_region_touches_only_overlapping_tiles(self, tiled, tmp_path):
        store = DirectoryStore(tmp_path / "s")
        store_tiled_field(store, tiled)
        lazy = open_tiled_field(store, "rho")
        # Pinned serial: asserts on the *parent's* lazy-open accounting
        # (process workers open tiles in their own store copies).
        recon = TiledReconstructor(lazy, backend="serial")
        # One corner tile: tiles are 12^3 over (20, 24, 16).
        out, _ = recon.reconstruct(
            tolerance=1e-2, region=(slice(0, 8), slice(0, 8), slice(0, 8))
        )
        assert out.shape == (8, 8, 8)
        assert recon.touched_tiles == [0]
        assert lazy.opened_tiles == [0]
        # Widening the region later only opens the new tiles.
        recon.reconstruct(
            tolerance=1e-2, region=((0, 8), (0, 20), (0, 8))
        )
        assert recon.touched_tiles == [0, 2]

    def test_region_fetches_fewer_bytes_than_full(self, tiled, tmp_path):
        store = DirectoryStore(tmp_path / "s")
        store_tiled_field(store, tiled)

        full = TiledReconstructor(open_tiled_field(store, "rho"),
                                  backend="serial")
        before = store.bytes_read
        full.reconstruct(tolerance=1e-3)
        full_bytes = store.bytes_read - before

        roi = TiledReconstructor(open_tiled_field(store, "rho"),
                                  backend="serial")
        before = store.bytes_read
        roi.reconstruct(tolerance=1e-3,
                        region=((0, 8), (0, 8), (0, 8)))
        roi_bytes = store.bytes_read - before
        assert roi_bytes < full_bytes / 2

    def test_region_staircase_is_incremental_per_tile(self, tiled):
        recon = TiledReconstructor(tiled, backend="serial")
        region = ((0, 8), (0, 8), (0, 8))
        recon.reconstruct(tolerance=1e-1, region=region)
        coarse = recon.fetched_bytes
        recon.reconstruct(tolerance=1e-4, region=region)
        assert recon.fetched_bytes > coarse
        # The touched tile reused its decode state: only newly planned
        # groups were decoded on the refinement step.
        tile_recon = recon._recons[0]
        assert tile_recon.counters().groups_decoded == \
            sum(tile_recon.fetched_groups)

    def test_empty_region_returns_empty(self, tiled):
        out, bound = TiledReconstructor(tiled).reconstruct(
            tolerance=1e-2, region=((3, 3), (0, 24), (0, 16))
        )
        assert out.shape == (0, 24, 16)
        assert bound == 0.0

    def test_region_validation(self, tiled):
        recon = TiledReconstructor(tiled)
        with pytest.raises(ValueError, match="rank"):
            recon.reconstruct(tolerance=1e-2, region=((0, 8), (0, 8)))
        with pytest.raises(ValueError, match="outside"):
            recon.reconstruct(
                tolerance=1e-2, region=((0, 8), (0, 8), (0, 99))
            )
        with pytest.raises(ValueError, match="unit-step"):
            recon.reconstruct(
                tolerance=1e-2,
                region=(slice(0, 8, 2), slice(0, 8), slice(0, 8)),
            )

    def test_normalize_region_none_and_open_slices(self):
        assert normalize_region((None, slice(None, 5), slice(3, None)),
                                (8, 9, 10)) == \
            (slice(0, 8), slice(0, 5), slice(3, 10))


class TestTiledService:
    def test_tiled_session_region_staircase(self, field, tiled, tmp_path):
        store = DirectoryStore(tmp_path / "s")
        store_tiled_field(store, tiled)
        service = RetrievalService(store, cache_bytes=8 << 20)
        region = ((4, 16), (0, 12), (4, 16))
        slices = tuple(slice(a, b) for a, b in region)
        with service.session("rho") as session:
            for tol in [1e-1, 1e-3]:
                out, bound = session.reconstruct(tolerance=tol,
                                                 region=region)
                assert float(np.max(np.abs(out - field[slices]))) <= tol
                assert bound <= tol
            stats = session.stats()
            assert stats["tiles"] == tiled.num_tiles
            assert 0 < stats["tiles_touched"] < tiled.num_tiles
            assert stats["decode_state_bytes"] > 0
            svc_sessions = service.stats()["sessions"]
            assert svc_sessions["open"] == 1
            assert svc_sessions["tiles_touched"] == stats["tiles_touched"]
            assert (svc_sessions["decode_state_bytes"]
                    == stats["decode_state_bytes"])
        assert service.stats()["sessions"]["open"] == 0
        service.close()

    def test_sessions_share_segment_bytes_through_cache(
        self, tiled, tmp_path
    ):
        store = DirectoryStore(tmp_path / "s")
        store_tiled_field(store, tiled)
        service = RetrievalService(store, cache_bytes=32 << 20)
        region = ((0, 8), (0, 8), (0, 8))
        # Pinned serial: the shared SegmentCache sits in the parent;
        # process-backed tiled sessions read the store directly and
        # bypass it (documented divergence, see docs/architecture.md).
        with service.session("rho", backend="serial") as first:
            first.reconstruct(tolerance=1e-3, region=region)
            cold = first.stats()
            assert cold["cold_bytes"] > 0
        with service.session("rho", backend="serial") as second:
            second.reconstruct(tolerance=1e-3, region=region)
            warm = second.stats()
        assert warm["cold_bytes"] == 0
        assert warm["cache_hit_bytes"] > 0
        service.close()

    def test_tiled_session_relative_tolerance(self, field, tiled,
                                              tmp_path):
        store = MemoryStore()
        store_tiled_field(store, tiled)
        service = RetrievalService(store)
        with service.session("rho") as session:
            out, _ = session.reconstruct(tolerance=1e-3, relative=True)
            assert float(np.max(np.abs(out - field))) <= \
                1e-3 * tiled.value_range
        service.close()

    def test_tiled_session_parallel_workers_match_serial(
        self, tiled, tmp_path
    ):
        store = MemoryStore()
        store_tiled_field(store, tiled)
        service = RetrievalService(store)
        with service.session("rho") as serial, \
                service.session("rho", num_workers=3) as parallel:
            out_s, bound_s = serial.reconstruct(tolerance=1e-3)
            out_p, bound_p = parallel.reconstruct(tolerance=1e-3)
        assert np.array_equal(out_s, out_p)
        assert bound_s == bound_p
        service.close()

    def test_prefetch_warms_touched_tiles_only(self, tiled, tmp_path):
        store = DirectoryStore(tmp_path / "s")
        store_tiled_field(store, tiled)
        service = RetrievalService(store, prefetch=True)
        # Pinned serial: prefetch walks the parent-resident tile
        # reconstructors, which a process-backed session doesn't have.
        with service.session("rho", backend="serial") as session:
            session.reconstruct(tolerance=1e-1,
                                region=((0, 8), (0, 8), (0, 8)))
            service.drain_prefetch()
            assert service.prefetch_failures == 0
            # Prefetch only looks ahead within tiles the session
            # touched; untouched tiles stay unopened.
            assert session.tiled.opened_tiles == [0]
        service.close()
