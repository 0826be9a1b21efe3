"""Tests for sub-domain tiling (the large-data streaming path)."""

import numpy as np
import pytest

from repro.core.refactor import RefactorConfig
from repro.core.tiling import (
    TiledReconstructor,
    TiledRefactorer,
    plan_tiles,
)
from repro.data import generators as gen


@pytest.fixture(scope="module")
def field():
    return gen.gaussian_random_field((20, 24, 28), -2.5, seed=9,
                                     dtype=np.float64)


class TestPlanTiles:
    def test_exact_cover(self):
        tiles = plan_tiles((16, 16), (8, 8))
        assert len(tiles) == 4
        covered = np.zeros((16, 16), dtype=int)
        for t in tiles:
            covered[t.slices()] += 1
        assert np.all(covered == 1)

    def test_ragged_cover(self):
        tiles = plan_tiles((10, 7), (4, 4))
        covered = np.zeros((10, 7), dtype=int)
        for t in tiles:
            covered[t.slices()] += 1
        assert np.all(covered == 1)
        shapes = {t.shape for t in tiles}
        assert (2, 3) in shapes  # boundary remainder tile

    def test_single_tile(self):
        tiles = plan_tiles((8, 8), (16, 16))
        assert len(tiles) == 1
        assert tiles[0].shape == (8, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_tiles((8, 8), (4,))
        with pytest.raises(ValueError):
            plan_tiles((8, 8), (0, 4))


class TestTiledPipeline:
    def test_roundtrip_error_control(self, field):
        refac = TiledRefactorer((12, 12, 12))
        tiled = refac.refactor(field)
        recon = TiledReconstructor(tiled)
        for tol in (1e-1, 1e-3, 1e-5):
            data, bound = recon.reconstruct(tolerance=tol)
            actual = float(np.max(np.abs(data - field)))
            assert bound <= tol
            assert actual <= tol

    def test_relative_tolerance(self, field):
        refac = TiledRefactorer((12, 12, 12))
        tiled = refac.refactor(field)
        recon = TiledReconstructor(tiled)
        data, _ = recon.reconstruct(tolerance=1e-3, relative=True)
        actual = float(np.max(np.abs(data - field)))
        assert actual <= 1e-3 * tiled.value_range

    def test_progressive_increments(self, field):
        refac = TiledRefactorer((12, 12, 12))
        tiled = refac.refactor(field)
        recon = TiledReconstructor(tiled)
        recon.reconstruct(tolerance=1e-1)
        coarse_bytes = recon.fetched_bytes
        recon.reconstruct(tolerance=1e-4)
        assert recon.fetched_bytes > coarse_bytes

    def test_tile_count_and_naming(self, field):
        refac = TiledRefactorer((12, 12, 12))
        tiled = refac.refactor(field, name="rho")
        assert len(tiled.fields) == 2 * 2 * 3
        assert tiled.fields[0].name.startswith("rho.T")

    def test_boundary_tiles_share_refactorers(self, field):
        refac = TiledRefactorer((12, 12, 12))
        refac.refactor(field)
        # 20x24x28 with 12^3 tiles -> shapes {12,8}x{12}x{12,4} etc.
        assert len(refac._refactorers) <= 8

    def test_matches_untiled_guarantee(self, field):
        """Tiled and untiled reconstructions both honor the same bound
        (values differ — different hierarchies — but both are valid)."""
        from repro.core.refactor import refactor
        from repro.core.reconstruct import reconstruct

        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        data_t, _ = TiledReconstructor(tiled).reconstruct(tolerance=1e-3)
        data_u = reconstruct(refactor(field), tolerance=1e-3).data
        assert np.max(np.abs(data_t - field)) <= 1e-3
        assert np.max(np.abs(data_u - field)) <= 1e-3

    def test_config_threads_through(self, field):
        refac = TiledRefactorer(
            (12, 12, 12), RefactorConfig(signed_encoding="negabinary")
        )
        tiled = refac.refactor(field)
        assert tiled.fields[0].levels[0].signed_encoding == "negabinary"
        data, bound = TiledReconstructor(tiled).reconstruct(tolerance=1e-2)
        assert np.max(np.abs(data - field)) <= 1e-2

    def test_rejects_integer_data(self):
        with pytest.raises(TypeError):
            TiledRefactorer((4, 4)).refactor(np.zeros((8, 8), dtype=int))

    def test_rejects_non_finite_data(self):
        """NaN/inf input would poison value_range (and through it every
        relative retrieval); reject it at refactor time."""
        bad = np.zeros((8, 8))
        bad[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TiledRefactorer((4, 4)).refactor(bad)
        bad[3, 4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            TiledRefactorer((4, 4)).refactor(bad)

    def test_rejects_relative_without_tolerance(self, field):
        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        with pytest.raises(ValueError, match="relative"):
            TiledReconstructor(tiled).reconstruct(relative=True)

    def test_rejects_non_finite_tolerance(self, field):
        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        recon = TiledReconstructor(tiled)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError):
                recon.reconstruct(tolerance=bad)

    def test_constant_field_relative_short_circuits(self):
        """value_range == 0: relative requests resolve to the documented
        near-lossless path instead of an unreachable absolute 0."""
        const = np.full((8, 8), 3.25)
        tiled = TiledRefactorer((4, 4)).refactor(const)
        data, _ = TiledReconstructor(tiled).reconstruct(
            tolerance=1e-3, relative=True
        )
        near_lossless, _ = TiledReconstructor(tiled).reconstruct()
        assert np.array_equal(data, near_lossless)

    def test_rejects_negative_workers(self, field):
        with pytest.raises(ValueError):
            TiledRefactorer((12, 12, 12), num_workers=-1)
        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        with pytest.raises(ValueError):
            TiledReconstructor(tiled, num_workers=-1)


class TestParallelTiles:
    """The worker-pool fan-out must be invisible in the outputs."""

    def test_parallel_refactor_bit_identical(self, field):
        seq = TiledRefactorer((12, 12, 12)).refactor(field, name="v")
        par = TiledRefactorer((12, 12, 12), backend="processes:2").refactor(
            field, name="v")
        assert [t.index for t in par.tiles] == [t.index for t in seq.tiles]
        assert all(
            a.to_bytes() == b.to_bytes()
            for a, b in zip(seq.fields, par.fields)
        )

    def test_parallel_reconstruct_bit_identical(self, field):
        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        serial = TiledReconstructor(tiled)
        with TiledReconstructor(tiled, num_workers=4) as parallel:
            for tol in (1e-1, 1e-4):
                data_s, bound_s = serial.reconstruct(tolerance=tol)
                data_p, bound_p = parallel.reconstruct(tolerance=tol)
                assert np.array_equal(data_s, data_p)
                assert bound_s == bound_p

    def test_parallel_region_bit_identical(self, field):
        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        region = ((3, 17), (6, 22), (0, 16))
        data_s, _ = TiledReconstructor(tiled).reconstruct(
            tolerance=1e-3, region=region
        )
        with TiledReconstructor(tiled, num_workers=3) as parallel:
            data_p, _ = parallel.reconstruct(tolerance=1e-3, region=region)
        assert np.array_equal(data_s, data_p)


class TestLazyConstruction:
    """Per-tile reconstructors (and decode state) build on first touch."""

    def test_no_reconstructors_until_touched(self, field):
        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        recon = TiledReconstructor(tiled)
        assert recon.touched_tiles == []
        assert recon.decode_state_bytes() == 0

    def test_region_instantiates_only_overlapping_tiles(self, field):
        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        recon = TiledReconstructor(tiled)
        recon.reconstruct(tolerance=1e-2,
                          region=((0, 8), (0, 8), (0, 8)))
        assert recon.touched_tiles == [0]
        recon.reconstruct(tolerance=1e-2)  # full domain touches the rest
        assert recon.touched_tiles == list(range(len(tiled.tiles)))

    def test_same_shape_tiles_share_transforms(self, field):
        tiled = TiledRefactorer((12, 12, 12)).refactor(field)
        # Pinned serial: the memo under test lives in the parent's
        # reconstructors (process workers keep their own per-session
        # memo, exercised by tests/test_backends.py).
        recon = TiledReconstructor(tiled, backend="serial")
        recon.reconstruct(tolerance=1e-2)
        # 20x24x28 over 12^3 tiles yields at most 8 distinct shapes but
        # 12 tiles; equal-shape tiles hold the very same transform.
        by_shape: dict = {}
        for tile in recon.touched_reconstructors():
            by_shape.setdefault(tuple(tile.field.shape), set()).add(
                id(tile.transform))
        shapes = {tuple(f.shape) for f in tiled.fields}
        assert len(shapes) <= 8 < len(tiled.fields)
        assert set(by_shape) == shapes
        assert all(len(ids) == 1 for ids in by_shape.values())
