"""Integration tests for the refactor → reconstruct pipeline.

These exercise the paper's central guarantee: reconstructing to any
requested L∞ tolerance never exceeds it, while fetched bytes shrink as
tolerances loosen and grow monotonically under progressive refinement.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Reconstructor,
    RefactorConfig,
    RefactoredField,
    Refactorer,
)
from repro.core.refactor import default_bitplanes, refactor
from repro.core.reconstruct import reconstruct
from repro.data import generators as gen
from repro.lossless.hybrid import HybridConfig


@pytest.fixture(scope="module")
def field3d():
    data = gen.gaussian_random_field((17, 18, 19), -2.5, seed=1,
                                     dtype=np.float64)
    return data, refactor(data)


class TestRefactorer:
    def test_default_bitplanes(self):
        assert default_bitplanes(np.float32) == 32
        assert default_bitplanes(np.float64) == 52

    def test_shape_mismatch(self):
        r = Refactorer((8, 8))
        with pytest.raises(ValueError):
            r.refactor(np.zeros((8, 9), dtype=np.float32))

    def test_rejects_bad_design(self):
        with pytest.raises(ValueError):
            RefactorConfig(design="quantum")

    def test_rejects_bad_planes(self):
        with pytest.raises(ValueError):
            RefactorConfig(num_bitplanes=0)

    def test_level_count(self, field3d):
        _, f = field3d
        assert len(f.levels) == f.num_levels + 1
        assert len(f.level_weights) == len(f.levels)

    def test_level_sizes_partition_field(self, field3d):
        data, f = field3d
        assert sum(lv.num_elements for lv in f.levels) == data.size

    @pytest.mark.parametrize("mode", ["hierarchical", "mgard"])
    def test_transform_overflow_names_the_transform(self, mode):
        """Finite data near the largest double overflows the predictions
        (1e308 + 1e308): a ValueError says so, with no RuntimeWarning
        on the way, instead of blaming the input as non-finite."""
        refactorer = Refactorer((8, 8, 8), RefactorConfig(mode=mode))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="transform overflowed"):
                refactorer.refactor(np.full((8, 8, 8), 1e308))
            for bad in (np.nan, np.inf):  # still the input's fault
                with pytest.raises(ValueError, match="finite input"):
                    refactorer.refactor(np.full((8, 8, 8), bad))

    def test_near_max_values_at_adjacent_fiber_ends_refactor(self):
        """1e308 on the last even node of row 0 and the first of row 1:
        no prediction adds the two (rows are separate fibers), so the
        field refactors, with no RuntimeWarning."""
        data = np.zeros((8, 8))
        data[0, 6] = data[1, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = Refactorer((8, 8)).refactor(data)
        assert all(np.isfinite(lv.max_abs) for lv in field.levels)

    def test_reusable_across_fields(self):
        r = Refactorer((16, 16))
        a = gen.gaussian_random_field((16, 16, 1), seed=1)[:, :, 0]
        b = gen.gaussian_random_field((16, 16, 1), seed=2)[:, :, 0]
        fa, fb = r.refactor(a), r.refactor(b)
        assert fa.levels[0].max_abs != fb.levels[0].max_abs


class TestErrorControl:
    @pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    def test_tolerance_honored_absolute(self, field3d, tol):
        data, f = field3d
        result = reconstruct(f, tolerance=tol)
        actual = np.max(np.abs(result.data - data))
        assert result.error_bound <= tol
        assert actual <= tol

    def test_tolerance_honored_relative(self, field3d):
        data, f = field3d
        result = reconstruct(f, tolerance=1e-3, relative=True)
        actual = np.max(np.abs(result.data - data))
        assert actual <= 1e-3 * f.value_range

    def test_near_lossless_full_fetch(self, field3d):
        data, f = field3d
        result = reconstruct(f, tolerance=None)
        actual = np.max(np.abs(result.data - data))
        assert actual <= result.error_bound
        assert actual < 1e-9 * f.value_range  # near-lossless

    def test_actual_error_below_bound_always(self, field3d):
        data, f = field3d
        for tol in (0.5, 1e-2, 1e-4):
            r = reconstruct(f, tolerance=tol)
            assert np.max(np.abs(r.data - data)) <= r.error_bound

    def test_bytes_monotone_in_tolerance(self, field3d):
        _, f = field3d
        sizes = [
            reconstruct(f, tolerance=t).fetched_bytes
            for t in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("mode", ["hierarchical", "mgard"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_modes_and_dtypes(self, mode, dtype):
        data = gen.gaussian_random_field((12, 13, 14), -2.0, seed=3,
                                         dtype=dtype)
        f = refactor(data, RefactorConfig(mode=mode))
        tol = 1e-3
        r = reconstruct(f, tolerance=tol)
        assert np.max(np.abs(r.data.astype(np.float64)
                             - data.astype(np.float64))) <= tol

    def test_zero_field(self):
        data = np.zeros((8, 8), dtype=np.float32)
        f = refactor(data)
        r = reconstruct(f, tolerance=1e-6)
        np.testing.assert_array_equal(r.data, data)
        assert r.error_bound == 0.0


class TestProgressive:
    def test_incremental_bytes_sum_to_total(self, field3d):
        _, f = field3d
        recon = Reconstructor(f)
        results = [recon.reconstruct(tolerance=t)
                   for t in (1e-1, 1e-2, 1e-3, 1e-4)]
        total = sum(r.incremental_bytes for r in results)
        assert total == results[-1].fetched_bytes

    def test_refinement_never_unfetches(self, field3d):
        _, f = field3d
        recon = Reconstructor(f)
        prev = None
        for tol in (1e-1, 1e-3, 1e-5):
            r = recon.reconstruct(tolerance=tol)
            if prev is not None:
                assert all(
                    a >= b
                    for a, b in zip(r.plan.groups_per_level,
                                    prev.plan.groups_per_level)
                )
            prev = r

    def test_progressive_matches_fresh_error(self, field3d):
        """Progressively refined reconstruction meets each tolerance just
        like a fresh reconstruction would."""
        data, f = field3d
        recon = Reconstructor(f)
        for tol in (1e-1, 1e-2, 1e-4):
            r = recon.reconstruct(tolerance=tol)
            assert np.max(np.abs(r.data - data)) <= tol

    def test_looser_tolerance_after_tight_is_free(self, field3d):
        _, f = field3d
        recon = Reconstructor(f)
        recon.reconstruct(tolerance=1e-4)
        r = recon.reconstruct(tolerance=1e-1)
        assert r.incremental_bytes == 0

    def test_bitrate_property(self, field3d):
        _, f = field3d
        r = reconstruct(f, tolerance=1e-2)
        assert r.bitrate == pytest.approx(
            8.0 * r.fetched_bytes / np.prod(f.shape)
        )


class TestDesignPortability:
    @pytest.mark.parametrize("design", ["locality_block", "register_shuffle",
                                        "register_block"])
    def test_all_designs_meet_tolerance(self, design):
        data = gen.gaussian_random_field((10, 11, 12), -2.0, seed=7)
        f = refactor(data, RefactorConfig(design=design))
        r = reconstruct(f, tolerance=1e-3)
        assert np.max(np.abs(r.data.astype(np.float64)
                             - data.astype(np.float64))) <= 1e-3

    def test_designs_decode_identically(self):
        """Portability: reconstructed values do not depend on the design
        used to produce the stream."""
        data = gen.gaussian_random_field((10, 11, 12), -2.0, seed=8)
        results = []
        for design in ("locality_block", "register_block"):
            f = refactor(data, RefactorConfig(design=design))
            results.append(reconstruct(f, tolerance=1e-3).data)
        np.testing.assert_array_equal(results[0], results[1])


class TestSerialization:
    def test_field_roundtrip(self, field3d):
        data, f = field3d
        f2 = RefactoredField.from_bytes(f.to_bytes())
        assert f2.shape == f.shape
        assert f2.dtype == f.dtype
        assert f2.level_weights == f.level_weights
        r1 = reconstruct(f, tolerance=1e-3)
        r2 = reconstruct(f2, tolerance=1e-3)
        np.testing.assert_array_equal(r1.data, r2.data)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            RefactoredField.from_bytes(b"XXXX\x01\x00" + b"\0" * 40)

    def test_total_bytes_close_to_serialized(self, field3d):
        _, f = field3d
        assert f.total_bytes() <= len(f.to_bytes())


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 1000),
    tol_exp=st.integers(-5, -1),
)
def test_property_error_control(seed, tol_exp):
    """Hypothesis: error control holds on random fields and tolerances."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((9, 10, 11))
    f = refactor(data)
    tol = 10.0 ** tol_exp
    r = reconstruct(f, tolerance=tol)
    assert np.max(np.abs(r.data - data)) <= tol
