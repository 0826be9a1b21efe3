"""Tests for exponent alignment and fixed-point conversion.

Reconstruction runs through the library's one decoder: a stream of
``B`` magnitude planes decoded from ``kept + 1`` stored planes (the
sign plane first) is the fixed-point value with ``kept`` planes kept.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bitplane.align import (
    align_to_fixed_point,
    compute_exponent,
    plane_error_bound,
)
from repro.bitplane.encoding import decode_bitplanes, encode_bitplanes


def reconstruct(data, num_bitplanes, kept_planes=None):
    """*data* encoded with *num_bitplanes* magnitude planes and decoded
    with *kept_planes* of them (all when ``None``)."""
    stream = encode_bitplanes(data, num_bitplanes)
    kept = num_bitplanes if kept_planes is None else kept_planes
    return decode_bitplanes(stream, kept + 1)


class TestComputeExponent:
    def test_zero(self):
        assert compute_exponent(0.0) == 0

    @pytest.mark.parametrize(
        "value,expected",
        [(1.0, 1), (0.5, 0), (0.99, 0), (2.0, 2), (3.7, 2), (1e-3, -9)],
    )
    def test_known_values(self, value, expected):
        e = compute_exponent(value)
        assert e == expected
        assert value < 2.0 ** e <= 2 * value

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            compute_exponent(-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            compute_exponent(float("nan"))


class TestAlignment:
    def test_magnitudes_in_range(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(1000).astype(np.float32)
        a = align_to_fixed_point(data, 32)
        assert a.magnitudes.dtype == np.uint64
        assert a.magnitudes.max() < (1 << 32)

    def test_signs_match(self):
        data = np.array([-1.0, 2.0, -3.0, 0.0], dtype=np.float64)
        a = align_to_fixed_point(data, 16)
        np.testing.assert_array_equal(a.signs, [1, 0, 1, 0])

    def test_all_zero_data(self):
        a = align_to_fixed_point(np.zeros(10, dtype=np.float32), 32)
        assert a.max_abs == 0.0
        assert np.all(a.magnitudes == 0)
        rec = reconstruct(np.zeros(10, dtype=np.float32), 32)
        np.testing.assert_array_equal(rec, np.zeros(10, dtype=np.float32))

    def test_rejects_nan_data(self):
        with pytest.raises(ValueError, match="finite"):
            align_to_fixed_point(np.array([1.0, np.nan]), 8)

    def test_rejects_bad_plane_count(self):
        data = np.ones(4, dtype=np.float32)
        with pytest.raises(ValueError):
            align_to_fixed_point(data, 0)
        with pytest.raises(ValueError):
            align_to_fixed_point(data, 61)

    def test_rejects_integer_dtype(self):
        with pytest.raises(TypeError):
            align_to_fixed_point(np.arange(4), 8)


class TestReconstruction:
    def test_full_planes_quantization_error(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(-10, 10, 500)
        B = 40
        a = align_to_fixed_point(data, B)
        rec = reconstruct(data, B)
        bound = plane_error_bound(a.exponent, B, B, a.max_abs)
        assert np.max(np.abs(rec - data)) <= bound

    @pytest.mark.parametrize("kept", [0, 1, 4, 8, 16, 31, 32])
    def test_partial_planes_error_bound(self, kept):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(2048)
        B = 32
        a = align_to_fixed_point(data, B)
        rec = reconstruct(data, B, kept_planes=kept)
        bound = plane_error_bound(a.exponent, B, kept, a.max_abs)
        assert np.max(np.abs(rec - data)) <= bound + 1e-15

    def test_monotone_error_in_planes(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal(512)
        errors = [
            np.max(np.abs(reconstruct(data, 32, kept_planes=k) - data))
            for k in range(0, 33, 4)
        ]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_kept_planes_validation(self):
        stream = encode_bitplanes(np.ones(4), 8)
        with pytest.raises(ValueError):
            decode_bitplanes(stream, 10)  # sign + 9 magnitude planes
        with pytest.raises(ValueError):
            decode_bitplanes(stream, -1)

    def test_preserves_dtype(self):
        rec = reconstruct(np.ones(4, dtype=np.float32), 8)
        assert rec.dtype == np.float32


class TestErrorBoundHelper:
    def test_zero_data_bound_is_zero(self):
        assert plane_error_bound(0, 32, 4, 0.0) == 0.0

    def test_bound_capped_by_max_abs(self):
        # Fetching nothing can never err more than max|x|.
        assert plane_error_bound(10, 32, 0, 3.0) == 3.0

    def test_bound_halves_per_plane(self):
        b1 = plane_error_bound(0, 32, 10, 1.0)
        b2 = plane_error_bound(0, 32, 11, 1.0)
        assert b2 == pytest.approx(b1 / 2)

    def test_rejects_negative_planes(self):
        with pytest.raises(ValueError):
            plane_error_bound(0, 32, -1, 1.0)

    @pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
    def test_top_exponent_is_capped_not_overflowed(self, encoding):
        """Data above 2^1023 has exponent 1024, where 2^(e - k) is no
        double: the bound is max_abs (the fetched-nothing error), then
        shrinks plane by plane, for both encodings. (A negabinary prefix
        may overshoot max_abs, so its partial bounds are not capped.)"""
        data = np.array([1.5e308, -1.0, 7e307, -1.2e308])
        stream = encode_bitplanes(data, 32, signed_encoding=encoding)
        assert stream.exponent == 1024
        bounds = [stream.error_bound(k)
                  for k in range(stream.num_planes + 1)]
        assert bounds[0] == 1.5e308
        assert all(b >= c for b, c in zip(bounds[1:], bounds[2:]))
        assert bounds[-1] == math.ldexp(1.0, 1024 - 32)
        if encoding == "sign_magnitude":
            for k, bound in enumerate(bounds):
                err = np.abs(decode_bitplanes(stream, k) - data).max()
                assert err <= bound, k


@settings(max_examples=50, deadline=None)
@given(
    data=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 300),
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
    ),
    kept=st.integers(0, 40),
)
def test_property_partial_decode_respects_bound(data, kept):
    """Hypothesis: the 2^(e-k) bound holds for arbitrary finite inputs."""
    B = 40
    a = align_to_fixed_point(data, B)
    rec = reconstruct(data, B, kept_planes=kept)
    bound = plane_error_bound(a.exponent, B, kept, a.max_abs)
    assert np.max(np.abs(rec - data)) <= bound * (1 + 1e-12) + 1e-300
