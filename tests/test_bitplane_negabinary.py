"""Tests for the negabinary signed-coefficient encoding option."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitplane import decode_bitplanes, encode_bitplanes
from repro.bitplane.negabinary import (
    from_negabinary,
    negabinary_width,
    plane_error_bound_negabinary,
    to_negabinary,
    truncation_error_bound,
)
from repro.core.refactor import RefactorConfig, refactor
from repro.core.reconstruct import reconstruct
from repro.core.stream import RefactoredField


def sample(n=2048, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n).astype(dtype)


class TestNegabinaryCodes:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        v = rng.integers(-(2 ** 50), 2 ** 50, 5000)
        np.testing.assert_array_equal(from_negabinary(to_negabinary(v)), v)

    def test_known_values(self):
        # negabinary: 2 = 110, -1 = 11, -2 = 10, 3 = 111
        v = np.array([0, 1, -1, 2, -2, 3], dtype=np.int64)
        codes = to_negabinary(v)
        assert codes.tolist() == [0b0, 0b1, 0b11, 0b110, 0b10, 0b111]

    def test_width(self):
        assert negabinary_width(32) == 34
        with pytest.raises(ValueError):
            negabinary_width(0)

    def test_truncation_bound(self):
        assert truncation_error_bound(0) == 0.0
        assert truncation_error_bound(3) == pytest.approx(16.0 / 3.0)
        with pytest.raises(ValueError):
            truncation_error_bound(-1)

    def test_truncation_bound_is_sound(self):
        """Zeroing low digits never moves the value by more than the
        claimed (2/3)*2^d bound."""
        rng = np.random.default_rng(1)
        v = rng.integers(-(2 ** 30), 2 ** 30, 2000)
        codes = to_negabinary(v)
        for d in (1, 4, 9, 16):
            mask = ~np.uint64((1 << d) - 1)
            approx = from_negabinary(codes & mask)
            err = np.max(np.abs(approx - v))
            assert err <= truncation_error_bound(d) + 1e-9


class TestNegabinaryStreams:
    @pytest.mark.parametrize("design", ["locality_block", "register_block"])
    def test_plane_count_one_more_than_sign_magnitude(self, design):
        data = sample()
        nb = encode_bitplanes(data, 32, design=design,
                              signed_encoding="negabinary")
        sm = encode_bitplanes(data, 32, design=design)
        assert sm.num_planes == 33  # sign + 32 magnitudes
        assert nb.num_planes == 34  # base-(-2) digits, two extra

    @pytest.mark.parametrize("k", [0, 1, 8, 20, 33])
    def test_partial_decode_bound(self, k):
        data = sample(seed=3)
        stream = encode_bitplanes(data, 32, signed_encoding="negabinary")
        rec = decode_bitplanes(stream, k)
        bound = stream.error_bound(k)
        assert np.max(np.abs(rec - data)) <= bound + 1e-12

    def test_full_decode_near_lossless(self):
        data = sample(seed=4)
        stream = encode_bitplanes(data, 40, signed_encoding="negabinary")
        rec = decode_bitplanes(stream)
        bound = plane_error_bound_negabinary(
            stream.exponent, 40, stream.num_planes, stream.max_abs)
        assert np.max(np.abs(rec - data)) <= bound

    @pytest.mark.parametrize("exponent_gap", [0, 1])
    def test_prefix_past_the_largest_double_is_clamped(self, exponent_gap):
        """Leading negative-weight digits overshoot up to 2^(e+2): near
        the top of the float64 range a short prefix lands past the
        largest double. It decodes finite and inside its bound, with no
        RuntimeWarning (this file runs with RuntimeWarning an error)."""
        data = np.array([1.5e308, -1.0, 7e307, -1.2e308]) / 2 ** exponent_gap
        stream = encode_bitplanes(data, 32, signed_encoding="negabinary")
        assert stream.exponent == 1024 - exponent_gap
        for k in range(stream.num_planes + 1):
            rec = decode_bitplanes(stream, k)
            assert np.isfinite(rec).all(), k
            assert np.max(np.abs(rec - data)) <= stream.error_bound(k), k

    def test_invalid_encoding_rejected(self):
        with pytest.raises(ValueError):
            encode_bitplanes(sample(16), 8, signed_encoding="ternary")


class TestNegabinaryPipeline:
    def test_error_control_end_to_end(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((12, 13, 14))
        field = refactor(data, RefactorConfig(signed_encoding="negabinary"))
        for tol in (1e-1, 1e-3, 1e-5):
            r = reconstruct(field, tolerance=tol)
            assert np.max(np.abs(r.data - data)) <= tol

    def test_field_serialization_roundtrip(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((10, 10, 10))
        field = refactor(data, RefactorConfig(signed_encoding="negabinary"))
        back = RefactoredField.from_bytes(field.to_bytes())
        assert back.levels[0].signed_encoding == "negabinary"
        r1 = reconstruct(field, tolerance=1e-3)
        r2 = reconstruct(back, tolerance=1e-3)
        np.testing.assert_array_equal(r1.data, r2.data)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefactorConfig(signed_encoding="base3")


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(-1e5, 1e5, allow_nan=False, width=64),
                  min_size=1, max_size=200),
    planes=st.integers(0, 33),
)
def test_property_negabinary_bound(data, planes):
    """Hypothesis: negabinary partial decode honors its bound."""
    arr = np.asarray(data, dtype=np.float64)
    stream = encode_bitplanes(arr, 32, signed_encoding="negabinary")
    rec = decode_bitplanes(stream, planes)
    bound = stream.error_bound(planes)
    assert np.max(np.abs(rec - arr)) <= bound * (1 + 1e-12) + 1e-300
