"""Tests for the bitplane codec and its three parallelization designs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bitplane import (
    DESIGNS,
    decode_bitplanes,
    encode_bitplanes,
)
from repro.bitplane import locality_block, register_block
from repro.bitplane.encoding import (
    apply_planes,
    begin_decode_state,
    extract_planes,
)
from repro.core.stream import LevelStream
from repro.lossless.hybrid import HybridConfig, compress_planes


def apply_inject(planes, n, width):
    """Signs and magnitude words ``apply_planes`` injects into a zero
    decode state (no sign plane reads as all positive)."""
    state = apply_planes(
        begin_decode_state(num_elements=n, num_bitplanes=width, exponent=0,
                           max_abs=0.0, dtype=np.float64),
        planes, 0)
    if state.signs is None:
        return np.zeros(n, np.uint8), state.words
    # A state keeps each sign where a double does, in bit 7.
    assert not (state.signs & np.uint8(0x7F)).any()
    return state.signs >> np.uint8(7), state.words


def sample(n=1000, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n).astype(dtype)


class TestExtractInject:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        mags = rng.integers(0, 1 << 20, 257).astype(np.uint64)
        signs = rng.integers(0, 2, 257).astype(np.uint8)
        planes = extract_planes(signs, mags, 20)
        s2, m2 = apply_inject(planes, 257, 20)
        np.testing.assert_array_equal(signs, s2)
        np.testing.assert_array_equal(mags, m2)

    def test_partial_planes_zero_low_bits(self):
        mags = np.array([0b1111], dtype=np.uint64)
        planes = extract_planes(np.zeros(1, np.uint8), mags, 4)
        _, m2 = apply_inject(planes[:3], 1, 4)  # sign + 2 planes
        assert m2[0] == 0b1100

    def test_too_many_planes_rejected(self):
        planes = extract_planes(np.zeros(1, np.uint8),
                                np.zeros(1, np.uint64), 2)
        with pytest.raises(ValueError):
            apply_inject(planes + [planes[-1]], 1, 2)

    def test_plane_count(self):
        planes = extract_planes(np.zeros(9, np.uint8),
                                np.zeros(9, np.uint64), 7)
        assert len(planes) == 8  # sign + 7 magnitudes
        assert all(p.nbytes == 2 for p in planes)  # ceil(9/8)


class TestDesignsAgree:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("n", [1, 7, 8, 31, 32, 1000, 1024 + 17])
    def test_full_roundtrip_matches_reference_quantization(self, design, n):
        data = sample(n, seed=n)
        stream = encode_bitplanes(data, 32, design=design)
        rec = decode_bitplanes(stream)
        # Full decode equals the fixed-point quantization of the input.
        ref = decode_bitplanes(encode_bitplanes(data, 32,
                                                design="locality_block"))
        np.testing.assert_array_equal(rec, ref)

    @pytest.mark.parametrize("k", [0, 1, 5, 17, 33])
    def test_partial_decode_identical_across_designs(self, k):
        """Portability: any design's stream yields the same values at any
        retrieval depth."""
        data = sample(2048, seed=9)
        decoded = [
            decode_bitplanes(encode_bitplanes(data, 32, design=d), k)
            for d in DESIGNS
        ]
        np.testing.assert_array_equal(decoded[0], decoded[1])
        np.testing.assert_array_equal(decoded[0], decoded[2])

    def test_register_block_layout_differs_in_stream(self):
        data = sample(32 * 32 * 4, seed=3)
        natural = encode_bitplanes(data, 32, design="locality_block")
        warp = encode_bitplanes(data, 32, design="register_block")
        assert natural.layout == "natural"
        assert warp.layout == "warp"
        # Same decoded values, different stream bytes.
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(natural.planes[1:], warp.planes[1:])
        )

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            encode_bitplanes(sample(8), 8, design="magic")


class TestPartialDecodeErrors:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_error_bound_holds_per_plane_count(self, design):
        data = sample(4096, seed=11, dtype=np.float64)
        stream = encode_bitplanes(data, 32, design=design)
        for k in range(0, stream.num_planes + 1, 3):
            rec = decode_bitplanes(stream, k)
            bound = stream.error_bound(k)
            assert np.max(np.abs(rec - data)) <= bound + 1e-15

    def test_plane_bytes_accumulate(self):
        stream = encode_bitplanes(sample(1000), 32)
        total = stream.plane_bytes()
        assert total == sum(p.nbytes for p in stream.planes)
        assert stream.plane_bytes(3) < total

    def test_decode_invalid_plane_count(self):
        stream = encode_bitplanes(sample(16), 8)
        with pytest.raises(ValueError):
            decode_bitplanes(stream, stream.num_planes + 1)

    @pytest.mark.parametrize("scale", [3.0, 0.0])
    @pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
    def test_stream_and_level_bounds_agree(self, encoding, scale):
        """A stream and a stored level of one plane per group state the
        same bound at every plane count (``stored_plane_error_bound``)."""
        stream = encode_bitplanes(sample(300, seed=4) * scale, 20,
                                  signed_encoding=encoding)
        level = LevelStream(
            level=0, num_elements=stream.num_elements, num_bitplanes=20,
            exponent=stream.exponent, max_abs=stream.max_abs,
            layout=stream.layout, warp_size=stream.warp_size,
            groups=compress_planes(stream.planes, HybridConfig(group_size=1)),
            signed_encoding=encoding,
        )
        for k in range(stream.num_planes + 1):
            assert level.error_bound_for_groups(k) == stream.error_bound(k)


class TestPortability:
    def test_cross_design_decode(self):
        """Stream encoded as register_block decodes via generic path —
        the portability guarantee across 'devices'."""
        data = sample(500, seed=21)
        stream = encode_bitplanes(data, 32, design="register_block")
        rec = decode_bitplanes(stream, 10)
        direct = decode_bitplanes(
            encode_bitplanes(data, 32, design="locality_block"), 10
        )
        np.testing.assert_array_equal(rec, direct)


class TestTilePermutation:
    def test_is_permutation(self):
        perm = register_block.tile_permutation(1000, 8, warp_size=32)
        assert np.array_equal(np.sort(perm), np.arange(1000))

    def test_inverse(self):
        perm = register_block.tile_permutation(777, 16, warp_size=32)
        inv = register_block.inverse_tile_permutation(777, 16, warp_size=32)
        np.testing.assert_array_equal(perm[inv], np.arange(777))

    def test_tail_is_natural(self):
        tile = 32 * 8
        perm = register_block.tile_permutation(tile + 5, 8, warp_size=32)
        np.testing.assert_array_equal(perm[tile:], np.arange(tile, tile + 5))

    def test_tile_structure(self):
        # Stream position t*B+i must read element i*W+t.
        W, B = 4, 3
        perm = register_block.tile_permutation(W * B, B, warp_size=W)
        for t in range(W):
            for i in range(B):
                assert perm[t * B + i] == i * W + t

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            register_block.tile_permutation(10, 0, warp_size=32)


class TestLocalityBlockHelpers:
    def test_num_blocks_ceil(self):
        assert locality_block.num_blocks(100, 32) == 4
        assert locality_block.num_blocks(96, 32) == 3

    def test_block_view_pads(self):
        mags = np.arange(10, dtype=np.uint64)
        view = locality_block.block_view(mags, 4)
        assert view.shape == (3, 4)
        assert view[2, 2] == 0  # padded tail

    def test_parallelism(self):
        assert locality_block.parallelism(1 << 20, 32) == 1 << 15

    def test_recommended_block_size(self):
        assert locality_block.recommended_block_size(32) == 32
        assert locality_block.recommended_block_size(2) == 4

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError):
            locality_block.num_blocks(10, 0)


@settings(max_examples=40, deadline=None)
@given(
    data=hnp.arrays(
        dtype=np.float32,
        shape=st.integers(1, 400),
        elements=st.floats(-1e4, 1e4, allow_nan=False, width=32),
    ),
    design=st.sampled_from(DESIGNS),
    planes=st.integers(1, 33),
)
def test_property_roundtrip_and_bound(data, design, planes):
    """Hypothesis: every design round-trips and respects the plane bound."""
    stream = encode_bitplanes(data, 32, design=design)
    rec = decode_bitplanes(stream, planes)
    bound = stream.error_bound(planes)
    assert np.max(np.abs(rec.astype(np.float64) - data.astype(np.float64))) \
        <= bound * (1 + 1e-6) + 1e-30
