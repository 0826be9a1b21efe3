"""Property tests: the single-pass bit-matrix transpose is bit-identical
to the per-plane reference, across designs, signed encodings, ragged
sizes, and truncated-plane decodes — the portability guarantee the
vectorized fast path must preserve. The inverse is the decoder's own
inject (``apply_planes`` / ``planes_to_word_rows``), checked against the
per-plane kernels: ``inject_code_planes_reference`` and the oracle
``oracles.bitplane_decode.inject_planes_reference``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.bitplane_decode import inject_planes_reference

from repro.bitplane import register_block, transpose
from repro.bitplane.encoding import (
    DESIGNS,
    apply_planes,
    begin_decode_state,
    decode_bitplanes,
    encode_bitplanes,
    extract_code_planes,
    extract_code_planes_reference,
    extract_planes,
    extract_planes_reference,
    inject_code_planes_reference,
)
from repro.bitplane.transpose import (
    planes_to_word_rows,
    transpose_8x8_tiles,
    words_to_planes,
)
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, refactor
from repro.core.tiling import TiledReconstructor, TiledRefactorer

#: Sizes straddling every alignment boundary the kernels care about:
#: byte packing (8), uint64 lanes (64), and the warp*B tile (32*B).
RAGGED_SIZES = (1, 7, 8, 9, 63, 64, 65, 255, 256, 1000, 32 * 20 + 13)


def apply_inject(planes, n, width):
    """Signs and magnitude words ``apply_planes`` injects from a sign
    plane plus MSB-first magnitude planes into a zero state."""
    state = apply_planes(
        begin_decode_state(num_elements=n, num_bitplanes=width, exponent=0,
                           max_abs=0.0, dtype=np.float64),
        planes, 0)
    if state.signs is None:
        return np.zeros(n, np.uint8), state.words
    # A state keeps each sign where a double does, in bit 7.
    assert not (state.signs & np.uint8(0x7F)).any()
    return state.signs >> np.uint8(7), state.words


def row_inject(planes, n, width):
    """One row of ``planes_to_word_rows``: plane ``i`` ORed onto bit
    ``width - 1 - i`` of zero words."""
    return planes_to_word_rows(
        [[(width - 1 - i, plane) for i, plane in enumerate(planes)]], n,
    )[0, :n]


def _random_fixed_point(n, width, seed):
    rng = np.random.default_rng(seed)
    mags = rng.integers(0, 1 << min(width, 62), n).astype(np.uint64)
    signs = rng.integers(0, 2, n).astype(np.uint8)
    return signs, mags


class TestTransposeMatchesReference:
    @pytest.mark.parametrize("n", RAGGED_SIZES)
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 20, 32, 53, 60])
    def test_extract_bit_identical(self, n, width):
        signs, mags = _random_fixed_point(n, width, seed=n * 61 + width)
        ref = extract_planes_reference(signs, mags, width)
        fast = extract_planes(signs, mags, width)
        assert len(ref) == len(fast)
        for a, b in zip(ref, fast):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", RAGGED_SIZES)
    @pytest.mark.parametrize("width", [1, 8, 20, 32, 60])
    def test_inject_matches_reference_at_every_truncation(self, n, width):
        signs, mags = _random_fixed_point(n, width, seed=n * 7 + width)
        planes = extract_planes_reference(signs, mags, width)
        for k in range(0, width + 2):
            s_ref, m_ref = inject_planes_reference(planes[:k], n, width)
            s_fast, m_fast = apply_inject(planes[:k], n, width)
            np.testing.assert_array_equal(s_ref, s_fast)
            np.testing.assert_array_equal(m_ref, m_fast)

    @pytest.mark.parametrize("n", RAGGED_SIZES)
    @pytest.mark.parametrize("width", [1, 9, 34, 62, 64])
    def test_code_planes_bit_identical(self, n, width):
        rng = np.random.default_rng(n * 3 + width)
        codes = rng.integers(0, 1 << min(width, 62), n).astype(np.uint64)
        ref = extract_code_planes_reference(codes, width)
        fast = extract_code_planes(codes, width)
        for a, b in zip(ref, fast):
            assert a.tobytes() == b.tobytes()
        for k in (0, 1, width // 2, width):
            np.testing.assert_array_equal(
                inject_code_planes_reference(ref[:k], n, width),
                row_inject(fast[:k], n, width),
            )

    def test_empty_input(self):
        planes = extract_planes(
            np.zeros(0, np.uint8), np.zeros(0, np.uint64), 8
        )
        assert len(planes) == 9 and all(p.size == 0 for p in planes)
        s, m = apply_inject(planes, 0, 8)
        assert s.size == 0 and m.size == 0

    def test_too_many_planes_rejected(self):
        planes = extract_planes(
            np.zeros(1, np.uint8), np.zeros(1, np.uint64), 2
        )
        with pytest.raises(ValueError):
            apply_inject(planes + [planes[-1]], 1, 2)
        with pytest.raises(ValueError):
            row_inject([planes[0]] * 3, 1, 2)

    def test_bad_widths_rejected(self):
        with pytest.raises(ValueError):
            words_to_planes(np.zeros(4, np.uint64), 0)
        with pytest.raises(ValueError):
            words_to_planes(np.zeros(4, np.uint64), 65)
        for bit in (-1, 64):
            with pytest.raises(ValueError, match="outside"):
                planes_to_word_rows([[(bit, np.zeros(1, np.uint8))]], 4)

    def test_wrong_plane_size_rejected(self):
        with pytest.raises(ValueError):
            planes_to_word_rows([[(7, np.zeros(3, np.uint8))]], 100)


class Test8x8Tiles:
    def test_transpose_is_involution(self):
        rng = np.random.default_rng(0)
        lanes = rng.integers(0, 1 << 63, 1000).astype(np.uint64)
        np.testing.assert_array_equal(
            transpose_8x8_tiles(transpose_8x8_tiles(lanes)), lanes
        )

    def test_single_bit_lands_transposed(self):
        for j in range(8):
            for s in range(8):
                lane = np.array([np.uint64(1) << np.uint64(8 * j + s)])
                out = transpose_8x8_tiles(lane)
                assert out[0] == np.uint64(1) << np.uint64(8 * s + j)


class TestEndToEndAcrossDesignsAndEncodings:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
    @pytest.mark.parametrize("n", [1, 37, 1024 + 17, 32 * 32 * 3 + 5])
    def test_roundtrip_and_partial_decode(self, design, encoding, n):
        rng = np.random.default_rng(n)
        data = rng.standard_normal(n).astype(np.float32)
        stream = encode_bitplanes(
            data, 32, design=design, signed_encoding=encoding
        )
        for k in (0, 1, 5, stream.num_planes // 2, stream.num_planes):
            rec = decode_bitplanes(stream, k)
            bound = stream.error_bound(k)
            assert np.max(np.abs(rec.astype(np.float64) - data)) \
                <= bound * (1 + 1e-12) + 1e-30

    @pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
    def test_designs_decode_identically(self, encoding):
        data = np.random.default_rng(5).standard_normal(2048) \
            .astype(np.float32)
        streams = [
            encode_bitplanes(data, 32, design=d, signed_encoding=encoding)
            for d in DESIGNS
        ]
        for k in (0, 3, 17, streams[0].num_planes):
            decoded = [decode_bitplanes(s, k) for s in streams]
            np.testing.assert_array_equal(decoded[0], decoded[1])
            np.testing.assert_array_equal(decoded[0], decoded[2])


class TestPermutationCache:
    def test_cache_hit_returns_same_readonly_array(self):
        register_block.clear_permutation_cache()
        first = register_block.tile_permutation(777, 16, warp_size=32)
        second = register_block.tile_permutation(777, 16, warp_size=32)
        assert first is second
        assert not first.flags.writeable
        inv1 = register_block.inverse_tile_permutation(777, 16, warp_size=32)
        inv2 = register_block.inverse_tile_permutation(777, 16, warp_size=32)
        assert inv1 is inv2
        assert not inv1.flags.writeable
        info = register_block.permutation_cache_info()
        assert info["forward"].hits >= 2  # second call + inverse's reuse
        assert info["inverse"].hits >= 1
        np.testing.assert_array_equal(first[inv1], np.arange(777))

    def test_cached_values_still_correct_permutations(self):
        register_block.clear_permutation_cache()
        for n, b, w in [(1000, 8, 32), (1000, 8, 32), (513, 4, 16)]:
            perm = register_block.tile_permutation(n, b, warp_size=w)
            assert np.array_equal(np.sort(perm), np.arange(n))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 500),
    width=st.integers(1, 60),
    truncate=st.integers(0, 61),
    seed=st.integers(0, 2**31),
)
def test_property_transpose_roundtrips_like_reference(
    n, width, truncate, seed
):
    """Hypothesis: fast extract/inject == reference at any truncation."""
    signs, mags = _random_fixed_point(n, width, seed)
    ref_planes = extract_planes_reference(signs, mags, width)
    fast_planes = extract_planes(signs, mags, width)
    for a, b in zip(ref_planes, fast_planes):
        assert a.tobytes() == b.tobytes()
    k = min(truncate, width + 1)
    s_ref, m_ref = inject_planes_reference(ref_planes[:k], n, width)
    s_fast, m_fast = apply_inject(fast_planes[:k], n, width)
    np.testing.assert_array_equal(s_ref, s_fast)
    np.testing.assert_array_equal(m_ref, m_fast)


def _write_and_staircase(data, config, tile_shape=None):
    """Every plane group's bytes, then a relative 1e-1 / 1e-3 / 1e-6
    staircase's ``(data bytes, error_bound)`` per step."""
    if tile_shape is None:
        fields = [refactor(data, config)]
        recon = Reconstructor(fields[0])
    else:
        tiled = TiledRefactorer(tile_shape, config, backend="serial") \
            .refactor(data)
        fields = tiled.fields
        recon = TiledReconstructor(tiled, backend="serial")
    groups = [g.to_bytes() for f in fields for lv in f.levels
              for g in lv.groups]
    steps = [recon.reconstruct(tolerance=t, relative=True)
             for t in (1e-1, 1e-3, 1e-6)]
    return groups, [(step.data.tobytes(), step.error_bound)
                    for step in steps]


class TestBigEndianRoute:
    """On a big-endian host (``transpose.HOST_SUPPORTED`` False) the
    codec runs the per-plane ``*_reference`` kernels. The single-pass
    kernels raise there, so a refactor and staircase that complete with
    the flag off ran that route end to end; they must match the native
    route byte for byte."""

    @staticmethod
    def both_routes(monkeypatch, data, config, tile_shape=None):
        native = _write_and_staircase(data, config, tile_shape)
        with monkeypatch.context() as patch:
            patch.setattr(transpose, "HOST_SUPPORTED", False)
            big_endian = _write_and_staircase(data, config, tile_shape)
        return native, big_endian

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("design", ["register_block", "locality_block"])
    @pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
    def test_untiled(self, monkeypatch, encoding, design, dtype):
        data = np.random.default_rng(11).standard_normal((20, 18, 17)) \
            .cumsum(axis=0).astype(dtype)
        config = RefactorConfig(design=design, signed_encoding=encoding)
        native, big_endian = self.both_routes(monkeypatch, data, config)
        assert big_endian == native

    def test_tiled_batches_same_shape_tiles(self, monkeypatch):
        """33 x 32 x 17 in 16^3 tiles: same-shape tiles decode as one
        ``apply_planes_many`` batch, whose per-row fallback runs here."""
        data = np.random.default_rng(12).standard_normal((33, 32, 17)) \
            .cumsum(axis=1).astype(np.float32)
        native, big_endian = self.both_routes(
            monkeypatch, data, RefactorConfig(), (16, 16, 16))
        assert big_endian == native

    def test_single_pass_kernels_refuse_the_flag(self, monkeypatch):
        monkeypatch.setattr(transpose, "HOST_SUPPORTED", False)
        with pytest.raises(RuntimeError, match="little-endian"):
            words_to_planes(np.arange(8, dtype=np.uint64), 4)
