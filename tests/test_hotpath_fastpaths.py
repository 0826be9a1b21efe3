"""Fast-path behavior of the hot loops: vectorized Huffman decode
against the seed decoder (``tests/oracles/huffman_seed.py``), the
strided window read, and zero-copy deserialization."""

import numpy as np
import pytest
from oracles.huffman_seed import decode_reference, peek_bits

from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, Refactorer
from repro.core.stream import RefactoredField
from repro.lossless.bitio import NEEDS_BYTESWAP, sliding_windows_u64
from repro.lossless.huffman import HuffmanCodec
from repro.lossless.hybrid import CompressedGroup


class TestHuffmanFastDecode:
    @pytest.mark.parametrize("n", [0, 1, 5, 1023, 1024, 1025, 4096 + 7])
    @pytest.mark.parametrize("spread", [1, 5, 256])
    def test_fast_decode_matches_reference(self, n, spread):
        rng = np.random.default_rng(n * 3 + spread)
        data = rng.integers(0, spread, n).astype(np.uint8)
        codec = HuffmanCodec()
        blob = codec.encode(data)
        fast = codec.decode(blob)
        ref = decode_reference(blob)
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_array_equal(fast, data)

    @pytest.mark.parametrize("chunk", [1, 7, 100, 4096])
    def test_nondefault_chunk_sizes(self, chunk):
        rng = np.random.default_rng(chunk)
        data = rng.integers(0, 17, 5000).astype(np.uint8)
        codec = HuffmanCodec(chunk_symbols=chunk)
        blob = codec.encode(data)
        np.testing.assert_array_equal(codec.decode(blob), data)
        np.testing.assert_array_equal(decode_reference(blob), data)

    def test_constant_data_max_skew(self):
        codec = HuffmanCodec()
        data = np.zeros(10000, dtype=np.uint8)
        blob = codec.encode(data)
        np.testing.assert_array_equal(codec.decode(blob), data)

    def test_full_alphabet_max_code_length(self):
        rng = np.random.default_rng(1)
        # Skewed full-byte alphabet drives code lengths to the limit.
        data = np.minimum(
            (rng.exponential(8.0, 200000)).astype(np.int64), 255
        ).astype(np.uint8)
        codec = HuffmanCodec()
        blob = codec.encode(data)
        np.testing.assert_array_equal(
            codec.decode(blob), decode_reference(blob)
        )


class TestSlidingWindows:
    def test_windows_cover_stream_and_padding(self):
        stream = np.arange(1, 11, dtype=np.uint8)
        w = sliding_windows_u64(stream, extra=4)
        assert w.shape == (15,)
        assert not w.flags.writeable
        expect0 = int.from_bytes(bytes(range(1, 9)), "little")
        assert int(w[0]) == expect0
        assert int(w[10]) == 0  # fully past the end: zero padding

    def test_one_gather_matches_eight_byte_gathers(self):
        """The lockstep decoder's window read — one gather from the
        strided view, byteswapped, shifted — equals the seed's."""
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 256, 500).astype(np.uint8)
        pos = rng.integers(0, 8 * stream.size + 64, 300)
        windows = sliding_windows_u64(stream, extra=8)[pos >> 3]
        if NEEDS_BYTESWAP:
            windows.byteswap(inplace=True)
        for width in (1, 8, 13, 56):
            got = (windows >> (np.uint64(64 - width)
                               - (pos & 7).astype(np.uint64))) \
                & np.uint64((1 << width) - 1)
            np.testing.assert_array_equal(got, peek_bits(stream, pos, width))


class TestZeroCopyDeserialization:
    def test_compressed_group_payload_views_source_buffer(self):
        from repro.lossless.direct import direct_encode

        payload = direct_encode(np.arange(64, dtype=np.uint8))
        group = CompressedGroup(
            method="direct", payload=payload,
            plane_sizes=(64,), first_plane=0,
        )
        blob = group.to_bytes()
        restored = CompressedGroup.from_bytes(blob)
        assert isinstance(restored.payload, memoryview)
        assert restored.to_bytes() == blob

    def test_refactored_field_roundtrip_is_byte_stable(self):
        data = np.random.default_rng(4).standard_normal(
            (16, 16, 16)
        ).astype(np.float32)
        field = Refactorer(data.shape, RefactorConfig()).refactor(data)
        blob = field.to_bytes()
        restored = RefactoredField.from_bytes(blob)
        assert restored.to_bytes() == blob
        rec = Reconstructor(restored).reconstruct()
        assert np.max(np.abs(rec.data - data)) <= rec.error_bound + 1e-12
