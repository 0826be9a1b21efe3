"""Property-style round-trip suite for the word-packed encode engine.

The invariants: the word-packed packer is byte-identical to the seed
per-bit packer, `HuffmanCodec.encode` built on it is byte-identical to
the seed encoder, and every encoded stream decodes with both the
library's and the seed decoder — across random alphabets, code lengths
1..16, empty and single-symbol inputs, and chunk sizes that give the
encoder words of four codes (4, 256, 1024), two (2, 6, 2**32 - 2) and
one (1, 3, 7, 2**32 - 1), with every ragged last word (n % 4 of 1, 2
and 3). The seed kernels are the oracles in
``tests/oracles/huffman_seed.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.huffman_seed import (
    decode_reference,
    encode_reference,
    pack_varlen_bits_reference,
)

from repro.lossless.bitio import pack_sorted_canonical_bits
from repro.lossless.huffman import (
    HuffmanCodec,
    _check_offsets_u32,
    build_code_lengths,
    canonical_codes,
    huffman_decode,
    huffman_encode,
)

CHUNK_SIZES = (1, 2, 3, 4, 6, 7, 256, 1024, 2**32 - 2, 2**32 - 1)


def random_alphabet_data(rng, n, alphabet_size):
    """Skewed draw over a random subset of the byte alphabet."""
    symbols = rng.choice(256, size=alphabet_size, replace=False)
    weights = rng.random(alphabet_size) ** 3 + 1e-3
    return rng.choice(
        symbols, size=n, p=weights / weights.sum()
    ).astype(np.uint8)


class TestEncodeMatchesReference:
    @pytest.mark.parametrize("chunk_symbols", CHUNK_SIZES)
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 100, 1024, 1027, 5000,
              5001, 5002, 5003])
    def test_sizes_and_chunks(self, chunk_symbols, n):
        rng = np.random.default_rng(n * 31 + chunk_symbols)
        data = random_alphabet_data(rng, n, alphabet_size=12)
        codec = HuffmanCodec(chunk_symbols=chunk_symbols)
        fast = codec.encode(data)
        assert fast == encode_reference(data, chunk_symbols)
        np.testing.assert_array_equal(codec.decode(fast), data)
        np.testing.assert_array_equal(decode_reference(fast), data)

    @pytest.mark.parametrize("chunk_symbols", CHUNK_SIZES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 777, 1024])
    def test_single_symbol_alphabet(self, chunk_symbols, n):
        codec = HuffmanCodec(chunk_symbols=chunk_symbols)
        data = np.full(n, 42, dtype=np.uint8)
        fast = codec.encode(data)
        assert fast == encode_reference(data, chunk_symbols)
        np.testing.assert_array_equal(codec.decode(fast), data)
        np.testing.assert_array_equal(decode_reference(fast), data)

    def test_empty_input(self):
        codec = HuffmanCodec()
        blob = codec.encode(np.empty(0, dtype=np.uint8))
        assert blob == encode_reference(np.empty(0, dtype=np.uint8))
        assert codec.decode(blob).size == 0

    @staticmethod
    def fibonacci_data(seed):
        """Fibonacci frequencies force the 16-bit length limit: the
        eight rarest symbols, 0-7, get 16-bit codes."""
        counts = [1, 1]
        while len(counts) < 22:
            counts.append(counts[-1] + counts[-2])
        data = np.repeat(
            np.arange(len(counts), dtype=np.uint8), counts
        )
        np.random.default_rng(seed).shuffle(data)
        lengths = build_code_lengths(np.bincount(data, minlength=256))
        assert lengths[:8].tolist() == [16] * 8  # what these tests need
        return data

    def test_max_length_codes(self):
        data = self.fibonacci_data(5)
        codec = HuffmanCodec()
        fast = codec.encode(data)
        assert fast == encode_reference(data)
        np.testing.assert_array_equal(codec.decode(fast), data)

    @pytest.mark.parametrize("chunk_symbols", [4, 256, 1024])
    def test_four_16_bit_codes_fill_a_word(self, chunk_symbols):
        """Words of exactly 64 bits: the stream's first, one inside a
        chunk and the last full word before the ragged tail."""
        rng = np.random.default_rng(6)
        data = self.fibonacci_data(6)
        n, rare = data.size, data < 8
        last = n // 4 * 4 - 4
        assert n % 4  # a ragged tail follows the last full word
        words = np.r_[0:4, 264:268, last:last + 4]
        spots = np.zeros(n, dtype=bool)
        spots[words] = True
        spots[rng.choice(np.flatnonzero(~spots), rare.sum() - words.size,
                         replace=False)] = True
        data[spots], data[~spots] = data[rare], data[~rare]
        assert (data[words] < 8).all()
        codec = HuffmanCodec(chunk_symbols=chunk_symbols)
        fast = codec.encode(data)
        assert fast == encode_reference(data, chunk_symbols)
        np.testing.assert_array_equal(codec.decode(fast), data)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 4000),
    alphabet_size=st.integers(1, 256),
    chunk_symbols=st.sampled_from(CHUNK_SIZES),
    seed=st.integers(0, 2**31),
)
def test_property_encode_roundtrip(n, alphabet_size, chunk_symbols, seed):
    """Random alphabets: encode == seed encode, decodes with both decoders."""
    rng = np.random.default_rng(seed)
    data = random_alphabet_data(rng, n, alphabet_size)
    codec = HuffmanCodec(chunk_symbols=chunk_symbols)
    fast = codec.encode(data)
    assert fast == encode_reference(data, chunk_symbols)
    np.testing.assert_array_equal(codec.decode(fast), data)
    np.testing.assert_array_equal(decode_reference(fast), data)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 2000))
def test_property_trusted_packer_matches_reference(seed, n):
    """Canonical Huffman code streams: trusted packer == per-bit packer."""
    rng = np.random.default_rng(seed)
    data = random_alphabet_data(rng, n, alphabet_size=int(rng.integers(1, 40)))
    lengths_table = build_code_lengths(np.bincount(data, minlength=256))
    codes_table = canonical_codes(lengths_table)
    sym_lengths = lengths_table.astype(np.int64)[data]
    sym_codes = codes_table[data]
    positions = np.cumsum(sym_lengths) - sym_lengths
    total = int(sym_lengths.sum())
    ref = pack_varlen_bits_reference(sym_codes, sym_lengths, positions, total)
    fast = pack_sorted_canonical_bits(sym_codes, sym_lengths, positions, total)
    assert fast.tobytes() == ref.tobytes()


class TestOffsetGuard:
    def test_wrapping_offsets_rejected(self):
        with pytest.raises(ValueError, match="uint32"):
            _check_offsets_u32(np.array([0, 2**32], dtype=np.int64))

    def test_boundary_offset_accepted(self):
        _check_offsets_u32(np.array([0, 2**32 - 1], dtype=np.int64))
        _check_offsets_u32(np.empty(0, dtype=np.int64))


class TestFreqsParameter:
    def test_shared_histogram_is_byte_identical(self):
        rng = np.random.default_rng(7)
        data = random_alphabet_data(rng, 4096, alphabet_size=20)
        freqs = np.bincount(data, minlength=256)
        assert huffman_encode(data, freqs=freqs) == huffman_encode(data)
        np.testing.assert_array_equal(
            huffman_decode(huffman_encode(data, freqs=freqs)), data
        )

    def test_wrong_total_rejected(self):
        data = np.ones(100, dtype=np.uint8)
        with pytest.raises(ValueError, match="histogram data"):
            huffman_encode(data, freqs=np.zeros(256, dtype=np.int64))

    def test_wrong_shape_rejected(self):
        data = np.ones(4, dtype=np.uint8)
        with pytest.raises(ValueError, match="256-entry"):
            huffman_encode(data, freqs=np.array([4], dtype=np.int64))


class TestPackerLaneEdges:
    """Codes at the packer's lane limits, against the seed packer."""

    def test_length_64_codes(self):
        codes = np.array([0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF],
                         dtype=np.uint64)
        lengths = np.array([64, 64])
        positions = np.array([3, 67])
        ref = pack_varlen_bits_reference(codes, lengths, positions, 131)
        fast = pack_sorted_canonical_bits(codes, lengths, positions, 131)
        assert fast.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 64), min_size=1, max_size=300),
    gap_seed=st.integers(0, 2**31),
)
def test_property_packer_matches_reference(lengths, gap_seed):
    """Disjoint masked codes at arbitrary gaps: packer == per-bit seed."""
    rng = np.random.default_rng(gap_seed)
    lengths = np.asarray(lengths, dtype=np.int64)
    gaps = rng.integers(0, 9, lengths.size)
    positions = np.cumsum(lengths + gaps) - lengths
    total = int(positions[-1] + lengths[-1])
    codes = rng.integers(0, 2**64 - 1, lengths.size, dtype=np.uint64,
                         endpoint=True) >> (64 - lengths).astype(np.uint64)
    ref = pack_varlen_bits_reference(codes, lengths, positions, total)
    fast = pack_sorted_canonical_bits(codes, lengths, positions, total)
    assert fast.tobytes() == ref.tobytes()
