"""Tests for vectorized bit packing and bit-window reads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lossless.bitio import (
    MAX_PEEK_WIDTH,
    bit_windows_all,
    pack_sorted_canonical_bits,
)


def pack(codes, lengths, positions, total_bits):
    return pack_sorted_canonical_bits(
        np.array(codes, dtype=np.uint64), np.array(lengths),
        np.array(positions), total_bits,
    )


class TestPackSortedCanonical:
    def test_single_code(self):
        assert pack([0b101], [3], [0], 3)[0] == 0b10100000

    def test_adjacent_codes(self):
        assert pack([0b1, 0b01, 0b111], [1, 2, 3], [0, 1, 3], 6)[0] \
            == 0b10111100

    def test_positions_with_gap(self):
        assert pack([0b11], [2], [8], 10).tolist() == [0, 0b11000000]

    def test_empty(self):
        assert pack([], [], [], 0).size == 0


class TestBitWindows:
    def test_reads_back_packed(self):
        stream = np.array([0b10110100, 0b01000000], dtype=np.uint8)
        assert bit_windows_all(stream, 4)[[0, 4, 6]].tolist() \
            == [0b1011, 0b0100, 0b0001]

    def test_cross_byte_boundary(self):
        stream = np.array([0xFF, 0x00, 0xFF], dtype=np.uint8)
        assert bit_windows_all(stream, 16)[4] == 0xF00F

    def test_past_end_reads_zero(self):
        windows = bit_windows_all(np.array([0xFF], dtype=np.uint8), 8)
        assert windows.size == 16
        assert windows[6] == 0b11000000
        assert windows[8:].tolist() == [0] * 8

    def test_every_position(self):
        stream = np.array([0b10101010], dtype=np.uint8)
        assert bit_windows_all(stream, 1)[:8].tolist() \
            == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_width_validation(self):
        stream = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            bit_windows_all(stream, 0)
        with pytest.raises(ValueError):
            bit_windows_all(stream, MAX_PEEK_WIDTH + 1)
        assert not bit_windows_all(stream, MAX_PEEK_WIDTH).any()


@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 24), min_size=1, max_size=200),
    seed=st.integers(0, 2**31),
)
def test_property_pack_then_read_roundtrip(lengths, seed):
    """Packing codes back-to-back then reading each one recovers it."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.array(
        [int(rng.integers(0, 1 << l)) for l in lengths], dtype=np.uint64
    )
    positions = np.cumsum(lengths) - lengths
    stream = pack(codes, lengths, positions, int(lengths.sum()))
    windows = {w: bit_windows_all(stream, w) for w in set(lengths.tolist())}
    for code, length, pos in zip(codes, lengths, positions):
        assert windows[int(length)][pos] == code
