"""Tests for the Huffman, RLE, and Direct-Copy codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles.huffman_seed import build_code_lengths_reference

from repro.lossless.direct import direct_decode, direct_encode
from repro.lossless.huffman import (
    HuffmanCodec,
    build_code_lengths,
    canonical_codes,
    estimate_huffman_ratio,
    huffman_decode,
    huffman_encode,
    huffman_ratio_upper_bound,
)
from repro.lossless.rle import estimate_rle_ratio, rle_decode, rle_encode


def skewed_bytes(n, seed=0, zeros=0.8):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, n).astype(np.uint8)
    mask = rng.random(n) < zeros
    data[mask] = 0
    return data


class TestCodeLengths:
    def test_kraft_inequality(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(0, 1000, 256)
        lengths = build_code_lengths(freqs)
        present = lengths[lengths > 0].astype(np.int64)
        assert np.sum(2.0 ** (-present)) <= 1.0 + 1e-12

    def test_two_symbols(self):
        freqs = np.zeros(256, dtype=np.int64)
        freqs[7] = 10
        freqs[9] = 1
        lengths = build_code_lengths(freqs)
        assert lengths[7] == 1 and lengths[9] == 1

    def test_single_symbol(self):
        freqs = np.zeros(256, dtype=np.int64)
        freqs[42] = 5
        lengths = build_code_lengths(freqs)
        assert lengths[42] == 1
        assert np.count_nonzero(lengths) == 1

    def test_empty(self):
        assert np.all(build_code_lengths(np.zeros(256, dtype=np.int64)) == 0)

    def test_max_length_respected_pathological(self):
        # Fibonacci-like frequencies force deep trees without limiting.
        freqs = np.zeros(64, dtype=np.int64)
        a, b = 1, 1
        for i in range(40):
            freqs[i] = a
            a, b = b, a + b
        lengths = build_code_lengths(freqs, max_length=16)
        present = lengths[lengths > 0].astype(np.int64)
        assert present.max() <= 16
        assert np.sum(2.0 ** (-present)) <= 1.0 + 1e-12

    def test_frequent_symbols_get_short_codes(self):
        freqs = np.zeros(256, dtype=np.int64)
        freqs[0] = 1000
        freqs[1:11] = 1
        lengths = build_code_lengths(freqs)
        assert lengths[0] < lengths[5]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build_code_lengths(np.array([-1, 2]))


FIBONACCI = [1, 1]
while FIBONACCI[-1] < 1 << 40:
    FIBONACCI.append(FIBONACCI[-1] + FIBONACCI[-2])


@st.composite
def histograms(draw, max_count=1 << 40):
    """256-bin histograms with 1-256 present symbols.

    Families: arbitrary counts, heavy ties (all-equal, two-valued) and
    Fibonacci weights — the consecutive run gives the deepest possible
    tree, so a ``max_length`` of 9, 12 or 16 forces the limiter to
    lengthen and, after an overshoot, to spend the slack again.
    """
    k = draw(st.integers(1, 256))
    family = draw(st.sampled_from(["any", "equal", "two_valued", "fibonacci"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "any":
        weights = rng.integers(1, max_count, k, endpoint=True)
    elif family == "equal":
        weights = np.full(k, rng.integers(1, max_count, endpoint=True))
    elif family == "two_valued":
        weights = rng.choice(rng.integers(1, max_count, 2, endpoint=True), k)
    else:
        fib = np.array([f for f in FIBONACCI if f <= max_count])
        weights = rng.choice(fib, k)
        weights[: fib.size] = fib[:k]
    freqs = np.zeros(256, dtype=np.int64)
    freqs[rng.choice(256, k, replace=False)] = weights
    return freqs


class TestTwoQueueConstruction:
    """:func:`build_code_lengths` against the seed heap oracle."""

    @settings(max_examples=200, deadline=None)
    @given(freqs=histograms(), max_length=st.sampled_from([9, 12, 16]))
    def test_property_equals_heap_oracle(self, freqs, max_length):
        np.testing.assert_array_equal(
            build_code_lengths(freqs, max_length),
            build_code_lengths_reference(freqs, max_length),
        )

    @pytest.mark.parametrize("max_length", [9, 12, 16])
    def test_every_fibonacci_depth_equals_heap_oracle(self, max_length):
        """k consecutive Fibonacci weights: a tree k - 1 deep, so every
        k past the limit clamps, lengthens and (for most k) overshoots
        into the shortening pass."""
        for k in range(2, len(FIBONACCI) + 1):
            freqs = np.array(FIBONACCI[:k])
            lengths = build_code_lengths(freqs, max_length)
            np.testing.assert_array_equal(
                lengths, build_code_lengths_reference(freqs, max_length)
            )
            assert int(lengths.max()) == min(k - 1, max_length)

    def test_short_histograms_and_absent_symbols(self):
        for freqs in ([], [0], [5], [0, 0, 3], [2, 0, 2], [1, 1, 1]):
            np.testing.assert_array_equal(
                build_code_lengths(np.array(freqs, dtype=np.int64)),
                build_code_lengths_reference(np.array(freqs, dtype=np.int64)),
            )

    @pytest.mark.parametrize(
        "build", [build_code_lengths, build_code_lengths_reference]
    )
    @pytest.mark.parametrize("freqs, max_length", [
        (np.array([-1, 2]), 16),              # negative count
        (np.ones((2, 2), dtype=np.int64), 16),  # not 1-D
        (np.ones(257, dtype=np.int64), 16),   # beyond the byte alphabet
        (np.array([3, 1, 2]), 0),             # no such code length
        (np.ones(5, dtype=np.int64), 2),      # 5 symbols, 4 codes
    ])
    def test_validation_errors_on_both(self, build, freqs, max_length):
        with pytest.raises(ValueError):
            build(freqs, max_length)


class TestCanonicalCodes:
    def test_prefix_free(self):
        rng = np.random.default_rng(1)
        freqs = rng.integers(0, 100, 256)
        lengths = build_code_lengths(freqs)
        codes = canonical_codes(lengths)
        entries = [
            (int(codes[s]), int(lengths[s]))
            for s in np.flatnonzero(lengths)
        ]
        as_bits = [format(c, f"0{l}b") for c, l in entries]
        for i, a in enumerate(as_bits):
            for j, b in enumerate(as_bits):
                if i != j:
                    assert not b.startswith(a)

    def test_ordering_canonical(self):
        lengths = np.zeros(4, dtype=np.uint8)
        lengths[:] = [2, 1, 3, 3]
        codes = canonical_codes(lengths)
        # canonical: shorter codes numerically precede when left-aligned
        assert codes[1] == 0b0
        assert codes[0] == 0b10
        assert codes[2] == 0b110
        assert codes[3] == 0b111


class TestHuffmanRoundtrip:
    @pytest.mark.parametrize("n", [0, 1, 2, 100, 1023, 1024, 1025, 10000])
    def test_sizes(self, n):
        data = skewed_bytes(n, seed=n)
        decoded = huffman_decode(huffman_encode(data))
        np.testing.assert_array_equal(decoded, data)

    def test_uniform_data(self):
        data = np.full(5000, 7, dtype=np.uint8)
        blob = huffman_encode(data)
        np.testing.assert_array_equal(huffman_decode(blob), data)
        assert len(blob) < data.size  # ~1 bit per symbol + header

    def test_random_data_roundtrip(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, 8192).astype(np.uint8)
        np.testing.assert_array_equal(
            huffman_decode(huffman_encode(data)), data
        )

    def test_compresses_skewed_data(self):
        data = skewed_bytes(1 << 16, seed=3, zeros=0.95)
        assert len(huffman_encode(data)) < data.size // 2

    def test_accepts_bytes_input(self):
        blob = huffman_encode(b"hello world" * 100)
        assert bytes(huffman_decode(blob)) == b"hello world" * 100

    def test_custom_chunk_size(self):
        codec = HuffmanCodec(chunk_symbols=64)
        data = skewed_bytes(1000, seed=4)
        np.testing.assert_array_equal(codec.decode(codec.encode(data)), data)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            huffman_decode(b"JUNK" + b"\0" * 300)

    def test_invalid_chunk_symbols(self):
        with pytest.raises(ValueError):
            HuffmanCodec(chunk_symbols=0)
        # The stream header stores the chunk size as a uint32.
        with pytest.raises(ValueError, match="chunk_symbols"):
            HuffmanCodec(chunk_symbols=2**32)
        codec = HuffmanCodec(chunk_symbols=2**32 - 1)
        data = np.arange(10, dtype=np.uint8)
        np.testing.assert_array_equal(codec.decode(codec.encode(data)), data)


class TestHuffmanEstimate:
    def test_estimate_close_to_actual(self):
        data = skewed_bytes(1 << 16, seed=5, zeros=0.9)
        est = estimate_huffman_ratio(data)
        actual = data.size / len(huffman_encode(data))
        assert abs(est - actual) / actual < 0.05

    def test_empty(self):
        assert estimate_huffman_ratio(np.empty(0, np.uint8)) == 1.0


class TestHistogramBound:
    """``huffman_ratio_upper_bound`` never reads below the exact estimate
    (equality allowed): the selector may skip the code on its word."""

    @staticmethod
    def check(data):
        data = np.asarray(data, dtype=np.uint8)
        freqs = np.bincount(data, minlength=256)
        bound = huffman_ratio_upper_bound(data.size, freqs)
        exact = estimate_huffman_ratio(data, freqs=freqs)
        assert bound >= exact, (data.size, bound, exact)
        return bound, exact

    @settings(max_examples=100, deadline=None)
    @given(freqs=histograms(max_count=1 << 10))
    def test_property_bound_dominates_exact_estimate(self, freqs):
        self.check(np.repeat(np.arange(256), freqs))

    @pytest.mark.parametrize("n", [1, 2, 1025, 1792, 229_376])
    def test_one_symbol_two_symbols_and_uniform_random(self, n):
        rng = np.random.default_rng(n)
        # A code cannot spend less than one bit per symbol, and on these
        # two it spends exactly that: the bound is tight.
        for tight in (np.full(n, 7), np.arange(n) % 2):
            bound, exact = self.check(tight)
            assert bound == exact
        bound, _ = self.check(rng.integers(0, 256, n))
        assert bound <= 1.0  # incompressible: ruled out without a code
        self.check(skewed_bytes(n, seed=n, zeros=0.9))

    def test_empty(self):
        assert huffman_ratio_upper_bound(0, np.zeros(256, np.int64)) == 1.0


class TestRle:
    def test_roundtrip_runs(self):
        data = np.repeat(
            np.array([0, 3, 0, 7, 7], dtype=np.uint8), [100, 5, 200, 1, 9]
        )
        np.testing.assert_array_equal(rle_decode(rle_encode(data)), data)

    def test_roundtrip_no_runs(self):
        data = np.arange(256, dtype=np.uint8)
        np.testing.assert_array_equal(rle_decode(rle_encode(data)), data)

    def test_empty(self):
        assert rle_decode(rle_encode(np.empty(0, np.uint8))).size == 0

    def test_compresses_zero_heavy(self):
        data = np.zeros(1 << 16, dtype=np.uint8)
        assert len(rle_encode(data)) < 64

    def test_estimate_close_to_actual(self):
        data = np.repeat(
            np.arange(50, dtype=np.uint8), np.full(50, 100)
        )
        est = estimate_rle_ratio(data)
        actual = data.size / len(rle_encode(data))
        assert abs(est - actual) / actual < 0.1

    def test_bytes_input(self):
        blob = rle_encode(b"aaaabbb")
        assert bytes(rle_decode(blob)) == b"aaaabbb"

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            rle_decode(b"XXXX" + b"\0" * 16)


class TestDirect:
    def test_roundtrip(self):
        data = np.arange(100, dtype=np.uint8)
        np.testing.assert_array_equal(direct_decode(direct_encode(data)), data)

    def test_empty(self):
        assert direct_decode(direct_encode(b"")).size == 0

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            direct_decode(b"YYYY" + b"\0" * 8)

    def test_truncated(self):
        blob = direct_encode(np.arange(10, dtype=np.uint8))
        with pytest.raises(ValueError):
            direct_decode(blob[:-2])


@settings(max_examples=30, deadline=None)
@given(
    data=hnp.arrays(
        dtype=np.uint8, shape=st.integers(0, 3000),
        elements=st.integers(0, 255),
    )
)
def test_property_all_codecs_roundtrip(data):
    """Hypothesis: every codec is lossless on arbitrary byte content."""
    np.testing.assert_array_equal(huffman_decode(huffman_encode(data)), data)
    np.testing.assert_array_equal(rle_decode(rle_encode(data)), data)
    np.testing.assert_array_equal(direct_decode(direct_encode(data)), data)
