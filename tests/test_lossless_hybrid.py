"""Tests for the hybrid lossless strategy (Algorithm 2)."""

import numpy as np
import pytest

from repro.bitplane import encode_bitplanes
from repro.lossless.hybrid import (
    _ENCODERS,
    CompressedGroup,
    HybridConfig,
    _select_and_encode,
    compress_planes,
    decompress_groups,
)
from repro.lossless.huffman import estimate_huffman_ratio
from repro.lossless.rle import estimate_rle_ratio


def bitplanes_of(n=4096, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(n).astype(dtype)
    return encode_bitplanes(data, 32).planes


class TestConfig:
    def test_defaults(self):
        cfg = HybridConfig()
        assert cfg.group_size == 4
        assert cfg.cr_threshold == 1.0

    @pytest.mark.parametrize(
        "kwargs", [{"group_size": 0}, {"size_threshold": -1},
                   {"cr_threshold": 0.0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HybridConfig(**kwargs)


class TestCompressPlanes:
    def test_group_count(self):
        planes = bitplanes_of()
        groups = compress_planes(planes, HybridConfig(group_size=4))
        assert len(groups) == -(-len(planes) // 4)

    def test_roundtrip_all_groups(self):
        planes = bitplanes_of()
        groups = compress_planes(planes)
        recovered = decompress_groups(groups)
        assert len(recovered) == len(planes)
        for a, b in zip(planes, recovered):
            np.testing.assert_array_equal(a, b)

    def test_partial_decompress(self):
        planes = bitplanes_of()
        groups = compress_planes(planes, HybridConfig(group_size=4))
        recovered = decompress_groups(groups, num_groups=2)
        assert len(recovered) == 8
        for a, b in zip(planes[:8], recovered):
            np.testing.assert_array_equal(a, b)

    def test_high_order_planes_entropy_coded(self):
        """Leading magnitude planes of Gaussian data are zero-dominated,
        so Algorithm 2 must pick an entropy codec for them."""
        planes = bitplanes_of(n=1 << 15)
        groups = compress_planes(planes, HybridConfig())
        assert groups[0].method in ("huffman", "rle")
        assert groups[0].compressed_size < groups[0].original_size

    def test_middle_planes_of_float64_direct(self):
        """For float64 sources the sub-leading planes are incoherent
        noise below the signal's mantissa structure — DC is selected."""
        planes = bitplanes_of(n=1 << 15, dtype=np.float64)
        groups = compress_planes(planes, HybridConfig())
        methods = [g.method for g in groups]
        assert "direct" in methods[1:]

    def test_float32_trailing_planes_compressible(self):
        """float32 inputs only carry 24 mantissa bits, so the trailing
        fixed-point planes are zero-heavy and entropy coding wins — a
        real effect of exponent alignment the hybrid must exploit."""
        planes = bitplanes_of(n=1 << 15, dtype=np.float32)
        groups = compress_planes(planes, HybridConfig())
        assert groups[-1].method == "huffman"
        assert groups[-1].compressed_size < groups[-1].original_size

    def test_small_groups_forced_direct(self):
        planes = bitplanes_of(n=64)
        groups = compress_planes(
            planes, HybridConfig(size_threshold=10**6)
        )
        assert all(g.method == "direct" for g in groups)

    def test_higher_threshold_means_less_entropy_coding(self):
        planes = bitplanes_of(n=1 << 14)
        low = compress_planes(planes, HybridConfig(cr_threshold=1.0))
        high = compress_planes(planes, HybridConfig(cr_threshold=4.0))
        def entropy_count(groups):
            return sum(g.method != "direct" for g in groups)
        assert entropy_count(high) <= entropy_count(low)

    def test_higher_threshold_larger_output(self):
        planes = bitplanes_of(n=1 << 14)
        sizes = []
        for rc in (1.0, 4.0):
            groups = compress_planes(planes, HybridConfig(cr_threshold=rc))
            sizes.append(sum(g.compressed_size for g in groups))
        assert sizes[0] <= sizes[1]

    def test_group_size_one(self):
        planes = bitplanes_of(n=512)
        groups = compress_planes(planes, HybridConfig(group_size=1))
        assert len(groups) == len(planes)
        recovered = decompress_groups(groups)
        for a, b in zip(planes, recovered):
            np.testing.assert_array_equal(a, b)


class TestSharedScans:
    """The single-pass selector must match the naive double-scan logic."""

    @staticmethod
    def naive_select(merged, config):
        """The seed formulation of Algorithm 2: nothing pruned, nothing
        shared, every code from the seed heap construction."""
        from oracles.huffman_seed import build_code_lengths_reference

        from repro.lossless.huffman import huffman_encode
        if merged.size <= config.size_threshold:
            return "direct", _ENCODERS["direct"](merged)
        lengths = build_code_lengths_reference(
            np.bincount(merged, minlength=256)
        )
        if estimate_huffman_ratio(merged, lengths=lengths) \
                > config.cr_threshold:
            return "huffman", huffman_encode(merged, lengths=lengths)
        if estimate_rle_ratio(merged) > config.cr_threshold:
            return "rle", _ENCODERS["rle"](merged)
        return "direct", _ENCODERS["direct"](merged)

    @staticmethod
    def groups_near_threshold(threshold, seed, n=8192, span=4):
        """Groups whose exact Huffman estimate lands within a few bytes
        either side of ``n / threshold``.

        Zeroing the first ``m`` bytes (in a seeded order) of a noise
        buffer shrinks the estimate by about a byte per step; bisect to
        the ``m`` where the ratio first clears the threshold and return
        its neighbours.
        """
        rng = np.random.default_rng(seed)
        noise = rng.integers(1, 256, n).astype(np.uint8)
        rank = rng.permutation(n)

        def group(m):
            return np.where(rank < m, 0, noise).astype(np.uint8)

        lo, hi = 0, n  # ratio(lo) <= threshold < ratio(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if estimate_huffman_ratio(group(mid)) > threshold:
                hi = mid
            else:
                lo = mid
        return [group(m) for m in range(hi - span, hi + span)]

    @pytest.mark.parametrize("cr_threshold", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("seed,dtype", [(0, np.float32),
                                            (1, np.float64),
                                            (2, np.float32)])
    def test_select_and_encode_matches_naive(self, seed, dtype, cr_threshold):
        planes = bitplanes_of(n=1 << 13, seed=seed, dtype=dtype)
        config = HybridConfig(cr_threshold=cr_threshold)
        for start in range(0, len(planes), config.group_size):
            merged = np.concatenate(
                [p.reshape(-1) for p in
                 planes[start : start + config.group_size]]
            )
            method, payload = _select_and_encode(merged, config)
            assert (method, payload) == self.naive_select(merged, config)
            assert method == _select_and_encode(merged, config)[0]
            assert payload == _ENCODERS[method](merged)

    @pytest.mark.parametrize("cr_threshold", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_within_bytes_of_the_threshold(
        self, seed, cr_threshold
    ):
        """Where the histogram bound and the exact estimate could
        disagree if the bound were not one: a few bytes either side."""
        config = HybridConfig(cr_threshold=cr_threshold)
        chosen = []
        for merged in self.groups_near_threshold(cr_threshold, seed):
            method, payload = _select_and_encode(merged, config)
            assert (method, payload) == self.naive_select(merged, config)
            chosen.append(method)
        assert "huffman" in chosen and chosen.count("huffman") < len(chosen)

    def test_ratio_estimates_with_shared_histogram(self):
        planes = bitplanes_of(n=1 << 12)
        merged = np.concatenate([p.reshape(-1) for p in planes[:4]])
        freqs = np.bincount(merged, minlength=256)
        assert estimate_huffman_ratio(merged, freqs=freqs) == \
            estimate_huffman_ratio(merged)
        assert estimate_rle_ratio(merged) > 0


class TestGroupSerialization:
    def test_roundtrip(self):
        planes = bitplanes_of(n=2048)
        groups = compress_planes(planes)
        for g in groups:
            g2 = CompressedGroup.from_bytes(g.to_bytes())
            assert g2.method == g.method
            assert g2.plane_sizes == g.plane_sizes
            assert g2.first_plane == g.first_plane
            assert g2.payload == g.payload

    @pytest.mark.parametrize("method", sorted(_ENCODERS))
    @pytest.mark.parametrize("group_size", [1, 5])
    def test_nbytes_is_serialized_length(self, method, group_size):
        """``nbytes`` is ``len(to_bytes())`` without serializing: for
        every method, one-plane groups and a short last group (33
        planes in fives), built or parsed (payload a view)."""
        planes = bitplanes_of(n=512)
        groups = []
        for start in range(0, len(planes), group_size):
            members = planes[start:start + group_size]
            merged = np.concatenate([p.reshape(-1) for p in members])
            groups.append(CompressedGroup(
                method, _ENCODERS[method](merged),
                tuple(int(p.size) for p in members), start))
        if group_size > 1:
            assert groups[-1].num_planes < group_size  # a short last group
        for g in groups:
            parsed = CompressedGroup.from_bytes(g.to_bytes())
            assert g.nbytes == parsed.nbytes == len(g.to_bytes())

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            CompressedGroup.from_bytes(b"ZZZZ" + b"\0" * 32)

    def test_truncated_payload(self):
        g = compress_planes(bitplanes_of(n=256))[0]
        with pytest.raises(ValueError):
            CompressedGroup.from_bytes(g.to_bytes()[:-4])

    def test_corrupt_size_detected(self):
        g = compress_planes(bitplanes_of(n=256))[0]
        bad = CompressedGroup(
            method=g.method,
            payload=g.payload,
            plane_sizes=tuple(s + 1 for s in g.plane_sizes),
            first_plane=0,
        )
        with pytest.raises(ValueError):
            decompress_groups([bad])
