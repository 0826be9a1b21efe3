"""Many Huffman streams in one call: ``HuffmanCodec.decode_many``.

Walk-regime streams share one pointer-jumping walk per slab of at most
``SLAB_PAYLOAD_BYTES`` of payload; lockstep-regime streams share one
lockstep, every chunk of every stream a lane (a mix of chunk sizes is
split where padding would more than double the work). Each output must
equal the seed decoder ``decode_reference`` (``tests/oracles/
huffman_seed.py``) stream by stream, a corrupt stream may only turn
into ``ValueError`` or wrong bytes in its own output, and a call's
transient memory stays bounded by one slab (invariant 3(d)).
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.huffman_seed import decode_reference
from test_huffman_short_streams import encode, make_data, within_deadline

import repro.lossless.huffman as huffman
from repro.lossless import hybrid
from repro.lossless.huffman import HuffmanCodec
from repro.lossless.hybrid import compress_planes

ALPHABETS = ["single", "two", "zero_heavy", "uniform", "deep"]

#: One stream of a mix: alphabet (``single`` is the incomplete one-symbol
#: code, ``deep`` reaches max_len 16), symbol count and chunk size. The
#: counts cover n == 0, n < chunk, ragged last chunks and, at 40 000
#: uniform bytes, the lockstep regime.
STREAMS = st.tuples(
    st.sampled_from(ALPHABETS),
    st.sampled_from([0, 1, 5, 100, 700, 1792, 3001, 40000]),
    st.sampled_from([7, 64, 256, 1024]),
)


def make_mix(specs, seed=0):
    datas, blobs = [], []
    for i, (alphabet, n, chunk) in enumerate(specs):
        data = make_data(alphabet, n, seed=seed + i)
        datas.append(data)
        blobs.append(encode(HuffmanCodec(chunk_symbols=chunk), alphabet, data))
    return datas, blobs


def depth_code(depth: int) -> np.ndarray:
    """A complete prefix code whose longest codes are *depth* bits:
    lengths 1, 2, ..., depth, depth over symbols 0 ... depth."""
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[:depth + 1] = [*range(1, depth + 1), depth]
    return lengths


def depth_stream(depth: int, n: int, chunk: int, seed: int = 0):
    """*n* geometric symbols coded with :func:`depth_code`, each symbol
    planted once so the code's support matches the data."""
    rng = np.random.default_rng(seed * 101 + depth)
    data = np.minimum(rng.geometric(0.5, n) - 1, depth).astype(np.uint8)
    data[rng.permutation(n)[:depth + 1]] = np.arange(depth + 1)
    blob = HuffmanCodec(chunk_symbols=chunk).encode(
        data, lengths=depth_code(depth))
    assert struct.unpack_from(huffman._HEADER_FMT, blob, 0)[3] == depth
    return data, blob


class SpyCodec(HuffmanCodec):
    """Records the number of streams in each walk and each lockstep."""

    def __init__(self) -> None:
        super().__init__()
        self.walks: list[int] = []
        self.locksteps: list[int] = []

    def _decode_short(self, streams, scratch):
        self.walks.append(len(streams))
        return super()._decode_short(streams, scratch)

    def _decode_long(self, streams):
        self.locksteps.append(len(streams))
        return super()._decode_long(streams)


class TestBatchEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(STREAMS, min_size=1, max_size=12),
           seed=st.integers(0, 1000))
    def test_random_mixes(self, specs, seed):
        datas, blobs = make_mix(specs, seed)
        codec = HuffmanCodec()
        got = codec.decode_many(blobs)
        assert len(got) == len(blobs)
        for out, data, blob in zip(got, datas, blobs):
            assert out.dtype == np.uint8
            assert np.array_equal(out, decode_reference(blob))
            assert np.array_equal(out, data)

    def test_short_streams_share_walks(self):
        """64 tile groups decode in a handful of walks, not 64, and a
        lockstep stream between them does not join any."""
        tile = ("zero_heavy", 1792, 1024)
        specs = [tile] * 32 + [("uniform", 40000, 1024)] + [tile] * 32
        datas, blobs = make_mix(specs)
        codec = SpyCodec()
        got = codec.decode_many(blobs)
        assert all(np.array_equal(a, b) for a, b in zip(got, datas))
        assert sum(codec.walks) == 64
        assert 1 < len(codec.walks) <= 16

    def test_mixed_widths_share_a_walk(self):
        """Streams of max_len 1, 10 and 16 read one window width."""
        specs = [("single", 300, 1024), ("zero_heavy", 900, 64),
                 ("deep", 1792, 1024), ("two", 50, 7)]
        datas, blobs = make_mix(specs)
        widths = {struct.unpack_from(huffman._HEADER_FMT, b, 0)[3]
                  for b in blobs}
        assert {1, 16} <= widths
        codec = SpyCodec()
        got = codec.decode_many(blobs)
        assert codec.walks == [4]
        assert all(np.array_equal(a, b) for a, b in zip(got, datas))

    def test_cap_splits_slabs(self, monkeypatch):
        monkeypatch.setattr(huffman, "SLAB_PAYLOAD_BYTES", 1)
        datas, blobs = make_mix([("zero_heavy", 1792, 1024)] * 3)
        codec = SpyCodec()
        got = codec.decode_many(blobs)
        assert codec.walks == [1, 1, 1]
        assert all(np.array_equal(a, b) for a, b in zip(got, datas))

    def test_hybrid_lists_decode_in_one_call(self, monkeypatch):
        planes = [make_data("zero_heavy", 448, seed=s) for s in range(8)]
        groups = compress_planes(planes)
        assert [g.method for g in groups] == ["huffman", "huffman"]
        calls = []
        real = hybrid._DECODERS["huffman"]

        def counting(payloads):
            calls.append(len(payloads))
            return real(payloads)

        monkeypatch.setitem(hybrid._DECODERS, "huffman", counting)
        out = hybrid.decompress_group_lists([groups[:1], [], groups[1:]])
        assert calls == [2]
        assert [len(p) for p in out] == [4, 0, 4]
        flat = [p for lists in out for p in lists]
        assert all(np.array_equal(a, b) for a, b in zip(flat, planes))


class TestCorruptionIsolation:
    #: Five walk-regime streams and three lockstep-regime ones, the two
    #: 256-symbol ones sharing one lockstep.
    SPECS = [("zero_heavy", 1792, 1024), ("deep", 1792, 1024),
             ("two", 900, 64), ("single", 700, 1024),
             ("uniform", 40000, 1024), ("zero_heavy", 3001, 1024),
             ("uniform", 12000, 256), ("deep", 40000, 256)]

    def test_specs_cover_a_shared_lockstep(self):
        codec = SpyCodec()
        codec.decode_many(make_mix(self.SPECS)[1])
        assert sorted(codec.locksteps) == [1, 2] and codec.walks == [5]

    @pytest.mark.parametrize("victim", range(len(SPECS)))
    @pytest.mark.parametrize("region", ["header", "payload"])
    def test_one_corrupt_stream(self, victim, region):
        datas, blobs = make_mix(self.SPECS)
        codec = HuffmanCodec()
        rng = np.random.default_rng(17 * victim + (region == "payload"))
        n_chunks = struct.unpack_from("<I", blobs[victim], 273)[0]
        head_end = 277 + 4 * (n_chunks + 1)
        bounds = (4, head_end) if region == "header" \
            else (head_end, len(blobs[victim]))
        for _ in range(40):
            bad = bytearray(blobs[victim])
            for _ in range(int(rng.integers(1, 4))):
                byte = int(rng.integers(*bounds))
                bad[byte] ^= 1 << int(rng.integers(0, 8))
            mix = [*blobs[:victim], bytes(bad), *blobs[victim + 1:]]
            try:
                got = within_deadline(codec.decode_many, mix)
            except ValueError:
                continue
            claimed = struct.unpack_from("<Q", bad, 4)[0]
            assert got[victim].dtype == np.uint8
            assert got[victim].size == claimed
            for i, (out, data) in enumerate(zip(got, datas)):
                if i != victim:
                    assert np.array_equal(out, data), (victim, i)


#: Symbols of a lockstep-regime and of a walk-regime depth stream per
#: chunk size: every long count clears the regime line at one bit per
#: symbol, and every count but chunk 1's leaves a ragged final chunk.
LONG_SYMBOLS = {1: 300, 7: 3001, 256: 70001, 1024: 270001}
WALK_SYMBOLS = {1: 20, 7: 101, 256: 2001, 1024: 3001}


class TestOneLockstep:
    def test_every_depth_and_chunk_in_one_call(self):
        """max_len 1 ... 16 at chunks 1, 7, 256 and 1024, lockstep and
        walk streams, single-symbol and empty streams, in one call."""
        datas, blobs = [], []
        for depth in range(1, 17):
            chunk = (1, 7, 256, 1024)[depth % 4]
            for n in (LONG_SYMBOLS[chunk], WALK_SYMBOLS[chunk]):
                data, blob = depth_stream(depth, n, chunk)
                datas.append(data)
                blobs.append(blob)
        for n in (70001, 2001, 0):
            data = make_data("single", n)
            datas.append(data)
            blobs.append(HuffmanCodec().encode(data))
        codec = SpyCodec()
        got = codec.decode_many(blobs)
        # Each stream was sized for its regime: 17 of each (the empty
        # stream takes neither), and at most one lockstep per distinct
        # chunk size.
        assert sum(codec.locksteps) == 17 and sum(codec.walks) == 17
        assert len(codec.locksteps) <= 4
        for out, data, blob in zip(got, datas, blobs):
            assert out.dtype == np.uint8
            assert np.array_equal(out, decode_reference(blob))
            assert np.array_equal(out, data)

    def test_default_chunk_streams_share_one_lockstep(self):
        """Every depth's long stream at the default chunk: one lockstep
        over all of their lanes, at the widest max_len."""
        streams = [depth_stream(depth, LONG_SYMBOLS[256], 256, seed=1)
                   for depth in range(1, 17)]
        codec = SpyCodec()
        got = codec.decode_many([blob for _, blob in streams])
        assert codec.locksteps == [16] and codec.walks == []
        for out, (data, blob) in zip(got, streams):
            assert np.array_equal(out, data)
            assert np.array_equal(out, decode_reference(blob))

    def test_old_and_new_chunks_share_a_lockstep(self):
        """1024- and 256-symbol streams of equal lanes: the 256-symbol
        lanes run 1024 rounds, reading past their chunks into padding."""
        old = depth_stream(9, 200_001, 1024)
        new = depth_stream(5, 50_001, 256)
        codec = SpyCodec()
        got = codec.decode_many([new[1], old[1]])
        assert codec.locksteps == [2]
        assert np.array_equal(got[0], new[0])
        assert np.array_equal(got[1], old[0])

    def test_padding_never_more_than_doubles_the_work(self):
        """A chunk-1 stream (one round, a lane per symbol) does not pad
        its 2 400 lanes out to a 1024-round stream's rounds."""
        tiny = depth_stream(3, 2400, 1)
        old = depth_stream(9, 200_001, 1024)
        codec = SpyCodec()
        got = codec.decode_many([tiny[1], old[1]])
        assert sorted(codec.locksteps) == [1, 1]
        assert np.array_equal(got[0], tiny[0])
        assert np.array_equal(got[1], old[0])


class TestBoundedMemory:
    def test_batch_peak_within_one_threshold_stream(self):
        """64 tile groups in one call peak no higher than one stream at
        the walk threshold of 1024-symbol chunks (32 KiB of payload, the
        largest walk a default store before 256-symbol chunks holds):
        the per-bit tables live one slab at a time."""
        codec = HuffmanCodec()
        blobs = [codec.encode(make_data("zero_heavy", 1792, seed=s))
                 for s in range(64)]
        n = huffman.SHORT_STREAM_BYTES_PER_ROUND * 1024
        data = np.resize(np.arange(256, dtype=np.uint8), n)
        np.random.default_rng(3).shuffle(data)
        threshold = HuffmanCodec(1024).encode(data)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: codec.decode(threshold))
        batch = peak(lambda: codec.decode_many(blobs))
        assert batch <= one, (batch, one)
