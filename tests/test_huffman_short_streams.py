"""Size-proportional Huffman decode (ISSUE 13).

``HuffmanCodec.decode`` picks one of two regimes from header fields:
the pointer-jumping walk for streams with few payload bytes per
lockstep round, the 64-bit-window lockstep loop for the rest. Both must
be byte-identical to the seed decoder ``decode_reference``
(``tests/oracles/huffman_seed.py``) on every valid stream, and a corrupt stream may only yield wrong bytes or
``ValueError`` — never another exception, never a hang.
"""

import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.huffman_seed import (
    build_lut_reference,
    decode_reference,
    peek_bits,
)

import repro.lossless.huffman as huffman
from repro.core.backends import BACKEND_ENV
from repro.core.store import MemoryStore, open_tiled_field, store_tiled_field
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data import generators as gen
from repro.lossless import hybrid
from repro.lossless.bitio import bit_windows_all
from repro.lossless.huffman import (
    DEFAULT_CHUNK_SYMBOLS,
    MAX_CODE_LENGTH,
    SHORT_STREAM_BYTES_PER_ROUND,
    HuffmanCodec,
    build_code_lengths,
    canonical_codes,
)
from repro.lossless.hybrid import CompressedGroup, compress_planes

CHUNKS = [1, 7, 64, 1000, 1024]
ALPHABETS = ["single", "two", "zero_heavy", "uniform", "deep"]
FIXED_SIZES = [0, 1, 2, 1792, 6048, 27216, 48384]
WATCHDOG_S = 20.0

#: A complete prefix code over 17 symbols whose longest codes are
#: MAX_CODE_LENGTH bits: lengths 1, 2, ..., 15, 16, 16.
DEEP_LENGTHS = np.zeros(256, dtype=np.uint8)
DEEP_LENGTHS[:17] = list(range(1, 16)) + [16, 16]


def make_data(alphabet: str, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed * 7919 + n)
    if alphabet == "single":
        return np.full(n, 9, dtype=np.uint8)
    if alphabet == "two":
        return rng.choice(np.array([3, 200], dtype=np.uint8), n)
    if alphabet == "zero_heavy":  # what a low bit-plane group looks like
        return np.where(
            rng.random(n) < 0.6, 0, rng.integers(0, 256, n)
        ).astype(np.uint8)
    if alphabet == "uniform":
        return rng.integers(0, 256, n).astype(np.uint8)
    assert alphabet == "deep"
    # Geometric draw over the 17 DEEP_LENGTHS symbols, every symbol
    # planted once so the explicit code's support matches the data.
    data = np.minimum(rng.geometric(0.5, n) - 1, 16).astype(np.uint8)
    if n >= 17:
        data[rng.permutation(n)[:17]] = np.arange(17, dtype=np.uint8)
    return data


def encode(codec: HuffmanCodec, alphabet: str, data: np.ndarray) -> bytes:
    if alphabet == "deep" and data.size >= 17:
        return codec.encode(data, lengths=DEEP_LENGTHS)
    return codec.encode(data)


def header_max_len(blob: bytes) -> int:
    return struct.unpack_from(huffman._HEADER_FMT, blob, 0)[3]


def within_deadline(fn, *args):
    """Run ``fn(*args)`` on a thread; fail the test if it overruns."""
    box: list = []

    def target():
        try:
            box.append(("ok", fn(*args)))
        except BaseException as exc:  # noqa: B036 - re-raised below
            box.append(("err", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(WATCHDOG_S)
    assert not thread.is_alive(), "decode hung past the watchdog deadline"
    kind, value = box[0]
    if kind == "err":
        raise value
    return value


def assert_bytes_or_value_error(codec: HuffmanCodec, blob: bytes, n: int):
    """The corrupt-stream contract of both regimes."""
    try:
        out = within_deadline(codec.decode, blob)
    except ValueError:
        return
    assert out.dtype == np.uint8 and out.size == n


class SpyCodec(HuffmanCodec):
    """Records which regime each walk or lockstep took."""

    def __init__(self, chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS) -> None:
        super().__init__(chunk_symbols)
        self.regimes: list[str] = []

    def _decode_short(self, *args):
        self.regimes.append("walk")
        return super()._decode_short(*args)

    def _decode_long(self, *args):
        self.regimes.append("lockstep")
        return super()._decode_long(*args)


class TestDifferential:
    @pytest.mark.parametrize("alphabet", ALPHABETS)
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_decode_matches_reference_and_data(self, chunk, alphabet):
        codec = HuffmanCodec(chunk_symbols=chunk)
        sizes = sorted(set(FIXED_SIZES) | {chunk - 1, chunk, chunk + 1})
        for n in sizes:
            data = make_data(alphabet, n)
            blob = encode(codec, alphabet, data)
            fast = codec.decode(blob)
            assert fast.dtype == np.uint8
            assert np.array_equal(fast, data), (n, chunk, alphabet)
            assert np.array_equal(decode_reference(blob), data)

    def test_deep_alphabet_reaches_max_code_length(self):
        data = make_data("deep", 1792)
        assert header_max_len(encode(HuffmanCodec(), "deep", data)) \
            == MAX_CODE_LENGTH

    def test_fibonacci_histogram_forces_length_limit(self, monkeypatch):
        """A histogram (not a hand-built code) that hits max_len = 16,
        through each regime."""
        fib = [1, 1]
        while len(fib) < 24:
            fib.append(fib[-1] + fib[-2])
        data = np.repeat(np.arange(24, dtype=np.uint8), fib)
        np.random.default_rng(5).shuffle(data)
        data = data[:48384]
        codec = SpyCodec()
        blob = codec.encode(data)
        assert header_max_len(blob) == MAX_CODE_LENGTH
        for per_round, regime in [(1 << 30, "walk"), (0, "lockstep")]:
            monkeypatch.setattr(
                huffman, "SHORT_STREAM_BYTES_PER_ROUND", per_round
            )
            codec.regimes.clear()
            assert np.array_equal(codec.decode(blob), data)
            assert codec.regimes == [regime]
        assert np.array_equal(decode_reference(blob), data)

    @pytest.mark.parametrize("chunk", [7, 64, 1024])
    def test_ragged_last_chunk(self, chunk):
        """The last chunk holds one symbol: its lanes walk off the end."""
        codec = SpyCodec(chunk_symbols=chunk)
        data = make_data("zero_heavy", 3 * chunk + 1)
        blob = codec.encode(data)
        assert np.array_equal(codec.decode(blob), data)
        assert codec.regimes == ["walk"]

    def test_chunk_shorter_than_walk(self):
        """chunk < the per-lane walk length: one entry point per chunk."""
        assert 7 < huffman._WALK_SYMBOLS
        codec = SpyCodec(chunk_symbols=7)
        data = make_data("two", 500)
        assert np.array_equal(codec.decode(codec.encode(data)), data)
        assert codec.regimes == ["walk"]

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=3000),
        chunk=st.sampled_from([1, 3, 7, 33, 64, 1000, 1024]),
    )
    def test_property_roundtrip(self, data, chunk):
        codec = HuffmanCodec(chunk_symbols=chunk)
        blob = codec.encode(data)
        expect = np.frombuffer(data, dtype=np.uint8)
        assert np.array_equal(codec.decode(blob), expect)
        assert np.array_equal(decode_reference(blob), expect)


class TestRegimeRule:
    def test_both_sides_of_the_crossover(self):
        """Uniform bytes code at 8 bits each, so payload.size == n."""
        limit = SHORT_STREAM_BYTES_PER_ROUND * DEFAULT_CHUNK_SYMBOLS
        for n, regime in [(limit, "walk"), (limit + 1, "lockstep")]:
            codec = SpyCodec()
            # Every byte value equally often: all code lengths are 8.
            data = np.resize(np.arange(256, dtype=np.uint8), n)
            np.random.default_rng(n).shuffle(data)
            blob = codec.encode(data)
            chunks = -(-n // DEFAULT_CHUNK_SYMBOLS)
            payload = len(blob) - (17 + 256 + 4 + 4 * (chunks + 1))
            assert payload == n
            assert np.array_equal(codec.decode(blob), data)
            assert codec.regimes == [regime]
            assert np.array_equal(decode_reference(blob), data)

    def test_rule_scales_with_rounds_not_chunk_count(self):
        """Tiny chunks mean few lockstep rounds: lockstep stays cheap."""
        codec = SpyCodec(chunk_symbols=1)
        data = make_data("uniform", 4096)
        assert np.array_equal(codec.decode(codec.encode(data)), data)
        assert codec.regimes == ["lockstep"]

    def test_forced_regimes_agree(self, monkeypatch):
        """Each regime decodes a stream the rule gives to the other."""
        codec = HuffmanCodec()
        data = make_data("zero_heavy", 40000)
        blob = codec.encode(data)
        for per_round in (0, 1 << 30):
            monkeypatch.setattr(
                huffman, "SHORT_STREAM_BYTES_PER_ROUND", per_round
            )
            assert np.array_equal(codec.decode(blob), data)


class TestTables:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=256))
    def test_canonical_codes_match_seed_loop(self, freqs):
        lengths = build_code_lengths(np.array(freqs))
        max_len = int(lengths.max()) if lengths.size else 0
        expect = np.zeros(lengths.size, dtype=np.uint64)
        code, prev = 0, 0
        for l in range(1, max_len + 1):
            for sym in np.flatnonzero(lengths == l):
                code <<= l - prev
                prev = l
                expect[sym] = code
                code += 1
        assert np.array_equal(canonical_codes(lengths), expect)

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    def test_fused_lut_matches_seed_lut(self, alphabet):
        data = make_data(alphabet, 5000)
        lengths = build_code_lengths(np.bincount(data, minlength=256))
        max_len = int(lengths.max())
        (lut16,) = HuffmanCodec._build_luts([lengths], [max_len])
        sym, length = build_lut_reference(lengths, max_len)
        assert np.array_equal(lut16 & 0xFF, sym)
        assert np.array_equal(lut16 >> 8, length)

    def test_lut_rejects_impossible_tables(self):
        lengths = np.zeros(256, dtype=np.uint8)
        lengths[:3] = 1  # three 1-bit codes: Kraft sum 1.5
        with pytest.raises(ValueError, match="oversubscribed"):
            HuffmanCodec._build_luts([lengths], [1])
        lengths[:3] = [1, 2, 9]
        with pytest.raises(ValueError, match="exceeds max_len"):
            HuffmanCodec._build_luts([lengths], [8])
        for bad in (0, MAX_CODE_LENGTH + 1):
            with pytest.raises(ValueError, match="max_len"):
                HuffmanCodec._build_luts([lengths], [bad])

    def test_bit_windows_all_matches_peek_bits(self):
        stream = np.random.default_rng(2).integers(0, 256, 97).astype(np.uint8)
        for width in (1, 9, 16):
            got = bit_windows_all(stream, width)
            assert got.size == 8 * (stream.size + 1)
            expect = peek_bits(stream, np.arange(got.size), width)
            assert np.array_equal(got, expect.astype(np.int64))
        assert bit_windows_all(np.empty(0, np.uint8), 5).tolist() == [0] * 8
        with pytest.raises(ValueError):
            bit_windows_all(stream, 0)


class TestSharedCodeLengths:
    def test_lengths_reuse_is_byte_identical(self):
        data = make_data("zero_heavy", 6048)
        freqs = np.bincount(data, minlength=256)
        lengths = build_code_lengths(freqs)
        codec = HuffmanCodec()
        assert codec.encode(data, freqs=freqs, lengths=lengths) \
            == codec.encode(data)
        assert huffman.estimate_huffman_ratio(
            data, freqs=freqs, lengths=lengths
        ) == huffman.estimate_huffman_ratio(data)

    @pytest.fixture()
    def constructions(self, monkeypatch):
        """Every ``build_code_lengths`` call the selector causes."""
        calls = []
        real = huffman.build_code_lengths

        def counting(freqs, *args, **kwargs):
            calls.append(1)
            return real(freqs, *args, **kwargs)

        monkeypatch.setattr(huffman, "build_code_lengths", counting)
        monkeypatch.setattr(hybrid, "build_code_lengths", counting)
        return calls

    def test_selector_builds_each_code_once(self, constructions):
        data = make_data("zero_heavy", 6048)
        method, payload = hybrid._select_and_encode(
            data, hybrid.HybridConfig()
        )
        assert method == "huffman" and len(constructions) == 1
        assert payload == HuffmanCodec().encode(data)

    def test_selector_builds_no_code_for_incompressible_group(
        self, constructions
    ):
        """A 16^3 tile's mantissa-tail group (1792 uniform-random bytes)
        is ruled out by its histogram: no code is built to store it
        ``direct``."""
        data = np.random.default_rng(7).integers(0, 256, 1792).astype(np.uint8)
        method, payload = hybrid._select_and_encode(
            data, hybrid.HybridConfig()
        )
        assert method == "direct" and constructions == []
        assert payload == hybrid.direct_encode(data)

    def test_bad_lengths_rejected(self):
        data = make_data("two", 100)
        good = build_code_lengths(np.bincount(data, minlength=256))
        codec = HuffmanCodec()
        missing = good.copy()
        missing[3] = 0  # symbol 3 occurs but has no code
        extra = good.copy()
        extra[7] = 1  # three 1-bit codes, and symbol 7 never occurs
        too_long = good.copy()
        too_long[3] = MAX_CODE_LENGTH + 1
        for bad in (missing, extra, too_long, good[:100],
                    good.astype(np.float64)):
            with pytest.raises(ValueError):
                codec.encode(data, lengths=bad)
        kraft = np.zeros(256, dtype=np.uint8)
        kraft[:3] = 1
        with pytest.raises(ValueError, match="Kraft"):
            codec.encode(np.array([0, 1, 2], dtype=np.uint8), lengths=kraft)


class TestZeroCopyPayloads:
    def test_memoryview_payload_from_group_bytes(self):
        planes = [make_data("zero_heavy", 448, seed=s) for s in range(4)]
        (group,) = compress_planes(planes)
        assert group.method == "huffman"
        buf = bytearray(b"\x00" * 3) + bytearray(group.to_bytes())
        loaded = CompressedGroup.from_bytes(memoryview(buf)[3:])
        assert isinstance(loaded.payload, memoryview)
        codec = SpyCodec()
        fast = codec.decode(loaded.payload)
        assert codec.regimes == ["walk"]
        assert np.array_equal(fast, np.concatenate(planes))
        assert np.array_equal(fast, decode_reference(loaded.payload))
        out = hybrid.decompress_groups([loaded])
        assert all(np.array_equal(a, b) for a, b in zip(out, planes))


class TestCorruption:
    """Both regimes: ``n`` bytes or ``ValueError``, inside the deadline."""

    @staticmethod
    def stream(per_round: int, monkeypatch):
        monkeypatch.setattr(huffman, "SHORT_STREAM_BYTES_PER_ROUND", per_round)
        codec = HuffmanCodec(chunk_symbols=64)
        data = make_data("zero_heavy", 300)
        return codec, bytearray(codec.encode(data)), data.size

    @pytest.mark.parametrize("per_round", [1 << 30, 0],
                             ids=["walk", "lockstep"])
    def test_every_truncation_length(self, per_round, monkeypatch):
        codec, blob, n = self.stream(per_round, monkeypatch)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                within_deadline(codec.decode, bytes(blob[:cut]))

    @pytest.mark.parametrize("per_round", [1 << 30, 0],
                             ids=["walk", "lockstep"])
    @pytest.mark.parametrize(
        "region", ["head", "lengths", "chunk_count", "offsets", "payload"]
    )
    def test_seeded_bit_flips(self, region, per_round, monkeypatch):
        codec, blob, n = self.stream(per_round, monkeypatch)
        n_chunks = -(-n // 64)
        regions = {
            "head": (4, 17),  # n, chunk_symbols, max_len (not the magic)
            "lengths": (17, 273),
            "chunk_count": (273, 277),
            "offsets": (277, 277 + 4 * (n_chunks + 1)),
            "payload": (277 + 4 * (n_chunks + 1), len(blob)),
        }
        bounds = regions[region]
        rng = np.random.default_rng(
            2 * list(regions).index(region) + (per_round > 0)
        )
        for _ in range(150):
            bad = bytearray(blob)
            for _ in range(int(rng.integers(1, 4))):
                byte = int(rng.integers(*bounds))
                bad[byte] ^= 1 << int(rng.integers(0, 8))
            claimed = struct.unpack_from("<Q", bad, 4)[0]
            assert_bytes_or_value_error(codec, bytes(bad), claimed)

    def test_symbol_count_beyond_payload_bits_rejected(self):
        codec = HuffmanCodec()
        blob = bytearray(codec.encode(make_data("single", 800)))
        struct.pack_into("<Q", blob, 4, 801)  # 100 payload bytes = 800 bits
        with pytest.raises(ValueError, match="truncated"):
            codec.decode(bytes(blob))

    def test_group_size_check_catches_wrong_symbol_count(self):
        planes = [make_data("zero_heavy", 448, seed=s) for s in range(4)]
        (group,) = compress_planes(planes)
        bad = bytearray(group.payload)
        struct.pack_into("<Q", bad, 4, 1791)
        group.payload = bytes(bad)
        with pytest.raises(ValueError, match="decoded 1791 bytes"):
            hybrid.decompress_groups([group])


class TestEndToEnd:
    def test_tiled_roi_staircase_identical_under_reference_decoder(
        self, monkeypatch
    ):
        # The decoder is swapped in this process, so every engine must
        # decode here even when the suite runs under --backend processes.
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        field = gen.gaussian_random_field((32, 32, 16), -2.0, seed=4,
                                          dtype=np.float32)
        store = MemoryStore()
        store_tiled_field(
            store, TiledRefactorer((16, 16, 16)).refactor(field, name="rho")
        )
        region = (slice(4, 28), slice(0, 20), slice(None))
        tolerances = [1e-1, 1e-2, 1e-3, 1e-4]

        def staircase():
            recon = TiledReconstructor(open_tiled_field(store, "rho"))
            return [recon.reconstruct(tolerance=t, relative=True,
                                      region=region) for t in tolerances]

        # The seam is the batch decoder: a batch read hands all of its
        # Huffman streams to one call, so both sides record the stream
        # lengths of every call.
        fast_calls, ref_calls = [], []
        codec = HuffmanCodec()

        def fast(blobs):
            fast_calls.append([len(blob) for blob in blobs])
            return codec.decode_many(blobs)

        def reference(blobs):
            ref_calls.append([len(blob) for blob in blobs])
            return [decode_reference(blob) for blob in blobs]

        monkeypatch.setitem(hybrid._DECODERS, "huffman", fast)
        got = staircase()
        monkeypatch.setitem(hybrid._DECODERS, "huffman", reference)
        expect = staircase()
        assert fast_calls and fast_calls == ref_calls
        assert max(map(len, fast_calls)) > 1  # tiles share one call
        for (data, bound), (ref_data, ref_bound) in zip(got, expect):
            assert data.tobytes() == ref_data.tobytes()
            assert bound == ref_bound
