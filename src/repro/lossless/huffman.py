"""Canonical Huffman coding with a GPU-style chunked stream layout.

Built from scratch (tree construction, length limiting, canonical code
assignment) over the byte alphabet. The stream is divided into fixed-size
*symbol chunks*, each starting at a byte boundary with its offset in the
header — exactly how GPU Huffman decoders (e.g. Tian et al., IPDPS'21)
expose block-level parallelism. Large streams decode together: every
chunk of every such stream of a call is a lane of one lockstep walked by
vectorized gathers, the NumPy analogue of one thread block per chunk.
Each gather reads a *single* unaligned 64-bit window per lane (a
byte-stride ``as_strided`` view of the zero-padded payload, byteswapped
to MSB-first) instead of eight byte gathers, and every per-round
temporary is allocated once outside the loop and reused via ``out=``
kernels. Lockstep costs a fixed number of rounds (the chunk size)
whatever its streams hold, so streams with few payload bytes per round
instead decode by pointer jumping over a next-codeword table of every
payload bit — the same format, ~70 NumPy calls instead of ~1500 — and
many short streams share one walk (:meth:`HuffmanCodec.decode_many`,
which states the rule). The seed kernels these replaced — the
eight-gather lockstep decoder, the per-bit packer and the heap code
construction — are the test oracles in ``tests/oracles/huffman_seed.py``.

Code lengths are limited to :data:`MAX_CODE_LENGTH` so the decoder can
use a flat prefix LUT of ``2^maxlen`` entries.
"""

from __future__ import annotations

import heapq
import math
import struct
from itertools import accumulate

import numpy as np

from repro.lossless.bitio import (
    NEEDS_BYTESWAP,
    bit_windows_all,
    pack_sorted_canonical_bits,
    sliding_windows_u64,
)

MAX_CODE_LENGTH = 16
#: Codes one encode word may merge, most first: the encoder takes the
#: largest that divides the chunk size. ``64 // MAX_CODE_LENGTH`` codes
#: fill at most one 64-bit word.
_WORD_CODES = (64 // MAX_CODE_LENGTH, 2, 1)
#: Symbols per chunk, the lockstep's rounds. The lockstep costs rounds x
#: a NumPy call's overhead whatever its lanes hold, so 256-symbol chunks
#: (a quarter of the rounds of 1024, four times the lanes) decode a
#: read's long streams ~2.3x faster; each chunk offset costs 4 bytes, so
#: streams grow by ~2% (the ``chunk_rows`` of ``huffman_decode_sweep`` in
#: ``benchmarks/bench_hotpaths.py``). Streams of any chunk size decode.
DEFAULT_CHUNK_SYMBOLS = 256

#: Regime rule of :meth:`HuffmanCodec.decode_many`: streams with at most
#: this many payload bytes per lockstep round decode by pointer jumping
#: (8 KiB of payload at the default chunks). Set from the
#: ``huffman_decode_sweep`` of ``benchmarks/bench_hotpaths.py`` (the walk
#: still wins ~1.5x at the threshold; it is kept this low to cap the
#: transient per-bit-position tables at ~7 MB).
SHORT_STREAM_BYTES_PER_ROUND = 32
#: Symbols each lane walks between entry points (a power of two: the
#: jump table is built by repeated squaring, one gather over every bit
#: position per doubling). At 256-symbol chunks 8 walked symbols leave
#: 32 entry points, whose gathers run over the lanes only: set from the
#: ``walk_rows`` of ``huffman_batch_sweep`` in
#: ``benchmarks/bench_hotpaths.py`` (8 beat 32 by ~10% at 64 streams)
#: and a replay of ``roi_latency``'s ``decode_many`` calls (0.83-0.90x
#: of 32's wall).
_WALK_SYMBOLS = 8
#: Payload cap of one walk slab: width-sorted walk-regime streams share
#: one walk while their payloads sum to at most this many bytes. Set
#: from the ``cap_rows`` of ``huffman_batch_sweep`` in
#: ``benchmarks/bench_hotpaths.py``: 8 and 16 KiB near-tie, larger slabs
#: are slower (their ~210 bytes of tables per payload byte leave the
#: cache), and the smaller cap halves a batch's transient tables.
SLAB_PAYLOAD_BYTES = 8 * 1024

_MAGIC = b"HUF1"
_HEADER_FMT = "<4sQIB"


def build_code_lengths(
    freqs: np.ndarray, max_length: int = MAX_CODE_LENGTH
) -> np.ndarray:
    """Huffman code lengths per symbol (0 for absent symbols).

    Sort + two-queue merge, then :func:`_limit_lengths` to honor
    *max_length*. Leaves are ordered once by ``(frequency, symbol)``;
    Huffman creates merged nodes in non-decreasing weight, so they sit
    in a FIFO behind the leaves and the two lightest nodes are always at
    one of the two queue heads — no heap. A leaf wins a weight tie
    against a merged node and merged nodes tie in creation order, which
    is exactly the ``(freq, tiebreak)`` order of the seed construction's
    heap (the test oracle in ``tests/oracles/huffman_seed.py``): the
    same pairs merge, so the lengths are identical, not merely optimal.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1 or freqs.size > 256:
        raise ValueError("freqs must be 1-D with at most 256 symbols")
    if freqs.size and int(freqs.min()) < 0:
        raise ValueError("frequencies must be nonnegative")
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    present = np.flatnonzero(freqs)
    n = present.size
    if n == 0:
        return lengths
    if n == 1:
        lengths[present[0]] = 1
        return lengths

    # `present` ascends, so a stable sort by weight breaks ties by symbol.
    weights = freqs[present]
    order = np.argsort(weights, kind="stable")
    # Two queues of Python ints (256 counts of 2**62 cannot wrap), each
    # ending in a sentinel: the sorted leaves, and the merged nodes in
    # creation order — merge k is the k-th merged node, still `inf`
    # while it is being formed.
    leaf_weight = [*weights[order].tolist(), math.inf]
    merged_weight = [math.inf] * n
    leaf_parent = [0] * n
    merged_parent = [0] * (n - 1)
    leaf = merged = 0
    for k in range(n - 1):
        # Take the lighter queue head, twice (a leaf wins a tie).
        if leaf_weight[leaf] <= merged_weight[merged]:
            total = leaf_weight[leaf]
            leaf_parent[leaf] = k
            leaf += 1
        else:
            total = merged_weight[merged]
            merged_parent[merged] = k
            merged += 1
        if leaf_weight[leaf] <= merged_weight[merged]:
            total += leaf_weight[leaf]
            leaf_parent[leaf] = k
            leaf += 1
        else:
            total += merged_weight[merged]
            merged_parent[merged] = k
            merged += 1
        merged_weight[k] = total
    # A parent is always created after its children: one reverse sweep
    # from the root (merge n-2) fills every depth.
    merged_depth = [0] * (n - 1)
    for k in range(n - 3, -1, -1):
        merged_depth[k] = merged_depth[merged_parent[k]] + 1

    depths = np.empty(n, dtype=np.int64)
    depths[order] = [merged_depth[k] + 1 for k in leaf_parent]
    depths = _limit_lengths(depths, weights, max_length)
    lengths[present] = depths.astype(np.uint8)
    return lengths


def _limit_lengths(
    depths: np.ndarray, freqs: np.ndarray, max_length: int
) -> np.ndarray:
    """Clamp code lengths to *max_length* while keeping Kraft ≤ 1.

    Clamping can only oversubscribe the Kraft sum: the deepest sub-limit
    codes are lengthened until it fits again, then — lengthening may
    overshoot — the most frequent codes are shortened while slack
    remains. A tree no deeper than *max_length* is exactly full after
    the clamp and is returned as is (with no slack the shortening pass
    could change nothing), which is every bit-plane group in practice.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    depths = np.minimum(depths, max_length).astype(np.int64)
    if depths.size > (1 << max_length):
        raise ValueError("alphabet too large for max_length")
    unit = 1 << max_length  # Kraft capacity in 2^-max_length units
    used = int(np.sum(1 << (max_length - depths)))
    if used == unit:
        return depths
    if used > unit:
        # Lengthen the deepest sub-limit code each round (costs least
        # entropy), lowest symbol index first on ties. One precomputed
        # depth-bucketed order replaces the O(n) flatnonzero/argmax scan
        # the seed ran on every iteration: `buckets[d]` is a min-heap of
        # sub-limit symbol indices at depth d, and a lengthened symbol
        # just migrates to the next bucket.
        buckets: list[list[int]] = [[] for _ in range(max_length)]
        for idx in np.argsort(depths, kind="stable"):
            d = int(depths[idx])
            if d < max_length:
                buckets[d].append(int(idx))
        for b in buckets:
            heapq.heapify(b)
        deepest = max_length - 1
        while used > unit:
            while not buckets[deepest]:
                deepest -= 1
            pick = heapq.heappop(buckets[deepest])
            used -= 1 << (max_length - depths[pick] - 1)
            depths[pick] += 1
            if depths[pick] < max_length:
                heapq.heappush(buckets[int(depths[pick])], pick)
                deepest = int(depths[pick])
    # Tighten: shorten the most frequent codes while slack allows.
    for idx in np.argsort(-freqs):
        while depths[idx] > 1:
            gain = 1 << (max_length - depths[idx])
            if used + gain > unit:
                break
            used += gain
            depths[idx] -= 1
    return depths


def _canonical_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Present symbols in canonical (length, symbol) order + their lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    syms = np.flatnonzero(lengths)
    order = np.argsort(lengths[syms], kind="stable")  # symbol = tiebreak
    syms = syms[order]
    return syms, lengths[syms]


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values per symbol from code lengths.

    In canonical order each code owns ``2**(max_len - len)`` consecutive
    ``max_len``-bit prefixes, so a code is the exclusive prefix sum of
    those spans shifted back down to its own length — one ``cumsum``, no
    per-symbol loop.
    """
    syms, lens = _canonical_order(lengths)
    codes = np.zeros(np.size(lengths), dtype=np.uint64)
    if syms.size:
        shift = int(lens[-1]) - lens
        spans = np.left_shift(1, shift)
        codes[syms] = (np.cumsum(spans) - spans) >> shift
    return codes


def _check_code_lengths(lengths: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Validate caller-supplied code lengths against the histogram."""
    lengths = np.asarray(lengths)
    if lengths.shape != (256,) or lengths.dtype.kind not in "iu":
        raise ValueError("lengths must be a 256-entry integer table")
    if not np.array_equal(lengths > 0, freqs > 0):
        raise ValueError("lengths do not cover the symbols freqs counts")
    if int(lengths.max()) > MAX_CODE_LENGTH:
        raise ValueError("code length exceeds MAX_CODE_LENGTH")
    present = lengths[lengths > 0].astype(np.int64)
    if int(np.left_shift(1, MAX_CODE_LENGTH - present).sum()) \
            > 1 << MAX_CODE_LENGTH:
        raise ValueError("lengths violate the Kraft inequality")
    return lengths.astype(np.uint8)


def _check_offsets_u32(offsets: np.ndarray) -> None:
    """Reject payload offsets the uint32 header field cannot represent.

    The stream header stores per-chunk byte offsets as uint32; streams
    whose payload exceeds ``2**32 - 1`` bytes must fail loudly instead
    of silently wrapping into a decodable-but-wrong header.
    """
    if offsets.size and int(offsets[-1]) > 0xFFFFFFFF:
        raise ValueError(
            f"payload of {int(offsets[-1])} bytes exceeds the uint32 "
            "chunk-offset range; split the input before encoding"
        )


def _slabs(walks: list[tuple]) -> list[list[tuple]]:
    """Consecutive ``(index, stream)`` runs that share one walk.

    A slab's payloads sum to at most :data:`SLAB_PAYLOAD_BYTES` and its
    lanes (chunks x the slab's most rounds) to at most 16 per byte of
    that cap, the most one stream's lanes can reach per payload byte
    (every symbol costs a bit, and a chunk's lanes overrun its symbols
    by less than one chunk). Same-chunk streams always meet the second
    rule; it keeps odd mixes from padding many short chunks out to one
    long one. A stream past either cap is a slab alone.
    """
    slabs: list[list[tuple]] = []
    payload = chunks = rounds = 0
    for item in walks:
        _, (_, _, _, item_rounds, offsets, item_payload) = item
        payload += item_payload.size
        chunks += offsets.size - 1
        rounds = max(rounds, item_rounds)
        if not slabs or payload > SLAB_PAYLOAD_BYTES \
                or rounds * chunks > 16 * SLAB_PAYLOAD_BYTES:
            slabs.append([])
            payload, chunks, rounds = (
                item_payload.size, offsets.size - 1, item_rounds)
        slabs[-1].append(item)
    return slabs


def _lockstep_runs(longs: list[tuple]) -> list[list[tuple]]:
    """``(index, stream)`` runs that share one lockstep, most rounds first.

    Every lane of a run walks the run's most rounds, so a run takes the
    next stream only while that padded work (most rounds x lanes) stays
    within twice its streams' own (rounds x chunks, summed): a lane of
    fewer rounds may read padding, but no mix of chunk sizes can grow a
    run's output past twice its streams' symbols. Streams of equal
    rounds — every long stream one writer made — always share one run.
    """
    runs: list[list[tuple]] = []
    most = lanes = own = 0
    for item in sorted(longs, key=lambda item: -item[1][3]):
        _, (_, _, _, rounds, offsets, _) = item
        chunks = offsets.size - 1
        if runs and most * (lanes + chunks) <= 2 * (own + rounds * chunks):
            runs[-1].append(item)
            lanes += chunks
            own += rounds * chunks
        else:
            runs.append([item])
            most, lanes, own = rounds, chunks, rounds * chunks
    return runs


class HuffmanCodec:
    """Byte-alphabet canonical Huffman codec with chunked streams."""

    def __init__(self, chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS) -> None:
        # The stream header stores the chunk size as a uint32.
        if not 1 <= chunk_symbols <= 0xFFFFFFFF:
            raise ValueError("chunk_symbols must be in [1, 2**32 - 1]")
        self.chunk_symbols = int(chunk_symbols)

    # -- encode ---------------------------------------------------------
    def encode(
        self, data: np.ndarray | bytes, freqs: np.ndarray | None = None,
        lengths: np.ndarray | None = None,
    ) -> bytes:
        """Word-packed chunked encode.

        G consecutive canonical codes of a chunk first merge into one
        word, ``c0 << (l1 + ... + l_{G-1}) | ... | c_{G-1}`` of length
        ``l0 + ... + l_{G-1}``, the register-level codeword merge of GPU
        Huffman encoders. G is the largest of ``64 // MAX_CODE_LENGTH``
        (4), 2 and 1 that divides the chunk size, so a word fits 64 bits
        and never crosses a chunk. Each word's stream position is its
        exclusive in-chunk bit prefix plus its chunk's byte offset,
        broadcast over a ``(chunks, words per chunk)`` view. The words
        are then shifted into their 64-bit stream lanes and OR-merged in
        one pass (:func:`repro.lossless.bitio.pack_sorted_canonical_bits`)
        instead of scattering individual bits. Streams do not depend on
        G: they are byte-identical to packing one code at a time.

        ``freqs``, when given, must be ``np.bincount(data, minlength=256)``
        (callers that already histogrammed the buffer, e.g. the hybrid
        selector, pass it through to skip the second scan). A histogram
        whose total disagrees with ``data.size`` is rejected; a wrong
        distribution with the right total would silently produce a
        corrupt stream, so only trusted callers should pass it.

        ``lengths``, when given, must be ``build_code_lengths(freqs)``
        (the hybrid selector already built them for its ratio estimate);
        lengths that do not cover exactly the symbols ``freqs`` counts,
        or that no prefix code can have, are rejected.
        """
        data = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else np.ascontiguousarray(data, dtype=np.uint8)
        n = data.size
        if freqs is None:
            freqs = np.bincount(data, minlength=256)
        else:
            freqs = np.asarray(freqs, dtype=np.int64)
            if freqs.shape != (256,):
                raise ValueError("freqs must be a 256-entry histogram")
            if int(freqs.sum()) != n:
                raise ValueError(
                    "freqs does not histogram data: totals disagree"
                )
        if lengths is None:
            lengths_table = build_code_lengths(freqs)
        else:
            lengths_table = _check_code_lengths(lengths, freqs)
        codes_table = canonical_codes(lengths_table)
        header_head = struct.pack(
            _HEADER_FMT, _MAGIC, n, self.chunk_symbols,
            int(lengths_table.max()) if n else 0,
        )
        if n == 0:
            return header_head + lengths_table.tobytes() + struct.pack("<I", 0)

        chunk = self.chunk_symbols
        group = next(g for g in _WORD_CODES if chunk % g == 0)
        n_words = -(-n // group)
        # The length|code LUT (codes fit 16 bits) gathered into G
        # contiguous columns, one per place in a word; only the stream's
        # last partial word is padded, with zero-length codes.
        fused_table = (lengths_table.astype(np.uint64) << np.uint64(32)) \
            | codes_table
        cols = np.empty((group, n_words), dtype=np.uint64)
        for j in range(group):
            column = data[j::group]
            fused_table.take(column, out=cols[j, :column.size], mode="clip")
            if column.size < n_words:
                cols[j, -1] = 0
        # Horner merge: code = (..(c0 << l1 | c1) << l2 ..) | c_{G-1},
        # length = sum of the lengths. The positions buffer is the
        # scratch until the cumsums below fill it.
        word_lengths = np.right_shift(cols[0], 32)
        word_codes = np.bitwise_and(cols[0], 0xFFFF, out=cols[0])
        positions = np.empty(n_words, dtype=np.int64)
        step = positions.view(np.uint64)
        for j in range(1, group):
            np.right_shift(cols[j], 32, out=step)
            np.left_shift(word_codes, step, out=word_codes)
            np.add(word_lengths, step, out=word_lengths)
            np.bitwise_and(cols[j], 0xFFFF, out=step)
            np.bitwise_or(word_codes, step, out=word_codes)
        word_lengths = word_lengths.view(np.int64)

        # Chunk payloads are byte-aligned: a word's stream position is
        # its exclusive in-chunk bit prefix plus its chunk's offset, one
        # cumsum over a (chunks, words per chunk) view of the full
        # chunks and one over the last partial chunk's words.
        per_chunk = chunk // group
        n_chunks = -(-n // chunk)
        full = n // chunk
        body = positions[:full * per_chunk].reshape(full, per_chunk)
        tail = positions[full * per_chunk:]
        np.cumsum(word_lengths[:full * per_chunk].reshape(full, per_chunk),
                  axis=1, out=body)
        np.cumsum(word_lengths[full * per_chunk:], out=tail)
        chunk_bits = np.concatenate((body[:, -1], tail[-1:]))
        offsets = np.zeros(n_chunks + 1, dtype=np.int64)
        np.cumsum((chunk_bits + 7) >> 3, out=offsets[1:])
        _check_offsets_u32(offsets)
        np.subtract(positions, word_lengths, out=positions)
        bases = offsets[:-1] * 8
        body += bases[:full, None]
        tail += bases[full:]
        # Every word holds a code of at least one bit, its codes are
        # masked to its length and positions are nondecreasing, so the
        # trusted packer applies; it consumes both temporaries.
        payload = pack_sorted_canonical_bits(
            word_codes, word_lengths, positions, int(offsets[-1] * 8))
        offsets32 = offsets.astype(np.uint32)
        return (
            header_head
            + lengths_table.tobytes()
            + struct.pack("<I", n_chunks)
            + offsets32.tobytes()
            + payload.tobytes()
        )

    # -- decode ---------------------------------------------------------
    def _parse_stream(self, blob: bytes):
        """Header + tables + payload view shared by both decode paths."""
        head_size = struct.calcsize(_HEADER_FMT)
        if len(blob) < head_size + 256 + 4:
            raise ValueError("truncated Huffman stream")
        magic, n, chunk, max_len = struct.unpack_from(_HEADER_FMT, blob, 0)
        if magic != _MAGIC:
            raise ValueError("not a Huffman stream")
        off = head_size
        lengths_table = np.frombuffer(blob, dtype=np.uint8,
                                      count=256, offset=off).copy()
        off += 256
        (n_chunks,) = struct.unpack_from("<I", blob, off)
        off += 4
        if n == 0:
            return n, chunk, max_len, lengths_table, 0, None, None
        if chunk < 1 or n_chunks != -(-n // chunk):
            raise ValueError("corrupt Huffman stream: chunk count mismatch")
        if len(blob) < off + 4 * (n_chunks + 1):
            raise ValueError("truncated Huffman stream")
        offsets = np.frombuffer(blob, dtype=np.uint32,
                                count=n_chunks + 1, offset=off).astype(np.int64)
        off += 4 * (n_chunks + 1)
        payload = np.frombuffer(blob, dtype=np.uint8, offset=off)
        if n_chunks and int(offsets.max()) > payload.size:
            # A consistent header's chunk offsets all land inside the
            # payload; catching truncation here keeps the decode loops
            # free of per-step bounds clamping.
            raise ValueError("truncated Huffman stream")
        if n > 8 * payload.size:
            # Every symbol costs at least one bit; without this a corrupt
            # symbol count would size the decode loops, not the payload.
            raise ValueError("truncated Huffman stream")
        return n, chunk, max_len, lengths_table, n_chunks, offsets, payload

    def decode(self, blob: bytes) -> np.ndarray:
        """Decode one stream: the one-stream call of :meth:`decode_many`."""
        return self.decode_many([blob])[0]

    def decode_many(self, blobs) -> list[np.ndarray]:
        """Chunk-parallel decode of many streams, one regime per stream.

        The lockstep (:meth:`_decode_long`) costs ``rounds = min(chunk,
        n)`` rounds of ~6 NumPy calls whatever its streams hold; the
        pointer-jumping walk (:meth:`_decode_short`) costs ~70 calls plus
        a table over every payload *bit*. The rule is fixed and reads
        header fields only: a stream takes the walk iff ``payload.size
        <= SHORT_STREAM_BYTES_PER_ROUND * rounds`` (8 KiB of payload at
        the default 256-symbol chunks — see the ``huffman_decode_sweep``
        rows of ``BENCH_hotpaths.json`` for the measured crossover).
        Each stream is parsed once. The lockstep streams decode
        together: every chunk of every one of them is a lane of one
        lockstep (a mix whose rounds differ is split where padding would
        more than double the work). The walk streams, sorted by
        ``max_len``, share one walk per *slab* of at most
        :data:`SLAB_PAYLOAD_BYTES` payload bytes (a larger stream is a
        slab alone), so the walk's ~70 calls are paid per slab, not per
        stream. Both regimes read the same stream format and are
        byte-identical on valid streams to the seed lockstep decoder,
        the test oracle in ``tests/oracles/huffman_seed.py``; a corrupt
        stream yields wrong bytes in its own output or ``ValueError``,
        never another exception, and never changes another stream's
        output.
        """
        parsed = [self._parse_stream(blob) for blob in blobs]
        out = [np.empty(0, dtype=np.uint8) for _ in blobs]
        walks: list[tuple] = []
        longs: list[tuple] = []
        for i, (n, chunk, max_len, lengths, _, offsets, payload) in \
                enumerate(parsed):
            if not n:
                continue
            rounds = min(chunk, n)
            stream = (n, lengths, max_len, rounds, offsets, payload)
            if payload.size <= SHORT_STREAM_BYTES_PER_ROUND * rounds:
                walks.append((i, stream))
            else:
                longs.append((i, stream))
        for run in _lockstep_runs(longs):
            decoded = self._decode_long([s for _, s in run])
            for (i, _), symbols in zip(run, decoded):
                out[i] = symbols
        luts = self._build_luts([s[1] for _, s in walks],
                                [s[2] for _, s in walks])
        walks = [(i, (n, lut16, *rest))
                 for (i, (n, _, *rest)), lut16 in zip(walks, luts)]
        slabs = [walks] if walks else []
        if len(walks) > 1:
            # Width-sorted, a slab's streams mostly share one window
            # width. The slabs' per-bit tables share one set of buffers,
            # the largest slab first so the rest fit: a fresh page costs
            # about as much as a pass over it.
            walks.sort(key=lambda walk: walk[1][2])
            slabs = sorted(_slabs(walks), reverse=True,
                           key=lambda slab: sum(s[5].size for _, s in slab))
        scratch: dict = {}
        for slab in slabs:
            decoded = self._decode_short([s for _, s in slab], scratch)
            for (i, _), symbols in zip(slab, decoded):
                out[i] = symbols
        return out

    @staticmethod
    def _decode_short(streams, scratch) -> list[np.ndarray]:
        """Pointer-jumping decode of a slab of streams, in one walk.

        *streams* are ``(n, lut16, max_len, rounds, offsets, payload)``;
        returns each stream's ``n`` symbols. The per-bit tables live in
        *scratch*, the call's buffers by name, made on first use; a
        stream past :data:`SLAB_PAYLOAD_BYTES` is a slab alone with
        nothing to share, and its tables are its own (kept, they would
        fragment the heap the smaller slabs then grow).

        The gap-array-free scheme of GPU Huffman decoders, applied where
        lanes are few. The payloads are concatenated and their windows
        read at the slab's widest ``max_len`` in one broadcast shift;
        each stream's span of bit positions then narrows its windows to
        its own width (if narrower) and gathers its own LUT. That decodes
        the codeword at *every* bit position, giving the next-codeword
        table ``nxt[p] = p + len(code at p)``; squaring it ``log2 walk``
        times (``jump = jump[jump]``) yields jump-by-``walk``-symbols,
        which turns each chunk's header offset into ``entries =
        ceil(rounds / walk)`` entry points with ``entries - 1`` gathers;
        ``walk - 1`` single-gather steps then advance every chunk lane of
        every stream at once and one final gather reads every symbol. A
        lane past its own chunk's symbols reads the next chunk's or
        stream's bits: those symbols are discarded, and what one
        stream's lanes read never reaches another stream's output.

        Every gather runs in ``mode="clip"``, which both skips NumPy's
        defensive copy of ``out`` and makes the last table slot a
        self-looping sentinel: lanes that run past a ragged tail (or a
        corrupt stream) park there and can never index out of range.
        Gathers call ``ndarray.take``: the ``np.take`` wrapper costs more
        (~1.5 µs a call) than a walk step's gather over a few lanes.
        """
        width = max(s[2] for s in streams)
        rounds = max(s[3] for s in streams)
        walk = min(_WALK_SYMBOLS, rounds)
        entries = -(-rounds // walk)
        bases = list(accumulate((s[5].size for s in streams), initial=0))
        size = 8 * (bases[-1] + 1)

        def table(name, dtype=np.int64):
            if bases[-1] > SLAB_PAYLOAD_BYTES:
                return np.empty(size, dtype=dtype)
            if name not in scratch or scratch[name].size < size:
                scratch[name] = np.empty(size, dtype=dtype)
            return scratch[name][:size]

        # The window buffer is dead after the LUT gathers: reuse it for
        # the table so only three position-sized arrays are ever live.
        payload = streams[0][5] if len(streams) == 1 else np.concatenate(
            [s[5] for s in streams])
        nxt = bit_windows_all(payload, width, out=table("nxt"))
        fused = table("fused", np.uint16)
        ends = [*bases[1:-1], bases[-1] + 1]
        for (_, lut16, max_len, *_), first, last in zip(streams, bases, ends):
            first, last = 8 * first, 8 * last
            windows = nxt[first:last]
            if max_len < width:
                np.right_shift(windows, width - max_len, out=windows)
            lut16.take(windows, out=fused[first:last], mode="clip")
        np.add(np.arange(nxt.size), fused >> 8, out=nxt)

        chunks = list(accumulate((s[4].size - 1 for s in streams), initial=0))
        pos = np.empty((walk, entries, chunks[-1]), dtype=np.int64)
        for s, base, first, last in zip(streams, bases, chunks, chunks[1:]):
            np.left_shift(s[4][:-1], 3, out=pos[0, 0, first:last])
            if base:
                pos[0, 0, first:last] += 8 * base
        if entries > 1:
            jump, spare = nxt, (table("jump"), table("spare"))
            for i in range(walk.bit_length() - 1):
                jump = jump.take(jump, out=spare[i & 1], mode="clip")
            for k in range(1, entries):
                jump.take(pos[0, k - 1], out=pos[0, k], mode="clip")
        lanes = pos.reshape(walk, -1)
        for s in range(1, walk):
            nxt.take(lanes[s - 1], out=lanes[s], mode="clip")
        symbols = fused.take(pos, mode="clip").astype(np.uint8)
        # (walk, entries, chunk) -> chunk-major symbol order.
        symbols = np.ascontiguousarray(symbols.transpose(2, 1, 0)).reshape(
            chunks[-1], entries * walk)
        return [symbols[first:last, :stream_rounds].reshape(-1)[:n]
                for (n, _, _, stream_rounds, _, _), first, last
                in zip(streams, chunks, chunks[1:])]

    @staticmethod
    def _decode_long(streams) -> list[np.ndarray]:
        """Lockstep decode of many streams at once: each one's ``n`` symbols.

        *streams* are ``(n, lengths, max_len, rounds, offsets,
        payload)``. Their fused LUTs are built at the widest ``max_len``
        (``W``) as the rows of one table. Every chunk of every stream is a
        lane (the per-thread-block loop of a GPU decoder), and all lanes
        run the most ``rounds`` of any stream: a lane reads its stream's
        row of the LUT through a table base, ``stream << W``, that one
        ``bitwise_or`` adds. The payloads are concatenated and padded by
        ``rounds x W`` bits, so a lane that runs past its own chunk's
        symbols (a ragged tail, a stream of fewer rounds, a corrupt
        stream) reads the next chunk's bits or zeros: those symbols are
        dropped, and what one stream's lanes read never reaches another
        stream's output.

        Each gather is one fancy-index read of an unaligned 64-bit
        window per lane from a byte-stride view of the padded payload
        (byteswapped per gather to MSB-first). A window starting at the
        cursor's byte holds ``1 + (57 - W)//W`` worst-case codes, so it
        is re-shifted to peel that many symbols, and more while the
        tightest lane still holds a full-length code. A symbol is five
        calls and the LUT gather (four for one stream, which needs no
        table base): the gather writes straight into row ``step`` of a
        ``(rounds, lanes)`` output, the lengths come from that row, and
        the cursors advance once per window, by what its peels consumed.
        One transpose at the end gives chunk-major order.
        """
        width = max(s[2] for s in streams)
        lut = HuffmanCodec._build_luts(
            [s[1] for s in streams], [s[2] for s in streams],
            width=width).reshape(-1)
        rounds = max(s[3] for s in streams)
        chunks = list(accumulate((s[4].size - 1 for s in streams), initial=0))
        bases = list(accumulate((s[5].size for s in streams), initial=0))
        lanes = chunks[-1]
        payload = streams[0][5] if len(streams) == 1 else np.concatenate(
            [s[5] for s in streams])
        # Pad so unclamped cursors (each advances <= W bits a round) always
        # have a full window to read. The windows stay a zero-copy
        # byte-strided view (materializing them would transiently cost ~8
        # bytes per payload byte).
        windows = sliding_windows_u64(
            payload, extra=((rounds * width + 7) >> 3) + 8)
        cursors = np.empty(lanes, dtype=np.int64)
        for s, base, first, last in zip(streams, bases, chunks, chunks[1:]):
            np.left_shift(s[4][:-1], 3, out=cursors[first:last])
            cursors[first:last] += 8 * base
        # A lane's row of the LUT; a single table needs no base.
        row_base = np.repeat(np.arange(len(streams), dtype=np.int64) << width,
                             np.diff(chunks)) if len(streams) > 1 else None

        # Signed lane state: a lane's shift may legitimately go negative
        # after its final symbol of a window (int64 makes that harmless);
        # a symbol is extracted only while every lane's shift is still
        # provably >= 0 at use time.
        per_gather = 1 + (64 - 7 - width) // width
        shift_base = np.int64(64 - width)
        mask = np.int64((1 << width) - 1)
        out16 = np.empty((rounds, lanes), dtype=np.uint16)
        byte_idx = np.empty(lanes, dtype=np.int64)
        start = np.empty(lanes, dtype=np.int64)
        shift = np.empty(lanes, dtype=np.int64)
        val = np.empty(lanes, dtype=np.int64)
        lens = np.empty(lanes, dtype=np.uint16)
        step = 0
        while step < rounds:
            np.right_shift(cursors, 3, out=byte_idx)
            # Fancy indexing, not take(out=): np.take's buffered path on
            # the byte-strided source is ~60x slower than this gather.
            # The int64 view makes the arithmetic shift below type-clean;
            # sign-extension only pollutes bits the mask discards.
            win = windows[byte_idx]
            if NEEDS_BYTESWAP:
                win.byteswap(inplace=True)  # MSB-first window values
            win = win.view(np.int64)
            np.bitwise_and(cursors, 7, out=start)
            np.subtract(shift_base, start, out=start)
            np.copyto(shift, start)
            peel = min(per_gather, rounds - step)
            while peel > 0:
                for _ in range(peel):
                    np.right_shift(win, shift, out=val)
                    np.bitwise_and(val, mask, out=val)
                    if row_base is not None:
                        np.bitwise_or(val, row_base, out=val)
                    row = out16[step]
                    # In range by construction (val < the LUT's size):
                    # "clip" skips np.take's buffered bounds checks.
                    lut.take(val, out=row, mode="clip")
                    np.right_shift(row, 8, out=lens)
                    np.subtract(shift, lens, out=shift, casting="unsafe")
                    step += 1
                if step >= rounds:
                    break
                # Short codes rarely exhaust the window in `per_gather`
                # worst-case peels: keep peeling from the same gather
                # while the tightest lane still has a full-length code
                # (min//W more subtractions provably stay valid).
                peel = min(int(shift.min()) // width + 1, rounds - step)
            np.subtract(start, shift, out=start)
            np.add(cursors, start, out=cursors)
        # Keep each symbol's low byte, (rounds, lanes) -> chunk-major.
        symbols = out16.T.astype(np.uint8, order="C")
        return [symbols[first:last, :stream_rounds].reshape(-1)[:n]
                for (n, _, _, stream_rounds, _, _), first, last
                in zip(streams, chunks, chunks[1:])]

    @staticmethod
    def _build_luts(lengths_tables, max_lens, width: int | None = None):
        """Fused prefix LUTs: any max_len-bit window -> ``len << 8 | sym``.

        Canonical codes tile the ``2**max_len`` prefixes in (length,
        symbol) order, each owning ``2**(max_len - len)`` consecutive
        entries, so every stream's table is one run of a single
        ``np.repeat`` over all streams' codes in (stream, length,
        symbol) order — one stable sort by (stream, length) of the
        present symbols. An incomplete code (a single-symbol stream)
        leaves the tail as length-1 entries so every window still
        advances the cursor. Returns one view per stream. With *width*
        (at least every ``max_len``) each table has ``2**width`` entries
        instead — a code owns ``2**(width - len)`` of them at any such
        width, so a ``width``-bit window decodes as its ``max_len``-bit
        prefix would — and the views are the rows of one ``(streams,
        2**width)`` array.
        """
        max_lens = [int(w) for w in max_lens]
        for w in max_lens:
            if not 1 <= w <= MAX_CODE_LENGTH:
                raise ValueError(f"corrupt stream: max_len={w}")
        if not max_lens:
            return []
        widths = max_lens if width is None else [width] * len(max_lens)
        many = len(widths) > 1
        lengths = np.concatenate(lengths_tables) if many else np.asarray(
            lengths_tables[0], dtype=np.uint8)
        flat = np.flatnonzero(lengths)  # (stream, symbol) order
        lens = lengths[flat].astype(np.int64)
        if many:  # the stream above the length: sorted, stream-major
            lens |= (flat >> 8) << 8
        order = lens.argsort(kind="stable")
        flat, lens = flat[order], lens[order] & 0xFF
        own = np.array(max_lens)[flat >> 8] if many else max_lens[:1]
        if (lens > own).any():
            raise ValueError("corrupt stream: code length exceeds max_len")
        table_width = np.array(widths)[flat >> 8] if many else widths[:1]
        spans = np.left_shift(1, table_width - lens)
        filled = np.repeat(((lens << 8) | (flat & 0xFF)).astype(np.uint16),
                           spans)
        tables = np.full(sum(1 << w for w in widths), 1 << 8, np.uint16)
        used = np.bincount(flat >> 8, spans, len(widths)).astype(
            np.int64).tolist() if many else [filled.size]
        luts = []
        for at, start, w, size in zip(
                accumulate((1 << w for w in widths), initial=0),
                accumulate(used, initial=0), widths, used):
            if size > 1 << w:
                raise ValueError("corrupt stream: oversubscribed code lengths")
            luts.append(tables[at:at + (1 << w)])
            luts[-1][:size] = filled[start:start + size]
        if width is not None:
            return tables.reshape(len(widths), 1 << width)
        return luts


_DEFAULT_CODEC = HuffmanCodec()


def huffman_encode(
    data: np.ndarray | bytes, freqs: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> bytes:
    """Encode bytes with the default chunked canonical Huffman codec.

    ``freqs``, when given, must be ``np.bincount(data, minlength=256)``
    and ``lengths`` must be ``build_code_lengths(freqs)``; they let
    callers that already histogrammed the buffer and built its code (the
    hybrid selector) skip the encoder's second scan and second tree.
    """
    return _DEFAULT_CODEC.encode(data, freqs=freqs, lengths=lengths)


def huffman_decode(blob: bytes) -> np.ndarray:
    """Decode a stream produced by :func:`huffman_encode`."""
    return _DEFAULT_CODEC.decode(blob)


def huffman_decode_many(blobs) -> list[np.ndarray]:
    """Decode many :func:`huffman_encode` streams in one call."""
    return _DEFAULT_CODEC.decode_many(blobs)


def _ratio_for_payload_bits(n: int, payload_bits: int) -> float:
    """Ratio of *n* input bytes to a stream holding *payload_bits* of codes."""
    n_chunks = -(-n // DEFAULT_CHUNK_SYMBOLS)
    header_bytes = struct.calcsize(_HEADER_FMT) + 256 + 4 * (n_chunks + 2)
    return n / (header_bytes + ((payload_bits + 7) >> 3) + n_chunks)


def estimate_huffman_ratio(
    data: np.ndarray, freqs: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> float:
    """Exact Huffman CR predictor (Section 5.2) — no encoding performed.

    The payload bits are exactly ``sum(freqs * lengths)`` and the header
    depends on the size alone (each chunk's byte padding is counted as
    a whole byte). It needs the code lengths: pass ``lengths =
    build_code_lengths(freqs)`` or they are built here, which is the
    expensive step — a caller that only needs to know whether the ratio
    clears a threshold asks :func:`huffman_ratio_upper_bound` first, as
    the hybrid selector does. Pass ``freqs = np.bincount(data,
    minlength=256)`` to reuse a histogram computed elsewhere (the
    selector shares one pass between the bound, this estimate and the
    eventual encode).
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.size == 0:
        return 1.0
    if freqs is None:
        freqs = np.bincount(data, minlength=256)
    if lengths is None:
        lengths = build_code_lengths(freqs)
    payload_bits = int(np.sum(freqs * lengths.astype(np.int64)))
    return _ratio_for_payload_bits(data.size, payload_bits)


def huffman_ratio_upper_bound(n: int, freqs: np.ndarray) -> float:
    """Upper bound on :func:`estimate_huffman_ratio` from the histogram alone.

    No prefix code — length-limited or not — spends fewer payload bits
    on *n* symbols with histogram *freqs* than their entropy ``n * H``
    (Shannon), nor fewer than one bit per symbol; the header does not
    depend on the code. So the ratio at ``max(n, n * H)`` payload bits
    is never below the exact estimate, and a group whose bound already
    fails a threshold needs no code built to be ruled out. The entropy
    term is shrunk by a relative 1e-9 (its terms are all positive, so
    rounding error is ~1e-15) so that floating point can only ever err
    toward building the code.
    """
    if n == 0:
        return 1.0
    counts = freqs[freqs > 0]
    entropy_bits = float(np.sum(counts * np.log2(n / counts)))
    return _ratio_for_payload_bits(
        n, max(n, int(entropy_bits * (1.0 - 1e-9)))
    )
