"""The seed Huffman kernels, the oracles of :mod:`repro.lossless`.

The library packs codes a 64-bit lane at a time, builds code lengths
with two queues, decodes by pointer jumping or a one-gather lockstep
loop, and reads every bit window of a short stream in one broadcast
shift. This module keeps the formulations they replaced, on the same
stream format, for the byte-identity tests and as the baselines
``benchmarks/bench_hotpaths.py`` times; the timed ones are the seed
bodies unchanged, so its speedups keep the same denominator:

* :func:`build_code_lengths_reference` — a ``heapq`` of ``(freq,
  tiebreak, node)``, sharing the library's ``_limit_lengths``;
* :func:`pack_varlen_bits_reference` — one scattered element per bit;
* :func:`encode_reference` — the library encoder's framing packed by
  :func:`pack_varlen_bits_reference`;
* :func:`decode_reference` — lockstep with eight byte gathers a step,
  over :func:`build_lut_reference`'s per-symbol slice fills;
* :func:`peek_bits` — eight byte gathers per cursor, the oracle of
  :func:`~repro.lossless.bitio.bit_windows_all`.

Import it with ``tests`` on ``sys.path`` (pytest puts it there)::

    from oracles.huffman_seed import decode_reference, encode_reference
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from repro.lossless.bitio import MAX_PEEK_WIDTH
from repro.lossless.huffman import (
    _HEADER_FMT,
    _MAGIC,
    DEFAULT_CHUNK_SYMBOLS,
    MAX_CODE_LENGTH,
    HuffmanCodec,
    _check_offsets_u32,
    _limit_lengths,
    build_code_lengths,
    canonical_codes,
)


def build_code_lengths_reference(
    freqs: np.ndarray, max_length: int = MAX_CODE_LENGTH
) -> np.ndarray:
    """Huffman code lengths per symbol from a heap of merged nodes."""
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1 or freqs.size > 256:
        raise ValueError("freqs must be 1-D with at most 256 symbols")
    if freqs.size and int(freqs.min()) < 0:
        raise ValueError("frequencies must be nonnegative")
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    present = np.flatnonzero(freqs)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    heap = [(int(freqs[s]), int(s), int(i)) for i, s in enumerate(present)]
    heapq.heapify(heap)
    parent: list[int] = [-1] * present.size
    counter = present.size
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        parent.append(-1)
        parent[n1] = parent[n2] = counter
        heapq.heappush(heap, (f1 + f2, 256 + counter, counter))
        counter += 1
    depths = np.zeros(present.size, dtype=np.int64)
    for leaf in range(present.size):
        node, d = leaf, 0
        while parent[node] != -1:
            node = parent[node]
            d += 1
        depths[leaf] = d
    depths = _limit_lengths(depths, np.asarray(freqs[present]), max_length)
    lengths[present] = depths.astype(np.uint8)
    return lengths


def pack_varlen_bits_reference(
    codes: np.ndarray, lengths: np.ndarray, positions: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Write the low ``lengths[i]`` bits of ``codes[i]``, MSB first, at
    bit ``positions[i]`` of a ``ceil(total_bits / 8)``-byte stream."""
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    if not (codes.shape == lengths.shape == positions.shape):
        raise ValueError("codes, lengths, positions must align")
    if lengths.size and int(lengths.min()) < 0:
        raise ValueError("lengths must be nonnegative")
    n_bits_out = int(total_bits)
    bits = np.zeros(-(-n_bits_out // 8) * 8, dtype=np.uint8)
    if codes.size:
        reps = np.repeat(np.arange(codes.size), lengths)
        # j-th bit of symbol i (MSB first) = (code >> (len-1-j)) & 1
        offset_in_code = (np.arange(reps.size)
                          - np.repeat(np.cumsum(lengths) - lengths, lengths))
        shift = (lengths[reps] - 1 - offset_in_code).astype(np.uint64)
        bitvals = ((codes[reps] >> shift) & np.uint64(1)).astype(np.uint8)
        target = positions[reps] + offset_in_code
        if target.size and int(target.max()) >= n_bits_out:
            raise ValueError("code bits exceed total_bits")
        bits[target] = bitvals
    return np.packbits(bits)[: -(-n_bits_out // 8)]


def peek_bits(
    stream: np.ndarray, bit_positions: np.ndarray, width: int
) -> np.ndarray:
    """``width`` bits (MSB first) at each cursor of the zero-padded
    stream, from eight byte gathers per cursor."""
    if not 1 <= width <= MAX_PEEK_WIDTH:
        raise ValueError(f"width must be in [1, {MAX_PEEK_WIDTH}]")
    stream = np.asarray(stream, dtype=np.uint8)
    pos = np.asarray(bit_positions, dtype=np.int64)
    if pos.size and int(pos.min()) < 0:
        raise ValueError("bit positions must be nonnegative")
    padded = np.zeros(stream.size + 8, dtype=np.uint8)
    padded[: stream.size] = stream
    byte_idx = np.minimum(pos >> 3, stream.size)
    window = np.zeros(pos.shape, dtype=np.uint64)
    for k in range(8):
        window |= padded[byte_idx + k].astype(np.uint64) \
            << np.uint64(8 * (7 - k))
    shift = np.uint64(64 - width) - (pos & 7).astype(np.uint64)
    return (window >> shift) & np.uint64((1 << width) - 1)


def encode_reference(
    data: np.ndarray | bytes, chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS
) -> bytes:
    """The chunked stream of *data*, every chunk byte-aligned."""
    data = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
        data, (bytes, bytearray)) else np.ascontiguousarray(data, np.uint8)
    n = data.size
    lengths_table = build_code_lengths(np.bincount(data, minlength=256))
    codes_table = canonical_codes(lengths_table)
    header_head = struct.pack(_HEADER_FMT, _MAGIC, n, chunk_symbols,
                              int(lengths_table.max()) if n else 0)
    if n == 0:
        return header_head + lengths_table.tobytes() + struct.pack("<I", 0)
    fused_table = (lengths_table.astype(np.int64) << 32) \
        | codes_table.astype(np.int64)
    sym_fused = fused_table[data]
    sym_lengths = sym_fused >> 32
    sym_codes = (sym_fused & 0xFFFFFFFF).view(np.uint64)
    n_chunks = -(-n // chunk_symbols)
    starts = np.arange(n_chunks) * chunk_symbols
    chunk_bytes = (np.add.reduceat(sym_lengths, starts) + 7) >> 3
    offsets = np.zeros(n_chunks + 1, dtype=np.int64)
    np.cumsum(chunk_bytes, out=offsets[1:])
    _check_offsets_u32(offsets)
    prefix = np.empty(n, dtype=np.int64)
    prefix[0] = 0
    np.cumsum(sym_lengths[:-1], out=prefix[1:])
    counts = np.diff(np.append(starts, n))
    # A symbol's position: its in-chunk bit prefix rebased to the
    # chunk's byte offset.
    positions = np.add(
        prefix, np.repeat(offsets[:-1] * 8 - prefix[starts], counts),
        out=prefix)
    payload = pack_varlen_bits_reference(
        sym_codes, sym_lengths, positions, int(offsets[-1] * 8))
    return (header_head + lengths_table.tobytes()
            + struct.pack("<I", n_chunks)
            + offsets.astype(np.uint32).tobytes() + payload.tobytes())


def build_lut_reference(
    lengths_table: np.ndarray, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Symbol and code length of every ``max_len``-bit window; windows
    no code owns (a one-symbol code's tail) read length 1."""
    if max_len < 1 or max_len > MAX_CODE_LENGTH:
        raise ValueError(f"corrupt stream: max_len={max_len}")
    codes_table = canonical_codes(lengths_table)
    size = 1 << max_len
    lut_sym = np.zeros(size, dtype=np.uint8)
    lut_len = np.ones(size, dtype=np.int64)
    for sym in np.flatnonzero(lengths_table):
        length = int(lengths_table[sym])
        base = int(codes_table[sym]) << (max_len - length)
        lut_sym[base : base + (1 << (max_len - length))] = sym
        lut_len[base : base + (1 << (max_len - length))] = length
    return lut_sym, lut_len


def decode_reference(blob: bytes) -> np.ndarray:
    """Lockstep decode of a chunked stream: every chunk reads one code
    per step from a window of eight byte gathers."""
    parsed = HuffmanCodec()._parse_stream(blob)
    n, chunk, max_len, lengths_table, n_chunks, offsets, payload = parsed
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    lut_sym, lut_len = build_lut_reference(lengths_table, max_len)
    cursors = offsets[:-1] * 8
    out = np.empty((n_chunks, chunk), dtype=np.uint8)
    padded = np.zeros(payload.size + 8, dtype=np.uint8)
    padded[: payload.size] = payload
    shift_base = np.uint64(64 - max_len)
    mask = np.uint64((1 << max_len) - 1)
    for step in range(min(chunk, n)):
        byte_idx = np.minimum(cursors >> 3, payload.size)
        window = np.zeros(n_chunks, dtype=np.uint64)
        for k in range(8):
            window |= padded[byte_idx + k].astype(np.uint64) \
                << np.uint64(8 * (7 - k))
        vals = (window >> (shift_base - (cursors & 7).astype(np.uint64))) \
            & mask
        out[:, step] = lut_sym[vals]
        cursors = cursors + lut_len[vals]
    return out.reshape(-1)[:n]
