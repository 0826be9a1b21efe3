"""Vectorized variable-length bit packing and bit-window reads.

These are the NumPy counterparts of the bit-fiddling inner loops of GPU
entropy coders: :func:`pack_sorted_canonical_bits` merges all symbols'
codes into 64-bit stream words in one vectorized pass (the
chunk-parallel word-merge of GPU Huffman encoders), and
:func:`sliding_windows_u64` exposes a 64-bit window at every byte, so
one gather reads fixed-width windows at many bit cursors — the
primitive that lets many chunks decode in lockstep.
:func:`bit_windows_all` is the dense counterpart: the window at *every*
bit position of a short stream in one broadcast shift, which is what
lets a decoder trade per-round call overhead for a per-bit-position
table.

The packer's word-packed layout: bit position ``p`` lives in 64-bit lane
``p >> 6``. A code ending at in-lane bit offset ``e = (p & 63) + len``
contributes ``code << (64 - e)`` to its lane when it fits (``e <= 64``),
else it splits into ``code >> (e - 64)`` for the lane and
``code << (128 - e)`` for the next one. Per-lane contributions are
OR-merged with one ``np.bitwise_or.reduceat`` over the lane-change
boundaries; since disjoint codes can cross any given lane boundary at
most once, the spill contributions have *unique* target lanes and
scatter directly. The seed per-bit formulation (one output element per
code *bit*) and a per-cursor window read are the test oracles in
``tests/oracles/huffman_seed.py``.

Stream bit order is MSB-first: bit position ``p`` lives in byte ``p >> 3``
at in-byte position ``7 - (p & 7)``.
"""

from __future__ import annotations

import sys

import numpy as np

#: A bit window is read from a big-endian uint64, so width + in-byte
#: shift <= 64.
MAX_PEEK_WIDTH = 56

#: Native-endian window entries need a swap to read MSB-first on
#: little-endian hosts; big-endian hosts read them MSB-first already.
NEEDS_BYTESWAP = sys.byteorder == "little"


def pack_sorted_canonical_bits(
    codes: np.ndarray, lengths: np.ndarray, positions: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Scatter variable-length codes into a packed MSB-first bitstream.

    ``codes[i]`` (its low ``lengths[i]`` bits, MSB emitted first) is
    written starting at bit ``positions[i]``; returns the packed uint8
    buffer of ``ceil(total_bits / 8)`` bytes. Nothing is validated:
    callers (the Huffman encoder) guarantee that ``codes`` are uint64
    holding only their low ``lengths`` bits (canonical codes are, and so
    are the encoder's words of up to four merged codes), ``lengths`` are
    integers in [1, 64], ``positions`` are nondecreasing int64 with
    disjoint code bits inside ``[0, total_bits)``. A position
    past the last lane still faults (NumPy bounds-checks the lane
    scatter). The kernel shifts ``codes`` and rebases ``positions`` in
    place — they are the encoder's packing-only temporaries, and
    stream-sized copies of them are the dominant cost here — so callers
    that keep either array pass a copy.
    """
    n_bytes_out = -(-int(total_bits) // 8)
    lanes = np.zeros(-(-n_bytes_out // 8), dtype=np.uint64)
    if codes.size:
        lane = positions >> 6
        off_end = np.bitwise_and(positions, 63, out=positions)
        off_end += lengths  # in-lane end offset, [1, 127]
        spill = np.flatnonzero(off_end > 64)
        if spill.size:
            # A lane boundary is a single bit position, so at most one
            # code crosses it: spill targets are unique and scatter
            # directly.
            c_s = codes[spill]
            e_s = off_end[spill]
            lanes[lane[spill] + 1] |= c_s << (128 - e_s).astype(np.uint64)
        left = np.subtract(64, off_end, out=off_end)
        np.maximum(left, 0, out=left)
        vals = np.left_shift(codes, left.view(np.uint64), out=codes)
        if spill.size:
            vals[spill] = c_s >> (e_s - 64).astype(np.uint64)
        starts = np.concatenate(
            ([0], np.flatnonzero(lane[1:] != lane[:-1]) + 1)
        )
        lanes[lane[starts]] |= np.bitwise_or.reduceat(vals, starts)
    if NEEDS_BYTESWAP:
        lanes.byteswap(inplace=True)
    return lanes.view(np.uint8)[:n_bytes_out]


def sliding_windows_u64(stream: np.ndarray, extra: int = 0) -> np.ndarray:
    """Every 8-byte MSB-first window of *stream* as one strided gather.

    Returns a read-only uint64 array ``w`` of ``stream.size + extra + 1``
    entries where ``w[i]`` is bytes ``i … i+7`` of the zero-padded
    stream interpreted big-endian — i.e. bit ``p`` of the stream is bit
    ``63 - (p - 8*i)`` of ``w[i]`` for any ``i <= p//8``. ``extra``
    extends the valid window range past the stream end (all-zero
    windows) so cursors that legitimately run past ragged tails need no
    clamping. Built as a byte-stride
    :func:`numpy.lib.stride_tricks.as_strided` view over one padded
    copy, so materializing a window for every cursor is a single
    fancy-index gather instead of eight byte gathers. Entries are read
    native-endian; callers byteswap gathered slices on little-endian
    hosts (big-endian hosts read MSB-first natively).
    """
    if extra < 0:
        raise ValueError("extra must be >= 0")
    stream = np.ascontiguousarray(stream, dtype=np.uint8)
    pad_len = stream.size + extra + 8
    pad_len += (-pad_len) % 8  # uint64-viewable length
    padded = np.zeros(pad_len, dtype=np.uint8)
    padded[: stream.size] = stream
    windows = np.lib.stride_tricks.as_strided(
        padded.view(np.uint64),
        shape=(stream.size + extra + 1,),
        strides=(1,),
        writeable=False,
    )
    return windows


def bit_windows_all(
    stream: np.ndarray, width: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The ``width``-bit MSB-first window at *every* bit position.

    Returns a writable ``int64`` array ``v`` of ``8 * (stream.size + 1)``
    entries where ``v[p]`` is bits ``p … p+width-1`` of the zero-padded
    stream — the per-cursor window read of the test oracle ``peek_bits``
    (``tests/oracles/huffman_seed.py``) at ``arange(8*(size+1))``,
    computed as one broadcast shift + mask over the per-byte 64-bit
    windows instead of one gather per position. The extra byte of
    positions past the stream end reads zero padding. Costs 8 bytes per
    *bit* of input, so it is for short streams only; callers reuse the
    returned buffer as scratch. ``out``, a contiguous ``int64`` array of at least that
    many entries, receives the windows in its leading entries (a caller
    decoding many streams reuses one buffer instead of faulting in a
    fresh one each time); the result is then a view of it.
    """
    if not 1 <= width <= MAX_PEEK_WIDTH:
        raise ValueError(f"width must be in [1, {MAX_PEEK_WIDTH}]")
    stream = np.asarray(stream, dtype=np.uint8)
    windows = sliding_windows_u64(stream)[: stream.size + 1].copy()
    if NEEDS_BYTESWAP:
        windows.byteswap(inplace=True)
    size = 8 * (stream.size + 1)
    vals = (np.empty(size, dtype=np.uint64) if out is None
            else out[:size].view(np.uint64)).reshape(-1, 8)
    shifts = np.arange(64 - width, 56 - width, -1, dtype=np.uint64)
    np.right_shift(windows[:, None], shifts, out=vals)
    np.bitwise_and(vals, np.uint64((1 << width) - 1), out=vals)
    return vals.reshape(-1).view(np.int64)
