"""Vectorized variable-length bit packing and random-access bit peeking.

These are the NumPy counterparts of the bit-fiddling inner loops of GPU
entropy coders: :func:`pack_varlen_bits` merges all symbols' codes into
64-bit stream words in one vectorized pass (the chunk-parallel word-merge
of GPU Huffman encoders), and :func:`peek_bits` gathers fixed-width
windows at arbitrary (vectorized) bit cursors — the primitive that lets
many chunks decode in lockstep. :func:`bit_windows_all` is the dense
counterpart: the window at *every* bit position of a short stream in one
broadcast shift, which is what lets a decoder trade per-round call
overhead for a per-bit-position table.

The packer's word-packed layout: bit position ``p`` lives in 64-bit lane
``p >> 6``. A code ending at in-lane bit offset ``e = (p & 63) + len``
contributes ``code << (64 - e)`` to its lane when it fits (``e <= 64``),
else it splits into ``code >> (e - 64)`` for the lane and
``code << (128 - e)`` for the next one. Per-lane contributions are
OR-merged with one ``np.bitwise_or.reduceat`` over the lane-change
boundaries; since disjoint codes can cross any given lane boundary at
most once, the spill contributions have *unique* target lanes and
scatter directly. The seed per-bit formulation (one output element per
code *bit*) is retained as :func:`pack_varlen_bits_reference` for
equivalence tests and the ``bench_hotpaths`` baseline.

Stream bit order is MSB-first: bit position ``p`` lives in byte ``p >> 3``
at in-byte position ``7 - (p & 7)``.
"""

from __future__ import annotations

import sys

import numpy as np

#: peek window is a big-endian uint64, so width + in-byte shift <= 64.
MAX_PEEK_WIDTH = 56

#: Native-endian window entries need a swap to read MSB-first on
#: little-endian hosts; big-endian hosts read them MSB-first already.
NEEDS_BYTESWAP = sys.byteorder == "little"


def _merge_codes_into_lanes(
    codes: np.ndarray, lengths: np.ndarray, positions: np.ndarray,
    lanes: np.ndarray, consume: bool = False,
) -> None:
    """OR all codes into the 64-bit *lanes* array (trusted inner kernel).

    Preconditions (validated by :func:`pack_varlen_bits`, guaranteed by
    construction in :meth:`HuffmanCodec.encode`): ``codes`` hold only
    their low ``lengths`` bits, ``lengths`` are integers in [1, 64],
    ``positions`` are nondecreasing int64 with disjoint in-range bit
    targets. With ``consume=True`` the kernel shifts ``codes`` and
    rebases ``positions`` in place instead of allocating copies — the
    encoder's per-call temporaries are the dominant cost at this point,
    every element array here is O(stream) bytes.
    """
    lane = positions >> 6
    if consume:
        off_end = np.bitwise_and(positions, 63, out=positions)
    else:
        off_end = positions & 63
    off_end += lengths  # in-lane end offset, [1, 127]
    spill = np.flatnonzero(off_end > 64)
    if spill.size:
        # A lane boundary is a single bit position, so at most one code
        # crosses it: spill targets are unique and scatter directly.
        c_s = codes[spill]
        e_s = off_end[spill]
        lanes[lane[spill] + 1] |= c_s << (128 - e_s).astype(np.uint64)
    left = np.subtract(64, off_end, out=off_end if consume else None)
    np.maximum(left, 0, out=left)
    if consume:
        vals = np.left_shift(codes, left.view(np.uint64), out=codes)
    else:
        vals = codes << left.view(np.uint64)
    if spill.size:
        vals[spill] = c_s >> (e_s - 64).astype(np.uint64)
    starts = np.concatenate(
        ([0], np.flatnonzero(lane[1:] != lane[:-1]) + 1)
    )
    lanes[lane[starts]] |= np.bitwise_or.reduceat(vals, starts)


def _lanes_to_stream(lanes: np.ndarray, n_bytes_out: int) -> np.ndarray:
    """Native 64-bit lanes -> MSB-first uint8 stream of *n_bytes_out*."""
    if NEEDS_BYTESWAP:
        lanes.byteswap(inplace=True)
    return lanes.view(np.uint8)[:n_bytes_out]


def pack_sorted_canonical_bits(
    codes: np.ndarray, lengths: np.ndarray, positions: np.ndarray,
    total_bits: int, consume: bool = False,
) -> np.ndarray:
    """Trusted fast path of :func:`pack_varlen_bits` — no validation.

    Callers (the Huffman encoder) guarantee: ``codes`` are uint64 holding
    only their low ``lengths`` bits (canonical codes are), ``lengths``
    are integers in [1, 64], ``positions`` are nondecreasing int64 with
    all code bits inside ``[0, total_bits)``. Out-of-range positions
    still fault loudly (NumPy bounds-checks the lane scatter) but skip
    the descriptive :class:`ValueError` of the public wrapper.
    ``consume=True`` additionally lets the kernel clobber ``codes`` and
    ``positions`` instead of allocating stream-sized copies.
    """
    n_bits_out = int(total_bits)
    n_bytes_out = -(-n_bits_out // 8)
    lanes = np.zeros(-(-n_bytes_out // 8), dtype=np.uint64)
    if codes.size:
        _merge_codes_into_lanes(codes, lengths, positions, lanes,
                                consume=consume)
    return _lanes_to_stream(lanes, n_bytes_out)


def pack_varlen_bits(
    codes: np.ndarray, lengths: np.ndarray, positions: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Scatter variable-length codes into a packed MSB-first bitstream.

    ``codes[i]`` (its low ``lengths[i]`` bits, MSB emitted first) is
    written starting at bit ``positions[i]``. Caller guarantees the
    target ranges are disjoint (any order). Returns the packed uint8
    buffer of ``ceil(total_bits / 8)`` bytes. Byte-identical to
    :func:`pack_varlen_bits_reference`, but word-packed: two lane-aligned
    64-bit contributions per symbol instead of one output element per
    code *bit*.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    if not (codes.shape == lengths.shape == positions.shape):
        raise ValueError("codes, lengths, positions must align")
    if lengths.size and int(lengths.min()) < 0:
        raise ValueError("lengths must be nonnegative")
    if lengths.size and int(lengths.max()) > 64:
        raise ValueError("lengths must be <= 64 (codes are uint64)")
    n_bits_out = int(total_bits)
    n_bytes_out = -(-n_bits_out // 8)
    lanes = np.zeros(-(-n_bytes_out // 8), dtype=np.uint64)
    if codes.size:
        keep = lengths > 0
        if not keep.all():  # zero-length symbols contribute no bits
            codes, lengths, positions = (
                codes[keep], lengths[keep], positions[keep]
            )
    if codes.size:
        if int(positions.min()) < 0:
            raise ValueError("bit positions must be nonnegative")
        if int((positions + lengths).max()) > n_bits_out:
            raise ValueError("code bits exceed total_bits")
        if np.any(positions[1:] < positions[:-1]):
            order = np.argsort(positions, kind="stable")
            codes, lengths, positions = (
                codes[order], lengths[order], positions[order]
            )
        # Mask to the low `length` bits; `(2^(l-1) - 1)*2 + 1 = 2^l - 1`
        # stays inside uint64 for l = 64 (a plain `1 << l` would not).
        one = np.uint64(1)
        l_u = lengths.astype(np.uint64)
        codes = codes & (
            ((one << (l_u - one)) - one) * np.uint64(2) + one
        )
        _merge_codes_into_lanes(codes, lengths, positions, lanes)
    return _lanes_to_stream(lanes, n_bytes_out)


def pack_varlen_bits_reference(
    codes: np.ndarray, lengths: np.ndarray, positions: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Seed per-bit packer: one scattered output element per code bit.

    Retained for equivalence tests and the ``bench_hotpaths`` baseline;
    production callers use :func:`pack_varlen_bits`. Allocates several
    O(total_bits) int64 temporaries, which is exactly what the
    word-packed fast path avoids.
    """
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
        offset_in_code = (
            np.arange(reps.size)
            - np.repeat(np.cumsum(lengths) - lengths, lengths)
        )
        shift = (lengths[reps] - 1 - offset_in_code).astype(np.uint64)
        bitvals = ((codes[reps] >> shift) & np.uint64(1)).astype(np.uint8)
        target = positions[reps] + offset_in_code
        if target.size and int(target.max()) >= n_bits_out:
            raise ValueError("code bits exceed total_bits")
        bits[target] = bitvals
    return np.packbits(bits)[: -(-n_bits_out // 8)]


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
    stream — ``peek_bits(stream, arange(8*(size+1)), width)`` computed
    as one broadcast shift + mask over the per-byte 64-bit windows
    instead of one gather per position. The extra byte of positions past
    the stream end reads zero padding. Costs 8 bytes per *bit* of input,
    so it is for short streams only; callers reuse the returned buffer
    as scratch. ``out``, a contiguous ``int64`` array of at least that
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


def peek_bits(
    stream: np.ndarray, bit_positions: np.ndarray, width: int
) -> np.ndarray:
    """Read ``width`` bits (MSB-first) at each cursor, vectorized.

    Cursors at or beyond the stream end read zeros (the stream is
    virtually zero-padded), which lets lockstep chunk decoding run
    uniformly past ragged chunk tails. One 64-bit strided gather per
    cursor (see :func:`sliding_windows_u64`), not eight byte gathers.
    """
    if not 1 <= width <= MAX_PEEK_WIDTH:
        raise ValueError(f"width must be in [1, {MAX_PEEK_WIDTH}]")
    stream = np.asarray(stream, dtype=np.uint8)
    pos = np.asarray(bit_positions, dtype=np.int64)
    if pos.size and int(pos.min()) < 0:
        raise ValueError("bit positions must be nonnegative")
    windows = sliding_windows_u64(stream)
    byte_idx = np.minimum(pos >> 3, stream.size)  # clamp fully-past reads
    shift = (pos & 7).astype(np.uint64)
    window = windows[byte_idx]
    if NEEDS_BYTESWAP:
        window.byteswap(inplace=True)
    mask = np.uint64((1 << width) - 1)
    return (window >> (np.uint64(64 - width) - shift)) & mask
