"""Single-pass vectorized bit-matrix transpose (the refactoring hot loop).

Bitplane extraction is a transpose of an ``(N, B)`` bit matrix: ``N``
fixed-point words of ``B`` bits become ``B`` packed planes of ``N`` bits.
The reference implementation walks the planes one by one — ``B`` full
shift/mask/pack sweeps over the 8-byte words (B ≈ 32–53 per level).
This module keeps the whole transpose inside one pass over the data by
splitting it at the byte boundary, so every plane only ever touches the
one byte column that contains its bit:

* forward (:func:`words_to_planes`) — view the uint64 words as their
  little-endian byte columns once, then produce plane ``b`` with a
  single uint8 mask of column ``b >> 3`` fed straight to ``packbits``
  (which treats any nonzero byte as a set bit, so no shift pass is
  needed). Each plane reads ``N`` bytes instead of ``8·N``.
* inverse (:func:`planes_to_word_rows`) — never unpacks to
  one-byte-per-bit at all: the packed planes of one byte column form
  ``ceil(N/8)`` 8×8-bit tiles, which are flipped in-register with the
  classic three-step masked-swap bit transpose (Hacker's Delight §7-3)
  on uint64 lanes and ORed directly into the words' byte columns, for
  K rows of uint32 or uint64 words at once. Planes not given leave
  their bits as they were, which is what progressive refinement
  requires.

Both directions are byte-identical to the per-plane reference (each
plane is ``ceil(N / 8)`` bytes packed with ``bitorder="little"``), which
is asserted property-style in ``tests/test_bitplane_transpose.py``.
"""

from __future__ import annotations

import sys

import numpy as np

#: Word width of the fixed-point magnitudes the codec transposes.
_WORD_BITS = 64
_WORD_BYTES = 8

#: The byte-column split and the 8×8-tile layout both map byte ``k`` of
#: a uint64 to bits ``[8k, 8k+8)`` — true only on little-endian hosts.
#: Callers (``bitplane.encoding``) fall back to the endian-neutral
#: per-plane reference kernels when this is False.
HOST_SUPPORTED = sys.byteorder == "little"


def _require_little_endian() -> None:
    if not HOST_SUPPORTED:
        raise RuntimeError(
            "the single-pass bit-matrix transpose requires a "
            "little-endian host; use the *_reference kernels in "
            "repro.bitplane.encoding on this platform"
        )

# Masks/shifts of the three masked-swap rounds that transpose an 8x8 bit
# tile held in a uint64 lane (row j = byte j, column s = bit s).
_T8_M1, _T8_S1 = np.uint64(0x00AA00AA00AA00AA), np.uint64(7)
_T8_M2, _T8_S2 = np.uint64(0x0000CCCC0000CCCC), np.uint64(14)
_T8_M3, _T8_S3 = np.uint64(0x00000000F0F0F0F0), np.uint64(28)


def _plane_nbytes(num_elements: int) -> int:
    return (num_elements + 7) >> 3


def _transpose_8x8_tiles_inplace(
    x: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """In-place masked-swap rounds of :func:`transpose_8x8_tiles`."""
    for mask, s in (
        (_T8_M1, _T8_S1), (_T8_M2, _T8_S2), (_T8_M3, _T8_S3)
    ):
        np.right_shift(x, s, out=scratch)
        np.bitwise_xor(scratch, x, out=scratch)
        np.bitwise_and(scratch, mask, out=scratch)
        np.bitwise_xor(x, scratch, out=x)
        np.left_shift(scratch, s, out=scratch)
        np.bitwise_xor(x, scratch, out=x)
    return x


def transpose_8x8_tiles(lanes: np.ndarray) -> np.ndarray:
    """Transpose the 8×8 bit matrix held in every uint64 lane.

    Lane layout: byte ``j`` is row ``j``, bit ``s`` (little order) is
    column ``s``; the result has byte ``s`` / bit ``j`` equal to the
    input's byte ``j`` / bit ``s``. Three masked swap rounds
    (exchange 2^k-sized sub-blocks across the diagonal), fully
    vectorized over the lanes.
    """
    x = np.array(lanes, dtype=np.uint64, copy=True)
    return _transpose_8x8_tiles_inplace(x, np.empty_like(x))


def words_to_planes(words: np.ndarray, width: int) -> list[np.ndarray]:
    """Transpose uint64 *words* into *width* packed bitplanes, MSB first.

    Plane ``i`` holds bit ``width - 1 - i`` of every word, packed
    little-endian-bit-first — exactly the layout of the per-plane
    reference extraction, at one byte-column read per plane.
    """
    _require_little_endian()
    if width < 1 or width > _WORD_BITS:
        raise ValueError(f"width must be in [1, {_WORD_BITS}], got {width}")
    words = np.ascontiguousarray(words, dtype=np.uint64)
    n = words.size
    if n == 0:
        return [np.zeros(0, dtype=np.uint8) for _ in range(width)]
    # Little-endian words: byte k of each word holds bits [8k, 8k+8).
    word_bytes = words.view(np.uint8).reshape(n, _WORD_BYTES)
    cols = [
        np.ascontiguousarray(word_bytes[:, k])
        for k in range((width + 7) >> 3)
    ]
    masked = np.empty(n, dtype=np.uint8)
    planes = []
    for b in range(width - 1, -1, -1):
        np.bitwise_and(cols[b >> 3], np.uint8(1 << (b & 7)), out=masked)
        # packbits maps any nonzero byte to a set bit: no shift needed.
        planes.append(np.packbits(masked, bitorder="little"))
    return planes


def planes_to_word_rows(
    rows: list[list[tuple[int, np.ndarray]]],
    num_elements: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """OR K rows of packed planes into K rows of unsigned words.

    ``rows[r]`` lists ``(bit, plane)`` pairs: the packed plane's bits
    are ORed onto that bit of row *r*'s words. *out* (updated in place,
    or fresh uint64 zeros) is a C-contiguous ``(K, num_elements)``
    array of uint32 or uint64 words, viewed by its itemsize; a bit must
    lie inside that width. The K rows' 8×8 tiles form one flat run: the
    planes sharing a byte column, of every row at once, are interleaved
    into tiles and flipped with :func:`transpose_8x8_tiles`, one pass
    per byte column. A row's last tile may overhang its words; the
    overhang holds only the planes' zero pad bits and is dropped.
    """
    _require_little_endian()
    nbytes = _plane_nbytes(num_elements)
    if out is None:
        out = np.zeros((len(rows), num_elements), dtype=np.uint64)
    word_bits = 8 * out.itemsize
    columns: dict[int, list] = {}
    for r, row in enumerate(rows):
        for bit, plane in row:
            if not 0 <= bit < word_bits:
                raise ValueError(f"bit {bit} outside a {word_bits}-bit word")
            data = np.frombuffer(plane, dtype=np.uint8) if isinstance(
                plane, (bytes, bytearray, memoryview)
            ) else np.ascontiguousarray(plane, dtype=np.uint8).reshape(-1)
            if data.size != nbytes:
                raise ValueError(
                    f"plane for bit {bit}: expected {nbytes} packed "
                    f"bytes, got {data.size}"
                )
            columns.setdefault(bit >> 3, []).append(
                (slice(r * nbytes, (r + 1) * nbytes), bit & 7, data))
    if not nbytes or not columns:
        return out
    word_bytes = out.view(np.uint8).reshape(len(rows), num_elements, -1)
    tiles = np.empty((len(rows) * nbytes, _WORD_BYTES), dtype=np.uint8)
    lanes = tiles.reshape(-1).view(np.uint64)
    scratch = np.empty_like(lanes)
    for k, members in columns.items():
        # Tile row j of byte column k carries bit position 8k + j; a
        # column every row fills with all eight planes needs no zeroing.
        if len(members) < _WORD_BYTES * len(rows):
            tiles[:] = 0
        for span, j, data in members:
            tiles[span, j] = data
        flipped = _transpose_8x8_tiles_inplace(lanes, scratch)
        word_bytes[:, :, k] |= flipped.view(np.uint8).reshape(
            len(rows), -1)[:, :num_elements]
    return out


def transpose_sign_magnitude(
    signs: np.ndarray, mags: np.ndarray, num_bitplanes: int
) -> list[np.ndarray]:
    """Sign plane + MSB-first magnitude planes in one vectorized pass."""
    planes = [np.packbits(np.ascontiguousarray(signs, dtype=np.uint8),
                          bitorder="little")]
    planes.extend(words_to_planes(mags, num_bitplanes))
    return planes
