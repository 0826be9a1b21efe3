"""The one-shot bit-plane decoder, the resumable decoder's oracle.

The library decodes through one body: a zero
:class:`~repro.bitplane.encoding.PartialDecodeState`, then
``apply_planes_many`` (one 8×8-tile transpose pass per byte column),
then ``finalize_many``; ``decode_bitplanes`` is its one-call. This
module keeps the from-scratch decoder it replaced, in its per-plane
form: one unpack and shift per plane; for sign-magnitude, the centered
fixed-point conversion in its seed form (select, add, negate); for
negabinary, each digit weighed by its power of −2; and for the ``warp``
layout, a scatter through the tile permutation. It shares no inject,
finalize or un-permute code with the library, so tests compare the two
byte for byte, and ``benchmarks/bench_hotpaths.py`` times
:func:`inject_planes_reference` as the seed inject.

Import it with the ``tests`` directory on ``sys.path`` (pytest puts it
there for files under ``tests/``)::

    from oracles.bitplane_decode import decode_reference
"""

from __future__ import annotations

import numpy as np

from repro.bitplane import register_block
from repro.bitplane.align import AlignedFixedPoint, scale_pow2
from repro.bitplane.encoding import BitplaneStream


def inject_planes_reference(
    planes: list[np.ndarray],
    num_elements: int,
    num_bitplanes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Signs and magnitudes of a sign plane plus MSB-first magnitude
    planes, one plane at a time; missing trailing planes are zero."""
    signs = np.zeros(num_elements, dtype=np.uint8)
    mags = np.zeros(num_elements, dtype=np.uint64)
    if not planes:
        return signs, mags
    signs = np.unpackbits(
        planes[0], count=num_elements, bitorder="little"
    ).astype(np.uint8)
    for i, plane in enumerate(planes[1:]):
        bit_index = num_bitplanes - 1 - i
        if bit_index < 0:
            raise ValueError("more magnitude planes than num_bitplanes")
        bits = np.unpackbits(plane, count=num_elements, bitorder="little")
        mags |= bits.astype(np.uint64) << np.uint64(bit_index)
    return signs, mags


def from_fixed_point(
    aligned: AlignedFixedPoint, kept_planes: int | None = None
) -> np.ndarray:
    """Floats of (possibly truncated) fixed-point values.

    ``kept_planes`` counts magnitude bitplanes from the most significant;
    ``None`` keeps all. Truncated nonzero values are centered by half the
    dropped range, halving the expected error while preserving the
    ``2^(e-k)`` worst-case bound.
    """
    B = aligned.num_bitplanes
    k = B if kept_planes is None else int(kept_planes)
    if not 0 <= k <= B:
        raise ValueError(f"kept_planes must be in [0, {B}], got {kept_planes}")
    mags = aligned.magnitudes
    if k < B:
        drop = B - k
        truncated = mags & np.uint64(~np.uint64((1 << drop) - 1))
        center = np.uint64(1 << (drop - 1))
        mags = np.where(truncated > 0, truncated + center, truncated)
    values = scale_pow2(mags.astype(np.float64), aligned.exponent - B)
    values[aligned.signs.astype(bool)] *= -1.0
    return values.astype(aligned.dtype, copy=False)


def negabinary_values_reference(
    planes: list[np.ndarray], num_elements: int, width: int
) -> np.ndarray:
    """Signed integers of the leading *planes* of *width*-digit
    negabinary codes: plane ``i`` holds the digit of weight
    ``(-2) ** (width - 1 - i)``; missing trailing digits are zero."""
    if len(planes) > width:
        raise ValueError("more planes than code width")
    values = np.zeros(num_elements, dtype=np.int64)
    for i, plane in enumerate(planes):
        bits = np.unpackbits(plane, count=num_elements, bitorder="little")
        values += bits.astype(np.int64) * (-2) ** (width - 1 - i)
    return values


def decode_reference(
    stream: BitplaneStream, num_planes: int | None = None
) -> np.ndarray:
    """The leading *num_planes* planes of *stream* (all when ``None``)
    as floats of the stream's dtype, in natural element order."""
    k = stream.num_planes if num_planes is None else int(num_planes)
    if not 0 <= k <= stream.num_planes:
        raise ValueError(f"num_planes must be in [0, {stream.num_planes}]")
    n, bits = stream.num_elements, stream.num_bitplanes
    if stream.signed_encoding == "negabinary":
        signed = negabinary_values_reference(stream.planes[:k], n, bits + 2)
        values = scale_pow2(signed.astype(np.float64),
                            stream.exponent - bits).astype(stream.dtype)
    else:
        signs, mags = inject_planes_reference(stream.planes[:k], n, bits)
        values = from_fixed_point(
            AlignedFixedPoint(signs, mags, stream.exponent, bits,
                              stream.max_abs, stream.dtype),
            kept_planes=max(0, k - 1),
        )
    if stream.layout == "warp":
        # Stored position j holds element perm[j].
        natural = np.empty_like(values)
        natural[register_block.tile_permutation(
            n, bits, stream.warp_size)] = values
        values = natural
    return values
