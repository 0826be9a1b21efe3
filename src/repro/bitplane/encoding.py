"""Functional bitplane codec with pluggable parallelization designs.

The heavy lifting is a bit-matrix transpose: ``N`` fixed-point values of
``B`` bits become ``B`` packed bitplanes of ``N`` bits (plus one sign
plane, stored first). The transpose runs as a *single pass* over the
data through :mod:`repro.bitplane.transpose` — one ``unpackbits`` into
an ``(N, B)`` bit matrix, one transpose, one row-wise ``packbits`` —
instead of ``B`` separate shift/mask/pack sweeps (the ``*_reference``
functions, the route on big-endian hosts, where the single-pass
transpose does not apply). Designs differ in the *order* bits land in
the stream — ``natural`` element order for locality-block and
register-shuffle, warp-transposed tiles for register-block — and in
their simulated GPU cost (see :mod:`repro.gpu.costmodel`). Decoded
values are identical across designs (HP-MDR's portability property) and
byte-identical between the single-pass and per-plane transposes.

Decoding has one body, the resumable one: :func:`begin_decode_state`,
then :func:`apply_planes_many` ORs plane bits into integer words in
place, then :func:`finalize_many` turns them into floats in the
stream's stored order. :func:`decode_bitplanes` is its one-call for a
whole stream, in natural order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from repro.bitplane import negabinary, register_block, transpose
from repro.bitplane.align import align_to_fixed_point, plane_error_bound

#: The three parallelization designs of Section 4.
DESIGNS = ("locality_block", "register_shuffle", "register_block")

#: The four register-shuffle instruction variants of Section 4.2.
SHUFFLE_VARIANTS = ("ballot", "shift", "match_any", "reduce_add")

_NATURAL = "natural"
_WARP = "warp"

#: Element orders a stream's planes can be stored in.
LAYOUTS = (_NATURAL, _WARP)

#: Supported signed-value encodings (MDR offers both).
SIGNED_ENCODINGS = ("sign_magnitude", "negabinary")


@dataclass
class BitplaneStream:
    """An encoded set of bitplanes plus the metadata needed to decode.

    With the default ``sign_magnitude`` encoding, ``planes[0]`` is the
    sign plane and ``planes[1:]`` are magnitude planes from most to
    least significant; with ``negabinary`` all planes are base-(−2)
    digits (no sign plane, one extra digit). Both store
    ``num_bitplanes + 1`` planes of ``ceil(N / 8)`` packed bytes.
    """

    planes: list[np.ndarray]
    num_elements: int
    num_bitplanes: int
    exponent: int
    max_abs: float
    dtype: np.dtype
    design: str = "register_block"
    layout: str = _NATURAL
    warp_size: int = 32
    signed_encoding: str = "sign_magnitude"

    @property
    def num_planes(self) -> int:
        """Total stored planes."""
        return len(self.planes)

    def plane_bytes(self, count: int | None = None) -> int:
        """Total payload bytes of the leading *count* planes."""
        planes = self.planes if count is None else self.planes[:count]
        return int(sum(p.nbytes for p in planes))

    def error_bound(self, fetched_planes: int) -> float:
        """L∞ bound when only the first *fetched_planes* planes are used."""
        return stored_plane_error_bound(
            self.signed_encoding, self.exponent, self.num_bitplanes,
            fetched_planes, self.max_abs,
        )


def stored_plane_error_bound(
    signed_encoding: str, exponent: int, num_bitplanes: int,
    fetched_planes: int, max_abs: float,
) -> float:
    """L∞ bound of values decoded from the first *fetched_planes*
    stored planes of a stream with this metadata.

    Sign-magnitude stores the sign plane first, so it keeps one
    magnitude plane fewer than it fetched; negabinary keeps every
    fetched digit.
    """
    if signed_encoding == "negabinary":
        return negabinary.plane_error_bound_negabinary(
            exponent, num_bitplanes, int(fetched_planes), max_abs)
    return plane_error_bound(
        exponent, num_bitplanes, max(0, int(fetched_planes) - 1), max_abs)


# ---------------------------------------------------------------------
# Plane extraction on natural-order fixed-point values
# ---------------------------------------------------------------------
def extract_planes(
    signs: np.ndarray, mags: np.ndarray, num_bitplanes: int
) -> list[np.ndarray]:
    """Transpose sign+magnitude integers into packed bitplanes.

    Single-pass bit-matrix transpose (see
    :mod:`repro.bitplane.transpose`), most significant plane first;
    byte-identical to :func:`extract_planes_reference`, which runs
    instead on big-endian hosts.
    """
    if not transpose.HOST_SUPPORTED:
        return extract_planes_reference(signs, mags, num_bitplanes)
    return transpose.transpose_sign_magnitude(signs, mags, num_bitplanes)


def extract_planes_reference(
    signs: np.ndarray, mags: np.ndarray, num_bitplanes: int
) -> list[np.ndarray]:
    """Per-plane transpose: one shift/mask/pack pass per plane.

    The big-endian route of :func:`extract_planes` (the single-pass
    transpose needs ``transpose.HOST_SUPPORTED``), and the baseline
    ``bench_hotpaths`` times it against.
    """
    planes = [np.packbits(signs, bitorder="little")]
    for b in range(num_bitplanes - 1, -1, -1):
        bits = ((mags >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)
        planes.append(np.packbits(bits, bitorder="little"))
    return planes


# ---------------------------------------------------------------------
# Public codec entry points
# ---------------------------------------------------------------------
def extract_code_planes(codes: np.ndarray, width: int) -> list[np.ndarray]:
    """Transpose unsigned codes into *width* packed planes, MSB first."""
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    if not transpose.HOST_SUPPORTED:
        return extract_code_planes_reference(codes, width)
    return transpose.words_to_planes(codes, width)


def extract_code_planes_reference(
    codes: np.ndarray, width: int
) -> list[np.ndarray]:
    """Per-plane transpose of unsigned codes: the big-endian route of
    :func:`extract_code_planes`."""
    planes = []
    for b in range(width - 1, -1, -1):
        bits = ((codes >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)
        planes.append(np.packbits(bits, bitorder="little"))
    return planes


def inject_code_planes_reference(
    planes: list[np.ndarray], num_elements: int, width: int
) -> np.ndarray:
    """Per-plane inverse of :func:`extract_code_planes_reference`: the
    big-endian route of :func:`apply_planes_many`, which injects each
    state's planes as one row of codes this wide."""
    if len(planes) > width:
        raise ValueError("more planes than code width")
    codes = np.zeros(num_elements, dtype=np.uint64)
    for i, plane in enumerate(planes):
        bits = np.unpackbits(plane, count=num_elements, bitorder="little")
        codes |= bits.astype(np.uint64) << np.uint64(width - 1 - i)
    return codes


def encode_bitplanes(
    data: np.ndarray,
    num_bitplanes: int = 32,
    design: str = "register_block",
    warp_size: int = 32,
    signed_encoding: str = "sign_magnitude",
) -> BitplaneStream:
    """Encode a float array into a :class:`BitplaneStream`.

    ``design`` selects the parallelization strategy being modeled; the
    register-block design permutes elements into its coalesced
    warp-transposed order before extraction (Section 4.3), the others
    keep natural order. ``signed_encoding`` picks sign+magnitude planes
    (default) or the negabinary representation.
    """
    if design not in DESIGNS:
        raise ValueError(f"design must be one of {DESIGNS}, got {design!r}")
    if signed_encoding not in SIGNED_ENCODINGS:
        raise ValueError(
            f"signed_encoding must be one of {SIGNED_ENCODINGS}, "
            f"got {signed_encoding!r}"
        )
    layout = _NATURAL
    if design == "register_block":
        # Permute the (narrow) float input instead of the sign +
        # magnitude words: fixed-point conversion is elementwise apart
        # from the global max reduction, so the planes are identical
        # and the gather moves far fewer bytes.
        flat = np.ascontiguousarray(data).reshape(-1)
        perm = register_block.tile_permutation(
            flat.size, num_bitplanes, warp_size
        )
        data = flat[perm]
        layout = _WARP
    aligned = align_to_fixed_point(data, num_bitplanes)
    signs, mags = aligned.signs, aligned.magnitudes
    if signed_encoding == "negabinary":
        signed = np.where(signs.astype(bool), -mags.astype(np.int64),
                          mags.astype(np.int64))
        codes = negabinary.to_negabinary(signed)
        planes = extract_code_planes(
            codes, negabinary.negabinary_width(num_bitplanes))
    else:
        planes = extract_planes(signs, mags, num_bitplanes)
    return BitplaneStream(
        planes=planes,
        num_elements=aligned.num_elements,
        num_bitplanes=num_bitplanes,
        exponent=aligned.exponent,
        max_abs=aligned.max_abs,
        dtype=aligned.dtype,
        design=design,
        layout=layout,
        warp_size=warp_size,
        signed_encoding=signed_encoding,
    )


def decode_bitplanes(
    stream: BitplaneStream, num_planes: int | None = None
) -> np.ndarray:
    """Decode the leading *num_planes* planes back to float values.

    ``num_planes`` counts stored planes from the most significant;
    ``None`` uses all available. Works for streams produced by any
    design (portability). The one-call of the resumable decoder:
    :func:`finalize_decode` of a fresh state given the planes.
    """
    total = stream.num_planes
    k = total if num_planes is None else int(num_planes)
    if not 0 <= k <= total:
        raise ValueError(f"num_planes must be in [0, {total}], got {k}")
    state = begin_decode_state(
        num_elements=stream.num_elements,
        num_bitplanes=stream.num_bitplanes,
        exponent=stream.exponent,
        max_abs=stream.max_abs,
        dtype=stream.dtype,
        layout=stream.layout,
        warp_size=stream.warp_size,
        signed_encoding=stream.signed_encoding,
    )
    return finalize_decode(apply_planes(state, stream.planes[:k], 0))


# ---------------------------------------------------------------------
# Incremental (resumable) decoding
# ---------------------------------------------------------------------
@dataclass
class PartialDecodeState:
    """Integer-domain decode state retained between refinement steps.

    ``words`` accumulates the injected plane bits — fixed-point
    magnitudes under ``sign_magnitude``, base-(−2) digits under
    ``negabinary``. Each stored plane contributes a disjoint bit
    position, so injecting planes ``[p, q)`` into a state holding
    ``[0, p)`` is exact: the algebraic fact that makes progressive
    refinement pay only for the increment. Words are ``uint32`` for a
    sign-magnitude state of at most 32 bitplanes (every f32 default
    level) and ``uint64`` otherwise.

    Inside the decode body a state is not immutable:
    :func:`apply_planes_many` ORs one state's planes into its own
    words, and the returned state shares them. Because the bits are
    disjoint, :func:`withdraw_planes` undoes that exactly, which is how
    a failed refinement step restores its committed states.
    :func:`apply_planes` injects into a copy and leaves its input as it
    was.
    """

    words: np.ndarray  # uint32/uint64 accumulated magnitudes / codes
    signs: np.ndarray | None  # uint8, 0x80 where negative (sign_magnitude)
    planes_applied: int
    num_elements: int
    num_bitplanes: int
    exponent: int
    max_abs: float
    dtype: np.dtype
    layout: str
    warp_size: int
    signed_encoding: str

    @property
    def total_planes(self) -> int:
        """Stored planes of the full stream this state resumes."""
        if self.signed_encoding == "negabinary":
            return negabinary.negabinary_width(self.num_bitplanes)
        return self.num_bitplanes + 1

    @property
    def nbytes(self) -> int:
        """Resident bytes of the retained arrays."""
        total = int(self.words.nbytes)
        if self.signs is not None:
            total += int(self.signs.nbytes)
        return total

    def prefix(self, planes: int) -> "PartialDecodeState":
        """This state cut to its first *planes* planes, for finalizing.

        :func:`finalize_many` of the cut equals it of a fresh state
        holding planes ``[0, planes)``: sign-magnitude keeps its words,
        because finalizing already masks the planes past
        ``planes_applied``; negabinary masks its low digits; zero planes
        hold no signs, so nothing finalizes to −0.0. The cut shares the
        sign bits and is never resumed: planes are injected into a
        committed state only.
        """
        if not 0 <= planes <= self.planes_applied:
            raise ValueError(
                f"a state holding {self.planes_applied} planes has no "
                f"{planes}-plane prefix"
            )
        if planes == self.planes_applied:
            return self
        words = self.words
        if self.signed_encoding == "negabinary":
            low = min(self.total_planes - planes, 64)
            words = words & np.uint64(_ALL_ONES ^ ((1 << low) - 1))
        return replace(self, words=words, planes_applied=planes,
                       signs=self.signs if planes else None)


def begin_decode_state(
    *,
    num_elements: int,
    num_bitplanes: int,
    exponent: int,
    max_abs: float,
    dtype: np.dtype,
    layout: str = _NATURAL,
    warp_size: int = 32,
    signed_encoding: str = "sign_magnitude",
) -> PartialDecodeState:
    """Zero-plane :class:`PartialDecodeState` for a stream's metadata."""
    if signed_encoding not in SIGNED_ENCODINGS:
        raise ValueError(
            f"signed_encoding must be one of {SIGNED_ENCODINGS}, "
            f"got {signed_encoding!r}"
        )
    narrow = signed_encoding == "sign_magnitude" and num_bitplanes <= 32
    return PartialDecodeState(
        words=np.zeros(int(num_elements),
                       dtype=np.uint32 if narrow else np.uint64),
        signs=None,
        planes_applied=0,
        num_elements=int(num_elements),
        num_bitplanes=int(num_bitplanes),
        exponent=int(exponent),
        max_abs=float(max_abs),
        dtype=np.dtype(dtype),
        layout=layout,
        warp_size=int(warp_size),
        signed_encoding=signed_encoding,
    )


def apply_planes(
    state: PartialDecodeState,
    planes: list[np.ndarray],
    start_plane: int,
) -> PartialDecodeState:
    """New state with *planes* ``[start_plane, start_plane + len)`` injected.

    ``start_plane`` must equal ``state.planes_applied`` (refinement is
    contiguous); the input state is never mutated, so callers can commit
    the returned state only once a whole multi-level step succeeded.
    The one-state call of :func:`apply_planes_many`, on a copy of the
    words.
    """
    planes = list(planes)
    if start_plane != state.planes_applied:
        raise ValueError(
            f"planes must resume at plane {state.planes_applied}, "
            f"got start_plane={start_plane}"
        )
    if not planes:
        return state
    # A state holding no plane holds zeros: fresh zeros need no copy.
    words = (state.words.copy() if state.planes_applied
             else np.zeros(state.num_elements, state.words.dtype))
    return apply_planes_many([replace(state, words=words)], [planes])[0]


def _stack_rows(rows: list[np.ndarray]) -> np.ndarray:
    """Rows as one ``(K, n)`` array; a single row is a view, not a copy."""
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def _top_bit(state: PartialDecodeState) -> int:
    """``top`` such that stored plane ``p`` sets word bit ``top - p``
    (sign-magnitude plane 0 is the sign and sets none)."""
    nega = state.signed_encoding == "negabinary"
    return state.num_bitplanes + 1 if nega else state.num_bitplanes


def apply_planes_many(
    states: list[PartialDecodeState], plane_lists: list[list[np.ndarray]]
) -> list[PartialDecodeState]:
    """:func:`apply_planes` over K same-geometry states at once.

    State ``r`` gains ``plane_lists[r]`` from its own ``planes_applied``
    on, so rows may sit at different planes and gain different counts.
    Absolute plane ``p`` targets the same bit in every row (negabinary:
    ``width - 1 - p``; sign-magnitude: plane 0 is the sign, magnitude
    plane ``p`` bit ``B - p``), so one transpose injects every row.

    Injection is an OR in place. A single state's planes go into its
    own words, which the returned state shares (:func:`withdraw_planes`
    undoes it; :func:`apply_planes` passes a copy). K > 1 states are
    stacked into one fresh ``(K, n)`` block first, which leaves their
    words as they were; the new states' words are its rows.
    """
    first = states[0]
    n = first.num_elements
    nega = first.signed_encoding == "negabinary"
    top = _top_bit(first)
    rows, sign_rows = [], []
    for r, (state, planes) in enumerate(zip(states, plane_lists)):
        start = state.planes_applied
        if start + len(planes) > state.total_planes:
            raise ValueError(
                f"planes [{start}, {start + len(planes)}) exceed the "
                f"stream's {state.total_planes} stored planes"
            )
        if not nega and start == 0 and planes:
            sign_rows.append(r)
        rows.append([
            (top - p, plane)
            for p, plane in enumerate(planes, start) if nega or p
        ])
    # States holding no plane hold zeros, so a zeroed block needs no
    # copy of them.
    if len(states) == 1:
        words = first.words[None]
    elif any(state.planes_applied for state in states):
        words = np.stack([state.words for state in states])
    else:
        words = np.zeros((len(states), n), dtype=first.words.dtype)
    if transpose.HOST_SUPPORTED:
        transpose.planes_to_word_rows(rows, n, out=words)
    else:
        for row, row_words in zip(rows, words):
            row_words |= inject_code_planes_reference(
                [plane for _, plane in row], n, row[0][0] + 1 if row else 1
            ).astype(words.dtype)
    signs = [state.signs for state in states]
    if sign_rows:
        unpacked = np.unpackbits(_stack_rows([
            np.asarray(plane_lists[r][0], dtype=np.uint8) for r in sign_rows
        ]), axis=1, count=n, bitorder="little")
        unpacked <<= np.uint8(7)  # each sign where a double keeps it
        for j, r in enumerate(sign_rows):
            signs[r] = unpacked[j]
    return [
        PartialDecodeState(
            row_words, sign, state.planes_applied + len(planes), n,
            state.num_bitplanes, state.exponent, state.max_abs,
            state.dtype, state.layout, state.warp_size,
            state.signed_encoding,
        )
        for state, planes, row_words, sign in zip(
            states, plane_lists,
            [first.words] if len(states) == 1 else words, signs)
    ]


def withdraw_planes(state: PartialDecodeState, planes_applied: int) -> None:
    """Clear planes ``[planes_applied, state.planes_applied)`` from
    *state*'s words, in place: the exact undo of injecting them into a
    state that held ``planes_applied`` planes, since every plane owns
    its bit. The sign plane owns no word bit (its signs are a fresh
    array), so it needs no clearing."""
    top = _top_bit(state)
    mask = ((1 << (top - planes_applied + 1)) - 1) ^ (
        (1 << (top - state.planes_applied + 1)) - 1)
    keep = ~mask & ((1 << (8 * state.words.itemsize)) - 1)
    state.words &= state.words.dtype.type(keep)


def finalize_many(states: list[PartialDecodeState]) -> np.ndarray:
    """Float64 values of K same-geometry states as one ``(K, n)`` array,
    in the states' stored element order (a ``warp`` layout stays
    permuted: the engine scatters it through a composed index, and
    :func:`finalize_decode` un-permutes it).

    Each row keeps its own exponent, dropped-plane count and signs.
    Sign-magnitude words lose the dropped planes' bits, and a nonzero
    truncation is centered by half the dropped range, which halves the
    expected error and keeps the ``2^(e-k)`` bound. Negabinary codes
    are converted as they are. Then one multiply casts and scales into
    the output: exact, because the integers are below 2^53 and the
    scale is a power of two in the normal range (a row whose scale is
    not falls back to ``ldexp``). Signs are ORed into the sign byte.
    """
    first = states[0]
    bits = first.num_bitplanes
    words = _stack_rows([state.words for state in states])
    values = np.empty(words.shape)
    if first.signed_encoding == "negabinary":
        words = negabinary.from_negabinary(words)
    else:
        drops = [bits - max(0, s.planes_applied - 1) for s in states]
        if any(drops):
            # A nonzero truncation is >= 2^d, so min(truncation, half)
            # is exactly {0, half}, and the center bit lies below the
            # kept bits: OR adds it. A row that dropped nothing gets
            # mask ~0 and center 0 (unchanged). The output's own bytes
            # hold the centers until the multiply overwrites them.
            word, ones = words.dtype.type, (1 << 8 * words.itemsize) - 1
            words = np.bitwise_and(words, _per_row(
                [ones ^ ((1 << d) - 1) for d in drops], word))
            centers = values.view(words.dtype)[:, :words.shape[1]]
            np.minimum(words, _per_row([(1 << d) >> 1 for d in drops], word),
                       out=centers)
            words |= centers
    shifts = [state.exponent - bits for state in states]
    normal = [-1022 <= shift <= 1023 for shift in shifts]
    scale = _per_row(
        [math.ldexp(1.0, s) if ok else 1.0 for s, ok in zip(shifts, normal)],
        np.float64,
    )
    if first.signed_encoding == "negabinary" and max(shifts) + bits >= 1023:
        # A partial negabinary prefix overshoots by its leading
        # negative-weight digits, up to 2^(e+2): at the top of the range,
        # past the largest double. The true value is finite, so clamping
        # to it moves such a value toward the truth and the bound holds.
        with np.errstate(over="ignore"):
            np.multiply(words, scale, out=values, casting="unsafe")
        np.clip(values, -_FLOAT_MAX, _FLOAT_MAX, out=values)
    else:
        np.multiply(words, scale, out=values, casting="unsafe")
    del words  # batch-sized temporaries: keep at most two alive
    for r, ok in enumerate(normal):
        if not ok:  # the scale itself would over/underflow
            values[r] = np.ldexp(values[r], shifts[r])
    signs = [state.signs for state in states]
    if any(sign is not None for sign in signs):
        # Values are >= 0 here, so setting the IEEE sign bit negates
        # exactly; it is the top bit of one byte of each double, where
        # the stored signs already sit.
        sign_bytes = values.view(np.uint8)[:, _SIGN_BYTE::8]
        sign_bytes |= _stack_rows([
            np.zeros(first.num_elements, dtype=np.uint8)
            if sign is None else sign for sign in signs
        ])
    return values


_ALL_ONES = (1 << 64) - 1
_FLOAT_MAX = float(np.finfo(np.float64).max)

#: The byte of a native float64 that holds its sign bit.
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def _per_row(values: list, dtype) -> np.ndarray:
    """One operand per row: a ``(K, 1)`` column, or a scalar for K = 1
    (NumPy's scalar loops are the faster ones)."""
    if len(values) == 1:
        return dtype(values[0])
    return np.array(values, dtype=dtype)[:, None]


def finalize_decode(state: PartialDecodeState) -> np.ndarray:
    """Float values of a partial state, in the state's dtype and in
    natural element order.

    The state itself is left untouched so further planes can still be
    applied. The one-state call of :func:`finalize_many`, then a
    ``warp`` layout is un-permuted after the cast: the cast is
    elementwise, and a narrower dtype moves fewer bytes.
    """
    values = finalize_many([state])[0].astype(state.dtype, copy=False)
    if state.layout != _WARP:
        return values
    return values[register_block.inverse_tile_permutation(
        state.num_elements, state.num_bitplanes, state.warp_size)]
