"""Bitplane encoding — the core kernel HP-MDR optimizes (paper Section 4).

Given a (decomposed) float array, the encoder aligns all values to the
global maximum exponent, converts them to fixed point, and emits one
bitplane per binary digit from most to least significant (Algorithm 1).
Retrieving only the leading *k* bitplanes reconstructs the data with error
at most ``2^(e_max - k)`` — the mechanism behind progressive precision.

Three parallelization designs from the paper are implemented, faithful to
their memory-access patterns and output layouts:

* :mod:`~repro.bitplane.locality_block` — each "thread" encodes a block of
  ``B`` *contiguous* elements (ZFP-inspired; Section 4.1). Natural bit
  order; best compressibility; uncoalesced loads on a real GPU.
* :mod:`~repro.bitplane.register_shuffle` — one element per thread, bits
  exchanged across the warp (Section 4.2), with the four instruction
  variants (``ballot``, ``shift``, ``match-any``, ``reduce-add``) emulated
  lane-by-lane. Natural bit order; heavy inter-thread communication.
* :mod:`~repro.bitplane.register_block` — each thread encodes ``B``
  *interleaved* elements so loads coalesce and no communication is needed
  (Section 4.3; the design HP-MDR adopts). Bit order is warp-transposed
  within each ``warp_size × B`` tile, which slightly degrades
  compressibility — exactly the trade-off the paper reports.

All designs produce bit-identical *decoded values* (the portability
guarantee); only the register-block stream layout differs, and its header
records that fact so any design can decode any stream.
"""

from repro.bitplane.align import (
    AlignedFixedPoint,
    align_to_fixed_point,
    compute_exponent,
    plane_error_bound,
)
from repro.bitplane.encoding import (
    DESIGNS,
    SHUFFLE_VARIANTS,
    BitplaneStream,
    PartialDecodeState,
    apply_planes,
    begin_decode_state,
    decode_bitplanes,
    encode_bitplanes,
    finalize_decode,
)

__all__ = [
    "AlignedFixedPoint",
    "align_to_fixed_point",
    "compute_exponent",
    "plane_error_bound",
    "BitplaneStream",
    "PartialDecodeState",
    "DESIGNS",
    "SHUFFLE_VARIANTS",
    "encode_bitplanes",
    "decode_bitplanes",
    "begin_decode_state",
    "apply_planes",
    "finalize_decode",
]
