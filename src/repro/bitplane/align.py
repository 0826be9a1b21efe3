"""Exponent alignment and fixed-point conversion (Algorithm 1, step 1).

All elements are aligned to the *global* maximum exponent so bitplane
boundaries are consistent across the batch: value ``x`` becomes the
unsigned integer ``floor(|x| · 2^(B - e))`` where ``2^(e-1) ≤ max|x| < 2^e``
and ``B`` is the bitplane count, plus a separate sign bit. Dropping the
trailing ``B - k`` planes then bounds the pointwise error by
``2^(e - k)`` (and never worse than ``max|x|`` itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_dtype_floating

#: Maximum supported magnitude bitplanes (uint64 minus safety margin for
#: exact float64 arithmetic during conversion).
MAX_BITPLANES = 60


def scale_pow2(values: np.ndarray, shift_exp: int) -> np.ndarray:
    """Multiply float64 *values* by ``2^shift_exp`` exactly, in place.

    Scalar multiply when the scale factor is a normal double (exact,
    and much faster than ldexp); element-wise ``np.ldexp`` handles the
    extreme exponents where the scalar alone would over/underflow
    (e.g. subnormal-magnitude data). The caller must own *values*.
    """
    if -1022 <= shift_exp <= 1023:
        values *= math.ldexp(1.0, shift_exp)
        return values
    return np.ldexp(values, shift_exp)


def compute_exponent(max_abs: float) -> int:
    """Smallest integer ``e`` with ``max_abs < 2^e`` (0 for all-zero data)."""
    if max_abs < 0 or not math.isfinite(max_abs):
        raise ValueError(f"max_abs must be finite and >= 0, got {max_abs}")
    if max_abs == 0.0:
        return 0
    _, e = math.frexp(max_abs)  # max_abs = m * 2^e, 0.5 <= m < 1
    return e


@dataclass
class AlignedFixedPoint:
    """Sign/magnitude fixed-point representation of a float array."""

    signs: np.ndarray  # uint8, 1 where negative
    magnitudes: np.ndarray  # uint64 in [0, 2^B)
    exponent: int
    num_bitplanes: int
    max_abs: float
    dtype: np.dtype  # original floating dtype

    @property
    def num_elements(self) -> int:
        return int(self.magnitudes.size)


def align_to_fixed_point(
    data: np.ndarray, num_bitplanes: int
) -> AlignedFixedPoint:
    """Convert floats to exponent-aligned sign/magnitude fixed point."""
    check_dtype_floating(data)
    if not 1 <= num_bitplanes <= MAX_BITPLANES:
        raise ValueError(
            f"num_bitplanes must be in [1, {MAX_BITPLANES}], "
            f"got {num_bitplanes}"
        )
    flat = np.ascontiguousarray(data).reshape(-1)
    # One fused pass: |x| widened to float64 (the ufunc casts on write).
    abs_vals = np.abs(flat, dtype=np.float64)
    max_abs = float(abs_vals.max()) if flat.size else 0.0
    # NaN/Inf anywhere propagates into the max, so the finiteness check
    # rides on the reduction instead of a separate full-array pass.
    if not math.isfinite(max_abs):
        raise ValueError("bitplane encoding requires finite input data")
    exponent = compute_exponent(max_abs)
    scaled = scale_pow2(abs_vals, num_bitplanes - exponent)
    # uint64 conversion truncates toward zero == floor for nonnegatives.
    mags = scaled.astype(np.uint64)
    # Guard against float round-up at the top of the range.
    limit = np.uint64((1 << num_bitplanes) - 1)
    np.minimum(mags, limit, out=mags)
    signs = np.signbit(flat).astype(np.uint8)
    return AlignedFixedPoint(
        signs=signs,
        magnitudes=mags,
        exponent=exponent,
        num_bitplanes=num_bitplanes,
        max_abs=max_abs,
        dtype=data.dtype,
    )


def plane_error_bound(
    exponent: int, num_bitplanes: int, kept_planes: int, max_abs: float
) -> float:
    """Worst-case |x - x̂| after keeping *kept_planes* magnitude planes.

    ``2^(e - k)`` for partial retrieval, ``2^(e - B)`` (one quantization
    ulp) when everything is kept, and never worse than ``max_abs`` (the
    error of reconstructing zero).
    """
    if kept_planes < 0:
        raise ValueError("kept_planes must be >= 0")
    k = min(kept_planes, num_bitplanes)
    # 2^(e - k) overflows a double only above max_abs's own range (e can
    # be 1024), where the max_abs cap answers anyway.
    bound = math.ldexp(1.0, exponent - k) if exponent - k < 1024 else math.inf
    return min(bound, max_abs) if max_abs > 0 else 0.0
