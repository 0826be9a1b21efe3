"""Argument validation helpers used across the library.

These raise early with actionable messages rather than letting NumPy
broadcast errors surface deep inside kernels.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_tolerance(
    tolerance: Any, *, allow_none: bool = False
) -> float | None:
    """Validate a retrieval tolerance and return it normalized to float.

    The single gate every ``tolerance`` parameter in the public planner /
    reconstruct API routes through (enforced by reprolint rule R5). A NaN
    tolerance previously fell through every ``>`` comparison and silently
    produced an empty plan; infinities are rejected too so "retrieve
    nothing" must be asked for explicitly with a finite loose tolerance.

    With ``allow_none=True``, ``None`` passes through (the near-lossless
    "fetch everything" request); otherwise it is rejected.
    """
    if tolerance is None:
        if allow_none:
            return None
        raise ValueError("tolerance must not be None")
    value = float(tolerance)
    if not math.isfinite(value):
        raise ValueError(f"tolerance must be finite, got {value}")
    if value < 0:
        raise ValueError("tolerance must be >= 0")
    return value


def check_on_fault(on_fault: Any) -> None:
    """Validate a retrieval step's storage-fault policy.

    ``"raise"`` propagates a store fault; ``"degrade"`` answers from the
    session's last committed refinement. The one gate every
    ``on_fault`` parameter of the reconstruct API routes through.
    """
    if on_fault not in ("raise", "degrade"):
        raise ValueError(
            f"on_fault must be 'raise' or 'degrade', got {on_fault!r}"
        )


def check_dtype_floating(arr: np.ndarray) -> None:
    """Validate that *arr* holds float32 or float64 data."""
    if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise TypeError(
            f"expected float32 or float64 array, got dtype {arr.dtype}"
        )


def check_shape_3d(shape: Sequence[int]) -> tuple[int, int, int]:
    """Validate and normalize a 3-D shape tuple."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s <= 0 for s in shape):
        raise ValueError(f"expected a positive 3-D shape, got {shape}")
    return shape  # type: ignore[return-value]
