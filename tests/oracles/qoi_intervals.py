"""The ``where``/min/max interval forms of ``square`` and ``abs``, the
oracle of :mod:`repro.qoi.expressions`' clamp forms.

The library bounds ``x²`` and ``|x|`` over ``[lo, hi]`` with
``max(0, max(lo, −hi))`` and ``max(|lo|, |hi|)`` written into two
buffers. This module keeps the forms they replaced — square both ends,
take the larger, and the smaller unless the interval straddles zero —
so tests can check the new forms float for float.

Import it with the ``tests`` directory on ``sys.path`` (pytest puts it
there for files under ``tests/``)::

    from oracles.qoi_intervals import abs_interval, square_interval
"""

from __future__ import annotations

import numpy as np


def square_interval(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """``x²``'s bounds over ``[lo, hi]``."""
    lo2, hi2 = lo * lo, hi * hi
    upper = np.maximum(lo2, hi2)
    # Interval straddling zero has minimum square 0.
    lower = np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(lo2, hi2))
    return lower, upper


def abs_interval(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """``|x|``'s bounds over ``[lo, hi]``."""
    upper = np.maximum(np.abs(lo), np.abs(hi))
    lower = np.where((lo <= 0) & (hi >= 0), 0.0,
                     np.minimum(np.abs(lo), np.abs(hi)))
    return lower, upper
