"""From-scratch decode of a refactored field: the incremental engine's oracle.

:class:`~repro.core.reconstruct.Reconstructor` keeps each level's partial
integer coefficients between steps and decodes only the plane groups a
step adds. This module does the same work the slow way — every level
re-decoded from plane 0, then assembled and recomposed — so tests and
benchmarks can check the incremental engine bit for bit and time it
against the full re-decode.

Import it with the ``tests`` directory on ``sys.path`` (pytest puts it
there for files under ``tests/``)::

    from oracles.full_decode import full_decode
"""

from __future__ import annotations

import numpy as np

from repro.bitplane.encoding import decode_bitplanes
from repro.decompose import MultilevelTransform


def full_decode(field, groups_per_level) -> np.ndarray:
    """*field* decoded from scratch with ``groups_per_level[i]`` plane
    groups of level *i*, in the field's dtype."""
    transform = MultilevelTransform(
        field.shape, num_levels=field.num_levels, mode=field.mode,
        min_size=field.min_size,
    )
    field.fetch_groups([(0, int(g)) for g in groups_per_level])
    levels = []
    for lv, want in zip(field.levels, groups_per_level):
        stream = lv.to_bitplane_stream(
            int(want), np.dtype(np.float64), field.design
        )
        levels.append(decode_bitplanes(stream, lv.planes_in_groups(want)))
    coeffs = transform.assemble_levels(levels)
    return transform.recompose(coeffs, overwrite=True).astype(
        field.dtype, copy=False
    )
