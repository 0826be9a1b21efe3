"""From-scratch decode of a refactored field: the incremental engine's oracle.

:class:`~repro.core.reconstruct.Reconstructor` keeps each level's partial
integer coefficients between steps and decodes only the plane groups a
step adds. This module does the same work the slow way — every level
re-decoded from plane 0 by :mod:`oracles.bitplane_decode`'s one-shot
decoder, then assembled and recomposed — so tests and
benchmarks can check the incremental engine bit for bit and time it
against the full re-decode.

Import it with the ``tests`` directory on ``sys.path`` (pytest puts it
there for files under ``tests/``)::

    from oracles.full_decode import full_decode
"""

from __future__ import annotations

import numpy as np

from oracles.bitplane_decode import decode_reference

from repro.bitplane.encoding import BitplaneStream
from repro.decompose import MultilevelTransform
from repro.lossless.hybrid import decompress_groups


def level_stream(lv, num_groups: int, design: str) -> BitplaneStream:
    """Level *lv*'s first *num_groups* plane groups as a float64
    bitplane stream."""
    return BitplaneStream(
        planes=decompress_groups(lv.groups, num_groups),
        num_elements=lv.num_elements,
        num_bitplanes=lv.num_bitplanes,
        exponent=lv.exponent,
        max_abs=lv.max_abs,
        dtype=np.dtype(np.float64),
        design=design,
        layout=lv.layout,
        warp_size=lv.warp_size,
        signed_encoding=lv.signed_encoding,
    )


def full_decode(field, groups_per_level,
                decode=decode_reference) -> np.ndarray:
    """*field* decoded from scratch with ``groups_per_level[i]`` plane
    groups of level *i*, in the field's dtype.

    *decode* ``(stream, num_planes)`` decodes one level. Tests keep the
    per-plane oracle; ``bench_progressive`` times the library's
    ``decode_bitplanes``, the re-decode an engine without retained
    state would run."""
    transform = MultilevelTransform(
        field.shape, num_levels=field.num_levels, mode=field.mode,
        min_size=field.min_size,
    )
    field.fetch_groups([(0, int(g)) for g in groups_per_level])
    levels = []
    for lv, want in zip(field.levels, groups_per_level):
        stream = level_stream(lv, int(want), field.design)
        levels.append(decode(stream, lv.planes_in_groups(want)))
    coeffs = transform.assemble_levels(levels)
    return transform.recompose(coeffs, overwrite=True).astype(
        field.dtype, copy=False
    )
