"""The refactored stream format: per-level compressed bitplane groups.

A :class:`RefactoredField` is what lands in storage after refactoring —
the multilevel metadata, and for every coefficient level a
:class:`LevelStream` holding that level's bitplane metadata plus its
hybrid-compressed plane groups. Everything serializes to plain bytes
(no pickle), so streams written under one simulated device decode under
any other: the portability property of the paper.

The lazy variants (:class:`LazyRefactoredField` / :class:`LazyLevelStream`)
present the *same* interface but resolve each ``(variable, level, group)``
segment from a backing store only when a decode actually touches it.
Planning (``bytes_for_groups`` / ``planes_in_groups`` /
``error_bound_for_groups``) runs entirely on :class:`SegmentRef` metadata,
so a tolerance query over a store fetches exactly the plane groups its
retrieval plan requires — the incremental-fetch economics of the paper's
progressive retrieval, extended to the storage layer.
"""

from __future__ import annotations

import json
import operator
import struct
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.bitplane.align import plane_error_bound
from repro.bitplane.encoding import BitplaneStream
from repro.core.errors import SegmentCorruptionError
from repro.lossless.hybrid import CompressedGroup
from repro.util.serialize import pack_arrays, unpack_arrays


@dataclass
class LevelStream:
    """One coefficient level's encoded form.

    ``groups[g]`` holds ``group_size`` consecutive bitplanes (sign plane
    first); fetching a prefix of groups yields a truncated bitplane set
    whose coefficient error is :meth:`error_bound_for_groups`.
    """

    level: int
    num_elements: int
    num_bitplanes: int
    exponent: int
    max_abs: float
    layout: str
    warp_size: int
    groups: list[CompressedGroup] = field(default_factory=list)
    signed_encoding: str = "sign_magnitude"

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def planes_in_groups(self, num_groups: int) -> int:
        """Total bitplanes contained in the first *num_groups* groups."""
        return sum(g.num_planes for g in self.groups[:num_groups])

    def bytes_for_groups(self, num_groups: int) -> int:
        """Serialized bytes fetched for the first *num_groups* groups."""
        return sum(
            len(g.to_bytes()) for g in self.groups[:num_groups]
        )

    def error_bound_for_groups(self, num_groups: int) -> float:
        """Per-coefficient L∞ bound with only *num_groups* groups fetched."""
        fetched_planes = self.planes_in_groups(num_groups)
        if self.signed_encoding == "negabinary":
            from repro.bitplane.negabinary import (
                plane_error_bound_negabinary,
            )

            return plane_error_bound_negabinary(
                self.exponent, self.num_bitplanes, fetched_planes,
                self.max_abs,
            )
        kept_mag = max(0, fetched_planes - 1)  # plane 0 is the sign plane
        return plane_error_bound(
            self.exponent, self.num_bitplanes, kept_mag, self.max_abs
        )

    def decompress_group_range(
        self, start_group: int, end_group: int
    ) -> list[np.ndarray]:
        """Packed planes of groups ``[start_group, end_group)`` only.

        The incremental unit of progressive refinement: a session that
        already decoded groups ``[0, start_group)`` decompresses (and,
        for store-backed lazy streams, fetches) exactly the new
        segments — nothing before ``start_group`` is touched. The
        returned planes begin at stored plane index
        ``planes_in_groups(start_group)``.
        """
        if not 0 <= start_group <= end_group <= self.num_groups:
            raise ValueError(
                f"group range [{start_group}, {end_group}) out of bounds "
                f"for {self.num_groups} groups"
            )
        from repro.lossless.hybrid import decompress_groups

        return decompress_groups(list(self.groups[start_group:end_group]))

    def empty_decode_state(self, dtype: np.dtype) -> "PartialDecodeState":
        """Zero-plane incremental decode state for this level's stream.

        Seed for :func:`repro.bitplane.encoding.apply_planes` /
        :func:`~repro.bitplane.encoding.finalize_decode`; carries all
        stream metadata, so only the planes from
        :meth:`decompress_group_range` are needed to refine it.
        """
        from repro.bitplane.encoding import begin_decode_state

        return begin_decode_state(
            num_elements=self.num_elements,
            num_bitplanes=self.num_bitplanes,
            exponent=self.exponent,
            max_abs=self.max_abs,
            dtype=np.dtype(dtype),
            layout=self.layout,
            warp_size=self.warp_size,
            signed_encoding=self.signed_encoding,
        )

    def to_bitplane_stream(
        self, num_groups: int, dtype: np.dtype, design: str
    ) -> BitplaneStream:
        """Materialize the truncated bitplane stream for decoding."""
        from repro.lossless.hybrid import decompress_groups

        planes = decompress_groups(self.groups, num_groups)
        return BitplaneStream(
            planes=planes,
            num_elements=self.num_elements,
            num_bitplanes=self.num_bitplanes,
            exponent=self.exponent,
            max_abs=self.max_abs,
            dtype=np.dtype(dtype),
            design=design,
            layout=self.layout,
            warp_size=self.warp_size,
            signed_encoding=self.signed_encoding,
        )


@dataclass
class RefactoredField:
    """Complete refactored representation of one variable."""

    shape: tuple[int, ...]
    dtype: np.dtype
    mode: str
    num_levels: int
    min_size: int
    group_size: int
    design: str
    level_weights: list[float]
    levels: list[LevelStream]
    value_range: float
    name: str = "var"

    @property
    def num_elements(self) -> int:
        return int(np.prod(self.shape))

    def total_bytes(self) -> int:
        """Full stored size (all groups of all levels)."""
        return sum(
            lv.bytes_for_groups(lv.num_groups) for lv in self.levels
        )

    def max_groups(self) -> list[int]:
        return [lv.num_groups for lv in self.levels]

    def fetch_groups(self, ranges: Sequence[tuple[int, int]]) -> None:
        """Make groups ``[start, stop)`` of each level resident.

        An eager field holds every group in memory: nothing to fetch.
        :class:`LazyRefactoredField` reads them from its store.
        """

    # -- serialization ----------------------------------------------------
    def to_bytes(self) -> bytes:
        meta = {
            "shape": list(self.shape),
            "dtype": self.dtype.name,
            "mode": self.mode,
            "num_levels": self.num_levels,
            "min_size": self.min_size,
            "group_size": self.group_size,
            "design": self.design,
            "level_weights": self.level_weights,
            "value_range": self.value_range,
            "name": self.name,
            "levels": [
                {
                    "level": lv.level,
                    "num_elements": lv.num_elements,
                    "num_bitplanes": lv.num_bitplanes,
                    "exponent": lv.exponent,
                    "max_abs": lv.max_abs,
                    "layout": lv.layout,
                    "warp_size": lv.warp_size,
                    "signed_encoding": lv.signed_encoding,
                    "num_groups": lv.num_groups,
                }
                for lv in self.levels
            ],
        }
        meta_blob = json.dumps(meta).encode()
        group_blobs = [
            np.frombuffer(g.to_bytes(), dtype=np.uint8)
            for lv in self.levels
            for g in lv.groups
        ]
        body = pack_arrays(
            [np.frombuffer(meta_blob, dtype=np.uint8)] + group_blobs
        )
        return struct.pack("<4sH", b"MDRF", 1) + body

    @classmethod
    def from_bytes(cls, buf: bytes | memoryview) -> "RefactoredField":
        """Zero-copy deserialization: group payloads are views of *buf*."""
        magic, version = struct.unpack_from("<4sH", buf, 0)
        if magic != b"MDRF":
            raise ValueError("not a refactored field stream")
        if version != 1:
            raise ValueError(f"unsupported stream version {version}")
        payloads = unpack_arrays(memoryview(buf)[struct.calcsize("<4sH"):])
        meta = json.loads(bytes(payloads[0]).decode())
        levels: list[LevelStream] = []
        cursor = 1
        for lv_meta in meta["levels"]:
            groups = [
                CompressedGroup.from_bytes(payloads[cursor + g])
                for g in range(lv_meta["num_groups"])
            ]
            cursor += lv_meta["num_groups"]
            levels.append(
                LevelStream(
                    level=lv_meta["level"],
                    num_elements=lv_meta["num_elements"],
                    num_bitplanes=lv_meta["num_bitplanes"],
                    exponent=lv_meta["exponent"],
                    max_abs=lv_meta["max_abs"],
                    layout=lv_meta["layout"],
                    warp_size=lv_meta["warp_size"],
                    groups=groups,
                    signed_encoding=lv_meta.get(
                        "signed_encoding", "sign_magnitude"),
                )
            )
        return cls(
            shape=tuple(meta["shape"]),
            dtype=np.dtype(meta["dtype"]),
            mode=meta["mode"],
            num_levels=meta["num_levels"],
            min_size=meta["min_size"],
            group_size=meta["group_size"],
            design=meta["design"],
            level_weights=[float(w) for w in meta["level_weights"]],
            levels=levels,
            value_range=float(meta["value_range"]),
            name=meta["name"],
        )


# -- lazy, store-backed variants ------------------------------------------


@dataclass
class SegmentRef:
    """Metadata handle for one stored plane-group segment.

    Parameters
    ----------
    key:
        Store key of the segment (``segment_key(variable, level, group)``).
    nbytes:
        Serialized size of the segment, i.e. ``len(group.to_bytes())`` —
        what a fetch of this segment costs. Known without fetching.
    num_planes:
        Bitplanes contained in the group, or ``None`` when the index that
        produced this ref predates per-segment metadata (then the first
        plan that needs it fetches the group once to learn it).
    """

    key: str
    nbytes: int
    num_planes: int | None = None


def parse_group(key: str, blob) -> CompressedGroup:
    """Parse segment *key*'s blob, eager or lazy alike: a short or
    garbled blob (e.g. truncated below its recorded byte count) raises
    the typed taxonomy, not a codec-internal ``struct.error``."""
    try:
        return CompressedGroup.from_bytes(blob)
    except (ValueError, struct.error, IndexError) as exc:
        raise SegmentCorruptionError(
            f"segment {key!r} is corrupt: {exc}"
        ) from exc


class _LazyGroupSequence(Sequence):
    """Sequence of :class:`CompressedGroup` resolved from a store on touch.

    Parsed groups are memoized per instance (i.e. per opened field), so a
    progressive session re-slicing ``groups[:n]`` on every refinement step
    only pays the backing store for segments it has never seen — the
    per-session analogue of the service's shared byte cache. The memo
    (holding zero-copy views of the fetched blobs) lives as long as the
    opened field does, independent of any shared cache's eviction budget.
    A miss goes through *fetch*, the owning field's batched read of
    ``(sequence, index, key)`` triples, which memoizes through
    :meth:`memoize`.
    """

    def __init__(self, refs: list[SegmentRef], fetch: Callable) -> None:
        self._refs = refs
        self._fetch = fetch
        self._parsed: dict[int, CompressedGroup] = {}

    def __len__(self) -> int:
        return len(self._refs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        if index not in self._parsed:
            self._fetch([(self, index, self._refs[index].key)])
        return self._parsed[index]

    def missing(self, start: int, stop: int) -> list[tuple]:
        """``(self, index, key)`` per unmemoized index in ``[start, stop)``."""
        return [
            (self, i, self._refs[i].key)
            for i in range(start, stop) if i not in self._parsed
        ]

    def memoize(self, index: int, blob: bytes) -> None:
        """Parse a fetched blob into group *index*."""
        ref = self._refs[index]
        self._parsed[index] = group = parse_group(ref.key, blob)
        if ref.num_planes is None:
            ref.num_planes = group.num_planes

    @property
    def resolved_indices(self) -> list[int]:
        """Indices fetched (and parsed) so far — testing/telemetry hook."""
        return sorted(self._parsed)


class LazyLevelStream(LevelStream):
    """A :class:`LevelStream` whose groups live in a segment store.

    Planning queries (:meth:`bytes_for_groups`, :meth:`planes_in_groups`,
    and through it :meth:`error_bound_for_groups`) are answered from
    :class:`SegmentRef` metadata without touching the store; segments
    are fetched by the owning field's batched
    :meth:`~LazyRefactoredField.fetch_groups` (a step's fetch stage), or
    one at a time when a group is touched before it was fetched.
    """

    def __init__(
        self,
        *,
        level: int,
        num_elements: int,
        num_bitplanes: int,
        exponent: int,
        max_abs: float,
        layout: str,
        warp_size: int,
        refs: list[SegmentRef],
        fetch: Callable,
        signed_encoding: str = "sign_magnitude",
    ) -> None:
        self.refs = refs
        super().__init__(
            level=level,
            num_elements=num_elements,
            num_bitplanes=num_bitplanes,
            exponent=exponent,
            max_abs=max_abs,
            layout=layout,
            warp_size=warp_size,
            groups=_LazyGroupSequence(refs, fetch),
            signed_encoding=signed_encoding,
        )

    def bytes_for_groups(self, num_groups: int) -> int:
        """Serialized bytes of the first *num_groups* groups (no fetch)."""
        return sum(r.nbytes for r in self.refs[:num_groups])

    def planes_in_groups(self, num_groups: int) -> int:
        """Bitplanes in the first *num_groups* groups.

        Served from ref metadata; refs written by old (pre-metadata)
        indexes resolve their group once and memoize the count.
        """
        total = 0
        for i, ref in enumerate(self.refs[:num_groups]):
            if ref.num_planes is None:
                ref.num_planes = self.groups[i].num_planes
            total += ref.num_planes
        return total


@dataclass
class Counters:
    """Cumulative read-path accounting: segment traffic and decode work.

    A :class:`LazyRefactoredField` counts its segment traffic into one
    (``io_counters``); a :class:`~repro.core.reconstruct.Reconstructor`
    counts its committed bytes and decode work into another, and its
    ``counters()`` is the two summed plus the decode-state gauge. ``+``
    and ``-`` work field by field, so a step's work is one subtraction
    and an engine's total one sum. The field order is the process
    route's wire order: a worker replies ``astuple(counters)`` and the
    parent rebuilds ``Counters(*ints)``.
    """

    fetched_bytes: int = 0  # payload bytes of committed steps
    decode_state_bytes: int = 0  # resident decode state (a gauge)
    groups_decoded: int = 0
    planes_decoded: int = 0
    level_decodes: int = 0  # level decode jobs that did any work
    level_reuses: int = 0  # levels served verbatim from cached values
    segment_reads: int = 0
    cold_bytes: int = 0  # read from the backing store
    cache_hit_bytes: int = 0  # served by a shared cache

    def __add__(self, other: "Counters") -> "Counters":
        return Counters(*map(
            operator.add, vars(self).values(), vars(other).values()
        ))

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters(*map(
            operator.sub, vars(self).values(), vars(other).values()
        ))


class LazyRefactoredField(RefactoredField):
    """A :class:`RefactoredField` whose plane groups resolve on first touch.

    Built by :func:`repro.core.store.open_field` from a field-less metadata
    template plus per-level :class:`SegmentRef` lists. ``resolve_settled``
    reads a list of segment keys in one store request, settled as
    ``({key: (blob, cold)}, {key: error})``, where ``cold`` says the blob
    came from the backing store rather than a shared cache; the field
    counts its traffic into ``io_counters`` (a :class:`Counters`), which
    its reconstructors report as cache-hit vs. cold traffic per step.
    """

    def __init__(
        self,
        template: RefactoredField,
        level_refs: list[list[SegmentRef]],
        resolve_settled: Callable[[list[str]], tuple[dict, dict]],
    ) -> None:
        if len(level_refs) != len(template.levels):
            raise ValueError("level_refs must have one entry per level")
        self._resolve_settled = resolve_settled
        self.io_counters = Counters()
        # Fetch stages run on the tiled engine's pool threads (the window's
        # fetch stage or the threads:N fan-out), and sessions may share an
        # opened field: lose no update.
        self._io_lock = threading.Lock()
        levels = [
            LazyLevelStream(
                level=lv.level,
                num_elements=lv.num_elements,
                num_bitplanes=lv.num_bitplanes,
                exponent=lv.exponent,
                max_abs=lv.max_abs,
                layout=lv.layout,
                warp_size=lv.warp_size,
                refs=refs,
                fetch=self._fetch,
                signed_encoding=lv.signed_encoding,
            )
            for lv, refs in zip(template.levels, level_refs)
        ]
        super().__init__(
            shape=template.shape,
            dtype=template.dtype,
            mode=template.mode,
            num_levels=template.num_levels,
            min_size=template.min_size,
            group_size=template.group_size,
            design=template.design,
            level_weights=list(template.level_weights),
            levels=levels,
            value_range=template.value_range,
            name=template.name,
        )

    def fetch_groups(self, ranges: Sequence[tuple[int, int]]) -> None:
        """Memoize groups ``[start, stop)`` of each level in one request.

        ``ranges[i]`` is level *i*'s range; keys go levels ascending,
        groups ascending, and already memoized groups are skipped.
        """
        self._fetch([
            item for lv, (start, stop) in zip(self.levels, ranges)
            for item in lv.groups.missing(start, stop)
        ])

    def _fetch(self, wanted: list[tuple]) -> None:
        """Resolve ``(sequence, index, key)`` triples with one batched read.

        Every blob that arrives is counted and memoized, even when other
        keys of the batch failed; then the first failed key's error (in
        request order) is raised, so a retry reads only what is missing.
        """
        if not wanted:
            return
        keys = [key for _, _, key in wanted]
        values, errors = self._resolve_settled(keys)
        with self._io_lock:
            c = self.io_counters
            for blob, cold in values.values():
                c.segment_reads += 1
                if cold:
                    c.cold_bytes += len(blob)
                else:
                    c.cache_hit_bytes += len(blob)
        for seq, index, key in wanted:
            if key in values:
                try:
                    seq.memoize(index, values[key][0])
                except SegmentCorruptionError as exc:
                    errors[key] = exc
        for key in keys:
            if key in errors:
                raise errors[key]
