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
from itertools import accumulate

import numpy as np

from repro.bitplane.encoding import (
    begin_decode_state,
    stored_plane_error_bound,
)
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
        return sum(g.nbytes for g in self.groups[:num_groups])

    def error_bound_for_groups(self, num_groups: int) -> float:
        """Per-coefficient L∞ bound with only *num_groups* groups fetched."""
        return stored_plane_error_bound(
            self.signed_encoding, self.exponent, self.num_bitplanes,
            self.planes_in_groups(num_groups), self.max_abs,
        )

    def group_range(
        self, start_group: int, end_group: int
    ) -> list[CompressedGroup]:
        """Groups ``[start_group, end_group)``, checked against the level
        (a lazy stream fetches the ones not yet resident)."""
        if not 0 <= start_group <= end_group <= self.num_groups:
            raise ValueError(
                f"group range [{start_group}, {end_group}) out of bounds "
                f"for {self.num_groups} groups"
            )
        return list(self.groups[start_group:end_group])

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
        from repro.lossless.hybrid import decompress_groups

        return decompress_groups(self.group_range(start_group, end_group))

    def empty_decode_state(self, dtype: np.dtype) -> "PartialDecodeState":
        """Zero-plane incremental decode state for this level's stream.

        Seed for :func:`repro.bitplane.encoding.apply_planes` /
        :func:`~repro.bitplane.encoding.finalize_decode`; carries all
        stream metadata, so only the planes from
        :meth:`decompress_group_range` are needed to refine it.
        """
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
        """Make groups ``[start, stop)`` of each level resident, in one
        request (:func:`fetch_fields`); raises the first failed key's
        error. An eager field holds every group already."""
        error = fetch_fields([(self, ranges)])[0]
        if error is not None:
            raise error

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
    """Metadata handle for one stored plane-group segment, read from
    the field's index record: planning needs nothing else.

    Parameters
    ----------
    key:
        Store key of the segment (``segment_key(variable, level, group)``).
    nbytes:
        Serialized size of the segment, i.e. ``len(group.to_bytes())`` —
        what a fetch of this segment costs.
    num_planes:
        Bitplanes contained in the group.
    crc32:
        :func:`~repro.core.store.segment_checksum` of the serialized
        segment, which every read of it must match.
    """

    key: str
    nbytes: int
    num_planes: int
    crc32: int


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
    A miss is read through *reads*, the owning field's
    :class:`ReadState`, and memoized through :meth:`memoize`; the
    sequence holds no reference to the field itself.
    """

    def __init__(self, refs: list[SegmentRef], reads: "ReadState") -> None:
        self._refs = refs
        self._reads = reads
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
            error = _fetch_wanted(
                [(self._reads, self.missing(index, index + 1))])[0]
            if error is not None:
                raise error
        return self._parsed[index]

    def missing(self, start: int, stop: int) -> list[tuple]:
        """``(self, index, ref)`` per unmemoized index in ``[start, stop)``."""
        return [
            (self, i, self._refs[i])
            for i in range(start, stop) if i not in self._parsed
        ]

    def memoize(self, index: int, blob: bytes) -> None:
        """Parse a fetched blob into group *index*."""
        self._parsed[index] = parse_group(self._refs[index].key, blob)

    @property
    def resolved_indices(self) -> list[int]:
        """Indices fetched (and parsed) so far — testing/telemetry hook."""
        return sorted(self._parsed)


class LazyLevelStream(LevelStream):
    """A :class:`LevelStream` whose groups live in a segment store.

    Planning queries (:meth:`bytes_for_groups`, :meth:`planes_in_groups`,
    and through it :meth:`error_bound_for_groups`) are answered from
    :class:`SegmentRef` metadata without touching the store; segments
    are fetched through *reads* (the owning field's :class:`ReadState`)
    by the field's batched :meth:`~LazyRefactoredField.fetch_groups` (a
    step's fetch stage), or one at a time when a group is touched
    before it was fetched.
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
        reads: "ReadState",
        signed_encoding: str = "sign_magnitude",
    ) -> None:
        self.refs = refs
        # Prefix sums for planning.
        self._byte_sums = list(accumulate((r.nbytes for r in refs), initial=0))
        self._plane_sums = list(accumulate(
            (r.num_planes for r in refs), initial=0))
        super().__init__(
            level=level,
            num_elements=num_elements,
            num_bitplanes=num_bitplanes,
            exponent=exponent,
            max_abs=max_abs,
            layout=layout,
            warp_size=warp_size,
            groups=_LazyGroupSequence(refs, reads),
            signed_encoding=signed_encoding,
        )

    def bytes_for_groups(self, num_groups: int) -> int:
        """Serialized bytes of the first *num_groups* groups (no fetch)."""
        return self._byte_sums[min(num_groups, len(self.refs))]

    def planes_in_groups(self, num_groups: int) -> int:
        """Bitplanes in the first *num_groups* groups (no fetch)."""
        return self._plane_sums[min(num_groups, len(self.refs))]


@dataclass
class Counters:
    """Cumulative read-path accounting: segment traffic and decode work.

    A :class:`LazyRefactoredField` counts its segment traffic into one
    (``io_counters``); a :class:`~repro.core.reconstruct.Reconstructor`
    counts its committed bytes and decode work into another, and its
    ``counters()`` is the two summed plus the decode-state gauge. ``+``
    and ``-`` work field by field, so a step's work is one subtraction
    and an engine's total one sum.
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


@dataclass
class ReadState:
    """A lazy field's read state: its resolver, the :class:`Counters`
    its segment traffic lands in, and the lock guarding them.

    The field and its group sequences share this record and no sequence
    refers to its field, so a dropped field (with its memoized segments)
    is freed by reference counting, not left to the cyclic collector.
    """

    resolve_settled: Callable
    counters: Counters = field(default_factory=Counters)
    # Fetch stages run on the tiled engine's pool threads (a pipelined
    # fetch stage or the threads:N fan-out), and sessions may share an
    # opened field: lose no update.
    lock: threading.Lock = field(default_factory=threading.Lock)


class LazyRefactoredField(RefactoredField):
    """A :class:`RefactoredField` whose plane groups resolve on first touch.

    Built by :func:`repro.core.store.open_field` from a field-less metadata
    template plus per-level :class:`SegmentRef` lists.
    ``resolve_settled(keys, expected)`` reads a list of segment keys in
    one store request, each checked against its CRC32 in *expected*,
    settled as ``({key: (blob, cold)}, {key: error})``, where ``cold``
    says the blob came from the backing store rather than a shared
    cache; the field counts its traffic into ``io_counters`` (the
    :class:`Counters` of the :class:`ReadState` it shares with its group
    sequences), which its reconstructors report as cache-hit vs. cold
    traffic per step.
    """

    def __init__(
        self,
        template: RefactoredField,
        level_refs: list[list[SegmentRef]],
        resolve_settled: Callable[[list[str], dict], tuple[dict, dict]],
    ) -> None:
        if len(level_refs) != len(template.levels):
            raise ValueError("level_refs must have one entry per level")
        self._reads = ReadState(resolve_settled)
        self.io_counters = self._reads.counters
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
                reads=self._reads,
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



def fetch_fields(requests) -> list[BaseException | None]:
    """Make groups ``[start, stop)`` of each level of ``(field, ranges)``
    requests resident (eager fields hold them already), as
    :func:`_fetch_wanted` reads them through each field's
    :class:`ReadState`."""
    return _fetch_wanted([
        (field._reads, [
            item for lv, (start, stop) in zip(field.levels, ranges)
            for item in lv.groups.missing(start, stop)
        ]) if isinstance(field, LazyRefactoredField) else (None, [])
        for field, ranges in requests
    ])


def _fetch_wanted(requests) -> list[BaseException | None]:
    """Resolve ``(reads, [(sequence, index, ref)])`` requests with one
    batched read per resolver (the tiles of one field share theirs),
    keys in request order, each read naming its ref's CRC32. Every blob
    that arrives is counted into its own :class:`ReadState` and
    memoized, even when other keys failed; each request gets its first
    failed key's error, or None, so a retry reads only what is
    missing."""
    errors: list[BaseException | None] = [None] * len(requests)
    by_resolver: dict = {}
    for i, (reads, wanted) in enumerate(requests):
        if wanted:
            by_resolver.setdefault(reads.resolve_settled, []).append(i)
    for resolve, members in by_resolver.items():
        refs = [ref for i in members for _, _, ref in requests[i][1]]
        values, failed = resolve(
            [ref.key for ref in refs], {ref.key: ref.crc32 for ref in refs})
        for i in members:
            reads, wanted = requests[i]
            with reads.lock:
                c = reads.counters
                for _, _, ref in wanted:
                    if ref.key in values:
                        blob, cold = values[ref.key]
                        c.segment_reads += 1
                        if cold:
                            c.cold_bytes += len(blob)
                        else:
                            c.cache_hit_bytes += len(blob)
            for seq, index, ref in wanted:
                if ref.key in values:
                    try:
                        seq.memoize(index, values[ref.key][0])
                    except SegmentCorruptionError as exc:
                        failed[ref.key] = exc
                if errors[i] is None and ref.key in failed:
                    errors[i] = failed[ref.key]
    return errors
