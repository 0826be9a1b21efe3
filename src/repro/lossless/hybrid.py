"""Hybrid lossless compression strategy (paper Algorithm 2).

Every ``group_size`` consecutive bitplanes are merged into one unit. If
the unit is large enough to be worth compressing (``S > T_s``), both the
Huffman and RLE compression ratios are *estimated* with the lightweight
predictors (no trial encoding); Huffman is used if its estimate clears
the ratio threshold ``T_cr``, else RLE if its estimate does, else Direct
Copy. Small units go straight to Direct Copy. The Huffman estimate is
exact but needs the code lengths, so the selector first asks an entropy
bound that needs only the histogram and builds a code only for units
the bound cannot rule out — same decisions, a fraction of the cost.

Grouping trades retrieval granularity for codec efficiency: progressive
readers fetch whole groups, so ``group_size`` is the unit the retrieval
planner works in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.lossless.direct import direct_decode, direct_encode
from repro.lossless.huffman import (
    build_code_lengths,
    estimate_huffman_ratio,
    huffman_decode_many,
    huffman_encode,
    huffman_ratio_upper_bound,
)
from repro.lossless.rle import estimate_rle_ratio, rle_decode, rle_encode

METHODS = ("huffman", "rle", "direct")

_GROUP_MAGIC = b"HGRP"
_GROUP_FMT = "<4sB H H Q"


@dataclass(frozen=True)
class HybridConfig:
    """Tuning knobs of Algorithm 2.

    ``cr_threshold`` is the paper's ``rc`` parameter (Fig. 8 sweeps 1.0,
    2.0, 4.0): higher values demand more benefit before spending entropy
    coding effort, trading retrieval size for codec throughput.
    """

    group_size: int = 4
    size_threshold: int = 1024
    cr_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.size_threshold < 0:
            raise ValueError("size_threshold must be >= 0")
        if self.cr_threshold <= 0:
            raise ValueError("cr_threshold must be > 0")


@dataclass
class CompressedGroup:
    """One merged-and-compressed bitplane group (a retrieval unit).

    ``payload`` may be any bytes-like object; deserializing with
    :meth:`from_bytes` keeps it as a zero-copy view of the source
    buffer.
    """

    method: str
    payload: bytes | memoryview
    plane_sizes: tuple[int, ...]
    first_plane: int

    @property
    def original_size(self) -> int:
        return int(sum(self.plane_sizes))

    @property
    def compressed_size(self) -> int:
        return len(self.payload)

    @property
    def num_planes(self) -> int:
        return len(self.plane_sizes)

    @property
    def nbytes(self) -> int:
        """Serialized size, ``len(to_bytes())``, without serializing."""
        return (struct.calcsize(_GROUP_FMT) + 8 * self.num_planes
                + len(self.payload))

    def to_bytes(self) -> bytes:
        head = struct.pack(
            _GROUP_FMT,
            _GROUP_MAGIC,
            METHODS.index(self.method),
            self.first_plane,
            len(self.plane_sizes),
            len(self.payload),
        )
        sizes = struct.pack(
            f"<{len(self.plane_sizes)}Q", *self.plane_sizes
        )
        return b"".join((head, sizes, self.payload))

    @classmethod
    def from_bytes(cls, buf: bytes | memoryview) -> "CompressedGroup":
        """Zero-copy deserialization: ``payload`` is a view of *buf*."""
        head_size = struct.calcsize(_GROUP_FMT)
        magic, method_id, first, m, payload_len = struct.unpack_from(
            _GROUP_FMT, buf, 0
        )
        if magic != _GROUP_MAGIC:
            raise ValueError("not a hybrid group")
        if method_id >= len(METHODS):
            raise ValueError(f"unknown method id {method_id}")
        sizes = struct.unpack_from(f"<{m}Q", buf, head_size)
        off = head_size + 8 * m
        payload = memoryview(buf)[off : off + payload_len]
        if len(payload) != payload_len:
            raise ValueError("truncated hybrid group")
        return cls(
            method=METHODS[method_id],
            payload=payload,
            plane_sizes=tuple(int(s) for s in sizes),
            first_plane=first,
        )


def _select_and_encode(
    merged: np.ndarray, config: HybridConfig
) -> tuple[str, bytes]:
    """Algorithm 2 decision + encode with every scan shared.

    The byte histogram is asked first: when even the entropy bound
    (:func:`~repro.lossless.huffman.huffman_ratio_upper_bound`) cannot
    clear the threshold, neither can the exact estimate, so no code is
    built — the decision is the same, only cheaper. Otherwise the code
    lengths are built once and feed both the exact Huffman CR estimate
    and (when Huffman wins) the encoder. When Huffman is out, the RLE
    estimate only counts the runs (one ``count_nonzero``); the run
    boundaries are found only for a group RLE wins. Each code
    construction happens at most once.
    """
    if merged.size <= config.size_threshold:
        return "direct", direct_encode(merged)
    freqs = np.bincount(merged, minlength=256)
    if huffman_ratio_upper_bound(merged.size, freqs) > config.cr_threshold:
        lengths = build_code_lengths(freqs)
        ratio = estimate_huffman_ratio(merged, freqs=freqs, lengths=lengths)
        if ratio > config.cr_threshold:
            return "huffman", huffman_encode(
                merged, freqs=freqs, lengths=lengths
            )
    if estimate_rle_ratio(merged) > config.cr_threshold:
        return "rle", rle_encode(merged)
    return "direct", direct_encode(merged)


_ENCODERS = {
    "huffman": huffman_encode,
    "rle": rle_encode,
    "direct": direct_encode,
}


def _one_by_one(decode):
    return lambda payloads: [decode(p) for p in payloads]


#: Per method, the decoder of a list of payloads: Huffman decodes the
#: whole list in one call (its short streams share walks), the others
#: stream by stream.
_DECODERS = {
    "huffman": huffman_decode_many,
    "rle": _one_by_one(rle_decode),
    "direct": _one_by_one(direct_decode),
}


def compress_planes(
    planes: list[np.ndarray], config: HybridConfig | None = None
) -> list[CompressedGroup]:
    """Compress bitplanes group-by-group per Algorithm 2.

    ``planes`` are packed uint8 payloads (most significant first, as
    produced by :mod:`repro.bitplane`). Returns one
    :class:`CompressedGroup` per ``config.group_size`` planes; the final
    group may be smaller. Each group's merged buffer lives only while
    that group encodes, so peak memory is one group, not all planes.
    """
    config = config or HybridConfig()
    groups = []
    for start in range(0, len(planes), config.group_size):
        members = planes[start : start + config.group_size]
        merged = np.concatenate([
            np.ascontiguousarray(p, dtype=np.uint8).reshape(-1)
            for p in members
        ])
        method, payload = _select_and_encode(merged, config)
        groups.append(CompressedGroup(
            method=method,
            payload=payload,
            plane_sizes=tuple(int(p.size) for p in members),
            first_plane=start,
        ))
    return groups


def decompress_groups(
    groups: list[CompressedGroup], num_groups: int | None = None
) -> list[np.ndarray]:
    """Recover the leading planes from the first *num_groups* groups.

    Progressive retrieval decompresses only the groups it fetched;
    ``None`` decompresses everything. The one-list call of
    :func:`decompress_group_lists`.
    """
    selected = groups if num_groups is None else groups[:num_groups]
    return decompress_group_lists([list(selected)])[0]


def decompress_group_lists(
    lists: list[list[CompressedGroup]],
) -> list[list[np.ndarray]]:
    """Each list's planes, from one lossless call over all its groups.

    The groups of every list are decoded together, method by method, so
    a batch read's Huffman groups (every tile and level of it) go to one
    :func:`~repro.lossless.huffman.huffman_decode_many` call. A group
    whose decoded size disagrees with its plane sizes raises
    ``ValueError``.
    """
    flat = [group for groups in lists for group in groups]
    by_method: dict[str, list[int]] = {}
    for i, group in enumerate(flat):
        by_method.setdefault(group.method, []).append(i)
    merged: list = [None] * len(flat)
    for method, members in by_method.items():
        decoded = _DECODERS[method]([flat[i].payload for i in members])
        for i, out in zip(members, decoded):
            merged[i] = out
    planes: list[list[np.ndarray]] = []
    outs = iter(merged)
    for groups in lists:
        planes.append([])
        for group, out in zip(groups, outs):
            if out.size != group.original_size:
                raise ValueError(
                    f"group {group.first_plane}: decoded {out.size} bytes, "
                    f"expected {group.original_size}"
                )
            offset = 0
            # Zero-copy split: each plane is a view into the decoded unit.
            for size in group.plane_sizes:
                planes[-1].append(out[offset : offset + size])
                offset += size
    return planes
