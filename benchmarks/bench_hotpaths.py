"""Hot-path wall-clock benchmarks: transpose, bitplane codec, Huffman, RLE.

Times the vectorized fast paths against the retained seed reference
implementations at 1M+ elements, in the same process and run, and writes
the measurements to ``BENCH_hotpaths.json`` at the repo root — the perf
baseline all subsequent performance PRs compare against.

Huffman decode is additionally measured as a *size sweep* (1.8 KB tile
groups up to 1 MB): the 1M-symbol row alone hid a fixed ~1024-round
floor that dominated every small stream. Each sweep row times
``decode`` against ``decode_reference`` and against both decode regimes
forced, which is the evidence behind the regime constant
``SHORT_STREAM_BYTES_PER_ROUND``; each of its ``chunk_rows`` times the
default chunk size against 1024-symbol chunks, the evidence behind
``DEFAULT_CHUNK_SYMBOLS``.

Huffman encode is swept at the write side's stream sizes
(``huffman_encode_sweep``: a 16^3 tile's 1 792 symbols up to the
224 000 of an 80^3 field's finest plane groups), the word-packed
``HuffmanCodec.encode`` against the seed ``encode_reference``.

Huffman code construction is swept the same way (``code_length_sweep``:
alphabet size x histogram shape): it never showed in the 1M-symbol
encode row, yet at ~0.8 ms a call the heap it used to be was half of a
write pass made of small plane groups. Each row times
``build_code_lengths`` against the retained heap
``build_code_lengths_reference`` and one ``huffman_ratio_upper_bound``,
the histogram-only test that lets the selector skip the construction.

A batch read hands every Huffman group of its tiles to one
``HuffmanCodec.decode_many`` call (``huffman_batch_sweep``): S = 1 ... 64
streams of 1792 symbols (a 16^3 tile's plane group) decoded by one call
against a per-stream ``decode`` loop, plus the largest S at several
slab caps and per-lane walk lengths, the evidence behind
``SLAB_PAYLOAD_BYTES`` and ``_WALK_SYMBOLS``.

The read path's per-tile floor is recorded as a curve
(``tile_batch_sweep``): one staircase step of K tiles of 16^3 decoded
as one batch (``Reconstructor.decode_steps``), K = 1 ... 64, as the
wall per tile.

The transform is swept by cube size (``recompose_sweep``, 16^3 ...
96^3 float64): ``MultilevelTransform.recompose`` and ``decompose``,
which lift in place on the natural grid one cache-sized slab at a time,
timed in alternation against the corner-packed transform they replaced
(``tests/oracles/corner_transform.py``), on coefficients that recompose
to the same bytes; plus a read batch's stack of 18 16^3 tiles, and the
slab-size rows behind ``transform._SLAB_BYTES``. The seed Huffman
kernels (``encode_reference``, ``decode_reference``,
``build_code_lengths_reference``) are the test
oracles of ``tests/oracles/huffman_seed.py``, and the seed plane inject
(``inject_planes_reference``) is that of ``tests/oracles/
bitplane_decode.py``. The ``inject_*`` keys time it against the
library's inject: ``apply_planes`` on a zero decode state, which fills
the state's magnitude words and sign bits.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_hotpaths.py

``--smoke`` runs tiny sizes, keeps the fast-vs-reference equality
assertions, skips the speedup floors, and writes nothing — the CI mode.
Or through pytest (the ``bench`` marker keeps it out of the default
test run; ``benchmarks/run_all.sh`` clears the marker filter):

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpaths.py -o addopts= -s
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.bitplane.align import AlignedFixedPoint
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import Refactorer
from repro.data import generators as gen
from repro.decompose import MultilevelTransform
from repro.decompose import transform as transform_module
from repro.bitplane.encoding import (
    apply_planes,
    begin_decode_state,
    decode_bitplanes,
    encode_bitplanes,
    extract_planes,
    extract_planes_reference,
)
import repro.lossless.huffman as huffman
from repro.lossless.huffman import HuffmanCodec
from repro.lossless.rle import rle_decode, rle_encode

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_hotpaths.json"

sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles.bitplane_decode import inject_planes_reference  # noqa: E402
from oracles.corner_transform import CornerPackedTransform  # noqa: E402
from oracles.huffman_seed import (  # noqa: E402
    build_code_lengths_reference,
    decode_reference,
    encode_reference,
)

N_ELEMENTS = 1 << 20
NUM_BITPLANES = 32
REPS = 7

#: Acceptance floors for ISSUE 1: combined encode+decode and Huffman
#: decode speedups at 1M elements versus the seed paths.
MIN_CODEC_SPEEDUP = 5.0
MIN_HUFFMAN_SPEEDUP = 3.0
#: Acceptance floor for ISSUE 3: word-packed Huffman encode versus the
#: retained per-bit reference packer, measured in the same run.
MIN_HUFFMAN_ENCODE_SPEEDUP = 5.0
#: Acceptance floors for ISSUE 13, against the lockstep loop forced on
#: (the pre-PR decode at every size): a 1792-byte tile group decodes
#: >= 10x faster, and no size decodes slower than 0.9x.
MIN_SHORT_STREAM_SPEEDUP = 10.0
MIN_SWEEP_SPEEDUP = 0.9

#: Acceptance floors for ISSUE 20, two-queue code construction against
#: the retained heap: >= 3x at the full byte alphabet, and no alphabet
#: size or histogram shape slower than 0.9x. The 3x applies where the
#: tree fits MAX_CODE_LENGTH: a tree that does not goes through
#: `_limit_lengths`' lengthening loop, which both constructions share
#: and which is then most of either side (the fibonacci_deep rows record
#: that floor: ~2x at 256 symbols).
MIN_FULL_ALPHABET_CONSTRUCTION_GAIN = 3.0
CODE_LENGTH_SYMBOLS = (2, 16, 64, 256)
CODE_LENGTH_HISTOGRAMS = ("uniform", "zero_heavy", "fibonacci_deep")
#: Constructions per timed call: one takes 10-800 us, too close to the
#: timer's own cost to pair rep by rep.
CODE_LENGTH_CALLS = 20
#: The 2-symbol rows run this many times the sweep's reps: both sides
#: take ~10 us there and read ~0.93x, so 21 reps let one run's median
#: fall below the 0.9x floor on unchanged code.
CODE_LENGTH_REPS_AT_2 = 5

#: Stream sizes of the encode sweep: write_path's Huffman plane groups
#: (a 16^3 tile's, then its 64^3 and 80^3 fields' coarse to fine).
ENCODE_SWEEP_SIZES = (1792, 3500, 28000, 114688, 224000)
SMOKE_ENCODE_SWEEP_SIZES = (1792, 3500)

#: Decoded sizes of the sweep: the benchmark's tile groups (1792), the
#: service_qoi groups (6-48 K), two sizes bracketing the measured
#: walk/lockstep crossover (64 K, 96 K), read_staircase's finest level
#: (224 K) and the historical 1 M point.
SWEEP_SIZES = (1792, 6048, 27216, 48384, 65536, 98304, 229376, 1 << 20)
SMOKE_SWEEP_SIZES = (1792, 6048, 70000)
#: Best-of this many alternating reps: rows whose regime is lockstep run
#: the same code on both sides of the 0.9x floor, and with 7 reps that
#: ratio still read 0.79-1.05 on the recording box.
SWEEP_REPS = 21
#: Stream counts of the Huffman batch sweep (1792-symbol streams, a
#: 16^3 tile's plane group), the slab caps and walk lengths timed at
#: its largest count, and its floors against the per-stream loop:
#: >= 1.5x at 16 streams, and a one-stream call no slower than 0.9x of
#: ``decode``.
HUFFMAN_BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64)
SMOKE_HUFFMAN_BATCH_SIZES = (1, 4)
HUFFMAN_BATCH_SYMBOLS = 1792
SLAB_CAPS = (4096, 8192, 16384, 32768, 65536, 1 << 20)
WALK_LENGTHS = (4, 8, 16, 32, 64)
MIN_BATCH_GAIN_AT_16 = 1.5
MIN_BATCH_GAIN_AT_1 = 0.9
#: Tile batch widths of the batch-decode sweep, and its tile shape.
TILE_BATCH_SIZES = (1, 2, 4, 8, 18, 32, 64)
SMOKE_TILE_BATCH_SIZES = (1, 2, 4)
BATCH_TILE = (16, 16, 16)
#: Cube edges of the recompose sweep (float64), and its floors against
#: the corner-packed oracle: >= 1.3x at 80^3 (read_staircase's field
#: size) and no slower than 0.9x at 16^3 (a tile).
RECOMPOSE_EDGES = (16, 48, 64, 80, 96)
SMOKE_RECOMPOSE_EDGES = (8, 16)
RECOMPOSE_REPS = 15
#: Tiles of the recompose sweep's stack row (16^3 each, a read batch),
#: and the edges and slab sizes of its slab rows (``1 << 30``: one slab
#: per halving step).
STACK_TILES = 18
SLAB_EDGES = (64, 80)
SMOKE_SLAB_EDGES = (16,)
SLAB_SIZES = (1 << 17, 1 << 18, 1 << 19, 3 << 18, 1 << 20, 1 << 21, 1 << 30)
MIN_RECOMPOSE_GAIN_AT_80 = 1.3
MIN_RECOMPOSE_GAIN_AT_16 = 0.9
#: The walk is forced only up to this many times the regime threshold
#: (its tables cost ~200 bytes per payload byte).
MAX_FORCED_WALK_FACTOR = 4
#: Chunk size of the streams behind the recorded Huffman ratios (the 1M
#: ``huffman`` keys and the decode sweep's ``rows``): the default until
#: it went to 256, kept so each ratio keeps its denominator.
RECORDED_CHUNK_SYMBOLS = 1024


# ---------------------------------------------------------------------
# Faithful seed pipeline, built on the retained reference kernels
# ---------------------------------------------------------------------
def _seed_tile_permutation(
    num_elements: int, num_bitplanes: int, warp_size: int = 32
) -> np.ndarray:
    """Seed register-block permutation: rebuilt on every call (no cache)."""
    tile = warp_size * num_bitplanes
    n_full = (num_elements // tile) * tile
    perm = np.arange(num_elements)
    if n_full:
        base = np.arange(num_bitplanes * warp_size).reshape(
            num_bitplanes, warp_size
        ).T.ravel()
        tiles = np.arange(0, n_full, tile)[:, None] + base[None, :]
        perm[:n_full] = tiles.ravel()
    return perm


def _seed_encode(data: np.ndarray, num_bitplanes: int):
    """Seed encode_bitplanes: per-plane transpose, per-call permutation."""
    flat = np.ascontiguousarray(data).reshape(-1)
    if flat.size and not np.isfinite(flat).all():
        raise ValueError("non-finite input")
    abs_vals = np.abs(flat.astype(np.float64, copy=False))
    max_abs = float(abs_vals.max()) if flat.size else 0.0
    exponent = 0 if max_abs == 0.0 else math.frexp(max_abs)[1]
    scale = math.ldexp(1.0, num_bitplanes - exponent)
    mags = np.floor(abs_vals * scale).astype(np.uint64)
    np.minimum(mags, np.uint64((1 << num_bitplanes) - 1), out=mags)
    signs = np.signbit(flat).astype(np.uint8)
    perm = _seed_tile_permutation(flat.size, num_bitplanes)
    planes = extract_planes_reference(signs[perm], mags[perm], num_bitplanes)
    return planes, (exponent, max_abs, flat.size)


def _seed_decode(planes, meta, num_bitplanes: int, dtype) -> np.ndarray:
    """Seed decode_bitplanes: per-plane inject, per-call inverse perm."""
    exponent, max_abs, n = meta
    signs, mags = inject_planes_reference(planes, n, num_bitplanes)
    perm = _seed_tile_permutation(n, num_bitplanes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    signs = signs[inv]
    mags = mags[inv]
    scale = math.ldexp(1.0, exponent - num_bitplanes)
    values = mags.astype(np.float64) * scale
    values[signs.astype(bool)] *= -1.0
    return values.astype(dtype, copy=False)


# ---------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------
def _best_time(fn, reps: int = REPS):
    """Best-of-reps wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _times_interleaved(fns, reps: int = REPS, setups=None):
    """Per-rep walls of each function, run round-robin: ``(reps, len(fns))``.

    Ratios between the functions are what the sweep gates, and this box
    drifts by tens of percent within seconds: timing the candidates in
    alternation exposes each to the same drift. The order reverses every
    rep because a decode's wall depends on what its predecessor left in
    the allocator (same code reads 0.26 or 0.37 ms by position alone).
    ``setups[i]``, where given, runs before the timer and its result is
    ``fns[i]``'s argument (an in-place recompose's starting copy).
    """
    walls = np.empty((reps, len(fns)))
    results = [None] * len(fns)
    setups = setups or [None] * len(fns)
    for rep in range(reps):
        order = range(len(fns)) if rep % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            args = () if setups[i] is None else (setups[i](),)
            t0 = time.perf_counter()
            results[i] = fns[i](*args)
            walls[rep, i] = time.perf_counter() - t0
    return walls, results


def _decode_forced(codec: HuffmanCodec, blob: bytes, per_round: int):
    """``codec.decode`` with the regime rule's constant overridden."""
    saved = huffman.SHORT_STREAM_BYTES_PER_ROUND
    huffman.SHORT_STREAM_BYTES_PER_ROUND = per_round
    try:
        return codec.decode(blob)
    finally:
        huffman.SHORT_STREAM_BYTES_PER_ROUND = saved


def huffman_decode_sweep(sizes=SWEEP_SIZES, reps: int = SWEEP_REPS) -> dict:
    """Decode wall per stream size: chosen regime, both forced, reference.

    Inputs are zero-heavy like low bit-plane groups (60% zero bytes).
    ``rows`` encode them in 1024-symbol chunks, the chunk size their
    recorded ratios were first measured at, so each keeps its
    denominator. ``vs_lockstep`` is the gain over the decode that ran
    the lockstep loop at every size. The ratio keys deliberately avoid
    the word "speedup": a 0.2 ms decode against a 5 ms one reads 19x-28x
    from run to run, so ``check_regression.py``'s 80%-of-recorded rule
    would flake; :func:`check_sweep_floors` gates them on fixed floors.
    ``chunk_rows`` time the same inputs at the default chunk size
    against their 1024-symbol streams (the evidence behind
    ``DEFAULT_CHUNK_SYMBOLS``): ``vs_1024_chunks`` is the median paired
    ratio of the 1024-symbol decode over the default one, and
    ``bytes_vs_1024_chunks`` the ratio of the streams' sizes.
    """
    codec = HuffmanCodec(RECORDED_CHUNK_SYMBOLS)
    default = HuffmanCodec()
    rng = np.random.default_rng(13)
    limit = huffman.SHORT_STREAM_BYTES_PER_ROUND
    rows, chunk_rows = [], []
    for n in sizes:
        data = np.where(
            rng.random(n) < 0.6, 0, rng.integers(0, 256, n)
        ).astype(np.uint8)
        blob = codec.encode(data)
        payload = codec._parse_stream(blob)[-1].size
        rounds = min(codec.chunk_symbols, n)
        walls, outs = _times_interleaved([
            lambda: decode_reference(blob),
            lambda: codec.decode(blob),
            lambda: _decode_forced(codec, blob, 0),
        ], reps)
        for out in outs:
            assert np.array_equal(out, data), f"decode diverged at n={n}"
        t_ref, t_fast, t_lock = walls.min(axis=0)
        row = {
            "num_symbols": n,
            "payload_bytes": payload,
            "payload_bytes_per_round": payload / rounds,
            "regime": "walk" if payload <= limit * rounds else "lockstep",
            "decode_reference_ms": t_ref * 1e3,
            "decode_lockstep_ms": t_lock * 1e3,
            "decode_fast_ms": t_fast * 1e3,
            # Median of the per-rep paired ratios, not a ratio of bests:
            # a burst hits both sides of a pair or neither.
            "vs_reference": float(np.median(walls[:, 0] / walls[:, 1])),
            "vs_lockstep": float(np.median(walls[:, 2] / walls[:, 1])),
        }
        if payload <= MAX_FORCED_WALK_FACTOR * limit * rounds:
            # Timed apart from the gated trio: the walk frees ~200 bytes
            # per payload byte, and whichever decode runs next inherits
            # that warm heap (a same-code pair read 0.81x with the walk
            # in the rotation).
            t_walk, out_walk = _best_time(
                lambda: _decode_forced(codec, blob, 1 << 40), reps
            )
            assert np.array_equal(out_walk, data)
            row["decode_walk_ms"] = t_walk * 1e3
        rows.append(row)

        small = default.encode(data)
        payload = default._parse_stream(small)[-1].size
        rounds = min(default.chunk_symbols, n)
        walls, outs = _times_interleaved([
            lambda: codec.decode(blob),
            lambda: default.decode(small),
        ], reps)
        for out in outs:
            assert np.array_equal(out, data), f"decode diverged at n={n}"
        chunk_rows.append({
            "num_symbols": n,
            "chunk_symbols": default.chunk_symbols,
            "payload_bytes": payload,
            "regime": "walk" if payload <= limit * rounds else "lockstep",
            "decode_ms": float(walls[:, 1].min()) * 1e3,
            "decode_1024_chunks_ms": float(walls[:, 0].min()) * 1e3,
            "vs_1024_chunks": float(np.median(walls[:, 0] / walls[:, 1])),
            "bytes_vs_1024_chunks": len(small) / len(blob),
        })
    return {"short_stream_bytes_per_round": limit, "rows": rows,
            "chunk_rows": chunk_rows}


def huffman_encode_sweep(
    sizes=ENCODE_SWEEP_SIZES, reps: int = SWEEP_REPS
) -> dict:
    """Encode wall per stream size: ``HuffmanCodec.encode`` against the
    seed ``encode_reference``, interleaved, streams asserted equal.

    Inputs are zero-heavy like low bit-plane groups (60% zero bytes) at
    the default chunk size, so the encoder packs words of four codes.
    ``vs_reference`` is the median paired ratio; as in
    :func:`huffman_decode_sweep`, no key says "speedup".
    """
    codec = HuffmanCodec()
    rng = np.random.default_rng(17)
    rows = []
    for n in sizes:
        data = np.where(
            rng.random(n) < 0.6, 0, rng.integers(0, 256, n)
        ).astype(np.uint8)
        walls, outs = _times_interleaved([
            lambda: encode_reference(data, codec.chunk_symbols),
            lambda: codec.encode(data),
        ], reps)
        assert outs[0] == outs[1], f"encode diverged at n={n}"
        rows.append({
            "num_symbols": n,
            "stream_bytes": len(outs[1]),
            "encode_reference_ms": float(walls[:, 0].min()) * 1e3,
            "encode_ms": float(walls[:, 1].min()) * 1e3,
            "vs_reference": float(np.median(walls[:, 0] / walls[:, 1])),
        })
    return {"chunk_symbols": codec.chunk_symbols, "rows": rows}


def huffman_batch_sweep(
    sizes=HUFFMAN_BATCH_SIZES, reps: int = SWEEP_REPS,
    caps=SLAB_CAPS, walks=WALK_LENGTHS,
) -> dict:
    """Decode wall of S short streams: one call against a stream loop.

    Every stream is a zero-heavy 1792-symbol group, coded on its own
    (its own lengths and max_len), so a call mixes tables the way a
    batch read's groups do. ``vs_loop`` is the median per-rep ratio of a
    ``decode`` per stream (each stream its own walk) over one
    ``decode_many`` (one walk per slab). ``cap_rows`` time the largest S
    at each slab cap in alternation; the cap is a module constant, set
    where these flatten. ``walk_rows`` time it at each per-lane walk
    length (``_WALK_SYMBOLS``) the same way. Outputs are asserted equal
    on every row.
    """
    codec = HuffmanCodec()
    rng = np.random.default_rng(33)
    datas = [
        np.where(rng.random(HUFFMAN_BATCH_SYMBOLS) < 0.6, 0,
                 rng.integers(0, 256, HUFFMAN_BATCH_SYMBOLS)).astype(np.uint8)
        for _ in range(max(sizes))
    ]
    blobs = [codec.encode(d) for d in datas]
    rows = []
    for s in sizes:
        walls, outs = _times_interleaved([
            lambda: [codec.decode(b) for b in blobs[:s]],
            lambda: codec.decode_many(blobs[:s]),
        ], reps)
        for out in outs:
            assert all(np.array_equal(a, b) for a, b in zip(out, datas)), \
                f"batched decode diverged at {s} streams"
        t_loop, t_batch = walls.min(axis=0)
        rows.append({
            "streams": s,
            "payload_bytes": sum(
                codec._parse_stream(b)[-1].size for b in blobs[:s]),
            "loop_ms": t_loop * 1e3,
            "batch_ms": t_batch * 1e3,
            "vs_loop": float(np.median(walls[:, 0] / walls[:, 1])),
        })
    saved = huffman.SLAB_PAYLOAD_BYTES

    def capped(cap):
        def run():
            huffman.SLAB_PAYLOAD_BYTES = cap
            try:
                return codec.decode_many(blobs)
            finally:
                huffman.SLAB_PAYLOAD_BYTES = saved
        return run

    walls, outs = _times_interleaved([capped(c) for c in caps], reps)
    for out in outs:
        assert all(np.array_equal(a, b) for a, b in zip(out, datas))
    cap_rows = [{"slab_payload_bytes": c, "batch_median_ms": float(w) * 1e3}
                for c, w in zip(caps, np.median(walls, axis=0))]

    def walking(walk):
        def run():
            with mock.patch.object(huffman, "_WALK_SYMBOLS", walk):
                return codec.decode_many(blobs)
        return run

    walls, outs = _times_interleaved([walking(w) for w in walks], reps)
    for out in outs:
        assert all(np.array_equal(a, b) for a, b in zip(out, datas))
    walk_rows = [{"walk_symbols": k, "batch_median_ms": float(w) * 1e3}
                 for k, w in zip(walks, np.median(walls, axis=0))]
    return {"slab_payload_bytes": saved, "stream_symbols":
            HUFFMAN_BATCH_SYMBOLS, "rows": rows, "cap_rows": cap_rows,
            "walk_symbols": huffman._WALK_SYMBOLS, "walk_rows": walk_rows}


def _sweep_histogram(shape: str, present: int, rng) -> np.ndarray:
    """A 256-bin histogram with *present* nonzero counts of *shape*."""
    if shape == "uniform":
        weights = rng.integers(900, 1100, present)
    elif shape == "zero_heavy":  # a leading bit-plane group: 60% zeros
        weights = rng.integers(900, 1100, present)
        weights[0] = 3 * weights[1:].sum() // 2 + 1
    else:  # consecutive Fibonacci weights: the deepest tree, so the
        # length limiter runs (capped where the counts pass 2**40)
        fib = [1, 1]
        while fib[-1] < 1 << 40:
            fib.append(fib[-1] + fib[-2])
        weights = np.array(fib)[np.minimum(np.arange(present), len(fib) - 1)]
    freqs = np.zeros(256, dtype=np.int64)
    freqs[np.sort(rng.choice(256, present, replace=False))] = weights
    return freqs


def code_length_sweep(
    reps: int = SWEEP_REPS, calls: int = CODE_LENGTH_CALLS
) -> dict:
    """Code construction wall per alphabet size and histogram shape.

    ``vs_reference`` is the gain of the two-queue
    ``build_code_lengths`` over the retained heap (lengths asserted
    equal); ``ratio_bound_us`` is one ``huffman_ratio_upper_bound``, the
    price of finding out that no construction is needed. As in
    :func:`huffman_decode_sweep`, no key says "speedup".
    """
    def batch(fn):
        return lambda: [fn() for _ in range(calls)][-1]

    rng = np.random.default_rng(20)
    rows = []
    for shape in CODE_LENGTH_HISTOGRAMS:
        for present in CODE_LENGTH_SYMBOLS:
            freqs = _sweep_histogram(shape, present, rng)
            n = int(freqs.sum())
            walls, outs = _times_interleaved([
                batch(lambda: build_code_lengths_reference(freqs)),
                batch(lambda: huffman.build_code_lengths(freqs)),
                batch(lambda: huffman.huffman_ratio_upper_bound(n, freqs)),
            ], reps * CODE_LENGTH_REPS_AT_2 if present == 2 else reps)
            assert np.array_equal(outs[0], outs[1]), \
                f"two-queue lengths diverged from the heap: {shape} {present}"
            t_ref, t_new, t_bound = walls.min(axis=0) / calls
            rows.append({
                "histogram": shape,
                "present_symbols": present,
                "max_code_length": int(outs[1].max()),
                "build_reference_us": t_ref * 1e6,
                "build_us": t_new * 1e6,
                "ratio_bound_us": t_bound * 1e6,
                "vs_reference": float(np.median(walls[:, 0] / walls[:, 1])),
            })
    return {"calls_per_timing": calls, "rows": rows}


def tile_batch_sweep(
    sizes=TILE_BATCH_SIZES, tile=BATCH_TILE, reps: int = REPS
) -> dict:
    """Per-tile decode wall of one staircase step, K tiles per batch.

    K fresh reconstructors over same-shape eager tiles (sharing the
    process's one transform of their geometry, as in the tiled engine)
    plan a first step at relative tolerance 1e-3 and decode it in one
    ``Reconstructor.decode_steps`` call; ``per_tile_us`` is the
    best-of-reps wall over K. Planning and building the reconstructors
    are outside the timer. Every tile of a
    batch must decode to the bytes of its own one-step call.
    """
    fields = [
        Refactorer(tile).refactor(gen.gaussian_random_field(
            tile, -2.0, seed=30 + i, dtype=np.float32), name=f"t{i}")
        for i in range(max(sizes))
    ]

    def items(k):
        recons = [Reconstructor(f) for f in fields[:k]]
        return [(r, r.plan_step(1e-3, relative=True), None) for r in recons]

    rows = []
    for k in sizes:
        best, results = float("inf"), None
        for _ in range(reps):
            batch = items(k)
            t0 = time.perf_counter()
            results = Reconstructor.decode_steps(batch)
            best = min(best, time.perf_counter() - t0)
        for (recon, step, _), result in zip(items(k), results):
            one = recon.decode_step(step)
            assert one.data.tobytes() == result.data.tobytes(), \
                f"batch of {k} diverged from the one-tile call"
        rows.append({"tiles": k, "batch_ms": best * 1e3,
                     "per_tile_us": best / k * 1e6})
    return {"tile_shape": list(tile), "relative_tolerance": 1e-3,
            "rows": rows}


def _in_place(transform):
    """Recompose a starting copy in place (the copy is a setup of
    :func:`_times_interleaved`, outside the timer)."""
    return lambda work: transform.recompose(work, overwrite=True)


def recompose_sweep(
    edges=RECOMPOSE_EDGES, reps: int = RECOMPOSE_REPS,
    stack_tiles: int = STACK_TILES, slab_edges=SLAB_EDGES,
    slab_sizes=SLAB_SIZES,
) -> dict:
    """The transform's wall per cube edge, natural layout vs corner-packed.

    Per edge, both transforms recompose the same levels of a Gaussian
    random field (each assembled in its own layout) in place, and
    decompose the field, in alternating reps; a recompose's starting
    copy is outside the timer. ``vs_corner_packed`` (recompose) and
    ``decompose_vs_corner_packed`` are medians of the per-rep ratios;
    the outputs must be byte-identical. ``stack`` recomposes a read
    batch's ``(stack_tiles, 16, 16, 16)`` stack the same way. Each
    ``slab_rows`` entry times the natural transform at one edge with
    ``transform._SLAB_BYTES`` patched to each of *slab_sizes*
    (``1 << 30``: one slab per step), in alternation in one process: the
    evidence behind the constant.
    """
    rows = []
    for edge in edges:
        shape = (edge,) * 3
        natural = MultilevelTransform(shape)
        corner = CornerPackedTransform(shape)
        field = gen.gaussian_random_field(shape, -2.0, seed=edge)
        levels = natural.extract_levels(natural.decompose(field))
        walls, out = _times_interleaved(
            [_in_place(natural), _in_place(corner),
             lambda: natural.decompose(field), lambda: corner.decompose(field)],
            reps, setups=[natural.assemble_levels(levels).copy,
                          corner.assemble_levels(levels).copy, None, None])
        assert out[0].tobytes() == out[1].tobytes(), \
            f"natural recompose diverged from corner-packed at {shape}"
        for got, want in zip(natural.extract_levels(out[2]),
                             corner.extract_levels(out[3])):
            assert got.tobytes() == want.tobytes(), \
                f"natural decompose diverged from corner-packed at {shape}"
        rows.append({
            "edge": edge,
            "natural_ms": float(walls[:, 0].min()) * 1e3,
            "corner_packed_ms": float(walls[:, 1].min()) * 1e3,
            "vs_corner_packed": float(np.median(walls[:, 1] / walls[:, 0])),
            "decompose_ms": float(walls[:, 2].min()) * 1e3,
            "corner_packed_decompose_ms": float(walls[:, 3].min()) * 1e3,
            "decompose_vs_corner_packed": float(
                np.median(walls[:, 3] / walls[:, 2])),
        })

    tile = (16, 16, 16)
    natural, corner = MultilevelTransform(tile), CornerPackedTransform(tile)
    levels = [natural.extract_levels(natural.decompose(
        gen.gaussian_random_field(tile, -2.0, seed=k)))
        for k in range(stack_tiles)]
    walls, out = _times_interleaved(
        [_in_place(natural), _in_place(corner)], reps,
        setups=[np.stack([natural.assemble_levels(lv) for lv in levels]).copy,
                np.stack([corner.assemble_levels(lv) for lv in levels]).copy])
    assert out[0].tobytes() == out[1].tobytes(), \
        "natural stack recompose diverged from corner-packed"
    stack = {"tiles": stack_tiles, "tile": list(tile),
             "natural_ms": float(walls[:, 0].min()) * 1e3,
             "corner_packed_ms": float(walls[:, 1].min()) * 1e3,
             "vs_corner_packed": float(np.median(walls[:, 1] / walls[:, 0]))}

    def at_size(fn, size):
        def run(*args):
            transform_module._SLAB_BYTES = size
            return fn(*args)
        return run

    slab_rows, shipped = [], transform_module._SLAB_BYTES
    try:
        for edge in slab_edges:
            shape = (edge,) * 3
            natural = MultilevelTransform(shape)
            field = gen.gaussian_random_field(shape, -2.0, seed=edge)
            fns = [at_size(fn, size) for size in slab_sizes
                   for fn in (_in_place(natural),
                              lambda: natural.decompose(field))]
            walls, out = _times_interleaved(
                fns, reps, setups=[natural.decompose(field).copy, None]
                * len(slab_sizes))
            walls = np.median(walls, axis=0) * 1e3
            assert len({o.tobytes() for o in out[0::2]}) == 1
            assert len({o.tobytes() for o in out[1::2]}) == 1
            slab_rows.append({"edge": edge, "sizes": [
                {"slab_bytes": size, "recompose_ms": float(walls[2 * i]),
                 "decompose_ms": float(walls[2 * i + 1])}
                for i, size in enumerate(slab_sizes)]})
    finally:
        transform_module._SLAB_BYTES = shipped
    return {"dtype": "float64", "reps": reps, "rows": rows, "stack": stack,
            "slab_bytes": shipped,
            "slab_rows": slab_rows}


def run_benchmarks(
    n: int = N_ELEMENTS, num_bitplanes: int = NUM_BITPLANES, reps: int = REPS,
    sweep_sizes=SWEEP_SIZES, sweep_reps: int = SWEEP_REPS,
    code_length_calls: int = CODE_LENGTH_CALLS,
    tile_batch_sizes=TILE_BATCH_SIZES, batch_tile=BATCH_TILE,
    huffman_batch_sizes=HUFFMAN_BATCH_SIZES,
    recompose_edges=RECOMPOSE_EDGES, slab_edges=SLAB_EDGES,
    encode_sweep_sizes=ENCODE_SWEEP_SIZES,
) -> dict:
    """Measure all hot paths; returns the BENCH_hotpaths payload."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal(n).astype(np.float32)

    # -- bitplane transpose stage (the inner hot loop) ------------------
    signs = rng.integers(0, 2, n).astype(np.uint8)
    mags = rng.integers(0, 1 << num_bitplanes, n).astype(np.uint64)
    t_ext_ref, planes_ref = _best_time(
        lambda: extract_planes_reference(signs, mags, num_bitplanes), reps
    )
    t_ext, planes_fast = _best_time(
        lambda: extract_planes(signs, mags, num_bitplanes), reps
    )
    assert all(
        a.tobytes() == b.tobytes() for a, b in zip(planes_ref, planes_fast)
    ), "fast extract diverged from reference"
    t_inj_ref, im_ref = _best_time(
        lambda: inject_planes_reference(planes_ref, n, num_bitplanes), reps
    )
    zero = begin_decode_state(
        num_elements=n, num_bitplanes=num_bitplanes, exponent=0,
        max_abs=0.0, dtype=np.float64)
    t_inj, im_fast = _best_time(
        lambda: apply_planes(zero, planes_fast, 0), reps
    )
    assert np.array_equal(im_ref[0] << np.uint8(7), im_fast.signs)
    assert np.array_equal(im_ref[1], im_fast.words)

    # -- end-to-end encode/decode (register_block, the paper default) ---
    t_enc_seed, (seed_planes, seed_meta) = _best_time(
        lambda: _seed_encode(data, num_bitplanes), reps
    )
    t_enc, stream = _best_time(
        lambda: encode_bitplanes(data, num_bitplanes), reps
    )
    t_dec_seed, rec_seed = _best_time(
        lambda: _seed_decode(seed_planes, seed_meta, num_bitplanes,
                             np.float32),
        reps,
    )
    t_dec, rec_fast = _best_time(lambda: decode_bitplanes(stream), reps)
    assert np.array_equal(rec_seed, rec_fast), \
        "fast codec decoded different values than the seed pipeline"

    # -- Huffman ---------------------------------------------------------
    codec = HuffmanCodec(RECORDED_CHUNK_SYMBOLS)
    hdata = (rng.standard_normal(n) * 6).astype(np.int64).astype(np.uint8)
    t_henc_ref, blob_ref = _best_time(
        lambda: encode_reference(hdata, RECORDED_CHUNK_SYMBOLS), reps
    )
    t_henc, blob = _best_time(lambda: codec.encode(hdata), reps)
    assert blob == blob_ref, \
        "word-packed encode diverged from the per-bit reference encoder"
    t_hdec_ref, out_ref = _best_time(
        lambda: decode_reference(blob), reps
    )
    t_hdec, out_fast = _best_time(lambda: codec.decode(blob), reps)
    assert np.array_equal(out_ref, out_fast)
    assert np.array_equal(out_fast, hdata)

    # -- RLE -------------------------------------------------------------
    rdata = np.repeat(
        rng.integers(0, 4, n // 64).astype(np.uint8), 64
    )[:n]
    t_renc, rblob = _best_time(lambda: rle_encode(rdata), reps)
    t_rdec, rout = _best_time(lambda: rle_decode(rblob), reps)
    assert np.array_equal(rout, rdata)

    mb = n / 1e6
    return {
        "benchmark": "hotpaths",
        "generated_unix": time.time(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "num_elements": n,
            "num_bitplanes": num_bitplanes,
            "reps": reps,
        },
        "bitplane_transpose": {
            "extract_reference_ms": t_ext_ref * 1e3,
            "extract_fast_ms": t_ext * 1e3,
            "extract_speedup": t_ext_ref / t_ext,
            "inject_reference_ms": t_inj_ref * 1e3,
            "inject_fast_ms": t_inj * 1e3,
            "inject_speedup": t_inj_ref / t_inj,
            "combined_speedup": (t_ext_ref + t_inj_ref) / (t_ext + t_inj),
        },
        "bitplane_codec": {
            "encode_seed_ms": t_enc_seed * 1e3,
            "encode_fast_ms": t_enc * 1e3,
            "encode_speedup": t_enc_seed / t_enc,
            "decode_seed_ms": t_dec_seed * 1e3,
            "decode_fast_ms": t_dec * 1e3,
            "decode_speedup": t_dec_seed / t_dec,
            "combined_speedup": (t_enc_seed + t_dec_seed) / (t_enc + t_dec),
            "encode_throughput_meps": mb / t_enc,
            "decode_throughput_meps": mb / t_dec,
        },
        "huffman": {
            "encode_reference_ms": t_henc_ref * 1e3,
            "encode_ms": t_henc * 1e3,
            "encode_speedup": t_henc_ref / t_henc,
            "decode_reference_ms": t_hdec_ref * 1e3,
            "decode_fast_ms": t_hdec * 1e3,
            "decode_speedup": t_hdec_ref / t_hdec,
            "encode_throughput_mbps": mb / t_henc,
            "decode_throughput_mbps": mb / t_hdec,
        },
        "huffman_encode_sweep": huffman_encode_sweep(
            encode_sweep_sizes, sweep_reps),
        "huffman_decode_sweep": huffman_decode_sweep(sweep_sizes, sweep_reps),
        "code_length_sweep": code_length_sweep(sweep_reps, code_length_calls),
        "huffman_batch_sweep": huffman_batch_sweep(
            huffman_batch_sizes, sweep_reps),
        "tile_batch_sweep": tile_batch_sweep(
            tile_batch_sizes, batch_tile, reps),
        "recompose_sweep": recompose_sweep(recompose_edges,
                                           slab_edges=slab_edges),
        "rle": {
            "encode_ms": t_renc * 1e3,
            "decode_ms": t_rdec * 1e3,
            "encode_throughput_mbps": mb / t_renc,
            "decode_throughput_mbps": mb / t_rdec,
        },
    }


def write_results(results: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------
# pytest entry points (opt-in via the `bench` marker)
# ---------------------------------------------------------------------
def test_hotpaths_meet_speedup_floors():
    """Fast paths beat the seed paths by the PR's acceptance margins."""
    results = run_benchmarks()
    write_results(results)
    codec = results["bitplane_codec"]
    huff = results["huffman"]
    assert codec["combined_speedup"] >= MIN_CODEC_SPEEDUP, codec
    assert huff["decode_speedup"] >= MIN_HUFFMAN_SPEEDUP, huff
    assert huff["encode_speedup"] >= MIN_HUFFMAN_ENCODE_SPEEDUP, huff
    check_sweep_floors(results["huffman_decode_sweep"])
    check_code_length_floors(results["code_length_sweep"])
    check_batch_floors(results["huffman_batch_sweep"])
    check_recompose_floors(results["recompose_sweep"])


def check_recompose_floors(sweep: dict) -> None:
    """Floors of the recompose sweep against the corner-packed oracle."""
    rows = {row["edge"]: row for row in sweep["rows"]}
    assert rows[80]["vs_corner_packed"] >= MIN_RECOMPOSE_GAIN_AT_80, rows[80]
    assert rows[16]["vs_corner_packed"] >= MIN_RECOMPOSE_GAIN_AT_16, rows[16]


def check_batch_floors(sweep: dict) -> None:
    """Floors of the Huffman batch sweep against the per-stream loop."""
    rows = {row["streams"]: row for row in sweep["rows"]}
    assert rows[16]["vs_loop"] >= MIN_BATCH_GAIN_AT_16, rows[16]
    assert rows[1]["vs_loop"] >= MIN_BATCH_GAIN_AT_1, rows[1]


def check_code_length_floors(sweep: dict) -> None:
    """ISSUE 20 floors on the code construction sweep."""
    for row in sweep["rows"]:
        unlimited = row["max_code_length"] < huffman.MAX_CODE_LENGTH
        floor = (MIN_FULL_ALPHABET_CONSTRUCTION_GAIN
                 if row["present_symbols"] == 256 and unlimited
                 else MIN_SWEEP_SPEEDUP)
        assert row["vs_reference"] >= floor, row


def check_sweep_floors(sweep: dict) -> None:
    """ISSUE 13 floors on the Huffman decode size sweep."""
    rows = {row["num_symbols"]: row for row in sweep["rows"]}
    assert rows[1792]["vs_lockstep"] >= MIN_SHORT_STREAM_SPEEDUP, rows[1792]
    for row in rows.values():
        assert row["vs_lockstep"] >= MIN_SWEEP_SPEEDUP, row


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    if "--smoke" in args:
        # Tiny sizes: the equality assertions inside run_benchmarks
        # still exercise every fast-vs-reference pair; no floors, no
        # baseline overwrite.
        run_benchmarks(n=1 << 14, reps=1, sweep_sizes=SMOKE_SWEEP_SIZES,
                       sweep_reps=1, code_length_calls=1,
                       tile_batch_sizes=SMOKE_TILE_BATCH_SIZES,
                       batch_tile=(8, 8, 8),
                       huffman_batch_sizes=SMOKE_HUFFMAN_BATCH_SIZES,
                       recompose_edges=SMOKE_RECOMPOSE_EDGES,
                       slab_edges=SMOKE_SLAB_EDGES,
                       encode_sweep_sizes=SMOKE_ENCODE_SWEEP_SIZES)
        print("bench_hotpaths smoke ok (tiny sizes, no floors, "
              "nothing written)")
        return
    results = run_benchmarks()
    path = write_results(results)
    print(f"wrote {path}")
    check_sweep_floors(results["huffman_decode_sweep"])
    check_code_length_floors(results["code_length_sweep"])
    check_batch_floors(results["huffman_batch_sweep"])
    check_recompose_floors(results["recompose_sweep"])
    codec = results["bitplane_codec"]
    tr = results["bitplane_transpose"]
    huff = results["huffman"]
    print(
        f"transpose: extract {tr['extract_speedup']:.1f}x, "
        f"inject {tr['inject_speedup']:.1f}x "
        f"(combined {tr['combined_speedup']:.1f}x)"
    )
    print(
        f"bitplane codec: encode {codec['encode_speedup']:.1f}x, "
        f"decode {codec['decode_speedup']:.1f}x "
        f"(combined {codec['combined_speedup']:.1f}x)"
    )
    print(
        f"huffman: encode {huff['encode_speedup']:.1f}x, "
        f"decode {huff['decode_speedup']:.1f}x"
    )
    for row in results["huffman_encode_sweep"]["rows"]:
        print(
            f"huffman encode n={row['num_symbols']:>7}: "
            f"{row['encode_ms']:.2f} ms, "
            f"{row['vs_reference']:.1f}x vs reference"
        )
    for row in results["huffman_decode_sweep"]["rows"]:
        print(
            f"huffman decode n={row['num_symbols']:>7} ({row['regime']}): "
            f"{row['decode_fast_ms']:.2f} ms, "
            f"{row['vs_lockstep']:.1f}x vs lockstep, "
            f"{row['vs_reference']:.1f}x vs reference"
        )
    for row in results["huffman_decode_sweep"]["chunk_rows"]:
        print(
            f"huffman decode n={row['num_symbols']:>7} at "
            f"{row['chunk_symbols']}-symbol chunks ({row['regime']}): "
            f"{row['decode_ms']:.2f} ms, {row['vs_1024_chunks']:.2f}x vs "
            f"1024-symbol chunks, {row['bytes_vs_1024_chunks']:.4f}x bytes"
        )
    for row in results["code_length_sweep"]["rows"]:
        print(
            f"code lengths {row['histogram']:>14} x "
            f"{row['present_symbols']:>3} symbols: "
            f"{row['build_us']:.0f} us, "
            f"{row['vs_reference']:.1f}x vs heap reference, "
            f"ratio bound {row['ratio_bound_us']:.0f} us"
        )
    for row in results["huffman_batch_sweep"]["rows"]:
        print(
            f"huffman batch of {row['streams']:>2} x 1792 B: "
            f"{row['batch_ms']:.2f} ms, {row['vs_loop']:.2f}x vs "
            "a decode per stream"
        )
    print("huffman batch by walk length: " + ", ".join(
        f"{row['walk_symbols']} {row['batch_median_ms']:.2f} ms"
        for row in results["huffman_batch_sweep"]["walk_rows"]))
    for row in results["tile_batch_sweep"]["rows"]:
        print(
            f"tile batch of {row['tiles']:>2} x 16^3: "
            f"{row['per_tile_us']:.0f} us per tile"
        )
    sweep = results["recompose_sweep"]
    for row in sweep["rows"]:
        print(
            f"recompose {row['edge']}^3: {row['natural_ms']:.2f} ms, "
            f"{row['vs_corner_packed']:.2f}x vs corner-packed; decompose "
            f"{row['decompose_ms']:.2f} ms, "
            f"{row['decompose_vs_corner_packed']:.2f}x"
        )
    stack = sweep["stack"]
    print(f"recompose {stack['tiles']} x 16^3 stack: "
          f"{stack['natural_ms']:.2f} ms, "
          f"{stack['vs_corner_packed']:.2f}x vs corner-packed")
    for row in sweep["slab_rows"]:
        print(f"slab bytes at {row['edge']}^3 (recompose/decompose ms): "
              + ", ".join(f"{r['slab_bytes'] >> 10}K "
                          f"{r['recompose_ms']:.2f}/{r['decompose_ms']:.2f}"
                          for r in row["sizes"]))
    print(
        f"rle: encode {results['rle']['encode_throughput_mbps']:.0f} MB/s, "
        f"decode {results['rle']['decode_throughput_mbps']:.0f} MB/s"
    )


if __name__ == "__main__":
    main()
