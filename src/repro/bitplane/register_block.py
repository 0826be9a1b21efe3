"""Register-block bitplane encoding (paper Section 4.3).

Each GPU thread encodes ``B`` elements cached in registers — no
inter-thread communication — while loads stay fully coalesced because
lane ``t`` of a warp reads elements ``t, t + W, t + 2W, …`` (neighboring
lanes touch consecutive addresses). The price is that within every
``W × B`` tile the stream holds bits in warp-transposed order, which
slightly reduces bitplane compressibility (neighbor bits in the stream
come from elements ``B`` apart). This module provides the exact tile
permutation so that compressibility effect is real in our streams, plus
its inverse for decoding.

Permutations are deterministic in ``(num_elements, num_bitplanes,
warp_size)``, so both directions are memoized on that key and returned
as *read-only* arrays: every encode/decode of a same-shaped level reuses
the cached index vector instead of rebuilding the ``arange`` + tile
index matrix (fancy-indexing *with* a read-only index array is fine).
The decode engine keeps neither direction: it caches only the
permutation composed with where a level's values land
(:func:`stored_order_targets`), so one scatter both un-permutes and
places them.
The cache is LRU-evicted on a total-bytes budget, not an entry count —
index vectors scale with the data, so an entry cap alone could pin
gigabytes in a long-lived process.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import lru_cache
from threading import Lock

import numpy as np

#: Total bytes of memoized permutation arrays (all three caches share it).
PERM_CACHE_BYTE_BUDGET = 256 * 1024 * 1024

CacheInfo = namedtuple("CacheInfo", "hits misses currsize currbytes")


class _ByteBudgetCache:
    """LRU keyed cache evicting by total array bytes, thread-safe."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._lock = Lock()

    def get_or_build(self, key: tuple, build) -> np.ndarray:
        with self._lock:
            arr = self._entries.get(key)
            if arr is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return arr
            self._misses += 1
        arr = build()
        with self._lock:
            if key not in self._entries and arr.nbytes <= self.budget:
                self._entries[key] = arr
                self._bytes += arr.nbytes
                while self._bytes > self.budget:
                    _, old = self._entries.popitem(last=False)
                    self._bytes -= old.nbytes
        return arr

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self._hits, self._misses, len(self._entries), self._bytes
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0


# The documented budget bounds *total* cached bytes, so the two
# directions and the composed targets get a third each.
_forward_cache = _ByteBudgetCache(PERM_CACHE_BYTE_BUDGET // 3)
_inverse_cache = _ByteBudgetCache(PERM_CACHE_BYTE_BUDGET // 3)
_targets_cache = _ByteBudgetCache(PERM_CACHE_BYTE_BUDGET // 3)


@lru_cache(maxsize=32)
def _tile_perm(warp_size: int, num_bitplanes: int) -> np.ndarray:
    """Permutation within one tile: stream position -> element offset.

    Stream position ``t*B + i`` (lane ``t``, register slot ``i``) holds
    the element at offset ``i*W + t`` (the coalesced load pattern).
    """
    if warp_size < 1 or num_bitplanes < 1:
        raise ValueError("warp_size and num_bitplanes must be >= 1")
    return np.arange(num_bitplanes * warp_size).reshape(
        num_bitplanes, warp_size
    ).T.ravel()


def _build_tile_permutation(
    num_elements: int, num_bitplanes: int, warp_size: int
) -> np.ndarray:
    tile = warp_size * num_bitplanes
    n_full = (num_elements // tile) * tile
    perm = np.arange(num_elements)
    if n_full:
        base = _tile_perm(warp_size, num_bitplanes)
        tiles = np.arange(0, n_full, tile)[:, None] + base[None, :]
        perm[:n_full] = tiles.ravel()
    perm.setflags(write=False)
    return perm


def _build_inverse_tile_permutation(
    num_elements: int, num_bitplanes: int, warp_size: int
) -> np.ndarray:
    perm = tile_permutation(num_elements, num_bitplanes, warp_size)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(num_elements)
    inv.setflags(write=False)
    return inv


def tile_permutation(
    num_elements: int, num_bitplanes: int, warp_size: int = 32
) -> np.ndarray:
    """Element permutation applied before plane extraction.

    Full ``warp_size * num_bitplanes`` tiles are warp-transposed; the
    ragged tail (which a GPU would pad) stays in natural order. Cached
    per ``(num_elements, num_bitplanes, warp_size)``; the returned array
    is read-only — copy before mutating.
    """
    if warp_size < 1 or num_bitplanes < 1:
        raise ValueError("warp_size and num_bitplanes must be >= 1")
    key = (int(num_elements), int(num_bitplanes), int(warp_size))
    return _forward_cache.get_or_build(
        key, lambda: _build_tile_permutation(*key)
    )


def inverse_tile_permutation(
    num_elements: int, num_bitplanes: int, warp_size: int = 32
) -> np.ndarray:
    """Inverse of :func:`tile_permutation` (stream order -> natural).

    Cached and read-only, like :func:`tile_permutation`.
    """
    if warp_size < 1 or num_bitplanes < 1:
        raise ValueError("warp_size and num_bitplanes must be >= 1")
    key = (int(num_elements), int(num_bitplanes), int(warp_size))
    return _inverse_cache.get_or_build(
        key, lambda: _build_inverse_tile_permutation(*key)
    )


def stored_order_targets(
    targets: np.ndarray, key: tuple, num_bitplanes: int, warp_size: int = 32
) -> np.ndarray:
    """``targets[tile_permutation(targets.size, num_bitplanes,
    warp_size)]``: where each element of a warp-layout stream lands, in
    stored order, when *targets* says where each natural-order element
    lands. One scatter through it un-permutes and places the values.

    Cached per ``(key, num_bitplanes, warp_size)`` — *key* names
    *targets* — read-only, and in *targets*' dtype: NumPy converts any
    other index dtype to ``intp`` on every scatter, a fresh array each
    time. The permutation it is composed from is built for it and not
    kept.
    """
    def build():
        perm = _build_tile_permutation(targets.size, num_bitplanes, warp_size)
        composed = targets[perm]
        composed.setflags(write=False)
        return composed

    return _targets_cache.get_or_build(
        (key, int(num_bitplanes), int(warp_size)), build)


def permutation_cache_info() -> dict[str, CacheInfo]:
    """Hit/miss/size counters of the permutation caches."""
    return {
        "forward": _forward_cache.info(),
        "inverse": _inverse_cache.info(),
        "targets": _targets_cache.info(),
    }


def clear_permutation_cache() -> None:
    """Drop all memoized permutations (test isolation hook)."""
    _forward_cache.clear()
    _inverse_cache.clear()
    _targets_cache.clear()
