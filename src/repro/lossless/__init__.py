"""Lossless encoding of bitplanes (paper Section 5).

Three base codecs with complementary strengths:

* :mod:`~repro.lossless.huffman` — canonical Huffman over bytes, built
  from scratch with the *chunked* stream structure GPU Huffman coders use
  (fixed-size symbol blocks with per-block offsets). The streams of a
  call past 8 KiB of payload (at the default chunk size) decode with
  all their blocks in one lockstep; shorter ones, most plane groups of a
  tile, share a pointer-jumping walk. Best ratios on high-order,
  zero-dominated bitplanes.
* :mod:`~repro.lossless.rle` — byte run-length coding; cheap and strong
  on the long zero runs of low-order merged bitplanes.
* :mod:`~repro.lossless.direct` — store-as-is fallback for small or
  incompressible groups.

:mod:`~repro.lossless.hybrid` implements Algorithm 2: merge every
``group_size`` consecutive bitplanes, estimate both codecs' compression
ratios with lightweight predictors, and pick Huffman / RLE / Direct Copy
per group using size and ratio thresholds.
"""

from repro.lossless.direct import direct_decode, direct_encode
from repro.lossless.huffman import (
    HuffmanCodec,
    estimate_huffman_ratio,
    huffman_decode,
    huffman_encode,
)
from repro.lossless.hybrid import (
    CompressedGroup,
    HybridConfig,
    compress_planes,
    decompress_groups,
)
from repro.lossless.rle import (
    estimate_rle_ratio,
    rle_decode,
    rle_encode,
    run_boundaries,
)

__all__ = [
    "HuffmanCodec",
    "huffman_encode",
    "huffman_decode",
    "estimate_huffman_ratio",
    "rle_encode",
    "rle_decode",
    "estimate_rle_ratio",
    "run_boundaries",
    "direct_encode",
    "direct_decode",
    "CompressedGroup",
    "HybridConfig",
    "compress_planes",
    "decompress_groups",
]
