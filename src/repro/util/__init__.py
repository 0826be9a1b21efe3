"""Shared utilities: metrics, validation helpers, byte-level serialization."""

from repro.util.metrics import (
    bitrate,
    compression_ratio,
    l2_error,
    linf_error,
    psnr,
    relative_linf_error,
    throughput_gbps,
)
from repro.util.serialize import (
    pack_arrays,
    read_header,
    unpack_arrays,
    write_header,
)
from repro.util.validation import (
    check_dtype_floating,
    check_shape_3d,
    require,
)

__all__ = [
    "bitrate",
    "compression_ratio",
    "l2_error",
    "linf_error",
    "psnr",
    "relative_linf_error",
    "throughput_gbps",
    "pack_arrays",
    "unpack_arrays",
    "read_header",
    "write_header",
    "check_dtype_floating",
    "check_shape_3d",
    "require",
]
