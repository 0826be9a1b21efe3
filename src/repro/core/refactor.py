"""Data refactoring: field → portable multi-precision stream (Figure 1).

The :class:`Refactorer` runs the forward pipeline — multilevel
decomposition, per-level exponent-aligned bitplane encoding with the
selected parallelization design, and hybrid lossless compression of the
plane groups — and emits a :class:`~repro.core.stream.RefactoredField`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitplane.align import MAX_BITPLANES
from repro.bitplane.encoding import DESIGNS, encode_bitplanes
from repro.core.stream import LevelStream, RefactoredField
from repro.decompose import transform_for
from repro.decompose.norms import level_error_weights
from repro.lossless.hybrid import HybridConfig, compress_planes
from repro.util.validation import check_dtype_floating


def default_bitplanes(dtype: np.dtype) -> int:
    """Paper default: 32 planes for FP32; deeper for FP64 (mantissa-bound)."""
    return 32 if np.dtype(dtype) == np.float32 else min(52, MAX_BITPLANES)


@dataclass(frozen=True)
class RefactorConfig:
    """All tuning knobs of the refactoring pipeline in one place."""

    num_bitplanes: int | None = None  # None = dtype default
    num_levels: int | None = None  # None = deepest hierarchy
    mode: str = "hierarchical"
    min_size: int = 4
    design: str = "register_block"
    warp_size: int = 32
    signed_encoding: str = "sign_magnitude"
    hybrid: HybridConfig = field(default_factory=HybridConfig)

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(
                f"design must be one of {DESIGNS}, got {self.design!r}"
            )
        if self.num_bitplanes is not None and not (
            1 <= self.num_bitplanes <= MAX_BITPLANES
        ):
            raise ValueError(
                f"num_bitplanes must be in [1, {MAX_BITPLANES}]"
            )
        if self.signed_encoding not in ("sign_magnitude", "negabinary"):
            raise ValueError(
                "signed_encoding must be sign_magnitude or negabinary, "
                f"got {self.signed_encoding!r}"
            )


class Refactorer:
    """Refactor float fields into progressive multi-precision streams.

    A single instance is reusable across fields of the same shape (the
    transform geometry and error weights are shared across calls).
    Levels encode one after another on the calling thread; parallel
    refactoring fans out *tiles* — see
    :class:`~repro.core.tiling.TiledRefactorer`.
    """

    def __init__(
        self, shape: tuple[int, ...], config: RefactorConfig | None = None
    ) -> None:
        self.config = config or RefactorConfig()
        self.transform = transform_for(
            shape, self.config.num_levels, self.config.mode,
            self.config.min_size)
        self._weights = level_error_weights(self.transform)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.transform.shape

    def _encode_level(
        self, lev: int, coeff: np.ndarray, num_bitplanes: int
    ) -> LevelStream:
        """Encode one coefficient level: bitplanes, then plane groups."""
        config = self.config
        stream = encode_bitplanes(
            coeff,
            num_bitplanes=num_bitplanes,
            design=config.design,
            warp_size=config.warp_size,
            signed_encoding=config.signed_encoding,
        )
        groups = compress_planes(stream.planes, config.hybrid)
        return LevelStream(
            level=lev,
            num_elements=stream.num_elements,
            num_bitplanes=stream.num_bitplanes,
            exponent=stream.exponent,
            max_abs=stream.max_abs,
            layout=stream.layout,
            warp_size=stream.warp_size,
            groups=groups,
            signed_encoding=stream.signed_encoding,
        )

    def refactor(self, data: np.ndarray, name: str = "var") -> RefactoredField:
        """Run the forward pipeline on *data*."""
        data = np.asarray(data)
        check_dtype_floating(data)
        if data.shape != self.shape:
            raise ValueError(
                f"data shape {data.shape} != refactorer shape {self.shape}"
            )
        num_bitplanes = self.config.num_bitplanes or default_bitplanes(
            data.dtype
        )
        # Finite data whose predictions overflow is the transform's
        # limit, not bad input: raise on the first overflow. Non-finite
        # data turns invalid quietly here and is rejected by the encoder.
        try:
            with np.errstate(over="raise", invalid="ignore"):
                coeffs = self.transform.decompose(data)
        except FloatingPointError as exc:
            raise ValueError(
                "the multilevel transform overflowed float64 on this "
                f"data ({exc}); its magnitudes are too close to the "
                "largest double"
            ) from None
        levels = [
            self._encode_level(lev, coeff, num_bitplanes)
            for lev, coeff in enumerate(self.transform.extract_levels(coeffs))
        ]
        value_range = (
            float(np.max(data) - np.min(data)) if data.size else 0.0
        )
        return RefactoredField(
            shape=self.shape,
            dtype=data.dtype,
            mode=self.config.mode,
            num_levels=self.transform.num_levels,
            min_size=self.config.min_size,
            group_size=self.config.hybrid.group_size,
            design=self.config.design,
            level_weights=list(self._weights),
            levels=levels,
            value_range=value_range,
            name=name,
        )


def refactor(
    data: np.ndarray,
    config: RefactorConfig | None = None,
    name: str = "var",
) -> RefactoredField:
    """One-shot convenience wrapper around :class:`Refactorer`."""
    return Refactorer(np.asarray(data).shape, config).refactor(data, name)
