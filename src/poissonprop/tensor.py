"""Dense tensor containers and elementary pooling/similarity kernels.

All containers hold float64 data internally; 32-bit file inputs are
widened at load time so long iterative runs do not accumulate
single-precision drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LengthMismatch, WindowTooLarge

ZERO_NORM_EPS = 1e-12


def _as_float64(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class Tensor:
    """N-dimensional row-major array of finite float64 values."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_float64(self.data, "tensor data")
        if any(d <= 0 for d in arr.shape):
            raise ValueError(f"tensor dims must be positive, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape


@dataclass(frozen=True)
class FeatureMap:
    """A C x H x W grid of feature vectors."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_float64(self.data, "feature map")
        if arr.ndim != 3:
            raise ValueError(f"feature map must be rank 3 (C,H,W), got rank {arr.ndim}")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def pixel_vectors(self) -> np.ndarray:
        """All pixel feature vectors, row-major, as an (H*W, C) array."""
        c, h, w = self.data.shape
        return self.data.reshape(c, h * w).T.copy()


@dataclass(frozen=True)
class SoftMask:
    """An H x W grid of weights in [0, 1]."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_float64(self.data, "mask")
        if arr.ndim != 2:
            raise ValueError(f"mask must be rank 2 (H,W), got rank {arr.ndim}")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("mask values must lie in [0, 1]")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def avg_pool(fmap: FeatureMap, window: tuple[int, int]) -> FeatureMap:
    """Channel-wise average pooling over a non-overlapping tiling.

    Windows must tile the spatial extent exactly; partial windows are
    rejected.
    """
    wh, ww = window
    h, w = fmap.data.shape[1:]
    if wh < 1 or ww < 1:
        raise ValueError("window must be positive")
    if wh > h or ww > w:
        raise WindowTooLarge(f"window {window} exceeds spatial extent {(h, w)}")
    if h % wh or w % ww:
        raise ValueError(f"window {window} does not tile extent {(h, w)}")
    # the contiguous copy gives each window's mean the loop-over-windows
    # summation order, so the bytes do not depend on the view's strides
    windows = sliding_window_view(fmap.data, window, axis=(1, 2))[:, ::wh, ::ww]
    out = np.ascontiguousarray(windows).mean(axis=(-2, -1))
    return FeatureMap(out)


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; a row with norm below 1e-12 becomes zero."""
    norms = np.linalg.norm(vectors, axis=1)
    unit = np.zeros_like(vectors)
    ok = norms >= ZERO_NORM_EPS
    unit[ok] = vectors[ok] / norms[ok, None]
    return unit


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    Returns 0 when either norm falls below 1e-12; near-zero feature
    vectors must not poison downstream sums.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise LengthMismatch(f"vector lengths differ: {u.shape} vs {v.shape}")
    unit = _unit_rows(np.stack([u, v]))
    return float(np.clip(unit[0] @ unit[1], -1.0, 1.0))


def downsample_mask(mask: SoftMask, window: tuple[int, int]) -> SoftMask:
    """Mask mean over each window of the tiling ``avg_pool`` uses.

    The grid follows from the window as the prototypes' grid does; a
    binary mask's cell is its window's exact foreground fraction,
    rounded once.
    """
    return SoftMask(avg_pool(FeatureMap(mask.data[None]), window).data[0])
